"""The scripts: the Planetoid converter and the benchmark snapshot's gate summary."""

import importlib.util
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from bingcn.datasets import load_dataset, save_dataset

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


convert_planetoid = _script("convert_planetoid")
bench_snapshot = _script("bench_snapshot")


# A tiny Planetoid layout: 510 allx rows (2 train, then 500 validation and
# 8 in no split), then a test span of 5 rows listed out of order, with a
# gap at 512 as in CiteSeer.
N_ALLX, N_TRAIN, D, C = 510, 2, 4, 3
TEST_INDEX = [N_ALLX + k for k in (3, 0, 4, 1)]
GAP = N_ALLX + 2


def _onehot(labels):
    return np.eye(C, dtype=np.int64)[labels]


def _write_raw(raw, test_index=TEST_INDEX):
    allx = (np.arange(N_ALLX * D).reshape(N_ALLX, D) % 7).astype(np.float32)
    tx = 100 + np.arange(len(test_index) * D).reshape(-1, D).astype(np.float32)
    ally = _onehot(np.arange(N_ALLX) % C)
    ty = _onehot(np.array([2, 1, 0, 2]))
    graph = {
        0: [1, 2, TEST_INDEX[0]],
        1: [0],  # (0, 1) again, reversed
        3: [3],  # a self-loop
        4: [10_000],  # a neighbor id beyond the last node
        TEST_INDEX[1]: [TEST_INDEX[0]],
    }
    parts = {"x": sp.csr_matrix(allx[:N_TRAIN]), "y": ally[:N_TRAIN],
             "tx": sp.csr_matrix(tx), "ty": ty,
             "allx": sp.csr_matrix(allx), "ally": ally, "graph": graph}
    for key, value in parts.items():
        with open(raw / f"ind.cora.{key}", "wb") as fh:
            pickle.dump(value, fh)
    np.savetxt(raw / "ind.cora.test.index", test_index, fmt="%d")
    return allx, tx, ally, ty


class TestConvertPlanetoid:
    @pytest.fixture
    def converted(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        parts = _write_raw(raw)
        graph = convert_planetoid.convert(raw, "cora")
        return load_dataset(save_dataset(tmp_path / "cora", graph, name="cora")), parts

    def test_test_rows_land_at_their_test_index(self, converted):
        g, (allx, tx, ally, ty) = converted
        assert g.n_nodes == N_ALLX + 5 and g.n_classes == C
        assert np.array_equal(g.x[:N_ALLX], allx)
        assert np.array_equal(g.labels[:N_ALLX], ally.argmax(1))
        for k, node in enumerate(TEST_INDEX):
            assert np.array_equal(g.x[node], tx[k])
            assert g.labels[node] == ty[k].argmax()

    def test_gap_rows_are_zero_and_in_no_split(self, converted):
        g, _ = converted
        assert not g.x[GAP].any()
        assert not (g.train_mask[GAP] or g.val_mask[GAP] or g.test_mask[GAP])

    def test_fixed_split(self, converted):
        g, _ = converted
        nodes = np.arange(g.n_nodes)
        assert np.array_equal(nodes[g.train_mask], np.arange(N_TRAIN))
        assert np.array_equal(nodes[g.val_mask], np.arange(N_TRAIN, N_TRAIN + 500))
        assert np.array_equal(nodes[g.test_mask], np.sort(TEST_INDEX))

    def test_edges_are_canonical_without_self_loops_or_out_of_range_ids(self, converted):
        g, _ = converted
        expected = [[0, 1], [0, 2], [0, TEST_INDEX[0]], [TEST_INDEX[1], TEST_INDEX[0]]]
        assert g.edges.tolist() == expected

    def test_test_index_not_starting_after_allx_is_rejected(self, tmp_path):
        _write_raw(tmp_path, test_index=[node + 1 for node in TEST_INDEX])
        with pytest.raises(ValueError, match="test indices start at"):
            convert_planetoid.convert(tmp_path, "cora")


END_TO_END = [
    {"name": "epoch_ms", "better": "lower", "bound": 0.25},
    {"name": "test_acc", "better": "higher", "bound": 0.15},
]


def _run(**values):
    """One run's result as `run_once` returns it (the gate reads no unit)."""
    return {"run": {"correct": True}, "blas_threads": 1,
            "metrics": {name: {"value": v, "unit": "ms"} for name, v in values.items()}}


def _gate(change, parent):
    """`_worse_by` and `_ratios` of pairs given as per-side lists of runs."""
    pairs = [{"change": c, "parent": p} for c, p in zip(change, parent)]
    sides = {"change": bench_snapshot._side(change), "parent": bench_snapshot._side(parent)}
    return bench_snapshot._worse_by(sides, pairs, END_TO_END), bench_snapshot._ratios(pairs)


class TestSnapshotGate:
    def test_worse_by_is_signed_by_the_better_direction(self):
        worse, _ = _gate([_run(epoch_ms=12, test_acc=0.8)] * 4,
                         [_run(epoch_ms=10, test_acc=0.9)] * 4)
        assert worse["epoch_ms"]["worse_by"] == pytest.approx(0.2)
        assert worse["test_acc"]["worse_by"] == pytest.approx(0.1 / 0.9)
        worse, _ = _gate([_run(test_acc=0.9)] * 4, [_run(test_acc=0.8)] * 4)
        assert worse["test_acc"]["worse_by"] == pytest.approx(-0.125)
        assert worse["test_acc"]["better_pairs"] == "4/4"

    @pytest.mark.parametrize("change, within", [(12.4, True), (12.6, False)])
    def test_within_bound_at_the_edge(self, change, within):
        worse, _ = _gate([_run(epoch_ms=change)] * 4, [_run(epoch_ms=10)] * 4)
        assert worse["epoch_ms"]["bound"] == 0.25
        assert worse["epoch_ms"]["within_bound"] is within

    def test_a_tied_pair_counts_for_neither_side(self):
        worse, _ = _gate([_run(epoch_ms=v) for v in (9, 10, 11, 10)],
                         [_run(epoch_ms=10)] * 4)
        assert worse["epoch_ms"]["better_pairs"] == "1/4"
        assert worse["epoch_ms"]["worse_by"] == 0.0

    def test_a_metric_on_one_side_only_is_skipped(self):
        worse, ratios = _gate([_run(epoch_ms=10, test_acc=0.9)] * 4,
                              [_run(epoch_ms=10)] * 4)
        assert set(worse) == {"epoch_ms"} and set(ratios) == {"epoch_ms"}

    def test_a_zero_parent_value_is_left_out_of_the_ratios(self):
        _, ratios = _gate([_run(epoch_ms=v, calls=3) for v in (4, 6, 8, 9)],
                          [_run(epoch_ms=v, calls=0) for v in (0, 3, 4, 3)])
        assert ratios["epoch_ms"]["values"] == [2.0, 2.0, 3.0]
        assert ratios["epoch_ms"]["median"] == 2.0
        assert "calls" not in ratios

    def test_pair_ratios_are_read_next_to_the_medians(self):
        # Pair 3 ran the change in a slow state of the machine: the side medians
        # read 9.4 % worse, the per-pair ratios 1.4 % better.
        worse, _ = _gate([_run(epoch_ms=v) for v in (70, 70, 70, 56)],
                         [_run(epoch_ms=v) for v in (72, 72, 55, 56)])
        assert worse["epoch_ms"]["worse_by"] == pytest.approx(6 / 64)
        assert worse["epoch_ms"]["pair_worse_by"] == pytest.approx((70 / 72 + 1) / 2 - 1)
        assert worse["epoch_ms"]["within_bound"] and worse["epoch_ms"]["disagrees"]
        worse, _ = _gate([_run(epoch_ms=12)] * 4, [_run(epoch_ms=10)] * 4)
        assert worse["epoch_ms"]["pair_worse_by"] == pytest.approx(0.2)
        assert not worse["epoch_ms"]["disagrees"]

    def test_bench_18_flags_the_bimodal_gcn_epoch(self):
        # pubmed-sbm's gcn.epoch_ms ran near 70 ms in pairs 1-5 and near 55 ms
        # in pairs 6-10 on both sides: its medians read 16.7 % worse, its
        # per-pair ratios a median of 0.993.
        record = json.loads((SCRIPTS.parent / "BENCH_18.json").read_text())
        bench = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
        workload = record["workloads"]["pubmed-sbm"]
        names = workload["change"]["metrics"].keys() & workload["parent"]["metrics"].keys()
        pairs = [{side: {"metrics": {name: {"value": workload[side]["metrics"][name]["values"][k]}
                                     for name in names}} for side in bench_snapshot.SIDES}
                 for k in range(len(record["seeds"]))]
        worse = bench_snapshot._worse_by(workload, pairs, bench["end_to_end"])
        gcn = worse["gcn.epoch_ms"]
        assert gcn["worse_by"] == pytest.approx(0.1666, abs=1e-3)
        assert gcn["pair_worse_by"] == pytest.approx(-0.0074, abs=1e-3)
        assert gcn["within_bound"] and gcn["disagrees"]
