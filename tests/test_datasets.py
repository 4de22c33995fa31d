"""Dataset file formats, loader error taxonomy, and the synthetic benchmark."""

import dataclasses
import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from bingcn.datasets import (
    DimensionMismatchError,
    FormatError,
    LabelRangeError,
    MissingFileError,
    SBMParams,
    generate_sbm,
    load_dataset,
    read_edges,
    read_labels,
    save_dataset,
    write_features,
)
from bingcn.graph import AttributedGraph


def tiny_graph():
    return AttributedGraph(
        x=np.arange(12, dtype=np.float64).reshape(4, 3) * 0.25,
        edges=np.array([[0, 1], [1, 3]]),
        labels=np.array([0, 1, 0, 1]),
        train_mask=np.array([True, False, False, False]),
        val_mask=np.array([False, True, False, False]),
        test_mask=np.array([False, False, True, True]),
        n_classes=2,
    )


class TestRoundtrip:
    def test_save_then_load_is_identity(self, tmp_path):
        g = tiny_graph()
        manifest = save_dataset(tmp_path / "tiny", g, name="tiny")
        back = load_dataset(manifest)
        assert np.array_equal(back.x, g.x)  # float32 exact for these values
        assert np.array_equal(back.edges, g.edges)
        assert np.array_equal(back.labels, g.labels)
        assert np.array_equal(back.train_mask, g.train_mask)
        assert np.array_equal(back.val_mask, g.val_mask)
        assert np.array_equal(back.test_mask, g.test_mask)
        assert back.n_classes == 2

    def test_features_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        g = dataclasses.replace(
            tiny_graph(), x=rng.standard_normal((4, 3)).astype(np.float32).astype(np.float64))
        manifest = save_dataset(tmp_path / "t2", g)
        back = load_dataset(manifest)
        assert np.array_equal(back.x, g.x)

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_features_beyond_float32_are_rejected_before_writing(self, value, tmp_path):
        g = tiny_graph()
        x = g.x.copy()
        x[1, 2] = value
        g = AttributedGraph(x, g.edges, g.labels, g.train_mask, g.val_mask, g.test_mask,
                            g.n_classes)
        with pytest.raises(ValueError, match="float32"):
            save_dataset(tmp_path / "big", g)
        assert not (tmp_path / "big" / "features.bin").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_rejected_before_writing(self, value, tmp_path):
        x = np.zeros((2, 3))
        x[0, 1] = value
        with pytest.raises(ValueError, match="finite"):
            write_features(tmp_path / "features.bin", x)
        assert not (tmp_path / "features.bin").exists()

    def test_largest_float32_is_written(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        g = tiny_graph()
        x = g.x.copy()
        x[0] = [top, -top, 0.0]
        g = AttributedGraph(x, g.edges, g.labels, g.train_mask, g.val_mask, g.test_mask,
                            g.n_classes)
        assert np.array_equal(load_dataset(save_dataset(tmp_path / "top", g)).x, x)

    def test_empty_edge_file_gives_isolated_nodes(self, tmp_path):
        g = tiny_graph()
        d = tmp_path / "iso"
        manifest = save_dataset(d, g)
        (d / "edges.txt").write_text("")
        back = load_dataset(manifest)
        assert back.n_edges == 0

    def test_self_loops_and_duplicates_dropped_on_load(self, tmp_path):
        g = tiny_graph()
        d = tmp_path / "loops"
        manifest = save_dataset(d, g)
        (d / "edges.txt").write_text("0 0\n0 1\n1 0\n1 3\n")
        back = load_dataset(manifest)
        assert np.array_equal(back.edges, [[0, 1], [1, 3]])


class TestTextFiles:
    def test_saved_text_is_one_pair_and_one_label_per_line(self, tmp_path):
        g = generate_sbm(SBMParams(nodes_per_class=60, n_classes=3, n_features=12, seed=5))
        save_dataset(tmp_path, g)
        assert (tmp_path / "edges.txt").read_text() == "".join(
            f"{u} {v}\n" for u, v in g.edges)
        assert (tmp_path / "labels.txt").read_text() == "".join(f"{y}\n" for y in g.labels)

    def test_edges_skip_blank_lines(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("\n0 1\n\n  \n 2\t3 \n\n")
        assert read_edges(path).tolist() == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank"])
    def test_edge_file_without_pairs_gives_none_and_no_warning(self, text, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = read_edges(path)
        assert edges.shape == (0, 2) and edges.dtype == np.int64

    @pytest.mark.parametrize("blob", [
        b"0 1 2\n", b"0\n1\n", b"0 1\n2\n", b"0 x\n", b"0 1.5\n",
        b"0 12345678901234567890\n", b"\xff0 1\n", b"0 1 # note\n",
    ], ids=["three-columns", "one-column", "short-line", "word", "float",
            "beyond-int64", "undecodable", "comment"])
    def test_bad_edge_file_is_format_error_naming_it(self, blob, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="edges.txt"):
            read_edges(path)

    def test_labels_are_any_whitespace_separated_integers(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 1\n\n2\t-3  +4\n")
        assert read_labels(path).tolist() == [0, 1, 2, -3, 4]

    @pytest.mark.parametrize("blob", [b"0 x\n", b"1.5\n", b"12345678901234567890\n",
                                      b"\xff1\n"],
                             ids=["word", "float", "beyond-int64", "undecodable"])
    def test_bad_label_file_is_format_error_naming_it(self, blob, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="labels.txt"):
            read_labels(path)


class TestLoadErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_dataset(tmp_path / "nope" / "manifest.json")

    def test_missing_data_file(self, tmp_path):
        manifest = save_dataset(tmp_path / "m", tiny_graph())
        (tmp_path / "m" / "features.bin").unlink()
        with pytest.raises(MissingFileError):
            load_dataset(manifest)

    def test_dimension_mismatch(self, tmp_path):
        d = tmp_path / "dims"
        manifest = save_dataset(d, tiny_graph())
        raw = json.loads(manifest.read_text())
        raw["num_nodes"] = 5
        manifest.write_text(json.dumps(raw))
        with pytest.raises(DimensionMismatchError):
            load_dataset(manifest)

    def test_label_out_of_range(self, tmp_path):
        d = tmp_path / "labels"
        manifest = save_dataset(d, tiny_graph())
        (d / "labels.txt").write_text("0\n1\n0\n9\n")
        with pytest.raises(LabelRangeError):
            load_dataset(manifest)

    def test_unknown_mask_characters_rejected(self, tmp_path):
        d = tmp_path / "badmask"
        manifest = save_dataset(d, tiny_graph())
        (d / "masks.txt").write_text("tx--\n")
        with pytest.raises(FormatError):
            load_dataset(manifest)

    @pytest.mark.parametrize("key, value", [
        ("num_nodes", 4.9), ("num_nodes", "4"), ("num_classes", 2.7),
        ("num_nodes", True), ("name", 5),
    ], ids=["num-nodes-4.9", "num-nodes-str-4", "num-classes-2.7", "num-nodes-true",
            "name-5"])
    def test_mistyped_manifest_value_is_format_error(self, key, value, tmp_path):
        # Counts are integers (never a bool) and the name a string: no coercion.
        manifest = save_dataset(tmp_path / "typed", tiny_graph())
        raw = json.loads(manifest.read_text())
        raw[key] = value
        manifest.write_text(json.dumps(raw))
        with pytest.raises(FormatError, match=f"manifest.json: .*{key} must be"):
            load_dataset(manifest)

    def test_bad_feature_magic(self, tmp_path):
        d = tmp_path / "magic"
        manifest = save_dataset(d, tiny_graph())
        blob = (d / "features.bin").read_bytes()
        (d / "features.bin").write_bytes(b"WRNG" + blob[4:])
        with pytest.raises(FormatError):
            load_dataset(manifest)

    def test_edge_endpoint_out_of_range(self, tmp_path):
        d = tmp_path / "edges"
        manifest = save_dataset(d, tiny_graph())
        (d / "edges.txt").write_text("0 99\n")
        with pytest.raises(DimensionMismatchError):
            load_dataset(manifest)


class TestSBM:
    def test_deterministic_per_seed(self):
        params = SBMParams(nodes_per_class=60, n_classes=3, n_features=12, seed=5)
        g1 = generate_sbm(params)
        g2 = generate_sbm(params)
        assert np.array_equal(g1.x, g2.x)
        assert np.array_equal(g1.edges, g2.edges)
        assert np.array_equal(g1.train_mask, g2.train_mask)

    def test_no_duplicate_edges_or_self_loops(self):
        g = generate_sbm(SBMParams(nodes_per_class=80, n_classes=4,
                                   n_features=16, p_in=0.2, p_out=0.05, seed=1))
        assert (g.edges[:, 0] < g.edges[:, 1]).all()
        assert len(np.unique(g.edges, axis=0)) == len(g.edges)

    def test_split_sizes(self):
        params = SBMParams(nodes_per_class=100, n_classes=7, n_features=70, seed=2)
        g = generate_sbm(params)
        assert g.train_mask.sum() == 7 * 20
        assert g.val_mask.sum() == 7 * 30
        assert g.test_mask.sum() == 7 * 50
        for c in range(7):
            cls = g.labels == c
            assert (g.train_mask & cls).sum() == 20
            assert (g.val_mask & cls).sum() == 30

    def test_equal_probabilities_lose_block_structure(self):
        intra_counts, inter_counts = [], []
        for seed in range(8):
            g = generate_sbm(SBMParams(nodes_per_class=50, n_classes=2,
                                       p_in=0.05, p_out=0.05, n_features=4,
                                       signal=1.0, seed=seed,
                                       train_per_class=10, val_per_class=10))
            same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
            intra_counts.append(int(same.sum()))
            inter_counts.append(int((~same).sum()))
        # expected intra pairs: 2 * C(50,2) = 2450; inter pairs: 2500
        intra_mean = np.mean(intra_counts) / 2450.0
        inter_mean = np.mean(inter_counts) / 2500.0
        # identical edge probability -> per-pair rates agree within 3 sigma
        sigma = np.sqrt(0.05 * 0.95 / (2450 * 8)) + np.sqrt(0.05 * 0.95 / (2500 * 8))
        assert abs(intra_mean - inter_mean) < 3 * sigma

    def test_zero_signal_features_uninformative(self):
        g = generate_sbm(SBMParams(nodes_per_class=200, n_classes=2, p_in=0.0,
                                   p_out=0.0, n_features=10, signal=0.0, seed=3,
                                   train_per_class=50, val_per_class=50))
        # nearest-class-mean classifier on train means ~ chance on test
        means = np.stack([g.x[g.train_mask & (g.labels == c)].mean(axis=0)
                          for c in range(2)])
        dists = ((g.x[g.test_mask, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        acc = (dists.argmin(axis=1) == g.labels[g.test_mask]).mean()
        assert abs(acc - 0.5) < 0.1

    def test_graph_pinned_across_row_chunks(self):
        # 300 nodes per class spans two row chunks of every block pair; the
        # digests are those of the one-draw-per-block sampler
        g = generate_sbm(SBMParams(nodes_per_class=300, n_classes=3, p_in=0.03,
                                   p_out=0.003, n_features=12, signal=1.0, seed=3))
        assert len(g.edges) == 4885
        assert hashlib.sha256(g.edges.tobytes()).hexdigest() == (
            "a50699ee2a2eb6b90b263d0bc4ef460d4a478d696cef72bf009a9fa3b8701e18")
        assert hashlib.sha256(g.x.tobytes()).hexdigest() == (
            "46e87ce7381db6bb9531048be3274b3a63b5491c28617cf6c6e7feeb65507dde")

    def test_memory_grows_with_the_block_not_n_squared(self):
        # one 2000 x 2000 uniform draw alone would take 30.5 MiB
        params = SBMParams(nodes_per_class=2000, n_classes=2, p_in=0.005,
                           p_out=0.0005, seed=3)
        tracemalloc.start()
        try:
            generate_sbm(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(ValueError):
            SBMParams(p_in=0.1, p_out=0.5)
        with pytest.raises(ValueError):
            SBMParams(n_features=3, n_classes=7)
        with pytest.raises(ValueError):
            SBMParams(nodes_per_class=40)  # 20 train + 30 val > 40
        with pytest.raises(ValueError):
            SBMParams(signal=-1.0)

    @pytest.mark.parametrize("field, value", [("p_in", True), ("signal", "2")])
    def test_mistyped_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SBMParams(**{field: value})

    def test_numpy_scalars_accepted(self):
        params = SBMParams(nodes_per_class=np.int64(60), p_in=np.float32(0.25), signal=np.int8(2))
        assert (params.nodes_per_class, params.signal) == (60, 2)
