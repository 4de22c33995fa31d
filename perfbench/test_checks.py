"""Each benchmark check passes on the program's output and fails on a planted wrong answer.

    python3 -m pytest perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bingcn import bitlinalg as bl  # noqa: E402
from bingcn.datasets import load_dataset, save_dataset  # noqa: E402
from bingcn.efficiency import ArchSpec, GraphStats, cycle_ops  # noqa: E402
from bingcn.graph import AttributedGraph, neighbor_mean_matrix, normalize_adjacency  # noqa: E402
from bingcn.train import ModelConfig, train  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_graph  # noqa: E402


@pytest.fixture(scope="module")
def source():
    return make_graph(WORKLOADS["dense-sbm"], seed=3)


@pytest.fixture(scope="module")
def graph(source):
    x, edges, labels, train_m, val_m, test_m = source
    return AttributedGraph(x, edges, labels, train_m, val_m, test_m, 7)


def test_make_graph_is_fixed_by_the_seed(source):
    again = make_graph(WORKLOADS["dense-sbm"], seed=3)
    other = make_graph(WORKLOADS["dense-sbm"], seed=4)
    assert all(np.array_equal(a, b) for a, b in zip(source, again))
    assert not np.array_equal(source[1], other[1])


@pytest.mark.parametrize("shape", [(700, 70, 64), (700, 64, 7), (33, 130, 5)])
def test_bin_gemm_check_catches_one_flipped_sign(shape):
    n, d, m = shape
    rng = np.random.default_rng(n + d + m)
    h, w = rng.standard_normal((n, d)), rng.standard_normal((d, m))
    out = bl.bin_gemm(bl.binarize_rows(h), bl.binarize_columns(w))
    assert checks.check_bin_gemm(h, w, out)
    i, j = np.unravel_index(np.argmax(np.abs(out)), out.shape)
    planted = out.copy()
    planted[i, j] = -planted[i, j]
    assert not checks.check_bin_gemm(h, w, planted)
    # One input sign flipped is a different product too.
    flipped = h.copy()
    flipped[0, 0] = -flipped[0, 0] if flipped[0, 0] != 0 else 1.0
    wrong = bl.bin_gemm(bl.binarize_rows(flipped), bl.binarize_columns(w))
    assert not checks.check_bin_gemm(h, w, wrong)


def test_adjacency_check_catches_one_perturbed_value(graph, source):
    matrix = normalize_adjacency(graph).matrix
    assert checks.check_normalized_adjacency(matrix, source[1])
    planted = matrix.copy()
    planted.data[17] *= 1.001
    assert not checks.check_normalized_adjacency(planted, source[1])
    # Scaling a symmetric pair keeps symmetry but breaks A.sqrt(deg) = sqrt(deg).
    both = matrix.copy().tolil()
    r, c = matrix.nonzero()
    u, v = next((a, b) for a, b in zip(r, c) if a != b)
    both[u, v] *= 1.001
    both[v, u] *= 1.001
    assert not checks.check_normalized_adjacency(both.tocsr(), source[1])


def test_neighbor_mean_check_catches_one_perturbed_value(graph, source):
    matrix = neighbor_mean_matrix(graph)
    assert checks.check_neighbor_mean(matrix, source[1])
    planted = matrix.copy()
    planted.data[5] += 0.01
    assert not checks.check_neighbor_mean(planted, source[1])


def test_neighbor_mean_check_allows_isolated_nodes():
    edges = np.array([[0, 1], [1, 2]])
    g = AttributedGraph(np.ones((4, 2)), edges, [0, 1, 0, 1],
                        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1])
    matrix = neighbor_mean_matrix(g)
    assert checks.check_neighbor_mean(matrix, edges)
    assert checks.check_normalized_adjacency(normalize_adjacency(g).matrix, edges)


def test_loaded_graph_check_catches_one_wrong_label(graph, source, tmp_path):
    loaded = load_dataset(save_dataset(tmp_path, graph))
    x, edges, labels, train_m, val_m, test_m = source
    masks = (train_m, val_m, test_m)
    assert checks.check_loaded_graph(loaded, x, edges, labels, masks)
    wrong = labels.copy()
    wrong[0] = (wrong[0] + 1) % 7
    assert not checks.check_loaded_graph(loaded, x, edges, wrong, masks)


def test_train_loss_check():
    assert checks.check_train_losses([2.0, 1.5, 1.0], 3)
    assert not checks.check_train_losses([2.0, 1.5], 3)  # stopped early
    assert not checks.check_train_losses([2.0, 2.5, 2.1], 3)  # loss went up


def test_above_chance_check():
    assert checks.check_above_chance(0.9, 7)
    assert not checks.check_above_chance(0.3, 7)
    assert not checks.check_above_chance(0.6, 3)


def test_identical_check_catches_one_ulp():
    a = np.linspace(0.0, 1.0, 10)
    b = a.copy()
    assert checks.check_identical((1.5, a), (1.5, b))
    b[3] = np.nextafter(b[3], 2.0)
    assert not checks.check_identical((1.5, a), (1.5, b))
    assert not checks.check_identical([(1, 0.25)], [(1, 0.25000000000000006)])


def test_cycles_check_catches_a_wrong_layer_count():
    stats = GraphStats(nodes=2709, edges=4065, features=1433)
    widths = (1433, 64, 7)
    per_layer = [cycle_ops(ArchSpec(widths[i:i + 2], (True,)), stats) for i in range(2)]
    whole = cycle_ops(ArchSpec.full_binary(widths), stats)
    assert checks.check_cycles(per_layer, whole)
    assert not checks.check_cycles([per_layer[0] + 1, per_layer[1]], whole)


def test_tracer_assigns_layers_and_restores_functions(graph):
    import bingcn.layers as layers

    original = layers.bigcn_forward
    tracer = Tracer(n_layers=2)
    assert tracer.install() == []
    try:
        with tracer.span("train", family="bigcn") as root:
            result = train(ModelConfig(widths=[70, 64, 7], model="bigcn", max_epochs=3,
                                       patience=3), graph)
    finally:
        tracer.uninstall()
    assert layers.bigcn_forward is original
    assert len(result.trace) == 3
    fwd = [s for s in tracer.spans if s.name == "layer.fwd"]
    bwd = [s for s in tracer.spans if s.name == "layer.bwd"]
    # Per epoch: one train pass and one validation pass; then the test pass.
    assert [s.attrs["layer"] for s in fwd] == [0, 1] * 7
    assert [s.attrs["layer"] for s in bwd] == [1, 0] * 3
    assert all(s.find("family") == "bigcn" for s in fwd)
    assert sum(s.self_time for s in tracer.spans) == pytest.approx(root.duration, rel=1e-9)


def test_run_refuses_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("data", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "dense-sbm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
