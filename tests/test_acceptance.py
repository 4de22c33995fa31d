"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one
``[ACCEPTANCE] <name>: PASS/FAIL`` line per criterion. Dataset-dependent
criteria skip (with a reason) when the citation-network files are not
present; point BINGCN_DATA_DIR at a directory containing
``cora/manifest.json`` etc. to enable them.
"""

import functools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from bingcn import bitlinalg as bl
from bingcn.capacity import bin_neuron_entropy, capacity_lower_bound
from bingcn.cli import run
from bingcn.datasets import SBMParams, generate_sbm, load_dataset
from bingcn.graph import normalize_adjacency
from bingcn.layers import backward, forward, masked_softmax_xent
from bingcn.train import ModelConfig, train

from reference_impl import gcn_forward, scalar_bigcn_backward, unpack_signs
from test_layers import random_graph


def criterion(name, limit_seconds=None):
    """Print a pass/fail line (and enforce the runtime budget) per criterion."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE] {name}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"\n[ACCEPTANCE] {name}: PASS ({elapsed:.2f}s)")
            if limit_seconds is not None:
                assert elapsed < limit_seconds, (
                    f"{name} took {elapsed:.2f}s, budget {limit_seconds}s")
        return wrapper
    return deco


def dataset_manifest(name):
    base = Path(os.environ.get("BINGCN_DATA_DIR", Path(__file__).parent.parent / "data"))
    manifest = base / name / "manifest.json"
    return manifest if manifest.is_file() else None


@criterion("table-1 golden reproduction", limit_seconds=1.0)
def test_table1_golden(tmp_path, capsys):
    code = run(["analyze", "--nodes", "2708", "--edges", "5429",
                "--features", "1433", "--widths", "1433,64,7",
                "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "efficiency.json").read_text())
    assert report["cycle_ops"]["float"] == 249_954_739
    assert report["cycle_ops"]["binary"] == 4_669_515
    assert abs(report["ratios"]["cycle_acceleration"] - 53.5) <= 0.1
    assert report["model_size_display"] == {"float": "360K", "binary": "11.53K"}
    assert abs(report["ratios"]["param_compression_total"] - 31.2) <= 0.1
    assert report["data_size_display"] == {"float": "14.8M", "binary": "0.47M"}


@criterion("acceleration formulas")
def test_acceleration_formulas():
    from bingcn.efficiency import acceleration_ratios
    s_fe_first, _ = acceleration_ratios(1433, 0.0)
    s_fe_second, _ = acceleration_ratios(64, 0.0)
    assert 58.5 <= s_fe_first <= 59.0
    assert 21.0 <= s_fe_second <= 21.5


@criterion("kernel oracle", limit_seconds=10.0)
def test_kernel_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n, d, m = (int(x) for x in rng.integers(1, 65, size=3))
        h = rng.standard_normal((n, d)) * rng.uniform(0.2, 4.0)
        w = rng.standard_normal((d, m))
        out = bl.bin_gemm(bl.binarize_rows(h), bl.binarize_columns(w))
        # float oracle straight from the definitions, not from the packer
        h_tilde = np.where(h >= 0, 1.0, -1.0) * np.abs(h).mean(axis=1)[:, None]
        w_tilde = np.where(w >= 0, 1.0, -1.0) * np.abs(w).mean(axis=0)[None, :]
        assert np.abs(out - h_tilde @ w_tilde).max() < 1e-6


@criterion("binarization optimality", limit_seconds=5.0)
def test_binarization_optimality(monkeypatch):
    """The binarizers the model runs, on one bucket: a 1 x t feature row
    through `binarize_rows` and a t x 1 weight column through
    `binarize_columns`, on the production route and the numpy route."""
    for route in ("production", "numpy"):
        with monkeypatch.context() as m:
            if route == "numpy":
                m.setattr(bl, "_native", lambda: None)
            rng = np.random.default_rng(7)
            for _ in range(500):
                t = int(rng.integers(1, 13))
                v = rng.standard_normal(t) * rng.uniform(0.1, 10.0)
                # exhaustive search over all 2^t sign patterns, closed-form scale
                codes = np.arange(2 ** t)
                patterns = np.where(
                    ((codes[:, None] >> np.arange(t)[None, :]) & 1).astype(bool), 1.0, -1.0)
                scales = (patterns @ v) / t
                search = ((v[None, :] - scales[:, None] * patterns) ** 2).sum(axis=1)
                for packed in (bl.binarize_rows(v[None, :]), bl.binarize_columns(v[:, None])):
                    approx = packed.scalars[0] * unpack_signs(packed).ravel()
                    err = float(((v - approx) ** 2).sum())
                    assert err <= search.min() + 1e-12, route


@criterion("backward oracle", limit_seconds=10.0)
def test_backward_oracle():
    rng = np.random.default_rng(99)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        d_in = int(rng.integers(1, 9))
        d_out = int(rng.integers(1, 9))
        mode = "grad" if trial % 2 == 0 else "input"
        g = random_graph(rng, n, d_in)
        adj = normalize_adjacency(g)
        w = rng.uniform(-1.5, 1.5, size=(d_in, d_out))
        _, cache = forward(adj, g.x, [w], binarized=True, training=True)
        grad_out = rng.standard_normal((n, d_out))
        grad_h, (grad_w,) = backward(cache, adj, grad_out, ste_mode=mode)
        ref_h, ref_w = scalar_bigcn_backward(g.x, w, adj.matrix.toarray(), grad_out,
                                             ste_mode=mode)
        assert np.abs(grad_h - ref_h).max() < 1e-9
        assert np.abs(grad_w - ref_w).max() < 1e-9


@criterion("baseline gradient check", limit_seconds=10.0)
def test_baseline_gradient_check():
    rng = np.random.default_rng(123)
    step = 1e-4
    for _ in range(5):
        n = int(rng.integers(2, 7))
        g = random_graph(rng, n, 4, n_classes=3)
        adj = normalize_adjacency(g)
        layers = [rng.standard_normal((4, 5)), rng.standard_normal((5, 3))]

        def loss_of(ws):
            h = g.x
            for i, w in enumerate(ws):
                h = gcn_forward(adj, h, w, activation=i == 0)
            return masked_softmax_xent(h, g.labels, g.train_mask)[0]

        h1, c1 = forward(adj, g.x, [layers[0]], binarized=False, activation=True)
        h2, c2 = forward(adj, h1, [layers[1]], binarized=False)
        _, grad_logits = masked_softmax_xent(h2, g.labels, g.train_mask)
        grad_h1, (grad_w2,) = backward(c2, adj, grad_logits)
        _, (grad_w1,) = backward(c1, adj, grad_h1, need_input_grad=False)

        for li, analytic in ((0, grad_w1), (1, grad_w2)):
            ws = [layers[0].copy(), layers[1].copy()]
            fd = np.zeros_like(ws[li])
            for idx in np.ndindex(*ws[li].shape):
                ws[li][idx] += step
                up = loss_of(ws)
                ws[li][idx] -= 2 * step
                down = loss_of(ws)
                ws[li][idx] += step
                fd[idx] = (up - down) / (2 * step)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(analytic - fd).max() <= 1e-4 * scale


@criterion("entropy analytics", limit_seconds=1.0)
def test_entropy_analytics():
    m = 200
    centers = (np.arange(m) + 0.5) / m
    uniform = np.repeat(centers, 3)
    assert abs(bin_neuron_entropy(uniform, m) - np.log2(m)) <= 1e-9
    assert bin_neuron_entropy(np.full(64, 1.23), m) == 0.0
    two_bin = np.array([0.0] * 8 + [1.0] * 8)
    assert bin_neuron_entropy(two_bin, 2) == pytest.approx(1.0, abs=1e-12)
    assert capacity_lower_bound(97.37).d_bin_lower == 98


@criterion("desk-scale training", limit_seconds=120.0)
def test_desk_scale_training():
    params = SBMParams(nodes_per_class=100, n_classes=7, p_in=0.1, p_out=0.01,
                       n_features=70, signal=2.0, seed=7)
    graph = generate_sbm(params)
    assert graph.n_nodes == 700
    base = dict(widths=[70, 64, 7], seed=7, max_epochs=1000, patience=100)
    gcn = train(ModelConfig(model="gcn", **base), graph)
    bigcn = train(ModelConfig(model="bigcn", **base), graph)
    print(f"  gcn={gcn.test_acc:.4f} bigcn={bigcn.test_acc:.4f}")
    assert bigcn.test_acc >= 0.9 * gcn.test_acc


CORA = dataset_manifest("cora")


@pytest.mark.skipif(CORA is None, reason="Cora dataset files not present")
@criterion("cora training", limit_seconds=900.0)
def test_cora_training():
    graph = load_dataset(CORA)
    assert graph.n_nodes == 2708
    assert graph.n_features == 1433
    assert graph.n_classes == 7
    bigcn_accs, gcn_accs = [], []
    for seed in range(10):
        base = dict(widths=[1433, 64, 7], seed=seed, max_epochs=1000,
                    patience=100, dropout=0.4, lr=1e-3)
        bigcn_accs.append(train(ModelConfig(model="bigcn", **base), graph).test_acc)
        gcn_accs.append(train(ModelConfig(model="gcn", **base), graph).test_acc)
    print(f"  bigcn mean={np.mean(bigcn_accs):.4f} gcn mean={np.mean(gcn_accs):.4f}")
    assert np.mean(bigcn_accs) >= 0.78
    assert np.mean(gcn_accs) >= 0.80


PUBMED = dataset_manifest("pubmed")
CITESEER = dataset_manifest("citeseer")


@pytest.mark.skipif(PUBMED is None, reason="PubMed dataset files not present")
@criterion("pubmed training (optional)", limit_seconds=1800.0)
def test_pubmed_training_optional():
    graph = load_dataset(PUBMED)
    accs = [train(ModelConfig(widths=[graph.n_features, 64, graph.n_classes],
                              model="bigcn", seed=s), graph).test_acc
            for s in range(3)]
    assert np.mean(accs) >= 0.75  # reported 78.2 +- 1.0


@pytest.mark.skipif(CITESEER is None, reason="CiteSeer dataset files not present")
@criterion("citeseer training (optional)", limit_seconds=1800.0)
def test_citeseer_training_optional():
    graph = load_dataset(CITESEER)
    accs = [train(ModelConfig(widths=[graph.n_features, 64, graph.n_classes],
                              model="bigcn", seed=s), graph).test_acc
            for s in range(3)]
    assert np.mean(accs) >= 0.65  # reported 68.8 +- 0.9


@criterion("desk-scale exclusions documented")
def test_desk_scale_exclusions():
    """Checks that are out of reach at desk scale stay out of the gate.

    Excluded by design: exact PubMed/CiteSeer accuracies (optional
    dataset-gated tests above), all large-graph results (Reddit, Flickr,
    OGBN-*), the 97.37-bit entropy measurement of a specific trained
    checkpoint (replaced by the entropy-analytics properties), and
    wall-clock speedup claims (the cycle model is the target; perfbench
    timings are informational).
    """
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert "cycle" in readme.lower()
