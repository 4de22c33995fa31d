"""Layer forward/backward passes, batch norm, and the masked loss."""

import tracemalloc

import numpy as np
import pytest

from bingcn import bitlinalg as bl
from bingcn import layers as L
from bingcn.datasets import SBMParams, generate_sbm
from bingcn.graph import (
    AttributedGraph,
    NormalizedAdjacency,
    aggregate,
    neighbor_mean_matrix,
    normalize_adjacency,
    row_plan,
)
from bingcn.layers import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNormState,
    Workspace,
    backward,
    batch_norm_apply,
    batch_norm_backward,
    batch_norm_forward,
    forward,
    masked_accuracy,
    masked_loss_and_accuracy,
    masked_softmax_xent,
    ste_gate,
)
from bingcn.train import Model, ModelConfig, train

from reference_impl import (gcn_forward, scalar_bigcn_backward, scalar_bigcn_forward,
                            unpack_signs)


def random_graph(rng, n, d, n_classes=2, edge_factor=2):
    raw = rng.integers(0, n, size=(n * edge_factor, 2))
    train = np.zeros(n, dtype=bool)
    train[: max(1, n // 3)] = True
    val = np.zeros(n, dtype=bool)
    if n > 1:
        val[max(1, n // 3)] = True
    test = ~(train | val)
    return AttributedGraph(
        x=rng.standard_normal((n, d)),
        edges=raw,
        labels=rng.integers(0, n_classes, size=n),
        train_mask=train,
        val_mask=val,
        test_mask=test,
        n_classes=n_classes,
    )


class TestBiGCNForward:
    def test_single_node_hand_example(self):
        g = random_graph(np.random.default_rng(0), 1, 2)
        g.x = np.array([[1.0, -1.0]])
        adj = normalize_adjacency(g)
        w = np.array([[0.5, -0.5], [0.5, 0.5]])
        h_out, _ = forward(adj, bl.binarize_rows(g.x), [w], binarized=True)
        assert np.allclose(h_out, [[0.0, -1.0]])

    def test_zero_weights_give_zero_output(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 5, 4)
        adj = normalize_adjacency(g)
        h_out, _ = forward(adj, bl.binarize_rows(g.x), [np.zeros((4, 3))], binarized=True)
        assert np.array_equal(h_out, np.zeros((5, 3)))

    def test_exactly_representable_rows(self):
        # rows of the form +-c binarize losslessly, so the layer reduces
        # to H @ W_tilde when the adjacency is the identity
        rng = np.random.default_rng(2)
        g = random_graph(rng, 4, 6, edge_factor=0)
        signs = np.where(rng.random((4, 6)) < 0.5, 1.0, -1.0)
        g.x = signs * rng.uniform(0.5, 2.0, size=(4, 1))
        adj = normalize_adjacency(g)
        w = rng.standard_normal((6, 3))
        h_out, _ = forward(adj, bl.binarize_rows(g.x), [w], binarized=True)
        b = bl.binarize_columns(w)
        w_tilde = unpack_signs(b).T * b.scalars[None, :]
        assert np.allclose(h_out, g.x @ w_tilde, atol=1e-9)

    def test_matches_scalar_forward(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 6, 5)
        adj = normalize_adjacency(g)
        w = rng.standard_normal((5, 3))
        h_out, _ = forward(adj, bl.binarize_rows(g.x), [w], binarized=True)
        ref_out, ref_zeta = scalar_bigcn_forward(g.x, w, adj.matrix.toarray())
        assert np.allclose(h_out, ref_out, atol=1e-9)
        assert np.allclose(h_out, adj.matrix.toarray() @ ref_zeta, atol=1e-9)

    def test_training_and_inference_paths_agree(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, d, m = (int(v) for v in rng.integers(2, 40, size=3))
            g = random_graph(rng, n, d)
            adj = normalize_adjacency(g)
            w = rng.standard_normal((d, m))
            h_eval, _ = forward(adj, bl.binarize_rows(g.x), [w], binarized=True,
                                training=False)
            h_train, _ = forward(adj, g.x, [w], binarized=True, training=True)
            assert np.abs(h_eval - h_train).max() < 1e-5

    def test_dropout_masks_binarized_features(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 8, 10)
        adj = normalize_adjacency(g)
        w = rng.standard_normal((10, 4))
        h_out, cache = forward(adj, g.x, [w], binarized=True, training=True,
                               dropout=0.5, rng=np.random.default_rng(99))
        assert cache.drop_mask is not None
        dropped = cache.drop_mask == 0.0
        assert dropped.any() and not dropped.all()
        kept_scale = cache.drop_mask[~dropped]
        assert np.allclose(kept_scale, 2.0)  # inverted dropout at rate 0.5
        signs = np.where(g.x >= 0, 1.0, -1.0)
        assert np.array_equal(cache.operand, signs * cache.drop_mask)
        h_tilde = cache.beta[:, None] * cache.operand
        expected_zeta = h_tilde @ (np.where(w >= 0, 1.0, -1.0) * np.abs(w).mean(axis=0))
        assert np.allclose(h_out, adj.matrix.toarray() @ expected_zeta)

    def test_dropout_requires_rng(self):
        g = random_graph(np.random.default_rng(6), 3, 4)
        adj = normalize_adjacency(g)
        with pytest.raises(ValueError):
            forward(adj, g.x, [np.ones((4, 2))], binarized=True, training=True, dropout=0.5)

    def test_shape_mismatch(self):
        g = random_graph(np.random.default_rng(7), 3, 4)
        adj = normalize_adjacency(g)
        with pytest.raises(ValueError):
            forward(adj, bl.binarize_rows(g.x), [np.ones((5, 2))], binarized=True)


class TestBiGCNBackward:
    def test_zero_gradient(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 4, 5)
        adj = normalize_adjacency(g)
        w = rng.standard_normal((5, 2))
        _, cache = forward(adj, g.x, [w], binarized=True, training=True)
        grad_h, (grad_w,) = backward(cache, adj, np.zeros((4, 2)))
        assert np.array_equal(grad_h, np.zeros((4, 5)))
        assert np.array_equal(grad_w, np.zeros((5, 2)))

    def test_large_grad_killed_in_grad_mode(self):
        # single node, single weight: grad_h_tilde = g * alpha * sign
        g = random_graph(np.random.default_rng(9), 1, 1)
        g.x = np.array([[0.5]])
        adj = normalize_adjacency(g)
        _, cache = forward(adj, g.x, [np.array([[0.75]])], binarized=True, training=True)
        grad_h, _ = backward(cache, adj, np.array([[2.0]]), ste_mode="grad")
        # grad_h_tilde = 2.0 * 0.75 = 1.5 -> gated to zero
        assert grad_h[0, 0] == 0.0
        grad_h_input_mode, _ = backward(cache, adj, np.array([[2.0]]), ste_mode="input")
        # |h_in| = 0.5 < 1 keeps the gradient in input mode
        assert grad_h_input_mode[0, 0] == pytest.approx(1.5)

    @pytest.mark.parametrize("ste_mode", ["grad", "input"])
    def test_matches_scalar_reference(self, ste_mode):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            d_in = int(rng.integers(1, 8))
            d_out = int(rng.integers(1, 8))
            g = random_graph(rng, n, d_in)
            adj = normalize_adjacency(g)
            w = rng.uniform(-1.5, 1.5, size=(d_in, d_out))
            _, cache = forward(adj, g.x, [w], binarized=True, training=True)
            grad_out = rng.standard_normal((n, d_out))
            grad_h, (grad_w,) = backward(cache, adj, grad_out, ste_mode=ste_mode)
            ref_h, ref_w = scalar_bigcn_backward(g.x, w, adj.matrix.toarray(), grad_out,
                                                 ste_mode=ste_mode)
            assert np.allclose(grad_h, ref_h, atol=1e-9)
            assert np.allclose(grad_w, ref_w, atol=1e-9)

    def test_matches_scalar_reference_with_dropout(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 5, 6)
        adj = normalize_adjacency(g)
        w = rng.uniform(-1.2, 1.2, size=(6, 3))
        _, cache = forward(adj, g.x, [w], binarized=True, training=True, dropout=0.4,
                           rng=np.random.default_rng(12))
        grad_out = rng.standard_normal((5, 3))
        grad_h, (grad_w,) = backward(cache, adj, grad_out)
        ref_h, ref_w = scalar_bigcn_backward(g.x, w, adj.matrix.toarray(), grad_out,
                                             drop_mask=cache.drop_mask)
        assert np.allclose(grad_h, ref_h, atol=1e-9)
        assert np.allclose(grad_w, ref_w, atol=1e-9)

    def test_gradient_shape_mismatch(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 3, 4)
        adj = normalize_adjacency(g)
        _, cache = forward(adj, bl.binarize_rows(g.x), [np.ones((4, 2))], binarized=True)
        with pytest.raises(ValueError):
            backward(cache, adj, np.zeros((3, 5)))


class TestSteGate:
    def test_modes(self):
        grad = np.array([0.5, -1.5, 0.99])
        ref = np.array([2.0, 0.1, -0.5])
        assert np.allclose(ste_gate(grad, ref, "grad"), [0.5, 0.0, 0.99])
        assert np.allclose(ste_gate(grad, ref, "input"), [0.0, -1.5, 0.99])
        with pytest.raises(ValueError):
            ste_gate(grad, ref, "both")


class TestGCN:
    def test_identity_passthrough(self):
        g = random_graph(np.random.default_rng(14), 3, 3, edge_factor=0)
        adj = normalize_adjacency(g)
        for out in (forward(adj, g.x, [np.eye(3)], binarized=False)[0],
                    gcn_forward(adj, g.x, np.eye(3), activation=False)):
            assert np.allclose(out, g.x)

    def test_relu_clamp(self):
        g = random_graph(np.random.default_rng(15), 1, 2, edge_factor=0)
        g.x = np.array([[1.0, -2.0]])
        adj = normalize_adjacency(g)
        for out in (forward(adj, g.x, [np.eye(2)], binarized=False, activation=True)[0],
                    gcn_forward(adj, g.x, np.eye(2), activation=True)):
            assert np.allclose(out, [[1.0, 0.0]])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(16)
        g = random_graph(rng, 7, 4)
        adj = normalize_adjacency(g)
        w = rng.standard_normal((4, 3))
        expected = np.maximum(adj.matrix.toarray() @ (g.x @ w), 0.0)
        assert np.allclose(gcn_forward(adj, g.x, w, activation=True), expected)
        assert np.allclose(forward(adj, g.x, [w], binarized=False, activation=True)[0],
                           expected)

    def test_end_to_end_finite_difference(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            n = int(rng.integers(2, 7))
            g = random_graph(rng, n, 4, n_classes=3)
            adj = normalize_adjacency(g)
            layers = [rng.standard_normal((4, 5)), rng.standard_normal((5, 3))]

            def loss_of(ws):
                h = g.x
                for i, w in enumerate(ws):
                    h = gcn_forward(adj, h, w, activation=i == 0)
                loss, _ = masked_softmax_xent(h, g.labels, g.train_mask)
                return loss

            h1, c1 = forward(adj, g.x, [layers[0]], binarized=False, activation=True)
            h2, c2 = forward(adj, h1, [layers[1]], binarized=False)
            loss, grad_logits = masked_softmax_xent(h2, g.labels, g.train_mask)
            grad_h1, (grad_w2,) = backward(c2, adj, grad_logits)
            _, (grad_w1,) = backward(c1, adj, grad_h1, need_input_grad=False)

            step = 1e-4
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
                scale = max(1.0, np.abs(fd).max())
                assert np.abs(analytic - fd).max() <= 1e-4 * scale


class TestBiSAGE:
    def test_no_neighbors_gives_self_term_only(self):
        g = random_graph(np.random.default_rng(18), 3, 4, edge_factor=0)
        p = neighbor_mean_matrix(g)
        rng = np.random.default_rng(19)
        w_self, w_neigh = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        f = bl.binarize_rows(g.x)
        h_out, _ = forward(p, f, [w_self, w_neigh], binarized=True)
        b_self = bl.binarize_columns(w_self)
        assert np.allclose(h_out, bl.bin_gemm(f, b_self), atol=1e-9)

    def test_identical_neighbor_doubles_self_term(self):
        g = random_graph(np.random.default_rng(20), 2, 4)
        g.x = np.tile(np.array([[0.3, -1.2, 0.7, 0.1]]), (2, 1))
        g.edges = np.array([[0, 1]])
        p = neighbor_mean_matrix(g)
        rng = np.random.default_rng(21)
        w = rng.standard_normal((4, 3))
        h_out, _ = forward(p, bl.binarize_rows(g.x), [w.copy(), w.copy()], binarized=True)
        self_term = bl.bin_gemm(bl.binarize_rows(g.x), bl.binarize_columns(w))
        assert np.allclose(h_out, 2.0 * self_term, atol=1e-9)

    def test_zero_weights(self):
        g = random_graph(np.random.default_rng(22), 4, 3)
        p = neighbor_mean_matrix(g)
        h_out, _ = forward(p, bl.binarize_rows(g.x), [np.zeros((3, 2)), np.zeros((3, 2))],
                           binarized=True)
        assert np.array_equal(h_out, np.zeros((4, 2)))

    def test_paths_agree(self):
        rng = np.random.default_rng(23)
        g = random_graph(rng, 12, 9)
        p = neighbor_mean_matrix(g)
        w_self, w_neigh = rng.standard_normal((9, 4)), rng.standard_normal((9, 4))
        h_eval, _ = forward(p, bl.binarize_rows(g.x), [w_self, w_neigh], binarized=True,
                            training=False)
        h_train, _ = forward(p, g.x, [w_self, w_neigh], binarized=True, training=True)
        assert np.abs(h_eval - h_train).max() < 1e-5

    def test_backward_matches_composed_scalar_reference(self):
        # the self path equals a binarized convolution with the identity
        # adjacency; the neighbor path equals one with the neighbor-mean
        # operator; their feature gradients add before the gate
        rng = np.random.default_rng(24)
        g = random_graph(rng, 5, 6)
        p = neighbor_mean_matrix(g)
        w_self = rng.uniform(-1.2, 1.2, size=(6, 3))
        w_neigh = rng.uniform(-1.2, 1.2, size=(6, 3))
        _, cache = forward(p, g.x, [w_self, w_neigh], binarized=True, training=True)
        grad_out = rng.standard_normal((5, 3))
        grad_h, (grad_ws, grad_wn) = backward(cache, p, grad_out)

        eye = np.eye(5)
        ref_h_self, ref_ws = scalar_bigcn_backward(g.x, w_self, eye, grad_out)
        ref_h_neigh, ref_wn = scalar_bigcn_backward(
            g.x, w_neigh, p.toarray(), grad_out)
        assert np.allclose(grad_ws, ref_ws, atol=1e-9)
        assert np.allclose(grad_wn, ref_wn, atol=1e-9)
        # the gate applies to the sum of the two raw feature flows
        gz_self = grad_out
        gz_neigh = p.toarray().T @ grad_out
        wt_self = np.sign(w_self + (w_self == 0)) * np.abs(w_self).mean(axis=0)[None, :]
        wt_neigh = np.sign(w_neigh + (w_neigh == 0)) * np.abs(w_neigh).mean(axis=0)[None, :]
        raw = gz_self @ wt_self.T + gz_neigh @ wt_neigh.T
        expected_h = raw * (np.abs(raw) < 1.0)
        assert np.allclose(grad_h, expected_h, atol=1e-9)


def _binarized_layer(family, g, rng, d_out):
    """(propagation, weights) of one binarized family's layer."""
    d_in = g.x.shape[1]
    if family == "bigcn":
        return normalize_adjacency(g), [rng.uniform(-1.2, 1.2, size=(d_in, d_out))]
    return (neighbor_mean_matrix(g),
            [rng.uniform(-1.2, 1.2, size=(d_in, d_out)) for _ in range(2)])


@pytest.mark.parametrize("family", ["bigcn", "bisage"])
class TestPackedInput:
    """Layer 0's route: the input arrives binarized, as `train` passes it."""

    def test_training_matches_float_input(self, family):
        rng = np.random.default_rng(29)
        for n, d, m in [(1, 3, 2), (7, 5, 3), (40, 130, 8), (600, 70, 7), (1100, 33, 4)]:
            g = random_graph(rng, n, d)
            prop, weights = _binarized_layer(family, g, rng, m)
            out_f, cache_f = forward(prop, g.x, weights, binarized=True, training=True)
            out_p, cache_p = forward(prop, bl.binarize_rows(g.x), weights, binarized=True,
                                     training=True)
            assert np.abs(out_p - out_f).max() <= 1e-12 * np.abs(out_f).max()
            grad_out = rng.standard_normal((n, m))
            # As in semi-supervised training: the loss reaches few rows.
            reached = np.random.default_rng(n).random(n) < 0.1
            for grad in (grad_out, grad_out * reached[:, None]):
                _, grads_f = backward(cache_f, prop, grad, need_input_grad=False)
                _, grads_p = backward(cache_p, prop, grad, need_input_grad=False)
                for got, want in zip(grads_p, grads_f):
                    assert np.abs(got - want).max() <= 1e-9

    def test_no_input_gradient_or_dropout(self, family):
        rng = np.random.default_rng(30)
        g = random_graph(rng, 6, 5)
        prop, weights = _binarized_layer(family, g, rng, 3)
        packed = bl.binarize_rows(g.x)
        _, cache = forward(prop, packed, weights, binarized=True, training=True)
        with pytest.raises(ValueError, match="input gradient"):
            backward(cache, prop, np.ones((6, 3)), need_input_grad=True)
        with pytest.raises(ValueError, match="dropout"):
            forward(prop, packed, weights, binarized=True, training=True, dropout=0.5,
                    rng=np.random.default_rng(0))


@pytest.mark.parametrize("family", ["bigcn", "bisage"])
def test_a_binarized_inference_pass_takes_its_input_packed(family):
    rng = np.random.default_rng(32)
    g = random_graph(rng, 6, 5)
    prop, weights = _binarized_layer(family, g, rng, 3)
    for binarize_out in (False, True):
        with pytest.raises(ValueError, match="takes its input packed"):
            forward(prop, g.x, weights, binarized=True, binarize_out=binarize_out)
    out, cache = forward(prop, bl.binarize_rows(g.x), weights, binarized=True)
    assert out.shape == (6, 3) and isinstance(cache.operand, bl.PackedBinMatrix)


def float_route_logits(model, prop, x, plan=None):
    """Oracle of a binarized family's inference logits: every path's float
    product `bl.bin_gemm`, `aggregate`, the self paths' rows added at
    `out_at`, then inference batch norm and `bl.binarize_rows` between
    layers, each hidden output held whole."""
    h = model.prepare_input(x, plan)
    p = model.family.paths
    for i in range(model.n_layers):
        op = prop if plan is None else plan.ops[i]
        adj = op if isinstance(op, NormalizedAdjacency) else NormalizedAdjacency(op)
        if i > 0:
            if model.bn_states:
                h, _ = batch_norm_forward(h, False, model.bn_states[i - 1])
            h = bl.binarize_rows(h)
        zetas = [bl.bin_gemm(h, bl.binarize_columns(w))
                 for w in model.weights[i * p:(i + 1) * p]]
        out = aggregate(adj, zetas[-1])
        for zeta in zetas[:-1]:
            out = (zeta if adj.out_at is None else zeta[adj.out_at]) + out
        h = out
    return h


def counted_model(family, t, n=40, seed=0):
    """(model, prop, graph, mask) of a binarized family of input width t on a
    sparse random graph: input statistics fitted, hidden batch-norm
    statistics drawn, and a mask whose row plan reads a part of the rows."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, t, n_classes=3, edge_factor=1)
    model = Model(ModelConfig(widths=[t, 65, 3], model=family), rng)
    model.fit_input(g)
    for state in model.bn_states:
        state.running_mean = rng.standard_normal(state.running_mean.shape)
        state.running_var = rng.uniform(0.3, 3.0, size=state.running_var.shape)
    prop = neighbor_mean_matrix(g) if family == "bisage" else normalize_adjacency(g)
    mask = np.zeros(n, dtype=bool)
    mask[[1, n // 2]] = True
    assert row_plan(prop, mask, model.n_layers) is not None
    return model, prop, g, mask


@pytest.fixture(params=["c", "numpy"])
def route(request, monkeypatch):
    """The C kernels, or the numpy route."""
    if request.param == "numpy":
        monkeypatch.setattr(bl, "_native", lambda: None)
    elif bl._native() is None:
        pytest.skip("the C kernel did not build on this host")
    return request.param


@pytest.mark.parametrize("family", ["bigcn", "bisage"])
class TestCountRoute:
    """Binarized inference aggregates scaled counts and hands hidden layers on
    binarized: the logits are the float route's bit for bit."""

    @pytest.mark.parametrize("t", [1, 63, 64, 65, 1433, 2 ** 15 - 1, 2 ** 15])
    def test_logits_equal_the_float_route(self, route, family, t):
        model, prop, g, mask = counted_model(family, t)
        x = model.graph_input(g)
        assert bl.count_dtype(t) == (np.int16 if t < 2 ** 15 else np.int32)
        for plan in (None, row_plan(prop, mask, model.n_layers)):
            logits, caches = model.forward(prop, x, plan=plan)
            assert np.array_equal(logits, float_route_logits(model, prop, x, plan))
            assert isinstance(caches[1][0].h_in, bl.PackedBinMatrix)

    def test_a_layer_hands_on_its_output_binarized(self, route, family):
        model, prop, g, mask = counted_model(family, 70, seed=3)
        bn = model.bn_states[0] if model.bn_states else None
        weights = model.weights[:model.family.paths]
        plan = row_plan(prop, mask, model.n_layers)
        for op, x in ((prop, g.x), (plan.ops[0], g.x[plan.rows[0]])):
            x = bl.binarize_rows(x)
            out, _ = forward(op, x, weights, binarized=True)
            if bn is not None:
                out, _ = batch_norm_forward(out, False, bn)
            want = bl.binarize_rows(out)
            got, _ = forward(op, x, weights, binarized=True, binarize_out=True, out_bn=bn)
            assert np.array_equal(got.words, want.words)
            assert np.array_equal(got.scalars, want.scalars)
        with pytest.raises(ValueError, match="binarizes its output"):
            forward(prop, g.x, weights, binarized=True, training=True, binarize_out=True)

    def test_training_aggregates_layer_0_counts_whole(self, route, family):
        model, prop, g, _ = counted_model(family, 130, seed=4)
        x = model.graph_input(g)
        weights = model.weights[:model.family.paths]
        out, _ = forward(prop, x, weights, binarized=True, training=True)
        adj = prop if isinstance(prop, NormalizedAdjacency) else NormalizedAdjacency(prop)
        zetas = [bl.bin_gemm(x, bl.binarize_columns(w)) for w in weights]
        assert np.array_equal(out, sum(zetas[:-1], aggregate(adj, zetas[-1])))


def _recorded_ranges(monkeypatch) -> list[int]:
    """The number of ranges each `bl._fan_out` call runs, from now on."""
    seen = []
    fan_out = bl._fan_out

    def recording(run, ranges):
        seen.append(len(ranges))
        return fan_out(run, ranges)

    monkeypatch.setattr(bl, "_fan_out", recording)
    return seen


class TestThreadCount:
    """Counting, aggregating and binarizing split over 1-4 threads, every call
    split, give the float route's logits bit for bit; so do gcn's float
    products, split by their output rows."""

    @pytest.mark.parametrize("family", ["bigcn", "bisage"])
    @pytest.mark.parametrize("t", [65, 1433])
    def test_count_route_logits(self, monkeypatch, family, t):
        if bl._native() is None:
            pytest.skip("the C kernel did not build on this host")
        monkeypatch.setattr(bl, "_MIN_THREADED_WORK", 0)
        model, prop, g, mask = counted_model(family, t, n=90, seed=t)
        x = model.graph_input(g)
        plans = (None, row_plan(prop, mask, model.n_layers))
        want = [float_route_logits(model, prop, x, plan) for plan in plans]
        for threads in (1, 2, 3, 4):
            monkeypatch.setattr(bl, "_threads", lambda: threads)
            for plan, expected in zip(plans, want):
                logits, _ = model.forward(prop, x, plan=plan)
                assert np.array_equal(logits, expected), (threads, plan is None)

    @pytest.mark.parametrize("route", ["full", "rows", "gather"])
    @pytest.mark.parametrize("d, m, n, at_four", [
        (1433, 64, 700, {"full": [4, 4], "rows": [4, 4], "gather": [4, 4]}),  # cora-sbm's
        (500, 64, 900, {"full": [4, 4], "rows": [4, 4], "gather": [4, 4]}),  # pubmed-sbm's
        # 4 slices of a product into 4 columns would be under the BLAS bound
        (1433, 4, 600, {"full": [3, 3], "rows": [3, 1], "gather": [1, 1]}),
        (1433, 1, 600, {"full": [1, 1], "rows": [1, 1], "gather": [1, 1]}),  # a vector
    ])
    def test_gcn_products(self, monkeypatch, route, d, m, n, at_four):
        # A layer-0 training pass and its weight gradient: on the whole
        # operator, on a row plan's slice of the input's rows alone, and on
        # the whole input read at the slice's rows.
        if bl._native() is None:
            pytest.skip("the C kernel did not build on this host")
        monkeypatch.setattr(L, "_MIN_SPLIT_PRODUCT", 0)
        rng = np.random.default_rng(d + m)
        g = random_graph(rng, n, d, edge_factor=1)
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, n // 10, replace=False)] = True
        adj = normalize_adjacency(g)
        op = row_plan(adj, mask, 1).ops[0]
        prop, x = {"full": (adj, g.x), "rows": (op, g.x[op.in_rows]), "gather": (op, g.x)}[route]
        w = rng.uniform(-1.2, 1.2, size=(d, m))
        grad = rng.standard_normal((prop.matrix.shape[0], m))
        seen = _recorded_ranges(monkeypatch)
        want = None
        for threads in (1, 2, 3, 4):
            monkeypatch.setattr(bl, "_threads", lambda: threads)
            seen.clear()
            out, cache = forward(prop, x, [w], binarized=False, training=True, activation=True)
            got = out.copy(), backward(cache, prop, grad, need_input_grad=False)[1][0]
            want = want or got
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), threads
            assert seen == ([min(threads, r) for r in at_four[route]]), threads

    def test_planned_gcn_step_gathers_no_more_on_two_threads(self, monkeypatch):
        # The gathered blocks of layer 0's product and weight gradient, summed
        # over the threads, hold no more than one thread's: a thread that
        # gathered a whole block would add about 0.7 MiB (forward) or 1 MiB.
        monkeypatch.setattr(L, "_MIN_SPLIT_PRODUCT", 0)
        rng = np.random.default_rng(43)
        n = 1500
        g = random_graph(rng, n, 1433, n_classes=3, edge_factor=1)
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, 100, replace=False)] = True
        net = Model(ModelConfig(widths=[1433, 32, 3], model="gcn"), np.random.default_rng(0))
        prop = normalize_adjacency(g)
        plan = row_plan(prop, mask, net.n_layers)
        assert plan.rows[0].size * 1433 * 8 > 4 * L._GATHER_BYTES
        labels, every = g.labels[mask], np.ones(mask.sum(), dtype=bool)
        seen = _recorded_ranges(monkeypatch)

        def peaks(threads):
            """The forward's peak bytes and the backward's."""
            monkeypatch.setattr(bl, "_threads", lambda: threads)
            tracemalloc.start()
            try:
                logits, caches = net.forward(prop, g.x, training=True,
                                             rng=np.random.default_rng(1), plan=plan)
                _, grad_logits = masked_softmax_xent(logits, labels, every)
                forward = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                net.backward(prop, caches, grad_logits, plan=plan)
                return np.array([forward, tracemalloc.get_traced_memory()[1]])
            finally:
                tracemalloc.stop()

        peaks(2)  # once before measuring, for whatever a first call allocates
        one = peaks(1)
        seen.clear()
        two = peaks(2)
        if bl._native() is not None:
            assert max(seen) == 2  # the gathered product and gradient split
        # 32 KiB: the pool's own objects (about 9 KiB), and threads a block
        # apart, whose blocks differ by a row at most.
        assert (two <= one + 32 * 1024).all(), (one, two)

    def test_no_pool_below_the_minimum(self, monkeypatch):
        # Every product of the three families on a dense-sbm-shaped graph
        # (700 nodes, widths 70, 64, 7) stays on the calling thread.
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(bl, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(bl, "_threads", lambda: 4)
        g = generate_sbm(SBMParams(nodes_per_class=100, n_classes=7, n_features=70, p_in=0.1,
                                   p_out=0.01, signal=2.0, seed=5))
        for family in ("gcn", "bigcn", "bisage"):
            train(ModelConfig(widths=[70, 64, 7], model=family, max_epochs=2), g)
        if bl._native() is not None:  # the guard is live: at the minimum, a pool
            monkeypatch.setattr(L, "_MIN_SPLIT_PRODUCT", 700 * 70 * 64)
            with pytest.raises(AssertionError, match="thread pool"):
                train(ModelConfig(widths=[70, 64, 7], model="gcn", max_epochs=2), g)


def _layer(family, g, rng, d_out):
    """(propagation, weights, forward's family keywords) of one layer of any
    family; gcn's has its ReLU."""
    if family != "gcn":
        return (*_binarized_layer(family, g, rng, d_out), {"binarized": True})
    return (normalize_adjacency(g), [rng.uniform(-1.2, 1.2, size=(g.x.shape[1], d_out))],
            {"binarized": False, "activation": True})


def _slice_of_a_sparse_graph(rng, n=400, d=12):
    """A graph and layer 0's slice of its one-layer row plan for 8 nodes."""
    g = random_graph(rng, n, d, edge_factor=1)
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, 8, replace=False)] = True
    op = row_plan(normalize_adjacency(g), mask, 1).ops[0]
    assert op.in_rows.size < n
    return g, mask, op


class TestCoreRejects:
    """What the layer core rejects, pinned by message, for each family that
    can reach it."""

    @pytest.mark.parametrize("family", ["bigcn", "gcn", "bisage"])
    def test_a_wrong_gradient_shape(self, family):
        rng = np.random.default_rng(50)
        g = random_graph(rng, 6, 5)
        prop, weights, kind = _layer(family, g, rng, 3)
        _, cache = forward(prop, g.x, weights, training=True, **kind)
        for shape in ((6, 4), (5, 3), (6,)):
            for need_input_grad in (False, True):
                with pytest.raises(ValueError, match="gradient shape"):
                    backward(cache, prop, np.ones(shape), need_input_grad=need_input_grad)

    def test_a_slice_checks_the_gradient_against_its_output_rows(self):
        g, mask, op = _slice_of_a_sparse_graph(np.random.default_rng(51))
        w = np.ones((12, 3))
        for kind in ({"binarized": True}, {"binarized": False, "activation": True}):
            _, cache = forward(op, g.x[op.in_rows], [w], training=True, **kind)
            backward(cache, op, np.ones((mask.sum(), 3)))
            with pytest.raises(ValueError, match="gradient shape"):
                backward(cache, op, np.ones((g.n_nodes, 3)))

    @pytest.mark.parametrize("family", ["bigcn", "gcn", "bisage"])
    def test_weights_that_are_not_2d(self, family):
        rng = np.random.default_rng(52)
        g = random_graph(rng, 6, 5)
        prop, weights, kind = _layer(family, g, rng, 3)
        with pytest.raises(ValueError, match="2-D and of one shape"):
            forward(prop, g.x, [w[:, 0] for w in weights], **kind)

    def test_paths_whose_weight_shapes_differ(self):
        rng = np.random.default_rng(53)
        g = random_graph(rng, 6, 5)
        p = neighbor_mean_matrix(g)
        for w_self, w_neigh in (((5, 3), (5, 2)), ((5, 3), (4, 3))):
            with pytest.raises(ValueError, match="2-D and of one shape"):
                forward(p, g.x, [np.ones(w_self), np.ones(w_neigh)], binarized=True,
                        training=True)

    @pytest.mark.parametrize("family", ["bigcn", "gcn", "bisage"])
    def test_an_input_of_the_wrong_width(self, family):
        rng = np.random.default_rng(54)
        g = random_graph(rng, 6, 5)
        prop, weights, kind = _layer(family, g, rng, 3)
        for training in (False, True):
            with pytest.raises(ValueError, match=r"expected \(N, 5\) input"):
                forward(prop, g.x[:, :4], weights, training=training, **kind)

    def test_a_binarized_layer_on_a_slice_takes_its_input_rows_alone(self):
        # On a slice a binarized layer reads the slice's input rows: layer 0's
        # packed rows, gathered once per plan, or the planned layer before's output.
        g, mask, op = _slice_of_a_sparse_graph(np.random.default_rng(55))
        w = np.random.default_rng(56).uniform(-1.2, 1.2, size=(12, 3))
        for h in (g.x, bl.binarize_rows(g.x)):
            for training in (False, True):
                with pytest.raises(ValueError, match="takes its input rows alone"):
                    forward(op, h, [w], binarized=True, training=training)
        out, _ = forward(op, bl.binarize_rows(g.x[op.in_rows]), [w], binarized=True)
        assert out.shape == (mask.sum(), 3)

    def test_a_gcn_input_read_at_a_slices_rows_has_no_input_gradient(self):
        g, mask, op = _slice_of_a_sparse_graph(np.random.default_rng(57))
        w = np.random.default_rng(58).uniform(-1.2, 1.2, size=(12, 3))
        grad = np.random.default_rng(59).standard_normal((mask.sum(), 3))
        _, gathered = forward(op, g.x, [w], binarized=False, activation=True, training=True)
        with pytest.raises(ValueError, match="no input gradient"):
            backward(gathered, op, grad)
        _, rows = forward(op, g.x[op.in_rows], [w], binarized=False, activation=True,
                          training=True)
        grad_h, (grad_w,) = backward(rows, op, grad)
        assert grad_h.shape == (op.in_rows.size, 12)
        no_grad_h, (grad_w_gathered,) = backward(gathered, op, grad, need_input_grad=False)
        assert no_grad_h is None
        assert np.allclose(grad_w_gathered, grad_w, rtol=1e-12, atol=1e-15)


def _dense_bfs_rows(matrix, mask, n_layers):
    """Oracle row sets: each layer's input rows are its output rows and
    every node with a stored entry in one of their rows."""
    reaches = matrix.toarray() != 0
    rows = [np.asarray(mask, dtype=bool)]
    for _ in range(n_layers):
        rows.insert(0, rows[0] | reaches[rows[0]].any(axis=0))
    return [np.flatnonzero(r) for r in rows]


class TestRowPlan:
    def test_rows_and_slices_match_a_dense_bfs(self):
        rng = np.random.default_rng(37)
        planned = 0
        for _ in range(60):
            n = int(rng.integers(2, 150))
            linked = int(rng.integers(1, n + 1))  # nodes from `linked` on are isolated
            raw = rng.integers(0, linked, size=(int(rng.integers(0, n)), 2))
            labels = np.arange(n) % 2
            none = np.zeros(n, dtype=bool)
            g = AttributedGraph(np.zeros((n, 1)), raw, labels,
                                none, none, none)
            mask = rng.random(n) < 0.05
            mask[rng.integers(n)] = True
            if linked < n:
                mask[rng.integers(linked, n)] = True
            for prop in (normalize_adjacency(g), neighbor_mean_matrix(g)):
                matrix = getattr(prop, "matrix", prop)
                dense = matrix.toarray()
                for n_layers in (1, 2, 3):
                    want = _dense_bfs_rows(matrix, mask, n_layers)
                    plan = row_plan(prop, mask, n_layers)
                    if want[0].size == n:
                        assert plan is None
                        continue
                    planned += 1
                    assert len(plan.rows) == n_layers + 1 and len(plan.ops) == n_layers
                    for got, expected in zip(plan.rows, want):
                        assert np.array_equal(got, expected)
                    for i, op in enumerate(plan.ops):
                        assert np.array_equal(op.in_rows, plan.rows[i]) and op.n_nodes == n
                        assert np.array_equal(op.in_rows[op.out_at], plan.rows[i + 1])
                        assert op.matrix.has_sorted_indices
                        assert np.array_equal(op.matrix.toarray(),
                                              dense[np.ix_(plan.rows[i + 1], plan.rows[i])])
        assert planned > 100

    @pytest.mark.parametrize("family", ["bigcn", "gcn", "bisage"])
    def test_a_slice_computes_the_full_rows(self, family):
        rng = np.random.default_rng(41)
        n, d, m = 400, 12, 5
        g = random_graph(rng, n, d, edge_factor=1)
        adj = neighbor_mean_matrix(g) if family == "bisage" else normalize_adjacency(g)
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, 8, replace=False)] = True
        op = row_plan(adj, mask, 1).ops[0]
        rows = op.in_rows
        ws = [rng.uniform(-1.2, 1.2, size=(d, m))]
        if family == "bisage":  # a self path too, read at the slice's output rows
            ws.append(rng.uniform(-1.2, 1.2, size=(d, m)))
        binarized = family != "gcn"
        kind = {"binarized": binarized, "activation": not binarized}
        grad = rng.standard_normal((n, m)) * mask[:, None]
        # bisage's training passes are full: its hidden batch norm reads every row.
        modes = ((False, 0.0),) if family == "bisage" else ((False, 0.0), (True, 0.0), (True, 0.5))
        for training, dropout in modes:
            # A binarized inference pass takes its input packed.
            x, x_rows = g.x, g.x[rows]
            if binarized and not training:
                x, x_rows = bl.binarize_rows(x), bl.binarize_rows(x_rows)
            rngs = [np.random.default_rng(3), np.random.default_rng(3)]
            full, cache = forward(adj, x, ws, training=training, dropout=dropout,
                                  rng=rngs[0], **kind)
            part, cache_p = forward(op, x_rows, ws, training=training, dropout=dropout,
                                    rng=rngs[1], **kind)
            assert np.array_equal(part, full[mask])
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            if family == "gcn" and dropout == 0.0:
                # Layer 0's route: the whole input, read at the slice's rows.
                assert np.array_equal(forward(op, g.x, ws, training=training, **kind)[0],
                                      part)
            if training:
                grad_h, (grad_w,) = backward(cache, adj, grad)
                grad_h_p, (grad_w_p,) = backward(cache_p, op, grad[mask])
                assert np.abs(grad_w_p - grad_w).max() <= 1e-12 * np.abs(grad_w).max()
                assert np.allclose(grad_h_p, grad_h[rows], rtol=1e-12, atol=1e-15)
                assert not np.delete(grad_h, rows, axis=0).any()


def test_planned_step_expands_only_the_rows_layer_0_reads(monkeypatch):
    rng = np.random.default_rng(31)
    n, d = 1300, 40
    g = random_graph(rng, n, d)
    adj = normalize_adjacency(g)
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, 20, replace=False)] = True
    net = Model(ModelConfig(widths=[d, 16, 2], model="bigcn"), np.random.default_rng(0))
    x = net.fit_input(g)
    plan = row_plan(adj, mask, net.n_layers)
    assert plan.rows[0].size < n
    # The rows where the full pass's layer-0 gradient G * beta is nonzero.
    reached = []
    sign_t_matmul = bl.sign_t_matmul

    def recording(f, grad):
        reached.append(np.flatnonzero(grad.any(axis=1)))
        return sign_t_matmul(f, grad)

    logits, caches = net.forward(adj, x, training=True, rng=np.random.default_rng(1))
    _, grad_logits = masked_softmax_xent(logits, g.labels, mask)
    monkeypatch.setattr(bl, "sign_t_matmul", recording)
    net.backward(adj, caches, grad_logits)
    monkeypatch.undo()
    assert 0 < reached[0].size and np.isin(reached[0], plan.rows[0]).all()

    logits, caches = net.forward(adj, net.prepare_input(x, plan), training=True,
                                 rng=np.random.default_rng(1), plan=plan)
    _, grad_logits = masked_softmax_xent(logits, g.labels[mask], np.ones(mask.sum(), bool))
    expanded = []
    unpack = bl._unpack_signs

    def counting_unpack(words, *args, **kwargs):
        expanded.append(words.shape[0])
        return unpack(words, *args, **kwargs)

    monkeypatch.setattr(bl, "_unpack_signs", counting_unpack)
    net.backward(adj, caches, grad_logits, plan=plan)
    assert sum(expanded) == plan.rows[0].size


class TestBatchNorm:
    def test_two_point_column(self):
        state = BatchNormState.for_dim(1)
        out = batch_norm_apply(np.array([[1.0], [3.0]]), True, state)
        assert np.allclose(out, [[-1.0], [1.0]], atol=1e-4)

    def test_constant_column(self):
        state = BatchNormState.for_dim(1)
        out = batch_norm_apply(np.full((5, 1), 3.3), True, state)
        assert np.abs(out).max() < 1e-6

    def test_standardizes_random_columns(self):
        rng = np.random.default_rng(25)
        state = BatchNormState.for_dim(4)
        h = rng.standard_normal((500, 4)) * 3.0 + 1.5
        out = batch_norm_apply(h, True, state)
        assert np.abs(out.mean(axis=0)).max() < 1e-6
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-3

    def test_running_stats_used_in_inference(self):
        rng = np.random.default_rng(26)
        state = BatchNormState.for_dim(2)
        h = rng.standard_normal((100, 2)) * 2.0 + 5.0
        for _ in range(200):
            batch_norm_apply(h, True, state)
        assert np.allclose(state.running_mean, h.mean(axis=0), atol=1e-3)
        out = batch_norm_apply(h, False, state)
        assert np.abs(out.mean(axis=0)).max() < 1e-2

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(27)
        h = rng.standard_normal((6, 3))
        grad_out = rng.standard_normal((6, 3))

        def scalar_loss(x):
            state = BatchNormState.for_dim(3)
            out, _ = batch_norm_forward(x, True, state)
            return float((out * grad_out).sum())

        state = BatchNormState.for_dim(3)
        _, cache = batch_norm_forward(h, True, state)
        analytic = batch_norm_backward(cache, grad_out)
        step = 1e-6
        fd = np.zeros_like(h)
        for idx in np.ndindex(*h.shape):
            hp = h.copy(); hp[idx] += step
            hm = h.copy(); hm[idx] -= step
            fd[idx] = (scalar_loss(hp) - scalar_loss(hm)) / (2 * step)
        assert np.abs(analytic - fd).max() < 1e-4


    @pytest.mark.parametrize("route", ["native", "numpy"])
    @pytest.mark.parametrize("ws", [None, Workspace()], ids=["no-ws", "ws"])
    def test_training_statistics_are_the_column_moments(self, route, ws, monkeypatch):
        if route == "numpy":
            monkeypatch.setattr(bl, "_native", lambda: None)
        elif bl._native() is None:
            pytest.skip("the packed C kernel is not built here")
        # More rows than one block of column_moments, which sums blockwise.
        h = np.random.default_rng(28).standard_normal((1300, 5)) * 3.0 + 1.5
        state = BatchNormState.for_dim(5)
        out, cache = batch_norm_forward(h, True, state, ws)
        mean, var = bl.column_moments(h)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        assert np.array_equal(cache.inv_std, inv_std)
        assert np.array_equal(out, (h - mean) * inv_std)
        assert np.array_equal(state.running_mean, (1 - BN_MOMENTUM) * mean)
        assert np.array_equal(state.running_var, BN_MOMENTUM + (1 - BN_MOMENTUM) * var)


class TestMaskedLoss:
    def test_uniform_logits(self):
        logits = np.zeros((3, 7))
        labels = np.array([0, 1, 2])
        mask = np.array([True, False, False])
        loss, grad = masked_softmax_xent(logits, labels, mask)
        assert loss == pytest.approx(np.log(7.0), abs=1e-9)
        assert np.array_equal(grad[1:], np.zeros((2, 7)))

    def test_confident_correct_logit(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1000.0
        loss, _ = masked_softmax_xent(logits, np.array([2]), np.array([True]))
        assert loss < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(28)
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, size=4)
        mask = np.array([True, False, True, True])
        loss, grad = masked_softmax_xent(logits, labels, mask)
        step = 1e-4
        fd = np.zeros_like(logits)
        for idx in np.ndindex(*logits.shape):
            lp = logits.copy(); lp[idx] += step
            lm = logits.copy(); lm[idx] -= step
            fd[idx] = (masked_softmax_xent(lp, labels, mask)[0]
                       - masked_softmax_xent(lm, labels, mask)[0]) / (2 * step)
        denom = max(1.0, np.abs(fd).max())
        assert np.abs(grad - fd).max() <= 1e-5 * denom

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            masked_softmax_xent(np.zeros((2, 2)), np.zeros(2, dtype=int),
                                np.zeros(2, dtype=bool))

    def test_mean_normalization(self):
        # doubling the masked set with identical rows keeps the loss
        logits = np.array([[2.0, -1.0]])
        labels = np.array([0])
        one, _ = masked_softmax_xent(logits, labels, np.array([True]))
        two, _ = masked_softmax_xent(np.tile(logits, (2, 1)), np.array([0, 0]),
                                     np.array([True, True]))
        assert one == pytest.approx(two)

    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        labels = np.array([0, 1, 1])
        assert masked_accuracy(logits, labels, np.array([True, True, True])) == pytest.approx(2 / 3)

    def test_loss_and_accuracy_without_a_gradient_are_the_training_paths(self):
        rng = np.random.default_rng(30)
        logits = rng.standard_normal((500, 5)) * 6.0
        labels = rng.integers(0, 5, size=500)
        for mask in (rng.random(500) < 0.3, np.ones(500, dtype=bool), np.arange(500) == 7):
            want = (masked_softmax_xent(logits, labels, mask)[0],
                    masked_accuracy(logits, labels, mask))
            assert masked_loss_and_accuracy(logits, labels, mask) == want
        with pytest.raises(ValueError, match="selects no nodes"):
            masked_loss_and_accuracy(logits, labels, np.zeros(500, dtype=bool))
        with pytest.raises(ValueError, match="out of range"):
            masked_loss_and_accuracy(logits[:, :3], labels, np.ones(500, dtype=bool))
