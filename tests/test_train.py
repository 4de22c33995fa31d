"""Training loop behavior: determinism, early stopping, serialization."""

import copy
import struct
import tracemalloc

import numpy as np
import pytest

from bingcn import bitlinalg as bl
from bingcn import layers as L
from bingcn.datasets import SBMParams, generate_sbm
from bingcn.graph import AttributedGraph, RowPlan, normalize_adjacency, row_plan
from bingcn.layers import Workspace, masked_accuracy, masked_softmax_xent
from bingcn.optim import AdamState, adam_step
from bingcn.train import (
    FAMILIES,
    MODEL_KINDS,
    Model,
    ModelConfig,
    ModelFileError,
    evaluate,
    load_model,
    propagation_operator,
    save_model,
    train,
)

from test_layers import counted_model, float_route_logits, route  # noqa: F401 (a fixture)


def small_sbm(seed=0):
    return generate_sbm(SBMParams(nodes_per_class=60, n_classes=3, p_in=0.12,
                                  p_out=0.01, n_features=24, signal=2.0, seed=seed))


def sparse_sbm(seed=0):
    """Sparse, with few labels: a two-layer loss reads a fraction of the rows."""
    return generate_sbm(SBMParams(nodes_per_class=200, n_classes=3, p_in=0.01, p_out=0.001,
                                  n_features=24, signal=2.0, seed=seed, train_per_class=5,
                                  val_per_class=10))


def trace_tuples(result):
    return [(m.epoch, m.train_loss, m.train_acc, m.val_loss, m.val_acc)
            for m in result.trace]


def run_epoch(model, prop, g, x, opt, rng, workspaces):
    """One epoch as `train` runs it; returns logits, gradients, val metrics."""
    logits, caches = model.forward(prop, x, training=True, rng=rng, workspaces=workspaces)
    logits = logits.copy()  # a workspace's next pass overwrites them
    _, grad_logits = masked_softmax_xent(logits, g.labels, g.train_mask)
    grads = model.backward(prop, caches, grad_logits, workspaces)
    model.update(adam_step(model.weights, grads, opt, model.config.lr))
    return logits, grads, evaluate(model, prop, g, g.val_mask, x, workspaces)


class TestConfigValidation:
    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            ModelConfig(widths=[5])
        with pytest.raises(ValueError):
            ModelConfig(widths=[5, 0, 2])

    def test_rejects_bad_dropout_and_patience(self):
        with pytest.raises(ValueError):
            ModelConfig(widths=[4, 2], dropout=1.0)
        with pytest.raises(ValueError):
            ModelConfig(widths=[4, 2], patience=0)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_lr_that_is_not_finite_and_positive(self, lr):
        with pytest.raises(ValueError):
            ModelConfig(widths=[4, 2], lr=lr)

    def test_rejects_unknown_model_and_ste(self):
        with pytest.raises(ValueError):
            ModelConfig(widths=[4, 2], model="mlp")
        with pytest.raises(ValueError):
            ModelConfig(widths=[4, 2], ste_mode="relu")

    @pytest.mark.parametrize("field, value", [
        ("widths", "943"), ("widths", [9.7, 4, 3]), ("max_epochs", True), ("max_epochs", 2.9),
        ("patience", 2.5), ("seed", 1.5), ("dropout", False), ("lr", "0.01")])
    def test_rejects_a_mistyped_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{"widths": [9, 4, 3], field: value})

    def test_accepts_tuple_and_numpy_widths_and_numpy_scalars(self):
        for widths in [(9, 4, 3), list(np.array([9, 4, 3]))]:
            config = ModelConfig(widths=widths, lr=np.float64(0.01), seed=np.int64(2))
            assert config.widths == [9, 4, 3]
            assert all(type(w) is int for w in config.widths)
        assert ModelConfig(widths=[9, 3], dropout=0).dropout == 0

    def test_width_mismatch_against_graph(self):
        g = small_sbm()
        with pytest.raises(ValueError):
            train(ModelConfig(widths=[99, 8, 3], max_epochs=1), g)
        with pytest.raises(ValueError):
            train(ModelConfig(widths=[24, 8, 5], max_epochs=1), g)


class TestTrainingLoop:
    @pytest.mark.parametrize("model", ["bigcn", "gcn", "bisage"])
    def test_deterministic_traces(self, model):
        g = small_sbm()
        config = ModelConfig(widths=[24, 16, 3], model=model, seed=11, max_epochs=30)
        r1 = train(config, g)
        r2 = train(config, g)
        assert trace_tuples(r1) == trace_tuples(r2)
        assert r1.test_acc == r2.test_acc
        assert r1.best_epoch == r2.best_epoch

    @pytest.mark.parametrize("model", ["bigcn", "bisage"])
    def test_peak_memory_does_not_grow_with_epochs(self, model):
        # No epoch's caches may still be alive during the next epoch. Each
        # run gets a fresh graph, so each fills the graph's input memo.
        def peak(epochs):
            g = generate_sbm(SBMParams(nodes_per_class=100, n_classes=3,
                                       n_features=300, seed=2))
            tracemalloc.start()
            try:
                train(ModelConfig(widths=[300, 16, 3], model=model, max_epochs=epochs), g)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3) <= 1.05 * peak(1)

    @pytest.mark.parametrize("model", ["bigcn", "bisage"])
    def test_peak_memory_below_the_float_input(self, model):
        # Layer 0 trains on packed signs: with d >> hidden, no N x d float
        # temporary may exist, so the peak stays below X's own float64 size.
        g = generate_sbm(SBMParams(nodes_per_class=1000, n_classes=3,
                                   n_features=1000, seed=2))
        tracemalloc.start()
        try:
            train(ModelConfig(widths=[1000, 16, 3], model=model, max_epochs=2), g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.x.nbytes

    @pytest.mark.parametrize("ste_mode", ["grad", "input"])
    @pytest.mark.parametrize("model", ["bigcn", "gcn", "bisage"])
    def test_workspaces_change_no_result(self, model, ste_mode):
        # Three layers: a gcn layer with dropout and ReLU, two bisage batch norms.
        g = small_sbm(seed=9)
        config = ModelConfig(widths=[24, 16, 8, 3], model=model, seed=9, ste_mode=ste_mode)
        runs = []
        for workspaces in (None, [Workspace() for _ in range(3)]):
            net = Model(config, np.random.default_rng(9))
            prop = propagation_operator(net.family, g)
            x = net.fit_input(g)
            opt, rng = AdamState.for_params(net.weights), np.random.default_rng(10)
            runs.append([run_epoch(net, prop, g, x, opt, rng, workspaces)
                         for _ in range(4)])
        for (logits, grads, val), (logits_ws, grads_ws, val_ws) in zip(*runs):
            assert np.array_equal(logits, logits_ws)
            assert all(np.array_equal(a, b) for a, b in zip(grads, grads_ws))
            assert val == val_ws

    @pytest.mark.parametrize("model", ["bigcn", "gcn", "bisage"])
    def test_later_epochs_allocate_no_layer_sized_array(self, model):
        # With workspaces an epoch after the first writes into the memory of
        # the one before: its peak above what is held stays below a single
        # N x hidden float64 array (1.5 MB here).
        g = generate_sbm(SBMParams(nodes_per_class=1000, n_classes=3,
                                   n_features=20, seed=3))
        net = Model(ModelConfig(widths=[20, 64, 3], model=model), np.random.default_rng(3))
        prop = propagation_operator(net.family, g)
        x = net.fit_input(g)
        opt, rng = AdamState.for_params(net.weights), np.random.default_rng(4)
        workspaces = [Workspace() for _ in range(net.n_layers)]
        for _ in range(2):
            run_epoch(net, prop, g, x, opt, rng, workspaces)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            run_epoch(net, prop, g, x, opt, rng, workspaces)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < g.n_nodes * 64 * 8

    @pytest.mark.parametrize("model", ["bigcn", "bisage"])
    def test_evaluate_allocates_no_layer_sized_array(self, model):
        # Binarized inference keeps int16 counts and binarizes each hidden
        # row as it is aggregated: above what is held, an evaluate() peaks
        # below a single N x hidden float64 array (1.5 MB here).
        if bl._native() is None:
            pytest.skip("the numpy route aggregates a hidden layer whole")
        g = generate_sbm(SBMParams(nodes_per_class=1000, n_classes=3,
                                   n_features=20, seed=3))
        net = Model(ModelConfig(widths=[20, 64, 3], model=model), np.random.default_rng(3))
        prop = propagation_operator(net.family, g)
        net.fit_input(g)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            evaluate(net, prop, g, g.test_mask)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < g.n_nodes * 64 * 8

    @pytest.mark.parametrize("model", ["bigcn", "bisage"])
    def test_input_statistics_are_exact(self, model):
        g = small_sbm(seed=7)
        result = train(ModelConfig(widths=[24, 8, 3], model=model, seed=7, max_epochs=5), g)
        mean, var = result.model.input_stats
        assert np.allclose(mean, g.x.mean(axis=0), rtol=1e-12, atol=1e-15)
        assert np.allclose(var, g.x.var(axis=0), rtol=1e-12, atol=0)

    def test_zero_epochs_returns_initialized_model(self):
        g = small_sbm()
        result = train(ModelConfig(widths=[24, 8, 3], max_epochs=0), g)
        assert result.trace == []
        assert result.best_epoch == 0
        assert 0.0 <= result.test_acc <= 1.0

    def test_early_stopping_respects_patience(self):
        g = small_sbm()
        config = ModelConfig(widths=[24, 16, 3], model="gcn", seed=5,
                             max_epochs=1000, patience=10)
        result = train(config, g)
        if len(result.trace) < 1000:
            assert len(result.trace) == result.best_epoch + 10

    def test_learns_separable_classes(self):
        g = small_sbm(seed=1)
        config = ModelConfig(widths=[24, 16, 3], model="gcn", seed=1, max_epochs=200)
        result = train(config, g)
        assert result.test_acc > 0.8

    def test_latent_weights_stay_bounded(self):
        g = small_sbm(seed=2)
        config = ModelConfig(widths=[24, 16, 3], model="bigcn", seed=2,
                             max_epochs=120, lr=0.05)  # large lr to hit the clip
        result = train(config, g)
        for w in result.model.weights:
            assert w.max() <= 1.0
            assert w.min() >= -1.0

    def test_test_metric_comes_from_best_checkpoint(self):
        g = small_sbm(seed=3)
        config = ModelConfig(widths=[24, 8, 3], model="gcn", seed=3, max_epochs=60)
        result = train(config, g)
        prop = propagation_operator(result.model.family, g)
        val_loss, _ = evaluate(result.model, prop, g, g.val_mask)
        assert val_loss == pytest.approx(result.best_val_loss, abs=1e-9)

    def test_bisage_returns_the_best_epochs_batch_norm_pair(self, monkeypatch):
        # Training folds each batch's moments into the running pair's arrays
        # in place, so the checkpoint must hold arrays later epochs never see.
        g = small_sbm(seed=5)
        base = dict(widths=[24, 8, 3], model="bisage", seed=5, lr=0.05, patience=5)
        updated = []
        batch_norm_forward = L.batch_norm_forward

        def recording(h, training, stats, ws=None):
            if training:
                updated.append(stats)
            return batch_norm_forward(h, training, stats, ws)

        monkeypatch.setattr(L, "batch_norm_forward", recording)
        result = train(ModelConfig(**base, max_epochs=40), g)
        assert result.best_epoch < len(result.trace) and updated
        again = train(ModelConfig(**base, max_epochs=result.best_epoch), g)
        assert again.best_epoch == result.best_epoch
        (pair,) = result.model.bn_states
        for got, want in zip(pair, again.model.bn_states[0]):
            assert np.array_equal(got, want)
        assert not any(np.shares_memory(a, b) for a in pair for stats in updated for b in stats)

    def test_ste_mode_changes_training(self):
        g = small_sbm(seed=4)
        base = dict(widths=[24, 16, 3], model="bigcn", seed=4, max_epochs=40)
        r_grad = train(ModelConfig(**base, ste_mode="grad"), g)
        r_input = train(ModelConfig(**base, ste_mode="input"), g)
        # same seed, different gate: traces may only diverge if the gate fires,
        # but both must remain valid training runs
        assert len(r_grad.trace) == len(r_input.trace)
        assert all(np.isfinite(m.val_loss) for m in r_grad.trace)
        assert all(np.isfinite(m.val_loss) for m in r_input.trace)


def input_binarizations(monkeypatch, g) -> list:
    """Record each `bl.binarize_rows` call on an (N, d) input from here on
    (hidden layers binarize their own inputs on every pass)."""
    calls, binarize = [], bl.binarize_rows

    def counted(h, *args, **kwargs):
        if np.shape(h) == g.x.shape:
            calls.append(h)
        return binarize(h, *args, **kwargs)

    monkeypatch.setattr(bl, "binarize_rows", counted)
    return calls


class TestInputMemo:
    """The graph keeps its column moments and standardized packed input."""

    CONFIG = dict(widths=[24, 16, 3], max_epochs=6, seed=4)

    @pytest.mark.parametrize("model", ["bigcn", "bisage"])
    def test_evaluate_reuses_the_trained_graphs_input(self, model, monkeypatch):
        g = small_sbm(seed=4)
        assert not {"input_moments", "packed_input"} & vars(g).keys()  # none at construction
        result = train(ModelConfig(**self.CONFIG, model=model), g)
        prop = propagation_operator(result.model.family, g)
        fresh = evaluate(result.model, prop, g, g.test_mask, result.model.prepare_input(g.x))
        calls = input_binarizations(monkeypatch, g)
        assert evaluate(result.model, prop, g, g.test_mask) == fresh
        assert calls == []

    def test_other_statistics_miss_the_memo(self, monkeypatch):
        g = small_sbm(seed=4)
        result = train(ModelConfig(**self.CONFIG), g)
        packed = g.packed_input
        other = copy.deepcopy(result.model)
        mean, var = other.input_stats
        other.input_stats = (mean + 0.25, var)
        prop = propagation_operator(other.family, g)
        fresh = evaluate(other, prop, g, g.test_mask, other.prepare_input(g.x))
        calls = input_binarizations(monkeypatch, g)
        assert evaluate(other, prop, g, g.test_mask) == fresh
        assert len(calls) == 1 and g.packed_input is packed
        assert fresh != evaluate(result.model, prop, g, g.test_mask)

    def test_repeated_training_on_one_graph_matches_fresh_graphs(self):
        # bisage's layer 0 takes the packed input bigcn's training left.
        g = small_sbm(seed=5)
        for model in ("bigcn", "gcn", "bisage", "bigcn"):
            config = ModelConfig(**self.CONFIG, model=model)
            shared, fresh = train(config, g), train(config, small_sbm(seed=5))
            assert trace_tuples(shared) == trace_tuples(fresh), model
            assert shared.test_acc == fresh.test_acc, model

    def test_layer0_statistics_share_the_graphs_read_only_moments(self):
        g = small_sbm(seed=6)
        net = Model(ModelConfig(**self.CONFIG), np.random.default_rng(6))
        x = net.fit_input(g)
        mean, var = g.input_moments
        stats = net.input_stats
        assert stats[0] is mean and stats[1] is var
        assert not (mean.flags.writeable or var.flags.writeable)
        assert x is g.packed_input and net.fit_input(g) is x
        trained = train(ModelConfig(**self.CONFIG), g).model.input_stats  # not checkpointed
        assert trained[0] is mean and trained[1] is var

    def test_caller_writes_change_neither_x_nor_the_memo(self):
        source = small_sbm(seed=7)
        x = source.x.copy()
        g = AttributedGraph(x, source.edges, source.labels, source.train_mask,
                            source.val_mask, source.test_mask, source.n_classes)
        result = train(ModelConfig(**self.CONFIG), g)
        prop = propagation_operator(result.model.family, g)
        before = evaluate(result.model, prop, g, g.test_mask)
        packed = g.packed_input
        words = packed.words.copy()
        x[:] = -x
        assert np.array_equal(g.x, source.x)
        assert g.packed_input is packed and np.array_equal(packed.words, words)
        assert evaluate(result.model, prop, g, g.test_mask) == before
        assert before == evaluate(result.model, prop, g, g.test_mask,
                                  result.model.prepare_input(source.x))


class TestModelFiles:
    @pytest.mark.parametrize("model", ["bigcn", "gcn", "bisage"])
    def test_roundtrip_preserves_predictions(self, tmp_path, model):
        g = small_sbm(seed=6)
        config = ModelConfig(widths=[24, 8, 3], model=model, seed=6, max_epochs=25)
        result = train(config, g)
        path = tmp_path / "model.bin"
        save_model(path, result.model)
        loaded = load_model(path)
        prop = propagation_operator(loaded.family, g)
        logits_orig, _ = result.model.forward(prop, g.x, training=False)
        logits_loaded, _ = loaded.forward(prop, g.x, training=False)
        assert np.array_equal(logits_orig, logits_loaded)

    @pytest.mark.parametrize("model", ["bigcn", "bisage"])
    def test_rejects_missing_batch_norm_states(self, tmp_path, model):
        net = Model(ModelConfig(widths=[24, 8, 3], model=model), np.random.default_rng(0))
        net.input_stats, net.bn_states = None, []
        path = tmp_path / "model.bin"
        save_model(path, net)
        with pytest.raises(ModelFileError, match="input statistics"):
            load_model(path)

    def test_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("model,kind_code", [("bigcn", 1), ("gcn", 2), ("bisage", 3)])
    def test_file_is_the_documented_layout(self, tmp_path, model, kind_code):
        # Version-1 layout: magic, version, kind, layer count, widths,
        # record count, per record (width, mean, variance), then the
        # weights; a binarized family's input statistics are the first record.
        widths = [3, 2, 2]
        net = Model(ModelConfig(widths=widths, model=model), np.random.default_rng(0))
        net.weights = [np.arange(w.size, dtype=float).reshape(w.shape) / (k + 2)
                       for k, w in enumerate(net.weights)]
        records = []
        if model != "gcn":
            net.input_stats = (np.array([0.5, -1.0, 2.0]), np.array([1.5, 0.25, 3.0]))
            records.append(net.input_stats)
        net.bn_states = [(np.array([0.125, -0.75]), np.array([2.0, 0.5]))
                         for _ in net.bn_states]
        records += net.bn_states
        expected = b"BGNM" + struct.pack("<III3I", 1, kind_code, 3, *widths)
        expected += struct.pack("<I", len(records))
        for mean, var in records:
            expected += struct.pack(f"<I{mean.size}d{var.size}d", mean.size, *mean, *var)
        for w in net.weights:
            expected += struct.pack(f"<{w.size}d", *w.ravel())
        assert len(records) == {"bigcn": 1, "gcn": 0, "bisage": 2}[model]
        path, again = tmp_path / "model.bin", tmp_path / "again.bin"
        save_model(path, net)
        assert path.read_bytes() == expected
        loaded = load_model(path)
        assert (loaded.input_stats is None) == (model == "gcn")
        save_model(again, loaded)
        assert again.read_bytes() == expected

    def test_gcn_hidden_activations_shapes(self):
        g = small_sbm(seed=8)
        config = ModelConfig(widths=[24, 10, 3], model="gcn", seed=8, max_epochs=5)
        result = train(config, g)
        adj = normalize_adjacency(g)
        _, caches = result.model.forward(adj, g.x)
        hidden = [cache.h_in for cache, _ in caches[1:]]
        assert len(hidden) == 1
        assert hidden[0].shape == (g.n_nodes, 10)
        assert (hidden[0] >= 0).all()  # post-ReLU


@pytest.mark.parametrize("family", ["bigcn", "bisage"])
@pytest.mark.parametrize("t", [1, 63, 64, 65, 1433, 2 ** 15 - 1, 2 ** 15])
def test_evaluate_equals_the_float_route(route, family, t):
    """evaluate(), whole and on a row plan, is the loss and accuracy of the
    float route's logits bit for bit, on both routes and count widths."""
    model, prop, g, mask = counted_model(family, t, seed=t)
    x = model.graph_input(g)
    for plan in (None, row_plan(prop, mask, model.n_layers)):
        logits = float_route_logits(model, prop, x, plan)
        labels, rows = (g.labels, mask) if plan is None else (
            g.labels[mask], np.ones(mask.sum(), dtype=bool))
        want = L.masked_loss_and_accuracy(logits, labels, rows)
        assert evaluate(model, prop, g, mask, plan=plan) == want
        workspaces = [Workspace() for _ in range(model.n_layers)]
        assert evaluate(model, prop, g, mask, x, workspaces, plan) == want


class TestBatchNormPlacement:
    def test_bigcn_standardizes_input_only(self):
        config = ModelConfig(widths=[24, 8, 3], model="bigcn")
        model = Model(config, np.random.default_rng(0))
        assert model.bn_states == []
        mean, var = model.input_stats
        assert mean.shape == (24,) and np.array_equal(mean, np.zeros(24))
        assert var.shape == (24,) and np.array_equal(var, np.ones(24))

    def test_bisage_standardizes_every_layer(self):
        config = ModelConfig(widths=[24, 8, 3], model="bisage")
        model = Model(config, np.random.default_rng(0))
        assert model.input_stats[0].shape == (24,)
        assert len(model.bn_states) == 1
        assert [a.shape for a in model.bn_states[0]] == [(8,), (8,)]

    def test_gcn_has_no_batch_norm_by_default(self):
        config = ModelConfig(widths=[24, 8, 3], model="gcn")
        model = Model(config, np.random.default_rng(0))
        assert model.bn_states == []
        assert model.input_stats is None


LAYER_FUNCTIONS = ("bigcn_forward", "gcn_forward_cached", "bisage_forward",
                   "bigcn_backward", "gcn_backward", "bisage_backward")


@pytest.mark.parametrize("family", MODEL_KINDS)
@pytest.mark.parametrize("widths", [[24, 8, 3], [24, 8, 6, 3]])
def test_a_pass_calls_its_family_layer_function_once_per_layer(monkeypatch, family, widths):
    """A wrapper swapped in at a family's layer name, as a tracer that counts
    layer indices by call does, sees exactly one call per layer; a forward
    call passes `training` by keyword, where the tracer reads it."""
    net = Model(ModelConfig(widths=widths, model=family), np.random.default_rng(4))
    assert getattr(L, net.family.forward) is L.forward
    assert getattr(L, net.family.backward) is L.backward
    calls = []
    for name in LAYER_FUNCTIONS:
        def counting(*args, _name=name, _fn=getattr(L, name), **kwargs):
            calls.append((_name, kwargs.get("training", "not by keyword")))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(L, name, counting)
    g = sparse_sbm(seed=4)
    prop = propagation_operator(net.family, g)
    x = net.fit_input(g)
    # A plan of every layer, and one of the last layer alone, as a
    # batch-normalizing family's training step runs.
    plans = [None, *(row_plan(prop, g.train_mask, n) for n in (net.n_layers, 1))]
    for plan in plans:
        calls.clear()
        logits, caches = net.forward(prop, net.prepare_input(x, plan), training=True,
                                     rng=np.random.default_rng(5), plan=plan)
        assert calls == [(net.family.forward, True)] * net.n_layers
        labels, mask = (g.labels, g.train_mask) if plan is None else (
            g.labels[g.train_mask], np.ones(g.train_mask.sum(), bool))
        _, grad = masked_softmax_xent(logits, labels, mask)
        calls.clear()
        net.backward(prop, caches, grad, plan=plan)
        assert [name for name, _ in calls] == [net.family.backward] * net.n_layers
        calls.clear()
        net.forward(prop, net.prepare_input(x, plan), plan=plan)
        assert calls == [(net.family.forward, False)] * net.n_layers


@pytest.mark.parametrize("family", MODEL_KINDS)
def test_a_full_forward_aggregates_once_per_layer(monkeypatch, family):
    """Every family's layer propagates through `layers.aggregate`, the
    bare neighbor-mean operator of bisage included."""
    calls, aggregate = [], L.aggregate

    def counting(*args, **kwargs):
        calls.append(1)
        return aggregate(*args, **kwargs)

    monkeypatch.setattr(L, "aggregate", counting)
    g = sparse_sbm(seed=4)
    net = Model(ModelConfig(widths=[24, 8, 6, 3], model=family), np.random.default_rng(4))
    prop = propagation_operator(net.family, g)
    for training in (True, False):
        calls.clear()
        net.forward(prop, net.fit_input(g), training=training, rng=np.random.default_rng(5))
        assert len(calls) == net.n_layers


class TestRowPlans:
    """Every family's validation pass and training step run on row plans;
    bisage's step on a plan of its last layer alone."""

    @pytest.mark.parametrize("model", ["bigcn", "gcn", "bisage"])
    def test_planned_passes_match_the_full_pass(self, model):
        # Hidden width 16 multiplies the last layer's rows in an all-node
        # operand, 1024 in one padded to BLAS's general-kernel bound.
        g = sparse_sbm(seed=12)
        for hidden in (16, 1024):
            net = Model(ModelConfig(widths=[24, hidden, 3], model=model),
                        np.random.default_rng(12))
            prop = propagation_operator(net.family, g)
            x = net.fit_input(g)
            # A training pass moves the hidden batch norm's running statistics
            # off their initial zeros and ones.
            net.forward(prop, x, training=True, rng=np.random.default_rng(11))
            for mask in (g.train_mask, g.val_mask):
                # Every layer, and the last alone: the layer before runs whole.
                for plan in (row_plan(prop, mask, n) for n in (net.n_layers, 1)):
                    self.check_planned_passes(net, prop, g, x, mask, plan)

    @staticmethod
    def check_planned_passes(net, prop, g, x, mask, plan):
        assert plan.rows[0].size < g.n_nodes
        full, _ = net.forward(prop, x)
        part, _ = net.forward(prop, net.prepare_input(x, plan), plan=plan)
        assert np.array_equal(part, full[mask])
        assert evaluate(net, prop, g, mask, x, plan=plan) == evaluate(net, prop, g, mask, x)
        if net.family.full_pass and len(plan.ops) == net.n_layers:
            return  # its training step normalizes with statistics of every row
        rngs = [np.random.default_rng(13), np.random.default_rng(13)]
        full, caches = net.forward(prop, x, training=True, rng=rngs[0])
        part, caches_p = net.forward(prop, net.prepare_input(x, plan), training=True,
                                     rng=rngs[1], plan=plan)
        assert np.array_equal(part, full[mask])
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        loss, grad = masked_softmax_xent(full, g.labels, mask)
        loss_p, grad_p = masked_softmax_xent(part, g.labels[mask], np.ones(mask.sum(), bool))
        assert loss == loss_p
        grads = net.backward(prop, caches, grad)
        grads_p = net.backward(prop, caches_p, grad_p, plan=plan)
        for got, want in zip(grads_p, grads):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("model", MODEL_KINDS)
    def test_a_step_plans_the_layers_its_batch_norm_leaves(self, model):
        # bisage's batch norm reads every row, so its step plans the last
        # layer alone, where that layer's product multiplies fewer rows than
        # the graph has: at hidden width 1024 on the sparse graph (a padded
        # operand of 326 of 600 rows), not on the dense graph (180 rows) nor
        # at width 16, where `_product` takes the all-node operand anyway.
        for graph, hidden, planned in ((sparse_sbm(seed=21), 1024, True),
                                       (small_sbm(seed=21), 1024, False),
                                       (sparse_sbm(seed=21), 16, False)):
            net = Model(ModelConfig(widths=[24, hidden, 3], model=model),
                        np.random.default_rng(21))
            prop = propagation_operator(net.family, graph)
            plan = net.step_plan(prop, graph.train_mask)
            want = row_plan(prop, graph.train_mask, net.n_layers)  # None on the dense graph
            if net.family.full_pass:
                want = row_plan(prop, graph.train_mask, 1)
                n_rows = L.operand_rows(want.rows[0].size, hidden, 3, graph.n_nodes)
                assert (want.rows[0].size < n_rows < graph.n_nodes) == planned
                if not planned:
                    assert plan is None
                    continue
            assert (plan is None) == (want is None)
            if want is not None:
                assert len(plan.ops) == len(want.ops)
                assert all(np.array_equal(a, b) for a, b in zip(plan.rows, want.rows))

    @pytest.mark.parametrize("model", ["bigcn", "gcn"])
    @pytest.mark.parametrize("hidden", [2, 64])
    def test_planned_logits_at_a_narrow_hidden_width(self, model, hidden):
        # gcn's layer 0 multiplies gathered rows of the input. At hidden
        # width 2 the whole gathered product is under BLAS's general-kernel
        # bound, where BLAS may round it differently from the full product,
        # so its planned logits are the full pass's only to rounding.
        # bigcn's layer 0 runs the packed kernel and its hidden layer an
        # all-node product: bit for bit.
        g = generate_sbm(SBMParams(nodes_per_class=200, n_classes=3, p_in=0.01, p_out=0.001,
                                   n_features=256, signal=2.0, seed=17, train_per_class=5,
                                   val_per_class=10))
        net = Model(ModelConfig(widths=[256, hidden, 3], model=model), np.random.default_rng(17))
        prop = propagation_operator(net.family, g)
        x = net.fit_input(g)
        plan = row_plan(prop, g.train_mask, net.n_layers)
        full, _ = net.forward(prop, x, training=True, rng=np.random.default_rng(18))
        part, _ = net.forward(prop, net.prepare_input(x, plan), training=True,
                              rng=np.random.default_rng(18), plan=plan)
        want = full[g.train_mask]
        if model == "bigcn":
            assert np.array_equal(part, want)
        else:
            assert np.abs(part - want).max() <= 1e-13 * np.abs(want).max()

    def test_planned_gcn_logits_at_a_wide_input_and_narrow_hidden_width(self):
        # 1433 x 4: gathered blocks of at most 1 MiB (91 rows) would each be a
        # product under BLAS's general-kernel bound, though the whole
        # gathered product is above it; the blocks grow to stay above it.
        g = generate_sbm(SBMParams(nodes_per_class=100, n_classes=3, p_in=0.02, p_out=0.002,
                                   n_features=1433, signal=1.0, seed=19, train_per_class=20,
                                   val_per_class=10))
        net = Model(ModelConfig(widths=[1433, 4, 3], model="gcn"), np.random.default_rng(19))
        prop = propagation_operator(net.family, g)
        x = net.fit_input(g)
        plan = row_plan(prop, g.train_mask, net.n_layers)
        assert plan.rows[0].size * 1433 * 4 > bl._BLAS_EXACT_SLICE
        full, _ = net.forward(prop, x, training=True, rng=np.random.default_rng(20))
        part, _ = net.forward(prop, net.prepare_input(x, plan), training=True,
                              rng=np.random.default_rng(20), plan=plan)
        assert np.array_equal(part, full[g.train_mask])

    @pytest.mark.parametrize("model", ["bigcn", "gcn"])
    def test_an_all_rows_plan_is_the_full_pass(self, model):
        g = small_sbm(seed=15)
        net = Model(ModelConfig(widths=[24, 16, 3], model=model), np.random.default_rng(15))
        prop = propagation_operator(net.family, g)
        x = net.fit_input(g)
        assert row_plan(prop, np.ones(g.n_nodes, dtype=bool), net.n_layers) is None
        every = np.arange(g.n_nodes)
        plan = RowPlan(rows=(every,) * (net.n_layers + 1), ops=(prop,) * net.n_layers)
        runs = []
        for p in (None, plan):
            logits, caches = net.forward(prop, x, training=True, rng=np.random.default_rng(16),
                                         plan=p)
            _, grad = masked_softmax_xent(logits, g.labels, g.train_mask)
            runs.append((logits, net.backward(prop, caches, grad, plan=p)))
        (logits, grads), (logits_p, grads_p) = runs
        assert np.array_equal(logits, logits_p)
        assert all(np.array_equal(a, b) for a, b in zip(grads, grads_p))

    @pytest.mark.parametrize("model", ["bigcn", "gcn", "bisage"])
    def test_train_matches_a_loop_of_full_passes(self, model):
        # Every family's training step runs on a row plan here: bisage's
        # covers its last layer alone, after the hidden batch norm, whose
        # statistics read every row. The first training loss is the loop's
        # bit for bit; later values carry the summation order of the weight
        # gradients.
        g = sparse_sbm(seed=14)
        config = ModelConfig(widths=[24, 1024, 3], model=model, seed=14, max_epochs=3,
                             patience=3)
        result = train(config, g)
        rng = np.random.default_rng(config.seed)
        net = Model(config, rng)
        prop = propagation_operator(net.family, g)
        plan = net.step_plan(prop, g.train_mask)
        assert len(plan.ops) == (1 if FAMILIES[model].full_pass else net.n_layers)
        x = net.fit_input(g)
        opt = AdamState.for_params(net.weights)
        loop = []
        for epoch in range(1, 4):
            logits, _, (val_loss, val_acc) = run_epoch(net, prop, g, x, opt, rng, None)
            train_loss, _ = masked_softmax_xent(logits, g.labels, g.train_mask)
            train_acc = masked_accuracy(logits, g.labels, g.train_mask)
            loop.append((epoch, train_loss, train_acc, val_loss, val_acc))
        trace = trace_tuples(result)
        assert trace[0][:3] == loop[0][:3]
        for got, want in zip(trace, loop):
            assert got == pytest.approx(want, rel=1e-9)
