"""Model assembly, the full-batch training loop, and model files.

All three model families share the protocol: Xavier-initialized weights,
Adam, mean cross-entropy on the training mask, early stopping on the
best validation loss, and the test metric taken from the best-validation
checkpoint. Everything is driven by one numpy Generator, so a seed fixes
the whole trace bit for bit.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass

import numpy as np

from . import layers as L
from .datasets import DatasetError
from .graph import AttributedGraph, NormalizedAdjacency, neighbor_mean_matrix, normalize_adjacency
from .optim import AdamState, adam_step

MODEL_KINDS = ("bigcn", "gcn", "bisage")
BN_PLACEMENTS = ("auto", "input", "every-layer", "none")

MODEL_FILE_MAGIC = b"BGNM"
_MODEL_KIND_CODES = {"bigcn": 1, "gcn": 2, "bisage": 3}
_MODEL_KIND_NAMES = {v: k for k, v in _MODEL_KIND_CODES.items()}


class ModelFileError(DatasetError, ValueError):
    """A model file is truncated, malformed, or of an unknown version or kind.

    A data error like any bad input file; also a ValueError, which is
    what `load_model` raised for a bad file before this class existed.
    """


@dataclass
class ModelConfig:
    """Hyperparameters for one training run."""

    widths: list[int]
    model: str = "bigcn"
    dropout: float = 0.4
    lr: float = 1e-3
    max_epochs: int = 1000
    patience: int = 100
    bn_placement: str = "auto"
    ste_mode: str = "grad"
    clip_latent: bool = True
    seed: int = 0

    def __post_init__(self):
        self.widths = [int(w) for w in self.widths]
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODEL_KINDS}")
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ValueError("widths must list at least [d_in, d_out] positive sizes")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.bn_placement not in BN_PLACEMENTS:
            raise ValueError(f"bad bn_placement {self.bn_placement!r}")
        if self.ste_mode not in L.STE_MODES:
            raise ValueError(f"bad ste_mode {self.ste_mode!r}")

    def resolved_bn(self) -> str:
        """Default batch-norm placement per model family."""
        if self.bn_placement != "auto":
            return self.bn_placement
        return {"bigcn": "input", "gcn": "none", "bisage": "every-layer"}[self.model]


class BiGCNModel:
    """Stack of binarized graph convolutions, optional input standardization."""

    kind = "bigcn"

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.layers = [
            L.BiGCNLayer(L.xavier_uniform(rng, d_in, d_out))
            for d_in, d_out in zip(config.widths, config.widths[1:])
        ]
        self.bn_placement = config.resolved_bn()
        self.bn_states = self._make_bn_states(config)

    def _make_bn_states(self, config):
        if self.bn_placement == "none":
            return []
        if self.bn_placement == "input":
            return [L.BatchNormState.for_dim(config.widths[0])]
        return [L.BatchNormState.for_dim(w) for w in config.widths[:-1]]

    def _bn(self, h, layer_idx, training):
        if self.bn_placement == "input" and layer_idx == 0:
            return L.batch_norm_apply(h, training, self.bn_states[0]), None
        if self.bn_placement == "every-layer":
            state = self.bn_states[layer_idx]
            return L.batch_norm_forward(h, training, state)
        return h, None

    def forward(self, adj: NormalizedAdjacency, x: np.ndarray,
                training: bool = False, rng: np.random.Generator | None = None):
        h = x
        caches = []
        for i, layer in enumerate(self.layers):
            h, bn_cache = self._bn(h, i, training)
            drop = self.config.dropout if i > 0 else 0.0
            h, cache = L.bigcn_forward(adj, h, layer, training=training,
                                       dropout=drop, rng=rng)
            caches.append((cache, bn_cache))
        return h, caches

    def backward(self, adj: NormalizedAdjacency, caches, grad_logits):
        grads = [None] * len(self.layers)
        grad = grad_logits
        for i in reversed(range(len(self.layers))):
            cache, bn_cache = caches[i]
            grad_h, grads[i] = L.bigcn_backward(
                cache, adj, grad,
                ste_mode=self.config.ste_mode,
                need_input_grad=i > 0,
            )
            if i > 0:
                grad = grad_h
                if bn_cache is not None:
                    grad = L.batch_norm_backward(bn_cache, grad)
        return grads

    def params(self):
        return [layer.w_latent for layer in self.layers]

    def set_params(self, params):
        for layer, p in zip(self.layers, params):
            if self.config.clip_latent:
                p = np.clip(p, -1.0, 1.0)
            layer.w_latent = p


class GCNModel:
    """Full-precision baseline: ReLU on hidden layers, linear output."""

    kind = "gcn"

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.layers = [
            L.GCNLayer(L.xavier_uniform(rng, d_in, d_out))
            for d_in, d_out in zip(config.widths, config.widths[1:])
        ]
        placement = config.resolved_bn()
        if placement == "every-layer":
            raise ValueError("the full-precision baseline supports batch norm on the input only")
        self.bn_states = (
            [L.BatchNormState.for_dim(config.widths[0])] if placement == "input" else []
        )

    def forward(self, adj, x, training=False, rng=None):
        h = x
        if self.bn_states:
            h = L.batch_norm_apply(h, training, self.bn_states[0])
        caches = []
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            drop = self.config.dropout if i > 0 else 0.0
            h, cache = L.gcn_forward_cached(adj, h, layer, activation=i < last,
                                            training=training, dropout=drop, rng=rng)
            caches.append(cache)
        return h, caches

    def backward(self, adj, caches, grad_logits):
        grads = [None] * len(self.layers)
        grad = grad_logits
        for i in reversed(range(len(self.layers))):
            grad, grads[i] = L.gcn_backward(caches[i], adj, grad,
                                            need_input_grad=i > 0)
        return grads

    def hidden_activations(self, adj, x) -> list[np.ndarray]:
        """Post-ReLU hidden representations for every node (eval mode)."""
        h = x
        if self.bn_states:
            h = L.batch_norm_apply(h, False, self.bn_states[0])
        outs = []
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            h = L.gcn_forward(adj, h, layer.w, activation=i < last)
            if i < last:
                outs.append(h)
        return outs

    def params(self):
        return [layer.w for layer in self.layers]

    def set_params(self, params):
        for layer, p in zip(self.layers, params):
            layer.w = p


class BiSAGEModel:
    """Stack of binarized mean-aggregator convolutions, standardized inputs."""

    kind = "bisage"

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.layers = []
        for d_in, d_out in zip(config.widths, config.widths[1:]):
            w_self = L.xavier_uniform(rng, d_in, d_out)
            w_neigh = L.xavier_uniform(rng, d_in, d_out)
            self.layers.append(L.BiSAGELayer(w_self, w_neigh))
        self.bn_placement = config.resolved_bn()
        if self.bn_placement == "none":
            self.bn_states = []
        elif self.bn_placement == "input":
            self.bn_states = [L.BatchNormState.for_dim(config.widths[0])]
        else:
            self.bn_states = [L.BatchNormState.for_dim(w) for w in config.widths[:-1]]

    def forward(self, neighbor_mean, x, training=False, rng=None):
        h = x
        caches = []
        for i, layer in enumerate(self.layers):
            bn_cache = None
            if i < len(self.bn_states):
                h, bn_cache = L.batch_norm_forward(h, training, self.bn_states[i])
            drop = self.config.dropout if i > 0 else 0.0
            h, cache = L.bisage_forward(neighbor_mean, h, layer, training=training,
                                        dropout=drop, rng=rng)
            caches.append((cache, bn_cache))
        return h, caches

    def backward(self, neighbor_mean, caches, grad_logits):
        grads = [None] * len(self.layers)
        grad = grad_logits
        for i in reversed(range(len(self.layers))):
            cache, bn_cache = caches[i]
            grad_h, gw_self, gw_neigh = L.bisage_backward(
                cache, neighbor_mean, grad,
                ste_mode=self.config.ste_mode,
                need_input_grad=i > 0,
            )
            grads[i] = (gw_self, gw_neigh)
            if i > 0:
                grad = grad_h
                if bn_cache is not None:
                    grad = L.batch_norm_backward(bn_cache, grad)
        return grads

    def params(self):
        out = []
        for layer in self.layers:
            out.extend([layer.w_self, layer.w_neigh])
        return out

    def set_params(self, params):
        it = iter(params)
        for layer in self.layers:
            w_self, w_neigh = next(it), next(it)
            if self.config.clip_latent:
                w_self = np.clip(w_self, -1.0, 1.0)
                w_neigh = np.clip(w_neigh, -1.0, 1.0)
            layer.w_self = w_self
            layer.w_neigh = w_neigh


def build_model(config: ModelConfig, rng: np.random.Generator):
    cls = {"bigcn": BiGCNModel, "gcn": GCNModel, "bisage": BiSAGEModel}[config.model]
    return cls(config, rng)


def _flatten_grads(model, grads):
    if model.kind == "bisage":
        flat = []
        for gw_self, gw_neigh in grads:
            flat.extend([gw_self, gw_neigh])
        return flat
    return grads


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class TrainResult:
    model: object
    trace: list[EpochMetrics]
    test_acc: float
    best_epoch: int
    best_val_loss: float
    seed: int


def _propagation_operator(model, graph: AttributedGraph,
                          adj: NormalizedAdjacency | None):
    if model.kind == "bisage":
        return neighbor_mean_matrix(graph)
    return adj if adj is not None else normalize_adjacency(graph)


def _model_state(model):
    return (copy.deepcopy(model.params()),
            copy.deepcopy(getattr(model, "bn_states", [])))


def _restore_state(model, state):
    params, bn_states = state
    model.set_params(copy.deepcopy(params))
    if bn_states:
        model.bn_states = copy.deepcopy(bn_states)


def evaluate(model, prop, graph: AttributedGraph, mask: np.ndarray) -> tuple[float, float]:
    """Inference-mode loss and accuracy on one mask."""
    logits, _ = model.forward(prop, graph.x, training=False)
    loss, _ = L.masked_softmax_xent(logits, graph.labels, mask)
    return loss, L.masked_accuracy(logits, graph.labels, mask)


def train(config: ModelConfig, graph: AttributedGraph,
          adj: NormalizedAdjacency | None = None) -> TrainResult:
    """Full-batch training with early stopping on validation loss.

    Returns the model restored to its best-validation checkpoint along
    with the per-epoch metric trace and the test accuracy at that
    checkpoint. Identical seeds give bit-identical traces.
    """
    if graph.n_features != config.widths[0]:
        raise ValueError(
            f"widths[0]={config.widths[0]} does not match feature dim {graph.n_features}"
        )
    if graph.n_classes != config.widths[-1]:
        raise ValueError(
            f"widths[-1]={config.widths[-1]} does not match class count {graph.n_classes}"
        )
    for name in ("train_mask", "val_mask", "test_mask"):
        if not getattr(graph, name).any():
            raise ValueError(f"{name} selects no nodes")

    rng = np.random.default_rng(config.seed)
    model = build_model(config, rng)
    prop = _propagation_operator(model, graph, adj)
    opt = AdamState.for_params(model.params())

    best_state = _model_state(model)
    best_val = np.inf
    best_epoch = 0
    trace: list[EpochMetrics] = []

    for epoch in range(1, config.max_epochs + 1):
        logits, caches = model.forward(prop, graph.x, training=True, rng=rng)
        train_loss, grad_logits = L.masked_softmax_xent(
            logits, graph.labels, graph.train_mask)
        train_acc = L.masked_accuracy(logits, graph.labels, graph.train_mask)
        grads = model.backward(prop, caches, grad_logits)
        model.set_params(adam_step(model.params(), _flatten_grads(model, grads),
                                   opt, config.lr))

        val_logits, _ = model.forward(prop, graph.x, training=False)
        val_loss, _ = L.masked_softmax_xent(val_logits, graph.labels, graph.val_mask)
        val_acc = L.masked_accuracy(val_logits, graph.labels, graph.val_mask)
        trace.append(EpochMetrics(epoch=epoch, train_loss=train_loss,
                                  train_acc=train_acc, val_loss=val_loss,
                                  val_acc=val_acc))

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_state = _model_state(model)
        elif epoch - best_epoch >= config.patience:
            break

    _restore_state(model, best_state)
    _, test_acc = evaluate(model, prop, graph, graph.test_mask)
    if not np.isfinite(best_val):
        best_val = float("nan")
    return TrainResult(model=model, trace=trace, test_acc=test_acc,
                       best_epoch=best_epoch, best_val_loss=float(best_val),
                       seed=config.seed)


def save_model(path, model) -> None:
    """Write architecture header, batch-norm running stats, latent weights.

    Layout, little-endian: magic, format version, model kind, layer
    count, widths, batch-norm state count, then float64 payloads (per BN
    state: running mean then running variance; per layer: row-major
    weight matrices, two per layer for the mean-aggregator model).
    """
    widths = model.config.widths
    bn_states = getattr(model, "bn_states", [])
    with open(path, "wb") as fh:
        fh.write(MODEL_FILE_MAGIC)
        fh.write(struct.pack("<III", 1, _MODEL_KIND_CODES[model.kind], len(widths)))
        fh.write(struct.pack(f"<{len(widths)}I", *widths))
        fh.write(struct.pack("<I", len(bn_states)))
        for state in bn_states:
            fh.write(struct.pack("<I", state.running_mean.size))
            fh.write(state.running_mean.astype("<f8").tobytes())
            fh.write(state.running_var.astype("<f8").tobytes())
        for p in model.params():
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_model(path, config_overrides: dict | None = None):
    """Rebuild a model from `save_model` output.

    Every read is bounds-checked against the file size; a file that does
    not hold exactly what its header announces raises ModelFileError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    off = len(MODEL_FILE_MAGIC)

    def take(count: int, dtype: str, what: str) -> np.ndarray:
        nonlocal off
        size = count * np.dtype(dtype).itemsize
        if off + size > len(blob):
            raise ModelFileError(f"{path}: truncated model file: {what} needs {size} "
                                 f"bytes at offset {off}, {len(blob) - off} left")
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=off)
        off += size
        return arr

    if blob[:off] != MODEL_FILE_MAGIC:
        raise ModelFileError(f"{path}: not a model file (bad magic)")
    version, kind_code, n_widths = (int(v) for v in take(3, "<u4", "header"))
    if version != 1:
        raise ModelFileError(f"{path}: unsupported model file version {version}")
    if kind_code not in _MODEL_KIND_NAMES:
        raise ModelFileError(f"{path}: unknown model kind code {kind_code}")
    widths = [int(w) for w in take(n_widths, "<u4", "widths")]
    if len(widths) < 2 or min(widths) < 1:
        raise ModelFileError(f"{path}: bad layer widths {widths}")
    (n_bn,) = take(1, "<u4", "batch-norm state count")
    bn_states = []
    for _ in range(int(n_bn)):
        (dim,) = take(1, "<u4", "batch-norm width")
        mean = take(int(dim), "<f8", "batch-norm running mean").copy()
        var = take(int(dim), "<f8", "batch-norm running variance").copy()
        bn_states.append(L.BatchNormState(running_mean=mean, running_var=var))

    # Every family stores at least one d_in x d_out matrix per layer; check
    # that before building the model allocates weights of the header's size.
    min_payload = 8 * sum(a * b for a, b in zip(widths, widths[1:]))
    if len(blob) - off < min_payload:
        raise ModelFileError(f"{path}: truncated model file: widths {widths} need at least "
                             f"{min_payload} weight bytes, {len(blob) - off} left")
    overrides = config_overrides or {}
    config = ModelConfig(widths=widths, model=_MODEL_KIND_NAMES[kind_code],
                         **overrides)
    model = build_model(config, np.random.default_rng(0))
    if bn_states:
        expected = [s.running_mean.size for s in model.bn_states]
        if [s.running_mean.size for s in bn_states] != expected:
            raise ModelFileError(f"{path}: batch-norm widths do not match the "
                                 f"model's {expected}")
        model.bn_states = bn_states

    params = [take(p.size, "<f8", "weights").reshape(p.shape).copy()
              for p in model.params()]
    if off != len(blob):
        raise ModelFileError(f"{path}: {len(blob) - off} trailing bytes in model file")
    _assign_params_raw(model, params)
    return model


def _assign_params_raw(model, params) -> None:
    """Install parameters exactly as given (no clipping on load)."""
    if model.kind == "bigcn":
        for layer, p in zip(model.layers, params):
            layer.w_latent = p
    elif model.kind == "bisage":
        it = iter(params)
        for layer in model.layers:
            layer.w_self = next(it)
            layer.w_neigh = next(it)
    else:
        for layer, p in zip(model.layers, params):
            layer.w = p
