"""Model assembly, the full-batch training loop, and model files.

All three model families share the protocol: Xavier-initialized weights,
Adam, mean cross-entropy on the training mask, early stopping on the
best validation loss, and the test metric taken from the best-validation
checkpoint. Everything is driven by one numpy Generator, so a seed fixes
the whole trace bit for bit.

A validation pass computes only the rows its mask's loss reads (a
`graph.RowPlan`, built once per `train()`): inference batch norm uses
a running (mean, variance) pair, so rows are independent. So does a
training step, unless the family batch-normalizes a hidden layer's
input: batch statistics read every row. For the same weights the mask's logits and
loss are the full pass's bit for bit, except where BLAS may round gcn's
layer-0 product of gathered rows differently: a gathered product too
small for BLAS's general kernel, or one of a single column
(`layers._product`); the weight gradients differ only in summation
order. `evaluate()` takes the loss and accuracy from one selection of
the mask's rows and builds no gradient.

Work on the fixed input runs once per graph, not once per call: a
binarized family takes the exact column moments of X and X standardized
with them and binarized from the graph (`AttributedGraph.input_moments`
and `packed_input`, computed in C where the packed kernel builds), which
computes each on first use and keeps it. Later `train()` calls on the
graph, and `evaluate()` without a prepared input, reuse them.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass

import numpy as np

from . import bitlinalg as bl
from . import layers as L
from .datasets import FormatError, check_field_types
from .graph import (AttributedGraph, NormalizedAdjacency, RowPlan, neighbor_mean_matrix,
                    normalize_adjacency, row_plan)
from .optim import AdamState, adam_step

MODEL_FILE_MAGIC = b"BGNM"
_MODEL_KIND_CODES = {"bigcn": 1, "gcn": 2, "bisage": 3}
_MODEL_KIND_NAMES = {v: k for k, v in _MODEL_KIND_CODES.items()}


class ModelFileError(FormatError):
    """A model file is truncated, malformed, or of an unknown version or kind."""


@dataclass(frozen=True)
class Family:
    """What sets one model family apart; everything else is shared.

    The fields configure `layers.forward`/`backward`. `forward` and
    `backward` name the family's aliases of that pair, looked up on
    `layers` at call time, so a function swapped in at the name (to time
    it, say) is the one called.
    """

    forward: str
    backward: str
    paths: int  # weight matrices per layer
    # Hidden layer inputs get training-mode batch norm, whose statistics
    # read every row: a training step computes all rows. Inference uses
    # the running statistics, so a validation pass never needs all rows.
    full_pass: bool = False
    binarized: bool = True  # False: float product, ReLU on hidden layers
    neighbor_mean: bool = False  # propagate by neighbor mean, not normalized A + I


FAMILIES = {
    "bigcn": Family("bigcn_forward", "bigcn_backward", paths=1),
    "gcn": Family("gcn_forward_cached", "gcn_backward", paths=1, binarized=False),
    "bisage": Family("bisage_forward", "bisage_backward", paths=2, full_pass=True,
                     neighbor_mean=True),
}
MODEL_KINDS = tuple(FAMILIES)


@dataclass
class ModelConfig:
    """Hyperparameters for one training run, of the types `check_field_types` checks."""

    widths: list[int]
    model: str = "bigcn"
    dropout: float = 0.4
    lr: float = 1e-3
    max_epochs: int = 1000
    patience: int = 100
    ste_mode: str = "grad"
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        self.widths = [int(w) for w in self.widths]  # a tuple, or numpy integers
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODEL_KINDS}")
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ValueError("widths must list at least [d_in, d_out] positive sizes")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if not 0.0 < self.lr < np.inf:
            raise ValueError("lr must be a finite number > 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.ste_mode not in L.STE_MODES:
            raise ValueError(f"bad ste_mode {self.ste_mode!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class Model:
    """A stack of graph convolutions of one family.

    `weights` is flat: each layer's `family.paths` matrices in turn (self
    before neighbor), the order of the model file. A binarized family's
    latent weights are clipped to [-1, 1] after every update, so the
    straight-through gate cannot zero a weight's gradient for good.

    `input_stats` is a binarized family's (mean, variance) of the input
    features, which layer 0 standardizes with (None for gcn): zeros and
    ones until `fit_input` or a model file sets them; no training step
    changes them. `bn_states` holds a running (mean, variance) pair per
    hidden layer input where the family batch-normalizes them
    (`Family.full_pass`); training folds batch moments into its arrays.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.family = FAMILIES[config.model]
        widths = config.widths
        self.n_layers = len(widths) - 1
        self.weights = [L.xavier_uniform(rng, d_in, d_out)
                        for d_in, d_out in zip(widths, widths[1:])
                        for _ in range(self.family.paths)]
        self.input_stats = ((np.zeros(widths[0]), np.ones(widths[0]))
                            if self.family.binarized else None)
        self.bn_states = [(np.zeros(w), np.ones(w))
                          for w in (widths[1:-1] if self.family.full_pass else [])]

    def fit_input(self, graph: AttributedGraph):
        """Set `input_stats` from `graph.x` and return `graph_input(graph)`.

        For a binarized family the statistics are the exact column mean
        and population variance of `x` (full batch: they never change):
        the graph's read-only `input_moments`, shared, not copied.
        """
        if self.family.binarized:
            self.input_stats = graph.input_moments
        return self.graph_input(graph)

    def graph_input(self, graph: AttributedGraph):
        """`prepare_input(graph.x)`, taken once per graph where it can be.

        That is the graph's `packed_input` where this model's
        `input_stats` equal the graph's `input_moments`, as they do after
        `fit_input` on the graph. Other statistics (a model file trained
        on another graph, say) get a fresh binarization, which is not kept.
        """
        if not self.family.binarized:
            return graph.x
        if all(map(np.array_equal, self.input_stats, graph.input_moments)):
            return graph.packed_input
        return self.prepare_input(graph.x)

    def prepare_input(self, x: np.ndarray, plan: RowPlan | None = None):
        """The first layer's input for features `x`.

        For a binarized family: `x` standardized with `input_stats`
        (`fit_input`, or a model file) and binarized, in row
        blocks, so only the packed signs and row scalars are held; with a
        row plan, only the rows layer 0 reads. For gcn: `x` itself, whose
        layer reads the rows it needs.
        """
        if not self.family.binarized:
            return x
        if not isinstance(x, bl.PackedBinMatrix):
            x = bl.binarize_rows(x, bl.standardizer(*self.input_stats))
        rows = None if plan is None else plan.rows[0]
        if rows is None or x.rows == rows.size:  # all rows needed, or gathered already
            return x
        return bl.PackedBinMatrix(rows=rows.size, cols=x.cols, words=x.words[rows],
                                  scalars=x.scalars[rows])

    def forward(self, prop, x, training: bool = False,
                rng: np.random.Generator | None = None,
                workspaces: list[L.Workspace] | None = None,
                plan: RowPlan | None = None):
        """Logits and per-layer (layer cache, batch-norm cache or None).

        `x` is the float feature matrix or its `prepare_input`, which
        `train` computes once and reuses. With `workspaces` (one per
        layer) the pass writes into their arrays, overwriting the last
        pass's logits and caches. With a row plan of `prop` for a mask,
        layer l computes only the plan's rows l + 1, and the logits are
        the mask's rows, in node order.

        A binarized family's inference pass hands each hidden layer's
        output on binarized (batch-normalized first, where the family
        does), so no hidden float array is held whole.
        """
        forward = getattr(L, self.family.forward)
        p = self.family.paths
        packs = self.family.binarized and not training
        h = self.prepare_input(x, plan)
        caches = []
        for i in range(self.n_layers):
            ws = workspaces[i] if workspaces is not None else None
            layer_prop = prop if plan is None else plan.ops[i]
            bn_cache = None
            if i > 0 and self.bn_states and not packs:
                h, bn_cache = L.batch_norm_forward(h, training, self.bn_states[i - 1], ws=ws)
            hidden = i < self.n_layers - 1
            h, cache = forward(layer_prop, h, self.weights[i * p:(i + 1) * p],
                               binarized=self.family.binarized, training=training,
                               dropout=self.config.dropout if i > 0 else 0.0, rng=rng,
                               ws=ws, hidden=hidden,
                               out_bn=self.bn_states[i] if hidden and self.bn_states else None)
            caches.append((cache, bn_cache))
        return h, caches

    def backward(self, prop, caches, grad_logits,
                 workspaces: list[L.Workspace] | None = None,
                 plan: RowPlan | None = None) -> list[np.ndarray]:
        """Weight gradients, in the order of `weights`; `plan` as in the forward."""
        backward = getattr(L, self.family.backward)
        p = self.family.paths
        grads = [None] * len(self.weights)
        grad = grad_logits
        for i in reversed(range(self.n_layers)):
            ws = workspaces[i] if workspaces is not None else None
            cache, bn_cache = caches[i]
            layer_prop = prop if plan is None else plan.ops[i]
            grad_h, grads[i * p:(i + 1) * p] = backward(
                cache, layer_prop, grad, ste_mode=self.config.ste_mode,
                need_input_grad=i > 0, ws=ws)
            if i > 0:
                grad = (grad_h if bn_cache is None
                        else L.batch_norm_backward(bn_cache, grad_h, ws=ws))
        return grads

    def update(self, weights: list[np.ndarray]) -> None:
        """Install updated weights, clipping a binarized family's to [-1, 1]."""
        if self.family.binarized:
            weights = [np.clip(w, -1.0, 1.0) for w in weights]
        self.weights = weights


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class TrainResult:
    model: Model
    trace: list[EpochMetrics]
    test_acc: float
    best_epoch: int
    best_val_loss: float
    seed: int


def propagation_operator(family: Family, graph: AttributedGraph,
                         adj: NormalizedAdjacency | None = None):
    """The operator `family`'s layers propagate with; `adj`, if given, is
    `normalize_adjacency(graph)` already built."""
    if family.neighbor_mean:
        return neighbor_mean_matrix(graph)
    return adj if adj is not None else normalize_adjacency(graph)


def _targets(labels: np.ndarray, mask: np.ndarray, plan: RowPlan | None):
    """(labels, mask) of the rows a pass with `plan`, `mask`'s row plan, computes."""
    if plan is None:
        return labels, mask
    rows = plan.rows[-1]
    return labels[rows], np.ones(rows.size, dtype=bool)


def evaluate(model: Model, prop, graph: AttributedGraph, mask: np.ndarray,
             x=None, workspaces: list[L.Workspace] | None = None,
             plan: RowPlan | None = None) -> tuple[float, float]:
    """Inference-mode loss and accuracy on one mask.

    `x` is `model.prepare_input(graph.x)` if the caller holds it (None:
    `model.graph_input(graph)`, which reuses the graph's packed input on
    the graph the model was trained on); `workspaces` as in
    `Model.forward`. With `mask`'s row plan the pass computes only the
    rows the mask reads.
    """
    logits, _ = model.forward(prop, model.graph_input(graph) if x is None else x,
                              training=False, workspaces=workspaces, plan=plan)
    return L.masked_loss_and_accuracy(logits, *_targets(graph.labels, mask, plan))


def train(config: ModelConfig, graph: AttributedGraph,
          adj: NormalizedAdjacency | None = None) -> TrainResult:
    """Full-batch training with early stopping on validation loss.

    Returns the model restored to its best-validation checkpoint along
    with the per-epoch metric trace and the test accuracy at that
    checkpoint. Identical seeds give bit-identical traces. The validation
    pass runs on its mask's row plan, and so does the training step
    unless the family needs full training passes; the test evaluation is
    a full pass.
    """
    if graph.n_features != config.widths[0]:
        raise ValueError(f"widths[0]={config.widths[0]} does not match feature dim "
                         f"{graph.n_features}")
    if graph.n_classes != config.widths[-1]:
        raise ValueError(f"widths[-1]={config.widths[-1]} does not match class count "
                         f"{graph.n_classes}")
    for name in ("train_mask", "val_mask", "test_mask"):
        if not getattr(graph, name).any():
            raise ValueError(f"{name} selects no nodes")

    rng = np.random.default_rng(config.seed)
    model = Model(config, rng)
    prop = propagation_operator(model.family, graph, adj)
    opt = AdamState.for_params(model.weights)
    x = model.fit_input(graph)
    train_plan = (None if model.family.full_pass else
                  row_plan(prop, graph.train_mask, model.n_layers))
    val_plan = row_plan(prop, graph.val_mask, model.n_layers)
    x_train, x_val = (model.prepare_input(x, plan) for plan in (train_plan, val_plan))
    train_labels, train_mask = _targets(graph.labels, graph.train_mask, train_plan)
    workspaces = [L.Workspace() for _ in range(model.n_layers)]

    best_state = copy.deepcopy((model.weights, model.bn_states))
    best_val = np.inf
    best_epoch = 0
    trace: list[EpochMetrics] = []

    for epoch in range(1, config.max_epochs + 1):
        logits, caches = model.forward(prop, x_train, training=True, rng=rng,
                                       workspaces=workspaces, plan=train_plan)
        train_loss, grad_logits = L.masked_softmax_xent(logits, train_labels, train_mask)
        train_acc = L.masked_accuracy(logits, train_labels, train_mask)
        grads = model.backward(prop, caches, grad_logits, workspaces, train_plan)
        del logits, caches  # the validation pass overwrites their arrays
        model.update(adam_step(model.weights, grads, opt, config.lr))
        del grads  # else they outlive the next epoch's peak

        val_loss, val_acc = evaluate(model, prop, graph, graph.val_mask, x_val, workspaces,
                                     val_plan)
        trace.append(EpochMetrics(epoch=epoch, train_loss=train_loss,
                                  train_acc=train_acc, val_loss=val_loss,
                                  val_acc=val_acc))

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_state = copy.deepcopy((model.weights, model.bn_states))
        elif epoch - best_epoch >= config.patience:
            break

    model.weights, model.bn_states = best_state
    del x_train, x_val  # a plan's gathered input rows: not needed by the full pass
    _, test_acc = evaluate(model, prop, graph, graph.test_mask, x, workspaces)
    if not np.isfinite(best_val):
        best_val = float("nan")
    return TrainResult(model=model, trace=trace, test_acc=test_acc,
                       best_epoch=best_epoch, best_val_loss=float(best_val),
                       seed=config.seed)


def save_model(path, model: Model) -> None:
    """Write architecture header, input and batch-norm statistics, latent weights.

    Layout, little-endian: magic, format version, model kind, layer
    count, widths, statistics record count, then per record its uint32
    width and float64 mean then variance (a binarized family's
    `input_stats` first, then each of `bn_states`' pairs),
    then `model.weights` as float64 row-major matrices, two per layer for
    the mean-aggregator model.
    """
    widths = model.config.widths
    records = ([] if model.input_stats is None else [model.input_stats]) + model.bn_states
    with open(path, "wb") as fh:
        fh.write(MODEL_FILE_MAGIC)
        fh.write(struct.pack("<III", 1, _MODEL_KIND_CODES[model.config.model], len(widths)))
        fh.write(struct.pack(f"<{len(widths)}I", *widths))
        fh.write(struct.pack("<I", len(records)))
        for mean, var in records:
            fh.write(struct.pack("<I", mean.size))
            fh.write(mean.astype("<f8").tobytes())
            fh.write(var.astype("<f8").tobytes())
        for w in model.weights:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def load_model(path) -> Model:
    """Rebuild a model from `save_model` output.

    Every read is bounds-checked against the file size; a file that does
    not hold exactly what its header announces, whose statistics records
    are not those of its model family (input statistics for a binarized
    one, then a batch-norm pair per batch-normalized hidden layer input),
    or whose weights or statistics are non-finite (or a variance
    negative) raises ModelFileError.
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
    (n_records,) = take(1, "<u4", "statistics record count")
    records = []
    for _ in range(int(n_records)):
        (dim,) = take(1, "<u4", "statistics record width")
        mean = take(int(dim), "<f8", "statistics record mean").copy()
        var = take(int(dim), "<f8", "statistics record variance").copy()
        if not (np.isfinite(mean).all() and np.isfinite(var).all() and (var >= 0).all()):
            raise ModelFileError(f"{path}: statistics records must be finite, "
                                 f"with nonnegative variances")
        records.append((mean, var))

    kind = _MODEL_KIND_NAMES[kind_code]
    family = FAMILIES[kind]
    stored = [mean.size for mean, _ in records]
    expected = ([("input statistics", widths[0])] if family.binarized else []) + (
        [("batch-norm statistics", w) for w in widths[1:-1]] if family.full_pass else [])
    if stored != [w for _, w in expected]:
        holds = ", ".join(f"{name} of width {w}" for name, w in expected) or "none"
        raise ModelFileError(f"{path}: statistics record widths {stored}, but a {kind} "
                             f"model of widths {widths} holds {holds}")
    # Check the payload size before allocating weights of the header's size.
    shapes = [(a, b) for a, b in zip(widths, widths[1:]) for _ in range(family.paths)]
    payload = 8 * sum(a * b for a, b in shapes)
    if len(blob) - off < payload:
        raise ModelFileError(f"{path}: truncated model file: widths {widths} need "
                             f"{payload} weight bytes, {len(blob) - off} left")
    if len(blob) - off > payload:
        raise ModelFileError(f"{path}: {len(blob) - off - payload} trailing bytes "
                             f"in model file")

    weights = [take(a * b, "<f8", "weights").reshape(a, b).copy() for a, b in shapes]
    if not all(np.isfinite(w).all() for w in weights):
        raise ModelFileError(f"{path}: weights contain non-finite entries")
    model = Model(ModelConfig(widths=widths, model=kind), np.random.default_rng(0))
    if family.binarized:
        model.input_stats = records.pop(0)
    model.bn_states = records
    model.weights = weights  # installed as stored: no clipping on load
    return model
