"""Graph convolution layers, binarized and full-precision, on one core.

A layer is a sum over paths, ``sum_k P_k (H x W_k)``: the paths share the
input and differ in their weights and in the propagation ``P_k``. GCN and
Bi-GCN have one path, the normalized adjacency; the mean-aggregator model
(Bi-GraphSAGE) a self path (``P = I``) and a neighbor-mean path. A
binarized layer computes ``bin(H) x bin(W_k)``; the float GCN layer is the
same layer with no binarization and a ReLU on hidden layers. One pair,
`forward` and `backward`, serves all three families, which set its
keywords. The family names (`bigcn_forward`, `gcn_backward`, ...) are
aliases of the pair: a model looks its layer function up by them at call
time, so a function swapped in at one of those names (to time it, say)
sees one call per layer.

Latent full-precision weights are re-binarized every call. Two routes
compute ``bin(H) x bin(W)`` and agree within float tolerance:

* count route — XNOR/popcount over the packed sign words
  (`bitlinalg.bin_gemm`, in C, or its exact float32 numpy fallback)
  gives each path's integer counts K = t - 2 * mismatches (int16 for
  t < 2**15), and `graph.aggregate` scales each term as
  ``(K * beta) * alpha`` where it reads it, so no float product is held.
  It is used for every input that arrives binarized (a
  `bitlinalg.PackedBinMatrix`), as a binarized layer's inference input
  always does. In training the model passes layer 0's fixed input that
  way: it has no dropout, and its weight gradient unpacks the signs in
  row blocks (`bitlinalg.sign_t_matmul`), so no dense copy of the input
  is held.
  In training the input holds only the rows its row plan reads (below).
  An inference layer that feeds a binarized layer hands it its output
  binarized (`binarize_out`): the C library binarizes each row as it
  aggregates it, so no hidden float array is held; the numpy route
  aggregates the output whole first, with the same words and scalars.
* float simulation — dense products of the reconstructed scalar-rescaled
  sign matrices; used in training for a float input (the hidden layers),
  so an inverted-dropout mask can zero individual entries of the
  binarized features. It is also the reference the kernel is tested
  against.

The backward pass takes the gradient through the sign with a
straight-through gate, selectable: ``grad`` gates on the gradient's own
magnitude, ``input`` on the pre-binarization input magnitude.

Both layer functions take an optional `Workspace` (`ws`): the memory
its passes reuse from one epoch to the next. The results are the same
bit for bit with and without one.

The layers also take a row plan's rectangular slice P[R_out, R_in] of
their propagation operator (`graph.row_plan`, of the normalized
adjacency or the neighbor mean) in place of the whole operator: the
layer then computes its output rows R_out from its input rows R_in
alone, and a self path adds its product's rows R_out, which R_in
includes. A float input of all N rows is read at rows R_in, in
gathered blocks; dropout draws the mask of all N rows, as a full pass
does, and applies its rows R_in. The output rows are the full pass's
bit for bit, but for the narrow products `_product` names. A whole
operator given as a bare CSR matrix (the neighbor mean) is wrapped in a
`NormalizedAdjacency` on entry, so every layer aggregates through
`graph.aggregate`.

The float products, ``H x W`` on any route and the weight gradient
``H^T x G`` whole or gathered, split their output rows over Python
threads from `_MIN_SPLIT_PRODUCT` (2**25) multiply-adds, one BLAS call
per thread and row slice, by `bitlinalg._blas_ranges`' rule, so their
results are the one-thread results bit for bit (`_product`). Of the
benchmark's products only the float GCN's layer 0 on the Cora- and
PubMed-shaped graphs reaches it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import bitlinalg as bl
from .graph import NormalizedAdjacency, aggregate, sparse_matmul

STE_MODES = ("grad", "input")
# Training-mode batch norm: the share of the running statistics kept per
# batch, and the variance offset under the square root.
BN_MOMENTUM = 0.9
BN_EPS = 1e-5
# Bytes of a float input's rows that a row plan's layer gathers at once,
# summed over the threads that gather them.
_GATHER_BYTES = 1 << 20
# Multiply-adds below which a float product stays on the calling thread
# (`_split`), where a thread pool would cost more than it saves. On a
# 2-vCPU VM with one BLAS thread, one thread against two (each call
# building its pool): 700x70x64 132 against 247 us, 700x256x64 494
# against 442 us, 2000x256x64 1.50 against 0.99 ms, 2709x1433x64 14.2
# against 7.7 ms. It sits above the crossing: at 2**20 the desk-scale
# graph's gcn epoch ran 30 % slower.
_MIN_SPLIT_PRODUCT = 1 << 25


def xavier_uniform(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-bound, bound, size=(d_in, d_out))


class Workspace:
    """Memory one layer's passes reuse from epoch to epoch, by role.

    `train` gives each layer one workspace for all its epochs. From the
    second epoch on, the passes write their large intermediates into the
    memory of the epoch before instead of allocating new arrays, so the
    heap top is not freed and grown again every epoch: glibc trims a
    freed heap top, and the next epoch faults it back in page by page.

    A role is a buffer that grows to the largest array taken from it.
    Taking a role again overwrites what the last taker wrote, so one
    role serves arrays that are never live at the same time: the
    forward's output and scratch roles are reused by the backward pass,
    by which time the next layer has consumed them; in a row-planned
    layer, the dropout draw of every node's row and the all-node operand
    of the product share the "nodes" role. A cache built with a
    workspace is valid for one backward pass. Without a workspace (None)
    every array is new.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A C-contiguous array of `shape` in `role`'s memory: zeros where
        the memory is new, else what the role's last taker left there."""
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if role not in self._buffers or self._buffers[role].size < nbytes:
            self._buffers.pop(role, None)  # freed before the larger buffer is allocated
            self._buffers[role] = np.zeros(nbytes, np.uint8)
        return self._buffers[role][:nbytes].view(dtype).reshape(shape)


def _take(ws: Workspace | None, role: str, shape, dtype=np.float64) -> np.ndarray:
    shape = tuple(shape)
    return np.empty(shape, dtype) if ws is None else ws.take(role, shape, dtype)


@dataclass
class LayerCache:
    """Forward intermediates a layer's backward pass needs.

    `operand` is the product's left operand after dropout: sign(H) * mask
    for a binarized layer, H * mask for a float one, or a packed input's
    signs. Neither the row-scaled operand, the weights' scaled signs nor
    the per-path products are stored: the row scalars commute with the
    dropout mask and the weight product, so the backward pass folds them
    into the (much smaller) gradient, and it binarizes the weights again.
    """

    h_in: np.ndarray | bl.PackedBinMatrix  # the layer input as given
    operand: np.ndarray | bl.PackedBinMatrix
    beta: np.ndarray | None  # (N,) row scalars; None: a float layer
    weights: list[np.ndarray]  # each path's latent (or float) weights
    drop_mask: np.ndarray | None = None
    pre_act: np.ndarray | None = None  # the ReLU's input, where the layer has one


def _input_route(adj: NormalizedAdjacency, h) -> str:
    """How a layer on the propagation `adj` reads its input `h`.

    "full": `adj` is a whole operator, with a column per node, and `h`
    holds every node's row. A row plan's slice has a column per node of
    `adj.in_rows`; "rows": `h` holds those rows alone (a hidden layer's
    input, or layer 0's packed input, gathered once per plan); "gather":
    `h` holds every node's row (layer 0's float input, read at those rows
    where it is used, never copied whole).
    """
    if adj.in_rows is None:
        return "full"
    return "rows" if h.shape[0] == adj.in_rows.size else "gather"


def _dropout_mask(rng: np.random.Generator, shape, rate: float, ws: Workspace | None,
                  adj: NormalizedAdjacency, route: str) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability `rate`, else 1/(1-rate).

    On the "rows" route (`_input_route`) the draw is that of every node's
    row, so the generator's stream is the full pass's, and the mask holds
    the rows `adj.in_rows`.
    """
    if rng is None:
        raise ValueError("training with dropout requires an rng")
    drawn = (adj.n_nodes, shape[1]) if route == "rows" else shape
    draws = rng.random(drawn, out=_take(ws, "nodes", drawn))
    if route == "rows":
        draws = np.take(draws, adj.in_rows, axis=0, out=_take(ws, "drop_rows", shape))
    keep = np.greater_equal(draws, rate, out=_take(ws, "keep", shape, bool))
    return np.divide(keep, 1.0 - rate, out=draws)


def _product(h: np.ndarray, w: np.ndarray, adj: NormalizedAdjacency, route: str,
             ws: Workspace | None, out: np.ndarray) -> np.ndarray:
    """``h @ w`` into `out`, one row per column of the propagation `adj`;
    `route` is `_input_route(adj, h)`.

    BLAS may round a row of a product differently with the shape of the
    call, so on a row plan's slice each row is computed as a full pass
    computes it. On the "rows" route `h` goes into an all-node operand at
    its nodes' rows and takes one all-node product; the operand's other
    rows hold zeros, dropout draws or earlier inputs, all finite, which
    cost time but change nothing. On the "gather" route `h` is read at
    the slice's input rows in near-equal gathered blocks of at most
    1 MiB, and larger only where that would leave a block too few rows:
    BLAS computes a block's rows as in the full product only while the
    block's product is large enough for its general kernel
    (`bitlinalg._BLAS_EXACT_SLICE`), so every block stays above that
    wherever the whole gathered product does. The rows agree with the
    full pass's only to rounding where it does not, and for a one-column
    `w`, which BLAS multiplies as a vector.

    A product of at least `_MIN_SPLIT_PRODUCT` multiply-adds splits its
    output rows over threads (`_split`), each making one BLAS call per
    row slice, or per gathered block, which the same fact keeps the
    one-thread result bit for bit. A gathering thread's blocks hold at
    most its share of the rows' 1 MiB, so the bytes gathered at once,
    summed over the threads, stay within it; it splits only where those
    smaller blocks stay above the bound.
    """
    if route == "full":
        return _matmul(h, w, out)
    rows = adj.in_rows
    if route == "rows":
        shape = (adj.n_nodes, h.shape[1])
        at_nodes = np.zeros(shape) if ws is None else ws.take("nodes", shape)
        at_nodes[rows] = h
        product = _matmul(at_nodes, w, _take(ws, "node_product", (shape[0], w.shape[1])))
        return np.take(product, rows, axis=0, out=out)
    k, m = w.shape
    min_rows = bl._BLAS_EXACT_SLICE // (k * m) + 1
    blocks = _block_bounds(rows.size, k * h.itemsize, min_rows)
    most = max(stop - start for start, stop in blocks)  # the rows gathered at once

    def blocks_of(r0: int, r1: int) -> list[tuple[int, int]]:
        """A thread's blocks of rows [r0, r1), of at most their share of `most`."""
        if r1 - r0 == rows.size:
            return blocks
        return _block_bounds(r1 - r0, 1, 1, max(1, most * (r1 - r0) // rows.size))

    def run(r0: int, r1: int) -> None:
        part = rows[r0:r1]
        for start, stop in blocks_of(r0, r1):
            np.matmul(h[part[start:stop]], w, out=out[r0 + start:r0 + stop])

    bl._fan_out(run, _split(rows.size, rows.size * k * m, m, lambda r0, r1: k * m * min(
        stop - start for start, stop in blocks_of(r0, r1))))
    return out


def _split(units: int, work: int, m: int, slice_work) -> list[tuple[int, int]]:
    """`bitlinalg._blas_ranges` of a float product's output rows: one range
    below `_MIN_SPLIT_PRODUCT` multiply-adds."""
    return bl._blas_ranges(units, work, _MIN_SPLIT_PRODUCT, m, slice_work, min_units=2)


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` into `out`, its rows split over threads (`_split`)."""
    (n, k), m = a.shape, b.shape[1]
    bl._fan_out(lambda r0, r1: np.matmul(a[r0:r1], b, out=out[r0:r1]),
                _split(n, n * k * m, m, lambda r0, r1: (r1 - r0) * k * m))
    return out


def _block_bounds(n_rows: int, row_bytes: int, min_rows: int = 1,
                  max_bytes: int = _GATHER_BYTES) -> list[tuple[int, int]]:
    """(start, stop) of near-equal blocks of `n_rows` rows of `row_bytes`
    each, each at most `max_bytes` unless that would leave a block under
    `min_rows` rows; one block where there are fewer."""
    n_blocks = max(1, min(-(-n_rows * row_bytes // max_bytes), n_rows // min_rows))
    bounds = np.linspace(0, n_rows, n_blocks + 1).round().astype(int).tolist()
    return list(zip(bounds, bounds[1:]))


def _weight_product(f: np.ndarray, grad: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """``f.T @ grad``, or with `rows` ``f[rows].T @ grad``, `f` read at those
    rows in gathered blocks of at most 1 MiB whose products are summed in
    row order.

    The columns of `f`, so the output rows, are split over threads
    (`_split`), each gathering its own columns of a block: the bytes
    gathered at once stay those of one block, and the blocks do not
    depend on the thread count, so every entry is summed in the
    one-thread order.
    """
    (n, d), m = f.shape, grad.shape[1]
    if rows is None:
        out = np.empty((d, m))
        bl._fan_out(lambda c0, c1: np.matmul(f[:, c0:c1].T, grad, out=out[c0:c1]),
                    _split(d, n * d * m, m, lambda c0, c1: (c1 - c0) * n * m))
        return out
    blocks = _block_bounds(rows.size, d * f.itemsize)
    smallest = min(stop - start for start, stop in blocks)
    out, products = np.zeros((d, m)), np.empty((d, m))

    def run(c0: int, c1: int) -> None:
        for start, stop in blocks:
            out[c0:c1] += np.matmul(f[rows[start:stop], c0:c1].T, grad[start:stop],
                                    out=products[c0:c1])

    bl._fan_out(run, _split(d, rows.size * d * m, m,
                            lambda c0, c1: (c1 - c0) * smallest * m))
    return out


def _scaled_signs(w: np.ndarray) -> np.ndarray:
    """bin(W): the signs of `w` times its columns' mean absolute values."""
    return bl.sign_pm1(w) * np.abs(w).mean(axis=0)[None, :]


def forward(
    prop,
    h_in: np.ndarray | bl.PackedBinMatrix,
    weights: list[np.ndarray],
    *,
    binarized: bool,
    training: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    ws: Workspace | None = None,
    activation: bool = False,
    binarize_out: bool = False,
    out_bn: BatchNormState | None = None,
) -> tuple[np.ndarray | bl.PackedBinMatrix, LayerCache]:
    """The layer ``sum_k P_k (H x W_k)``, with ReLU if `activation`.

    Every path of `weights` but the last is a self path (``P = I``); the
    last is propagated by `prop`: a `NormalizedAdjacency`, whole or a row
    plan's slice, or a CSR operator (the neighbor mean), which is wrapped
    in one. A `binarized` layer computes ``bin(H) x bin(W_k)`` and applies
    no nonlinearity: the sign in the next layer's input binarization plays
    that role. Its packed `h_in` takes the count route and no dropout; its
    float `h_in` runs the float simulation, in training only, whose
    dropout can mask single entries of the binarized features. In
    inference it takes its input packed (`bitlinalg.binarize_rows`), and
    `binarize_out` returns the output binarized row by row
    (`graph.aggregate`), standardized first with `out_bn`'s running
    statistics where given, as the next layer's inference batch norm and
    binarization would take it. A float layer computes
    ``(H * mask) x W``. On a row plan's slice `h_in` holds the slice's
    input rows, or, for a float layer, the row of every node (layer 0's
    fixed input), read at those rows by the product and by the weight
    gradient in gathered blocks, so no copy of them is held whole.
    """
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    shape = weights[0].shape
    if len(shape) != 2 or any(w.shape != shape for w in weights):
        raise ValueError("every path's weights must be 2-D and of one shape")
    packed = binarized and isinstance(h_in, bl.PackedBinMatrix)
    if packed and training and dropout > 0.0:
        raise ValueError("dropout needs a float layer input: its mask zeroes "
                         "single binarized entries")
    if binarize_out and (training or not binarized):
        raise ValueError("only a binarized layer's inference pass binarizes its output")
    if not packed:
        h_in = np.asarray(h_in, dtype=np.float64)
    if len(h_in.shape) != 2 or h_in.shape[1] != shape[0]:
        raise ValueError(f"expected (N, {shape[0]}) input, got {h_in.shape}")
    adj = prop if isinstance(prop, NormalizedAdjacency) else NormalizedAdjacency(prop)
    route = _input_route(adj, h_in)
    if route == "gather" and binarized:
        raise ValueError("a binarized layer on a row plan's slice takes its input "
                         "rows alone")
    if binarized and not training and not packed:
        raise ValueError("a binarized layer's inference pass takes its input packed "
                         "(bitlinalg.binarize_rows)")
    n_out = adj.matrix.shape[0]

    if packed:
        cache = LayerCache(h_in=h_in, operand=h_in, beta=h_in.scalars, weights=weights)
        # The counts share the role of the float route's products, which
        # the backward pass fills with the (larger) float gradient.
        counts = _take(ws, "zetas", (len(weights), h_in.rows, shape[1]),
                       bl.count_dtype(h_in.cols))
        alpha = np.empty((len(weights), shape[1]))
        for k, w in enumerate(weights):
            w_bin = bl.binarize_columns(w)
            bl.bin_gemm(h_in, w_bin, out=counts[k])
            alpha[k] = w_bin.scalars
        product = bl.SignCounts(counts, h_in.scalars, alpha)
        if binarize_out:
            standardize = (None if out_bn is None
                           else standardizer(out_bn.running_mean, out_bn.running_var))
            return aggregate(adj, product, binarize=True, standardize=standardize,
                             scratch=functools.partial(_take, ws, "out")), cache
        return aggregate(adj, product, out=_take(ws, "out", (n_out, shape[1]))), cache

    operand, beta, drop_mask = h_in, None, None
    if binarized:
        operand = bl.sign_pm1(h_in, out=_take(ws, "operand", h_in.shape))
        beta = np.abs(h_in, out=_take(ws, "scratch", h_in.shape)).mean(axis=1)
    if training and dropout > 0.0:
        drop_mask = _dropout_mask(rng, h_in.shape, dropout, ws, adj, route)
        operand = np.multiply(operand, drop_mask, out=_take(ws, "operand", h_in.shape))

    n_rows = adj.in_rows.size if route == "gather" else h_in.shape[0]
    zetas = _take(ws, "zetas", (len(weights), n_rows, shape[1]))
    for zeta, w in zip(zetas, weights):
        _product(operand, _scaled_signs(w) if binarized else w, adj, route, ws, out=zeta)
        if binarized:
            zeta *= beta[:, None]
    out = aggregate(adj, zetas[-1], out=_take(ws, "out", (n_out, shape[1])))
    for zeta in zetas[:-1]:  # the self paths, at the output rows
        out = np.add(zeta if adj.out_at is None else zeta[adj.out_at], out, out=out)
    cache = LayerCache(h_in=h_in, operand=operand, beta=beta, weights=weights,
                       drop_mask=drop_mask)
    if activation:
        # R_out is a subset of R_in: the output fits in the product's leading rows.
        cache.pre_act = out
        out = np.maximum(out, 0.0, out=zetas[0][:out.shape[0]])
    return out, cache


def ste_gate(grad: np.ndarray, reference: np.ndarray, mode: str,
             ws: Workspace | None = None) -> np.ndarray:
    """Straight-through gate: pass the gradient where |reference| < 1.

    With a workspace, `grad` is gated in place.
    """
    if mode == "grad":
        reference = grad
    elif mode != "input":
        raise ValueError(f"unknown STE mode {mode!r}; expected one of {STE_MODES}")
    magnitude = np.abs(reference, out=_take(ws, "scratch", np.shape(reference)))
    passes = np.less(magnitude, 1.0, out=_take(ws, "keep", magnitude.shape, bool))
    return np.multiply(grad, passes, out=None if ws is None else grad)


def _latent_weight_grad(grad_w_tilde: np.ndarray, w_latent: np.ndarray) -> np.ndarray:
    """Full-precision weight gradient through the column binarization.

    Each column couples through its shared scalar (the mean absolute
    value), contributing sign(w_ij)/d_in times the column's rescaled
    gradient mass, plus the straight-through term for the sign itself.
    """
    d_in = w_latent.shape[0]
    b_signs = bl.sign_pm1(w_latent)
    col_mass = (grad_w_tilde * b_signs).sum(axis=0)
    scalar_term = b_signs * (col_mass[None, :] / d_in)
    sign_term = np.abs(w_latent).mean(axis=0)[None, :] * grad_w_tilde * (np.abs(w_latent) < 1.0)
    return scalar_term + sign_term


def backward(
    cache: LayerCache,
    prop,
    grad_out: np.ndarray,
    *,
    ste_mode: str = "grad",
    need_input_grad: bool = True,
    ws: Workspace | None = None,
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Gradients of a `forward` layer on the propagation `prop`: (grad_h_in,
    each path's weight gradient, a binarized layer's through its latent
    weights). The paths' feature gradients add before a binarized layer's
    straight-through gate (`ste_mode`). A packed input has signs but no
    values to gate on, and an input read at a row plan's rows is layer 0's
    fixed input: neither has an input gradient.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    adj = prop if isinstance(prop, NormalizedAdjacency) else NormalizedAdjacency(prop)
    (n_out, n), (d_in, m) = adj.matrix.shape, cache.weights[0].shape
    if grad_out.shape != (n_out, m):
        raise ValueError(f"gradient shape {grad_out.shape} != {(n_out, m)}")
    packed = isinstance(cache.operand, bl.PackedBinMatrix)
    gather = _input_route(adj, cache.h_in) == "gather"
    if need_input_grad and (packed or gather):
        raise ValueError("a packed layer input, or one read at a row plan's rows, "
                         "has no input gradient")

    if cache.pre_act is not None:  # into the spent output's role
        active = np.greater(cache.pre_act, 0.0, out=_take(ws, "keep", grad_out.shape, bool))
        grad_out = np.multiply(grad_out, active, out=_take(ws, "zetas", grad_out.shape))
    # The self paths' gradients are grad_out; the propagated one goes into
    # the forward's spent output role.
    grad_zetas = [grad_out] * (len(cache.weights) - 1)
    grad_zetas.append(sparse_matmul(adj.matrix.T, grad_out, _take(ws, "out", (n, m))))
    binarized = cache.beta is not None
    if binarized:
        # (beta * operand)^T grad_zeta for every path in one product, the row
        # scaling folded into the gradient: a packed input is unpacked once.
        grad = np.concatenate(grad_zetas, axis=1,
                              out=_take(ws, "zetas", (n, m * len(grad_zetas))))
        grad *= cache.beta[:, None]
    else:  # a float layer: one path, no row scalars
        (grad,) = grad_zetas
    f = cache.operand
    if packed:
        grads_w = bl.sign_t_matmul(f, grad)
    else:  # a gathered input is read at the slice's input rows, as in the forward
        grads_w = _weight_product(f, grad, adj.in_rows if gather else None)
    grads_w = np.hsplit(grads_w, len(grad_zetas))
    if binarized:
        grads_w = [_latent_weight_grad(g, w) for g, w in zip(grads_w, cache.weights)]
    if not need_input_grad:
        return None, grads_w
    # Into the operand's role: the weight gradient was its last reader.
    grad_h = _take(ws, "operand", (n, d_in))
    for k, (grad_zeta, w) in enumerate(zip(grad_zetas, cache.weights)):
        w_t = (_scaled_signs(w) if binarized else w).T
        if k == 0:
            np.matmul(grad_zeta, w_t, out=grad_h)
        else:
            grad_h += np.matmul(grad_zeta, w_t, out=_take(ws, "scratch", grad_h.shape))
    if cache.drop_mask is not None:
        grad_h *= cache.drop_mask
    return (ste_gate(grad_h, cache.h_in, ste_mode, ws) if binarized else grad_h), grads_w


# The family names of the pair: perfbench/tracing.py's TRACED and
# tests/test_trace_names.py name them, and `train.Family` looks them up.
bigcn_forward = gcn_forward_cached = bisage_forward = forward
bigcn_backward = gcn_backward = bisage_backward = backward


@dataclass
class BatchNormState:
    """Running statistics for affine-free per-column standardization.

    Training-mode batch norm folds each batch's statistics into them.
    """

    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def for_dim(cls, dim: int) -> "BatchNormState":
        return cls(running_mean=np.zeros(dim), running_var=np.ones(dim))


def standardizer(mean: np.ndarray, var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, inv_std) that standardize columns of that mean and variance as
    ``(h - mean) * inv_std``: `batch_norm_forward`'s rule, which
    `bl.binarize_rows` applies on the fly."""
    return mean, 1.0 / np.sqrt(var + BN_EPS)


def batch_norm_apply(h: np.ndarray, training: bool, state: BatchNormState) -> np.ndarray:
    """Standardize columns to zero mean and unit variance (no affine).

    Training uses batch statistics and folds them into the running ones;
    inference standardizes with the running statistics.
    """
    out, _ = batch_norm_forward(h, training, state)
    return out


@dataclass
class BatchNormCache:
    normalized: np.ndarray
    inv_std: np.ndarray


def batch_norm_forward(
    h: np.ndarray, training: bool, state: BatchNormState, ws: Workspace | None = None
) -> tuple[np.ndarray, BatchNormCache]:
    h = np.asarray(h, dtype=np.float64)
    if training:
        mean, var = bl.column_moments(h)
        state.running_mean = BN_MOMENTUM * state.running_mean + (1 - BN_MOMENTUM) * mean
        state.running_var = BN_MOMENTUM * state.running_var + (1 - BN_MOMENTUM) * var
    else:
        mean = state.running_mean
        var = state.running_var
    mean, inv_std = standardizer(mean, var)
    normalized = np.subtract(h, mean, out=_take(ws, "normalized", h.shape))
    normalized *= inv_std
    return normalized, BatchNormCache(normalized=normalized, inv_std=inv_std)


def batch_norm_backward(cache: BatchNormCache, grad_out: np.ndarray,
                        ws: Workspace | None = None) -> np.ndarray:
    """Backward through training-mode standardization (batch statistics)."""
    n = grad_out.shape[0]
    y = cache.normalized
    scratch = _take(ws, "scratch", y.shape)
    mean_g = grad_out.mean(axis=0)
    mean_gy = (np.multiply(grad_out, y, out=scratch).mean(axis=0) if n > 1
               else np.zeros(grad_out.shape[1]))
    y_term = np.multiply(y, mean_gy, out=scratch)
    # Into the normalized input's role: y_term was its last reader.
    grad = np.subtract(grad_out, mean_g, out=_take(ws, "normalized", y.shape))
    grad -= y_term
    grad *= cache.inv_std
    return grad


def _masked_softmax(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray):
    """The masked rows' softmax and mean cross-entropy, from one selection
    of them: (row ids, their logits, their labels, probabilities, loss)."""
    mask = np.asarray(mask, dtype=bool)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError("mask selects no nodes")
    labels = np.asarray(labels, dtype=np.int64)
    sel = logits[idx]
    sel_labels = labels[idx]
    if sel_labels.min() < 0 or sel_labels.max() >= logits.shape[1]:
        raise ValueError("labels out of range for the logit width")

    shifted = sel - sel.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    picked = probs[np.arange(idx.size), sel_labels]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    return idx, sel, sel_labels, probs, loss


def masked_softmax_xent(
    logits: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Cross-entropy over the masked nodes, averaged over their count.

    Returns (loss, grad_logits); gradient rows outside the mask are zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    idx, _, sel_labels, probs, loss = _masked_softmax(logits, labels, mask)
    grad = np.zeros_like(logits)
    probs[np.arange(idx.size), sel_labels] -= 1.0
    grad[idx] = probs / idx.size
    return loss, grad


def masked_loss_and_accuracy(logits: np.ndarray, labels: np.ndarray,
                             mask: np.ndarray) -> tuple[float, float]:
    """`masked_softmax_xent`'s loss and `masked_accuracy` from one selection
    of the masked rows, with no gradient."""
    _, sel, sel_labels, _, loss = _masked_softmax(np.asarray(logits, dtype=np.float64),
                                                  labels, mask)
    return loss, float((sel.argmax(axis=1) == sel_labels).mean())


def masked_accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no nodes")
    pred = np.asarray(logits)[mask].argmax(axis=1)
    return float((pred == np.asarray(labels)[mask]).mean())
