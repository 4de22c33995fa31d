"""Binarized and full-precision graph convolution layers.

A binarized layer is a sum over paths, ``sum_k P_k (bin(H) x bin(W_k))``:
the paths share the binarized input and differ in their weights and in
the propagation ``P_k``. Bi-GCN has one path, the normalized adjacency;
the mean-aggregator model (Bi-GraphSAGE) a self path (``P = I``) and a
neighbor-mean path. One forward and one backward core serve both.

Latent full-precision weights are re-binarized every call. Two routes
compute ``bin(H) x bin(W)`` and agree within float tolerance:

* float simulation — dense products of the reconstructed scalar-rescaled
  sign matrices; used in training so an inverted-dropout mask can zero
  individual entries of the binarized features.
* packed kernel — sign bits multiplied as exact float32 +-1 values by
  `bitlinalg.bin_gemm`; used for inference.

The backward pass takes the gradient through the sign with a
straight-through gate, selectable: ``grad`` gates on the gradient's own
magnitude, ``input`` on the pre-binarization input magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitlinalg as bl
from .graph import NormalizedAdjacency, aggregate

STE_MODES = ("grad", "input")


def xavier_uniform(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-bound, bound, size=(d_in, d_out))


@dataclass
class LayerCache:
    """Forward intermediates a binarized layer's backward pass needs.

    The list fields hold one entry per path. Neither the rescaled
    binarized features nor the per-path products are stored: the row
    scalars commute with the dropout mask and the weight product, so the
    backward pass folds them into the (much smaller) gradient. Inference
    leaves `f_signs` as None; backward recomputes them from `h_in`.
    """

    h_in: np.ndarray  # pre-binarization input
    f_signs: np.ndarray | None  # (N, d_in) +-1 signs of h_in
    beta: np.ndarray  # (N,) row scalars
    b_signs: list[np.ndarray]  # (d_in, d_out) +-1 signs of each path's weights
    alpha: list[np.ndarray]  # (d_out,) column scalars of each path's weights
    weights: list[np.ndarray]  # each path's latent weights
    drop_mask: np.ndarray | None = None


def _dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability `rate`, else 1/(1-rate)."""
    if rng is None:
        raise ValueError("training with dropout requires an rng")
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


def _binarized_forward(
    h_in: np.ndarray,
    weights: list[np.ndarray],
    training: bool,
    dropout: float,
    rng: np.random.Generator | None,
) -> tuple[list[np.ndarray], LayerCache]:
    """bin(H) x bin(W_k) for each path's weights W_k, before propagation.

    Training runs the float simulation, whose dropout can mask single
    entries of the binarized features; inference runs the packed kernel.
    """
    h_in = np.asarray(h_in, dtype=np.float64)
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    shape = weights[0].shape
    if len(shape) != 2 or any(w.shape != shape for w in weights):
        raise ValueError("every path's weights must be 2-D and of one shape")
    if h_in.ndim != 2 or h_in.shape[1] != shape[0]:
        raise ValueError(f"expected (N, {shape[0]}) input, got {h_in.shape}")

    drop_mask = None
    if training:
        f_signs = bl.sign_pm1(h_in)
        beta = np.abs(h_in).mean(axis=1)
        fm = f_signs
        if dropout > 0.0:
            drop_mask = _dropout_mask(rng, h_in.shape, dropout)
            fm = f_signs * drop_mask
    else:
        packed_f = bl.binarize_rows(h_in)
        f_signs = None
        beta = packed_f.scalars

    cache = LayerCache(h_in=h_in, f_signs=f_signs, beta=beta, b_signs=[], alpha=[],
                       weights=weights, drop_mask=drop_mask)
    zetas = []
    for w in weights:
        b_signs = bl.sign_pm1(w)
        alpha = np.abs(w).mean(axis=0)
        if training:
            zetas.append((fm @ (b_signs * alpha[None, :])) * beta[:, None])
        else:
            zetas.append(bl.bin_gemm(packed_f, bl.binarize_columns(w)))
        cache.b_signs.append(b_signs)
        cache.alpha.append(alpha)
    return zetas, cache


def bigcn_forward(
    adj: NormalizedAdjacency,
    h_in: np.ndarray,
    w: np.ndarray,
    training: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, LayerCache]:
    """Binarized graph convolution: aggregate(bin(H) x bin(W)).

    No nonlinearity is applied; the sign in the next layer's input
    binarization plays that role.
    """
    (zeta,), cache = _binarized_forward(h_in, [w], training, dropout, rng)
    return aggregate(adj, zeta), cache


def bisage_forward(
    neighbor_mean,
    h_in: np.ndarray,
    w_self: np.ndarray,
    w_neigh: np.ndarray,
    training: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, LayerCache]:
    """Binarized GraphSAGE convolution with a mean aggregator.

    `neighbor_mean` is the row-stochastic neighbor operator from
    `graph.neighbor_mean_matrix`; nodes without neighbors get a zero
    neighbor term. Both weight matrices consume the same binarized
    input. No nonlinearity, as with the binarized graph convolution.
    """
    (zeta_self, zeta_neigh), cache = _binarized_forward(
        h_in, [w_self, w_neigh], training, dropout, rng)
    return zeta_self + neighbor_mean @ zeta_neigh, cache


def ste_gate(grad: np.ndarray, reference: np.ndarray, mode: str) -> np.ndarray:
    """Straight-through gate: pass the gradient where |reference| < 1."""
    if mode == "grad":
        return grad * (np.abs(grad) < 1.0)
    if mode == "input":
        return grad * (np.abs(reference) < 1.0)
    raise ValueError(f"unknown STE mode {mode!r}; expected one of {STE_MODES}")


def _latent_weight_grad(
    grad_w_tilde: np.ndarray,
    b_signs: np.ndarray,
    alpha: np.ndarray,
    w_latent: np.ndarray,
) -> np.ndarray:
    """Full-precision weight gradient through the column binarization.

    Each column couples through its shared scalar (the mean absolute
    value), contributing sign(w_ij)/d_in times the column's rescaled
    gradient mass, plus the straight-through term for the sign itself.
    """
    d_in = w_latent.shape[0]
    col_mass = (grad_w_tilde * b_signs).sum(axis=0)
    scalar_term = b_signs * (col_mass[None, :] / d_in)
    sign_term = alpha[None, :] * grad_w_tilde * (np.abs(w_latent) < 1.0)
    return scalar_term + sign_term


def _binarized_backward(
    cache: LayerCache,
    grad_out: np.ndarray,
    adjoints: list,
    ste_mode: str,
    need_input_grad: bool,
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Gradients of a sum of binarized paths; `adjoints` are their transposed
    propagations (None: identity). Returns (grad_h_in, each path's
    full-precision latent weight gradient). The paths' feature gradients
    add before the straight-through gate.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    expected = (cache.h_in.shape[0], cache.weights[0].shape[1])
    if grad_out.shape != expected:
        raise ValueError(f"gradient shape {grad_out.shape} != {expected}")

    f_signs = cache.f_signs if cache.f_signs is not None else bl.sign_pm1(cache.h_in)
    fm = f_signs * cache.drop_mask if cache.drop_mask is not None else f_signs
    grads_w = []
    grad_h_tilde = None
    for adjoint, b_signs, alpha, w in zip(adjoints, cache.b_signs, cache.alpha,
                                          cache.weights):
        grad_zeta = grad_out if adjoint is None else adjoint @ grad_out
        # (beta * fm)^T grad_zeta with the row scaling folded into the gradient
        grad_w_tilde = fm.T @ (grad_zeta * cache.beta[:, None])
        grads_w.append(_latent_weight_grad(grad_w_tilde, b_signs, alpha, w))
        if need_input_grad:
            term = grad_zeta @ (b_signs * alpha[None, :]).T
            if grad_h_tilde is None:
                grad_h_tilde = term
            else:
                grad_h_tilde += term

    grad_h_in = None
    if need_input_grad:
        if cache.drop_mask is not None:
            grad_h_tilde = grad_h_tilde * cache.drop_mask
        grad_h_in = ste_gate(grad_h_tilde, cache.h_in, ste_mode)
    return grad_h_in, grads_w


def bigcn_backward(
    cache: LayerCache,
    adj: NormalizedAdjacency,
    grad_out: np.ndarray,
    ste_mode: str = "grad",
    need_input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of a binarized graph convolution: (grad_h_in, grad_w_latent)."""
    grad_h_in, (grad_w,) = _binarized_backward(cache, grad_out, [adj.matrix.T],
                                               ste_mode, need_input_grad)
    return grad_h_in, grad_w


def bisage_backward(
    cache: LayerCache,
    neighbor_mean,
    grad_out: np.ndarray,
    ste_mode: str = "grad",
    need_input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of the binarized mean-aggregator convolution.

    Returns (grad_h_in, grad_w_self, grad_w_neigh).
    """
    grad_h_in, grads_w = _binarized_backward(cache, grad_out, [None, neighbor_mean.T],
                                             ste_mode, need_input_grad)
    return (grad_h_in, *grads_w)


@dataclass
class GCNCache:
    h_in: np.ndarray  # input after dropout, as fed to the product
    w: np.ndarray
    pre_act: np.ndarray
    activation: bool
    drop_mask: np.ndarray | None = None


def gcn_forward(
    adj: NormalizedAdjacency,
    h_in: np.ndarray,
    w: np.ndarray,
    activation: bool,
) -> np.ndarray:
    """Full-precision graph convolution, ReLU optional (uncached reference)."""
    h_in = np.asarray(h_in, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if h_in.ndim != 2 or h_in.shape[1] != w.shape[0]:
        raise ValueError(f"shape mismatch: {h_in.shape} x {w.shape}")
    out = aggregate(adj, h_in @ w)
    return np.maximum(out, 0.0) if activation else out


def gcn_forward_cached(
    adj: NormalizedAdjacency,
    h_in: np.ndarray,
    w: np.ndarray,
    activation: bool,
    training: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, GCNCache]:
    h_in = np.asarray(h_in, dtype=np.float64)
    if h_in.ndim != 2 or h_in.shape[1] != w.shape[0]:
        raise ValueError(f"shape mismatch: {h_in.shape} x {w.shape}")
    drop_mask = None
    if training and dropout > 0.0:
        drop_mask = _dropout_mask(rng, h_in.shape, dropout)
        h_in = h_in * drop_mask
    pre_act = aggregate(adj, h_in @ w)
    out = np.maximum(pre_act, 0.0) if activation else pre_act
    return out, GCNCache(h_in=h_in, w=w, pre_act=pre_act,
                         activation=activation, drop_mask=drop_mask)


def gcn_backward(
    cache: GCNCache,
    adj: NormalizedAdjacency,
    grad_out: np.ndarray,
    need_input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != cache.pre_act.shape:
        raise ValueError(f"gradient shape {grad_out.shape} != {cache.pre_act.shape}")
    if cache.activation:
        grad_out = grad_out * (cache.pre_act > 0.0)
    grad_z = adj.matrix.T @ grad_out
    grad_w = cache.h_in.T @ grad_z
    grad_h = None
    if need_input_grad:
        grad_h = grad_z @ cache.w.T
        if cache.drop_mask is not None:
            grad_h = grad_h * cache.drop_mask
    return grad_h, grad_w


@dataclass
class BatchNormState:
    """Running statistics for affine-free per-column standardization."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    eps: float = 1e-5

    @classmethod
    def for_dim(cls, dim: int) -> "BatchNormState":
        return cls(running_mean=np.zeros(dim), running_var=np.ones(dim))


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
    h: np.ndarray, training: bool, state: BatchNormState
) -> tuple[np.ndarray, BatchNormCache]:
    h = np.asarray(h, dtype=np.float64)
    if training:
        mean = h.mean(axis=0)
        var = h.var(axis=0)
        state.running_mean = state.momentum * state.running_mean + (1 - state.momentum) * mean
        state.running_var = state.momentum * state.running_var + (1 - state.momentum) * var
    else:
        mean = state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    normalized = h - mean
    normalized *= inv_std  # in place: one N x d temporary, not two
    return normalized, BatchNormCache(normalized=normalized, inv_std=inv_std)


def batch_norm_backward(cache: BatchNormCache, grad_out: np.ndarray) -> np.ndarray:
    """Backward through training-mode standardization (batch statistics)."""
    n = grad_out.shape[0]
    y = cache.normalized
    mean_g = grad_out.mean(axis=0)
    mean_gy = (grad_out * y).mean(axis=0) if n > 1 else np.zeros(grad_out.shape[1])
    return cache.inv_std * (grad_out - mean_g - y * mean_gy)


def masked_softmax_xent(
    logits: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Cross-entropy over the masked nodes, averaged over their count.

    Returns (loss, grad_logits); gradient rows outside the mask are zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
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

    grad = np.zeros_like(logits)
    g = probs.copy()
    g[np.arange(idx.size), sel_labels] -= 1.0
    grad[idx] = g / idx.size
    return loss, grad


def masked_accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no nodes")
    pred = np.asarray(logits)[mask].argmax(axis=1)
    return float((pred == np.asarray(labels)[mask]).mean())
