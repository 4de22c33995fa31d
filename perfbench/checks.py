"""Correctness checks on the program's outputs.

Each check takes what the program returned plus inputs the benchmark made
itself, and returns True when the output is right. None of them calls into
the package: the expected values come from plain numpy or from a property
the method must have.
"""

from __future__ import annotations

import numpy as np

# Relative slack for products whose summation order may legitimately differ
# from the reference: a few units in the last place of a float64.
ROUNDING = 1e-13


def signs(a: np.ndarray) -> np.ndarray:
    """+-1 signs with sign(0) = +1, the package's convention."""
    return np.where(a >= 0, 1.0, -1.0)


def check_bin_gemm(h: np.ndarray, w: np.ndarray, out: np.ndarray) -> bool:
    """`out` is the +-1 integer dot products of sign(h) and sign(w), times beta, alpha.

    The dot products of +-1 vectors are whole numbers far below 2^53, so the
    float64 product of the sign matrices is exact.
    """
    dots = signs(h) @ signs(w)
    beta = np.abs(h).mean(axis=1)
    alpha = np.abs(w).mean(axis=0)
    expected = dots * beta[:, None] * alpha[None, :]
    return out.shape == expected.shape and bool(
        (np.abs(out - expected) <= ROUNDING * np.abs(expected)).all())


def degrees(n: int, edges: np.ndarray) -> np.ndarray:
    """Node degrees of an undirected edge list (each edge listed once)."""
    return np.bincount(edges.ravel(), minlength=n).astype(np.float64)


def check_normalized_adjacency(matrix, edges: np.ndarray) -> bool:
    """Symmetric, one entry per edge direction plus the diagonal, A.sqrt(deg) = sqrt(deg).

    deg counts the self-loop, so D^-1/2 (A + I) D^-1/2 maps sqrt(deg) to itself.
    """
    n = matrix.shape[0]
    root = np.sqrt(degrees(n, edges) + 1.0)
    asym = abs(matrix - matrix.T).max() if matrix.nnz else 0.0
    return (matrix.nnz == n + 2 * len(edges)
            and asym <= ROUNDING
            and bool(np.allclose(matrix @ root, root, rtol=ROUNDING * 100, atol=0.0)))


def check_neighbor_mean(matrix, edges: np.ndarray) -> bool:
    """Each row sums to 1, or to 0 for a node without neighbors."""
    n = matrix.shape[0]
    expected = (degrees(n, edges) > 0).astype(np.float64)
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    return (matrix.nnz == 2 * len(edges)
            and bool((matrix.data > 0).all())
            and bool(np.allclose(row_sums, expected, rtol=0.0, atol=1e-12)))


def check_loaded_graph(graph, x, edges, labels, masks) -> bool:
    """The loaded graph is the one written: float32 features, same edges, labels, splits."""
    return (np.array_equal(graph.x, x.astype(np.float32).astype(np.float64))
            and np.array_equal(graph.edges, edges)
            and np.array_equal(graph.labels, labels)
            and all(np.array_equal(got, want) for got, want in
                    zip((graph.train_mask, graph.val_mask, graph.test_mask), masks)))


def check_train_losses(train_losses: list[float], epochs: int) -> bool:
    """Exactly `epochs` epochs ran and the last train loss is below the first."""
    return len(train_losses) == epochs and train_losses[-1] < train_losses[0]


def check_above_chance(acc: float, n_classes: int) -> bool:
    """Accuracy at least halfway from chance (1/C) to perfect."""
    chance = 1.0 / n_classes
    return acc >= chance + 0.5 * (1.0 - chance)


def check_identical(a, b) -> bool:
    """Bit-identical values: arrays, floats, or (nested) tuples and lists of them."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(check_identical(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and (a == b or (a != a and b != b))


def check_cycles(per_layer: list[int], total: int) -> bool:
    """Per-layer cycle predictions add up to the whole stack's count."""
    return sum(per_layer) == total and all(c > 0 for c in per_layer)
