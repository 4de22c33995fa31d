"""Attributed graph container, adjacency normalization, sparse aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools


def canonical_edges(edges) -> np.ndarray:
    """Deduplicate an undirected edge list and drop self-loops.

    Returns an (E, 2) int64 array with u < v, sorted lexicographically.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    pairs = np.stack([lo[keep], hi[keep]], axis=1)
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    return np.unique(pairs, axis=0)


@dataclass
class AttributedGraph:
    """Node features, undirected edges, labels, and split masks.

    Edges are stored canonically (deduplicated, u < v, no self-loops);
    pass any undirected pair list through `canonical_edges` first.
    Instances are treated as immutable once built.
    """

    x: np.ndarray  # (N, d) float64 features
    edges: np.ndarray  # (E, 2) int64, canonical
    labels: np.ndarray  # (N,) int64 in [0, n_classes)
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    n_classes: int = field(default=0)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        for name in ("train_mask", "val_mask", "test_mask"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=bool))
        if self.n_classes == 0:
            self.n_classes = int(self.labels.max()) + 1 if self.labels.size else 0

        n = self.x.shape[0]
        if self.x.ndim != 2 or n < 1 or self.x.shape[1] < 1:
            raise ValueError("features must be a non-empty (N, d) matrix")
        if not np.isfinite(self.x).all():
            raise ValueError("features contain non-finite entries")
        if self.labels.shape != (n,):
            raise ValueError("labels must have one entry per node")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels out of range")
        if self.edges.size:
            if self.edges.min() < 0 or self.edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            if (self.edges[:, 0] >= self.edges[:, 1]).any():
                raise ValueError("edges must be canonical (u < v, no self-loops)")
            if len(np.unique(self.edges, axis=0)) != len(self.edges):
                raise ValueError("duplicate undirected edge")
        for m in (self.train_mask, self.val_mask, self.test_mask):
            if m.shape != (n,):
                raise ValueError("masks must have one entry per node")
        overlap = (
            (self.train_mask & self.val_mask)
            | (self.train_mask & self.test_mask)
            | (self.val_mask & self.test_mask)
        )
        if overlap.any():
            raise ValueError("train/val/test masks overlap")

    @property
    def n_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


@dataclass(frozen=True)
class NormalizedAdjacency:
    """CSR form of the symmetrically normalized adjacency with self-loops.

    Entry (i, j) is 1 / sqrt(deg_i * deg_j) with degrees counted after
    adding one self-loop per node, so every stored value lies in (0, 1]
    and every node has a diagonal entry.
    """

    matrix: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _self_loop_adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    diag = np.arange(n, dtype=np.int64)
    if edges.size:
        rows = np.concatenate([edges[:, 0], edges[:, 1], diag])
        cols = np.concatenate([edges[:, 1], edges[:, 0], diag])
    else:
        rows = cols = diag
    data = np.ones(rows.shape[0], dtype=np.float64)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def normalize_adjacency(g: AttributedGraph) -> NormalizedAdjacency:
    """Build D^{-1/2} (A + I) D^{-1/2} in CSR form."""
    a_hat = _self_loop_adjacency(g.n_nodes, g.edges)
    deg = np.asarray(a_hat.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)  # deg >= 1 thanks to the self-loop
    norm = sp.diags(inv_sqrt) @ a_hat @ sp.diags(inv_sqrt)
    norm = norm.tocsr()
    norm.sort_indices()
    return NormalizedAdjacency(matrix=norm)


def aggregate(adj: NormalizedAdjacency, z: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Sparse-dense product of the normalized adjacency with (N, m) values."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != adj.n:
        raise ValueError(f"expected ({adj.n}, m) input, got {z.shape}")
    return sparse_matmul(adj.matrix, z, out)


def sparse_matmul(m, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``m @ z`` for a CSR or CSC matrix `m` (or a dense one) and a 2-D `z`.

    With `out` (C-contiguous float64 of the product's shape) the product
    is written there, for a sparse `m` by the kernel scipy's ``m @ z``
    runs, so it is the same bit for bit.
    """
    if out is None:
        return m @ z
    if not sp.issparse(m):
        return np.matmul(m, z, out=out)
    z = np.ascontiguousarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != m.shape[1]:
        raise ValueError(f"expected ({m.shape[1]}, k) operand, got {z.shape}")
    shape = (m.shape[0], z.shape[1])
    if (out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous
            or m.format not in ("csr", "csc") or m.dtype != np.float64):
        raise ValueError("sparse_matmul writes a float64 CSR/CSC product into a "
                         f"C-contiguous float64 {shape} array")
    out.fill(0.0)
    kernel = getattr(_sparsetools, m.format + "_matvecs")
    kernel(m.shape[0], m.shape[1], shape[1], m.indptr, m.indices, m.data,
           z.ravel(), out.ravel())
    return out


def neighbor_mean_matrix(g: AttributedGraph) -> sp.csr_matrix:
    """Row-stochastic neighbor averaging operator (no self-loops).

    Rows of isolated nodes are all zero, so their aggregated neighbor
    term is the empty-sum convention of zero.
    """
    n = g.n_nodes
    if g.n_edges == 0:
        return sp.csr_matrix((n, n), dtype=np.float64)
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    data = np.ones(rows.shape[0], dtype=np.float64)
    adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    deg = np.asarray(adj.sum(axis=1)).ravel()
    scale = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    out = sp.diags(scale) @ adj
    out = out.tocsr()
    out.sort_indices()
    return out
