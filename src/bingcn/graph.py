"""Attributed graph container, adjacency normalization, sparse aggregation.

`AttributedGraph` is a frozen value. It owns the edge rule: it takes
any list of undirected pairs and stores each edge once, as (u, v) with
u < v, sorted, with no self-loops. It owns its standardized input too,
computed once, on first use (`input_moments`, `packed_input`).

Both propagation operators scale the `.data` of one unit symmetric CSR
(with or without self-loops) from its row degrees. A row plan
(`row_plan`) slices either operator down to the rows a masked loss
reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import bitlinalg as bl

# scipy's ``m @ z`` allocates its product, so `sparse_matmul` takes it this
# many columns at a time: no temporary there is as wide as a hidden layer.
_SCIPY_COLUMNS = 8
# Stored entries of an operator whose values the numpy route of the count
# aggregation scales at once (`_scaled_product`): 128 KiB of float64.
_SCALED_ENTRIES = 1 << 14


@dataclass(frozen=True, eq=False)
class AttributedGraph:
    """Node features, undirected edges, labels, and split masks.

    `edges` takes any (E, 2) integer array (or an empty sequence) of
    undirected pairs in [0, N); the graph stores each edge once, as
    (u, v) with u < v, in sorted order, and drops self-loops.
    Instances are frozen: no field can be assigned, and every array the
    graph holds is its own read-only copy, so what is derived from them
    once (a row plan, `input_moments`, `packed_input`) stays valid
    whatever the caller later writes to the arrays it passed.
    """

    x: np.ndarray  # (N, d) float64; checked finite before widening (float32 is half the bytes)
    edges: np.ndarray  # (E, 2) int64, u < v, sorted, each edge once
    labels: np.ndarray  # (N,) int64 in [0, n_classes)
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    n_classes: int = 0

    def __post_init__(self):
        own = functools.partial(object.__setattr__, self)  # a frozen field's one setter
        x = np.asarray(self.x)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("features must be a non-empty (N, d) matrix")
        if not np.isfinite(x).all():
            raise ValueError("features contain non-finite entries")
        own("x", np.array(x, dtype=np.float64, order="C"))
        own("labels", np.array(self.labels, dtype=np.int64))
        for name in ("train_mask", "val_mask", "test_mask"):
            own(name, np.array(getattr(self, name), dtype=bool))
        if self.n_classes == 0:
            own("n_classes", int(self.labels.max()) + 1 if self.labels.size else 0)

        n = self.x.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("labels must have one entry per node")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels out of range")
        edges = np.asarray(self.edges)
        if edges.size == 0:
            edges = np.empty((0, 2), dtype=np.int64)
        elif edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
            raise ValueError(f"edges must be an (E, 2) integer array, not {edges.dtype} "
                             f"{edges.shape}")
        edges = edges.astype(np.int64, copy=False)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        keys = (lo * n + hi)[lo != hi]  # N * N < 2**63 for any N whose features fit in memory
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) > 0]  # the first of each run of equal keys
        own("edges", np.stack(np.divmod(keys, n), axis=1))
        for name in ("x", "edges", "labels", "train_mask", "val_mask", "test_mask"):
            getattr(self, name).flags.writeable = False
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

    @functools.cached_property
    def input_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """The exact column mean and population variance of `x`, read-only:
        a binarized model's input statistics (`train.Model.fit_input`)."""
        moments = bl.column_moments(self.x)
        for a in moments:
            a.flags.writeable = False
        return moments

    @functools.cached_property
    def packed_input(self) -> bl.PackedBinMatrix:
        """`x` standardized with `input_moments` and binarized: a binarized
        model's first-layer input on this graph (`train.Model.graph_input`)."""
        return bl.binarize_rows(self.x, bl.standardizer(*self.input_moments))

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
    """A propagation operator P in CSR form, whole or a row plan's slice.

    P is either operator: the symmetrically normalized adjacency with
    self-loops (`normalize_adjacency`: entry (i, j) is
    1 / sqrt(deg_i * deg_j) with degrees counted after adding one
    self-loop per node, so every stored value lies in (0, 1] and every
    node has a diagonal entry), or the neighbor mean
    (`neighbor_mean_matrix`, which the layers wrap in this class).

    A layer of a `RowPlan` holds the rectangular slice P[R_out, R_in] of
    either: `in_rows` then lists the node ids of its columns, R_in, out
    of `n_nodes`, and `out_at` the positions of its rows R_out among them
    (where a self path reads its output rows). None: the columns are
    all nodes.
    """

    matrix: sp.csr_matrix
    in_rows: np.ndarray | None = None
    n_nodes: int | None = None
    out_at: np.ndarray | None = None


def _unit_symmetric_csr(n: int, edges: np.ndarray, self_loops: bool):
    """CSR (sorted indices) of 1s at (u, v) and (v, u) per canonical edge and,
    with `self_loops`, at (i, i); also the row of each stored entry."""
    loops = np.arange(n if self_loops else 0, dtype=np.int64)
    rows = np.concatenate([edges[:, 0], edges[:, 1], loops])
    cols = np.concatenate([edges[:, 1], edges[:, 0], loops])
    a = sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))
    a.sort_indices()
    return a, np.repeat(np.arange(n), np.diff(a.indptr))


def normalize_adjacency(g: AttributedGraph) -> NormalizedAdjacency:
    """Build D^{-1/2} (A + I) D^{-1/2} in CSR form."""
    a_hat, rows = _unit_symmetric_csr(g.n_nodes, g.edges, self_loops=True)
    inv_sqrt = 1.0 / np.sqrt(np.diff(a_hat.indptr))  # deg >= 1 thanks to the self-loop
    a_hat.data = inv_sqrt[rows] * inv_sqrt[a_hat.indices]
    return NormalizedAdjacency(matrix=a_hat)


def aggregate(adj: NormalizedAdjacency, z, out: np.ndarray | None = None,
              binarize: bool = False, standardize=None, scratch=None):
    """Sparse-dense product of a propagation operator (or a row plan's
    slice of it) with values on its column nodes, into `out` (None: a new
    array).

    `z` is a float (n, m) array, or a layer's `bl.SignCounts`, whose last
    path is propagated while every other path, a self path, adds its row
    at each output row's input row (`adj.out_at`). The last path's output
    entry is ``alpha * sum_j (v_ij * beta_j) * K_j``: each stored entry
    scaled once by its column's beta, each output entry once by alpha; a
    self path's row is ``(K * beta) * alpha``, counted where it is read.
    The C library does both in one pass over the output rows, so neither
    a float product nor a self path's counts are held; the numpy route,
    and an operator the C library cannot take, compute the same values bit
    for bit (`_scaled_product`).

    With `binarize`, a `SignCounts` output is returned as
    `bl.binarize_rows(output, standardize)` binarizes it. The C library
    binarizes each row as it aggregates it, so the float output is never
    held; the other routes aggregate it whole into ``scratch(shape)``
    (None: a new array) first.
    """
    if isinstance(z, bl.SignCounts):
        return _aggregate_counts(adj, z, out, binarize, standardize, scratch)
    if binarize:
        raise ValueError("only a SignCounts product is aggregated binarized")
    z = np.asarray(z, dtype=np.float64)
    n = adj.matrix.shape[1]
    if z.ndim != 2 or z.shape[0] != n:
        raise ValueError(f"expected ({n}, m) input, got {z.shape}")
    if out is None:
        out = np.empty((adj.matrix.shape[0], z.shape[1]))
    return sparse_matmul(adj.matrix, z, out)


def _aggregate_counts(adj: NormalizedAdjacency, z: bl.SignCounts, out: np.ndarray | None,
                      binarize: bool, standardize, scratch):
    m, x = adj.matrix, z.x
    n, k = z.counts.shape
    shape, paths = (m.shape[0], k), len(z.weights)
    if m.format != "csr":
        raise ValueError("counts are aggregated by a CSR operator")
    if (n != m.shape[1] or x.rows != n or z.counts.dtype != bl.count_dtype(x.cols)
            or any(w.shape != (k, x.cols) for w in z.weights)):
        raise ValueError(f"expected {bl.count_dtype(x.cols)} counts of {m.shape[1]} rows, "
                         f"got {z.counts.dtype} {z.counts.shape}")
    lib = bl._native() if _native_operator(m) else None
    if binarize:  # the float output is held only where the C library does not run
        out = None if lib is not None else np.empty(shape) if scratch is None else scratch(shape)
    elif out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"aggregate writes a C-contiguous float64 {shape} array")
    if lib is None:
        at = np.arange(shape[0]) if adj.out_at is None else adj.out_at  # the self paths' rows
        out = _scaled_product(m, z, at, out)
        return bl.binarize_rows(out, standardize) if binarize else out
    words = scalars = None
    if binarize:
        words = np.empty((shape[0], -(-k // bl.WORD_BITS)), dtype=np.uint64)
        scalars = np.empty(shape[0])
    nw = x.words.shape[1]
    self_bt = np.array([w.words.T for w in z.weights[:-1]], np.uint64).reshape(-1, nw, k)
    counts, f = np.ascontiguousarray(z.counts), np.ascontiguousarray(x.words, dtype=np.uint64)
    alpha = np.stack([w.scalars for w in z.weights])
    self_at = None if adj.out_at is None else np.ascontiguousarray(adj.out_at, dtype=np.int32)
    arrays = (self_at, out, *bl._standardize_args(standardize, k), words, scalars)
    bl._check_binarized(lib.aggregate_counts(
        m.indptr.ctypes.data, m.indices.ctypes.data, m.data.ctypes.data, shape[0], k, paths,
        counts.ctypes.data, counts.dtype == np.int32, f.ctypes.data, self_bt.ctypes.data, nw,
        x.cols, int(bl._pad_mask(x.cols)), x.scalars.ctypes.data, alpha.ctypes.data,
        *(None if a is None else a.ctypes.data for a in arrays),  # None: NULL
        bl._threads_for((m.nnz + shape[0] * nw * (paths - 1)) * k)))
    if binarize:
        return bl.PackedBinMatrix(rows=shape[0], cols=k, words=words, scalars=scalars)
    return out


def _scaled_product(m, z: bl.SignCounts, at: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`aggregate`'s numpy route, in the C library's order: scipy's product
    of the CSR `m`, each stored entry v_ij scaled once to v_ij * beta_j, and
    the last path's counts, `_SCIPY_COLUMNS` columns and a block of rows of
    at most `_SCALED_ENTRIES` stored entries at a time, scaled by alpha;
    then each other path's float product at the input rows `at`, counted
    by `bl.bin_gemm` in row blocks, added as a layer adds them."""
    x, last = z.x, z.weights[-1]
    n_blocks = max(1, min(-(-m.nnz // _SCALED_ENTRIES), m.shape[0]))
    bounds = np.linspace(0, m.shape[0], n_blocks + 1).round().astype(int).tolist()
    for j in range(0, out.shape[1], _SCIPY_COLUMNS):
        cols = slice(j, j + _SCIPY_COLUMNS)
        counts = z.counts[:, cols].astype(np.float64)
        for r0, r1 in zip(bounds, bounds[1:]):
            p0, p1 = m.indptr[r0], m.indptr[r1]
            ids = m.indices[p0:p1]
            values = np.take(x.scalars, ids)
            values *= m.data[p0:p1]
            part = sp.csr_matrix((values, ids, m.indptr[r0:r1 + 1] - p0),
                                 shape=(r1 - r0, m.shape[1]))
            out[r0:r1, cols] = part @ counts
        out[:, cols] *= last.scalars[cols]
    for w in z.weights[:-1]:
        for start in range(0, at.size, bl._BLOCK_ROWS):
            rows = at[start:start + bl._BLOCK_ROWS]
            block = bl.PackedBinMatrix(rows=rows.size, cols=x.cols, words=x.words[rows],
                                       scalars=x.scalars[rows])
            out[start:start + rows.size] += bl.bin_gemm(block, w)
    return out


@dataclass(frozen=True)
class RowPlan:
    """The rows each layer of a pass computes for a loss on one mask.

    `rows[-1]` are the mask's node ids and `rows[l]` the ones layer l
    reads: `rows[l + 1]` and the column support of P[rows[l + 1], :]. All
    are sorted. `ops[l]` is P[rows[l + 1], rows[l]]. A layer that computes
    its output rows from these input rows alone gives the full pass's
    values on them, since each sliced row keeps its stored entries in
    their order.
    """

    rows: tuple[np.ndarray, ...]
    ops: tuple[NormalizedAdjacency, ...]


def row_plan(adj, mask, n_layers: int) -> RowPlan | None:
    """The `RowPlan` of `n_layers` layers propagating with `adj` for `mask`.

    `adj` is a `NormalizedAdjacency` or a CSR operator (the neighbor
    mean). Each layer's input rows include its output rows, so a self
    path can read them too.

    A layer's rows are found from the positions of its output rows'
    stored entries in `indptr`/`indices`, with no copy of the operator.
    None where layer 0 reads every node: then only the later, narrower
    layers would shrink, while the slices would copy most of the operator,
    so a full pass is cheaper. A slice takes its rows' stored entries in
    order and renumbers their column ids monotonically, so it keeps them
    sorted.
    """
    m = adj.matrix if isinstance(adj, NormalizedAdjacency) else adj
    n = m.shape[0]
    rows, entries = [np.flatnonzero(mask)], []
    for _ in range(n_layers):
        r_out = rows[0]
        starts = m.indptr[r_out]
        counts = m.indptr[r_out + 1] - starts
        indptr = np.zeros(r_out.size + 1, dtype=m.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        # Positions of the rows' stored entries, row after row.
        at = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        read = np.zeros(n, dtype=bool)
        read[r_out] = True
        read[m.indices[at]] = True
        rows.insert(0, np.flatnonzero(read))
        entries.insert(0, (indptr, at))
    if rows[0].size == n:
        return None
    local = np.empty(n, dtype=m.indices.dtype)
    ops = []
    for r_in, r_out, (indptr, at) in zip(rows, rows[1:], entries):
        local[r_in] = np.arange(r_in.size)
        op = sp.csr_matrix((m.data[at], local[m.indices[at]], indptr),
                           shape=(indptr.size - 1, r_in.size))
        op.has_sorted_indices = True
        ops.append(NormalizedAdjacency(matrix=op, in_rows=r_in, n_nodes=n,
                                       out_at=local[r_out]))
    return RowPlan(rows=tuple(rows), ops=tuple(ops))


def _native_operator(m) -> bool:
    """Whether the C library can take the sparse `m` as it is stored: float64
    CSR or CSC with contiguous int32 indices."""
    return (m.format in ("csr", "csc") and m.dtype == np.float64
            and all(a.dtype == np.int32 and a.flags.c_contiguous
                    for a in (m.indptr, m.indices))
            and m.data.flags.c_contiguous)


def sparse_matmul(m, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``m @ z`` for a float64 CSR or CSC matrix `m` and a 2-D `z`, written
    into `out` (C-contiguous float64 of the product's shape).

    An `m` with int32 indices (what
    `normalize_adjacency`, `neighbor_mean_matrix`, `row_plan` and their
    transposes give) runs in the C library of `bitlinalg`, split by output
    rows over its threads for a product of at least
    `bitlinalg._MIN_THREADED_WORK` multiply-adds: each output row starts
    at zero and adds its terms in the order of the kernels scipy's
    ``m @ z`` runs (``csr_matvecs``, ``csc_matvecs``), so the product is
    the same bit for bit at any thread count. The operator is read as
    stored, never copied; a thread of a CSC product whose row ids are sorted
    (`has_sorted_indices`) binary-searches each column for its rows. Other
    operators, and machines with no C library, take scipy's ``m @ z``,
    `_SCIPY_COLUMNS` columns at a time: each column of the product is the
    same bit for bit in any block.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != m.shape[1]:
        raise ValueError(f"expected ({m.shape[1]}, k) operand, got {z.shape}")
    shape = (m.shape[0], z.shape[1])
    if (out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous
            or not sp.issparse(m) or m.format not in ("csr", "csc")
            or m.dtype != np.float64):
        raise ValueError("sparse_matmul writes a float64 CSR/CSC product into a "
                         f"C-contiguous float64 {shape} array")
    lib = bl._native() if _native_operator(m) else None
    if lib is not None:
        csc = m.format == "csc"
        lib.sparse_matmul(csc, csc and m.has_sorted_indices, shape[0], m.shape[1], shape[1],
                          m.indptr.ctypes.data, m.indices.ctypes.data, m.data.ctypes.data,
                          z.ctypes.data, out.ctypes.data, bl._threads_for(m.nnz * shape[1]))
        return out
    for j in range(0, shape[1], _SCIPY_COLUMNS):
        out[:, j:j + _SCIPY_COLUMNS] = m @ z[:, j:j + _SCIPY_COLUMNS]
    return out


def neighbor_mean_matrix(g: AttributedGraph) -> sp.csr_matrix:
    """Row-stochastic neighbor averaging operator (no self-loops).

    Rows of isolated nodes are all zero, so their aggregated neighbor
    term is the empty-sum convention of zero.
    """
    adj, rows = _unit_symmetric_csr(g.n_nodes, g.edges, self_loops=False)
    adj.data = 1.0 / np.diff(adj.indptr)[rows]  # every stored row has deg >= 1
    return adj
