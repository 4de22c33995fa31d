"""Graph container, adjacency normalization, and aggregation."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from bingcn import bitlinalg as bl
from bingcn.graph import (
    AttributedGraph,
    aggregate,
    neighbor_mean_matrix,
    normalize_adjacency,
    row_plan,
    sparse_matmul,
)

from reference_impl import canonical_edges, dense_normalized_adjacency


def make_graph(n, edges, d=2, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[0] = True
    if n > 1:
        val[1] = True
    if n > 2:
        test[2:] = True
    return AttributedGraph(
        x=rng.standard_normal((n, d)),
        edges=edges,
        labels=rng.integers(0, n_classes, size=n),
        train_mask=train,
        val_mask=val,
        test_mask=test,
        n_classes=n_classes,
    )


def diags_operators(g):
    """Both operators as the sp.diags products of unit adjacencies: the
    construction the shared CSR builder replaced, kept as its oracle."""
    n = g.n_nodes
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    diag = np.arange(n)
    a_hat = sp.csr_matrix((np.ones(rows.size + n), (np.concatenate([rows, diag]),
                                                    np.concatenate([cols, diag]))), shape=(n, n))
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a_hat.sum(axis=1)).ravel())
    norm = (sp.diags(inv_sqrt) @ a_hat @ sp.diags(inv_sqrt)).tocsr()
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    deg = np.asarray(adj.sum(axis=1)).ravel()
    mean = (sp.diags(np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)) @ adj).tocsr()
    norm.sort_indices()
    mean.sort_indices()
    return norm, mean


class TestCanonicalEdges:
    """The oracle of the graph's edge rule (`TestEdgeRule`)."""

    def test_matches_rowwise_unique(self):
        rng = np.random.default_rng(46)
        info = np.iinfo(np.int64)
        extremes = np.array([info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max])
        for trial in range(40):
            m = int(rng.integers(0, 200))
            raw = (rng.choice(extremes, size=(m, 2)) if trial % 2
                   else rng.integers(-6, 7, size=(m, 2)))
            lo, hi = raw.min(axis=1), raw.max(axis=1)
            pairs = np.stack([lo[lo != hi], hi[lo != hi]], axis=1)
            expected = np.unique(pairs, axis=0).reshape(-1, 2)
            got = canonical_edges(raw)
            assert got.dtype == np.int64 and np.array_equal(got, expected)

    def test_dedup_and_orientation(self):
        edges = canonical_edges([[1, 0], [0, 1], [2, 1]])
        assert np.array_equal(edges, [[0, 1], [1, 2]])

    def test_drops_self_loops(self):
        edges = canonical_edges([[0, 0], [1, 2]])
        assert np.array_equal(edges, [[1, 2]])

    def test_empty(self):
        assert canonical_edges([]).shape == (0, 2)


class TestEdgeRule:
    """The graph stores any undirected pair list as the oracle's canonical edges."""

    def test_matches_the_oracle_on_raw_pair_lists(self):
        rng = np.random.default_rng(49)
        for trial in range(60):
            n = int(rng.integers(1, 40))
            raw = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
            if trial % 3 == 0 and len(raw):  # reversed copies of some pairs
                raw = np.concatenate([raw, raw[rng.integers(0, len(raw), size=5), ::-1]])
            raw = rng.permutation(raw)
            edges = make_graph(n, raw).edges
            assert edges.dtype == np.int64
            assert np.array_equal(edges, canonical_edges(raw))
        for empty in ([], np.empty((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int32)):
            assert make_graph(3, empty).edges.shape == (0, 2)

    @pytest.mark.parametrize("edges", [
        [0, 1, 2, 3],
        [[[0, 1]]],
        [[0, 1, 2], [1, 2, 0]],
        [[0], [1]],
        [[0.0, 1.0]],
        [[True, False]],
    ], ids=["flat", "1x1x2", "2x3", "2x1", "float", "bool"])
    def test_rejects_what_is_not_an_integer_pair_array(self, edges):
        with pytest.raises(ValueError, match=r"\(E, 2\) integer array"):
            make_graph(4, edges)


class TestGraphValidation:
    def test_canonical_edge_sets_come_back_sorted_and_once(self):
        rng = np.random.default_rng(47)
        g = make_graph(8, [])
        verdicts = set()
        for _ in range(60):
            u = rng.integers(0, 7, size=int(rng.integers(1, 10)))
            edges = np.stack([u, u + rng.integers(1, 8 - u)], axis=1)  # u < v, any order
            unique = np.unique(edges, axis=0)
            verdicts.add(len(unique) == len(edges))
            held = AttributedGraph(g.x, edges, g.labels, g.train_mask, g.val_mask,
                                   g.test_mask)
            assert np.array_equal(held.edges, unique)
        assert verdicts == {True, False}

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            make_graph(2, [[0, 5]])

    def test_duplicates_reversed_pairs_and_self_loops_are_normalized(self):
        g = make_graph(3, [[0, 1]])
        for raw in ([[0, 1], [0, 1]], [[1, 0], [0, 1], [2, 2]], [[1, 0]]):
            held = AttributedGraph(g.x, np.array(raw), g.labels,
                                   g.train_mask, g.val_mask, g.test_mask, g.n_classes)
            assert np.array_equal(held.edges, [[0, 1]])

    def test_rejects_overlapping_masks(self):
        g = make_graph(3, [[0, 1]])
        bad_val = g.val_mask.copy()
        bad_val[0] = True  # also in train
        with pytest.raises(ValueError):
            AttributedGraph(g.x, g.edges, g.labels,
                            g.train_mask, bad_val, g.test_mask, g.n_classes)

    def test_rejects_label_out_of_range(self):
        g = make_graph(3, [[0, 1]])
        labels = g.labels.copy()
        labels[0] = 7
        with pytest.raises(ValueError):
            AttributedGraph(g.x, g.edges, labels,
                            g.train_mask, g.val_mask, g.test_mask, g.n_classes)

    def test_arrays_are_read_only_and_the_edges_the_graphs_own(self):
        # Every array is the graph's own copy; x has its own tests
        # (TestFeatureOwnership).
        g = make_graph(3, [[0, 1]])
        names = ("edges", "labels", "train_mask", "val_mask", "test_mask")
        own = [getattr(g, name).copy() for name in names]
        held = AttributedGraph(g.x, *own, g.n_classes)
        for name, array in zip(names, own):
            kept = getattr(held, name)
            assert not np.shares_memory(kept, array)
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = kept[0]
            array[0] = array[0]  # the caller's own array stays writable

    def test_callers_later_writes_change_nothing_the_graph_holds(self):
        rng = np.random.default_rng(5)
        n = 40
        x = rng.standard_normal((n, 3))
        labels = rng.integers(0, 2, size=n)
        train, val, test = (np.arange(n) % 4 == k for k in (0, 1, 2))
        g = AttributedGraph(x, rng.integers(0, n, size=(60, 2)), labels,
                            train, val, test, 2)
        kept = [a.copy() for a in (g.x, g.labels, g.train_mask)]
        plan = row_plan(normalize_adjacency(g), g.train_mask, 2)
        x[:] = 0.0
        labels[:] = 1 - labels
        train[:] = ~train
        for held, before in zip((g.x, g.labels, g.train_mask), kept):
            assert np.array_equal(held, before)
        assert np.array_equal(plan.rows[-1], np.flatnonzero(g.train_mask))

    def test_rejects_nonfinite_features(self):
        g = make_graph(3, [[0, 1]])
        x = g.x.copy()
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            AttributedGraph(x, g.edges, g.labels,
                            g.train_mask, g.val_mask, g.test_mask, g.n_classes)


def with_features(g, x):
    return AttributedGraph(x, g.edges, g.labels, g.train_mask, g.val_mask, g.test_mask,
                           g.n_classes)


class TestFeatureOwnership:
    """x is always the graph's own read-only, C-contiguous float64 copy."""

    @pytest.mark.parametrize("caller", ["array", "view", "read-only view", "fortran"])
    def test_writable_memory_is_copied(self, caller):
        g = make_graph(3, [[0, 1]], d=4)
        base = g.x.copy()
        x = {"array": base, "view": base[:, :3], "fortran": np.asfortranarray(base),
             "read-only view": base.view()}[caller]
        if caller == "read-only view":
            x.flags.writeable = False
        held = with_features(g, x)
        assert not np.shares_memory(held.x, base) and not np.shares_memory(held.x, x)
        assert np.array_equal(held.x, x) and held.x.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            held.x[0, 0] = 1.0
        base[0, 0] += 1.0  # the caller's array stays writable
        assert held.x[0, 0] != base[0, 0]

    @pytest.mark.parametrize("caller", ["read-only array", "another graph's x"])
    def test_read_only_memory_is_copied(self, caller):
        g = make_graph(3, [[0, 1]])
        x = g.x
        if caller == "read-only array":
            x = g.x.copy()
            x.flags.writeable = False
        held = with_features(g, x)
        assert held.x is not x and not np.shares_memory(held.x, x)
        assert np.array_equal(held.x, x) and not held.x.flags.writeable

    def test_widened_features_are_not_copied_again(self):
        g = make_graph(3, [[0, 1]])
        x32 = g.x.astype(np.float32)
        held = with_features(g, x32)
        assert held.x.dtype == np.float64 and held.x.flags.owndata
        assert not np.shares_memory(held.x, x32)
        assert not held.x.flags.writeable

    def test_fields_are_frozen_and_input_work_waits_for_first_read(self):
        g = make_graph(3, [[0, 1]])
        for f in dataclasses.fields(g):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, f.name, getattr(g, f.name))
        derived = ("input_moments", "packed_input")
        assert not set(derived) & vars(g).keys()
        for name in derived:
            value = getattr(g, name)
            assert vars(g)[name] is value and getattr(g, name) is value


class TestNormalizeAdjacency:
    def test_two_node_edge(self):
        g = make_graph(2, [[0, 1]])
        adj = normalize_adjacency(g)
        assert np.allclose(adj.matrix.toarray(), [[0.5, 0.5], [0.5, 0.5]])

    def test_isolated_node(self):
        g = make_graph(1, [])
        assert np.allclose(normalize_adjacency(g).matrix.toarray(), [[1.0]])

    def test_star_graph(self):
        g = make_graph(4, [[0, 1], [0, 2], [0, 3]])
        dense = normalize_adjacency(g).matrix.toarray()
        assert dense[0, 0] == pytest.approx(0.25)
        for leaf in (1, 2, 3):
            assert dense[leaf, leaf] == pytest.approx(0.5)
            assert dense[0, leaf] == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 65))
            n_edges = int(rng.integers(0, max(1, n * 2)))
            raw = rng.integers(0, n, size=(n_edges, 2))
            edges = canonical_edges(raw)
            g = make_graph(n, edges)
            expected = dense_normalized_adjacency(n, edges)
            assert np.allclose(normalize_adjacency(g).matrix.toarray(), expected, atol=1e-12)

    def test_symmetry_and_value_range(self):
        g = make_graph(30, np.random.default_rng(2).integers(0, 30, size=(50, 2)))
        adj = normalize_adjacency(g)
        dense = adj.matrix.toarray()
        assert np.allclose(dense, dense.T)
        vals = adj.matrix.data
        assert (vals > 0).all() and (vals <= 1).all()
        assert (np.diag(dense) > 0).all()  # every node keeps a self-loop

    def test_both_operators_equal_the_diags_products_bit_for_bit(self):
        rng = np.random.default_rng(48)
        graphs = [make_graph(5, []), make_graph(6, [[0, 1], [4, 5]])]
        for _ in range(15):
            n = int(rng.integers(2, 80))
            graphs.append(make_graph(n, rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))))
        for g in graphs:
            for got, want in zip((normalize_adjacency(g).matrix, neighbor_mean_matrix(g)),
                                 diags_operators(g)):
                for part in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, part), getattr(want, part)), part

    def test_rows_sorted_by_column(self):
        g = make_graph(5, [[0, 4], [0, 2], [0, 1]])
        adj = normalize_adjacency(g)
        for i in range(5):
            row = adj.matrix.indices[adj.matrix.indptr[i]:adj.matrix.indptr[i + 1]]
            assert np.array_equal(row, np.sort(row))


class TestAggregate:
    def test_hand_example(self):
        g = make_graph(2, [[0, 1]])
        adj = normalize_adjacency(g)
        out = aggregate(adj, np.array([[2.0], [0.0]]))
        assert np.allclose(out, [[1.0], [1.0]])

    def test_identity_on_isolated_nodes(self):
        g = make_graph(4, [])
        adj = normalize_adjacency(g)
        z = np.random.default_rng(4).standard_normal((4, 3))
        assert np.allclose(aggregate(adj, z), z)

    def test_zero_input(self):
        g = make_graph(3, [[0, 1]])
        adj = normalize_adjacency(g)
        assert np.array_equal(aggregate(adj, np.zeros((3, 2))), np.zeros((3, 2)))

    def test_linearity(self):
        rng = np.random.default_rng(43)
        g = make_graph(10, rng.integers(0, 10, size=(15, 2)))
        adj = normalize_adjacency(g)
        z1 = rng.standard_normal((10, 4))
        z2 = rng.standard_normal((10, 4))
        a, b = 2.5, -1.25
        lhs = aggregate(adj, a * z1 + b * z2)
        rhs = a * aggregate(adj, z1) + b * aggregate(adj, z2)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_row_count_mismatch(self):
        g = make_graph(3, [[0, 1]])
        adj = normalize_adjacency(g)
        with pytest.raises(ValueError):
            aggregate(adj, np.zeros((4, 2)))


class TestSparseMatmul:
    @pytest.mark.parametrize("k", [1, 3, 17, 64])  # 17: a partial block of scipy's route
    def test_into_out_equals_scipy_bit_for_bit(self, k):
        rng = np.random.default_rng(44)
        g = make_graph(40, rng.integers(0, 40, size=(120, 2)))
        for m in (normalize_adjacency(g).matrix, neighbor_mean_matrix(g).T):
            z = rng.standard_normal((40, k))
            out = np.full((40, k), np.nan)
            assert sparse_matmul(m, z, out) is out
            assert np.array_equal(out, m @ z)
            assert np.array_equal(sparse_matmul(m, z, np.empty((40, k))), m @ z)

    def test_dense_operator_and_aggregate_out(self):
        rng = np.random.default_rng(45)
        g = make_graph(6, [[0, 1], [1, 2], [4, 5]])
        adj = normalize_adjacency(g)
        z = rng.standard_normal((6, 2))
        out = np.empty((6, 2))
        assert aggregate(adj, z, out=out) is out
        assert np.array_equal(out, adj.matrix @ z)
        with pytest.raises(ValueError):  # a dense operator is not a sparse product
            sparse_matmul(adj.matrix.toarray(), z, np.empty((6, 2)))

    def test_rejects_operands_the_kernel_would_overrun(self):
        g = make_graph(4, [[0, 1]])
        m = normalize_adjacency(g).matrix
        with pytest.raises(ValueError):
            sparse_matmul(m, np.zeros((5, 2)), np.empty((4, 2)))
        with pytest.raises(ValueError):
            sparse_matmul(m, np.zeros(4), np.empty((4, 1)))
        with pytest.raises(ValueError):
            sparse_matmul(m, np.zeros((4, 2)), np.empty((4, 3)))
        with pytest.raises(ValueError):
            sparse_matmul(m, np.zeros((4, 2)), np.empty((4, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            sparse_matmul(m, np.zeros((4, 2)), np.empty((2, 4)).T)


@pytest.fixture
def scipy_route(monkeypatch):
    monkeypatch.setattr(bl, "_native", lambda: None)


@pytest.mark.usefixtures("scipy_route")
class TestSparseMatmulOnScipyRoute(TestSparseMatmul):
    pass


class _CallLog:
    """The C library, recording the name of each kernel called."""

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        kernel = getattr(self.lib, name)

        def call(*args):
            self.calls.append(name)
            return kernel(*args)
        return call


@pytest.fixture
def native_calls(monkeypatch):
    lib = bl._native()
    if lib is None:
        pytest.skip("the C kernel did not build on this host")
    log = _CallLog(lib)
    monkeypatch.setattr(bl, "_native", lambda: log)
    return log.calls


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestNativeSparseMatmul:
    """The C product is scipy's bit for bit, for CSR operators and their CSC
    transposes, at every thread count."""

    @staticmethod
    def operators(n=300, isolated=50, edges_per_node=1, seed=46):
        rng = np.random.default_rng(seed)
        # The last `isolated` nodes have no edges: empty neighbor-mean rows.
        g = make_graph(n, rng.integers(0, n - isolated, size=(n * edges_per_node, 2)))
        adj = normalize_adjacency(g)
        mask = np.zeros(n, dtype=bool)
        mask[[3, 70, 200]] = True
        plan = row_plan(adj, mask, 2)
        assert plan is not None
        for m in (adj.matrix, neighbor_mean_matrix(g), plan.ops[0].matrix,
                  plan.ops[1].matrix):
            yield m
            yield m.T

    @staticmethod
    def operand(rows, k, seed=47):
        z = np.random.default_rng(seed).standard_normal((rows, k))
        z[::3, 0] = -0.0
        z[rows // 2, k // 2] = np.nan
        return z

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_equals_scipy_at_every_thread_count(self, native_calls, monkeypatch, k):
        monkeypatch.setattr(bl, "_MIN_THREADED_WORK", 0)
        for m in self.operators():
            assert m.format in ("csr", "csc") and m.indices.dtype == np.int32
            z = self.operand(m.shape[1], k)
            expected = _bits(m @ z)
            for t in (1, 2, 3, 4):
                monkeypatch.setattr(bl, "_threads", lambda t=t: t)
                out = np.full((m.shape[0], k), np.nan)
                assert np.array_equal(_bits(sparse_matmul(m, z, out)), expected)
                fresh = np.empty((m.shape[0], k))
                assert np.array_equal(_bits(sparse_matmul(m, z, fresh)), expected)
        assert native_calls and set(native_calls) == {"sparse_matmul"}

    def test_a_csc_range_reads_its_rows_alone_or_scans(self, native_calls, monkeypatch):
        # With sorted row ids a thread binary-searches each column for its
        # rows; without, it scans the column. Either way every output row is
        # the one-thread row, and scipy's, bit for bit.
        monkeypatch.setattr(bl, "_MIN_THREADED_WORK", 0)
        for m in self.operators():
            if m.format != "csc":
                continue
            unsorted = m.copy()  # each column's entries reversed: the same terms
            for j in range(m.shape[1]):
                col = slice(m.indptr[j], m.indptr[j + 1])
                unsorted.indices[col] = m.indices[col][::-1]
                unsorted.data[col] = m.data[col][::-1]
            unsorted.has_sorted_indices = False
            assert m.has_sorted_indices
            for op in (m, unsorted):
                z = self.operand(op.shape[1], 8)
                expected = _bits(op @ z)
                for t in (1, 2, 3, 4):
                    monkeypatch.setattr(bl, "_threads", lambda t=t: t)
                    out = np.full((op.shape[0], 8), np.nan)
                    assert np.array_equal(_bits(sparse_matmul(op, z, out)), expected), t

    def test_above_the_threshold(self, native_calls, monkeypatch):
        for m in self.operators(n=3000, isolated=100, edges_per_node=3):
            z = self.operand(m.shape[1], 80)
            if m.shape[0] == 3000:
                assert m.nnz * 80 >= bl._MIN_THREADED_WORK
            expected = _bits(m @ z)
            for t in (1, 2, 4):
                monkeypatch.setattr(bl, "_threads", lambda t=t: t)
                assert np.array_equal(_bits(sparse_matmul(m, z, np.empty((m.shape[0], 80)))),
                                      expected)
        assert native_calls

    def test_int64_indices_take_the_scipy_route(self, native_calls):
        m = normalize_adjacency(make_graph(40, [[0, 1], [1, 2], [5, 9]])).matrix
        z = self.operand(40, 4)
        for op in (m.copy(), m.T.copy()):
            op.indices, op.indptr = op.indices.astype(np.int64), op.indptr.astype(np.int64)
            assert np.array_equal(_bits(sparse_matmul(op, z, np.empty((40, 4)))),
                                  _bits(op @ z))
        assert native_calls == []
        sparse_matmul(m, z, np.empty((40, 4)))
        assert native_calls == ["sparse_matmul"]


class TestNeighborMean:
    def test_isolated_rows_are_zero(self):
        g = make_graph(3, [[0, 1]])
        p = neighbor_mean_matrix(g).toarray()
        assert np.allclose(p[2], 0.0)
        assert p[0, 1] == 1.0 and p[1, 0] == 1.0
        assert p[0, 0] == 0.0  # no self-loops

    def test_rows_average_neighbors(self):
        g = make_graph(4, [[0, 1], [0, 2], [0, 3]])
        p = neighbor_mean_matrix(g).toarray()
        assert np.allclose(p[0], [0, 1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(p[1], [1, 0, 0, 0])
