"""Packing, binarization, and the binarized matmul kernel.

The kernel and binarization classes run the production route (the C
library wherever it builds); their `...OnNumpyRoute` subclasses run the
same tests on the numpy route, the fallback and oracle. The kernel's
word-level oracle, `xnor_popcount_dot`, lives here with its own tests.
"""

import os
import shutil
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bingcn import bitlinalg as bl
from bingcn.layers import BN_EPS, BatchNormState, batch_norm_forward

from reference_impl import best_binarization_by_search, unpack_signs


def packed_row(v):
    """A vector packed as `binarize_rows` stores a feature row: one bucket."""
    return bl.binarize_rows(np.asarray(v, dtype=np.float64)[None, :])


def dense(m):
    """The scalar-rescaled sign matrix a PackedBinMatrix stands for, one
    bucket per row: a weight's comes out transposed."""
    return m.scalars[:, None] * unpack_signs(m)


def xnor_popcount_dot(a, b, length):
    """+-1 inner product of two packed sign vectors of `length` bits.

    The word-level oracle of `bin_gemm`: 2 * matches - length, the
    matches counted word by word as the set bits of XNOR (Python's
    int.bit_count), with the padding bits past `length` masked off.
    """
    n_words = -(-length // bl.WORD_BITS)
    if len(a) != n_words or len(b) != n_words:
        raise ValueError(f"{len(a)} and {len(b)} words; {length} bits take {n_words}")
    matches = 0
    for k, (x, y) in enumerate(zip(a, b)):
        valid = min(bl.WORD_BITS, length - k * bl.WORD_BITS)
        matches += (~(int(x) ^ int(y)) & ((1 << valid) - 1)).bit_count()
    return 2 * matches - length


class TestPackUnpack:
    """The storage format: a bucket's `.words`, decoded by `unpack_signs`."""

    def test_roundtrip_small(self):
        v = np.array([1.0, -1.0])
        f = packed_row(v)
        assert f.cols == 2
        assert np.array_equal(unpack_signs(f)[0], v)

    def test_word_count_and_padding_at_65(self):
        v = np.ones(65)
        v[10] = -1
        f = packed_row(v)
        assert f.words.shape == (1, 2)
        assert np.array_equal(unpack_signs(f)[0], v)
        # padding must not leak into the dot product
        assert xnor_popcount_dot(f.words[0], f.words[0], 65) == 65

    def test_all_minus_one_word(self):
        assert packed_row(-np.ones(64)).words[0, 0] == 0

    def test_padding_is_canonical_ones(self):
        # bits 3..63 must read as 1, in a row bucket and in a column bucket
        for packed in (packed_row(-np.ones(3)), bl.binarize_columns(-np.ones((3, 1)))):
            assert packed.words[0, 0] == np.uint64(0xFFFFFFFFFFFFFFFF) ^ np.uint64(0b111)

    def test_equality_is_wordwise(self):
        a, b, c = (packed_row(v).words for v in ([1, -1, 1], [1, -1, 1], [1, -1, -1]))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_non_finite_entries(self):
        for bad in ([1.0, np.nan, -1.0], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="non-finite"):
                packed_row(bad)
            with pytest.raises(ValueError, match="non-finite"):
                bl.binarize_columns(np.array(bad)[:, None])

    def test_roundtrip_random_lengths(self):
        rng = np.random.default_rng(7)
        for t in [1, 2, 63, 64, 65, 127, 128, 129, 1000]:
            v = np.where(rng.random(t) < 0.5, 1.0, -1.0)
            assert np.array_equal(unpack_signs(packed_row(v))[0], v)
            assert np.array_equal(unpack_signs(bl.binarize_columns(v[:, None]))[0], v)


class TestBinarizeVector:
    """One bucket: a 1 x t row through `binarize_rows` and a t x 1 column
    through `binarize_columns`."""

    @staticmethod
    def binarize(v):
        """(scalar, signs) of `v` as a row bucket, then as a column bucket."""
        v = np.asarray(v, dtype=np.float64)
        row, col = bl.binarize_rows(v[None, :]), bl.binarize_columns(v[:, None])
        return [(row.scalars[0], unpack_signs(row)[0]), (col.scalars[0], unpack_signs(col)[0])]

    def test_hand_example(self):
        for scalar, signs in self.binarize([0.5, -1.5, 1.0]):
            assert scalar == pytest.approx(1.0)
            assert np.array_equal(signs, [1.0, -1.0, 1.0])

    def test_zero_vector(self):
        for scalar, signs in self.binarize([0.0, 0.0, 0.0]):
            assert scalar == 0.0
            assert np.array_equal(signs, [1.0, 1.0, 1.0])

    def test_constant_positive(self):
        for scalar, signs in self.binarize(np.full(9, 2.5)):
            assert scalar == pytest.approx(2.5)
            assert np.array_equal(signs, np.ones(9))

    def test_rejects_empty_and_nonfinite(self):
        for bad in ([], [1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(ValueError):
                self.binarize(bad)
            with pytest.raises(ValueError):
                bl.binarize_columns(np.array(bad)[:, None])

    def test_optimal_among_all_sign_patterns(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = int(rng.integers(1, 9))
            v = rng.standard_normal(t) * rng.uniform(0.1, 5.0)
            for scalar, signs in self.binarize(v):
                err = float(((v - scalar * signs) ** 2).sum())
                assert err <= best_binarization_by_search(v) + 1e-12


class TestBinarizeMatrices:
    def test_columns_hand_example(self):
        w = np.array([[0.5, -0.5], [0.5, 0.5]])
        b = bl.binarize_columns(w)
        assert np.allclose(b.scalars, [0.5, 0.5])
        assert np.array_equal(unpack_signs(b), [[1.0, 1.0], [-1.0, 1.0]])  # sign(w).T

    def test_columns_identity(self):
        b = bl.binarize_columns(np.eye(2))
        assert np.allclose(b.scalars, [0.5, 0.5])
        # sign(0) = +1 forces all-plus signs
        assert np.array_equal(unpack_signs(b), np.ones((2, 2)))

    def test_columns_zero_matrix(self):
        b = bl.binarize_columns(np.zeros((3, 4)))
        assert np.array_equal(b.scalars, np.zeros(4))

    def test_rows_hand_example(self):
        f = bl.binarize_rows(np.array([[1.0, -1.0]]))
        assert f.shape == (1, 2)
        assert np.allclose(f.scalars, [1.0])
        assert np.array_equal(unpack_signs(f), [[1.0, -1.0]])

    def test_rows_one_hot(self):
        f = bl.binarize_rows(np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert f.scalars[0] == pytest.approx(0.25)
        assert np.array_equal(unpack_signs(f), np.ones((1, 4)))

    def test_rows_zero_row(self):
        f = bl.binarize_rows(np.zeros((1, 5)))
        assert f.scalars[0] == 0.0

    def test_scalar_nonnegative_and_zero_iff_zero_bucket(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((10, 6))
        h[4] = 0.0
        f = bl.binarize_rows(h)
        assert (f.scalars >= 0).all()
        assert f.scalars[4] == 0.0
        assert (f.scalars[np.arange(10) != 4] > 0).all()

    def test_reconstruct_matches_scaled_signs(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((7, 3))
        b = bl.binarize_columns(w)
        expected = np.sign(w + (w == 0)) * np.abs(w).mean(axis=0)[None, :]
        assert np.allclose(dense(b).T, expected)

    def test_bucket_accessor(self):
        # bucket j, column j of w, is row j of the words
        w = np.array([[0.5, -0.5], [0.5, 0.5]])
        b = bl.binarize_columns(w)
        assert b.shape == (2, 2)
        assert np.array_equal(b.words[1], bl.binarize_columns(w[:, 1:]).words[0])
        assert np.array_equal(unpack_signs(b)[1], [-1.0, 1.0])


def _signs_dot(sa, sb):
    return xnor_popcount_dot(packed_row(sa).words[0], packed_row(sb).words[0], len(sa))


class TestXnorPopcountDot:
    """The word-level oracle itself, on words that `binarize_rows` packed."""

    def test_hand_example(self):
        assert _signs_dot([1, -1, 1, 1], [1, 1, -1, 1]) == 0

    def test_identity_and_negation(self):
        a = [1, -1, 1, 1]
        assert _signs_dot(a, a) == 4
        assert _signs_dot(a, [-1, 1, -1, -1]) == -4

    def test_length_mismatch(self):
        two, wide = packed_row(np.ones(2)).words[0], packed_row(np.ones(65)).words[0]
        for length in (2, 65):
            with pytest.raises(ValueError):
                xnor_popcount_dot(two, wide, length)

    def test_matches_float_dot_and_parity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            t = int(rng.integers(1, 200))
            sa = np.where(rng.random(t) < 0.5, 1.0, -1.0)
            sb = np.where(rng.random(t) < 0.5, 1.0, -1.0)
            dot = _signs_dot(sa, sb)
            assert dot == int(sa @ sb)
            assert -t <= dot <= t
            assert (dot - t) % 2 == 0

    def test_padding_never_changes_result(self):
        rng = np.random.default_rng(17)
        for t in [1, 63, 64, 65, 100]:
            sa = np.where(rng.random(t) < 0.5, 1.0, -1.0)
            sb = np.where(rng.random(t) < 0.5, 1.0, -1.0)
            base = _signs_dot(sa, sb)
            for extra in [1, 7, 64]:
                wider_a = np.concatenate([sa, np.ones(extra)])
                wider_b = np.concatenate([sb, -np.ones(extra)])
                widened = _signs_dot(wider_a, wider_b)
                assert widened == base - extra  # appended bits all disagree


class TestBinGemm:
    def test_hand_example(self):
        f = bl.binarize_rows(np.array([[2.0, -2.0]]))
        b = bl.binarize_columns(np.array([[0.5], [-0.5]]))
        z = bl.bin_gemm(f, b)
        assert z.shape == (1, 1)
        assert z[0, 0] == pytest.approx(2.0)

    def test_zero_row_scalars_give_zero_matrix(self):
        f = bl.binarize_rows(np.zeros((3, 8)))
        b = bl.binarize_columns(np.random.default_rng(0).standard_normal((8, 2)))
        assert np.array_equal(bl.bin_gemm(f, b), np.zeros((3, 2)))

    def test_matches_reconstructed_float_product(self):
        rng = np.random.default_rng(23)
        h = rng.standard_normal((8, 16))
        w = rng.standard_normal((16, 4))
        f, b = bl.binarize_rows(h), bl.binarize_columns(w)
        ref = dense(f) @ dense(b).T
        assert np.allclose(bl.bin_gemm(f, b), ref, atol=1e-9)

    def test_dimension_mismatch(self):
        f = bl.binarize_rows(np.ones((2, 3)))
        b = bl.binarize_columns(np.ones((4, 2)))
        with pytest.raises(ValueError):
            bl.bin_gemm(f, b)

    def test_kernel_equivalence_random_shapes(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n, d, m = (int(x) for x in rng.integers(1, 65, size=3))
            h = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
            w = rng.standard_normal((d, m))
            f, b = bl.binarize_rows(h), bl.binarize_columns(w)
            ref = dense(f) @ dense(b).T
            assert np.abs(bl.bin_gemm(f, b) - ref).max() < 1e-6

    def test_spans_word_boundaries(self):
        rng = np.random.default_rng(31)
        for d in [63, 64, 65, 128, 130]:
            h = rng.standard_normal((4, d))
            w = rng.standard_normal((d, 3))
            f, b = bl.binarize_rows(h), bl.binarize_columns(w)
            ref = dense(f) @ dense(b).T
            assert np.allclose(bl.bin_gemm(f, b), ref, atol=1e-9)

    def test_concurrent_invocations_agree(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(37)
        f = bl.binarize_rows(rng.standard_normal((64, 200)))
        b = bl.binarize_columns(rng.standard_normal((200, 16)))
        expected = bl.bin_gemm(f, b)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: bl.bin_gemm(f, b), range(32)))
        for r in results:
            assert np.array_equal(r, expected)


def xnor_reference(f, b):
    """bin_gemm from the word-level oracle, in the kernel's order: dot, *beta, *alpha."""
    cols = b.words.tolist()
    out = np.empty((f.rows, b.rows))
    for i, row in enumerate(f.words.tolist()):
        for j, col in enumerate(cols):
            out[i, j] = float(xnor_popcount_dot(row, col, f.cols)) * f.scalars[i] * b.scalars[j]
    return out


class TestBinGemmExactness:
    BLOCK = bl._BLOCK_ROWS

    @pytest.mark.parametrize("d", [1, 63, 64, 65, 1433])
    def test_equals_xnor_oracle_across_block_seams(self, d):
        rng = np.random.default_rng(d)
        for n in (self.BLOCK - 1, self.BLOCK, self.BLOCK + 1, 2 * self.BLOCK + 1):
            h = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
            w = rng.standard_normal((d, 3))
            f, b = bl.binarize_rows(h), bl.binarize_columns(w)
            assert np.array_equal(bl.bin_gemm(f, b), xnor_reference(f, b))

    def test_equals_xnor_oracle_random_shapes(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n, d, m = (int(x) for x in rng.integers(1, 100, size=3))
            h = rng.standard_normal((n, d))
            h[rng.random((n, d)) < 0.1] = 0.0
            f = bl.binarize_rows(h)
            b = bl.binarize_columns(rng.standard_normal((d, m)))
            assert np.array_equal(bl.bin_gemm(f, b), xnor_reference(f, b))

    def test_rejects_inner_dimension_beyond_exact_float32(self):
        t = 2 ** 24
        n_words = t // bl.WORD_BITS
        f = bl.PackedBinMatrix(rows=1, cols=t, words=np.zeros((1, n_words), dtype=np.uint64),
                               scalars=np.ones(1))
        b = bl.PackedBinMatrix(rows=1, cols=t, words=np.zeros((1, n_words), dtype=np.uint64),
                               scalars=np.ones(1))
        with pytest.raises(ValueError, match="exact float32"):
            bl.bin_gemm(f, b)


class TestRowBlockedInputOps:
    """The one-time input work: exact column moments, fused standardization
    and binarization, and the transposed sign product, across block seams."""

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1300])
    def test_column_moments_match_numpy(self, n):
        h = np.random.default_rng(n).standard_normal((n, 37)) * 3.0 + 1.5
        mean, var = bl.column_moments(h)
        assert np.allclose(mean, h.mean(axis=0), rtol=1e-12, atol=0)
        assert np.allclose(var, h.var(axis=0), rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1300])
    def test_fused_standardization_equals_batch_norm_then_binarize(self, n):
        rng = np.random.default_rng(n + 1)
        h = rng.standard_normal((n, 70)) * 2.0 - 0.5
        state = BatchNormState(running_mean=rng.standard_normal(70),
                               running_var=rng.uniform(0.5, 2.0, size=70))
        standardized, _ = batch_norm_forward(h, False, state)
        inv_std = 1.0 / np.sqrt(state.running_var + BN_EPS)
        fused = bl.binarize_rows(h, (state.running_mean, inv_std))
        plain = bl.binarize_rows(standardized)
        assert np.array_equal(fused.words, plain.words)
        assert np.array_equal(fused.scalars, plain.scalars)

    def test_fused_standardization_rejects_non_finite_result(self):
        h = np.array([[1e308, 0.0], [-1e308, 0.0]])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            bl.binarize_rows(h, (np.zeros(2), np.full(2, 10.0)))

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1300])
    def test_sign_t_matmul_matches_dense(self, n):
        rng = np.random.default_rng(n + 2)
        f = bl.binarize_rows(rng.standard_normal((n, 65)))
        g = rng.standard_normal((n, 6))
        i = np.arange(n)
        # Which rows of g stay nonzero: all, every other, a run across the
        # first block seam, one.
        for keep in (i >= 0, i % 2 == 0, (i >= 510) & (i <= 514), i == n // 2):
            g_rows = np.where(keep[:, None], g, 0.0)
            assert np.allclose(bl.sign_t_matmul(f, g_rows), unpack_signs(f).T @ g_rows,
                               rtol=1e-12, atol=1e-12)

    def test_sign_t_matmul_of_zero_gradient_is_zero(self):
        f = bl.binarize_rows(np.random.default_rng(5).standard_normal((700, 65)))
        out = bl.sign_t_matmul(f, np.zeros((700, 6)))
        assert out.shape == (65, 6) and np.array_equal(out, np.zeros((65, 6)))

    def test_sign_t_matmul_without_zero_rows_sums_in_row_block_order(self):
        rng = np.random.default_rng(7)
        n, d = 1300, 65
        f = bl.binarize_rows(rng.standard_normal((n, d)))
        g = rng.standard_normal((n, 6))
        signs, want = unpack_signs(f), np.zeros((d, 6))
        for start in range(0, n, 512):
            want += signs[start:start + 512].T @ g[start:start + 512]
        assert np.array_equal(bl.sign_t_matmul(f, g), want)

    def test_sign_t_matmul_checks_operands(self):
        f = bl.binarize_rows(np.ones((4, 3)))
        with pytest.raises(ValueError):
            bl.sign_t_matmul(f, np.ones((5, 2)))


def _peak_above_result(fn, *args):
    """Peak traced bytes while fn runs, minus the arrays it returns."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if isinstance(result, bl.PackedBinMatrix):
        arrays = (result.words, result.scalars)
    else:
        arrays = result if isinstance(result, tuple) else (result,)
    return peak - sum(a.nbytes for a in arrays)


class TestBlockedMemory:
    """Temporaries are per row block, so the peak does not grow with N."""

    D, M = 1024, 64

    def test_binarize_rows_peak_independent_of_rows(self):
        rng = np.random.default_rng(43)
        peaks = [_peak_above_result(bl.binarize_rows, rng.standard_normal((n, self.D)))
                 for n in (1024, 8192)]
        assert peaks[1] <= 1.05 * peaks[0] + 65536

    def test_bin_gemm_peak_independent_of_rows(self):
        b = bl.binarize_columns(np.random.default_rng(47).standard_normal((self.D, self.M)))
        peaks = []
        for n in (1024, 8192):
            words = np.zeros((n, self.D // bl.WORD_BITS), dtype=np.uint64)
            f = bl.PackedBinMatrix(rows=n, cols=self.D, words=words, scalars=np.ones(n))
            peaks.append(_peak_above_result(bl.bin_gemm, f, b))
        assert peaks[1] <= 1.05 * peaks[0] + 65536

    def test_standardized_binarize_rows_peak_independent_of_rows(self):
        rng = np.random.default_rng(53)
        stats = (rng.standard_normal(self.D), rng.uniform(0.5, 2.0, size=self.D))
        peaks = [_peak_above_result(bl.binarize_rows, rng.standard_normal((n, self.D)), stats)
                 for n in (1024, 8192)]
        assert peaks[1] <= 1.05 * peaks[0] + 65536

    def test_column_moments_peak_independent_of_rows(self):
        rng = np.random.default_rng(59)
        peaks = [_peak_above_result(bl.column_moments, rng.standard_normal((n, self.D)))
                 for n in (1024, 8192)]
        assert peaks[1] <= 1.05 * peaks[0] + 65536

    def test_sign_t_matmul_peak_independent_of_rows(self):
        rng = np.random.default_rng(61)
        for sparse in (False, True):  # every other row of g zero
            peaks = []
            for n in (1024, 8192):
                words = np.zeros((n, self.D // bl.WORD_BITS), dtype=np.uint64)
                f = bl.PackedBinMatrix(rows=n, cols=self.D, words=words, scalars=np.ones(n))
                g = rng.standard_normal((n, self.M))
                if sparse:
                    g[1::2] = 0.0
                peaks.append(_peak_above_result(bl.sign_t_matmul, f, g))
            assert peaks[1] <= 1.05 * peaks[0] + 65536


@pytest.fixture
def numpy_route(monkeypatch):
    monkeypatch.setattr(bl, "_native", lambda: None)


@pytest.fixture
def native_lib():
    lib = bl._native()
    if lib is None:
        pytest.skip("the C kernel did not build on this host")
    return lib


@pytest.mark.usefixtures("numpy_route")
class TestPackUnpackOnNumpyRoute(TestPackUnpack):
    pass


@pytest.mark.usefixtures("numpy_route")
class TestBinarizeVectorOnNumpyRoute(TestBinarizeVector):
    pass


@pytest.mark.usefixtures("numpy_route")
class TestBinarizeMatricesOnNumpyRoute(TestBinarizeMatrices):
    pass


@pytest.mark.usefixtures("numpy_route")
class TestBinGemmOnNumpyRoute(TestBinGemm):
    pass


@pytest.mark.usefixtures("numpy_route")
class TestBinGemmExactnessOnNumpyRoute(TestBinGemmExactness):
    pass


@pytest.mark.usefixtures("numpy_route")
class TestRowBlockedInputOpsOnNumpyRoute(TestRowBlockedInputOps):
    pass


@pytest.mark.usefixtures("numpy_route")
class TestBlockedMemoryOnNumpyRoute(TestBlockedMemory):
    pass


def _on_numpy_route(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(bl, "_native", lambda: None)
        return fn(*args)


class TestNativeKernel:
    """The C route against numpy's own arithmetic, bit for bit."""

    WIDTHS = [*range(1, 301), 500, 1433]

    def test_in_use_where_a_compiler_is(self):
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        assert bl._native() is not None

    @pytest.mark.parametrize("standardized", [False, True], ids=["plain", "standardized"])
    def test_row_scalars_are_numpys_mean_bit_for_bit(self, native_lib, standardized):
        rng = np.random.default_rng(67)
        for d in self.WIDTHS:
            h = rng.standard_normal((3, d)) * rng.uniform(0.01, 100.0)
            h[rng.random(h.shape) < 0.1] = 0.0
            stats = (rng.standard_normal(d), rng.uniform(0.1, 3.0, size=d))
            z = (h - stats[0]) * stats[1] if standardized else h
            f = bl.binarize_rows(h, stats if standardized else None)
            assert np.array_equal(f.scalars, np.abs(z).mean(axis=1)), d
            assert np.array_equal(f.words, bl._pack_bits_2d(z >= 0)), d

    def test_routes_agree_at_every_width(self, native_lib, monkeypatch):
        rng = np.random.default_rng(71)
        for d in self.WIDTHS:
            h = rng.standard_normal((5, d))
            b = bl.binarize_columns(rng.standard_normal((d, 1 + d % 70)))
            native = bl.binarize_rows(h)
            fallback = _on_numpy_route(monkeypatch, bl.binarize_rows, h)
            assert np.array_equal(native.words, fallback.words), d
            assert np.array_equal(native.scalars, fallback.scalars), d
            assert np.array_equal(bl.bin_gemm(native, b),
                                  _on_numpy_route(monkeypatch, bl.bin_gemm, native, b)), d

    @pytest.mark.parametrize("n", [1, 8, 9, 100, 511, 512, 513, 1300])
    def test_column_moments_equal_the_numpy_route(self, n, monkeypatch):
        # Across block seams, and at d == 1, where numpy sums a column
        # pairwise. With no compiler both sides run the numpy route.
        rng = np.random.default_rng(n)
        for d in (1, 2, 7, 64, 65):
            h = rng.standard_normal((n, d)) * rng.uniform(0.01, 100.0, size=d)
            h += rng.standard_normal(d)
            h[rng.random(h.shape) < 0.1] = 0.0
            mean, var = bl.column_moments(h)
            expected = _on_numpy_route(monkeypatch, bl.column_moments, h)
            assert np.array_equal(mean, expected[0]), d
            assert np.array_equal(var, expected[1]), d

    @pytest.mark.parametrize("route", ["production", "numpy"])
    def test_padding_bits_never_change_the_product(self, route, monkeypatch):
        if route == "numpy":
            monkeypatch.setattr(bl, "_native", lambda: None)
        rng = np.random.default_rng(73)
        for d in (1, 63, 65, 130, 1433):
            f = bl.binarize_rows(rng.standard_normal((9, d)))
            b = bl.binarize_columns(rng.standard_normal((d, 5)))
            expected = bl.bin_gemm(f, b)
            for fill in (0, 0x5555555555555555):
                dirty = []  # padding that disagrees between the operands
                for m, pad in ((f, np.uint64(fill)), (b, ~np.uint64(fill))):
                    words = m.words.copy()
                    words[:, -1] = (words[:, -1] & bl._pad_mask(d)) | (pad & ~bl._pad_mask(d))
                    dirty.append(bl.PackedBinMatrix(m.rows, m.cols, words, m.scalars))
                assert np.array_equal(bl.bin_gemm(*dirty), expected), (d, fill)

    def test_falls_back_when_compiling_fails(self, native_lib, tmp_path, monkeypatch):
        rng = np.random.default_rng(79)
        h = rng.standard_normal((600, 200))
        b = bl.binarize_columns(rng.standard_normal((200, 7)))
        native_f = bl.binarize_rows(h)
        native_out = bl.bin_gemm(native_f, b)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(bl, "_COMPILE", ("/nonexistent/cc", *bl._COMPILE[1:]))
        with pytest.warns(RuntimeWarning, match="numpy route"):
            lib = bl._load_native()
        assert lib is None
        monkeypatch.setattr(bl, "_native", lambda: lib)
        f = bl.binarize_rows(h)
        assert np.array_equal(f.words, native_f.words)
        assert np.array_equal(f.scalars, native_f.scalars)
        assert np.array_equal(bl.bin_gemm(f, b), native_out)
        assert list((tmp_path / "bingcn").iterdir()) == []  # no partial build left

    def test_builds_once_per_source_and_cpu(self, native_lib, tmp_path, monkeypatch):
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert bl._load_native() is not None
        built = sorted((tmp_path / "bingcn").iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"
        # A cached build loads with no compiler on PATH.
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bl._load_native() is not None
        # Another CPU gets its own build.
        monkeypatch.setattr(bl, "_cpu_id", lambda: "another CPU")
        with pytest.warns(RuntimeWarning):
            assert bl._load_native() is None


def _at_threads(monkeypatch, threads, fn, *args):
    """fn(*args) with the kernels' thread count forced to `threads`."""
    with monkeypatch.context() as m:
        m.setattr(bl, "_threads", lambda: threads)
        return fn(*args)


def _packed_equal(a, b):
    return np.array_equal(a.words, b.words) and np.array_equal(a.scalars, b.scalars)


class TestThreadCount:
    """A call split over threads gives the one-thread result bit for bit: on
    shapes whose work crosses the threshold, on shapes below it, and with
    the threshold at 0, where a call can have fewer rows than threads."""

    THREADS = (2, 3, 4)

    @pytest.fixture(params=["threshold", "every call"])
    def min_work(self, request, monkeypatch):
        if request.param == "every call":
            monkeypatch.setattr(bl, "_MIN_THREADED_WORK", 0)
        return bl._MIN_THREADED_WORK

    def test_threads_are_the_usable_cpus_at_most_eight(self):
        assert 1 <= bl._threads() <= min(8, len(os.sched_getaffinity(0)))
        assert bl._threads_for(bl._MIN_THREADED_WORK - 1) == 1
        assert bl._threads_for(bl._MIN_THREADED_WORK) == bl._threads()

    @pytest.mark.parametrize("n, d", [(1, 70), (3, 1433), (100, 130), (2000, 1433)])
    def test_bin_gemm(self, monkeypatch, min_work, n, d):
        rng = np.random.default_rng(n)
        f = bl.binarize_rows(rng.standard_normal((n, d)))
        b = bl.binarize_columns(rng.standard_normal((d, 64)))
        crosses = n * f.words.shape[1] * 64 >= min_work
        assert crosses == (n == 2000 or min_work == 0)
        one = _at_threads(monkeypatch, 1, bl.bin_gemm, f, b)
        assert np.array_equal(one, _on_numpy_route(monkeypatch, bl.bin_gemm, f, b))
        for t in self.THREADS:
            assert np.array_equal(_at_threads(monkeypatch, t, bl.bin_gemm, f, b), one), t

    @pytest.mark.parametrize("standardized", [False, True], ids=["plain", "standardized"])
    @pytest.mark.parametrize("n, d", [(2, 70), (3, 65), (700, 70), (2100, 500)])
    def test_binarize_rows(self, monkeypatch, min_work, standardized, n, d):
        rng = np.random.default_rng(n + d)
        h = rng.standard_normal((n, d))
        stats = (rng.standard_normal(d), rng.uniform(0.1, 3.0, size=d)) if standardized else None
        assert (n * d >= min_work) == (n == 2100 or min_work == 0)
        one = _at_threads(monkeypatch, 1, bl.binarize_rows, h, stats)
        assert _packed_equal(one, _on_numpy_route(monkeypatch, bl.binarize_rows, h, stats))
        for t in self.THREADS:
            assert _packed_equal(_at_threads(monkeypatch, t, bl.binarize_rows, h, stats),
                                 one), t

    @pytest.mark.parametrize("n, d", [(3, 70), (2100, 500)])
    def test_non_finite_value_in_the_last_chunk_raises(self, monkeypatch, min_work, n, d):
        plain = np.random.default_rng(3).standard_normal((n, d))
        plain[-1, d // 2] = np.nan
        # finite, but its standardized value overflows to inf
        overflowing = np.random.default_rng(3).standard_normal((n, d))
        overflowing[-1, d // 2] = 1e300
        stats = (np.zeros(d), np.full(d, 1e10))
        for h, standardize in ((plain, None), (overflowing, stats)):
            for t in (1, *self.THREADS):
                with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
                    _at_threads(monkeypatch, t, bl.binarize_rows, h, standardize)

    @pytest.mark.parametrize("standardized", [False, True], ids=["plain", "standardized"])
    @pytest.mark.parametrize("layout", ["float32", "strided"])
    def test_binarize_rows_converting_blocks(self, monkeypatch, layout, standardized):
        # neither float64 nor C-contiguous: the C route converts it block by block
        monkeypatch.setattr(bl, "_MIN_THREADED_WORK", 0)
        rng = np.random.default_rng(89)
        n, d = 2 * bl._BLOCK_ROWS + 3, 70
        wide = rng.standard_normal((n, 2 * d))
        h = wide[:, :d].astype(np.float32) if layout == "float32" else wide[:, ::2]
        stats = (rng.standard_normal(d), rng.uniform(0.1, 3.0, size=d)) if standardized else None
        expected = _on_numpy_route(monkeypatch, bl.binarize_rows, h, stats)
        for t in (1, *self.THREADS):
            assert _packed_equal(_at_threads(monkeypatch, t, bl.binarize_rows, h, stats),
                                 expected), t

    @pytest.mark.parametrize("n, d", [(1, 1), (1300, 1), (1 << 20, 1), (3, 7), (700, 70),
                                      (2100, 500)])
    def test_column_moments(self, monkeypatch, min_work, n, d):
        h = np.random.default_rng(n + d).standard_normal((n, d)) * 3.0 + 1.5
        one = _at_threads(monkeypatch, 1, bl.column_moments, h)
        expected = _on_numpy_route(monkeypatch, bl.column_moments, h)
        assert np.array_equal(one[0], expected[0]) and np.array_equal(one[1], expected[1])
        for t in self.THREADS:
            mean, var = _at_threads(monkeypatch, t, bl.column_moments, h)
            assert np.array_equal(mean, one[0]) and np.array_equal(var, one[1]), t

    @pytest.mark.parametrize("n, d", [(3, 65), (1300, 70), (1300, 2100)])
    def test_sign_t_matmul(self, monkeypatch, min_work, n, d):
        rng = np.random.default_rng(n + d)
        f = bl.binarize_rows(rng.standard_normal((n, d)))
        g = rng.standard_normal((n, 6))
        assert (n * d * 6 >= min_work) == (d == 2100 or min_work == 0)
        one = _at_threads(monkeypatch, 1, bl.sign_t_matmul, f, g)
        assert np.array_equal(one, _on_numpy_route(monkeypatch, bl.sign_t_matmul, f, g))
        for t in self.THREADS:
            assert np.array_equal(_at_threads(monkeypatch, t, bl.sign_t_matmul, f, g), one), t

    @pytest.mark.parametrize("n, d, m, split", [
        (19716, 500, 128, 4),  # bisage's layer-0 gradient on pubmed-sbm
        (2709, 1433, 64, 4),  # bigcn's on cora-sbm
        (700, 70, 64, 1),  # dense-sbm: a 6-column slice would be BLAS's small kernel
        (1100, 2100, 6, 1),  # the full blocks' slices pass the bound, the last block's not
        (1024, 4500, 1, 1),  # a matrix-vector product: 2 slices would pass the bound
    ])
    def test_sign_t_matmul_word_ranges(self, monkeypatch, n, d, m, split):
        # BLAS rounds each thread's slice as it rounds those rows of the whole
        # product only above `_BLAS_EXACT_SLICE`: a BLAS that rounds slices
        # differently fails here, rather than making traces follow the CPU count.
        rng = np.random.default_rng(n + d + m)
        f = bl.binarize_rows(rng.standard_normal((n, d)))
        g = rng.standard_normal((n, m))
        ranges = _at_threads(monkeypatch, 4, bl._sign_t_ranges, f, m)
        assert len(ranges) == (split if bl._native() is not None else 1)
        assert len(_on_numpy_route(monkeypatch, bl._sign_t_ranges, f, m)) == 1
        assert ranges[0][0] == 0 and ranges[-1][1] == f.words.shape[1]
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        one = _at_threads(monkeypatch, 1, bl.sign_t_matmul, f, g)
        assert np.array_equal(one, _on_numpy_route(monkeypatch, bl.sign_t_matmul, f, g))
        for t in self.THREADS:
            assert np.array_equal(_at_threads(monkeypatch, t, bl.sign_t_matmul, f, g), one), t

    def test_no_thread_outlives_its_call(self, native_lib, monkeypatch):
        tasks = Path("/proc/self/task")
        if not tasks.is_dir():
            pytest.skip("no /proc/self/task on this host")
        rng = np.random.default_rng(83)
        f = bl.binarize_rows(rng.standard_normal((2000, 1433)))
        b = bl.binarize_columns(rng.standard_normal((1433, 64)))
        before = len(list(tasks.iterdir()))
        _at_threads(monkeypatch, 4, bl.bin_gemm, f, b)
        assert len(list(tasks.iterdir())) == before
        # sign_t_matmul's threads are Python threads: a joined one can stay in
        # /proc/self/task for a moment after join() returns, and a threaded
        # BLAS called from two threads may start workers of its own.
        g = rng.standard_normal((2000, 64))
        assert len(_at_threads(monkeypatch, 4, bl._sign_t_ranges, f, 64)) == 4
        python_threads = threading.enumerate()
        _at_threads(monkeypatch, 4, bl.sign_t_matmul, f, g)
        assert threading.enumerate() == python_threads
