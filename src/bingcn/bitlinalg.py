"""Bit-packed sign matrices and the binarized matmul kernel.

A `PackedBinMatrix` is a list of `rows` buckets of `cols` signs, each
bucket approximated by its sign pattern times one nonnegative scalar,
the mean absolute value, which is the least-squares optimal rank-1
binary factorization of the bucket. Features are bucketed per node row
(`binarize_rows`), weights per output column (`binarize_columns`, whose
buckets are W's columns), so the product XNOR/popcount computes,
`bin_gemm`, pairs every bucket of one list with every bucket of another
of the same length.

Each bucket is one row of `PackedBinMatrix.words`, packed LSB-first: bit
i lives in word i // 64 at bit position i % 64 (bit 1 encodes +1, bit 0
encodes -1). Padding bits past the bucket length are canonically set to
1, so two buckets of one length have the same signs iff their words are
equal.

Packed words are the storage format and what the kernel computes on.
`bin_gemm` counts each +-1 dot product of length t with XOR and popcount
over the uint64 words, K = t - 2 * mismatches, and stores K as an
integer of `count_dtype(t)` (int16 below 2**15, else int32), a quarter
of a float64 product's bytes. Its float64 product scales K by beta,
then by alpha (`scale_counts`), a row block of counts at a time; the
layers keep the counts instead (a `SignCounts`), and the aggregation
(`graph.aggregate`) scales each term in that order where it reads it,
so no float product is ever held. `binarize_rows` standardizes, checks,
packs and rescales each row in one pass, and `column_moments` (the
statistics of the input and of hidden batch norm) sums each row block
in numpy's order. All three, the expansion of packed signs to float64
+-1 that `sign_t_matmul` multiplies by BLAS, and `graph`'s aggregation
of float values or of counts run in a small C library, `_packed.c`,
compiled with the installed `cc` on first use into a per-user cache
(``$XDG_CACHE_HOME/bingcn``, else ``~/.cache/bingcn``)
keyed by the source, the compile command and the CPU, and called
through `ctypes`. Where it cannot be built or loaded, the numpy route
runs instead, with the same results bit for bit: row blocks of the signs
expanded to float32 +-1 and multiplied by BLAS, exact for t < 2**24
(every partial sum is an integer of magnitude at most t), and numpy
passes per row block. It is also the oracle of the kernel tests.

A C call of at least 2**20 inner-loop steps (`_MIN_THREADED_WORK`;
below it, spawning a thread cost more than it saved, measured on the
benchmark's shapes) is split over the CPUs the process may run on, at
most 8 (`_threads`, decided once per process; there is no option, and
the BLAS thread settings are not read). Each thread is spawned and
joined inside the call and owns a contiguous range of output rows (of
columns, in `column_moments`, where a single column stays on one
thread), computed in the one-thread order, so every result is the same
bit for bit at any thread count. `sign_t_matmul` splits its output rows
the same way, by whole words of the packed operand, over Python threads
whose block products run in BLAS; it splits only where every thread's
slice of a block product is large enough that BLAS rounds it as the
whole product (`_BLAS_EXACT_SLICE`). `layers`' float products (the
float gcn layer's, from 2**25 multiply-adds) split theirs by the same
rule (`_blas_ranges`) and the same fan-out (`_fan_out`).

`binarize_rows`, `column_moments` and `sign_t_matmul` (the transposed
sign product a weight gradient needs, in float64) work in row blocks, so
a fixed input can be held as packed words alone and is never expanded
whole. In semi-supervised training the loss reaches few rows: training
passes the packed rows of the input that a row plan reads
(`graph.row_plan`), so `sign_t_matmul` expands only those. `train`
takes the moments and the packed input once per graph and keeps them in
the graph's memo.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORD_BITS = 64

# Rows processed per block in bin_gemm and binarize_rows; bounds every
# temporary to (block, cols) so its size does not grow with the node count.
_BLOCK_ROWS = 512

# float32 holds every integer below 2**24 exactly, and no partial sum of a
# +-1 dot product of length t exceeds t in magnitude.
_MAX_EXACT_INNER = 2 ** 24

_SOURCE = Path(__file__).with_name("_packed.c")
# -ffp-contract=off: no fused multiply-add may change a standardized value
# or a term of a sparse product.
_COMPILE = ("cc", "-O3", "-march=native", "-ffp-contract=off", "-pthread", "-shared",
            "-fPIC")

# The most threads a native kernel call is split over; `_packed.c` repeats it.
_MAX_THREADS = 8
# Inner-loop steps (popcount words, multiply-adds, matrix entries) below
# which a native kernel call stays on the calling thread, where spawning
# and joining a thread would cost more than it saves.
_MIN_THREADED_WORK = 1 << 20
# Multiply-adds (M * N * K) above which BLAS computes each row of a product
# as it computes that row of any product the rows are a slice of. Below
# it, OpenBLAS (0.3.31, one BLAS thread) may take its small-matrix kernel,
# whose rows differed from the whole product's in slices of at most
# 917,504; every slice above 10**6 matched. `_blas_ranges` splits a
# product, `sign_t_matmul`'s or one of `layers`' float products, only
# where each thread's slice stays above it, and `layers._product`'s
# gathered blocks rest on the same fact. With several BLAS threads it
# does not hold: BLAS then rounds a row by where its threads split.
_BLAS_EXACT_SLICE = 10 ** 6


def _cpu_id() -> str:
    """What a -march=native build depends on: the CPU's model name and flags."""
    try:
        with open("/proc/cpuinfo") as fh:
            return "".join(sorted({line for line in fh
                                   if line.startswith(("model name", "flags"))}))
    except OSError:
        return f"{platform.machine()} {platform.processor()}"


def _load_native() -> ctypes.CDLL | None:
    """Compile `_packed.c` into the per-user cache unless it is there, and load it.

    The library's name is a hash of the source, the compile command and
    the CPU, so a build is never loaded on another CPU. It is written
    under a temporary name and renamed into place, so processes that
    build it at once do not read a partial file. Returns None, with a
    warning, where compiling or loading fails.
    """
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "bingcn"
    try:
        source = _SOURCE.read_bytes()
        key = hashlib.sha256(b"\0".join(
            [source, " ".join(_COMPILE).encode(), _cpu_id().encode()])).hexdigest()
        path = cache / f"_packed-{key[:16]}.so"
        if not path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
            os.close(fd)
            try:
                subprocess.run([*_COMPILE, "-o", tmp, str(_SOURCE)], check=True,
                               capture_output=True, timeout=300)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or b""
        warnings.warn(f"packed C kernel unavailable, using the numpy route: {exc} "
                      f"{detail.decode(errors='replace').strip()}", RuntimeWarning)
        return None
    ptr, i64, int_ = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int
    lib.bin_counts.argtypes = [ptr, ptr, i64, i64, i64, i64, ctypes.c_uint64, ptr, int_, int_]
    lib.bin_counts.restype = None
    lib.binarize_rows.argtypes = [ptr, ptr, ptr, i64, i64, ptr, ptr, int_]
    lib.binarize_rows.restype = ctypes.c_int
    lib.expand_signs.argtypes = [ptr, i64, i64, i64, ptr, int_]
    lib.expand_signs.restype = None
    lib.column_moments.argtypes = [ptr, i64, i64, i64, ptr, ptr, ptr, int_]
    lib.column_moments.restype = None
    lib.sparse_matmul.argtypes = [int_, i64, i64, i64, ptr, ptr, ptr, ptr, ptr, int_]
    lib.sparse_matmul.restype = None
    lib.aggregate_counts.argtypes = [ptr, ptr, ptr, i64, i64, i64, i64, ptr, int_, ptr, ptr,
                                     ptr, ptr, ptr, ptr, ptr, ptr, int_]
    lib.aggregate_counts.restype = ctypes.c_int
    return lib


@functools.cache
def _native() -> ctypes.CDLL | None:
    """The C library, or None for the numpy route; decided once per process."""
    return _load_native()


@functools.cache
def _threads() -> int:
    """Threads a large native kernel call is split over: the CPUs this
    process may run on, at most `_MAX_THREADS`; decided once per process."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_THREADS))


def _threads_for(work: int) -> int:
    """Threads for a native kernel call of `work` inner-loop steps."""
    return _threads() if work >= _MIN_THREADED_WORK else 1


def _pad_mask(length: int) -> np.uint64:
    """All-ones mask for the valid bits of the final word."""
    rem = length % WORD_BITS
    if rem == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << rem) - 1)


def _pack_bits_2d(bits: np.ndarray) -> np.ndarray:
    """Pack an (n, t) bool array into (n, ceil(t/64)) uint64 words."""
    n, t = bits.shape
    n_words = (t + WORD_BITS - 1) // WORD_BITS
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((n, n_words * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    words = np.ascontiguousarray(padded).view("<u8").reshape(n, n_words)
    if t % WORD_BITS:
        words[:, -1] |= ~_pad_mask(t)  # canonical 1 padding
    return words


def _unpack_signs(words: np.ndarray, length: int, dtype=np.float64,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Unpack (n, n_words) packed words into an (n, length) +-1 matrix, into
    `out` (C-contiguous, of that shape) if given. The C library expands
    float64 signs."""
    words = np.ascontiguousarray(words, dtype="<u8")
    n = words.shape[0]
    if out is None:
        out = np.empty((n, length), dtype=dtype)
    lib = _native()
    if lib is not None and out.dtype == np.float64:
        lib.expand_signs(words.ctypes.data, n, words.shape[1], length, out.ctypes.data,
                         _threads_for(out.size))
        return out
    out[...] = np.unpackbits(words.view(np.uint8), axis=1, count=length, bitorder="little")
    out *= 2
    out -= 1
    return out


def sign_pm1(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise sign with sign(0) = +1, as float64 +-1 (into `out` if given)."""
    if out is None:
        return (np.asarray(x) >= 0) * 2.0 - 1.0
    np.greater_equal(x, 0, out=out)
    out *= 2.0
    out -= 1.0
    return out


def _check_finite(x: np.ndarray, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} contains non-finite entries")
    return x


@dataclass(frozen=True)
class PackedBinMatrix:
    """`rows` buckets of `cols` signs each, one nonnegative scalar per bucket.

    A feature matrix holds one bucket per node (`binarize_rows`), a
    weight matrix one per output column (`binarize_columns`), so `rows`
    counts buckets either way.
    """

    rows: int
    cols: int
    words: np.ndarray  # (rows, ceil(cols / 64)) uint64
    scalars: np.ndarray  # (rows,) float64, all >= 0

    def __post_init__(self):
        n_words = (self.cols + WORD_BITS - 1) // WORD_BITS
        if self.words.shape != (self.rows, n_words):
            raise ValueError(f"words shape {self.words.shape} != ({self.rows}, {n_words})")
        if self.scalars.shape != (self.rows,):
            raise ValueError("one scalar per bucket required")
        if (self.scalars < 0).any():
            raise ValueError("bucket scalars must be nonnegative")
        self.words.setflags(write=False)
        self.scalars.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols


def _standardize_args(standardize, d: int) -> list:
    """`binarize_rows`' `standardize` (mean, inv_std) as the C kernels take
    it: each broadcast to d contiguous float64 values; None (NULL) for
    rows taken as they are."""
    if standardize is None:
        return [None, None]
    return [np.ascontiguousarray(np.broadcast_to(s, (d,)), dtype=np.float64)
            for s in standardize]


def _check_binarized(status: int) -> None:
    """Raise for a C kernel's binarization status: -1 a non-finite value, -2
    no memory for a row buffer."""
    if status == -2:
        raise MemoryError("no memory for a row buffer")
    if status:
        raise ValueError("matrix contains non-finite entries")


def binarize_rows(h, standardize=None) -> PackedBinMatrix:
    """Binarize each row of an (N, d) matrix as its own bucket.

    The per-row scalars act as node weights on the sign patterns. With
    `standardize` = (mean, inv_std), the rows binarized are those of
    ``(h - mean) * inv_std``, computed with the same float operations as
    `layers.batch_norm_forward`. Rows are processed in blocks, so no
    temporary grows with the row count and the standardized matrix is
    never held whole. The C route takes one pass per row; its scalars are
    summed in numpy's pairwise order, so both routes agree bit for bit.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] == 0 or h.shape[1] == 0:
        raise ValueError("matrix must be 2-D with positive dimensions")
    n, d = h.shape
    scalars = np.empty(n, dtype=np.float64)
    words = np.empty((n, (d + WORD_BITS - 1) // WORD_BITS), dtype=np.uint64)
    lib = _native()
    step = _BLOCK_ROWS
    if lib is not None:
        if h.dtype == np.float64 and h.flags.c_contiguous:
            step = n  # no block needs converting: one call over all rows
        threads = _threads_for(min(step, n) * d)
        stats = _standardize_args(standardize, d)
        stat_ptrs = [s if s is None else s.ctypes.data for s in stats]
    for start in range(0, n, step):
        stop = min(start + step, n)
        if lib is not None:
            block = np.ascontiguousarray(h[start:stop], dtype=np.float64)
            _check_binarized(lib.binarize_rows(block.ctypes.data, *stat_ptrs, stop - start, d,
                                              words[start:stop].ctypes.data,
                                              scalars[start:stop].ctypes.data, threads))
        else:
            block = h[start:stop]
            if standardize is not None:
                mean, inv_std = standardize
                block = block - mean
                block *= inv_std
            block = _check_finite(block, "matrix")
            scalars[start:stop] = np.abs(block).mean(axis=1)
            words[start:stop] = _pack_bits_2d(block >= 0)
    return PackedBinMatrix(rows=n, cols=d, words=words, scalars=scalars)


def column_moments(h) -> tuple[np.ndarray, np.ndarray]:
    """Column means and population variances of an (N, d) matrix.

    Two passes over row blocks, so no temporary grows with the row
    count; equal to ``h.mean(axis=0)`` and ``h.var(axis=0)`` up to
    summation order. The C route takes a C-contiguous `h` and sums each
    block in numpy's order, so both routes agree bit for bit.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] == 0 or h.shape[1] == 0:
        raise ValueError("matrix must be 2-D with positive dimensions")
    n, d = h.shape
    lib = _native()
    if lib is not None and h.flags.c_contiguous:
        mean, var, acc = np.empty(d), np.empty(d), np.empty(max(d, _BLOCK_ROWS))
        lib.column_moments(h.ctypes.data, n, d, _BLOCK_ROWS, mean.ctypes.data,
                           var.ctypes.data, acc.ctypes.data, _threads_for(n * d))
        return mean, var
    total = np.zeros(d)
    for start in range(0, n, _BLOCK_ROWS):
        total += h[start:start + _BLOCK_ROWS].sum(axis=0)
    mean = total / n
    squares = np.zeros(d)
    for start in range(0, n, _BLOCK_ROWS):
        dev = h[start:start + _BLOCK_ROWS] - mean
        dev *= dev
        squares += dev.sum(axis=0)
    return mean, squares / n


def binarize_columns(w) -> PackedBinMatrix:
    """Binarize each column of a (d_in, d_out) weight matrix as its own bucket.

    The buckets are stored as rows: `rows` = d_out buckets of `cols` =
    d_in signs, so the buckets' signs are sign(W) transposed. The per-column
    scalars act as feature attentions; each is the column's mean absolute
    value, the least-squares optimum, not normalized by the number of
    buckets.
    """
    w = _check_finite(w, "matrix")
    if w.ndim != 2 or w.shape[0] == 0 or w.shape[1] == 0:
        raise ValueError("matrix must be 2-D with positive dimensions")
    return PackedBinMatrix(rows=w.shape[1], cols=w.shape[0], words=_pack_bits_2d(w.T >= 0),
                           scalars=np.abs(w).mean(axis=0))


def count_dtype(t: int) -> np.dtype:
    """The integer type of sign counts of length t, whose magnitude is at most t:
    int16 for t < 2**15, else int32."""
    return np.dtype(np.int16 if t < 2 ** 15 else np.int32)


def scale_counts(counts: np.ndarray, beta: np.ndarray, alpha: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """``(counts * beta[:, None]) * alpha`` in float64, into `out` if given:
    the value of each entry of a sign product, in the order `_packed.c`'s
    count aggregation forms it."""
    out = np.multiply(counts, beta[:, None], out=out)
    out *= alpha
    return out


@dataclass(frozen=True)
class SignCounts:
    """One packed input's products with each path's binarized weights, unscaled.

    `counts[k]` holds `bin_gemm`'s counts against path k's weights, `beta`
    the input's row scalars and `alpha[k]` the weights' column scalars,
    so path k's product is ``scale_counts(counts[k], beta, alpha[k])``.
    `graph.aggregate` scales each term where it reads it.
    """

    counts: np.ndarray  # (paths, n, m), count_dtype(t)
    beta: np.ndarray  # (n,)
    alpha: np.ndarray  # (paths, m)


def bin_gemm(f: PackedBinMatrix, b: PackedBinMatrix,
             out: np.ndarray | None = None) -> np.ndarray:
    """Every bucket of `f` against every bucket of `b`, of one length t.

    out[i, j] = (t - 2 * popcount(f_i XOR b_j)) * beta_i * alpha_j, bit
    for bit, with beta and alpha the two scalar lists; so for
    ``bin_gemm(binarize_rows(h), binarize_columns(w))`` it equals the
    dense product of the two scalar-rescaled sign approximations of h and
    w up to float summation order. The counts t - 2 * popcount are
    integers of `count_dtype(t)`: an `out` of that type receives them
    alone, unscaled (a `SignCounts` entry); a float64 one (None: a new
    one) the product, scaled by `scale_counts`. The C route counts each
    row's words against the transposed words of `b`; the numpy route
    expands row blocks of `f` to float32 +-1 signs and multiplies them by
    the expanded signs of `b`, which is exact for t < 2**24, the limit
    both routes keep. Pure function, safe to call concurrently with
    distinct `out` arrays (C-contiguous, (f.rows, b.rows)).
    """
    if f.cols != b.cols:
        raise ValueError(f"bucket lengths disagree: {f.cols} vs {b.cols}")
    t = f.cols
    if t >= _MAX_EXACT_INNER:
        raise ValueError(f"inner dimension {t} is too long for an exact float32 product "
                         f"(limit {_MAX_EXACT_INNER - 1})")
    shape, dtype = (f.rows, b.rows), count_dtype(t)
    if out is None:
        out = np.empty(shape)
    elif (out.shape != shape or out.dtype not in (np.float64, dtype)
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be C-contiguous float64 or {dtype} of shape {shape}")
    counting = out.dtype == dtype
    lib = _native()
    if lib is not None:
        f_words = np.ascontiguousarray(f.words, dtype=np.uint64)
        b_words_t = np.ascontiguousarray(b.words.T, dtype=np.uint64)
    else:
        b_signs = _unpack_signs(b.words, t, np.float32).T
    # The product is scaled a row block of counts at a time.
    step = f.rows if counting and lib is not None else _BLOCK_ROWS
    counts = out if counting else np.empty((min(step, f.rows), b.rows), dtype)
    for start in range(0, f.rows, step):
        stop = min(start + step, f.rows)
        block = counts[start:stop] if counting else counts[:stop - start]
        if lib is not None:
            lib.bin_counts(f_words[start:stop].ctypes.data, b_words_t.ctypes.data, stop - start,
                           f_words.shape[1], b.rows, t, int(_pad_mask(t)), block.ctypes.data,
                           dtype == np.int32,
                           _threads_for((stop - start) * f_words.shape[1] * b.rows))
        else:
            block[...] = _unpack_signs(f.words[start:stop], t, np.float32) @ b_signs
        if not counting:
            scale_counts(block, f.scalars[start:stop], b.scalars, out[start:stop])
    return out


def sign_t_matmul(f: PackedBinMatrix, g) -> np.ndarray:
    """sign(F)^T @ g for a packed (N, d) `f` and a real (N, m) `g`.

    The bucket scalars are not applied. Row blocks of `f` have their
    signs expanded to float64 +-1 (float32 would round, as `g` is real)
    and the block products are summed, in row order. The result equals
    the dense product up to summation order. The output rows are split
    over threads by whole words of `f` (`_sign_t_ranges`); each thread
    runs the block loop on its own columns, in its share of one block's
    signs and product.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != f.rows:
        raise ValueError(f"expected ({f.rows}, m) right operand, got {g.shape}")
    out = np.zeros((f.cols, g.shape[1]))
    # Held for the whole call, so the bytes held do not depend on how the
    # threads overlap.
    block_rows = min(_BLOCK_ROWS, f.rows)
    buffer = np.empty(block_rows * f.cols)
    products = np.empty_like(out)
    ranges = _sign_t_ranges(f, g.shape[1])

    def run(w0: int, w1: int) -> None:
        c0, c1 = w0 * WORD_BITS, min(w1 * WORD_BITS, f.cols)
        signs = buffer[block_rows * c0:block_rows * c1].reshape(block_rows, c1 - c0)
        for start in range(0, f.rows, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            rows = min(_BLOCK_ROWS, f.rows - start)
            expanded = _unpack_signs(f.words[block, w0:w1], c1 - c0, out=signs[:rows])
            out[c0:c1] += np.matmul(expanded.T, g[block], out=products[c0:c1])

    _fan_out(run, ranges)
    return out


def _sign_t_ranges(f: PackedBinMatrix, m: int) -> list[tuple[int, int]]:
    """Contiguous ranges of `f`'s words, one per thread of `sign_t_matmul`,
    as (first, stop) word pairs: `_blas_ranges` of the product's
    multiply-adds, each range's slice of the smallest row block (the
    last) the one that must exceed `_BLAS_EXACT_SLICE`."""
    last = (f.rows - 1) % _BLOCK_ROWS + 1  # the last block's rows
    return _blas_ranges(
        f.words.shape[1], f.rows * f.cols * m, _MIN_THREADED_WORK, m,
        lambda w0, w1: (min(w1 * WORD_BITS, f.cols) - w0 * WORD_BITS) * last * m)


def _blas_ranges(units: int, work: int, min_work: int, m: int, slice_work,
                 min_units: int = 1) -> list[tuple[int, int]]:
    """Contiguous ranges of a product's `units` (its output rows, or words of
    them), one per thread, as (first, stop) pairs of near-equal sizes,
    for a product of `work` multiply-adds into `m` columns whose range
    [first, stop) takes `slice_work(first, stop)` of them.

    One range below `min_work`; else `_threads()`, at most one per
    `min_units` units (2 where a unit is a row: BLAS multiplies a one-row
    slice as a vector), lowered until every range's slice exceeds
    `_BLAS_EXACT_SLICE`; where none does, one range. So is an `m` of one
    column: BLAS multiplies by a vector in its gemv kernel, which rounds
    a row by its alignment and by where BLAS's own threads split the
    output, so no slice is safe. The numpy route, as every kernel's,
    runs on the calling thread.
    """
    split = m > 1 and work >= min_work and _native() is not None
    for threads in range(min(_threads(), units // min_units) if split else 1, 1, -1):
        bounds = [k * units // threads for k in range(threads + 1)]
        ranges = list(zip(bounds, bounds[1:]))
        if min(slice_work(*r) for r in ranges) > _BLAS_EXACT_SLICE:
            return ranges
    return [(0, units)]


def _fan_out(run, ranges: list[tuple[int, int]]) -> None:
    """`run(first, stop)` for each of `ranges` (`_blas_ranges`): the first on
    the calling thread, the others on a pool built for the call and
    joined before it returns; no pool for one range."""
    if len(ranges) == 1:
        run(*ranges[0])
        return
    with ThreadPoolExecutor(len(ranges) - 1) as pool:
        spawned = [pool.submit(run, *r) for r in ranges[1:]]
        run(*ranges[0])
        for done in spawned:
            done.result()
