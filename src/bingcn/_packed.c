/* XNOR/popcount sign counts, fused row binarization and sign expansion
   over packed words, exact column moments, and the sparse-dense product
   of a CSR or CSC operator with float values or, scaling each stored entry
   and each output entry once, with sign counts, a self path's counted
   where it is read.

   Words are LSB-first uint64: bit j % 64 of word j / 64 holds the sign of
   entry j (1 for +1, 0 for -1), and a row's padding bits are 1.

   Every exported kernel takes `threads` and splits its output rows (its
   columns, for column_moments) into that many contiguous ranges, each
   computed in the one-thread order by a pthread spawned and joined inside
   the call, so the result does not depend on the thread count. Built and
   loaded by bitlinalg.py; the numpy and scipy code there and in graph.py
   is the reference. */
#include <math.h>
#include <pthread.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

#define TILE 64 /* output columns counted at once */
#define MAX_THREADS 8

/* Computes items [lo, hi), range k of a call. */
typedef void (*range_fn)(const void *arg, int k, int64_t lo, int64_t hi);

struct range {
    range_fn fn;
    const void *arg;
    int k;
    int64_t lo, hi;
};

static void *run_range(void *p)
{
    const struct range *r = p;
    r->fn(r->arg, r->k, r->lo, r->hi);
    return NULL;
}

/* Split [0, n) into min(threads, n, MAX_THREADS) contiguous ranges of
   near-equal size. Range 0 runs on the calling thread, each other one on a
   thread spawned here and joined before returning (or on the calling
   thread, where no thread can be spawned). */
static void parallel_for(range_fn fn, const void *arg, int64_t n, int threads)
{
    struct range r[MAX_THREADS];
    pthread_t tid[MAX_THREADS];
    int spawned[MAX_THREADS] = {0};
    if (threads > MAX_THREADS)
        threads = MAX_THREADS;
    if (threads > n)
        threads = (int)n;
    if (threads < 1)
        threads = 1;
    for (int k = 0; k < threads; k++)
        r[k] = (struct range){fn, arg, k, n * k / threads, n * (k + 1) / threads};
    for (int k = 1; k < threads; k++)
        spawned[k] = pthread_create(&tid[k], NULL, run_range, &r[k]) == 0;
    run_range(&r[0]);
    for (int k = 1; k < threads; k++) {
        if (spawned[k])
            pthread_join(tid[k], NULL);
        else
            run_range(&r[k]);
    }
}

/* K_j = t - 2 popcount(row ^ b_j) for the m columns of bt, their words
   transposed (nw, m), into k: int16, or int32 with `wide`. The last word is
   masked, so padding bits of either operand never count. */
static void count_row(const uint64_t *row, const uint64_t *bt, int64_t nw, int64_t m,
                      int64_t t, uint64_t last_mask, void *k, int wide)
{
    int64_t mism[TILE];
    for (int64_t j0 = 0; j0 < m; j0 += TILE) {
        int64_t w = m - j0 < TILE ? m - j0 : TILE;
        for (int64_t j = 0; j < w; j++)
            mism[j] = 0;
        for (int64_t q = 0; q < nw; q++) {
            const uint64_t *col = bt + q * m + j0;
            const uint64_t x = row[q], mask = q == nw - 1 ? last_mask : ~(uint64_t)0;
            for (int64_t j = 0; j < w; j++)
                mism[j] += __builtin_popcountll((x ^ col[j]) & mask);
        }
        if (wide)
            for (int64_t j = 0; j < w; j++)
                ((int32_t *)k)[j0 + j] = (int32_t)(t - 2 * mism[j]);
        else
            for (int64_t j = 0; j < w; j++)
                ((int16_t *)k)[j0 + j] = (int16_t)(t - 2 * mism[j]);
    }
}

struct gemm {
    const uint64_t *f, *bt;
    int64_t nw, m, t;
    uint64_t last_mask;
    int wide;
    void *counts;
};

static void gemm_rows(const void *arg, int k, int64_t lo, int64_t hi)
{
    const struct gemm *a = arg;
    const size_t row_bytes = (size_t)a->m * (a->wide ? sizeof(int32_t) : sizeof(int16_t));
    (void)k;
    for (int64_t i = lo; i < hi; i++)
        count_row(a->f + i * a->nw, a->bt, a->nw, a->m, a->t, a->last_mask,
                  (char *)a->counts + i * row_bytes, a->wide);
}

/* counts[i, j] = t - 2 popcount(f_i ^ b_j) (count_row), as int16, or int32
   with `wide`, where f is (n, nw) and bt holds the m columns' words
   transposed, (nw, m). */
void bin_counts(const uint64_t *f, const uint64_t *bt, int64_t n, int64_t nw, int64_t m,
                int64_t t, uint64_t last_mask, void *counts, int wide, int threads)
{
    const struct gemm a = {f, bt, nw, m, t, last_mask, wide, counts};
    parallel_for(gemm_rows, &a, n, threads);
}

/* sum v_i, or |v_i| with `absolute`, in numpy's pairwise order (pairwise_sum
   in loops_utils.h), so the row scalar equals np.abs(v).mean() and a
   column's sum equals numpy's bit for bit. */
static double pairwise_sum(const double *v, int64_t n, int absolute)
{
#define TERM(x) (absolute ? fabs(x) : (x))
    if (n < 8) {
        double s = 0.;
        for (int64_t i = 0; i < n; i++)
            s += TERM(v[i]);
        return s;
    }
    if (n <= 128) {
        double r[8], s;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = TERM(v[j]);
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += TERM(v[i + j]);
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            s += TERM(v[i]);
        return s;
    }
#undef TERM
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(v, n2, absolute) + pairwise_sum(v + n2, n - n2, absolute);
}

/* Binarize the d values of v, or, where mean is not NULL, of
   (v - mean) * inv_std, computed into `row`: the sign words w (padding 1)
   and *scalar = mean |v|. Returns 0, or -1 on a non-finite value. */
static int binarize_row(const double *v, const double *mean, const double *inv_std,
                        int64_t d, double *row, uint64_t *w, double *scalar)
{
    int finite = 1;
    if (mean) {
        for (int64_t j = 0; j < d; j++)
            row[j] = (v[j] - mean[j]) * inv_std[j];
        v = row;
    }
    for (int64_t j = 0; j < d; j++)
        finite &= isfinite(v[j]) != 0;
    if (!finite)
        return -1;
    for (int64_t q = 0; q < (d + 63) / 64; q++) {
        const double *vq = v + 64 * q;
        const int64_t len = d - 64 * q < 64 ? d - 64 * q : 64;
        uint64_t bits = 0;
        for (int64_t b = 0; b < len; b++)
            bits |= (uint64_t)(vq[b] >= 0) << b;
        w[q] = len < 64 ? bits | (~(uint64_t)0 << len) : bits;
    }
    *scalar = pairwise_sum(v, d, 1) / (double)d;
    return 0;
}

/* The lowest of the ranges' statuses: 0, or a range's error. */
static int worst_status(const int *status)
{
    int worst = 0;
    for (int k = 0; k < MAX_THREADS; k++)
        if (status[k] < worst)
            worst = status[k];
    return worst;
}

struct binarize {
    const double *h, *mean, *inv_std;
    int64_t d;
    uint64_t *words;
    double *scalars;
    int *status;
};

static void binarize_range(const void *arg, int k, int64_t lo, int64_t hi)
{
    const struct binarize *a = arg;
    const int64_t d = a->d, nw = (d + 63) / 64;
    /* A standardized row goes to this range's own buffer; a plain one is
       read in place. */
    double *row = a->mean ? malloc((size_t)d * sizeof *row) : NULL;
    if (a->mean && !row) {
        a->status[k] = -2;
        return;
    }
    for (int64_t i = lo; i < hi; i++)
        if (binarize_row(a->h + i * d, a->mean, a->inv_std, d, row, a->words + i * nw,
                         a->scalars + i)) {
            a->status[k] = -1;
            break;
        }
    free(row);
}

/* Binarize the n rows of h (n, d), or, where mean and inv_std are not NULL,
   of (h - mean) * inv_std. Writes each row's sign words (nw per row,
   padding 1) and mean |v|. Returns 0, -1 on a non-finite value, or -2 where
   no memory was left for a standardized row. */
int binarize_rows(const double *h, const double *mean, const double *inv_std, int64_t n,
                  int64_t d, uint64_t *words, double *scalars, int threads)
{
    int status[MAX_THREADS] = {0};
    const struct binarize a = {h, mean, inv_std, d, words, scalars, status};
    parallel_for(binarize_range, &a, n, threads);
    return worst_status(status);
}

struct expand {
    const uint64_t *words;
    int64_t nw, d;
    double *out;
};

static void expand_rows(const void *arg, int k, int64_t lo, int64_t hi)
{
    const struct expand *a = arg;
    const int64_t nw = a->nw, d = a->d;
    (void)k;
    for (int64_t i = lo; i < hi; i++) {
        const uint64_t *w = a->words + i * nw;
        double *o = a->out + i * d;
        for (int64_t q = 0; q < nw; q++) {
            const uint64_t x = w[q];
            const int64_t len = d - 64 * q < 64 ? d - 64 * q : 64;
            for (int64_t b = 0; b < len; b++)
                o[64 * q + b] = (x >> b) & 1 ? 1. : -1.;
        }
    }
}

/* out (n, d) = the +-1 signs of the n rows of words (nw per row), as
   doubles. */
void expand_signs(const uint64_t *words, int64_t n, int64_t nw, int64_t d, double *out,
                  int threads)
{
    const struct expand a = {words, nw, d, out};
    parallel_for(expand_rows, &a, n, threads);
}

/* total[j] += numpy's axis-0 sum over the m rows of b (m rows of stride d)
   of b[i, j] or, with `mean`, of (b[i, j] - mean[j])^2, for the columns j
   in [lo, hi): from 0, row after row, except that numpy sums a single
   column (d == 1) pairwise. `acc` is scratch for max(m, d) doubles, of
   which this reads and writes [lo, hi) (all m where d == 1). */
static void add_block_sums(const double *b, int64_t m, int64_t d, int64_t lo, int64_t hi,
                           const double *mean, double *acc, double *total)
{
    if (d == 1) {
        for (int64_t i = 0; i < m; i++) {
            const double v = mean ? b[i] - mean[0] : b[i];
            acc[i] = mean ? v * v : v;
        }
        total[0] += pairwise_sum(acc, m, 0);
        return;
    }
    for (int64_t j = lo; j < hi; j++)
        acc[j] = 0.;
    for (int64_t i = 0; i < m; i++) {
        const double *row = b + i * d;
        if (mean)
            for (int64_t j = lo; j < hi; j++) {
                const double v = row[j] - mean[j];
                acc[j] += v * v;
            }
        else
            for (int64_t j = lo; j < hi; j++)
                acc[j] += row[j];
    }
    for (int64_t j = lo; j < hi; j++)
        total[j] += acc[j];
}

struct moments {
    const double *h;
    int64_t n, d, block;
    double *mean, *var, *acc;
};

static void moments_columns(const void *arg, int k, int64_t lo, int64_t hi)
{
    const struct moments *a = arg;
    const int64_t n = a->n, d = a->d, block = a->block;
    (void)k;
    for (int64_t j = lo; j < hi; j++)
        a->mean[j] = a->var[j] = 0.;
    for (int64_t i = 0; i < n; i += block)
        add_block_sums(a->h + i * d, n - i < block ? n - i : block, d, lo, hi, NULL, a->acc,
                       a->mean);
    for (int64_t j = lo; j < hi; j++)
        a->mean[j] /= (double)n;
    for (int64_t i = 0; i < n; i += block)
        add_block_sums(a->h + i * d, n - i < block ? n - i : block, d, lo, hi, a->mean,
                       a->acc, a->var);
    for (int64_t j = lo; j < hi; j++)
        a->var[j] /= (double)n;
}

/* Column means and population variances of h (n, d) in two passes over
   blocks of `block` rows, each block's sums added into a zeroed total, as
   bitlinalg's numpy route takes them, so both agree bit for bit. `acc` is
   scratch for max(block, d) doubles. Threads split the columns, so a single
   column (summed pairwise through `acc`) stays on one thread. */
void column_moments(const double *h, int64_t n, int64_t d, int64_t block,
                    double *mean, double *var, double *acc, int threads)
{
    const struct moments a = {h, n, d, block, mean, var, acc};
    parallel_for(moments_columns, &a, d, threads);
}

struct spmm {
    int csc, sorted;
    int64_t n_in, k;
    const int32_t *indptr, *indices;
    const double *data, *z;
    double *out;
};

/* The first position in [p, end) of ids, sorted ascending there, whose id is
   at least `id`; end where none is. The ends are tried first: a range that
   starts at row 0, or ends at the last row, needs no search. */
static int64_t first_at_least(const int32_t *ids, int64_t p, int64_t end, int64_t id)
{
    if (p == end || ids[p] >= id)
        return p;
    if (ids[end - 1] < id)
        return end;
    while (p < end) {
        const int64_t mid = p + (end - p) / 2;
        if (ids[mid] < id)
            p = mid + 1;
        else
            end = mid;
    }
    return p;
}

static void spmm_rows(const void *arg, int t, int64_t lo, int64_t hi)
{
    const struct spmm *a = arg;
    const int32_t *indptr = a->indptr, *indices = a->indices;
    const double *data = a->data, *z = a->z;
    const int64_t k = a->k;
    double *out = a->out;
    (void)t;
    if (!a->csc) {
        for (int64_t i = lo; i < hi; i++) {
            double *restrict y = out + i * k;
            for (int64_t c = 0; c < k; c++)
                y[c] = 0.;
            for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) {
                const double v = data[p];
                const double *restrict x = z + indices[p] * k;
                for (int64_t c = 0; c < k; c++)
                    y[c] += v * x[c];
            }
        }
        return;
    }
    for (int64_t q = lo * k; q < hi * k; q++)
        out[q] = 0.;
    for (int64_t j = 0; j < a->n_in; j++) {
        const double *restrict x = z + j * k;
        int64_t first = indptr[j], end = indptr[j + 1];
        if (a->sorted) { /* only this range's stretch of the column */
            first = first_at_least(indices, first, end, lo);
            end = first_at_least(indices, first, end, hi);
        }
        for (int64_t p = first; p < end; p++) {
            const int64_t i = indices[p];
            if (!a->sorted && (i < lo || i >= hi))
                continue;
            double *restrict y = out + i * k;
            const double v = data[p];
            for (int64_t c = 0; c < k; c++)
                y[c] += v * x[c];
        }
    }
}

/* out (n_out, k) = a @ z for z (n_in, k) and the (n_out, n_in) operator a
   stored as CSR (indptr over its rows) or, with `csc`, as CSC (indptr over
   its columns), with int32 indices. Each output row starts at 0 and adds
   a_ij * z_j, a product then a sum, for its stored entries in the order
   scipy's csr_matvecs and csc_matvecs add them: a CSR row's in stored
   order; for CSC, column after column. A CSC range reads each column's
   entries in its rows alone, found by binary search where the column's row
   ids are `sorted`, else by a scan of the whole column. */
void sparse_matmul(int csc, int sorted, int64_t n_out, int64_t n_in, int64_t k,
                   const int32_t *indptr, const int32_t *indices, const double *data,
                   const double *z, double *out, int threads)
{
    const struct spmm a = {csc, sorted, n_in, k, indptr, indices, data, z, out};
    parallel_for(spmm_rows, &a, n_out, threads);
}

struct count_spmm {
    const int32_t *indptr, *indices, *self_at;
    const double *data, *beta, *alpha, *mean, *inv_std;
    const void *counts;
    int wide;
    const uint64_t *f, *self_bt;
    int64_t nw, t, m, paths;
    uint64_t last_mask;
    double *out;
    uint64_t *words;
    double *scalars;
    int *status;
};

/* y[c] += w * (double)K[c] for a count row K: int16, or int32 with `wide`. */
static void add_count_row(double *restrict y, const void *k, int wide, double w, int64_t m)
{
    if (wide) {
        const int32_t *restrict x = k;
        for (int64_t c = 0; c < m; c++)
            y[c] += w * (double)x[c];
    } else {
        const int16_t *restrict x = k;
        for (int64_t c = 0; c < m; c++)
            y[c] += w * (double)x[c];
    }
}

static void count_rows(const void *arg, int k, int64_t lo, int64_t hi)
{
    const struct count_spmm *a = arg;
    const int64_t m = a->m, last = a->paths - 1, out_nw = (m + 63) / 64;
    const size_t row_bytes = (size_t)m * (a->wide ? sizeof(int32_t) : sizeof(int16_t));
    /* This range's own buffers: a self path's count row, then a row to
       binarize, followed by its standardized copy where it has one. */
    const size_t n_self = last ? (size_t)m : 0;
    const size_t n_row = a->words ? (size_t)(a->mean ? 2 : 1) * m : 0;
    int32_t *self = NULL;
    double *row = NULL;
    if (n_self + n_row) {
        row = malloc(n_row * sizeof *row + n_self * sizeof *self);
        if (!row) {
            a->status[k] = -2;
            return;
        }
        self = (int32_t *)(row + n_row);
    }
    for (int64_t i = lo; i < hi; i++) {
        const int64_t at = a->self_at ? a->self_at[i] : i;
        double *restrict y = a->words ? row : a->out + i * m;
        for (int64_t c = 0; c < m; c++)
            y[c] = 0.;
        for (int64_t p = a->indptr[i]; p < a->indptr[i + 1]; p++) {
            const int64_t j = a->indices[p];
            add_count_row(y, (const char *)a->counts + j * row_bytes, a->wide,
                          a->data[p] * a->beta[j], m);
        }
        for (int64_t c = 0; c < m; c++)
            y[c] *= a->alpha[last * m + c];
        for (int64_t q = 0; q < last; q++) {
            const double b = a->beta[at], *restrict alpha = a->alpha + q * m;
            count_row(a->f + at * a->nw, a->self_bt + q * a->nw * m, a->nw, m, a->t,
                      a->last_mask, self, 1);
            for (int64_t c = 0; c < m; c++)
                y[c] += (double)self[c] * b * alpha[c];
        }
        if (a->words && binarize_row(y, a->mean, a->inv_std, m, row + m,
                                     a->words + i * out_nw, a->scalars + i)) {
            a->status[k] = -1;
            break;
        }
    }
    free(row);
}

/* Output row i of alpha_last * (P' K_last) + sum_{q < last} S_q[self_at_i],
   where K_q is path q's counts of the packed input f (n_in, nw; t signs a
   row) against its weights, alpha_q the weights' column scalars, last =
   paths - 1, P' the (n_out, n_in) CSR operator P (indptr over its rows,
   int32 indices) with each stored entry v_ij scaled once to w = v_ij *
   beta_j, and S_q = ((double)K_q * beta) * alpha_q, bin_gemm's float
   product. self_at maps an output row to its input row (NULL: the same
   id). The last path's counts come counted (n_in, m; int16, or int32 with
   `wide`); a self path's row is counted (count_row) from f's row
   self_at_i and self_bt, the self paths' weight words transposed
   (paths - 1, nw, m), where it is read, so no self path's counts are held.
   Each row starts at 0 and adds w * K_last[j] for P's entries in stored
   order, a product then a sum, as sparse_matmul does, is scaled by
   alpha_last once per entry, then adds each self path's row. Written to
   out (n_out, m) where words is NULL; else each row is binarized as
   binarize_rows does, standardized with mean and inv_std where they are
   not NULL, into words and scalars, and no float row is kept. Returns as
   binarize_rows. */
int aggregate_counts(const int32_t *indptr, const int32_t *indices, const double *data,
                     int64_t n_out, int64_t m, int64_t paths, const void *counts, int wide,
                     const uint64_t *f, const uint64_t *self_bt, int64_t nw, int64_t t,
                     uint64_t last_mask, const double *beta, const double *alpha,
                     const int32_t *self_at, double *out, const double *mean,
                     const double *inv_std, uint64_t *words, double *scalars, int threads)
{
    int status[MAX_THREADS] = {0};
    const struct count_spmm a = {indptr, indices, self_at, data, beta, alpha, mean, inv_std,
                                 counts, wide, f, self_bt, nw, t, m, paths, last_mask, out,
                                 words, scalars, status};
    parallel_for(count_rows, &a, n_out, threads);
    return worst_status(status);
}
