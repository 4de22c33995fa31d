/* XNOR/popcount sign product, fused row binarization over packed words,
   and exact column moments.

   Words are LSB-first uint64: bit j % 64 of word j / 64 holds the sign of
   entry j (1 for +1, 0 for -1), and a row's padding bits are 1. Built and
   loaded by bitlinalg.py; the numpy code there is the reference. */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define TILE 64 /* output columns counted at once */

/* out[i, j] = (t - 2 popcount(f_i ^ b_j)) * beta_i * alpha_j, where f is
   (n, nw) and bt holds the m columns' words transposed, (nw, m). The last
   word is masked, so padding bits of either operand never count. */
void bin_gemm(const uint64_t *f, const uint64_t *bt, const double *beta,
              const double *alpha, int64_t n, int64_t nw, int64_t m, int64_t t,
              uint64_t last_mask, double *out)
{
    int64_t mism[TILE];
    for (int64_t i = 0; i < n; i++) {
        const uint64_t *row = f + i * nw;
        for (int64_t j0 = 0; j0 < m; j0 += TILE) {
            int64_t w = m - j0 < TILE ? m - j0 : TILE;
            for (int64_t j = 0; j < w; j++)
                mism[j] = 0;
            for (int64_t k = 0; k < nw; k++) {
                const uint64_t *col = bt + k * m + j0;
                const uint64_t x = row[k], mask = k == nw - 1 ? last_mask : ~(uint64_t)0;
                for (int64_t j = 0; j < w; j++)
                    mism[j] += __builtin_popcountll((x ^ col[j]) & mask);
            }
            double *o = out + i * m + j0;
            for (int64_t j = 0; j < w; j++)
                o[j] = (double)(t - 2 * mism[j]) * beta[i] * alpha[j0 + j];
        }
    }
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

/* Binarize the n rows of h (n, d): with standardize, of (h - mean) * inv_std.
   Writes each row's sign words (nw per row, padding 1) and mean |v|; `v` is
   scratch for one row (d doubles). Returns 0, or -1 on a non-finite value. */
int binarize_rows(const double *h, const double *mean, const double *inv_std,
                  int standardize, int64_t n, int64_t d, double *v,
                  uint64_t *words, double *scalars)
{
    const int64_t nw = (d + 63) / 64;
    for (int64_t i = 0; i < n; i++) {
        const double *x = h + i * d;
        int finite = 1;
        for (int64_t j = 0; j < d; j++) {
            v[j] = standardize ? (x[j] - mean[j]) * inv_std[j] : x[j];
            finite &= isfinite(v[j]) != 0;
        }
        if (!finite)
            return -1;
        uint64_t *w = words + i * nw;
        for (int64_t k = 0; k < nw; k++) {
            const double *vk = v + 64 * k;
            const int64_t len = d - 64 * k < 64 ? d - 64 * k : 64;
            uint64_t bits = 0;
            for (int64_t b = 0; b < len; b++)
                bits |= (uint64_t)(vk[b] >= 0) << b;
            w[k] = len < 64 ? bits | (~(uint64_t)0 << len) : bits;
        }
        scalars[i] = pairwise_sum(v, d, 1) / (double)d;
    }
    return 0;
}

/* total[j] += numpy's axis-0 sum over the m rows of b (m, d) of b[i, j] or,
   with `mean`, of (b[i, j] - mean[j])^2: from 0, row after row, except
   that numpy sums a single column (d == 1) pairwise. `acc` is scratch for
   max(m, d) doubles. */
static void add_block_sums(const double *b, int64_t m, int64_t d, const double *mean,
                           double *acc, double *total)
{
    if (d == 1) {
        for (int64_t i = 0; i < m; i++) {
            const double v = mean ? b[i] - mean[0] : b[i];
            acc[i] = mean ? v * v : v;
        }
        total[0] += pairwise_sum(acc, m, 0);
        return;
    }
    for (int64_t j = 0; j < d; j++)
        acc[j] = 0.;
    for (int64_t i = 0; i < m; i++) {
        const double *row = b + i * d;
        if (mean)
            for (int64_t j = 0; j < d; j++) {
                const double v = row[j] - mean[j];
                acc[j] += v * v;
            }
        else
            for (int64_t j = 0; j < d; j++)
                acc[j] += row[j];
    }
    for (int64_t j = 0; j < d; j++)
        total[j] += acc[j];
}

/* Column means and population variances of h (n, d) in two passes over
   blocks of `block` rows, each block's sums added into a zeroed total, as
   bitlinalg's numpy route takes them, so both agree bit for bit. `acc` is
   scratch for max(block, d) doubles. */
void column_moments(const double *h, int64_t n, int64_t d, int64_t block,
                    double *mean, double *var, double *acc)
{
    for (int64_t j = 0; j < d; j++)
        mean[j] = var[j] = 0.;
    for (int64_t i = 0; i < n; i += block)
        add_block_sums(h + i * d, n - i < block ? n - i : block, d, NULL, acc, mean);
    for (int64_t j = 0; j < d; j++)
        mean[j] /= (double)n;
    for (int64_t i = 0; i < n; i += block)
        add_block_sums(h + i * d, n - i < block ? n - i : block, d, mean, acc, var);
    for (int64_t j = 0; j < d; j++)
        var[j] /= (double)n;
}
