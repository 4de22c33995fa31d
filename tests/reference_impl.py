"""Loop-based reference implementations used as independent test oracles.

Everything here is written with explicit scalar loops, straight from the
math, or with a different numpy route than the package's (`canonical_edges`,
`gcn_forward`), and deliberately shares no code with the package kernels.
"""

import numpy as np


def canonical_edges(edges) -> np.ndarray:
    """Deduplicate an undirected edge list and drop self-loops.

    Returns an (E, 2) int64 array with u < v, sorted lexicographically.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    order = np.lexsort((hi[keep], lo[keep]))  # 1-D sorts: any int64, no combined key
    lo, hi = lo[keep][order], hi[keep][order]
    first = np.ones(lo.size, dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return np.stack([lo[first], hi[first]], axis=1)


def dense_normalized_adjacency(n, edges):
    """D^{-1/2} (A + I) D^{-1/2} built densely from an edge list."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    a_hat = a + np.eye(n)
    deg = a_hat.sum(axis=1)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(deg))
    return d_inv_sqrt @ a_hat @ d_inv_sqrt


def best_binarization_by_search(v):
    """Minimum squared error over every sign pattern with closed-form scale.

    For a fixed sign pattern s, the optimal scale is (v . s) / t, giving
    error ||v||^2 - (v . s)^2 / t. Exhaustive over all 2^t patterns.
    """
    v = np.asarray(v, dtype=np.float64)
    t = v.size
    best = np.inf
    for code in range(2 ** t):
        s = np.array([1.0 if (code >> i) & 1 else -1.0 for i in range(t)])
        scale = float(v @ s) / t
        err = float(((v - scale * s) ** 2).sum())
        best = min(best, err)
    return best


def unpack_signs(m) -> np.ndarray:
    """The +-1 signs of a `PackedBinMatrix`'s buckets, one per row, decoded
    from its `.words` with numpy's bit unpacking: bucket bit i is bit
    i % 64 of word i // 64, 1 for +1; the padding bits are dropped."""
    words = np.ascontiguousarray(m.words, dtype="<u8")
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return np.where(bits[:, :m.cols] == 1, 1.0, -1.0)


def scalar_sign(x):
    return 1.0 if x >= 0 else -1.0


def scalar_bigcn_backward(h_in, w_latent, adj_dense, grad_out,
                          ste_mode="grad", drop_mask=None):
    """Scalar-loop gradients of one binarized graph convolution.

    Follows the chain: grad_zeta = A^T g, grad through the reconstructed
    factor matrices, straight-through gate for the features, and the
    scalar-coupling plus sign-gate terms for the latent weights.
    """
    h_in = np.asarray(h_in, dtype=np.float64)
    w_latent = np.asarray(w_latent, dtype=np.float64)
    adj_dense = np.asarray(adj_dense, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    n, d_in = h_in.shape
    d_out = w_latent.shape[1]

    beta = np.zeros(n)
    f = np.zeros((n, d_in))
    for i in range(n):
        acc = 0.0
        for k in range(d_in):
            acc += abs(h_in[i, k])
            f[i, k] = scalar_sign(h_in[i, k])
        beta[i] = acc / d_in

    alpha = np.zeros(d_out)
    b = np.zeros((d_in, d_out))
    for j in range(d_out):
        acc = 0.0
        for k in range(d_in):
            acc += abs(w_latent[k, j])
            b[k, j] = scalar_sign(w_latent[k, j])
        alpha[j] = acc / d_in

    h_tilde = np.zeros((n, d_in))
    for i in range(n):
        for k in range(d_in):
            h_tilde[i, k] = beta[i] * f[i, k]
            if drop_mask is not None:
                h_tilde[i, k] *= drop_mask[i, k]

    w_tilde = np.zeros((d_in, d_out))
    for k in range(d_in):
        for j in range(d_out):
            w_tilde[k, j] = alpha[j] * b[k, j]

    grad_zeta = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            acc = 0.0
            for p in range(n):
                acc += adj_dense[p, i] * grad_out[p, j]
            grad_zeta[i, j] = acc

    grad_w_tilde = np.zeros((d_in, d_out))
    for k in range(d_in):
        for j in range(d_out):
            acc = 0.0
            for i in range(n):
                acc += h_tilde[i, k] * grad_zeta[i, j]
            grad_w_tilde[k, j] = acc

    grad_h_tilde = np.zeros((n, d_in))
    for i in range(n):
        for k in range(d_in):
            acc = 0.0
            for j in range(d_out):
                acc += grad_zeta[i, j] * w_tilde[k, j]
            if drop_mask is not None:
                acc *= drop_mask[i, k]
            grad_h_tilde[i, k] = acc

    grad_h_in = np.zeros((n, d_in))
    for i in range(n):
        for k in range(d_in):
            g = grad_h_tilde[i, k]
            ref = g if ste_mode == "grad" else h_in[i, k]
            grad_h_in[i, k] = g if abs(ref) < 1.0 else 0.0

    grad_w = np.zeros((d_in, d_out))
    for i in range(d_in):
        for j in range(d_out):
            mass = 0.0
            for k in range(d_in):
                mass += grad_w_tilde[k, j] * b[k, j]
            term1 = b[i, j] * mass / d_in
            gate = 1.0 if abs(w_latent[i, j]) < 1.0 else 0.0
            term2 = alpha[j] * grad_w_tilde[i, j] * gate
            grad_w[i, j] = term1 + term2

    return grad_h_in, grad_w


def scalar_bigcn_forward(h_in, w_latent, adj_dense):
    """Scalar-loop forward: aggregate(binarized features x binarized weights)."""
    h_in = np.asarray(h_in, dtype=np.float64)
    w_latent = np.asarray(w_latent, dtype=np.float64)
    n, d_in = h_in.shape
    d_out = w_latent.shape[1]

    zeta = np.zeros((n, d_out))
    for i in range(n):
        beta = sum(abs(h_in[i, k]) for k in range(d_in)) / d_in
        for j in range(d_out):
            alpha = sum(abs(w_latent[k, j]) for k in range(d_in)) / d_in
            dot = 0
            for k in range(d_in):
                dot += scalar_sign(h_in[i, k]) * scalar_sign(w_latent[k, j])
            zeta[i, j] = beta * alpha * dot

    out = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            out[i, j] = sum(adj_dense[i, p] * zeta[p, j] for p in range(n))
    return out, zeta


def gcn_forward(adj, h_in, w, activation):
    """Uncached full-precision graph convolution, ReLU optional, from dense
    products: relu(A_hat (H W)) with `adj`'s normalized adjacency A_hat."""
    h_in = np.asarray(h_in, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if h_in.ndim != 2 or h_in.shape[1] != w.shape[0]:
        raise ValueError(f"shape mismatch: {h_in.shape} x {w.shape}")
    out = adj.matrix.toarray() @ (h_in @ w)
    return np.maximum(out, 0.0) if activation else out
