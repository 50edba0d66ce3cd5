"""Batched SE-Hessian kernel hot path.

`pi_tensor` evaluates the SE kernel and its mixed-derivative Hessian blocks
Pi(x_a, x_b) for every pair of columns at once.  No program path builds them
any more (the NLML gradient contracts Pi in closed form, see gp.py); it stays
as the batched reference the tests check the contractions against.
`phs_cross` assembles the block cross-covariance sf^2 S Pi S^T for one
constant structure matrix S = J_hat - R_hat.  With Lambda = diag(l_i^2) and
Pi = k (Lambda^-1 - Lambda^-1 d d^T Lambda^-1), d = x - x', each block is the
rank-one update

    sf^2 S Pi(x, x') S^T = sf^2 k(x, x') (M - u u^T),
    M = S Lambda^-1 S^T,  u = S Lambda^-1 (x - x'),

so no Pi tensor is built for it, and the blocks are written straight into
the (A n, B n) matrix, sample-major.  kernels.se_hessian and kernels.phs_kernel
are the one-pair references both are tested against.  States are
column-major (n, N).
"""

from __future__ import annotations

import numpy as np


def pi_tensor(xa, xb, lengthscales):
    """Pairwise SE values and Hessian blocks.

    Returns
    -------
    k : (A, B) SE kernel values exp(-1/2 sum_i d_i^2 / l_i^2)
    d : (A, B, n) differences x - x'
    pi : (A, B, n, n) mixed-derivative Hessian blocks
         pi_ij = k * (delta_ij / l_j^2 - d_i d_j / (l_i^2 l_j^2))
    """
    xa = np.asarray(xa, dtype=float)
    xb = np.asarray(xb, dtype=float)
    ls = np.asarray(lengthscales, dtype=float)
    n = xa.shape[0]
    v = 1.0 / ls**2
    d = xa.T[:, None, :] - xb.T[None, :, :]
    k = np.exp(-0.5 * np.einsum("abn,n->ab", d * d, v))
    vd = d * v
    pi = -vd[:, :, :, None] * vd[:, :, None, :]
    idx = np.arange(n)
    pi[:, :, idx, idx] += v
    pi *= k[:, :, None, None]
    return k, d, pi


def phs_cross(xa, xb, s, sf2, lengthscales):
    """Assembled block cross-covariance sf2 * S Pi(x_a, x_b) S^T.

    xa, xb are float arrays (n, A), (n, B) and s is the constant (n, n)
    structure matrix.  Returns the (A n, B n) matrix whose block (a, b),
    rows a n .. a n + n - 1 and columns b n .. b n + n - 1, is
    sf2 k(x_a, x_b) (M - u u^T).
    """
    v = 1.0 / np.asarray(lengthscales, dtype=float) ** 2
    s_v = s * v
    m = s_v @ s.T
    n, n_a = xa.shape
    n_b = xb.shape[1]
    d = xa[:, :, None] - xb[:, None, :]
    sf2_k = sf2 * np.exp(-0.5 * np.einsum("nab,n->ab", d * d, v))
    u = np.tensordot(s_v, d, axes=1)
    # write each (i, j) entry of every block straight into the assembled layout
    out = np.empty((n_a, n, n_b, n))
    for i in range(n):
        for j in range(n):
            out[:, i, :, j] = sf2_k * (m[i, j] - u[i] * u[j])
    return out.reshape(n_a * n, n_b * n)
