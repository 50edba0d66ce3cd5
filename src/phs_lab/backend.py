"""Batched SE-Hessian kernel hot path.

`pi_tensor` evaluates the SE kernel and its mixed-derivative Hessian blocks
Pi(x_a, x_b) for every pair of columns at once, and `phs_cross` conjugates
those blocks with stacked structure matrices into the assembled block
cross-covariance sf^2 S_a Pi S_b^T.  kernels.se_hessian is the one-pair
reference they are tested against.  States are column-major (n, N).
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


def assemble(blocks):
    """(A, B, n, n) block tensor -> (A n, B n) matrix, blocks laid out sample-major."""
    n_a, n_b, n, _ = blocks.shape
    return np.ascontiguousarray(blocks.transpose(0, 2, 1, 3).reshape(n_a * n, n_b * n))


def phs_cross(xa, xb, sa, sb, sf2, lengthscales):
    """Assembled block cross-covariance sf2 * S_a Pi(x_a, x_b) S_b^T.

    sa, sb are stacked structure matrices (A, n, n), (B, n, n).  Returns the
    (A n, B n) matrix of `assemble`.
    """
    _, _, pi = pi_tensor(xa, xb, lengthscales)
    return assemble(sf2 * np.einsum("aik,abkl,bjl->abij", sa, pi, sb, optimize=True))
