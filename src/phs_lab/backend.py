"""Batched SE-Hessian kernel hot path.

`pi_tensor` evaluates the SE kernel and its mixed-derivative Hessian blocks
Pi(x_a, x_b) for every pair of columns at once.  No program path builds them
any more (the NLML gradient contracts Pi in closed form, see gp.py); it stays
as the batched reference the tests check the contractions against.
With Lambda = diag(l_i^2) and Pi = k (Lambda^-1 - Lambda^-1 d d^T Lambda^-1),
d = x - x', each block of sf^2 S Pi S^T for one constant structure matrix
S = J_hat - R_hat is the rank-one update

    sf^2 S Pi(x, x') S^T = sf^2 k(x, x') (M - u u^T),
    M = S Lambda^-1 S^T,  u = S Lambda^-1 (x - x'),

so no Pi tensor is built for it.  The assemblers take the pair terms sf^2 k
and u from their caller, and `se_values` computes k from squared
differences.  `phs_blocks` writes the blocks of all pairs of two state sets
straight into the (A n, B n) matrix, sample-major, for the posterior
variance (gp.py); `pair_blocks` forms the blocks of a list of pairs in the
layout kernels.TrainingPairs copies into the lower triangle of the training
Gram.  `phs_cross` assembles all pairs of two state sets; no program path
calls it, and the tests check the training Gram against it.
kernels.se_hessian and kernels.phs_kernel are the one-pair references all
of these are tested against.  States are column-major (n, N).
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


# entries of the (n, n, rows, B) block-product buffer one pass fills: 512 KB,
# which stays in L2 cache between forming the products and writing them out
_PASS_ENTRIES = 1 << 16


def phs_blocks(sf2_k, u, m):
    """The (A n, B n) matrix whose block (a, b) is sf2_k[a, b] (M - u_ab u_ab^T).

    sf2_k is (A, B), u is (n, A, B) with u[:, a, b] = u_ab and m is M (n, n).
    Block (a, b) fills rows a n .. a n + n - 1 and columns b n .. b n + n - 1.
    A pass forms the products of a few rows component-major in one buffer,
    where every loop runs over B contiguous entries, and one multiply writes
    them into the assembled layout; at one row, a pass is three ufunc calls.
    """
    n, n_a, n_b = u.shape
    out = np.empty((n_a, n, n_b, n))
    # blocks[i, j, a, b] is entry (i, j) of block (a, b)
    blocks = out.transpose(1, 3, 0, 2)
    step = max(1, min(n_a, _PASS_ENTRIES // (n * n * n_b)))
    buf = np.empty((n, n, step, n_b))
    for start in range(0, n_a, step):
        rows = slice(start, start + step)
        prod = buf[:, :, : min(step, n_a - start)]
        np.multiply(u[:, None, rows], u[None, :, rows], out=prod)
        np.subtract(m[:, :, None, None], prod, out=prod)
        np.multiply(sf2_k[rows], prod, out=blocks[:, :, rows])
    return out.reshape(n_a * n, n_b * n)


def se_values(dd, v, out=None, scratch=None):
    """SE kernel values exp(-1/2 sum_i v_i dd_i), summing over the first axis of dd.

    dd holds squared differences, component first; v = 1 / l^2.  The sum
    takes one multiply and one add per component, in component order, so a
    value does not depend on its position in dd (einsum's vectorized loops
    fuse multiply and add in some positions and not in others).  ``out``
    receives the values and ``scratch`` the products, both shaped like
    dd[0]; each is a new array when not given.
    """
    total = np.multiply(v[0], dd[0], out=out)
    for v_i, dd_i in zip(v[1:], dd[1:]):
        total += np.multiply(v_i, dd_i, out=scratch)
    total *= -0.5
    return np.exp(total, out=total)


def pair_blocks(sf2_k, u, m, out=None):
    """The blocks sf2_k[p] (M - u_p u_p^T) of P pairs, block column major.

    sf2_k is (P,), u is (n, P) with u[:, p] = u_p and m is M (n, n).  Returns
    the (n, P, n) array (``out`` when given) whose entry [j, p, i] is entry
    (i, j) of pair p's block, with the arithmetic of `phs_blocks` per entry:
    column j of the blocks of consecutive pairs is one contiguous run.
    """
    out = np.multiply(u[:, :, None], u.T[None, :, :], out=out)
    np.subtract(m.T[:, None, :], out, out=out)
    np.multiply(sf2_k[:, None], out, out=out)
    return out


def phs_cross(xa, xb, s, sf2, lengthscales):
    """Assembled block cross-covariance sf2 * S Pi(x_a, x_b) S^T of two state sets.

    xa, xb are float arrays (n, A), (n, B) and s is the constant (n, n)
    structure matrix.  Returns the (A n, B n) matrix of `phs_blocks` with
    sf2_k = sf2 k(x_a, x_b) and u = S Lambda^-1 (x_a - x_b).
    """
    v = 1.0 / np.asarray(lengthscales, dtype=float) ** 2
    s_v = s * v
    d = xa[:, :, None] - xb[:, None, :]
    sf2_k = sf2 * se_values(d * d, v)
    return phs_blocks(sf2_k, np.tensordot(s_v, d, axes=1), s_v @ s.T)
