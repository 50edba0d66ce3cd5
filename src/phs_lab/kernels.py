"""The PHS-structured matrix-valued kernel and its Gram matrix.

The scalar base kernel is the squared exponential

    k(x, x') = exp(-1/2 sum_i (x_i - x'_i)^2 / l_i^2)

and the structured kernel conjugates its mixed second-derivative Hessian Pi
with the estimated structure matrix S = J_hat - R_hat:

    k_phs(x, x') = sigma_f^2 * S Pi(x, x') S^T,
    Pi_ij(x, x') = d^2 k / dz_i dz'_j |_(x, x').

With this convention Pi(x, x) = diag(1 / l_i^2).  S is constant in the state
(the structure contract, see structure.py), so each block is the rank-one
update sigma_f^2 k(x, x') (M - u u^T).  The Gram matrix is symmetric, so
`TrainingPairs` builds it over the strict-lower pairs (a > b) and the
diagonal blocks only, into the lower triangle of a Fortran-ordered array
that LAPACK factorizes in place.  It is the one Gram builder: the
likelihood, conditioning and model loading all build through it, and
`gram_matrix` mirrors its lower triangle to the full symmetric matrix for
callers that need one.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor

from . import backend
from .errors import ConditioningError

__all__ = ["se_hessian", "phs_kernel", "TrainingPairs", "gram_matrix", "factorize_gram"]


def se_hessian(x, x_prime, lengthscales) -> np.ndarray:
    """Mixed Hessian Pi(x, x') of the SE kernel, one pair at a time.

    Straightforward reference implementation; the batched hot path is checked
    against it in the tests.
    """
    x = np.asarray(x, dtype=float)
    x_prime = np.asarray(x_prime, dtype=float)
    ls = np.asarray(lengthscales, dtype=float)
    if np.any(ls <= 0):
        raise ValueError("lengthscales must be positive")
    v = 1.0 / ls**2
    d = x - x_prime
    k = np.exp(-0.5 * np.sum(v * d * d))
    vd = v * d
    return k * (np.diag(v) - np.outer(vd, vd))


def phs_kernel(x, x_prime, hyper) -> np.ndarray:
    """Matrix-valued kernel sigma_f^2 * S Pi(x, x') S^T, one pair at a time."""
    s = hyper.structure.jr()
    pi = se_hessian(x, x_prime, hyper.lengthscales)
    return hyper.sigma_f**2 * s @ pi @ s.T


class TrainingPairs:
    """The hyperparameter-independent pair geometry of one training set.

    Built once per training set from a C-ordered copy of its (n, N) states,
    kept as ``states``.  The pairs are the P = N(N-1)/2 (a, b) with a > b,
    grouped by b: pairs bounds[b] .. bounds[b + 1] - 1 are a = b + 1 .. N - 1,
    whose n x n blocks fill rows (b + 1) n .. N n - 1 of the Gram's block
    column b.  ``d`` (n, P) holds x_a - x_b and ``dd`` its squares.
    """

    def __init__(self, states):
        self.states = np.array(states, dtype=float, order="C")
        n_pts = self.states.shape[1]
        col, row = np.triu_indices(n_pts, 1)
        self.d = self.states[:, row] - self.states[:, col]
        self.dd = self.d * self.d
        self.bounds = [0] + np.cumsum(np.arange(n_pts - 1, 0, -1)).tolist()

    def terms(self, hyper):
        """The one SE evaluation of a Gram: (sf^2 k, u, M) over the pairs.

        sf^2 k is (P,) and u = S Lambda^-1 d is (n, P); M = S Lambda^-1 S^T.
        """
        s = hyper.structure.jr()
        v = 1.0 / hyper.lengthscales**2
        s_v = s * v
        sf2_k = hyper.sigma_f**2 * backend.se_values(self.dd, v)
        return sf2_k, s_v @ self.d, s_v @ s.T

    def gram(self, hyper, terms):
        """A fresh Fortran-ordered Gram from ``terms``, written in its lower triangle only.

        The diagonal carries noise_var; the strict upper triangle is left
        unwritten.  Raises ConditioningError on a non-finite entry.
        """
        sf2_k, u, m = terms
        n, n_pts = self.states.shape
        blocks = backend.pair_blocks(sf2_k, u, m)
        diagonal = hyper.sigma_f**2 * m
        if not all(np.all(np.isfinite(a)) for a in (blocks, diagonal, hyper.noise_var)):
            raise ConditioningError("Gram matrix contains non-finite entries")
        gram = np.empty((n * n_pts, n * n_pts), order="F")
        for target, run in self._runs(gram, blocks):
            target[...] = run
        # at a = b, k = 1 and u = 0: the block is sf^2 M
        np.einsum("bjbi->bji", self._block_view(gram))[...] = diagonal.T
        np.einsum("ii->i", gram)[...] += np.tile(hyper.noise_var, n_pts)
        return gram

    def planes(self, mat):
        """The strict-lower blocks of the Fortran-ordered ``mat`` as component planes.

        Entry [i, j, p] of the (n, n, P) result is entry (i, j) of pair p's block.
        """
        n = self.states.shape[0]
        out = np.empty((n, n, self.d.shape[1]))
        for source, run in self._runs(mat, out.transpose(1, 2, 0)):
            run[...] = source
        return out

    def diagonal_sum(self, mat):
        """sum_a mat_aa over the diagonal blocks, read from the lower triangle and returned symmetric."""
        n = self.states.shape[0]
        lo_i, lo_j = np.tril_indices(n)
        # blocks[j, i, a] = mat[a n + i, a n + j]; only i >= j is written
        blocks = self._block_view(mat).diagonal(axis1=0, axis2=2)
        total = blocks[lo_j, lo_i].sum(axis=-1)
        out = np.empty((n, n))
        out[lo_i, lo_j] = total
        out[lo_j, lo_i] = total
        return out

    def _block_view(self, mat):
        # entry [b, j, a, i] is mat[a n + i, b n + j]; mat.T is C-ordered, so this is a view
        n, n_pts = self.states.shape
        return mat.T.reshape(n_pts, n, n_pts, n)

    def _runs(self, mat, blocks):
        """(view of mat, view of blocks) per block column b over its strict-lower pairs.

        ``blocks`` is indexed [j, p, i] as `backend.pair_blocks` returns; both
        views are indexed [j, a, i] for the rows a > b.
        """
        view = self._block_view(mat)
        bounds = self.bounds
        for b in range(len(bounds) - 1):
            yield view[b, :, b + 1 :, :], blocks[:, bounds[b] : bounds[b + 1], :]


def gram_matrix(states, hyper, jitter: float = 0.0) -> np.ndarray:
    """Full symmetric block Gram matrix over the training states.

    ``states`` is (n, N) column-major.  Block (i, j) is k_phs(x_i, x_j), and
    the diagonal blocks additionally carry diag(noise_var) + jitter * I.  The
    lower triangle is TrainingPairs.gram's, mirrored to the upper.
    """
    pairs = TrainingPairs(np.atleast_2d(np.asarray(states, dtype=float)))
    lower = pairs.gram(hyper, pairs.terms(hyper))
    gram = np.tril(lower)
    gram += np.tril(lower, -1).T
    eye = np.arange(gram.shape[0])
    gram[eye, eye] += jitter
    return gram


def factorize_gram(build, jitter: float = 1e-10, max_jitter: float = 1e-6):
    """Cholesky-factorize a Gram matrix in place, escalating jitter on failure.

    ``build()`` returns a fresh Fortran-ordered array whose lower triangle
    holds the Gram; LAPACK potrf overwrites that triangle with the factor,
    so every attempt factorizes a new build.  Returns (cho_factor result,
    jitter actually added).  Raises ConditioningError when the factorization
    still fails at ``max_jitter``.
    """
    current = jitter
    while True:
        attempt = build()
        np.einsum("ii->i", attempt)[...] += current
        try:
            return cho_factor(attempt, lower=True, overwrite_a=True, check_finite=False), current
        except np.linalg.LinAlgError:
            pass
        if current >= max_jitter:
            raise ConditioningError(
                f"Gram factorization failed with jitter escalated to {current:.1e}"
            )
        current = max(current * 10.0, 1e-12)
