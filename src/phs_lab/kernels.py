"""The PHS-structured matrix-valued kernel and its Gram matrix.

The scalar base kernel is the squared exponential

    k(x, x') = exp(-1/2 sum_i (x_i - x'_i)^2 / l_i^2)

and the structured kernel conjugates its mixed second-derivative Hessian Pi
with the estimated structure matrix S = J_hat - R_hat:

    k_phs(x, x') = sigma_f^2 * S Pi(x, x') S^T,
    Pi_ij(x, x') = d^2 k / dz_i dz'_j |_(x, x').

With this convention Pi(x, x) = diag(1 / l_i^2).  S is constant in the state
(the structure contract, see structure.py), so each block is the rank-one
update sigma_f^2 k(x, x') (M - u u^T) that backend.phs_blocks assembles;
backend.phs_cross gives it the training pairs.  `gram_matrix` is the one
Gram builder: the likelihood, conditioning and model loading all call it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor

from . import backend
from .errors import ConditioningError

__all__ = ["se_hessian", "phs_kernel", "gram_matrix", "factorize_gram"]


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


def gram_matrix(states, hyper, jitter: float = 0.0) -> np.ndarray:
    """Block Gram matrix over the training states.

    ``states`` is (n, N) column-major.  Block (i, j) is k_phs(x_i, x_j), and
    the diagonal blocks additionally carry diag(noise_var) + jitter * I.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    n, n_pts = states.shape
    gram = backend.phs_cross(states, states, hyper.structure.jr(), hyper.sigma_f**2, hyper.lengthscales)
    noise = np.tile(np.asarray(hyper.noise_var, dtype=float), n_pts)
    gram[np.arange(n * n_pts), np.arange(n * n_pts)] += noise + jitter
    return gram


def factorize_gram(gram, jitter: float = 1e-10, max_jitter: float = 1e-6):
    """Cholesky-factorize a Gram matrix, escalating jitter on failure.

    Returns (cho_factor result, jitter actually added).  Raises
    ConditioningError when the factorization still fails at ``max_jitter``.
    """
    gram = np.asarray(gram, dtype=float)
    if not np.all(np.isfinite(gram)):
        raise ConditioningError("Gram matrix contains non-finite entries")
    eye = np.arange(gram.shape[0])
    current = jitter
    while True:
        # one Fortran-ordered copy per attempt, which LAPACK then factorizes in
        # place; the finiteness scan above already covers every attempt
        attempt = np.array(gram, order="F")
        attempt[eye, eye] += current
        try:
            return cho_factor(attempt, lower=True, overwrite_a=True, check_finite=False), current
        except np.linalg.LinAlgError:
            pass
        if current >= max_jitter:
            raise ConditioningError(
                f"Gram factorization failed with jitter escalated to {current:.1e}"
            )
        current = max(current * 10.0, 1e-12)
