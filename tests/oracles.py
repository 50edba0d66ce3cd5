"""References the tests check the package against, each defined once.

The kernel references evaluate one pair of states at a time, and the dense
posterior conditions on an explicitly assembled Gram matrix with dense
solves, one query state and one training state at a time, so neither shares
code with the batched kernel paths of the package.  `gram_matrix` is the
exception: it reads the production Gram builder, mirrored to the full
symmetric matrix, so the tests can compare that builder's output with the
references.  The known-answer systems (a mass-spring-damper, a quadratic
energy with a constant error envelope) have their answers in closed form.
"""

import numpy as np

from phs_lab.control import ReferencePlan
from phs_lab.core import PhsModel
from phs_lab.kernels import TrainingPairs


# ---------------------------------------------------------------- kernel


def se_value(x, x_prime, lengthscales) -> float:
    """SE kernel value exp(-1/2 sum_i (x_i - x'_i)^2 / l_i^2), one pair at a time."""
    v = 1.0 / np.asarray(lengthscales, dtype=float) ** 2
    d = np.asarray(x, dtype=float) - np.asarray(x_prime, dtype=float)
    return np.exp(-0.5 * np.sum(v * d * d))


def se_hessian(x, x_prime, lengthscales) -> np.ndarray:
    """Mixed Hessian Pi(x, x') of the SE kernel, one pair at a time.

    Straightforward reference implementation; the batched hot path is checked
    against it in the tests.
    """
    ls = np.asarray(lengthscales, dtype=float)
    if np.any(ls <= 0):
        raise ValueError("lengthscales must be positive")
    v = 1.0 / ls**2
    vd = v * (np.asarray(x, dtype=float) - np.asarray(x_prime, dtype=float))
    return se_value(x, x_prime, ls) * (np.diag(v) - np.outer(vd, vd))


def phs_kernel(x, x_prime, hyper) -> np.ndarray:
    """Matrix-valued kernel sigma_f^2 * S Pi(x, x') S^T, one pair at a time."""
    s = hyper.structure.jr()
    pi = se_hessian(x, x_prime, hyper.lengthscales)
    return hyper.sigma_f**2 * s @ pi @ s.T


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


# ---------------------------------------------------------------- dense posterior


def dense_gram(ds, hyper):
    """The Gram of the dataset ``ds``, one phs_kernel block per pair, plus diag(noise_var)."""
    n, n_pts = ds.states.shape
    gram = np.zeros((n * n_pts, n * n_pts))
    for i in range(n_pts):
        for j in range(n_pts):
            gram[n * i : n * (i + 1), n * j : n * (j + 1)] = phs_kernel(ds.states[:, i], ds.states[:, j], hyper)
    gram += np.kron(np.eye(n_pts), np.diag(hyper.noise_var))
    return gram


def dense_targets(ds, hyper):
    """The stacked targets xdot_i - G_hat u_i, point by point."""
    g = hyper.structure.g()
    return np.concatenate([ds.derivatives[:, i] - g @ ds.inputs[:, i] for i in range(ds.n_points)])


def dense_mean_grad_h_and_var(ds, hyper, xq):
    """Drift mean and variance through the cross-covariance, and grad H_hat
    through the derivative of cov(H(x), xdot_j), one query column and one
    sample at a time."""
    jr = hyper.structure.jr()
    n = ds.states.shape[0]
    gram = dense_gram(ds, hyper)
    alpha = np.linalg.solve(gram, dense_targets(ds, hyper))
    mean = np.zeros_like(xq)
    grad = np.zeros_like(xq)
    var = np.zeros_like(xq)
    for q in range(xq.shape[1]):
        x = xq[:, q]
        cross = np.zeros((n, n * ds.n_points))
        for j in range(ds.n_points):
            xj = ds.states[:, j]
            aj = alpha[n * j : n * (j + 1)]
            cross[:, n * j : n * (j + 1)] = phs_kernel(x, xj, hyper)
            # d/dx [sf^2 Jr(x_j) Lambda^-1 (x - x_j) k(x, x_j)]^T = sf^2 Pi(x, x_j) Jr(x_j)^T
            grad[:, q] += hyper.sigma_f**2 * se_hessian(x, xj, hyper.lengthscales) @ jr.T @ aj
        mean[:, q] = cross @ alpha
        var[:, q] = np.diag(phs_kernel(x, x, hyper) - cross @ np.linalg.solve(gram, cross.T))
    return mean, grad, var


# ---------------------------------------------------------------- known-answer systems


def make_mass_spring_damper(m: float = 1.0, k: float = 1.0, b: float = 0.5) -> PhsModel:
    """Two-state linear PHS (position, momentum); handy as a known-answer system."""
    if m <= 0 or k <= 0 or b < 0:
        raise ValueError("need m > 0, k > 0, b >= 0")
    return PhsModel(
        j=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        r=np.diag([0.0, b]),
        g=np.array([[0.0], [1.0]]),
        hamiltonian=lambda x: 0.5 * k * x[0] ** 2 + x[1] ** 2 / (2 * m),
        hamiltonian_gradient=lambda x: np.array([k * x[0], x[1] / m]),
    )


class ConstantEnvelopeModel:
    """An error envelope eta0 in every component at every state."""

    def __init__(self, n, eta0):
        self.n = n
        self.eta0 = float(eta0)

    def envelope(self, xq):
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        return np.full((self.n, xq.shape[1]), self.eta0)


def constant_plan(xd_row, t1=1.0):
    """A reference plan that holds ``xd_row`` on [0, t1]."""
    xd_row = np.asarray(xd_row, dtype=float)
    return ReferencePlan(times=np.array([0.0, t1]), xd=np.tile(xd_row, (2, 1)))


def quadratic_desired(n, rho):
    # H_d = |xbar|^2 / 2, R_d = rho I: margin on the sphere of radius s is
    # rho s^2 - eta0 s |d|_1, worst over unit d at |d|_1 = sqrt(n), so the
    # certificate radius is eta0 sqrt(n) / rho
    return PhsModel(
        j=np.zeros((n, n)),
        r=rho * np.eye(n),
        g=np.zeros((n, 1)),
        hamiltonian=lambda xbar: 0.5 * np.sum(xbar**2, axis=0),
        hamiltonian_gradient=lambda xbar: np.asarray(xbar, dtype=float),
    )
