"""Kernel construction: SE Hessian, PHS cross-covariances, Gram assembly."""

import numpy as np
import pytest

from phs_lab import ConditioningError, gram_matrix, phs_kernel, se_hessian
from phs_lab import backend
from phs_lab.kernels import factorize_gram
from phs_lab.structure import FixedStructure, StructureEstimate

from conftest import micro_hypers, micro_structure


def _fd_se_cross_hessian(x, x_prime, ls, h=1e-4):
    """Mixed second derivative d^2 k / dx dx' by central differences."""

    def k(a, b):
        d = a - b
        return np.exp(-0.5 * np.sum(d * d / ls**2))

    n = x.size
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            out[i, j] = (
                k(x + ei, x_prime + ej)
                - k(x + ei, x_prime - ej)
                - k(x - ei, x_prime + ej)
                + k(x - ei, x_prime - ej)
            ) / (4 * h * h)
    return out


def test_se_hessian_matches_finite_differences():
    rng = np.random.default_rng(5)
    ls = np.array([0.7, 1.3, 0.9])
    for _ in range(5):
        x = rng.standard_normal(3)
        xp = rng.standard_normal(3)
        np.testing.assert_allclose(
            se_hessian(x, xp, ls), _fd_se_cross_hessian(x, xp, ls), atol=5e-7
        )


def test_se_hessian_zero_lag_is_inverse_squared_lengthscales():
    ls = np.array([0.5, 2.0])
    x = np.array([0.3, -0.4])
    np.testing.assert_allclose(se_hessian(x, x, ls), np.diag(1.0 / ls**2), atol=1e-14)


def test_se_hessian_one_dimensional_value():
    # n = 1, unit lengthscale: pi(d) = (1 - d^2) exp(-d^2 / 2), zero at d = 1
    val = se_hessian(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert val[0, 0] == pytest.approx(0.0, abs=1e-15)
    val = se_hessian(np.array([0.5]), np.array([0.0]), np.array([1.0]))
    assert val[0, 0] == pytest.approx((1 - 0.25) * np.exp(-0.125), abs=1e-12)


def test_se_hessian_rejects_bad_lengthscales():
    with pytest.raises(ValueError):
        se_hessian(np.zeros(2), np.zeros(2), np.array([1.0, -1.0]))


def test_phs_kernel_block_formula():
    hyper = micro_hypers()
    est = hyper.structure
    rng = np.random.default_rng(7)
    x = rng.standard_normal(3)
    xp = rng.standard_normal(3)
    expected = hyper.sigma_f**2 * est.jr() @ se_hessian(x, xp, hyper.lengthscales) @ est.jr().T
    np.testing.assert_allclose(phs_kernel(x, xp, hyper), expected, atol=1e-13)


def test_phs_kernel_transpose_symmetry():
    hyper = micro_hypers()
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal(3)
        xp = rng.standard_normal(3)
        np.testing.assert_allclose(
            phs_kernel(x, xp, hyper), phs_kernel(xp, x, hyper).T, atol=1e-12
        )


def test_gram_blocks_and_noise_diagonal():
    hyper = micro_hypers()
    rng = np.random.default_rng(3)
    states = rng.standard_normal((3, 4))
    gram = gram_matrix(states, hyper)
    # block (i, j) is the pairwise kernel; noise sits on the diagonal only
    for i in range(4):
        for j in range(4):
            block = phs_kernel(states[:, i], states[:, j], hyper)
            if i == j:
                block = block + np.diag(hyper.noise_var)
            np.testing.assert_allclose(gram[3 * i : 3 * i + 3, 3 * j : 3 * j + 3], block, atol=1e-12)


def test_gram_positive_semidefinite_sample():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n_pts = int(rng.integers(2, 9))
        states = rng.uniform(-2, 2, size=(3, n_pts))
        hyper = micro_hypers(micro_structure(b=rng.uniform(0.1, 2), r=rng.uniform(0.5, 2)))
        gram = gram_matrix(states, hyper) - np.kron(np.eye(n_pts), np.diag(hyper.noise_var))
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        assert eigs.min() >= -1e-10


def test_factorize_gram_escalates_jitter():
    # a slightly indefinite matrix cannot factor until the jitter outweighs
    # the negative eigenvalue
    gram = np.diag([1.0, 1.0, -1e-8])
    cho, jitter_used = factorize_gram(gram, jitter=1e-12, max_jitter=1e-4)
    assert 1e-8 <= jitter_used <= 1e-4
    ident = np.eye(3)
    from scipy.linalg import cho_solve

    recon = cho_solve(cho, ident) @ (gram + jitter_used * ident)
    np.testing.assert_allclose(recon, ident, atol=1e-5)


def test_factorize_gram_gives_up():
    bad = np.diag([1.0, -1.0])
    with pytest.raises(ConditioningError):
        factorize_gram(bad, jitter=1e-12, max_jitter=1e-6)


def test_jr_stack_equals_per_column_jr():
    rng = np.random.default_rng(31)
    states = rng.uniform(-2.0, 2.0, size=(3, 17))
    fixed = StructureEstimate(
        family=FixedStructure(
            j=np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            r=np.diag([0.1, 0.4, 0.0]),
            g=np.array([[0.0], [1.0], [0.0]]),
        ),
        phi=np.zeros(0),
    )
    for est in (micro_structure(b=0.3, r=1.7), fixed):
        expected = np.stack([est.jr() for i in range(states.shape[1])])
        np.testing.assert_array_equal(est.jr_stack(states), expected)


def test_batched_hot_path_matches_pairwise_reference():
    # the batched hot path against the one-pair se_hessian / phs_kernel, on a
    # rectangular pair of state sets
    rng = np.random.default_rng(23)
    xa = rng.standard_normal((3, 7))
    xb = rng.standard_normal((3, 11))
    hyper = micro_hypers()
    ls = hyper.lengthscales
    k, d, pi = backend.pi_tensor(xa, xb, ls)
    est = hyper.structure
    cross = backend.phs_cross(xa, xb, est.jr(), hyper.sigma_f**2, ls)
    assert cross.shape == (21, 33)
    for a in range(7):
        for b in range(11):
            diff = xa[:, a] - xb[:, b]
            np.testing.assert_allclose(d[a, b], diff, atol=1e-15)
            assert k[a, b] == pytest.approx(np.exp(-0.5 * np.sum(diff**2 / ls**2)), abs=1e-15)
            np.testing.assert_allclose(pi[a, b], se_hessian(xa[:, a], xb[:, b], ls), atol=1e-14)
            np.testing.assert_allclose(
                cross[3 * a : 3 * a + 3, 3 * b : 3 * b + 3],
                phs_kernel(xa[:, a], xb[:, b], hyper),
                atol=1e-13,
            )
