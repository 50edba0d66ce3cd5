"""Kernel construction: SE Hessian, PHS cross-covariances, Gram assembly."""

import numpy as np
import pytest
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dlauum, dpotri, dtrtri

from phs_lab import ConditioningError
from phs_lab import backend
from phs_lab.gp import GpHyperparams
from phs_lab.kernels import TrainingPairs, factorize_gram, invert_lower, trmm_lower
from phs_lab.structure import FixedStructure, StructureEstimate

from conftest import micro_hypers, micro_structure
from oracles import gram_matrix, phs_kernel, se_hessian, se_value


def _fd_se_cross_hessian(x, x_prime, ls, h=1e-4):
    """Mixed second derivative d^2 k / dx dx' by central differences."""

    def k(a, b):
        return se_value(a, b, ls)

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
    cho, jitter_used = factorize_gram(lambda: np.array(gram, order="F"), jitter=1e-12, max_jitter=1e-4)
    assert 1e-8 <= jitter_used <= 1e-4
    ident = np.eye(3)
    from scipy.linalg import cho_solve

    recon = cho_solve(cho, ident) @ (gram + jitter_used * ident)
    np.testing.assert_allclose(recon, ident, atol=1e-5)


def test_factorize_gram_gives_up():
    bad = np.diag([1.0, -1.0])
    with pytest.raises(ConditioningError):
        factorize_gram(lambda: np.array(bad, order="F"), jitter=1e-12, max_jitter=1e-6)


def _coupled_fixed_hypers():
    # S = J - R neither symmetric nor skew, coupling every state
    structure = StructureEstimate(
        family=FixedStructure(
            j=np.array([[0.0, 1.0, 0.4], [-1.0, 0.0, 0.7], [-0.4, -0.7, 0.0]]),
            r=np.array([[0.3, 0.1, 0.0], [0.1, 0.5, 0.2], [0.0, 0.2, 0.8]]),
            g=np.array([[0.0], [0.0], [1.0]]),
        ),
        phi=np.zeros(0),
    )
    return micro_hypers(structure)


@pytest.mark.parametrize("n_pts", [1, 2, 15])
@pytest.mark.parametrize("family", ["microactuator", "fixed"])
def test_lower_triangle_gram_matches_phs_cross(family, n_pts):
    # the training Gram is written over the strict-lower pairs and the
    # diagonal blocks only; on and below the diagonal it is phs_cross's full
    # Gram plus the noise, bit for bit (one point has no strict-lower pair,
    # two have one)
    hyper = micro_hypers() if family == "microactuator" else _coupled_fixed_hypers()
    states = np.random.default_rng(n_pts).uniform(-1.5, 1.5, size=(3, n_pts))
    pairs = TrainingPairs(states)
    lower = pairs.gram(hyper, pairs.terms(hyper))
    assert lower.flags.f_contiguous and lower.shape == (3 * n_pts, 3 * n_pts)
    full = backend.phs_cross(states, states, hyper.structure.jr(), hyper.sigma_f**2, hyper.lengthscales)
    eye = np.arange(3 * n_pts)
    full[eye, eye] += np.tile(hyper.noise_var, n_pts)
    np.testing.assert_array_equal(np.tril(lower), np.tril(full))
    np.testing.assert_array_equal(gram_matrix(states, hyper), np.tril(full) + np.tril(full, -1).T)


def test_factorization_retry_starts_from_a_fresh_build():
    # a repeated state without noise makes the Gram singular: potrf fails
    # late, after overwriting most of the lower triangle, so the retry must
    # factorize a new build to match a first attempt at its jitter
    states = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 12))
    states[:, -1] = states[:, 0]
    base = micro_hypers()
    hyper = GpHyperparams(
        sigma_f=base.sigma_f, lengthscales=base.lengthscales, noise_var=np.zeros(3), structure=base.structure
    )
    pairs = TrainingPairs(states)
    terms = pairs.terms(hyper)
    builds = []

    def build():
        builds.append(1)
        return pairs.gram(hyper, terms)

    (retried, _), jitter_used = factorize_gram(build, jitter=0.0, max_jitter=1e-6)
    assert len(builds) == 2 and jitter_used == 1e-12
    retried = np.tril(retried)
    # again into the same training set's reused Gram buffer, and into the
    # buffer of a new training set
    (reused, _), _ = factorize_gram(build, jitter=jitter_used, max_jitter=1e-6)
    assert len(builds) == 3
    other = TrainingPairs(states)
    (fresh, _), _ = factorize_gram(lambda: other.gram(hyper, other.terms(hyper)), jitter=jitter_used, max_jitter=1e-6)
    assert not np.shares_memory(reused, fresh)
    np.testing.assert_array_equal(retried, np.tril(reused))
    np.testing.assert_array_equal(retried, np.tril(fresh))


def _factor_with_nan_upper(order, seed):
    # the Cholesky factor of a well-conditioned SPD matrix, F-ordered, with NaN
    # in the strict upper triangle that the inverse must neither read nor write
    x = np.random.default_rng(seed).standard_normal((order, order + 5))
    factor = np.array(np.linalg.cholesky(x @ x.T + order * np.eye(order)), order="F")
    factor[np.triu_indices(order, 1)] = np.nan
    return factor


def _rel_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("order", [1, 2, 3, 64, 65, 129, 300, 900])
def test_blocked_inverse_matches_lapack(order):
    # the recursion splits at 65 (one level), 129 (two) and 300 and 900 (three
    # and four); L^-1 matches trtri, and lauum of it matches potri
    factor = _factor_with_nan_upper(order, order)
    lower = np.tril(np.nan_to_num(factor, nan=0.0))
    expected, info = dtrtri(lower, lower=1)
    assert info == 0
    inverse = invert_lower(factor)
    assert inverse is factor
    upper = np.triu_indices(order, 1)
    assert np.all(np.isnan(inverse[upper]))
    inverse[upper] = 0.0
    assert _rel_gap(inverse, np.tril(expected)) <= 1e-13
    k_inv, info = dpotri(lower, lower=1)
    assert info == 0
    gram_inv, info = dlauum(inverse, lower=1)
    assert info == 0
    assert _rel_gap(np.tril(gram_inv), np.tril(k_inv)) <= 1e-13


def test_blocked_inverse_singular_leaf_raises():
    # a zero pivot in the last of the four leaves of a 130 x 130 factor
    # (rows 97-129); trtri's info is reported in the numbering of the whole
    # factor
    factor = _factor_with_nan_upper(130, 7)
    factor[100, 100] = 0.0
    with pytest.raises(ConditioningError, match="trtri info 101"):
        invert_lower(factor)


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize(
    "factor",
    [np.array(np.eye(3)[:, ::-1], order="C"), _read_only(np.eye(3, order="F")), np.eye(3, dtype=np.float32, order="F")],
    ids=["c-ordered", "read-only", "float32"],
)
def test_blocked_inverse_rejects_arrays_it_cannot_overwrite(factor):
    # the inverse writes through a raw pointer with the layout of a
    # Fortran-ordered float64 matrix, so anything else is refused
    with pytest.raises(ValueError, match="factor must"):
        invert_lower(factor)


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (300, 128), (900, 384), (900, 90)])
def test_trmm_lower_equals_scipy_dtrmm(shape):
    # the same bits as scipy's own call, in place, the strict upper triangle
    # of a unread
    rows, cols = shape
    a = _factor_with_nan_upper(rows, 3)
    b = np.asfortranarray(np.random.default_rng(4).standard_normal((rows, cols)))
    expected = dtrmm(1.0, np.tril(np.nan_to_num(a, nan=0.0)), b, lower=1)
    out = trmm_lower(a, b)
    assert out is b
    assert np.array_equal(out, expected)


@pytest.mark.parametrize(
    "a, b",
    [
        (np.eye(3, order="F"), np.ones((3, 2), order="C")),
        (np.eye(3, order="F"), _read_only(np.ones((3, 2), order="F"))),
        (np.eye(3, order="F"), np.ones((3, 2), dtype=np.float32, order="F")),
        (np.eye(3, order="F"), np.ones((4, 2), order="F")),
        (np.eye(3, order="C")[:, ::-1], np.ones((3, 2), order="F")),
        (np.ones((3, 4), order="F"), np.ones((3, 2), order="F")),
        (np.eye(3, dtype=np.float32, order="F"), np.ones((3, 2), order="F")),
    ],
    ids=["c-ordered-b", "read-only-b", "float32-b", "row-mismatch", "c-ordered-a", "non-square-a", "float32-a"],
)
def test_trmm_lower_rejects_arrays_it_cannot_use(a, b):
    # on any of these scipy's wrapper would multiply a copy, or a wrong
    # layout, and leave b as it was
    with pytest.raises(ValueError, match="must be"):
        trmm_lower(a, b)


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
            assert k[a, b] == pytest.approx(se_value(xa[:, a], xb[:, b], ls), abs=1e-15)
            np.testing.assert_allclose(pi[a, b], se_hessian(xa[:, a], xb[:, b], ls), atol=1e-14)
            np.testing.assert_allclose(
                cross[3 * a : 3 * a + 3, 3 * b : 3 * b + 3],
                phs_kernel(xa[:, a], xb[:, b], hyper),
                atol=1e-13,
            )


@pytest.mark.parametrize("shape", [(1, 5), (1, 300), (128, 300), (300, 300)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_block_assembly_matches_per_entry_loop(shape):
    # phs_blocks forms the products a few rows per pass; the per-entry loop
    # it replaced is the reference, with the same arithmetic per entry, so
    # the Gram's bits must not move.  (128, 300) and (300, 300) take several
    # passes, the last one partial
    rng = np.random.default_rng(shape[0] + shape[1])
    n_a, n_b = shape
    sf2_k = rng.uniform(size=(n_a, n_b))
    u = rng.standard_normal((3, n_a, n_b))
    s = rng.standard_normal((3, 3))
    m = (s * rng.uniform(0.5, 2.0, 3)) @ s.T
    expected = np.empty((n_a, 3, n_b, 3))
    for i in range(3):
        for j in range(3):
            expected[:, i, :, j] = sf2_k * (m[i, j] - u[i] * u[j])
    np.testing.assert_array_equal(backend.phs_blocks(sf2_k, u, m), expected.reshape(3 * n_a, 3 * n_b))
