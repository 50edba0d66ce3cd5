"""GP over PHS vector fields: likelihood, conditioning, posterior energy.

The conditioning oracle here is written independently of the package kernel
code (dense loops, no shared helpers) so the two routes can disagree.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import cho_factor, cho_solve

from phs_lab import (
    ConditioningError,
    TrainingError,
    backend,
    condition,
    train,
)
from phs_lab import gp as gp_mod
from phs_lab.control import find_hamiltonian_minimum
from phs_lab.core import eval_dynamics
from phs_lab.filtering import FilteredDataset, filter_derivatives
from phs_lab.gp import (
    BETA_PERCENTILE,
    _invert_factor,
    GpHyperparams,
    OptimizerConfig,
    calibrate_beta,
    load_model,
    mean_adjust,
    negative_log_marginal_likelihood,
    save_model,
)
from phs_lab.kernels import TrainingPairs, gram_matrix
from phs_lab.structure import (
    FixedStructure,
    MicroactuatorStructure,
    StructureEstimate,
    StructureFamily,
    structure_from_jsonable,
)

from conftest import micro_hypers, micro_structure, subset


# ---------------------------------------------------------------- oracle code


def _se(x, xp, ls):
    d = x - xp
    return np.exp(-0.5 * np.sum(d * d / ls**2))


def _se_pi(x, xp, ls):
    d = x - xp
    v = 1.0 / ls**2
    return _se(x, xp, ls) * (np.diag(v) - np.outer(v * d, v * d))


def _dense_gram(ds, hyper):
    est = hyper.structure
    n = ds.states.shape[0]
    n_pts = ds.n_points
    x_cols = ds.states
    gram = np.zeros((n * n_pts, n * n_pts))
    for i in range(n_pts):
        for j in range(n_pts):
            block = (
                hyper.sigma_f**2
                * est.jr()
                @ _se_pi(x_cols[:, i], x_cols[:, j], hyper.lengthscales)
                @ est.jr().T
            )
            gram[n * i : n * (i + 1), n * j : n * (j + 1)] = block
    gram += np.kron(np.eye(n_pts), np.diag(hyper.noise_var))
    return gram


def _dense_targets(ds, hyper):
    est = hyper.structure
    n = ds.states.shape[0]
    return np.concatenate(
        [
            ds.derivatives[:, i] - est.g() @ ds.inputs[:, i]
            for i in range(ds.n_points)
        ]
    )


def _dense_posterior(ds, hyper, xq):
    est = hyper.structure
    n = ds.states.shape[0]
    gram = _dense_gram(ds, hyper)
    y = _dense_targets(ds, hyper)
    alpha = np.linalg.solve(gram, y)
    cross = np.zeros((n, n * ds.n_points))
    for j in range(ds.n_points):
        cross[:, n * j : n * (j + 1)] = (
            hyper.sigma_f**2
            * est.jr()
            @ _se_pi(xq, ds.states[:, j], hyper.lengthscales)
            @ est.jr().T
        )
    mean = cross @ alpha
    prior = hyper.sigma_f**2 * est.jr() @ _se_pi(xq, xq, hyper.lengthscales) @ est.jr().T
    var = np.diag(prior - cross @ np.linalg.solve(gram, cross.T))
    return mean, var, gram, y


def _dense_mean_grad_h_and_var(ds, hyper, xq):
    """Drift mean and variance through the cross-covariance, and grad H_hat
    through the derivative of cov(H(x), xdot_j), one query column and one
    sample at a time."""
    est = hyper.structure
    n = ds.states.shape[0]
    gram = _dense_gram(ds, hyper)
    alpha = np.linalg.solve(gram, _dense_targets(ds, hyper))
    mean = np.zeros_like(xq)
    grad = np.zeros_like(xq)
    var = np.zeros_like(xq)
    for q in range(xq.shape[1]):
        x = xq[:, q]
        cross = np.zeros((n, n * ds.n_points))
        for j in range(ds.n_points):
            xj = ds.states[:, j]
            pi = _se_pi(x, xj, hyper.lengthscales)
            aj = alpha[n * j : n * (j + 1)]
            cross[:, n * j : n * (j + 1)] = hyper.sigma_f**2 * est.jr() @ pi @ est.jr().T
            # d/dx [sf^2 Jr(x_j) Lambda^-1 (x - x_j) k(x, x_j)]^T = sf^2 Pi(x, x_j) Jr(x_j)^T
            grad[:, q] += hyper.sigma_f**2 * pi @ est.jr().T @ aj
        mean[:, q] = cross @ alpha
        prior = hyper.sigma_f**2 * est.jr() @ _se_pi(x, x, hyper.lengthscales) @ est.jr().T
        var[:, q] = np.diag(prior - cross @ np.linalg.solve(gram, cross.T))
    return mean, grad, var


def _reference_nlml_grad(ds, hyper, jitter=1e-10):
    """NLML gradient through the full (N, N, n, n) Pi tensor and an explicit K^-1.

    1/2 tr(W dK/dtheta) with W = K^-1 - alpha alpha^T, K^-1 from solving the
    dense Gram against the identity, and every kernel term contracted with
    the Pi blocks (or their lengthscale derivatives) element by element.
    """
    x = ds.states
    n, n_pts = x.shape
    sf2 = hyper.sigma_f**2
    struct = hyper.structure
    cho = cho_factor(_dense_gram(ds, hyper) + jitter * np.eye(n * n_pts), lower=True)
    alpha = cho_solve(cho, _dense_targets(ds, hyper))
    w = cho_solve(cho, np.eye(n * n_pts)) - np.outer(alpha, alpha)
    k_se, d, pi = backend.pi_tensor(x, x, hyper.lengthscales)
    s = struct.jr()
    # sw[a, b, i, l] = sum_k S_ki W[(a, k), (b, l)]; right factors act on l
    sw = np.einsum("ki,akbl->abil", s, w.reshape(n_pts, n, n_pts, n)).reshape(-1, n)
    w_tilde = (sw @ s).reshape(pi.shape)
    grad = np.empty(hyper.n_hyper)
    grad[0] = sf2 * np.vdot(w_tilde, pi)
    # dPi/dlog l_q = v_q d_q^2 Pi + 2 k v_q (d_q (e_q (v d)^T + (v d) e_q^T) - e_q e_q^T)
    v = 1.0 / hyper.lengthscales**2
    w_pi = np.einsum("abij,abij->ab", w_tilde, pi)
    w_vd = np.einsum("abij,abj->abi", w_tilde + w_tilde.transpose(0, 1, 3, 2), d * v)
    w_qq = np.einsum("abii->abi", w_tilde)
    dpi_terms = w_pi[:, :, None] * d**2 + 2.0 * k_se[:, :, None] * (d * w_vd - w_qq)
    grad[1 : 1 + n] = 0.5 * sf2 * v * dpi_terms.sum(axis=(0, 1))
    grad[1 + n : 1 + 2 * n] = 0.5 * hyper.noise_var * np.diagonal(w).reshape(n_pts, n).sum(axis=0)
    phi = struct.phi
    for p, (ds_p, dg) in enumerate(zip(struct.family.jr_param_grad(phi), struct.family.g_param_grad(phi))):
        dm = -(dg @ ds.inputs).T.ravel()
        grad[1 + 2 * n + p] = sf2 * np.vdot((sw @ ds_p).reshape(pi.shape), pi) + alpha @ dm
    return grad


def _hamiltonian_by_quadrature(model, x, tol=1e-9):
    """H_hat(x) as the line integral of grad H_hat along the straight path from x_ref."""
    delta = x - model.x_ref

    def integrand(s):
        return model.hamiltonian_grad((model.x_ref + s * delta)[:, None])[:, 0] @ delta

    return quad_vec(integrand, 0.0, 1.0, epsabs=tol, epsrel=tol)[0]


def _random_model(family, rng):
    """A model conditioned on a random training set of 12 states, with random hyperparameters."""
    if family == "microactuator":
        structure = micro_structure(b=float(rng.uniform(0.2, 1.5)), r=float(rng.uniform(0.5, 2.0)))
    else:
        # J - R is singular here: the third row is zero
        structure = StructureEstimate(
            family=FixedStructure(
                j=np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                r=np.diag([0.0, float(rng.uniform(0.2, 1.5)), 0.0]),
                g=np.array([[0.0], [0.0], [1.0]]),
            ),
            phi=np.zeros(0),
        )
    hyper = GpHyperparams(
        sigma_f=float(rng.uniform(0.5, 2.0)),
        lengthscales=rng.uniform(0.5, 1.5, size=3),
        noise_var=rng.uniform(5e-3, 2e-2, size=3),
        structure=structure,
    )
    ds = FilteredDataset(
        states=rng.uniform(-1.0, 1.0, size=(3, 12)),
        derivatives=rng.standard_normal((3, 12)),
        inputs=rng.standard_normal((1, 12)),
        times=np.arange(12.0),
    )
    return ds, hyper, condition(ds, hyper, jitter=0.0)


@pytest.mark.parametrize("family", ["microactuator", "fixed"])
@pytest.mark.parametrize("n_query", [1, 21, 261])
def test_weight_space_mean_and_grad_match_dense_oracle(family, n_query):
    # the cached-weight posterior against the cross-covariance route; the
    # fixed family's singular J - R leaves grad H_hat undetermined by mu alone
    rng = np.random.default_rng(n_query + (0 if family == "microactuator" else 1000))
    ds, hyper, model = _random_model(family, rng)
    xq = rng.uniform(-1.5, 1.5, size=(3, n_query))
    mean_o, grad_o, var_o = _dense_mean_grad_h_and_var(ds, hyper, xq)
    mean = model.drift_mean(xq)
    grad = model.hamiltonian_grad(xq)
    assert mean.shape == grad.shape == (3, n_query)
    assert np.max(np.abs(mean - mean_o)) <= 1e-10 * np.max(np.abs(mean_o))
    assert np.max(np.abs(grad - grad_o)) <= 1e-10 * np.max(np.abs(grad_o))
    # the variance reads the same SE evaluation as the mean, per block of
    # query states, through the cross-covariance blocks of backend.phs_blocks
    mean_d, var = model.drift(xq)
    np.testing.assert_array_equal(mean_d, mean)
    assert var.shape == (3, n_query)
    assert np.max(np.abs(var - var_o)) <= 1e-10 * np.max(np.abs(var_o))
    # dynamics at single states: the oracle plus G_hat u, and equal to drift
    # on the one column plus G_hat u
    for q in range(min(n_query, 3)):
        x, u = xq[:, q].copy(), rng.standard_normal(1)
        dyn_mean, dyn_var = model.dynamics(x, u)
        gu = model.g_hat @ u
        scale = np.max(np.abs(mean_o[:, q] + gu))
        assert np.max(np.abs(dyn_mean - (mean_o[:, q] + gu))) <= 1e-10 * scale
        assert np.max(np.abs(dyn_var - var_o[:, q])) <= 1e-10 * np.max(np.abs(var_o))
        mean_1, var_1 = model.drift(x[:, None])
        np.testing.assert_array_equal(dyn_mean, mean_1[:, 0] + gu)
        np.testing.assert_array_equal(dyn_var, var_1[:, 0])


@pytest.fixture(scope="module")
def small_dataset(filtered_full):
    return subset(filtered_full, 30)  # 10 points


@pytest.fixture(scope="module")
def small_model(small_dataset):
    return condition(small_dataset, micro_hypers(), jitter=0.0)


def test_posterior_matches_dense_conditioning(small_dataset, small_model):
    hyper = micro_hypers()
    rng = np.random.default_rng(4)
    for _ in range(5):
        xq = rng.uniform(-0.5, 1.5, size=3)
        mean_o, var_o, _, _ = _dense_posterior(small_dataset, hyper, xq)
        mean, var = small_model.drift(xq[:, None])
        np.testing.assert_allclose(mean[:, 0], mean_o, atol=1e-10)
        np.testing.assert_allclose(var[:, 0], var_o, atol=1e-10)


def test_nlml_matches_dense_formula(small_dataset, small_model):
    hyper = micro_hypers()
    gram = _dense_gram(small_dataset, hyper)
    y = _dense_targets(small_dataset, hyper)
    sign, logdet = np.linalg.slogdet(gram)
    assert sign > 0
    expected = 0.5 * y @ np.linalg.solve(gram, y) + 0.5 * logdet + (y.size / 2) * np.log(2 * np.pi)
    assert small_model.nlml == pytest.approx(expected, abs=1e-9)


def test_nlml_scalar_hand_value():
    # one-state system, two samples far enough apart that the cross term
    # underflows to exactly zero: K = diag(sf^2 s^2 / l^2 + noise) and the
    # NLML splits into two independent scalar contributions
    structure = StructureEstimate(
        family=FixedStructure(
            j=np.zeros((1, 1)), r=np.array([[0.8]]), g=np.array([[1.0]])
        ),
        phi=np.zeros(0),
    )
    hyper = GpHyperparams(
        sigma_f=1.5, lengthscales=np.array([0.7]), noise_var=np.array([0.01]), structure=structure
    )
    ds = FilteredDataset(
        states=np.array([[0.4, 1000.0]]),
        derivatives=np.array([[1.1, 0.2]]),
        inputs=np.array([[0.3, 0.0]]),
        times=np.array([0.0, 1.0]),
    )
    ys = np.array([1.1 - 1.0 * 0.3, 0.2])
    k_val = 1.5**2 * (-0.8) * (1 / 0.7**2) * (-0.8) + 0.01
    expected = np.sum(ys**2) / (2 * k_val) + np.log(k_val) + np.log(2 * np.pi)
    value = negative_log_marginal_likelihood(ds, hyper, jitter=0.0, with_grad=False)
    assert value == pytest.approx(expected, abs=1e-12)


def _coupled_fixed_structure():
    # a parameter-free family whose S = J - R is neither symmetric nor skew
    # and couples every state
    return StructureEstimate(
        family=FixedStructure(
            j=np.array([[0.0, 1.0, 0.4], [-1.0, 0.0, 0.7], [-0.4, -0.7, 0.0]]),
            r=np.array([[0.3, 0.1, 0.0], [0.1, 0.5, 0.2], [0.0, 0.2, 0.8]]),
            g=np.array([[0.0], [0.0], [1.0]]),
        ),
        phi=np.zeros(0),
    )


def test_nlml_gradient_matches_finite_differences(filtered_full):
    ds = subset(filtered_full, 20)  # 15 points
    for hyper in (micro_hypers(), micro_hypers(_coupled_fixed_structure())):
        _, grad = negative_log_marginal_likelihood(ds, hyper, with_grad=True)
        theta0 = hyper.to_vector()
        fd = np.zeros_like(theta0)
        for i in range(theta0.size):
            h = 1e-6
            up, down = theta0.copy(), theta0.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (
                negative_log_marginal_likelihood(ds, hyper.from_vector(up), with_grad=False)
                - negative_log_marginal_likelihood(ds, hyper.from_vector(down), with_grad=False)
            ) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(1e-8, np.abs(fd))
        assert np.max(rel) <= 5e-5


class _SkewParamStructure(StructureFamily):
    """S = S_0 + phi_0 J_1 - phi_1 R_1 with J_1 skew: dS/dphi_0 is not symmetric,
    unlike every dS of the microactuator family."""

    dim_state = 3
    dim_input = 1
    n_params = 2
    _j1 = np.array([[0.0, 0.3, -0.8], [-0.3, 0.0, 0.5], [0.8, -0.5, 0.0]])
    _r1 = np.array([[0.4, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.6]])

    def jr(self, phi):
        return _coupled_fixed_structure().jr() + phi[0] * self._j1 - phi[1] * self._r1

    def g(self, phi):
        return np.array([[0.0], [0.0], [1.0]])

    def jr_param_grad(self, phi):
        return np.stack([self._j1, -self._r1])

    def g_param_grad(self, phi):
        return np.zeros((2, 3, 1))


@pytest.mark.parametrize("step", [20, 6, 150, 300])  # 15, 50, 2 and 1 points
def test_nlml_gradient_matches_reference_contraction(filtered_full, step):
    # the closed-form contractions over the strict-lower pairs and the
    # diagonal blocks, from the Cholesky factor, against the Pi-tensor
    # contraction with an explicit inverse, at the initial hyperparameters
    # and away from them.  Two points have one strict-lower pair and one
    # point none; FilteredDataset needs two samples, and the likelihood reads
    # only states, derivatives and inputs, so every case is a namespace
    idx = np.arange(0, filtered_full.n_points, step)
    ds = SimpleNamespace(
        states=filtered_full.states[:, idx],
        derivatives=filtered_full.derivatives[:, idx],
        inputs=filtered_full.inputs[:, idx],
        n_points=idx.size,
    )
    skew = StructureEstimate(family=_SkewParamStructure(), phi=np.array([0.5, 0.7]))
    for init in (micro_hypers(), micro_hypers(_coupled_fixed_structure()), micro_hypers(skew)):
        for hyper in (init, init.from_vector(init.to_vector() + 0.1)):
            value, grad = negative_log_marginal_likelihood(ds, hyper, with_grad=True)
            ref = _reference_nlml_grad(ds, hyper)
            assert np.max(np.abs(grad - ref)) <= 1e-10 * np.max(np.abs(ref))
            assert value == negative_log_marginal_likelihood(ds, hyper, with_grad=False)


def test_gradient_identity_and_dual_route_hamiltonian(small_dataset, small_model):
    hyper = micro_hypers()
    est = hyper.structure
    _, _, gram, y = _dense_posterior(small_dataset, hyper, np.zeros(3))
    alpha = np.linalg.solve(gram, y)

    def h_direct(x):
        # conditioning the latent energy on the derivative observations:
        # cov(H(x), xdot_i) = sf^2 Jr(x_i) grad_x' k(x, x_i)
        out = 0.0
        v = 1.0 / hyper.lengthscales**2
        for i in range(small_dataset.n_points):
            xi = small_dataset.states[:, i]
            c = hyper.sigma_f**2 * est.jr() @ (v * (x - xi) * _se(x, xi, hyper.lengthscales))
            out += c @ alpha[3 * i : 3 * i + 3]
        return out

    rng = np.random.default_rng(9)
    for _ in range(4):
        x = rng.uniform(-0.5, 1.5, size=3)
        mean = small_model.drift(x[:, None])[0][:, 0]
        grad = small_model.hamiltonian_grad(x[:, None])[:, 0]
        np.testing.assert_allclose(est.jr() @ grad, mean, atol=1e-8)
        value = small_model.hamiltonian(x[:, None])[0]
        direct = h_direct(x) - h_direct(np.zeros(3))
        assert value == pytest.approx(direct, abs=1e-10)
        # independent route: line integral of the recovered gradient
        line = _hamiltonian_by_quadrature(small_model, x)
        assert value == pytest.approx(line, abs=1e-6)


def test_hamiltonian_reference_pin(small_model):
    assert small_model.hamiltonian(np.zeros((3, 1)))[0] == pytest.approx(0.0, abs=1e-12)


def test_hamiltonian_bits_do_not_depend_on_the_batch(small_model):
    # each H_hat value is a sum over the training states alone, so a state
    # gets the same bits alone as in any batch, across _VAR_CHUNK blocks too
    rng = np.random.default_rng(11)
    for n_query in (2, 129, 2100):
        xq = rng.uniform(-0.5, 1.5, size=(3, n_query))
        batch = small_model.hamiltonian(xq)
        for q in rng.choice(n_query, min(n_query, 20), replace=False):
            assert small_model.hamiltonian(xq[:, q : q + 1])[0] == batch[q]


@pytest.mark.parametrize("method", ["drift", "drift_mean", "envelope", "hamiltonian", "hamiltonian_grad"])
def test_queries_take_states_as_columns_only(small_model, method):
    # a (Q, n) array is not read as Q states, and one state (n,) is not read
    # as n states
    xq = np.random.default_rng(12).uniform(-0.5, 1.5, size=(5, 3))
    for bad in (xq, xq[0]):
        with pytest.raises(ValueError, match=r"\(3, Q\)"):
            getattr(small_model, method)(bad)


def test_mean_is_a_phs_model_of_the_posterior_mean(small_model):
    # the control layer reads mu as eval_dynamics(mean, x, 0): the same bits
    # as drift_mean, from j - r = S exactly, and one state (n,) is column 0
    # of a one-column block
    mean = small_model.mean
    np.testing.assert_array_equal(mean.j - mean.r, small_model.s_hat)
    np.testing.assert_array_equal(mean.j, -mean.j.T)
    np.testing.assert_array_equal(mean.r, mean.r.T)
    np.testing.assert_array_equal(mean.g, small_model.g_hat)
    b_hat = small_model.structure.family.values(small_model.structure.phi)[0]
    assert mean.r[1, 1] == b_hat
    xq = np.random.default_rng(13).uniform(-0.5, 1.5, size=(3, 50))
    u0 = np.zeros(1)
    np.testing.assert_array_equal(eval_dynamics(mean, xq, u0), small_model.drift_mean(xq))
    np.testing.assert_array_equal(mean.hamiltonian_gradient(xq), small_model.hamiltonian_grad(xq))
    np.testing.assert_array_equal(mean.hamiltonian(xq), small_model.hamiltonian(xq))
    x = xq[:, 0]
    np.testing.assert_array_equal(eval_dynamics(mean, x, u0), small_model.drift_mean(x[:, None])[:, 0])
    assert mean.hamiltonian(x) == small_model.hamiltonian(x[:, None])[0]


def test_hamiltonian_minimum_is_a_root_of_the_gradient(small_model):
    box = list(zip(small_model.states.min(axis=1), small_model.states.max(axis=1)))
    center, root_exit = find_hamiltonian_minimum(small_model.mean, box)
    grad_inf = np.max(np.abs(small_model.hamiltonian_grad(center[:, None])))
    assert root_exit["status"] == 1
    assert root_exit["grad_inf_norm"] == grad_inf
    assert grad_inf <= 1e-8


def test_envelope_scales_with_beta(small_model):
    # envelope reads the variance alone from the same blocks as drift; 129
    # and 261 states cross the _VAR_CHUNK boundary
    rng = np.random.default_rng(6)
    small_model.beta = np.array([1.0, 2.0, 4.0])
    for n_query in (1, 129, 261):
        xq = rng.uniform(-0.5, 1.5, size=(3, n_query))
        env = small_model.envelope(xq)
        _, var = small_model.drift(xq)
        np.testing.assert_array_equal(env, np.array([1.0, 2.0, 4.0])[:, None] * var)
    small_model.beta = np.ones(3)


def test_calibration_sets_percentile_coverage(small_model, filtered_full):
    validation = subset(filtered_full, 7)
    beta = calibrate_beta(small_model, validation)
    mean, var = small_model.drift(validation.states)
    target = mean_adjust(validation, small_model.structure).reshape(validation.n_points, -1).T
    covered = np.abs(mean - target) <= beta[:, None] * np.maximum(var, 1e-12) + 1e-12
    # interpolated percentile can sit one order statistic below the target
    assert np.all(np.mean(covered, axis=1) >= BETA_PERCENTILE / 100.0 - 1.0 / validation.n_points)
    small_model.beta = np.ones(3)


def test_training_improves_on_init(filtered_full):
    ds = subset(filtered_full, 12)  # 25 points
    init = micro_hypers()
    start = negative_log_marginal_likelihood(ds, init, with_grad=False)
    model = train(
        ds,
        init,
        optimizer_config=OptimizerConfig(restarts=2, max_iter=60),
        rng=np.random.default_rng(1),
    )
    assert np.isfinite(model.nlml)
    assert model.nlml < start


def _same_fit(model, other):
    assert model.restarts == other.restarts
    assert model.hyper.to_vector().tobytes() == other.hyper.to_vector().tobytes()
    for name in ("states", "l_inv", "alpha", "nlml", "jitter_used"):
        np.testing.assert_array_equal(getattr(model, name), getattr(other, name), err_msg=name)


def test_memoized_training_matches_unmemoized(clean_trajectory, monkeypatch):
    # on noiseless data L-BFGS-B asks again for points it has evaluated (after
    # a failed trial step); the kept results answer those requests, and the
    # fit is the same bit for bit
    ds = subset(filter_derivatives(clean_trajectory), 12)  # 25 points
    nlml = gp_mod.negative_log_marginal_likelihood
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return nlml(*args, **kwargs)

    def fit():
        calls.clear()
        cfg = OptimizerConfig(restarts=2, max_iter=60)
        model = train(ds, micro_hypers(), optimizer_config=cfg, rng=np.random.default_rng(1))
        return model, len(calls)

    monkeypatch.setattr(gp_mod, "negative_log_marginal_likelihood", counted)
    memoized, n_memoized = fit()
    monkeypatch.setattr(gp_mod, "_memo_recent_and_best", lambda objective: objective)
    plain, n_plain = fit()
    assert n_plain == sum(r["nfev"] for r in plain.restarts)
    assert n_memoized < n_plain
    _same_fit(memoized, plain)


def test_memo_keeps_the_lowest_result_beyond_the_last_two():
    # L-BFGS-B returns to its iterate after a rejected and an infeasible
    # trial: theta_1 (the lowest value), theta_2, theta_3, then theta_1 again
    calls = []

    def objective(theta):
        calls.append(theta.copy())
        return float(theta[0]), np.full(2, theta[0])

    memoized = gp_mod._memo_recent_and_best(objective)
    thetas = [np.array([-1.0, 0.0]), np.array([2.0, 0.0]), np.array([1e25, 0.0])]
    for theta in thetas + [thetas[0]]:
        value, grad = memoized(theta)
        assert value == theta[0] and np.all(grad == theta[0])
    assert len(calls) == 3
    # a returned gradient is a copy: altering it leaves the kept one intact
    memoized(thetas[0])[1][:] = 7.0
    assert np.all(memoized(thetas[0])[1] == -1.0)
    # the last two stay kept beside the lowest; older points are evaluated again
    memoized(thetas[2])
    assert len(calls) == 3
    memoized(np.array([3.0, 0.0]))
    memoized(thetas[1])
    assert len(calls) == 5


def test_training_does_not_depend_on_the_state_layout(filtered_full):
    # filtered_from_csv returns transposed, non-C-ordered blocks; every Gram of
    # training and conditioning is built from a C-ordered copy of the states
    ds = subset(filtered_full, 12)  # 25 points
    table = np.column_stack([ds.times, ds.states.T, ds.derivatives.T, ds.inputs.T])
    strided = FilteredDataset(
        states=table[:, 1:4].T, derivatives=table[:, 4:7].T, inputs=table[:, 7:].T, times=table[:, 0]
    )
    assert not strided.states.flags.c_contiguous
    contiguous = FilteredDataset(
        states=np.ascontiguousarray(strided.states),
        derivatives=np.ascontiguousarray(strided.derivatives),
        inputs=np.ascontiguousarray(strided.inputs),
        times=strided.times,
    )
    cfg = OptimizerConfig(restarts=2, max_iter=30)
    fits = [train(d, micro_hypers(), optimizer_config=cfg, rng=np.random.default_rng(1)) for d in (strided, contiguous)]
    _same_fit(*fits)


def test_reused_workspace_matches_a_fresh_one(filtered_full, monkeypatch):
    # one training set's workspace serves every likelihood call of a fit;
    # after a call whose Gram needed jitter (a repeated state without noise,
    # so potrf fails part-way through the reused buffer), the next call is
    # the same bit for bit as on a new training set
    ds = subset(filtered_full, 12)
    states = ds.states.copy()
    states[:, -1] = states[:, 0]
    repeated = FilteredDataset(states=states, derivatives=ds.derivatives, inputs=ds.inputs, times=ds.times)
    theta1 = micro_hypers()
    theta2 = GpHyperparams(
        sigma_f=theta1.sigma_f, lengthscales=theta1.lengthscales, noise_var=np.zeros(3), structure=theta1.structure
    )
    jitters = []
    factorize = gp_mod.factorize_gram

    def recorded(*args, **kwargs):
        out = factorize(*args, **kwargs)
        jitters.append(out[1])
        return out

    monkeypatch.setattr(gp_mod, "factorize_gram", recorded)
    pairs = TrainingPairs(repeated.states)
    first = negative_log_marginal_likelihood(repeated, theta1, jitter=0.0, pairs=pairs)
    negative_log_marginal_likelihood(repeated, theta2, jitter=0.0, pairs=pairs)
    again = negative_log_marginal_likelihood(repeated, theta1, jitter=0.0, pairs=pairs)
    fresh = negative_log_marginal_likelihood(repeated, theta1, jitter=0.0, pairs=TrainingPairs(repeated.states))
    assert jitters[:2] == [0.0, 1e-12]
    assert again[0] == fresh[0] == first[0]
    np.testing.assert_array_equal(again[1], fresh[1])
    np.testing.assert_array_equal(again[1], first[1])


def test_trained_model_shares_no_memory_with_the_likelihood_workspace(filtered_full, monkeypatch):
    # the fit's workspace is released when train returns, and the model's
    # inverse factor and weights come from a Gram of their own
    nlml = gp_mod.negative_log_marginal_likelihood
    held = {}

    def recorded(*args, pairs=None, **kwargs):
        out = nlml(*args, pairs=pairs, **kwargs)
        held[id(pairs)] = pairs
        for buffer in vars(pairs._work).values():
            held[id(buffer)] = buffer
        return out

    monkeypatch.setattr(gp_mod, "negative_log_marginal_likelihood", recorded)
    model = train(subset(filtered_full, 12), micro_hypers(), optimizer_config=OptimizerConfig(restarts=2, max_iter=20))
    workspaces = [p for p in held.values() if isinstance(p, TrainingPairs)]
    buffers = [b for b in held.values() if isinstance(b, np.ndarray)]
    assert len(workspaces) == 1 and workspaces[0]._work is None
    assert len(buffers) == 4
    for buffer in buffers:
        assert not np.shares_memory(model.l_inv, buffer)
        assert not np.shares_memory(model.alpha, buffer)


def test_training_survives_extreme_restart_points(filtered_full):
    # huge perturbations make restart line searches under/overflow the exp in
    # the log-parameter unpacking; those trials must register as infeasible,
    # not crash the run
    ds = subset(filtered_full, 30)
    model = train(
        ds,
        micro_hypers(),
        optimizer_config=OptimizerConfig(restarts=3, max_iter=40, perturb_scale=50.0),
        rng=np.random.default_rng(2),
    )
    assert np.isfinite(model.nlml)


def test_training_all_restarts_failing(filtered_full):
    ds = subset(filtered_full, 30)
    bad = FilteredDataset(
        states=np.full_like(ds.states, np.nan),
        derivatives=ds.derivatives,
        inputs=ds.inputs,
        times=ds.times,
    )
    with pytest.raises((TrainingError, ConditioningError)):
        train(bad, micro_hypers(), optimizer_config=OptimizerConfig(restarts=2, max_iter=10))


def _underflowed_r_hyper():
    # softplus(-800) is exactly 0, so r_hat = 0 and 1 / r_hat is undefined
    family = MicroactuatorStructure()
    return micro_hypers(StructureEstimate(family=family, phi=np.array([0.0, -800.0])))


def test_nlml_rejects_underflowed_structure_value(filtered_full):
    with pytest.raises(ValueError, match="underflows"):
        negative_log_marginal_likelihood(subset(filtered_full, 30), _underflowed_r_hyper())


def test_training_from_underflowed_structure_value_fails_cleanly(filtered_full):
    with pytest.raises(TrainingError):
        train(
            subset(filtered_full, 30),
            _underflowed_r_hyper(),
            optimizer_config=OptimizerConfig(restarts=1, max_iter=10),
        )


def test_lengthscale_recovery_from_prior_sample():
    # draw one exact prior sample on a 2-state fixed structure and check the
    # optimizer finds lengthscales near the generating ones
    gen = np.random.default_rng(17)
    structure = StructureEstimate(
        family=FixedStructure(
            j=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            r=np.diag([0.0, 0.5]),
            g=np.array([[0.0], [1.0]]),
        ),
        phi=np.zeros(0),
    )
    true = GpHyperparams(
        sigma_f=1.0,
        lengthscales=np.array([0.6, 1.8]),
        noise_var=np.array([1e-4, 1e-4]),
        structure=structure,
    )
    states = gen.uniform(-2, 2, size=(2, 40))
    ds_empty = FilteredDataset(
        states=states,
        derivatives=np.zeros((2, 40)),
        inputs=np.zeros((1, 40)),
        times=np.arange(40.0),
    )
    gram = _dense_gram(ds_empty, true)
    sample = np.linalg.cholesky(gram + 1e-12 * np.eye(80)) @ gen.standard_normal(80)
    ds = FilteredDataset(
        states=states,
        derivatives=sample.reshape(40, 2).T,
        inputs=np.zeros((1, 40)),
        times=np.arange(40.0),
    )
    init = GpHyperparams(
        sigma_f=0.7,
        lengthscales=np.array([1.0, 1.0]),
        noise_var=np.array([1e-3, 1e-3]),
        structure=structure,
    )
    model = train(ds, init, optimizer_config=OptimizerConfig(restarts=3, max_iter=200), rng=np.random.default_rng(2))
    ratio = model.hyper.lengthscales / true.lengthscales
    assert np.all(ratio > 0.7) and np.all(ratio < 1.4)


def test_save_load_round_trip(tmp_path, small_model):
    small_model.beta = np.array([2.0, 3.0, 1.5])
    path = tmp_path / "model.json"
    save_model(small_model, path)
    back = load_model(path)
    small_model.beta = np.ones(3)
    xq = np.array([[0.5, 1.2], [0.3, -0.4], [0.7, 0.2]])
    m1, v1 = small_model.drift(xq)
    m2, v2 = back.drift(xq)
    np.testing.assert_array_equal(m2, m1)
    np.testing.assert_array_equal(v2, v1)
    np.testing.assert_array_equal(back.beta, [2.0, 3.0, 1.5])
    np.testing.assert_array_equal(back.hamiltonian(xq), small_model.hamiltonian(xq))
    # the fixture's states are Fortran-ordered and load_model reads C-ordered
    # ones; both models build the Gram from a C-ordered copy, so everything
    # the loaded model stores equals the conditioned model's bit for bit
    for name in ("g_hat", "s_hat", "prior_var", "h_weights", "l_inv", "alpha", "nlml", "jitter_used"):
        np.testing.assert_array_equal(getattr(back, name), getattr(small_model, name), err_msg=name)


def test_save_load_round_trip_of_a_fixed_structure(tmp_path, small_dataset):
    # the fixed family's matrices go through the JSON model file, and the
    # loaded model's posterior equals the conditioned one's bit for bit
    c_ordered = FilteredDataset(
        states=np.ascontiguousarray(small_dataset.states),
        derivatives=small_dataset.derivatives,
        inputs=small_dataset.inputs,
        times=small_dataset.times,
    )
    model = condition(c_ordered, micro_hypers(_coupled_fixed_structure()), jitter=0.0)
    save_model(model, tmp_path / "model.json")
    back = load_model(tmp_path / "model.json")
    assert isinstance(back.structure.family, FixedStructure)
    np.testing.assert_array_equal(back.structure.jr(), model.structure.jr())
    np.testing.assert_array_equal(back.g_hat, model.g_hat)
    xq = np.array([[0.5, 1.2], [0.3, -0.4], [0.7, 0.2]])
    for got, want in zip(back.drift(xq), model.drift(xq)):
        np.testing.assert_array_equal(got, want)


def test_unknown_structure_family_kind_is_named():
    with pytest.raises(ValueError, match="pendulum"):
        structure_from_jsonable({"family": {"kind": "pendulum"}, "phi": []})


def test_save_load_round_trip_is_bit_exact_on_c_ordered_states(tmp_path, small_dataset):
    # condition and load_model share one conditioning routine: given states
    # in the layout load_model reads, everything the loaded model stores
    # equals the conditioned model's bit for bit
    c_ordered = FilteredDataset(
        states=np.ascontiguousarray(small_dataset.states),
        derivatives=small_dataset.derivatives,
        inputs=small_dataset.inputs,
        times=small_dataset.times,
    )
    model = condition(c_ordered, micro_hypers(), jitter=0.0)
    save_model(model, tmp_path / "model.json")
    back = load_model(tmp_path / "model.json")
    for name in ("g_hat", "s_hat", "prior_var", "h_weights", "l_inv", "alpha", "nlml", "jitter_used"):
        np.testing.assert_array_equal(getattr(back, name), getattr(model, name), err_msg=name)


def test_stored_inverse_factor_inverts_the_gram_cholesky_factor(small_dataset, small_model):
    gram = gram_matrix(small_dataset.states, small_model.hyper, jitter=small_model.jitter_used)
    lower = np.linalg.cholesky(gram)
    np.testing.assert_allclose(small_model.l_inv @ lower, np.eye(lower.shape[0]), rtol=0, atol=1e-12)
    assert np.all(np.triu(small_model.l_inv, 1) == 0.0)


def test_loaded_model_variance_matches_conditioned(tmp_path, filtered_full):
    model = condition(subset(filtered_full, 3), micro_hypers())
    save_model(model, tmp_path / "model.json")
    back = load_model(tmp_path / "model.json")
    s = model.structure.jr()
    prior = model.hyper.sigma_f**2 * (s**2 @ (1.0 / model.hyper.lengthscales**2))
    lo, hi = model.states.min(axis=1), model.states.max(axis=1)
    xq = lo[:, None] + (hi - lo)[:, None] * np.random.default_rng(5).uniform(size=(3, 200))
    diff = np.abs(back.drift(xq)[1] - model.drift(xq)[1])
    assert np.all(diff <= 1e-13 * prior[:, None])


def test_invert_factor_zeroes_the_strict_upper_triangle():
    # factorize_gram leaves the strict upper triangle unwritten; the model's
    # L^-1 has it zero whatever it held, over more than one inverse leaf
    x = np.random.default_rng(4).standard_normal((130, 135))
    factor = np.array(np.linalg.cholesky(x @ x.T + 130 * np.eye(130)), order="F")
    expected = np.linalg.inv(factor)
    factor[np.triu_indices(130, 1)] = np.nan
    l_inv = _invert_factor(factor)
    assert np.all(np.triu(l_inv, 1) == 0.0)
    np.testing.assert_allclose(l_inv, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


def test_singular_factor_inversion_raises():
    factor = np.array(np.linalg.cholesky(np.diag([4.0, 1.0, 9.0])), order="F")
    factor[1, 1] = 0.0
    with pytest.raises(ConditioningError, match="inversion"):
        _invert_factor(factor)


def test_hyperparameter_vector_round_trip():
    hyper = micro_hypers()
    back = hyper.from_vector(hyper.to_vector())
    assert back.sigma_f == pytest.approx(hyper.sigma_f, rel=1e-12)
    np.testing.assert_allclose(back.lengthscales, hyper.lengthscales, rtol=1e-12)
    np.testing.assert_allclose(back.noise_var, hyper.noise_var, rtol=1e-12)
    np.testing.assert_allclose(back.structure.phi, hyper.structure.phi, rtol=1e-12)


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        GpHyperparams(
            sigma_f=-1.0,
            lengthscales=np.ones(3),
            noise_var=np.ones(3),
            structure=micro_structure(),
        )
    with pytest.raises(ValueError):
        GpHyperparams(
            sigma_f=1.0,
            lengthscales=np.array([1.0, -1.0, 1.0]),
            noise_var=np.ones(3),
            structure=micro_structure(),
        )
