"""Controller synthesis, reference planning, and closed-loop simulation.

These tests run everything on the exact vector field (PerfectPhsModel) so
controller defects are not masked by learning error; learned-model behaviour
is covered by the pipeline and acceptance suites.
"""

import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative  # the differencing least_squares uses

from phs_lab import (
    MicroactuatorParams,
    PhsModel,
    PlanError,
    SimulationDivergedError,
    SynthesisError,
    condition,
    make_microactuator,
    simulate,
)
from phs_lab.control import (
    ReferencePlan,
    _best_fit_problem,
    classical_ida_pbc_control,
    external_output,
    find_hamiltonian_minimum,
    left_annihilator,
    make_desired_dynamics,
    matching_residual,
    microactuator_desired_matrices,
    microactuator_tracking_control,
    plan_from_csv,
    plan_to_csv,
    semi_passive_control,
    simulate_closed_loop,
    simulate_error_dynamics,
    solve_reference_plan,
    tracking_control,
)
from phs_lab.core import eval_dynamics
from phs_lab.filtering import FilteredDataset
from phs_lab.gp import PerfectPhsModel

from conftest import micro_hypers, micro_structure


def primary_reference(t):
    return (1.0 - 0.01 * t - 0.01 * np.sin(0.8 * t), -0.01 - 0.008 * np.cos(0.8 * t))


@pytest.fixture(scope="module")
def plant():
    return make_microactuator(MicroactuatorParams())


@pytest.fixture(scope="module")
def perfect_model(plant):
    # structure matches the true parameters, so mu == (J - R) grad H exactly
    return PerfectPhsModel(plant, micro_structure(b=0.5, r=1.0), x_ref=np.array([1.0, 0.0, 0.0]))


@pytest.fixture(scope="module")
def desired(perfect_model):
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=10.0)
    return make_desired_dynamics(perfect_model, jd, rd, center=np.array([1.0, 0.0, 0.0]))


@pytest.fixture(scope="module")
def plan(perfect_model, desired):
    return solve_reference_plan(
        perfect_model,
        desired,
        primary_reference,
        (0.0, 13.0),
        0.05,
        seed_tail=np.array([0.0, 0.3]),
    )


def test_desired_matrices_properties():
    jd, rd = microactuator_desired_matrices(b_hat=0.7, r_d_inv=4.0)
    np.testing.assert_allclose(jd, -jd.T, atol=0)
    np.testing.assert_allclose(rd, np.diag([0.0, 0.7, 4.0]), atol=0)
    assert np.all(np.linalg.eigvalsh(rd) >= 0.0)


def test_desired_dynamics_center_and_batch(desired):
    assert desired.hd_error_batch(np.zeros((3, 1)))[0] == pytest.approx(0.0, abs=1e-12)
    x = np.array([1.2, 0.3, 0.4])
    x_d = np.array([1.1, 0.1, 0.2])
    xbar = np.array([[0.1, -0.2], [0.05, 0.0], [0.2, 0.3]])
    batch = desired.hd_error_batch(xbar)
    singles = [desired.hd_error_batch(xbar[:, i : i + 1])[0] for i in range(2)]
    np.testing.assert_allclose(batch, singles, atol=1e-12)
    grad_batch = desired.hd_error_grad_batch(xbar)
    np.testing.assert_allclose(
        desired.hd_grad(x, x_d), desired.hd_error_grad_batch((x - x_d)[:, None])[:, 0], atol=0
    )
    assert grad_batch.shape == (3, 2)


def test_hamiltonian_minimum_found(perfect_model):
    box = [(-0.5, 2.0), (-1.0, 1.0), (-1.0, 1.5)]
    xmin = find_hamiltonian_minimum(perfect_model, box)
    np.testing.assert_allclose(xmin, [1.0, 0.0, 0.0], atol=1e-6)


def test_left_annihilator_canonical_form():
    gperp = left_annihilator(np.array([[0.0], [0.0], [2.0]]))
    np.testing.assert_allclose(gperp, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], atol=1e-12)


def test_left_annihilator_is_orthonormal_annihilator():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.normal(size=(4, 2))
        gperp = left_annihilator(g)
        assert gperp.shape == (2, 4)
        np.testing.assert_allclose(gperp @ g, 0.0, atol=1e-12)
        np.testing.assert_allclose(gperp @ gperp.T, np.eye(2), atol=1e-12)


def test_left_annihilator_prev_alignment():
    # small rotation of G must give a small change in Gperp when chained
    g0 = np.array([[0.0], [0.1], [1.0]])
    g1 = np.array([[0.02], [0.12], [1.0]])
    p0 = left_annihilator(g0)
    p1 = left_annihilator(g1, prev=p0)
    assert np.max(np.abs(p1 - p0)) < 0.05
    np.testing.assert_allclose(p1 @ g1, 0.0, atol=1e-12)


def test_left_annihilator_rank_deficient():
    with pytest.raises(SynthesisError):
        left_annihilator(np.column_stack([np.ones(3), np.ones(3)]))


def test_classical_set_point_zero_residual_and_convergence(plant, perfect_model, desired):
    x_d = np.array([1.0, 0.0, 0.0])
    checks = [np.array([0.5, 0.4, 0.3]), np.array([1.5, -0.8, 1.0]), x_d]
    ctrl = classical_ida_pbc_control(plant, desired, x_d, check_states=checks, matching_tol=1e-10)
    traj = simulate_closed_loop(
        plant, lambda x, t: ctrl(x), np.array([0.5, 0.0, 0.5]), (0.0, 40.0), n_samples=200
    )
    assert traj.inputs.shape == (200, 1)
    np.testing.assert_allclose(traj.states[-1], x_d, atol=1e-3)
    hd_vals = desired.hd_error_batch((traj.states - x_d).T)
    assert np.all(np.diff(hd_vals) <= 1e-9)


def test_classical_set_point_detects_mismatch(plant, perfect_model):
    # wrong damping changes the unactuated rows, so matching fails off x2 = 0
    jd, rd = microactuator_desired_matrices(b_hat=0.8, r_d_inv=10.0)
    bad = make_desired_dynamics(perfect_model, jd, rd, center=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(SynthesisError):
        classical_ida_pbc_control(
            plant, bad, np.array([1.0, 0.0, 0.0]), check_states=[np.array([1.0, 0.5, 0.0])]
        )


def test_plan_matches_at_every_grid_point(perfect_model, desired, plan):
    res = [
        np.linalg.norm(matching_residual(perfect_model, desired, plan, plan.xd[k], plan.times[k]))
        for k in range(plan.times.size)
    ]
    assert max(res) <= 1e-6
    # x_d2(0) must equal xdot_d1(0); x_d3(0)^2 balances the spring term
    assert plan.xd[0, 0] == pytest.approx(1.0, abs=0)
    assert plan.xd[0, 1] == pytest.approx(-0.018, abs=1e-9)
    assert plan.xd[0, 2] ** 2 == pytest.approx(0.009, abs=1e-5)


def test_plan_grid_refinement_converged(perfect_model, desired):
    # halving the step must shrink the interpolant gap; the bound is loose
    # near t = 0 where x_d3 rises like a square root and spline accuracy
    # drops below its interior order
    plans = [
        solve_reference_plan(
            perfect_model, desired, primary_reference, (0.0, 6.0), h, seed_tail=np.array([0.0, 0.3])
        )
        for h in (0.1, 0.05, 0.025)
    ]
    t_dense = np.linspace(0.0, 6.0, 601)
    d_coarse = np.max(np.abs(plans[0].x_d(t_dense) - plans[1].x_d(t_dense)))
    d_fine = np.max(np.abs(plans[1].x_d(t_dense) - plans[2].x_d(t_dense)))
    assert d_fine <= 0.35 * d_coarse
    settled = t_dense >= 1.0
    assert np.max(np.abs(plans[1].x_d(t_dense)[settled] - plans[2].x_d(t_dense)[settled])) <= 1e-6


def test_plan_constant_reference_is_stationary(perfect_model, desired):
    plan = solve_reference_plan(
        perfect_model,
        desired,
        lambda t: (1.0, 0.0),
        (0.0, 2.0),
        0.1,
        seed_tail=np.array([0.0, 0.1]),
    )
    # x_d3 enters the matching defect squared, so x_d3 = 0 is a double root
    # and Newton stops near sqrt(newton_tol)
    np.testing.assert_allclose(plan.xd, np.tile([1.0, 0.0, 0.0], (plan.times.size, 1)), atol=2e-6)
    np.testing.assert_allclose(plan.xddot, 0.0, atol=1e-5)


def test_plan_csv_round_trip(plan, tmp_path):
    path = tmp_path / "plan.csv"
    plan_to_csv(plan, path)
    back = plan_from_csv(path)
    np.testing.assert_array_equal(back.times, plan.times)
    np.testing.assert_array_equal(back.xd, plan.xd)
    np.testing.assert_array_equal(back.xddot, plan.xddot)


def test_plan_time_coverage(plan):
    plan.x_d(0.0)
    plan.x_d(13.0)
    with pytest.raises(PlanError):
        plan.x_d(13.1)
    with pytest.raises(PlanError):
        plan.x_d_dot(-0.5)


def test_reduced_law_equals_general(perfect_model, desired, plan):
    general = tracking_control(perfect_model, desired, plan)
    reduced = microactuator_tracking_control(perfect_model, desired, plan)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = np.array([1.0, 0.0, 0.3]) + 0.3 * rng.normal(size=3)
        t = float(rng.uniform(0.0, 13.0))
        np.testing.assert_allclose(reduced(x, t), general(x, t), atol=1e-10)


class _OffsetDrift:
    """Exact model with a constant bias added to the posterior mean."""

    def __init__(self, inner, offset):
        self._inner = inner
        self._offset = np.asarray(offset, dtype=float)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def drift_mean(self, xq):
        return self._inner.drift_mean(xq) + self._offset[:, None]


def test_plan_best_fit_reaches_residual_floor(perfect_model, desired):
    # the bias makes x_d3^2 = -0.02 the exact-matching requirement, so no
    # root exists anywhere; exact mode must refuse.  The minimizer keeps
    # x_d3 at zero and trades the bias between the two unactuated rows by
    # bending x_d2, which caps the pointwise defect well below 0.02 while
    # keeping it bounded away from zero.
    biased = _OffsetDrift(perfect_model, np.array([0.0, -0.02, 0.0]))
    args = (biased, desired, lambda t: (1.0, 0.0), (0.0, 1.0), 0.1)
    with pytest.raises(PlanError):
        solve_reference_plan(*args, seed_tail=np.array([0.0, 0.1]))
    plan = solve_reference_plan(*args, seed_tail=np.array([0.0, 0.1]), mode="best-fit")
    res = [
        np.linalg.norm(matching_residual(biased, desired, plan, plan.xd[k], plan.times[k]))
        for k in range(plan.times.size)
    ]
    assert 0.004 <= max(res) <= 0.02
    np.testing.assert_allclose(plan.xd[:, 2], 0.0, atol=1e-2)
    with pytest.raises(ValueError):
        solve_reference_plan(*args, mode="fastest")


@pytest.mark.parametrize("kind", ["gp", "perfect"])
def test_best_fit_jacobian_matches_finite_differences(kind, plant, perfect_model):
    # the closed-form banded Jacobian against scipy's own differencing of the
    # residual, at random tails on a 9-point grid
    model = perfect_model
    if kind == "gp":
        u_fn = lambda t: np.array([np.sin(t)])
        traj = simulate(plant, np.array([0.0, 0.0, 1.0]), u_fn, (0.0, 20.0), n_samples=30)
        derivs = np.stack(
            [eval_dynamics(plant, x, u) for x, u in zip(traj.states, traj.inputs)], axis=1
        )
        ds = FilteredDataset(
            states=traj.states.T, derivatives=derivs, inputs=traj.inputs.T, times=traj.times
        )
        model = condition(ds, micro_hypers())
    rng = np.random.default_rng(5)
    n_grid, step = 9, 0.1
    xd1 = 1.0 + 0.05 * rng.standard_normal(n_grid)
    xd1dot = 0.1 * rng.standard_normal(n_grid)
    shaped0 = rng.standard_normal(3)
    residual, jacobian = _best_fit_problem(
        model, xd1, xd1dot, shaped0, np.array([xd1[0], 0.0, 0.5]), step
    )
    for _ in range(3):
        z = np.column_stack(
            [rng.uniform(-0.3, 0.3, n_grid), rng.uniform(0.2, 1.2, n_grid)]
        ).ravel()
        jac = jacobian(z)
        fd = approx_derivative(residual, z, method="3-point")
        assert jac.shape == fd.shape == (2 * n_grid, 2 * n_grid)
        np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-8 * np.max(np.abs(fd)))


class _StateDependentInput:
    """Exact model whose input matrix varies with the state."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def io_matrix(self, x):
        return self._inner.io_matrix(x) * (1.0 + 0.1 * x[0])


def test_plan_best_fit_rejects_state_dependent_input(perfect_model, desired):
    with pytest.raises(PlanError, match="state-independent input matrix"):
        solve_reference_plan(
            _StateDependentInput(perfect_model),
            desired,
            lambda t: (1.0, 0.0),
            (0.0, 1.0),
            0.1,
            seed_tail=np.array([0.0, 0.1]),
            mode="best-fit",
        )


def test_semi_passive_adds_external_input():
    base = lambda x, t: np.array([1.0])
    combined = semi_passive_control(base, lambda t: np.array([0.5 * t]))
    np.testing.assert_allclose(combined(np.zeros(3), 2.0), [2.0], atol=1e-15)


def test_external_output_hand_value(perfect_model, desired):
    # y_ex = G^T grad H_d with grad H evaluated at center + x - x_d
    xd_row = np.array([1.1, 0.1, 0.2])
    plan = ReferencePlan(
        times=np.array([0.0, 1.0]), xd=np.tile(xd_row, (2, 1)), xddot=np.zeros((2, 3))
    )
    y_ex = external_output(perfect_model, desired, plan)
    val = y_ex(np.array([1.2, 0.3, 0.4]), 0.5)
    assert val == pytest.approx(2 * 1.1 * 0.2, abs=1e-12)


def test_tracking_control_rejects_singular_g(perfect_model, desired, plan):
    class _NoInput:
        def io_matrix(self, x):
            return np.zeros((3, 1))

    with pytest.raises(SynthesisError):
        tracking_control(_NoInput(), desired, plan)


def test_closed_loop_divergence_reports_last_time(plant):
    with pytest.raises(SimulationDivergedError) as err:
        simulate_closed_loop(
            plant, lambda x, t: np.array([50.0]), np.zeros(3), (0.0, 20.0), blowup=5.0
        )
    assert 0.0 <= err.value.last_valid_time <= 20.0


def test_closed_loop_matches_open_loop_failure_modes():
    # the gradient is non-finite once the state leaves (-1, 1); a constant
    # input of 1 drives x = t there at t = 1
    edge = PhsModel(
        dim_state=1,
        dim_input=1,
        interconnection=lambda x: np.zeros((1, 1)),
        dissipation=lambda x: np.zeros((1, 1)),
        io_matrix=lambda x: np.ones((1, 1)),
        hamiltonian=lambda x: 0.5 * float(x @ x),
        hamiltonian_gradient=lambda x: np.where(np.abs(x) < 1.0, x, np.nan),
    )
    x0 = np.zeros(1)
    with pytest.raises(SimulationDivergedError) as open_err:
        simulate(edge, x0, lambda t: np.ones(1), (0.0, 3.0))
    with pytest.raises(SimulationDivergedError) as closed_err:
        simulate_closed_loop(edge, lambda x, t: np.ones(1), x0, (0.0, 3.0))
    assert 0.0 < closed_err.value.last_valid_time <= 1.0
    assert closed_err.value.last_valid_time == open_err.value.last_valid_time

    with pytest.raises(ValueError):
        simulate_closed_loop(
            edge, lambda x, t: np.zeros(1), x0, (0.0, 0.5), n_samples=5, sample_times=[0.0, 0.25, 0.5]
        )


def test_error_dynamics_dissipate(desired):
    xbar0 = np.array([0.3, -0.2, 0.3])
    traj = simulate_error_dynamics(desired, xbar0, (0.0, 10.0), n_samples=200)
    hd_vals = desired.hd_error_batch(traj.states.T)
    assert hd_vals[0] > 0.0
    assert np.all(np.diff(hd_vals) <= 1e-10)
    assert hd_vals[-1] < 0.05 * hd_vals[0]
