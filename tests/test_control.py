"""Controller synthesis, reference planning, and closed-loop simulation.

These tests run everything on the exact vector field (the plant itself as
the model) so controller defects are not masked by learning error;
learned-model behaviour is covered by the pipeline and acceptance suites.
"""

from dataclasses import replace

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
    simulate_feedback,
)
from phs_lab.control import (
    ReferencePlan,
    _best_fit_problem,
    find_hamiltonian_minimum,
    left_annihilator,
    make_desired_dynamics,
    matching_residual,
    microactuator_desired_matrices,
    plan_from_csv,
    plan_to_csv,
    solve_reference_plan,
    tracking_control,
)
from phs_lab.core import energy_balance_residual, eval_dynamics, phs_output
from phs_lab.filtering import FilteredDataset

from conftest import micro_hypers, unforced


def primary_reference(t):
    return (1.0 - 0.01 * t - 0.01 * np.sin(0.8 * t), -0.01 - 0.008 * np.cos(0.8 * t))


@pytest.fixture(scope="module")
def plant():
    return make_microactuator(MicroactuatorParams())


@pytest.fixture(scope="module")
def perfect_model(plant):
    # the plant is its own exact model: mu == (J - R) grad H
    return plant


@pytest.fixture(scope="module")
def gp_model(plant):
    # a GP conditioned on 30 exact-derivative samples of one rollout
    u_fn = lambda x, t: np.array([np.sin(t)])
    traj = simulate_feedback(plant, np.array([0.0, 0.0, 1.0]), u_fn, (0.0, 20.0), n_samples=30)
    ds = FilteredDataset(
        states=traj.states.T,
        derivatives=eval_dynamics(plant, traj.states.T, traj.inputs.T),
        inputs=traj.inputs.T,
        times=traj.times,
    )
    return condition(ds, micro_hypers())


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


def test_desired_dynamics_center_and_batch(perfect_model, desired):
    # the target loop is a PhsModel of the error: J_d, R_d, Ghat and H_d
    assert isinstance(desired, PhsModel)
    assert (desired.dim_state, desired.dim_input) == (3, 1)
    np.testing.assert_array_equal(desired.g, perfect_model.g)
    assert desired.hamiltonian(np.zeros(3)) == pytest.approx(0.0, abs=1e-12)
    xbar = np.array([[0.1, -0.2], [0.05, 0.0], [0.2, 0.3]])
    batch = desired.hamiltonian(xbar)
    singles = [desired.hamiltonian(xbar[:, i]) for i in range(2)]
    np.testing.assert_array_equal(batch, singles)
    grad_batch = desired.hamiltonian_gradient(xbar)
    assert grad_batch.shape == (3, 2)
    for i in range(2):
        np.testing.assert_array_equal(desired.hamiltonian_gradient(xbar[:, i]), grad_batch[:, i])
    # H_d(xbar) = H_hat(c + xbar) - H_hat(c)
    shifted = desired.center[:, None] + xbar
    np.testing.assert_array_equal(grad_batch, perfect_model.hamiltonian_gradient(shifted))


def test_hamiltonian_minimum_found(perfect_model):
    box = [(-0.5, 2.0), (-1.0, 1.0), (-1.0, 1.5)]
    xmin, root_exit = find_hamiltonian_minimum(perfect_model, box)
    np.testing.assert_allclose(xmin, [1.0, 0.0, 0.0], atol=1e-6)
    assert root_exit["status"] == 1
    assert root_exit["grad_inf_norm"] == np.max(np.abs(perfect_model.hamiltonian_gradient(xmin[:, None])))


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


def test_left_annihilator_rank_deficient():
    with pytest.raises(SynthesisError):
        left_annihilator(np.column_stack([np.ones(3), np.ones(3)]))


def test_plan_matches_at_every_grid_point(perfect_model, desired, plan):
    res = np.linalg.norm(matching_residual(perfect_model, desired, plan, np.arange(plan.times.size)), axis=0)
    assert res.shape == (plan.times.size,)
    assert np.max(res) <= 1e-6
    # x_d2(0) must equal xdot_d1(0); x_d3(0)^2 balances the spring term
    assert plan.xd[0, 0] == pytest.approx(1.0, abs=0)
    assert plan.xd[0, 1] == pytest.approx(-0.018, abs=1e-9)
    assert plan.xd[0, 2] ** 2 == pytest.approx(0.009, abs=1e-5)


@pytest.mark.parametrize("kind", ["gp", "perfect"])
def test_matching_residual_batch_matches_per_point_loop(kind, perfect_model, gp_model, plan):
    # the batched defects against the per-state matching condition at each
    # grid point, Gperp (mu(x) - [J_d - R_d] grad H_d(x - x_d(t)) - xdot_d(t));
    # the GP model is far from the plant, so its defects are far from zero
    model = gp_model.mean if kind == "gp" else perfect_model
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=10.0)
    desired = make_desired_dynamics(model, jd, rd, center=np.array([1.0, 0.0, 0.0]))
    idx = np.unique(np.linspace(0, plan.times.size - 1, 25).round().astype(int))
    batch = matching_residual(model, desired, plan, idx)
    gperp = left_annihilator(model.g)
    loop = []
    for k in idx:
        x, t = plan.xd[k], plan.times[k]
        mu = eval_dynamics(model, x, np.zeros(1))
        grad = model.hamiltonian_gradient(desired.center + x - plan.x_d(t))
        loop.append(gperp @ (mu - (desired.j - desired.r) @ grad - plan.x_d_dot(t)))
    assert batch.shape == (2, idx.size)
    np.testing.assert_allclose(batch, np.array(loop).T, rtol=0, atol=1e-12)


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
    # and the fit stops on its gradient test short of it
    np.testing.assert_allclose(plan.xd, np.tile([1.0, 0.0, 0.0], (plan.times.size, 1)), atol=2e-6)
    np.testing.assert_allclose(plan.xddot, 0.0, atol=1e-5)


def test_plan_csv_round_trip(plan, tmp_path):
    path = tmp_path / "plan.csv"
    plan_to_csv(plan, path)
    back = plan_from_csv(path)
    np.testing.assert_array_equal(back.times, plan.times)
    np.testing.assert_array_equal(back.xd, plan.xd)
    np.testing.assert_array_equal(back.xddot, plan.xddot)
    # xddot is the plan spline's own derivative at the grid points
    np.testing.assert_array_equal(plan.xddot, plan.x_d_dot(plan.times))
    stored = np.loadtxt(path, delimiter=",", skiprows=1)[:, 4:]
    np.testing.assert_array_equal(stored, plan.xddot)


def test_plan_time_coverage(plan):
    plan.x_d(0.0)
    plan.x_d(13.0)
    with pytest.raises(PlanError):
        plan.x_d(13.1)
    with pytest.raises(PlanError):
        plan.x_d_dot(-0.5)
    # the controller's one-check read is x_d and its derivative, bit for bit
    for t in (0.0, 6.37, 13.0, np.float64(2.5)):
        x_d, x_d_dot = plan.reference(t)
        np.testing.assert_array_equal(x_d, plan.x_d(t))
        np.testing.assert_array_equal(x_d_dot, plan.x_d_dot(t))
    with pytest.raises(PlanError):
        plan.reference(13.1)


def test_plan_rejects_mismatched_grid_lengths():
    with pytest.raises(ValueError, match="share the grid length"):
        ReferencePlan(times=np.linspace(0.0, 1.0, 5), xd=np.zeros((4, 3)))


def test_plan_solver_rejects_unsupported_problems(perfect_model, desired):
    two_inputs = replace(perfect_model, g=np.ones((3, 2)))
    with pytest.raises(PlanError, match="single-input"):
        solve_reference_plan(two_inputs, desired, primary_reference, (0.0, 1.0), 0.05)
    with pytest.raises(PlanError, match="at least 3 grid points"):
        solve_reference_plan(perfect_model, desired, primary_reference, (0.0, 0.05), 0.05)


def _random_states_and_times(rng, count=10):
    for _ in range(count):
        yield np.array([1.0, 0.0, 0.3]) + 0.3 * rng.normal(size=3), float(rng.uniform(0.0, 13.0))


@pytest.mark.parametrize("kind", ["gp", "perfect"])
def test_tracking_law_is_the_microactuator_formula(kind, perfect_model, gp_model, plan):
    # with Ghat = (0, 0, 1/r_hat)^T and row 3 of J_d - R_d = (0, 0, -1/r_d)
    # the law is u = -r_hat (1/r_d) d3 H_d + r_hat xdot_d3 + d3 H_hat(x), and
    # it reads both gradients from one call of the model's grad H_hat
    model = gp_model.mean if kind == "gp" else perfect_model
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return model.hamiltonian_gradient(x)

    r_d_inv = 10.0
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=r_d_inv)
    desired = make_desired_dynamics(model, jd, rd, center=np.array([1.0, 0.0, 0.0]))
    law = tracking_control(replace(model, hamiltonian_gradient=counted), desired, plan)
    r_hat = 1.0 / model.g[2, 0]
    for x, t in _random_states_and_times(np.random.default_rng(11)):
        calls.clear()
        u = law(x, t)
        assert calls == [(3, 2)]
        d3_hd = desired.hamiltonian_gradient(x - plan.x_d(t))[2]
        d3_h = model.hamiltonian_gradient(x)[2]
        formula = -r_hat * r_d_inv * d3_hd + r_hat * plan.x_d_dot(t)[2] + d3_h
        np.testing.assert_allclose(u, [formula], rtol=1e-12, atol=1e-12)


def test_tracking_law_with_two_inputs_is_the_least_squares_input(perfect_model, plan):
    # with a rank-2 Ghat the law is the least-squares solution of the
    # matching equation Ghat u = [J_d - R_d] grad H_d + xdot_d - mu
    g2 = np.array([[0.0, 0.3], [0.0, 1.0], [0.8, 0.2]])
    model = replace(perfect_model, g=g2)
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=10.0)
    desired = make_desired_dynamics(model, jd, rd, center=np.array([1.0, 0.0, 0.0]))
    law = tracking_control(model, desired, plan)
    for x, t in _random_states_and_times(np.random.default_rng(12)):
        shaped = (desired.j - desired.r) @ desired.hamiltonian_gradient(x - plan.x_d(t))
        rhs = shaped + plan.x_d_dot(t) - eval_dynamics(model, x, np.zeros(2))
        u = law(x, t)
        assert u.shape == (2,)
        np.testing.assert_allclose(u, np.linalg.lstsq(g2, rhs, rcond=None)[0], rtol=1e-12, atol=1e-12)


def _tilted_gradient(plant):
    # grad (H + 0.02 x1): (J - R) (0.02, 0, 0) adds (0, -0.02, 0) to the drift
    def gradient(x):
        grad = plant.hamiltonian_gradient(x)
        grad[0] += 0.02
        return grad

    return gradient


def test_plan_best_fit_reaches_residual_floor(perfect_model, desired):
    # the plant with energy H + 0.02 x1 has the drift bias (0, -0.02, 0),
    # which makes x_d3^2 = -0.02 the exact-matching requirement, so no
    # root exists anywhere.  The minimizer keeps x_d3 at zero and trades the
    # bias between the two unactuated rows by bending x_d2, which caps the
    # pointwise defect well below 0.02 while keeping it bounded away from
    # zero.  The fit's objective is the reported defect itself, also on a
    # step that does not divide the span (0.15 on [0, 1] gives 8 points).
    biased = replace(
        perfect_model,
        hamiltonian=lambda x: perfect_model.hamiltonian(x) + 0.02 * x[0],
        hamiltonian_gradient=_tilted_gradient(perfect_model),
    )
    for step in (0.1, 0.15):
        plan = solve_reference_plan(
            biased, desired, lambda t: (1.0, 0.0), (0.0, 1.0), step, seed_tail=np.array([0.0, 0.1])
        )
        res = matching_residual(biased, desired, plan, np.arange(plan.times.size))
        assert np.sum(res**2) == pytest.approx(2.0 * plan.fit["cost"], rel=1e-8)
        assert 0.004 <= np.max(np.linalg.norm(res, axis=0)) <= 0.02
        np.testing.assert_allclose(plan.xd[:, 2], 0.0, atol=1e-2)


def test_plan_resolves_in_data_box_when_free_fit_leaves_it(perfect_model, desired, plan):
    # the exact plan runs at x_d3 near 0.095 (x_d3^2 = 0.009 at t = 0); data
    # with x3 in [0.2, 0.3] gives the box [0.185, 0.315] in x3, so the free
    # solution leaves the box and the bounded re-solve must bring it back
    states = np.array([[0.9, 1.1], [-0.1, 0.1], [0.2, 0.3]])
    span = np.ptp(states, axis=1)
    lo, hi = states.min(axis=1) - 0.15 * span, states.max(axis=1) + 0.15 * span
    boxed = solve_reference_plan(
        perfect_model,
        desired,
        primary_reference,
        (0.0, 1.0),
        0.1,
        seed_tail=np.array([0.0, 0.3]),
        box=list(zip(states.min(axis=1), states.max(axis=1))),
    )
    free, box = boxed.solves["free"], boxed.solves["box"]
    assert box is not None and box["status"] >= 1
    assert boxed.fit == box
    assert np.all((boxed.xd[:, 1:] >= lo[1:]) & (boxed.xd[:, 1:] <= hi[1:]))
    # the free fit found the exact plan outside the box; inside it no root exists
    assert free["cost"] < 1e-12 < box["cost"]
    # without a box the fit is solved free once
    assert set(plan.solves) == {"free", "box"} and plan.solves["box"] is None
    assert plan.fit == plan.solves["free"]


@pytest.mark.parametrize("kind", ["gp", "perfect"])
def test_best_fit_jacobian_matches_finite_differences(kind, perfect_model, gp_model):
    # the closed-form Jacobian against scipy's own differencing of the
    # residual, at random tails on a 9-point grid
    model = gp_model.mean if kind == "gp" else perfect_model
    rng = np.random.default_rng(5)
    n_grid = 9
    times = np.linspace(0.0, 0.8, n_grid)
    xd1 = 1.0 + 0.05 * rng.standard_normal(n_grid)
    xd1dot = 0.1 * rng.standard_normal(n_grid)
    shaped0 = rng.standard_normal(3)
    residual, jacobian = _best_fit_problem(model, times, xd1, xd1dot, shaped0)
    for _ in range(3):
        z = np.column_stack(
            [rng.uniform(-0.3, 0.3, n_grid), rng.uniform(0.2, 1.2, n_grid)]
        ).ravel()
        jac = jacobian(z)
        fd = approx_derivative(residual, z, method="3-point")
        assert jac.shape == fd.shape == (2 * n_grid, 2 * n_grid)
        np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-8 * np.max(np.abs(fd)))


def test_external_port_output_hand_value(desired):
    # y_ex = Ghat^T grad H_d(x - x_d), with grad H evaluated at center + x - x_d
    xd_row = np.array([1.1, 0.1, 0.2])
    plan = ReferencePlan(times=np.array([0.0, 1.0]), xd=np.tile(xd_row, (2, 1)))
    val = phs_output(desired, np.array([1.2, 0.3, 0.4]) - plan.x_d(0.5))
    assert val == pytest.approx(2 * 1.1 * 0.2, abs=1e-12)


def test_tracking_control_rejects_singular_g(perfect_model, desired, plan):
    class _NoInput:
        g = np.zeros((3, 1))

    with pytest.raises(SynthesisError):
        tracking_control(_NoInput(), desired, plan)


def test_closed_loop_divergence_reports_last_time(plant):
    with pytest.raises(SimulationDivergedError) as err:
        simulate_feedback(
            plant, np.zeros(3), lambda x, t: np.array([50.0]), (0.0, 20.0), n_samples=201, blowup=5.0
        )
    assert 0.0 <= err.value.last_valid_time <= 20.0


def test_simulation_reports_last_valid_time_when_gradient_turns_non_finite():
    # the gradient is non-finite once the state leaves (-1, 1); a constant
    # input of 1 drives x = t there at t = 1
    edge = PhsModel(
        j=np.zeros((1, 1)),
        r=np.zeros((1, 1)),
        g=np.ones((1, 1)),
        hamiltonian=lambda x: 0.5 * np.sum(x**2, axis=0),
        hamiltonian_gradient=lambda x: np.where(np.abs(x) < 1.0, x, np.nan),
    )
    with pytest.raises(SimulationDivergedError) as closed_err:
        simulate_feedback(edge, np.zeros(1), lambda x, t: np.ones(1), (0.0, 3.0), n_samples=31)
    assert 0.0 < closed_err.value.last_valid_time <= 1.0


def test_error_dynamics_dissipate(desired):
    xbar0 = np.array([0.3, -0.2, 0.3])
    traj = simulate_feedback(desired, xbar0, unforced, (0.0, 10.0), n_samples=200, rtol=1e-10, atol=1e-10)
    hd_vals = desired.hamiltonian(traj.states.T)
    assert hd_vals[0] > 0.0
    assert np.all(np.diff(hd_vals) <= 1e-10)
    assert hd_vals[-1] < 0.05 * hd_vals[0]


def test_target_loop_energy_balance_through_core(desired):
    # the target loop with an external port input u_ex is a PHS, so core's
    # balance dH_d/dt = -grad H_d^T R_d grad H_d + y_ex^T u_ex holds along it
    # up to the O(h^2) error of the balance check's differencing: the defect
    # stays under one C h^2 and falls about 4x per halving of the sample step,
    # where leaving out the supplied power y_ex^T u_ex stalls it at 0.015
    xbar0 = np.array([0.3, -0.2, 0.3])
    u_ex = lambda x, t: np.array([0.4 * np.sin(2.0 * t)])
    defects = []
    for n_samples in (401, 801, 1601):
        traj = simulate_feedback(desired, xbar0, u_ex, (0.0, 2.0), n_samples=n_samples, rtol=1e-12, atol=1e-12)
        assert np.ptp(phs_output(desired, traj.states.T)) > 0.0
        defect = float(np.max(energy_balance_residual(desired, traj)))
        assert defect <= 1.5e3 * (2.0 / (n_samples - 1)) ** 2
        defects.append(defect)
    assert defects[0] >= 3.5 * defects[1] and defects[1] >= 3.5 * defects[2]
