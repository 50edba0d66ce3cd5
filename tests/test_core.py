"""Plant models, simulation, and energy accounting."""

import numpy as np
import pytest

from phs_lab import (
    MicroactuatorParams,
    ModelEvaluationError,
    PhsModel,
    SimulationDivergedError,
    Trajectory,
    energy_balance_residual,
    eval_dynamics,
    make_microactuator,
    phs_output,
    simulate_feedback,
)
from phs_lab.core import on_columns, trajectory_from_csv, trajectory_to_csv

from conftest import sin_input, unforced
from oracles import make_mass_spring_damper


def test_microactuator_structure_matrices():
    plant = make_microactuator(MicroactuatorParams())
    np.testing.assert_allclose(
        plant.j - plant.r, [[0.0, 1.0, 0.0], [-1.0, -0.5, 0.0], [0.0, 0.0, -1.0]], atol=0
    )
    np.testing.assert_allclose(plant.g, [[0.0], [0.0], [1.0]], atol=0)
    assert (plant.dim_state, plant.dim_input) == (3, 1)


def test_microactuator_energy_and_gradient_hand_values():
    # H = 5 (x1 - 1)^2 + x2^2 / 2 + x1 x3^2 at default parameters:
    # at (0.7, 0.2, 0.9): 0.45 + 0.02 + 0.567 = 1.037
    plant = make_microactuator(MicroactuatorParams())
    x = np.array([0.7, 0.2, 0.9])
    assert plant.hamiltonian(x) == pytest.approx(1.037, abs=1e-12)
    np.testing.assert_allclose(
        plant.hamiltonian_gradient(x), [10 * (0.7 - 1.0) + 0.81, 0.2, 2 * 0.7 * 0.9], atol=1e-12
    )


def test_microactuator_energy_regular_at_closed_gap():
    # 1/C = x1/c0 is polynomial, so the energy stays finite at x1 = 0
    plant = make_microactuator(MicroactuatorParams())
    x = np.array([0.0, 0.1, 1.0])
    assert plant.hamiltonian(x) == pytest.approx(5.0 + 0.005, abs=1e-12)
    np.testing.assert_allclose(plant.hamiltonian_gradient(x), [-10.0 + 1.0, 0.1, 0.0], atol=1e-12)


def test_eval_dynamics_matches_structure_times_gradient():
    plant = make_microactuator(MicroactuatorParams())
    x = np.array([0.7, 0.2, 0.9])
    u = np.array([0.4])
    grad = plant.hamiltonian_gradient(x)
    expected = (plant.j - plant.r) @ grad + plant.g[:, 0] * 0.4
    np.testing.assert_allclose(eval_dynamics(plant, x, u), expected, atol=1e-14)
    np.testing.assert_allclose(phs_output(plant, x), [grad[2]], atol=1e-14)


def test_electrical_half_switch():
    x = np.array([0.8, 0.0, 0.6])
    full = make_microactuator(MicroactuatorParams())
    half = make_microactuator(MicroactuatorParams(electrical_half=True))
    # only the electrical term differs, by exactly a factor of two
    diff = full.hamiltonian(x) - half.hamiltonian(x)
    assert diff == pytest.approx(0.5 * 0.8 * 0.36, abs=1e-12)


@pytest.mark.parametrize(
    "build",
    [lambda: make_microactuator(MicroactuatorParams()), lambda: make_mass_spring_damper(k=2.0)],
    ids=["microactuator", "mass_spring_damper"],
)
def test_column_block_matches_per_column_calls(build):
    # every plant query on an (n, Q) block returns, bit for bit, the per-state
    # results stacked as columns, and so does the column adapter of the
    # learned mean and the target loop
    plant = build()
    n, q = plant.dim_state, 7
    rng = np.random.default_rng(3)
    xq = rng.uniform(-1.5, 1.5, (n, q))
    uq = rng.standard_normal((plant.dim_input, q))
    cols = [xq[:, i] for i in range(q)]
    u0 = np.zeros(plant.dim_input)
    assert np.array_equal(plant.hamiltonian(xq), [plant.hamiltonian(x) for x in cols])
    assert np.array_equal(
        plant.hamiltonian_gradient(xq), np.column_stack([plant.hamiltonian_gradient(x) for x in cols])
    )
    assert np.array_equal(
        eval_dynamics(plant, xq, uq),
        np.column_stack([eval_dynamics(plant, x, uq[:, i]) for i, x in enumerate(cols)]),
    )
    drift = np.column_stack([eval_dynamics(plant, x, u0) for x in cols])
    assert np.array_equal(eval_dynamics(plant, xq, u0), drift)
    assert np.array_equal(phs_output(plant, xq), np.column_stack([phs_output(plant, x) for x in cols]))

    # on_columns hands a block on as it is, one state as a one-column block,
    # and adds its offset to every column
    grad = on_columns(plant.hamiltonian_gradient)
    assert np.array_equal(grad(xq), plant.hamiltonian_gradient(xq))
    assert np.array_equal(np.column_stack([grad(x) for x in cols]), grad(xq))
    x_ref = xq[:, 0]
    shifted = on_columns(plant.hamiltonian, x_ref)
    assert shifted(np.zeros(n)) == plant.hamiltonian(x_ref)
    assert np.array_equal(shifted(xq), [shifted(x) for x in cols])


def test_params_validation():
    with pytest.raises(ValueError):
        MicroactuatorParams(m=-1.0)
    with pytest.raises(ValueError):
        MicroactuatorParams(b=-0.1)
    with pytest.raises(ValueError, match="need m > 0"):
        make_mass_spring_damper(m=0.0)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0, 1.0]), states=np.zeros((3, 2)), inputs=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 2)), inputs=np.zeros((3, 1)))
    with pytest.raises(ValueError, match="one-dimensional"):
        Trajectory(times=np.zeros((3, 1)), states=np.zeros((3, 2)), inputs=np.zeros((3, 1)))


@pytest.mark.parametrize(
    "t_span,x0,message",
    [
        ((1.0, 0.0), [0.0, 0.0], "forward interval"),
        ((1.0, 1.0), [0.0, 0.0], "forward interval"),
        ((0.0, 1.0), [np.nan, 0.0], "x0 must be finite"),
    ],
)
def test_simulation_rejects_backward_span_and_non_finite_start(t_span, x0, message):
    with pytest.raises(ValueError, match=message):
        simulate_feedback(make_mass_spring_damper(), x0, lambda x, t: np.zeros(1), t_span, n_samples=5)


def test_simulation_reaches_horizon(clean_trajectory):
    assert len(clean_trajectory) == 300
    assert clean_trajectory.times[0] == 0.0
    assert clean_trajectory.times[-1] == pytest.approx(20.0)
    assert np.all(np.isfinite(clean_trajectory.states))


def test_energy_balance_residual_dense(plant):
    # the trapezoid defect dominates at coarse sampling, so the bound is
    # checked on a dense grid where the integrator error is what remains
    traj = simulate_feedback(
        plant, np.array([0.0, 0.0, 1.0]), sin_input, (0.0, 20.0), n_samples=20001, rtol=1e-8, atol=1e-8
    )
    assert np.max(energy_balance_residual(plant, traj)) <= 1e-4


def test_lossless_conservation():
    msd = make_mass_spring_damper(b=0.0)
    tol = 1e-8
    horizon = 50.0
    traj = simulate_feedback(
        msd, np.array([1.0, 0.5]), unforced, (0.0, horizon), n_samples=2001, rtol=tol, atol=tol
    )
    h_vals = msd.hamiltonian(traj.states.T)
    assert np.max(np.abs(h_vals - h_vals[0])) <= 10 * tol * horizon


def test_unforced_dissipation_monotone(plant):
    traj = simulate_feedback(plant, np.array([0.5, 0.4, 0.8]), unforced, (0.0, 10.0), n_samples=500)
    h_vals = plant.hamiltonian(traj.states.T)
    assert np.all(np.diff(h_vals) <= 1e-9)


def test_simulation_divergence_reports_last_time():
    # gradient x with J - R = +I gives xdot = x, which blows past any bound
    unstable = PhsModel(
        j=np.zeros((2, 2)),
        r=-np.eye(2),
        g=np.zeros((2, 1)),
        hamiltonian=lambda x: 0.5 * np.sum(x**2, axis=0),
        hamiltonian_gradient=lambda x: np.asarray(x),
    )
    with pytest.raises(SimulationDivergedError) as err:
        simulate_feedback(unstable, np.array([1.0, 1.0]), unforced, (0.0, 50.0), n_samples=51, blowup=1e3)
    assert err.value.last_valid_time > 0.0


def test_model_evaluation_error_on_nonfinite():
    bad = PhsModel(
        j=np.zeros((1, 1)),
        r=np.zeros((1, 1)),
        g=np.ones((1, 1)),
        hamiltonian=lambda x: np.nan * x[0],
        hamiltonian_gradient=lambda x: np.nan * x,
    )
    with pytest.raises(ModelEvaluationError):
        eval_dynamics(bad, np.array([1.0]), np.array([0.0]))
    with pytest.raises(ModelEvaluationError):
        eval_dynamics(bad, np.ones((1, 4)), np.zeros(1))


def test_trajectory_csv_round_trip(tmp_path, clean_trajectory):
    path = tmp_path / "traj.csv"
    trajectory_to_csv(clean_trajectory, path)
    back = trajectory_from_csv(path)
    np.testing.assert_array_equal(back.times, clean_trajectory.times)
    np.testing.assert_array_equal(back.states, clean_trajectory.states)
    np.testing.assert_array_equal(back.inputs, clean_trajectory.inputs)


def test_trajectory_csv_with_outputs(tmp_path, plant):
    traj = simulate_feedback(plant, np.array([0.2, 0.1, 0.9]), sin_input, (0.0, 2.0), n_samples=20)
    assert traj.outputs is not None
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    back = trajectory_from_csv(path)
    np.testing.assert_array_equal(back.outputs, traj.outputs)
