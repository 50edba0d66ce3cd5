"""Smoothing filter: states and derivatives from noisy samples."""

import numpy as np
import pytest

from phs_lab.core import Trajectory
from phs_lab.filtering import FilteredDataset, filter_derivatives, filtered_from_csv, filtered_to_csv


def _cubic_trajectory(n=60):
    t = np.linspace(0.0, 3.0, n)
    states = np.stack([0.5 * t**3 - t, 2.0 * t**2 + 1.0], axis=1)
    derivs = np.stack([1.5 * t**2 - 1.0, 4.0 * t], axis=1)
    inputs = np.zeros((n, 1))
    return Trajectory(times=t, states=states, inputs=inputs), derivs


def test_polynomial_reproduction():
    # window 9 / order 3 reproduces cubics exactly, derivative included
    traj, derivs = _cubic_trajectory()
    ds = filter_derivatives(traj, window=9, poly_order=3)
    np.testing.assert_allclose(ds.states, traj.states.T, atol=1e-10)
    np.testing.assert_allclose(ds.derivatives, derivs.T, atol=1e-9)


def test_shapes_and_times():
    traj, _ = _cubic_trajectory()
    ds = filter_derivatives(traj)
    assert ds.states.shape == (2, 60)
    assert ds.derivatives.shape == (2, 60)
    assert ds.inputs.shape == (1, 60)
    np.testing.assert_array_equal(ds.times, traj.times)
    assert ds.n_points == 60


def test_noise_suppression_beats_raw_differences():
    rng = np.random.default_rng(2)
    t = np.linspace(0.0, 10.0, 400)
    clean = np.sin(t)
    noisy = clean + rng.normal(0.0, 0.02, t.shape)
    traj = Trajectory(times=t, states=noisy[:, None], inputs=np.zeros((t.size, 1)))
    ds = filter_derivatives(traj, window=11, poly_order=3)
    true_deriv = np.cos(t)
    raw = np.gradient(noisy, t)
    rmse_filtered = np.sqrt(np.mean((ds.derivatives[0] - true_deriv) ** 2))
    rmse_raw = np.sqrt(np.mean((raw - true_deriv) ** 2))
    assert rmse_filtered < 0.5 * rmse_raw


def test_window_validation():
    traj, _ = _cubic_trajectory()
    with pytest.raises(ValueError):
        filter_derivatives(traj, window=8)
    with pytest.raises(ValueError):
        filter_derivatives(traj, window=3, poly_order=3)
    short, _ = _cubic_trajectory(n=5)
    with pytest.raises(ValueError):
        filter_derivatives(short, window=9)


def test_nonuniform_sampling_rejected():
    t = np.array([0.0, 0.1, 0.3, 0.35, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    traj = Trajectory(times=t, states=np.zeros((10, 1)), inputs=np.zeros((10, 1)))
    with pytest.raises(ValueError):
        filter_derivatives(traj)


def test_dataset_validation():
    with pytest.raises(ValueError):
        FilteredDataset(
            states=np.zeros((2, 5)),
            derivatives=np.zeros((2, 4)),
            inputs=np.zeros((1, 5)),
            times=np.linspace(0, 1, 5),
        )
    with pytest.raises(ValueError, match="at least two samples"):
        FilteredDataset(states=np.zeros((2, 1)), derivatives=np.zeros((2, 1)), inputs=np.zeros((1, 1)), times=[0.0])
    with pytest.raises(ValueError, match="columns must align"):
        FilteredDataset(
            states=np.zeros((2, 5)),
            derivatives=np.zeros((2, 5)),
            inputs=np.zeros((1, 4)),
            times=np.linspace(0, 1, 5),
        )


def test_csv_round_trip(tmp_path):
    traj, _ = _cubic_trajectory()
    ds = filter_derivatives(traj)
    path = tmp_path / "filtered.csv"
    filtered_to_csv(ds, path)
    back = filtered_from_csv(path)
    np.testing.assert_array_equal(back.states, ds.states)
    np.testing.assert_array_equal(back.derivatives, ds.derivatives)
    np.testing.assert_array_equal(back.inputs, ds.inputs)
    np.testing.assert_array_equal(back.times, ds.times)
