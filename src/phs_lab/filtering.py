"""Derivative estimation from sampled trajectories by local polynomial regression."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import savgol_filter

from .artifacts import read_table, write_table
from .core import Trajectory

__all__ = ["FilteredDataset", "filter_derivatives", "filtered_to_csv", "filtered_from_csv"]


@dataclass(frozen=True)
class FilteredDataset:
    """Aligned states/derivatives/inputs, column-major (n, N) / (m, N)."""

    states: np.ndarray
    derivatives: np.ndarray
    inputs: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        for name in ("states", "derivatives", "inputs"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        n_pts = self.times.shape[0]
        if n_pts < 2:
            raise ValueError("need at least two samples")
        if self.states.shape != self.derivatives.shape:
            raise ValueError("states and derivatives must have matching shapes")
        if self.states.shape[1] != n_pts or self.inputs.shape[1] != n_pts:
            raise ValueError("columns must align with times")

    @property
    def n_points(self):
        return self.times.shape[0]


def filter_derivatives(traj: Trajectory, window: int = 9, poly_order: int = 3) -> FilteredDataset:
    """Savitzky-Golay smoothing and differentiation of a uniformly sampled trajectory.

    Endpoints are handled by one-sided polynomial fits (the filter's 'interp'
    mode).  Requires window odd, window >= poly_order + 2, and at least
    ``window`` samples.
    """
    if window % 2 == 0:
        raise ValueError("window must be odd")
    if window < poly_order + 2:
        raise ValueError("window must be at least poly_order + 2")
    if len(traj) < window:
        raise ValueError(f"trajectory has {len(traj)} samples, need at least {window}")
    dts = np.diff(traj.times)
    if not np.allclose(dts, dts[0], rtol=1e-8, atol=1e-12):
        raise ValueError("trajectory must be uniformly sampled")
    dt = float(dts[0])
    smoothed = savgol_filter(traj.states, window, poly_order, axis=0, mode="interp")
    derivs = savgol_filter(traj.states, window, poly_order, deriv=1, delta=dt, axis=0, mode="interp")
    return FilteredDataset(
        states=smoothed.T,
        derivatives=derivs.T,
        inputs=traj.inputs.T,
        times=traj.times.copy(),
    )


def filtered_to_csv(dataset: FilteredDataset, path) -> None:
    """CSV with header t,x1..xn,xdot1..xdotn,u1..um at full double precision."""
    write_table(path, t=dataset.times, x=dataset.states.T, xdot=dataset.derivatives.T, u=dataset.inputs.T)


def filtered_from_csv(path) -> FilteredDataset:
    table = read_table(path)
    return FilteredDataset(
        states=table.group("x").T,
        derivatives=table.group("xdot").T,
        inputs=table.group("u").T,
        times=table["t"],
    )
