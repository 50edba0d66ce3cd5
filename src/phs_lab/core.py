"""Port-Hamiltonian models, simulation, and energy diagnostics.

A port-Hamiltonian system (PHS) is

    xdot = (J - R) grad H(x) + G u,    y = G^T grad H(x)

with constant skew-symmetric interconnection J, positive semi-definite
dissipation R, input matrix G, and stored energy H.  The learned model of
``structure.py`` has the same constant structure.  `PhsModel` describes the
plant, and also the target error loop of the tracking controller
(``control.DesiredDynamics``: J_d, R_d, G_hat and H_d in the error
coordinates) and the learned mean (``gp.GpPhsModel.mean``), so all three are
simulated, observed and balanced by the same functions here.  H and grad H
take one state (n,) or a block (n, Q) with one state per column, and so do
`eval_dynamics` and `phs_output`.  Times are in ms throughout; all other
quantities are dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .artifacts import read_table, write_table
from .errors import ModelEvaluationError, SimulationDivergedError

__all__ = [
    "PhsModel",
    "Trajectory",
    "MicroactuatorParams",
    "eval_dynamics",
    "on_columns",
    "phs_output",
    "simulate",
    "simulate_feedback",
    "energy_balance_residual",
    "make_microactuator",
    "make_mass_spring_damper",
    "trajectory_to_csv",
    "trajectory_from_csv",
]


@dataclass(frozen=True, eq=False)
class PhsModel:
    """Immutable PHS description with constant structure matrices.

    Parameters
    ----------
    j : array (n, n)
        Skew-symmetric interconnection J.
    r : array (n, n)
        Symmetric PSD dissipation R.
    g : array (n, m)
        Input matrix G.
    hamiltonian : callable
        x -> H(x): a scalar for one state (n,), shape (Q,) for a block (n, Q).
    hamiltonian_gradient : callable
        x -> grad H(x), the same shape as x.
    """

    j: np.ndarray
    r: np.ndarray
    g: np.ndarray
    hamiltonian: Callable[[np.ndarray], np.ndarray]
    hamiltonian_gradient: Callable[[np.ndarray], np.ndarray]

    @property
    def dim_state(self) -> int:
        return self.g.shape[0]

    @property
    def dim_input(self) -> int:
        return self.g.shape[1]


@dataclass(frozen=True)
class Trajectory:
    """Sampled system trajectory.

    ``states`` is (T, n) row-per-sample, ``inputs`` is (T, m), ``outputs`` is
    the passive output y = G^T grad H when recorded, else None.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    outputs: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states", np.atleast_2d(np.asarray(self.states, dtype=float)))
        object.__setattr__(self, "inputs", np.atleast_2d(np.asarray(self.inputs, dtype=float)))
        if self.outputs is not None:
            object.__setattr__(self, "outputs", np.atleast_2d(np.asarray(self.outputs, dtype=float)))
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        t = self.times.shape[0]
        for name in ("states", "inputs", "outputs"):
            arr = getattr(self, name)
            if arr is not None and arr.shape[0] != t:
                raise ValueError(f"{name} length {arr.shape[0]} does not match times length {t}")

    def __len__(self):
        return self.times.shape[0]


@dataclass(frozen=True)
class MicroactuatorParams:
    """Electrostatic microactuator parameters.

    State is (plate position x1, momentum x2, charge x3).  The stored energy is

        H(x) = 1/2 k (x1 - x1_star)^2 + x2^2 / (2 m) + x3^2 / C(x1)

    with the parallel-plate law C(x1) = c0 / x1, where the electrical term
    enters without a 1/2 factor by convention here; set
    ``electrical_half=True`` for the conventional x3^2 / (2 C) variant.
    """

    m: float = 1.0
    b: float = 0.5
    k: float = 10.0
    r: float = 1.0
    x1_star: float = 1.0
    c0: float = 1.0
    electrical_half: bool = False

    def __post_init__(self):
        if self.m <= 0 or self.k <= 0 or self.r <= 0:
            raise ValueError("m, k, r must be positive")
        if self.b < 0:
            raise ValueError("b must be nonnegative")


def on_columns(fn, offset=None):
    """A PhsModel callable from ``fn`` on (n, Q) blocks; one state (n,) is one column.

    With ``offset`` (n,), ``fn`` sees offset + x.
    """

    def wrapped(x):
        x = np.asarray(x, dtype=float)
        block = x[:, None] if x.ndim == 1 else x
        out = fn(block if offset is None else offset[:, None] + block)
        return out[..., 0] if x.ndim == 1 else out

    return wrapped


def eval_dynamics(model: PhsModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate xdot = (J - R) grad H(x) + G u.

    ``x`` is one state (n,) or a block (n, Q); ``u`` is one input (m,), held
    for every column, or a block (m, Q).  Scalars are accepted for m = 1.
    Raises ModelEvaluationError when the result is non-finite.
    """
    x = np.asarray(x, dtype=float)
    gu = model.g @ np.asarray(u, dtype=float).reshape(model.dim_input, -1)
    grad = np.asarray(model.hamiltonian_gradient(x), dtype=float)
    xdot = (model.j - model.r) @ grad + (gu[:, 0] if x.ndim == 1 else gu)
    if not np.all(np.isfinite(xdot)):
        raise ModelEvaluationError("non-finite dynamics evaluation", state=x.copy())
    return xdot


def phs_output(model: PhsModel, x: np.ndarray) -> np.ndarray:
    """Passive output y = G^T grad H(x), for one state (n,) or a block (n, Q)."""
    return model.g.T @ np.asarray(model.hamiltonian_gradient(np.asarray(x, dtype=float)), dtype=float)


def simulate(
    model: PhsModel,
    x0: np.ndarray,
    input_signal: Callable[[float], np.ndarray],
    t_span,
    n_samples: Optional[int] = None,
    sample_times: Optional[np.ndarray] = None,
    rtol: float = 1e-8,
    atol: float = 1e-8,
    blowup: float = 1e6,
    record_outputs: bool = True,
) -> Trajectory:
    """Integrate the PHS under the open-loop input ``input_signal``: t -> u(t).

    The state-feedback form is `simulate_feedback`, which documents the
    sampling options and failure modes.
    """
    return simulate_feedback(
        model,
        x0,
        lambda x, t: input_signal(t),
        t_span,
        n_samples=n_samples,
        sample_times=sample_times,
        rtol=rtol,
        atol=atol,
        blowup=blowup,
        record_outputs=record_outputs,
    )


def simulate_feedback(
    model: PhsModel,
    x0: np.ndarray,
    feedback: Callable[[np.ndarray, float], np.ndarray],
    t_span,
    n_samples: Optional[int] = None,
    sample_times: Optional[np.ndarray] = None,
    rtol: float = 1e-8,
    atol: float = 1e-8,
    blowup: float = 1e6,
    record_outputs: bool = True,
) -> Trajectory:
    """Integrate the PHS under u = feedback(x, t), adaptive Runge-Kutta with dense output.

    Parameters
    ----------
    feedback : callable
        (x, t) -> u, shape (m,) (scalars accepted for m = 1); the recorded
        inputs are re-evaluated on the sample grid.
    n_samples : int, optional
        Resample the dense solution on a uniform grid of this many points
        (endpoints included).  Mutually exclusive with ``sample_times``.
    sample_times : array, optional
        Explicit sample grid inside t_span; a time outside it raises
        ValueError.

    Raises
    ------
    SimulationDivergedError
        On state blow-up, step-size underflow, or a model evaluation failure;
        carries the last valid time.
    """
    x0 = np.asarray(x0, dtype=float)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be a nonempty forward interval")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if n_samples is not None and sample_times is not None:
        raise ValueError("pass either n_samples or sample_times, not both")
    if sample_times is not None:
        ts = np.asarray(sample_times, dtype=float)
        if not np.all((ts >= t0) & (ts <= t1)):
            raise ValueError(f"sample_times must lie inside t_span [{t0:.6g}, {t1:.6g}]")

    last_ok = [t0]
    limit = blowup**2

    def rhs(t, x):
        # NaN and inf fail the comparison too
        if not x @ x <= limit:
            raise SimulationDivergedError("state blow-up", last_ok[0])
        dx = eval_dynamics(model, x, feedback(x, t))
        last_ok[0] = t
        return dx

    try:
        sol = solve_ivp(
            rhs,
            (t0, t1),
            x0,
            method="RK45",
            rtol=rtol,
            atol=atol,
            dense_output=True,
        )
    except ModelEvaluationError as exc:
        raise SimulationDivergedError(str(exc), last_ok[0]) from exc
    if not sol.success:
        raise SimulationDivergedError(f"integrator stopped: {sol.message}", float(sol.t[-1]))

    if n_samples is not None:
        ts = np.linspace(t0, t1, int(n_samples))
    elif sample_times is None:
        ts = sol.t
    xs = sol.sol(ts).T
    us = np.stack([np.atleast_1d(np.asarray(feedback(x, t), dtype=float)) for x, t in zip(xs, ts)])
    ys = phs_output(model, xs.T).T if record_outputs else None
    return Trajectory(times=ts, states=xs, inputs=us, outputs=ys)


def energy_balance_residual(model: PhsModel, traj: Trajectory) -> np.ndarray:
    """Per-step defect of the power balance d/dt H = -grad H^T R grad H + y^T u.

    Compares the finite-difference slope of H along the trajectory with the
    trapezoidal average of the power terms; meaningful only when the sampling
    is dense enough for the O(h^2) differencing to resolve the dynamics.
    """
    xs = traj.states.T
    h_vals = model.hamiltonian(xs)
    grad = np.asarray(model.hamiltonian_gradient(xs), dtype=float)
    supplied = np.einsum("mt,mt->t", model.g.T @ grad, traj.inputs.T)
    power = supplied - np.einsum("nt,nt->t", grad, model.r @ grad)
    dt = np.diff(traj.times)
    slope = np.diff(h_vals) / dt
    mid_power = 0.5 * (power[:-1] + power[1:])
    return np.abs(slope - mid_power)


def make_microactuator(params: MicroactuatorParams = MicroactuatorParams()) -> PhsModel:
    """Build the three-state electrostatic microactuator PHS.

    J - R = [[0, 1, 0], [-1, -b, 0], [0, 0, -1/r]], G = (0, 0, 1/r)^T, and H
    as documented on MicroactuatorParams.
    """
    p = params
    # the energy only sees the elastance 1/C = x1/c0, regular everywhere
    # (including the closed gap x1 = 0)
    half = 0.5 if p.electrical_half else 1.0

    def hamiltonian(x):
        x1, x2, x3 = x
        return 0.5 * p.k * (x1 - p.x1_star) ** 2 + x2**2 / (2 * p.m) + half * x3**2 * (x1 / p.c0)

    def gradient(x):
        x1, x2, x3 = x
        return np.array(
            [
                p.k * (x1 - p.x1_star) + half * x3**2 * (1.0 / p.c0),
                x2 / p.m,
                2.0 * half * x3 * (x1 / p.c0),
            ]
        )

    return PhsModel(
        j=np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        r=np.diag([0.0, p.b, 1.0 / p.r]),
        g=np.array([[0.0], [0.0], [1.0 / p.r]]),
        hamiltonian=hamiltonian,
        hamiltonian_gradient=gradient,
    )


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


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV: header t,x1..xn,u1..um[,y1..ym], 17 significant digits."""
    outputs = {} if traj.outputs is None else {"y": traj.outputs}
    write_table(path, t=traj.times, x=traj.states, u=traj.inputs, **outputs)


def trajectory_from_csv(path) -> Trajectory:
    """Inverse of trajectory_to_csv; column roles are recovered from the header."""
    table = read_table(path)
    return Trajectory(
        times=table["t"], states=table.group("x"), inputs=table.group("u"), outputs=table.group("y")
    )
