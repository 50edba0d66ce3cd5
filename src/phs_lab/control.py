"""Passivity-based tracking control synthesized from a learned PHS model.

The controller shapes the closed loop into desired error dynamics

    xbar_dot = [J_d - R_d] grad H_d(xbar),   xbar = x - x_d(t)

via the matching condition on the unactuated directions

    Gperp mu(xdot | x, D) = Gperp ([J_d - R_d] grad H_d + xdot_d)

with mu the posterior drift mean and (J_d, R_d) constant matrices.  The
actuated component gives the control

    u = (Ghat^T Ghat)^-1 Ghat^T ([J_d - R_d] grad H_d + xdot_d - mu).

The full-state reference plan enforces the matching condition along the
reference itself (xbar = 0) only, recovering the unactuated reference
components from the primary one by damped-Newton continuation.  Off the
reference the unactuated rows carry the mismatch

    Gperp (mu(x) - mu(x_d) - [J_d - R_d] (grad H_d(xbar) - grad H_d(0)))

(plus the plan's own defect at x_d when it is solved in best-fit mode), so
the model-predicted error dynamics equal the desired ones exactly only on
the reference.  On the true plant the model error (f - mu) + (G - Ghat) u
enters on top; it is bounded by the GP envelope, not cancelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import null_space
from scipy.optimize import least_squares, minimize

from .core import PhsModel, Trajectory, simulate_feedback
from .errors import PlanError, SimulationDivergedError, SynthesisError

__all__ = [
    "DesiredDynamics",
    "ReferencePlan",
    "make_desired_dynamics",
    "microactuator_desired_matrices",
    "find_hamiltonian_minimum",
    "left_annihilator",
    "classical_ida_pbc_control",
    "matching_residual",
    "solve_reference_plan",
    "tracking_control",
    "microactuator_tracking_control",
    "semi_passive_control",
    "external_output",
    "simulate_closed_loop",
    "simulate_error_dynamics",
    "plan_to_csv",
    "plan_from_csv",
]


@dataclass(frozen=True)
class DesiredDynamics:
    """Desired interconnection/damping/energy for the closed-loop error.

    ``jd`` and ``rd`` are constant (n, n) matrices.  ``hd_grad`` takes
    (x, x_d); the energy depends on the pair only through the error, which
    ``hd_error_batch`` and ``hd_error_grad_batch`` take directly as
    column-major (n, Q) arrays.  ``center`` records the shift applied to the
    learned Hamiltonian so that the energy minimum sits at zero error.
    """

    jd: np.ndarray
    rd: np.ndarray
    hd_grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hd_error_batch: Callable[[np.ndarray], np.ndarray]
    hd_error_grad_batch: Callable[[np.ndarray], np.ndarray]
    center: np.ndarray
    dim_state: int


def microactuator_desired_matrices(b_hat: float, r_d_inv: float = 10.0):
    """Desired (J_d, R_d) for the microactuator: damping b_hat and 1/r_d assigned."""
    jd = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    rd = np.diag([0.0, float(b_hat), float(r_d_inv)])
    return jd, rd


def make_desired_dynamics(model, jd, rd, center=None) -> DesiredDynamics:
    """Build H_d from a model's posterior Hamiltonian.

    H_d(x, x_d) = H_hat(center + x - x_d) - H_hat(center); with center at the
    learned energy minimum the required min-at-zero-error property holds.
    ``jd``/``rd`` are the constant desired matrices.
    """
    n = model.dim_state
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    h_center = float(model.hamiltonian(center[:, None])[0])

    def hd_error_batch(xbar):
        xbar = np.atleast_2d(np.asarray(xbar, dtype=float))
        return model.hamiltonian(center[:, None] + xbar) - h_center

    def hd_error_grad_batch(xbar):
        xbar = np.atleast_2d(np.asarray(xbar, dtype=float))
        return model.hamiltonian_grad(center[:, None] + xbar)

    return DesiredDynamics(
        jd=np.asarray(jd, dtype=float),
        rd=np.asarray(rd, dtype=float),
        hd_grad=lambda x, x_d: hd_error_grad_batch(
            (np.asarray(x, dtype=float) - np.asarray(x_d, dtype=float))[:, None]
        )[:, 0],
        hd_error_batch=hd_error_batch,
        hd_error_grad_batch=hd_error_grad_batch,
        center=center,
        dim_state=n,
    )


def find_hamiltonian_minimum(model, box, coarse: int = 9, gtol: float = 1e-10) -> np.ndarray:
    """Locate the minimizer of the posterior Hamiltonian inside a box.

    Coarse grid scan followed by gradient-based polish.  ``box`` is a sequence
    of (low, high) per dimension.
    """
    axes = [np.linspace(lo, hi, coarse) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh])
    vals = model.hamiltonian(pts)
    x0 = pts[:, int(np.argmin(vals))]

    res = minimize(
        model.hamiltonian_scalar, x0, jac=True, method="BFGS", options={"gtol": gtol, "maxiter": 200}
    )
    return np.asarray(res.x, dtype=float)


def left_annihilator(g_mat, prev: Optional[np.ndarray] = None) -> np.ndarray:
    """Orthonormal full-row-rank Gperp with Gperp G = 0, rows (n - m, n).

    Without ``prev`` the basis is canonicalized (rows ordered by leading
    entry, leading entries positive); with ``prev`` rows are permuted/signed
    to align with the previous basis so the annihilator varies continuously
    along a trajectory of queries.
    """
    g_mat = np.atleast_2d(np.asarray(g_mat, dtype=float))
    n, m = g_mat.shape
    basis = null_space(g_mat.T).T
    if basis.shape[0] != n - m:
        raise SynthesisError(
            f"input matrix is rank-deficient: left null space has dimension {basis.shape[0]}, expected {n - m}"
        )
    if prev is not None:
        prev = np.asarray(prev, dtype=float)
        overlap = basis @ prev.T
        order = np.empty(n - m, dtype=int)
        taken = np.zeros(n - m, dtype=bool)
        for col in range(n - m):
            cand = np.abs(overlap[:, col]).copy()
            cand[taken] = -1.0
            row = int(np.argmax(cand))
            taken[row] = True
            order[col] = row
        basis = basis[order]
        signs = np.sign(np.einsum("ij,ij->i", basis, prev))
        signs[signs == 0] = 1.0
        return basis * signs[:, None]
    leads = []
    for row in basis:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        lead = int(nz[0]) if nz.size else 0
        leads.append(lead)
    order = np.argsort(leads, kind="stable")
    basis = basis[order]
    for i, row in enumerate(basis):
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            basis[i] = -row
    return basis


def classical_ida_pbc_control(
    model: PhsModel,
    desired: DesiredDynamics,
    x_d,
    check_states=None,
    matching_tol: float = 1e-8,
):
    """Set-point controller u(x) = (G^T G)^-1 G^T ([J_d - R_d] grad H_d - (J - R) grad H).

    ``x_d`` is the fixed target.  When ``check_states`` is given, the matching
    condition Gperp ([J_d - R_d] grad H_d - (J - R) grad H) = 0 is verified on
    those states first.
    """
    x_d = np.asarray(x_d, dtype=float)

    def shaped(x):
        x = np.asarray(x, dtype=float)
        target = (desired.jd - desired.rd) @ desired.hd_grad(x, x_d)
        plant = (model.interconnection(x) - model.dissipation(x)) @ np.asarray(
            model.hamiltonian_gradient(x), dtype=float
        )
        return target - plant

    g0 = model.io_matrix(x_d)
    gtg = g0.T @ g0
    if np.linalg.cond(gtg) > 1e12:
        raise SynthesisError("G^T G is singular at the target state")

    if check_states is not None:
        gperp = left_annihilator(g0)
        worst = max(float(np.linalg.norm(gperp @ shaped(np.asarray(x, dtype=float)))) for x in check_states)
        if worst > matching_tol:
            raise SynthesisError(f"matching residual {worst:.3e} exceeds {matching_tol:.1e}")

    def control(x):
        x = np.asarray(x, dtype=float)
        g = model.io_matrix(x)
        return np.linalg.solve(g.T @ g, g.T @ shaped(x))

    return control


@dataclass(frozen=True)
class ReferencePlan:
    """Full-state reference x_d(t) with derivative, defined on a uniform grid.

    Evaluation between grid points uses a cubic spline of the sampled x_d;
    the derivative is the exact spline derivative, so the two interpolants
    are consistent by construction.  ``fit`` records how the trust-region
    solver of a best-fit plan exited (status, message, nfev, njev, cost,
    optimality); it is None for exact plans and plans read from CSV.
    """

    times: np.ndarray
    xd: np.ndarray
    xddot: np.ndarray
    fit: Optional[dict] = field(default=None, compare=False)
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "xd", np.atleast_2d(np.asarray(self.xd, dtype=float)))
        object.__setattr__(self, "xddot", np.atleast_2d(np.asarray(self.xddot, dtype=float)))
        if self.xd.shape[0] != self.times.shape[0] or self.xd.shape != self.xddot.shape:
            raise ValueError("plan arrays must share the grid length")
        object.__setattr__(self, "_spline", CubicSpline(self.times, self.xd, axis=0))

    @property
    def t_span(self):
        return float(self.times[0]), float(self.times[-1])

    def _check(self, t):
        t0, t1 = self.t_span
        if np.any(np.asarray(t) < t0 - 1e-9) or np.any(np.asarray(t) > t1 + 1e-9):
            raise PlanError(f"time {t} outside plan range [{t0:.6g}, {t1:.6g}]")

    def x_d(self, t):
        self._check(t)
        return self._spline(t)

    def x_d_dot(self, t):
        self._check(t)
        return self._spline(t, 1)


def matching_residual(model, desired: DesiredDynamics, plan: ReferencePlan, x, t) -> np.ndarray:
    """Unactuated-direction defect Gperp (mu - [J_d - R_d] grad H_d - xdot_d)."""
    x = np.asarray(x, dtype=float)
    x_d = plan.x_d(t)
    mu = model.drift_mean(x[:, None])[:, 0]
    rhs = (desired.jd - desired.rd) @ desired.hd_grad(x, x_d) + plan.x_d_dot(t)
    gperp = left_annihilator(model.io_matrix(x))
    return gperp @ (mu - rhs)


def solve_reference_plan(
    model,
    desired: DesiredDynamics,
    primary_reference: Callable[[float], tuple],
    t_span,
    grid_step: float,
    seed_tail: Optional[np.ndarray] = None,
    max_sweeps: int = 12,
    sweep_tol: float = 1e-10,
    newton_tol: float = 1e-12,
    max_newton: int = 50,
    mode: str = "exact",
) -> ReferencePlan:
    """Recover the unactuated reference components along the primary reference.

    At every grid time the matching condition at zero error,

        Gperp ([J_d - R_d] grad H_d(0) + xdot_d - mu(x_d)) = 0,

    is solved for the n-1 unknown components of x_d by damped Newton with
    warm starts; the derivative estimates of the solved components are
    refreshed by spline differentiation in outer sweeps until the grid values
    settle.  ``primary_reference`` maps t to (x_d1, xdot_d1).

    A learned drift can put the condition out of exact reach: posterior-mean
    error shifts the residual surface, and the root may cease to exist over
    some time window.  mode="best-fit" then minimizes the total squared
    residual over the whole grid at once (trust-region least squares with a
    banded Jacobian; the solved components' derivatives enter through local
    finite differences, so the defect spreads smoothly across a no-root
    window instead of kinking).  Its Jacobian is built from the derivative
    stencil plus one batched central difference of the drift mean per
    unknown component, and best-fit needs a state-independent input matrix.
    The achieved defect is recoverable through `matching_residual`, and the
    solver's exit through `ReferencePlan.fit`.  The default mode="exact"
    keeps the strict per-point-root contract and raises on failure.

    Best-fit solves are confined to the training-data bounding box when the
    model carries its data: off the data the posterior mean decays to the
    prior and grows spurious roots on branches the data never visited.
    """
    if mode not in ("exact", "best-fit"):
        raise ValueError(f"unknown plan mode '{mode}'")
    n = model.dim_state
    m = model.dim_input
    if m != 1:
        raise PlanError("reference-plan solving is implemented for single-input systems")
    t0, t1 = float(t_span[0]), float(t_span[1])
    n_grid = int(round((t1 - t0) / grid_step)) + 1
    times = np.linspace(t0, t1, n_grid)

    prim = [primary_reference(t) for t in times]
    xd1 = np.array([p[0] for p in prim], dtype=float)
    xd1dot = np.array([p[1] for p in prim], dtype=float)

    g0 = desired.hd_error_grad_batch(np.zeros((n, 1)))[:, 0]
    shaped0 = (desired.jd - desired.rd) @ g0

    z = np.zeros((n_grid, n - 1))
    z0 = np.zeros(n - 1) if seed_tail is None else np.asarray(seed_tail, dtype=float)
    xddot = np.zeros((n_grid, n))
    xddot[:, 0] = xd1dot
    gperp_prev = None

    if mode == "best-fit":
        return _solve_plan_best_fit(model, times, xd1, xd1dot, shaped0, z0, grid_step)

    def residual(k, zk, gperp):
        x_full = np.concatenate([[xd1[k]], zk])
        mu = model.drift_mean(x_full[:, None])[:, 0]
        return gperp @ (shaped0 + xddot[k] - mu)

    for sweep in range(max_sweeps):
        z_prev = z.copy()
        warm = z0.copy() if sweep == 0 else z[0].copy()
        for k in range(n_grid):
            zk = warm.copy() if (sweep == 0 or k == 0) else z[k].copy()
            if sweep == 0 and k > 0:
                zk = z[k - 1].copy()
            x_probe = np.concatenate([[xd1[k]], zk])
            gperp = left_annihilator(model.io_matrix(x_probe), prev=gperp_prev)
            gperp_prev = gperp
            f_val = residual(k, zk, gperp)
            it = 0
            while np.linalg.norm(f_val) > newton_tol:
                if it >= max_newton:
                    raise PlanError(
                        "Newton iteration failed", time=times[k], residual=float(np.linalg.norm(f_val))
                    )
                jac = np.empty((n - m, n - 1))
                for c in range(n - 1):
                    h = 1e-7 * max(1.0, abs(zk[c]))
                    zp = zk.copy()
                    zp[c] += h
                    zm = zk.copy()
                    zm[c] -= h
                    jac[:, c] = (residual(k, zp, gperp) - residual(k, zm, gperp)) / (2 * h)
                try:
                    step = np.linalg.solve(jac, -f_val)
                except np.linalg.LinAlgError as exc:
                    raise PlanError(
                        f"singular Newton Jacobian: {exc}",
                        time=times[k],
                        residual=float(np.linalg.norm(f_val)),
                    ) from exc
                lam = 1.0
                norm0 = np.linalg.norm(f_val)
                while lam > 1e-4:
                    trial = zk + lam * step
                    f_trial = residual(k, trial, gperp)
                    if np.linalg.norm(f_trial) < (1.0 - 0.5 * lam) * norm0 + newton_tol:
                        zk = trial
                        f_val = f_trial
                        break
                    lam *= 0.5
                else:
                    raise PlanError(
                        "Newton line search stalled", time=times[k], residual=float(norm0)
                    )
                it += 1
            z[k] = zk
        if n_grid >= 2:
            spline_z = CubicSpline(times, z, axis=0)
            xddot[:, 1:] = spline_z(times, 1)
        if np.max(np.abs(z - z_prev)) <= sweep_tol:
            break

    xd_full = np.column_stack([xd1, z])
    spline_full = CubicSpline(times, xd_full, axis=0)
    return ReferencePlan(times=times, xd=xd_full, xddot=spline_full(times, 1))


def _derivative_stencil(n_grid, h):
    """Second-order finite-difference derivative on a uniform grid as an (n_grid, n_grid) matrix."""
    d = np.zeros((n_grid, n_grid))
    k = np.arange(1, n_grid - 1)
    d[k, k - 1] = -1.0
    d[k, k + 1] = 1.0
    d[0, :3] = (-3.0, 4.0, -1.0)
    d[-1, -3:] = (1.0, -4.0, 3.0)
    return d / (2 * h)


def _best_fit_problem(model, xd1, xd1dot, shaped0, probe, grid_step):
    """Residual and Jacobian of the best-fit plan in the flat tail z = (z_0, ..., z_K).

    Row block k is Gperp (shaped0 + xdot_d(t_k) - mu(x_d(t_k))), where the
    tail derivatives come from the stencil over neighbouring grid points, so
    the Jacobian is banded: the stencil kron'd with Gperp[:, 1:], minus
    Gperp dmu/dz_k on the diagonal blocks.
    """
    n = model.dim_state
    n_grid = xd1.size
    n_tail = n - 1
    g_probe = model.io_matrix(probe)
    if not np.array_equal(g_probe, model.io_matrix(probe + 0.1)):
        raise PlanError("best-fit plan solving needs a state-independent input matrix")
    gperp = left_annihilator(g_probe)
    stencil = _derivative_stencil(n_grid, grid_step)
    neighbours = np.kron(stencil, gperp[:, 1:])
    diag = np.arange(n_grid)

    def states(zflat):
        zz = zflat.reshape(n_grid, n_tail)
        return zz, np.vstack([xd1, zz.T])

    def residual(zflat):
        zz, x_all = states(zflat)
        target = shaped0[:, None] + np.vstack([xd1dot, (stencil @ zz).T]) - model.drift_mean(x_all)
        return (gperp @ target).T.ravel()

    def jacobian(zflat):
        zz, x_all = states(zflat)
        # mu(x_k) depends on z_k alone, so one central difference per tail
        # component perturbs every grid point at once
        dmu = np.empty((n_grid, n, n_tail))
        for c in range(n_tail):
            shift = np.zeros_like(x_all)
            shift[c + 1] = 1e-6 * np.maximum(1.0, np.abs(zz[:, c]))
            diff = model.drift_mean(x_all + shift) - model.drift_mean(x_all - shift)
            dmu[:, :, c] = (diff / (2 * shift[c + 1])).T
        jac = neighbours.copy()
        jac.reshape(n_grid, n_tail, n_grid, n_tail)[diag, :, diag, :] -= np.einsum(
            "ij,kjc->kic", gperp, dmu
        )
        return jac

    return residual, jacobian


def _solve_plan_best_fit(model, times, xd1, xd1dot, shaped0, z0, grid_step):
    n = model.dim_state
    n_grid = times.size
    n_tail = n - 1
    if n_grid < 3:
        raise PlanError("best-fit plan solving needs at least 3 grid points")

    data = getattr(model, "states", None)
    if data is not None:
        span = data.max(axis=1) - data.min(axis=1)
        z_lo = np.tile((data.min(axis=1) - 0.15 * span)[1:], n_grid)
        z_hi = np.tile((data.max(axis=1) + 0.15 * span)[1:], n_grid)
    else:
        z_lo = np.full(n_grid * n_tail, -np.inf)
        z_hi = np.full(n_grid * n_tail, np.inf)

    residual, jacobian = _best_fit_problem(
        model, xd1, xd1dot, shaped0, np.concatenate([[xd1[0]], z0]), grid_step
    )
    start = np.tile(np.clip(z0, z_lo[:n_tail], z_hi[:n_tail]), n_grid)
    fit = least_squares(
        residual,
        start,
        jac=jacobian,
        method="trf",
        bounds=(z_lo, z_hi),
        xtol=1e-8,
        ftol=1e-8,
        gtol=1e-10,
        max_nfev=600,
    )
    # With the exact Jacobian trf solves each step exactly and ends on one of
    # its convergence tests; max_nfev only caps a fit that stalls, and the
    # exit is recorded either way.  Only an invalid-input status is a hard
    # failure; fit quality is reported through the matching-residual
    # diagnostics.
    if fit.status < 0:
        raise PlanError(
            f"global least-squares fit failed: {fit.message}",
            time=float(times[0]),
            residual=float(np.linalg.norm(fit.fun)),
        )
    z = fit.x.reshape(n_grid, n_tail)
    xd_full = np.column_stack([xd1, z])
    spline_full = CubicSpline(times, xd_full, axis=0)
    report = {
        "status": int(fit.status),
        "message": str(fit.message),
        "nfev": int(fit.nfev),
        "njev": int(fit.njev),
        "cost": float(fit.cost),
        "optimality": float(fit.optimality),
    }
    return ReferencePlan(times=times, xd=xd_full, xddot=spline_full(times, 1), fit=report)


def tracking_control(model, desired: DesiredDynamics, plan: ReferencePlan):
    """General tracking law u = (Ghat^T Ghat)^-1 Ghat^T ([J_d - R_d] grad H_d + xdot_d - mu)."""
    probe = plan.x_d(plan.times[0])
    g_probe = model.io_matrix(probe)
    if np.linalg.cond(g_probe.T @ g_probe) > 1e12:
        raise SynthesisError("Ghat^T Ghat is singular along the plan")

    def control(x, t):
        x = np.asarray(x, dtype=float)
        x_d = plan.x_d(t)
        mu = model.drift_mean(x[:, None])[:, 0]
        rhs = (desired.jd - desired.rd) @ desired.hd_grad(x, x_d) + plan.x_d_dot(t) - mu
        g = model.io_matrix(x)
        return np.linalg.solve(g.T @ g, g.T @ rhs)

    return control


def microactuator_tracking_control(model, desired: DesiredDynamics, plan: ReferencePlan):
    """Reduced single-input law for the microactuator structure.

    u = -(r_hat / r_d) d3 H_d + r_hat xdot_d3 + d3 H_hat(x); equal to the
    general law whenever Ghat = (0, 0, 1/r_hat)^T and row 3 of J_d - R_d is
    (0, 0, -1/r_d).  The common textbook rendering drops the r_hat factors,
    which is the special case r_hat = 1.
    """
    rd33 = float(desired.rd[2, 2])

    def control(x, t):
        x = np.asarray(x, dtype=float)
        x_d = plan.x_d(t)
        r_hat = 1.0 / float(model.io_matrix(x)[2, 0])
        d3_hd = desired.hd_grad(x, x_d)[2]
        d3_h = model.hamiltonian_grad(x[:, None])[2, 0]
        return np.array([-r_hat * rd33 * d3_hd + r_hat * plan.x_d_dot(t)[2] + d3_h])

    return control


def semi_passive_control(base_control, u_ex: Callable[[float], np.ndarray]):
    """Add an external port input: u(x, t) = base(x, t) + u_ex(t)."""

    def control(x, t):
        return base_control(x, t) + np.atleast_1d(np.asarray(u_ex(t), dtype=float))

    return control


def external_output(model, desired: DesiredDynamics, plan: ReferencePlan):
    """Conjugate external output y_ex(x, t) = Ghat(xbar)^T grad H_d(x, x_d)."""

    def output(x, t):
        x = np.asarray(x, dtype=float)
        x_d = plan.x_d(t)
        xbar = x - x_d
        return model.io_matrix(xbar).T @ desired.hd_grad(x, x_d)

    return output


def simulate_closed_loop(
    plant: PhsModel,
    controller,
    x0,
    t_span,
    n_samples: Optional[int] = None,
    sample_times: Optional[np.ndarray] = None,
    rtol: float = 1e-8,
    atol: float = 1e-8,
    blowup: float = 1e6,
) -> Trajectory:
    """Integrate the plant under state feedback u = controller(x, t); see core.simulate_feedback."""
    return simulate_feedback(
        plant,
        x0,
        controller,
        t_span,
        n_samples=n_samples,
        sample_times=sample_times,
        rtol=rtol,
        atol=atol,
        blowup=blowup,
    )


def simulate_error_dynamics(
    desired: DesiredDynamics,
    xbar0,
    t_span,
    n_samples: Optional[int] = None,
    rtol: float = 1e-10,
    atol: float = 1e-10,
) -> Trajectory:
    """Integrate the target error dynamics xbar_dot = [J_d - R_d] grad H_d(xbar)."""
    xbar0 = np.asarray(xbar0, dtype=float)
    n = xbar0.shape[0]

    def rhs(t, xbar):
        grad = desired.hd_error_grad_batch(xbar[:, None])[:, 0]
        return (desired.jd - desired.rd) @ grad

    t0, t1 = float(t_span[0]), float(t_span[1])
    sol = solve_ivp(rhs, (t0, t1), xbar0, method="RK45", rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise SimulationDivergedError(f"integrator stopped: {sol.message}", float(sol.t[-1]))
    ts = np.linspace(t0, t1, int(n_samples)) if n_samples else sol.t
    xs = sol.sol(ts).T
    return Trajectory(times=ts, states=xs, inputs=np.zeros((ts.shape[0], 1)))


def plan_to_csv(plan: ReferencePlan, path) -> None:
    """CSV header t,xd1..xdn,xddot1..xddotn at full double precision."""
    n = plan.xd.shape[1]
    cols = ["t"] + [f"xd{i + 1}" for i in range(n)] + [f"xddot{i + 1}" for i in range(n)]
    data = np.hstack([plan.times[:, None], plan.xd, plan.xddot])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(cols), comments="")


def plan_from_csv(path) -> ReferencePlan:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = (data.shape[1] - 1) // 2
    return ReferencePlan(times=data[:, 0], xd=data[:, 1 : 1 + n], xddot=data[:, 1 + n :])
