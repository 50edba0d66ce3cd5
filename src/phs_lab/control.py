"""Passivity-based tracking control synthesized from a learned PHS model.

The controller shapes the closed loop into a target error loop that is
itself a port-Hamiltonian system (a `core.PhsModel` of the error
xbar = x - x_d(t)):

    xbar_dot = [J_d - R_d] grad H_d(xbar) + Ghat u_ex,   y_ex = Ghat^T grad H_d(xbar)

with (J_d, R_d) constant matrices and u_ex an external port input.  It is
reached via the matching condition on the unactuated directions

    Gperp mu(xdot | x, D) = Gperp ([J_d - R_d] grad H_d + xdot_d)

with mu the posterior drift mean.  The actuated component gives the control

    u = (Ghat^T Ghat)^-1 Ghat^T ([J_d - R_d] grad H_d + xdot_d - mu).

The model is a `core.PhsModel` ``mean``: the learned mean
(``gp.GpPhsModel.mean``), or the plant itself for the perfect-model baseline.
mu is core.eval_dynamics(mean, x, 0) and Ghat the constant ``mean.g``, so
Gperp is one matrix: a plan solve computes it once, and the laws read Ghat
when they are built, not per state.  The target loop's own simulation,
output and power balance are those of `core`: `simulate_feedback` under a
zero (or external port) input, `phs_output`, `energy_balance_residual`.

The full-state reference plan enforces the matching condition along the
reference itself (xbar = 0) only, recovering the unactuated reference
components from the primary one by a least-squares fit over the whole time
grid.  Off the reference the unactuated rows carry the mismatch

    Gperp (mu(x) - mu(x_d) - [J_d - R_d] (grad H_d(xbar) - grad H_d(0)))

(plus the plan's own defect at x_d where the condition has no root), so
the model-predicted error dynamics equal the desired ones exactly only on
the reference.  On the true plant the model error (f - mu) + (G - Ghat) u
enters on top; it is bounded by the GP envelope, not cancelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
# not called here: the benchmark tracer patches control.solve_ivp by name, so
# the name stays for it (as StructureEstimate.jr_stack does); the program's
# one integrator is core.simulate_feedback
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.interpolate import CubicSpline
from scipy.linalg import null_space
from scipy.optimize import least_squares, root

from .artifacts import read_table, write_table
from .core import PhsModel, eval_dynamics, on_columns
from .errors import PlanError, SynthesisError

__all__ = [
    "DesiredDynamics",
    "ReferencePlan",
    "make_desired_dynamics",
    "microactuator_desired_matrices",
    "find_hamiltonian_minimum",
    "left_annihilator",
    "matching_residual",
    "solve_reference_plan",
    "tracking_control",
    "microactuator_tracking_control",
    "semi_passive_control",
    "plan_to_csv",
    "plan_from_csv",
]


@dataclass(frozen=True, eq=False)
class DesiredDynamics(PhsModel):
    """The target error loop: a PHS in xbar with j = J_d, r = R_d, g = Ghat.

    ``hamiltonian`` and ``hamiltonian_gradient`` are H_d and grad H_d, for
    one error (n,) or a block (n, Q).  ``center`` is the point c of the
    learned energy that H_d places at zero error.
    """

    center: np.ndarray


def microactuator_desired_matrices(b_hat: float, r_d_inv: float = 10.0):
    """Desired (J_d, R_d) for the microactuator: damping b_hat and 1/r_d assigned."""
    jd = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    rd = np.diag([0.0, float(b_hat), float(r_d_inv)])
    return jd, rd


def _mu(mean: PhsModel, x):
    """The model's drift mu = (J - R) grad H at one state (n,) or a block (n, Q)."""
    return eval_dynamics(mean, x, np.zeros(mean.dim_input))


def make_desired_dynamics(mean: PhsModel, jd, rd, center=None) -> DesiredDynamics:
    """The target error loop of a model, with H_d from its Hamiltonian.

    H_d(xbar) = H_hat(center + xbar) - H_hat(center); with center at the
    learned energy minimum the required min-at-zero-error property holds.
    ``jd``/``rd`` are the constant desired matrices and the port is the
    model's ``g``.
    """
    center = np.zeros(mean.dim_state) if center is None else np.asarray(center, dtype=float)
    h_center = float(mean.hamiltonian(center))
    return DesiredDynamics(
        j=np.asarray(jd, dtype=float),
        r=np.asarray(rd, dtype=float),
        g=np.asarray(mean.g, dtype=float),
        hamiltonian=on_columns(lambda x: mean.hamiltonian(x) - h_center, center),
        hamiltonian_gradient=on_columns(mean.hamiltonian_gradient, center),
        center=center,
    )


def find_hamiltonian_minimum(mean: PhsModel, box, coarse: int = 9):
    """Locate the learned energy minimum inside a box as a root of grad H_hat.

    A coarse grid scan of H_hat (``coarse`` points per axis of ``box``, a
    sequence of (low, high) per dimension) picks the start, and
    scipy.optimize.root (MINPACK hybrd) solves grad H_hat(c) = 0 from there.
    The centre therefore depends on grad H_hat alone, not on the rounding of
    H_hat; a root that is not a minimum is left to the energy-minimum gate
    to reject.  Returns c and the root's exit: status, message, nfev and
    |grad H_hat(c)|_inf.
    """
    axes = [np.linspace(lo, hi, coarse) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh])
    vals = mean.hamiltonian(pts)
    x0 = pts[:, int(np.argmin(vals))]

    res = root(mean.hamiltonian_gradient, x0, method="hybr")
    exit_record = {
        "status": int(res.status),
        "message": str(res.message),
        "nfev": int(res.nfev),
        "grad_inf_norm": float(np.max(np.abs(res.fun))),
    }
    return np.asarray(res.x, dtype=float), exit_record


def left_annihilator(g_mat) -> np.ndarray:
    """Orthonormal full-row-rank Gperp with Gperp G = 0, rows (n - m, n).

    The basis is canonical: rows ordered by leading entry, leading entries
    positive.
    """
    g_mat = np.atleast_2d(np.asarray(g_mat, dtype=float))
    n, m = g_mat.shape
    basis = null_space(g_mat.T).T
    if basis.shape[0] != n - m:
        raise SynthesisError(
            f"input matrix is rank-deficient: left null space has dimension {basis.shape[0]}, expected {n - m}"
        )
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


@dataclass(frozen=True)
class ReferencePlan:
    """Full-state reference x_d(t) with derivative, defined on a uniform grid.

    Evaluation between grid points uses a cubic spline of the sampled x_d;
    the derivative is the exact spline derivative, so the two interpolants
    are consistent by construction, and ``xddot`` is that derivative at the
    grid points.  ``solves`` records how the trust-region solves of
    `solve_reference_plan` exited, as {"free": exit, "box": exit or None}
    (each exit: status, message, nfev, njev, cost, optimality), and ``fit``
    is the exit of the solve that produced the plan; both are None for
    plans read from CSV.
    """

    times: np.ndarray
    xd: np.ndarray
    solves: Optional[dict] = field(default=None, compare=False)
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "xd", np.atleast_2d(np.asarray(self.xd, dtype=float)))
        if self.xd.shape[0] != self.times.shape[0]:
            raise ValueError("plan arrays must share the grid length")
        object.__setattr__(self, "_spline", CubicSpline(self.times, self.xd, axis=0))

    @property
    def fit(self):
        if self.solves is None:
            return None
        return self.solves["box"] or self.solves["free"]

    @property
    def xddot(self):
        return self._spline(self.times, 1)

    @property
    def t_span(self):
        return float(self.times[0]), float(self.times[-1])

    def _check(self, t):
        t0, t1 = self.t_span
        lo, hi = t0 - 1e-9, t1 + 1e-9
        # one scalar comparison for the integrator's float times
        if isinstance(t, float) and lo <= t <= hi:
            return
        if np.any(np.asarray(t) < lo) or np.any(np.asarray(t) > hi):
            raise PlanError(f"time {t} outside plan range [{t0:.6g}, {t1:.6g}]")

    def x_d(self, t):
        self._check(t)
        return self._spline(t)

    def x_d_dot(self, t):
        self._check(t)
        return self._spline(t, 1)

    def reference(self, t):
        """(x_d(t), xdot_d(t)) behind one range check."""
        self._check(t)
        return self._spline(t), self._spline(t, 1)


def matching_residual(mean: PhsModel, desired: DesiredDynamics, plan: ReferencePlan, idx) -> np.ndarray:
    """Unactuated defects Gperp (mu - [J_d - R_d] grad H_d(0) - xdot_d) on the plan, (n - m, Q).

    ``idx`` picks Q grid points of the plan; there the error is zero, so
    one mu call on their states gives every defect.
    """
    shaped0 = (desired.j - desired.r) @ desired.hamiltonian_gradient(np.zeros(desired.dim_state))
    target = shaped0[:, None] + plan.x_d_dot(plan.times[idx]).T
    return left_annihilator(mean.g) @ (_mu(mean, plan.xd[idx].T) - target)


def solve_reference_plan(
    mean: PhsModel,
    desired: DesiredDynamics,
    primary_reference: Callable[[float], tuple],
    t_span,
    grid_step: float,
    seed_tail: Optional[np.ndarray] = None,
    box=None,
) -> ReferencePlan:
    """Recover the unactuated reference components along the primary reference.

    At every grid time the matching condition at zero error,

        Gperp ([J_d - R_d] grad H_d(0) + xdot_d - mu(x_d)) = 0,

    constrains the n-1 unknown components of x_d.  They are fitted over the
    whole grid at once by trust-region least squares (scipy's ``trf``) on the
    total squared defect, with xdot_d of the unknowns taken from the plan's
    own cubic-spline derivative at the grid points.  The fit's objective is
    therefore the defect that `matching_residual` reports at the grid points,
    up to the spline's error in xdot_d1, which the objective takes from
    ``primary_reference``; where a root exists at every grid time the
    zero-residual fit is the exact plan.  A learned drift can put the
    condition out of exact reach (posterior-mean error shifts the residual
    surface, and the root may cease to exist over some time window); the fit
    then spreads the defect smoothly across that window.  ``primary_reference``
    maps t to (x_d1, xdot_d1), and ``seed_tail`` starts every grid point's
    unknowns.

    ``box`` is the bounding box of a learned model's training states, one
    (low, high) per dimension.  When it is given, the plan must stay inside
    it, widened by 15 % of its span: off the data the posterior mean decays
    to the prior and grows spurious roots on branches the data never
    visited.  The fit is first solved free, from ``seed_tail`` clipped into
    that box.  A free solution inside the box is the plan; only
    one that leaves it is solved again with the box as bounds, started from
    the free solution clipped into the box.  (Bounded ``trf`` keeps its
    iterates strictly interior with small steps, whether or not a bound is
    near, so it takes several times the evaluations of the free solve to
    reach the same interior root.)  Both exits are recorded in
    `ReferencePlan.solves`; without a box the fit is solved free once.
    """
    n = mean.dim_state
    n_tail = n - 1
    if mean.dim_input != 1:
        raise PlanError("reference-plan solving is implemented for single-input systems")
    t0, t1 = float(t_span[0]), float(t_span[1])
    n_grid = int(round((t1 - t0) / grid_step)) + 1
    if n_grid < 3:
        raise PlanError("plan solving needs at least 3 grid points")
    times = np.linspace(t0, t1, n_grid)

    prim = [primary_reference(t) for t in times]
    xd1 = np.array([p[0] for p in prim], dtype=float)
    xd1dot = np.array([p[1] for p in prim], dtype=float)

    shaped0 = (desired.j - desired.r) @ desired.hamiltonian_gradient(np.zeros(n))
    z0 = np.zeros(n_tail) if seed_tail is None else np.asarray(seed_tail, dtype=float)

    if box is not None:
        lo, hi = np.asarray(box, dtype=float).T
        span = hi - lo
        z_lo = np.tile((lo - 0.15 * span)[1:], n_grid)
        z_hi = np.tile((hi + 0.15 * span)[1:], n_grid)
        z0 = np.clip(z0, z_lo[:n_tail], z_hi[:n_tail])

    residual, jacobian = _best_fit_problem(mean, times, xd1, xd1dot, shaped0)

    def solve(start, bounds=(-np.inf, np.inf)):
        fit = least_squares(
            residual,
            start,
            jac=jacobian,
            method="trf",
            bounds=bounds,
            xtol=1e-8,
            ftol=1e-8,
            gtol=1e-10,
            max_nfev=600,
        )
        # With the exact Jacobian trf solves each step exactly and ends on one
        # of its convergence tests; max_nfev only caps a fit that stalls, and
        # the exit is recorded either way.  Only an invalid-input status is a
        # hard failure; fit quality is reported through the matching-residual
        # diagnostics.
        if fit.status < 0:
            raise PlanError(
                f"global least-squares fit failed: {fit.message}",
                time=float(times[0]),
                residual=float(np.linalg.norm(fit.fun)),
            )
        return fit, {
            "status": int(fit.status),
            "message": str(fit.message),
            "nfev": int(fit.nfev),
            "njev": int(fit.njev),
            "cost": float(fit.cost),
            "optimality": float(fit.optimality),
        }

    fit, free = solve(np.tile(z0, n_grid))
    solves = {"free": free, "box": None}
    if box is not None and np.any((fit.x < z_lo) | (fit.x > z_hi)):
        fit, solves["box"] = solve(np.clip(fit.x, z_lo, z_hi), (z_lo, z_hi))
    xd_full = np.column_stack([xd1, fit.x.reshape(n_grid, n_tail)])
    return ReferencePlan(times=times, xd=xd_full, solves=solves)


def _best_fit_problem(mean: PhsModel, times, xd1, xd1dot, shaped0):
    """Residual and Jacobian of the plan fit in the flat tail z = (z_0, ..., z_K).

    Row block k is Gperp (shaped0 + xdot_d(t_k) - mu(x_d(t_k))), where the
    tail derivatives are those of the cubic spline through the tail on
    ``times``.  The spline is linear in its data, so they are D z with D the
    spline derivative of the identity, and the Jacobian is D kron'd with
    Gperp[:, 1:], minus Gperp dmu/dz_k on the diagonal blocks.
    """
    n = mean.dim_state
    n_grid = times.size
    n_tail = n - 1
    gperp = left_annihilator(mean.g)
    deriv = CubicSpline(times, np.eye(n_grid), axis=0)(times, 1)
    neighbours = np.kron(deriv, gperp[:, 1:])
    diag = np.arange(n_grid)

    def states(zflat):
        zz = zflat.reshape(n_grid, n_tail)
        return zz, np.vstack([xd1, zz.T])

    def residual(zflat):
        zz, x_all = states(zflat)
        target = shaped0[:, None] + np.vstack([xd1dot, (deriv @ zz).T]) - _mu(mean, x_all)
        return (gperp @ target).T.ravel()

    def jacobian(zflat):
        zz, x_all = states(zflat)
        # mu(x_k) depends on z_k alone, so one central difference per tail
        # component perturbs every grid point at once
        dmu = np.empty((n_grid, n, n_tail))
        for c in range(n_tail):
            shift = np.zeros_like(x_all)
            shift[c + 1] = 1e-6 * np.maximum(1.0, np.abs(zz[:, c]))
            diff = _mu(mean, x_all + shift) - _mu(mean, x_all - shift)
            dmu[:, :, c] = (diff / (2 * shift[c + 1])).T
        jac = neighbours.copy()
        jac.reshape(n_grid, n_tail, n_grid, n_tail)[diag, :, diag, :] -= np.einsum(
            "ij,kjc->kic", gperp, dmu
        )
        return jac

    return residual, jacobian


def tracking_control(mean: PhsModel, desired: DesiredDynamics, plan: ReferencePlan):
    """General tracking law u = (Ghat^T Ghat)^-1 Ghat^T ([J_d - R_d] grad H_d + xdot_d - mu)."""
    g = mean.g
    gtg = g.T @ g
    if np.linalg.cond(gtg) > 1e12:
        raise SynthesisError("Ghat^T Ghat is singular")

    def control(x, t):
        x = np.asarray(x, dtype=float)
        shaped = (desired.j - desired.r) @ desired.hamiltonian_gradient(x - plan.x_d(t))
        rhs = shaped + plan.x_d_dot(t) - _mu(mean, x)
        return np.linalg.solve(gtg, g.T @ rhs)

    return control


def microactuator_tracking_control(mean: PhsModel, desired: DesiredDynamics, plan: ReferencePlan):
    """Reduced single-input law for the microactuator structure.

    u = -(r_hat / r_d) d3 H_d + r_hat xdot_d3 + d3 H_hat(x); equal to the
    general law whenever Ghat = (0, 0, 1/r_hat)^T and row 3 of J_d - R_d is
    (0, 0, -1/r_d).  The common textbook rendering drops the r_hat factors,
    which is the special case r_hat = 1.
    """
    rd33 = float(desired.r[2, 2])
    r_hat = 1.0 / float(mean.g[2, 0])

    def control(x, t):
        # grad H_hat at x and grad H_d = grad H_hat(c + x - x_d) in one call
        x_d, x_d_dot = plan.reference(t)
        cols = np.empty((x_d.size, 2))
        cols[:, 0] = x
        cols[:, 1] = desired.center + (x - x_d)
        d3_h, d3_hd = mean.hamiltonian_gradient(cols)[2]
        return np.array([-r_hat * rd33 * d3_hd + r_hat * x_d_dot[2] + d3_h])

    return control


def semi_passive_control(base_control, u_ex: Callable[[float], np.ndarray]):
    """Add an external port input: u(x, t) = base(x, t) + u_ex(t)."""

    def control(x, t):
        return base_control(x, t) + np.atleast_1d(np.asarray(u_ex(t), dtype=float))

    return control


def plan_to_csv(plan: ReferencePlan, path) -> None:
    """CSV header t,xd1..xdn,xddot1..xddotn at full double precision.

    The xddot columns are the spline derivative, kept for readers of the
    file; `plan_from_csv` rebuilds it from the xd columns.
    """
    write_table(path, t=plan.times, xd=plan.xd, xddot=plan.xddot)


def plan_from_csv(path) -> ReferencePlan:
    table = read_table(path)
    return ReferencePlan(times=table["t"], xd=table.group("xd"))
