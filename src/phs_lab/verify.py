"""Numerical certificates for the synthesized closed loop.

Two checks gate a controller before it is trusted:

* the desired energy must have its minimum at zero error on the operating
  domain (otherwise the loop converges somewhere else), and
* the robust dissipation margin

      m(xbar, t) = grad H_d^T R_d grad H_d - sum_i |d H_d / d xbar_i| eta_i(x)

  must be nonnegative, where eta is the model's pointwise error envelope,
  a callable of the plant states (`GpPhsModel.envelope`, or zero for the
  exact model).
  The condition is probed on spheres of increasing radius around the
  reference; the certificate radius eps is the smallest radius beyond which
  every sampled margin is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .artifacts import write_table
from .control import ReferencePlan, find_hamiltonian_minimum, make_desired_dynamics
from .core import PhsModel
from .errors import SynthesisError

__all__ = [
    "VerifySpec",
    "HdMinimumReport",
    "ConditionReport",
    "validate_hd_minimum",
    "verify_dissipation_condition",
    "build_desired_dynamics",
    "GATE_BOUND",
    "GATE_RESOLUTION",
    "BISECT_ITERS",
]

# the energy-minimum gate's grid: GATE_RESOLUTION points per axis on
# [-GATE_BOUND, GATE_BOUND] in every error coordinate
GATE_BOUND = 2.0
GATE_RESOLUTION = 21
# bisection steps that refine the inner radius once a shell fails inside a feasible one
BISECT_ITERS = 12


@dataclass(frozen=True)
class VerifySpec:
    """Sampling plan for the dissipation check."""

    max_radius: float = 2.0
    n_radii: int = 25
    n_dirs: int = 2000
    n_times: int = 5
    seed: int = 0


@dataclass(frozen=True)
class HdMinimumReport:
    passed: bool
    min_value: float
    gap: float
    argmin_point: np.ndarray
    n_points: int

    def to_jsonable(self):
        return {
            "passed": bool(self.passed),
            "min_value": float(self.min_value),
            "gap": float(self.gap),
            "argmin_point": [float(v) for v in np.atleast_1d(self.argmin_point)],
            "n_points": int(self.n_points),
        }


def validate_hd_minimum(
    desired: PhsModel,
    bound: float = GATE_BOUND,
    resolution: int = GATE_RESOLUTION,
) -> HdMinimumReport:
    """Grid check that H_d (``desired.hamiltonian``) attains its strict minimum at zero error.

    The grid has ``resolution`` points per axis on [-bound, bound].  Passes
    iff the grid argmin is the grid point nearest the origin and the
    second-smallest value exceeds the minimum by a positive gap.
    """
    axes = [np.linspace(-bound, bound, resolution)] * desired.dim_state
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh])
    vals = desired.hamiltonian(pts)

    order = np.argsort(vals, kind="stable")
    imin = int(order[0])
    gap = float(vals[order[1]] - vals[order[0]]) if vals.size > 1 else 0.0
    izero = int(np.argmin(np.sum(pts**2, axis=0)))
    passed = (imin == izero) and gap > 0.0
    return HdMinimumReport(
        passed=passed,
        min_value=float(vals[imin]),
        gap=gap,
        argmin_point=pts[:, imin].copy(),
        n_points=int(vals.size),
    )


def _sphere_directions(n: int, n_random: int, rng: np.random.Generator) -> np.ndarray:
    """Unit directions: signed axes, scaled hypercube corners, then random."""
    axes = np.hstack([np.eye(n), -np.eye(n)])
    corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * n), indexing="ij")).reshape(n, -1) / np.sqrt(n)
    raw = rng.standard_normal((n, n_random))
    norms = np.linalg.norm(raw, axis=0)
    norms[norms == 0] = 1.0
    return np.hstack([axes, corners, raw / norms])


@dataclass(frozen=True)
class ConditionReport:
    satisfied: bool
    epsilon: float
    unbounded: bool
    radii: np.ndarray
    min_margin_per_radius: np.ndarray
    margin_rows: np.ndarray = field(repr=False)
    times: np.ndarray
    n_dirs: int
    max_radius: float
    # work counts: envelope calls, the states they evaluated, and the
    # bisection steps that refined eps
    envelope_calls: int
    states_evaluated: int
    bisection_steps: int

    def to_text(self) -> str:
        lines = []
        if self.satisfied:
            lines.append("dissipation condition: SATISFIED at every sampled radius (eps = 0)")
        elif self.unbounded:
            lines.append(
                "dissipation condition: VIOLATED at the largest sampled radius "
                f"({self.max_radius:g}); no finite certificate radius found"
            )
        else:
            lines.append(f"dissipation condition: holds outside radius eps = {self.epsilon:.6g}")
        lines.append(
            f"radius grid: {self.radii[0]:.6g} .. {self.radii[-1]:.6g} ({self.radii.size} points), "
            f"{self.n_dirs} directions per radius, {self.times.size} reference times"
        )
        i_worst = int(np.argmin(self.min_margin_per_radius))
        lines.append(
            f"worst sampled margin: {self.min_margin_per_radius[i_worst]:.6g} "
            f"at radius {self.radii[i_worst]:.6g}"
        )
        return "\n".join(lines)

    def margins_to_csv(self, path) -> None:
        rows = self.margin_rows
        write_table(path, radius=rows[:, 0], t=rows[:, 1], min_margin=rows[:, 2], mean_margin=rows[:, 3])

    def to_jsonable(self):
        return {
            "satisfied": bool(self.satisfied),
            "epsilon": None if not np.isfinite(self.epsilon) else float(self.epsilon),
            "unbounded": bool(self.unbounded),
            "max_radius": float(self.max_radius),
            "n_dirs": int(self.n_dirs),
            "radii": [float(v) for v in self.radii],
            "min_margin_per_radius": [float(v) for v in self.min_margin_per_radius],
            "times": [float(v) for v in self.times],
            "envelope_calls": int(self.envelope_calls),
            "states_evaluated": int(self.states_evaluated),
            "bisection_steps": int(self.bisection_steps),
        }


def verify_dissipation_condition(
    envelope: Callable[[np.ndarray], np.ndarray],
    desired: PhsModel,
    plan: ReferencePlan,
    spec: Optional[VerifySpec] = None,
) -> ConditionReport:
    """Sample the robust dissipation margin of the target loop ``desired`` around the reference.

    Directions mix deterministic axis/corner probes with Monte-Carlo sphere
    samples; the certificate radius is refined by BISECT_ITERS bisection
    steps between the last violating radius and the first radius past which
    all margins stay nonnegative.  ``envelope`` maps plant states (n, Q) to eta (n, Q).
    Every shell, on the radius grid or in the bisection, calls it once on
    its states around all plan times, so the report's work counts are
    envelope_calls = n_radii + bisection_steps and
    states_evaluated = envelope_calls * n_dirs * len(times).
    """
    spec = spec or VerifySpec()
    n = desired.dim_state
    rng = np.random.default_rng(spec.seed)
    dirs = _sphere_directions(n, spec.n_dirs, rng)

    idx = np.unique(np.linspace(0, plan.times.size - 1, spec.n_times).round().astype(int))
    times = plan.times[idx]
    centers = np.stack([plan.x_d(t) for t in times], axis=1)

    envelope_calls = 0

    def shell_margins(radius: float):
        """(min, mean) margin per plan time on the sphere of this radius.

        The gradient and quadratic term live in error coordinates, so they are
        shared across plan times; only the envelope sees the plant state, and
        one envelope call takes the shell around every plan time at once.
        """
        nonlocal envelope_calls
        xbar = radius * dirs
        grads = desired.hamiltonian_gradient(xbar)
        quad = np.einsum("iq,ij,jq->q", grads, desired.r, grads)
        # states[:, t, q] = centre t + xbar_q
        states = centers[:, :, None] + xbar[:, None, :]
        eta = envelope(states.reshape(n, -1)).reshape(states.shape)
        envelope_calls += 1
        margins = quad - np.sum(np.abs(grads)[:, None, :] * eta, axis=0)
        return [(float(np.min(m)), float(np.mean(m))) for m in margins]

    radii = np.linspace(spec.max_radius / spec.n_radii, spec.max_radius, spec.n_radii)
    rows = []
    for s in radii:
        rows.extend([s, t, m_min, m_mean] for t, (m_min, m_mean) in zip(times, shell_margins(s)))
    rows = np.asarray(rows, dtype=float)
    min_per_radius = rows[:, 2].reshape(spec.n_radii, times.size).min(axis=1)
    feasible = min_per_radius >= 0.0

    bisection_steps = 0
    if np.all(feasible):
        satisfied, unbounded, eps = True, False, 0.0
    elif not feasible[-1]:
        satisfied, unbounded, eps = False, True, float("inf")
    else:
        satisfied = False
        unbounded = False
        i_last_bad = int(np.max(np.nonzero(~feasible)[0]))
        lo, hi = radii[i_last_bad], radii[i_last_bad + 1]
        for _ in range(BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            if min(m_min for m_min, _ in shell_margins(mid)) >= 0.0:
                hi = mid
            else:
                lo = mid
            bisection_steps += 1
        eps = float(hi)

    return ConditionReport(
        satisfied=satisfied,
        epsilon=eps,
        unbounded=unbounded,
        radii=radii,
        min_margin_per_radius=min_per_radius,
        margin_rows=rows,
        times=times,
        n_dirs=dirs.shape[1],
        max_radius=spec.max_radius,
        envelope_calls=envelope_calls,
        states_evaluated=envelope_calls * dirs.shape[1] * times.size,
        bisection_steps=bisection_steps,
    )


def build_desired_dynamics(mean: PhsModel, jd, rd, box=None):
    """Centre H_d at the learned energy minimum and gate it once.

    The centre c is a root of grad H_hat (find_hamiltonian_minimum), searched
    over ``box`` (the training-state bounding box, one (low, high) per
    dimension) when it is given and over the gate grid's box otherwise, and
    H_d(xbar) = H_hat(c + xbar) - H_hat(c).
    Returns the dynamics plus the report of hd_check.json: ``center``, the
    root's exit ``root`` and the gate result ``final_gate``.  Raises
    SynthesisError when the gate fails.
    """
    if box is None:
        box = [(-GATE_BOUND, GATE_BOUND)] * mean.dim_state
    center, root_exit = find_hamiltonian_minimum(mean, box)
    desired = make_desired_dynamics(mean, jd, rd, center=center)
    gate = validate_hd_minimum(desired)
    if not gate.passed:
        raise SynthesisError(
            f"desired energy lacks a minimum at zero error; grid argmin at {gate.argmin_point}"
        )
    report = {"center": [float(v) for v in center], "root": root_exit, "final_gate": gate.to_jsonable()}
    return desired, report
