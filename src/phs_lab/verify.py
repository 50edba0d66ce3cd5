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
  every sampled margin is nonnegative.  The deterministic directions (signed
  axes and hypercube corners) go first: a negative margin among them on the
  largest sphere is a violating state, so it decides `unbounded` without the
  random scan.  That is a refutation, never a certificate.
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
    # whether the random scan ran; when it did not, the deterministic state
    # with the most negative margin on the largest sphere (radius, plan
    # time, direction, margin) decided the verdict
    scan: bool
    witness: Optional[dict]

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
        if self.witness is not None:
            w = self.witness
            lines.append(
                f"verdict from a witness: margin {w['margin']:.6g} at radius {w['radius']:.6g}, "
                f"plan time {w['time']:.6g}, direction [{', '.join(f'{v:.6g}' for v in w['direction'])}]; "
                "the random scan did not run"
            )
        kind = "deterministic directions (axes and corners)" if not self.scan else "directions"
        lines.append(
            f"radius grid: {self.radii[0]:.6g} .. {self.radii[-1]:.6g} ({self.radii.size} points), "
            f"{self.n_dirs} {kind} per radius, {self.times.size} reference times"
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
            "scan": bool(self.scan),
            "witness": self.witness,
        }


def verify_dissipation_condition(
    envelope: Callable[[np.ndarray], np.ndarray],
    desired: PhsModel,
    plan: ReferencePlan,
    spec: Optional[VerifySpec] = None,
) -> ConditionReport:
    """Sample the robust dissipation margin of the target loop ``desired`` around the reference.

    Directions mix deterministic axis/corner probes with Monte-Carlo sphere
    samples.  The 2n + 2^n deterministic ones are evaluated first, on every
    radius and plan time in one envelope call; when their margin is negative
    on the largest sphere the verdict is `unbounded`, the report holds their
    minima and names the most negative one as its witness, and the random
    scan does not run.  Otherwise every shell of the radius grid is scanned
    over all directions, and the certificate radius is refined by
    BISECT_ITERS bisection steps between the last violating radius and the
    first radius past which all margins stay nonnegative.  ``envelope`` maps
    plant states (n, Q) to eta (n, Q); a scanned shell, on the grid or in
    the bisection, calls it once on its states around all plan times.  The
    report's work counts are what ran: envelope_calls = 1 without the scan
    and 1 + n_radii + bisection_steps with it, and states_evaluated sums the
    states of those calls.
    """
    spec = spec or VerifySpec()
    n = desired.dim_state
    rng = np.random.default_rng(spec.seed)
    dirs = _sphere_directions(n, spec.n_dirs, rng)

    idx = np.unique(np.linspace(0, plan.times.size - 1, spec.n_times).round().astype(int))
    times = plan.times[idx]
    centers = np.stack([plan.x_d(t) for t in times], axis=1)

    envelope_calls = 0
    states_evaluated = 0

    def shell_margins(radii, block):
        """Margins (n_times, len(radii), Q) at every plan time + radius * direction of ``block`` (n, Q).

        The gradient and quadratic term live in error coordinates, so they are
        shared across plan times; only the envelope sees the plant state, and
        one envelope call takes every shell around every plan time at once.
        """
        nonlocal envelope_calls, states_evaluated
        xbar = (block[:, None, :] * radii[None, :, None]).reshape(n, -1)
        grads = desired.hamiltonian_gradient(xbar)
        quad = np.einsum("iq,ij,jq->q", grads, desired.r, grads)
        # states[:, t, q] = centre t + xbar_q
        states = centers[:, :, None] + xbar[:, None, :]
        eta = envelope(states.reshape(n, -1)).reshape(states.shape)
        envelope_calls += 1
        states_evaluated += xbar.shape[1] * times.size
        margins = quad - np.sum(np.abs(grads)[:, None, :] * eta, axis=0)
        return margins.reshape(times.size, radii.size, block.shape[1])

    radii = np.linspace(spec.max_radius / spec.n_radii, spec.max_radius, spec.n_radii)
    margins = shell_margins(radii, dirs[:, : 2 * n + 2**n])
    outer = margins[:, -1, :]
    scan = bool(np.min(outer) >= 0.0)
    witness = None
    if scan:
        margins = np.concatenate([shell_margins(radii[i : i + 1], dirs) for i in range(radii.size)], axis=1)
    else:
        i_time, i_dir = np.unravel_index(np.argmin(outer), outer.shape)
        witness = {
            "radius": float(radii[-1]),
            "time": float(times[i_time]),
            "direction": [float(v) for v in dirs[:, i_dir]],
            "margin": float(outer[i_time, i_dir]),
        }
    # one row per (radius, plan time): radius, t, min and mean margin over the directions
    rows = np.column_stack(
        [
            np.repeat(radii, times.size),
            np.tile(times, radii.size),
            margins.min(axis=2).T.ravel(),
            margins.mean(axis=2).T.ravel(),
        ]
    )
    min_per_radius = margins.min(axis=(0, 2))
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
            if np.min(shell_margins(np.array([mid]), dirs)) >= 0.0:
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
        n_dirs=margins.shape[2],
        max_radius=spec.max_radius,
        envelope_calls=envelope_calls,
        states_evaluated=states_evaluated,
        bisection_steps=bisection_steps,
        scan=scan,
        witness=witness,
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
