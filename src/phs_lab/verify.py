"""Numerical certificates for the synthesized closed loop.

Two checks gate a controller before it is trusted:

* the desired energy must have its minimum at zero error on the operating
  domain (otherwise the loop converges somewhere else), and
* the robust dissipation margin

      m(xbar, t) = grad H_d^T R_d grad H_d - sum_i |d H_d / d xbar_i| eta_i(x)

  must be nonnegative, where eta is the model's pointwise error envelope.
  The condition is probed on spheres of increasing radius around the
  reference; the certificate radius eps is the smallest radius beyond which
  every sampled margin is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .control import DesiredDynamics, ReferencePlan, find_hamiltonian_minimum, make_desired_dynamics
from .errors import SynthesisError

__all__ = [
    "VerifySpec",
    "HdMinimumReport",
    "ConditionReport",
    "validate_hd_minimum",
    "verify_dissipation_condition",
    "build_desired_dynamics",
]


@dataclass(frozen=True)
class VerifySpec:
    """Sampling plan for the dissipation check."""

    max_radius: float = 2.0
    n_radii: int = 25
    n_dirs: int = 2000
    n_times: int = 5
    bisect_iters: int = 12
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
    desired: DesiredDynamics,
    domain: Optional[Sequence] = None,
    resolution: int = 21,
) -> HdMinimumReport:
    """Grid check that H_d attains its strict minimum at zero error.

    Passes iff the grid argmin is the grid point nearest the origin and the
    second-smallest value exceeds the minimum by a positive gap.
    """
    n = desired.dim_state
    if domain is None:
        domain = [(-2.0, 2.0)] * n
    axes = [np.linspace(lo, hi, resolution) for lo, hi in domain]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh])
    vals = desired.hd_error_batch(pts)

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
        np.savetxt(
            path,
            self.margin_rows,
            fmt="%.17g",
            delimiter=",",
            header="radius,t,min_margin,mean_margin",
            comments="",
        )

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
        }


def verify_dissipation_condition(
    model,
    desired: DesiredDynamics,
    plan: ReferencePlan,
    spec: Optional[VerifySpec] = None,
) -> ConditionReport:
    """Sample the robust dissipation margin around the reference.

    Directions mix deterministic axis/corner probes with Monte-Carlo sphere
    samples; the certificate radius is refined by bisection between the last
    violating radius and the first radius past which all margins stay
    nonnegative.
    """
    spec = spec or VerifySpec()
    n = desired.dim_state
    rng = np.random.default_rng(spec.seed)
    dirs = _sphere_directions(n, spec.n_dirs, rng)

    idx = np.unique(np.linspace(0, plan.times.size - 1, spec.n_times).round().astype(int))
    times = plan.times[idx]
    centers = np.stack([plan.x_d(t) for t in times], axis=1)

    def radius_parts(radius: float):
        # the gradient and quadratic term live in error coordinates, so they
        # are shared across plan times; only the envelope sees the plant state
        xbar = radius * dirs
        grads = desired.hd_error_grad_batch(xbar)
        quad = np.einsum("iq,ij,jq->q", grads, desired.rd, grads)
        return xbar, grads, quad

    def margins_at(parts, t_index: int) -> np.ndarray:
        xbar, grads, quad = parts
        eta = model.envelope(centers[:, t_index][:, None] + xbar)
        return quad - np.sum(np.abs(grads) * eta, axis=0)

    radii = np.linspace(spec.max_radius / spec.n_radii, spec.max_radius, spec.n_radii)
    min_per_radius = np.empty(spec.n_radii)
    rows = []
    feasible = np.empty(spec.n_radii, dtype=bool)
    for i, s in enumerate(radii):
        parts = radius_parts(s)
        worst = np.inf
        for ti in range(times.size):
            m = margins_at(parts, ti)
            rows.append([s, times[ti], float(np.min(m)), float(np.mean(m))])
            worst = min(worst, float(np.min(m)))
        min_per_radius[i] = worst
        feasible[i] = worst >= 0.0

    def radius_feasible(s: float) -> bool:
        parts = radius_parts(s)
        return all(float(np.min(margins_at(parts, ti))) >= 0.0 for ti in range(times.size))

    if np.all(feasible):
        satisfied, unbounded, eps = True, False, 0.0
    elif not feasible[-1]:
        satisfied, unbounded, eps = False, True, float("inf")
    else:
        satisfied = False
        unbounded = False
        i_last_bad = int(np.max(np.nonzero(~feasible)[0]))
        lo, hi = radii[i_last_bad], radii[i_last_bad + 1]
        for _ in range(spec.bisect_iters):
            mid = 0.5 * (lo + hi)
            if radius_feasible(mid):
                hi = mid
            else:
                lo = mid
        eps = float(hi)

    return ConditionReport(
        satisfied=satisfied,
        epsilon=eps,
        unbounded=unbounded,
        radii=radii,
        min_margin_per_radius=min_per_radius,
        margin_rows=np.asarray(rows, dtype=float),
        times=times,
        n_dirs=dirs.shape[1],
        max_radius=spec.max_radius,
    )


def build_desired_dynamics(
    model,
    jd,
    rd,
    gate_domain: Optional[Sequence] = None,
    gate_resolution: int = 21,
    search_box: Optional[Sequence] = None,
):
    """Construct H_d from the model and gate it on the minimum check.

    A failed verbatim gate triggers a search for the learned energy minimum
    (over ``search_box``, defaulting to the training state bounding box) and
    a retry with the shifted energy.  Returns the accepted dynamics plus a
    dict describing what happened; raises if no candidate passes.
    """
    candidate = make_desired_dynamics(model, jd, rd)
    rep0 = validate_hd_minimum(candidate, gate_domain, gate_resolution)
    report = {"mode": "verbatim", "center": [0.0] * candidate.dim_state, "verbatim_gate": rep0.to_jsonable()}
    if rep0.passed:
        report["final_gate"] = rep0.to_jsonable()
        return candidate, report
    if search_box is None:
        states = getattr(model, "states", None)
        if states is None:
            raise SynthesisError("recentering needs a search box when the model has no stored states")
        search_box = [(float(lo), float(hi)) for lo, hi in zip(states.min(axis=1), states.max(axis=1))]
    center = find_hamiltonian_minimum(model, search_box)
    shifted = make_desired_dynamics(model, jd, rd, center=center)
    rep1 = validate_hd_minimum(shifted, gate_domain, gate_resolution)
    report.update(
        {
            "mode": "recentered",
            "center": [float(v) for v in center],
            "final_gate": rep1.to_jsonable(),
        }
    )
    if not rep1.passed:
        raise SynthesisError(
            "desired energy lacks a minimum at zero error even after recentering; "
            f"grid argmin at {rep1.argmin_point}"
        )
    return shifted, report
