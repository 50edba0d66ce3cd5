"""Reference computations the benchmark checks the program against.

Nothing here imports ``phs_lab``: the GP posterior is conditioned densely
from the numbers stored in ``model.json`` with pairwise SE-Hessian blocks
written out below, the plant vector field is written out from the config,
and the plan's primary reference is the configured formula.  The program's
outputs are compared with these values, never with saved copies.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_triangular


def softplus(z):
    return max(z, 0.0) + np.log1p(np.exp(-abs(z)))


# The NLML of the program and of the dense oracle agree to about 1e-8
# relative even for the N = 300 Gram matrix of the learning curve, whose
# condition number is about 5e11.
NLML_RTOL = 1e-7


def rel_gap(a, b):
    """Largest absolute difference of a from b, relative to the largest |b|."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


def compare_posterior(mean, var, gp, states, mean_rtol, var_rtol, inputs=None):
    """Check a program posterior (n, Q) mean and variance against dense conditioning.

    The mean gap is taken relative to the largest |mean|.  The variance is a
    difference prior - quad of numbers near the prior, so its rounding error
    scales with the prior and its gap is taken relative to the prior.  With
    ``inputs`` the mean is the forced dynamics mu + G u.  Returns (ok, detail).
    """
    mean_o, var_o = gp.mean_var(states)
    if inputs is not None:
        mean_o = mean_o + np.outer(gp.g, np.asarray(inputs).ravel())
    gap_m = rel_gap(mean, mean_o)
    gap_v = float(np.max(np.abs(np.asarray(var) - var_o) / gp.prior_var[:, None]))
    ok = gap_m <= mean_rtol and gap_v <= var_rtol
    return ok, f"mean rel gap {gap_m:.2g} (<= {mean_rtol:g}), var gap / prior {gap_v:.2g} (<= {var_rtol:g}) at {mean_o.shape[1]} states"


def nlml_matches(stored, gp):
    return abs(stored - gp.nlml) <= NLML_RTOL * max(abs(gp.nlml), 1.0)


def se_hessian_blocks(xa, xb, lengthscales):
    """Mixed second derivatives of the SE kernel for every pair of columns.

    For a = xa[:, i] and b = xb[:, j] the block is
    k(a, b) * (diag(v) - (v * d)(v * d)^T) with d = a - b, v = 1 / l^2,
    returned as an (A, B, n, n) array.
    """
    v = 1.0 / np.asarray(lengthscales, dtype=float) ** 2
    d = xa.T[:, None, :] - xb.T[None, :, :]
    k = np.exp(-0.5 * np.sum(v * d * d, axis=-1))
    vd = v * d
    blocks = np.diag(v)[None, None, :, :] - vd[..., :, None] * vd[..., None, :]
    return k[..., None, None] * blocks


class DenseGp:
    """Dense conditioning of the structured GP stored in a ``model.json``.

    Supports the microactuator structure family, whose J - R and G do not
    depend on the state: J - R = [[0, 1, 0], [-1, -b, 0], [0, 0, -1/r]] and
    G = (0, 0, 1/r)^T with b = softplus(phi_0), r = softplus(phi_1).
    Given ``derivatives`` (n, N) and ``inputs`` (m, N), the targets are
    derivatives - G u; otherwise the stored ``xdot0`` is used.
    """

    def __init__(self, payload, derivatives=None, inputs=None):
        hyper = payload["hyper"]
        family = hyper["structure"]["family"]["kind"]
        if family != "microactuator":
            raise ValueError(f"dense oracle supports the microactuator family, not {family!r}")
        phi = hyper["structure"]["phi"]
        b_hat, r_hat = softplus(phi[0]), softplus(phi[1])
        self.jr = np.array([[0.0, 1.0, 0.0], [-1.0, -b_hat, 0.0], [0.0, 0.0, -1.0 / r_hat]])
        self.g = np.array([0.0, 0.0, 1.0 / r_hat])
        self.sf2 = hyper["sigma_f"] ** 2
        self.lengthscales = np.asarray(hyper["lengthscales"], dtype=float)
        v = 1.0 / self.lengthscales**2
        self.prior_var = self.sf2 * np.einsum("ik,k,ik->i", self.jr, v, self.jr)
        self.states = np.asarray(payload["states"], dtype=float)
        self.beta = np.asarray(payload["beta"], dtype=float)
        n, n_pts = self.states.shape
        if derivatives is None:
            y = np.asarray(payload["xdot0"], dtype=float)
        else:
            y = (np.asarray(derivatives) - np.outer(self.g, np.asarray(inputs).ravel())).T.ravel()
        gram = self._cross(self.states)
        diag = np.arange(n * n_pts)
        gram[diag, diag] += np.tile(np.asarray(hyper["noise_var"], dtype=float), n_pts)
        gram[diag, diag] += payload["jitter_used"]
        self.chol = np.linalg.cholesky(gram)
        self.alpha = np.linalg.solve(self.chol.T, solve_triangular(self.chol, y, lower=True))
        self.nlml = float(
            0.5 * y @ self.alpha
            + np.sum(np.log(np.diag(self.chol)))
            + 0.5 * y.size * np.log(2.0 * np.pi)
        )

    def _cross(self, xq):
        """Block covariance sf2 * S Pi(x_q, x_i) S^T, laid out sample-major."""
        blocks = self.sf2 * np.einsum(
            "ik,abkl,jl->aibj", self.jr, se_hessian_blocks(xq, self.states, self.lengthscales), self.jr
        )
        n_q, n, n_pts, _ = blocks.shape
        return blocks.reshape(n_q * n, n_pts * n)

    def mean(self, xq):
        xq = np.asarray(xq, dtype=float)
        return (self._cross(xq) @ self.alpha).reshape(xq.shape[1], -1).T

    def mean_var(self, xq):
        xq = np.asarray(xq, dtype=float)
        cross = self._cross(xq)
        mean = (cross @ self.alpha).reshape(xq.shape[1], -1).T
        w = solve_triangular(self.chol, cross.T, lower=True)
        var = self.prior_var[:, None] - np.sum(w * w, axis=0).reshape(xq.shape[1], -1).T
        return mean, np.maximum(var, 0.0)

    def hamiltonian_grad(self, xq):
        """grad H_hat = (J - R)^-1 mu, the relation the structured prior imposes."""
        return np.linalg.solve(self.jr, self.mean(xq))


def plant_drift(plant_cfg, states):
    """Unforced microactuator vector field (J - R) grad H at columns of states.

    H = k/2 (x1 - x1*)^2 + x2^2 / (2 m) + c x3^2 x1 / c0 with c = 1/2 when
    ``electrical_half`` is set and c = 1 otherwise.
    """
    p = plant_cfg
    x1, x2, x3 = np.asarray(states, dtype=float)
    c = 0.5 if p["electrical_half"] else 1.0
    h1 = p["k"] * (x1 - p["x1_star"]) + c * x3**2 / p["c0"]
    h2 = x2 / p["m"]
    h3 = 2.0 * c * x3 * x1 / p["c0"]
    return np.stack([h2, -h1 - p["b"] * h2, -h3 / p["r"]])


def plant_hamiltonian(plant_cfg, states):
    p = plant_cfg
    x1, x2, x3 = np.asarray(states, dtype=float)
    c = 0.5 if p["electrical_half"] else 1.0
    return 0.5 * p["k"] * (x1 - p["x1_star"]) ** 2 + x2**2 / (2 * p["m"]) + c * x3**2 * x1 / p["c0"]


def plant_derivatives(plant_cfg, states, inputs):
    """Forced vector field f(x) + G u with G = (0, 0, 1/r)^T."""
    out = plant_drift(plant_cfg, states)
    out[2] += np.asarray(inputs, dtype=float).ravel() / plant_cfg["r"]
    return out


def primary_reference(ref_cfg, times):
    """x_d1(t) as configured: offset + slope t + amplitude sin(frequency t)."""
    times = np.asarray(times, dtype=float)
    if ref_cfg["kind"] == "constant":
        return np.full(times.shape, float(ref_cfg["offset"]))
    return (
        ref_cfg["offset"]
        + ref_cfg["slope"] * times
        + ref_cfg["amplitude"] * np.sin(ref_cfg["frequency"] * times)
    )


def plan_spline(times, xd):
    """The plan's interpolant: not-a-knot cubic spline through the grid values."""
    return CubicSpline(times, xd, axis=0)


def matching_residual_norms(gp, center, jd_minus_rd, plan_xd, plan_xddot):
    """|Gperp (mu(x_d) - (J_d - R_d) grad H_d(0) - xdot_d)| at plan grid rows.

    With G = (0, 0, 1/r)^T the left annihilator spans the first two state
    directions, so the norm is taken over rows 1 and 2.  grad H_d(0) is
    grad H_hat(center).
    """
    g0 = gp.hamiltonian_grad(np.asarray(center, dtype=float)[:, None])[:, 0]
    mu = gp.mean(np.asarray(plan_xd, dtype=float).T)
    defect = mu - (jd_minus_rd @ g0)[:, None] - np.asarray(plan_xddot, dtype=float).T
    return np.linalg.norm(defect[:2], axis=0)


def model_hd_increments(gp, center, times, states, inputs, spline):
    """Trapezoid-integrated H_d increments that the model predicts per sample step.

    The slope is grad H_d^T (mu + Ghat u - xdot_d) with grad H_d(x, x_d) =
    grad H_hat(center + x - x_d) and u the recorded input.
    """
    xd = spline(times)
    xd_dot = spline(times, 1)
    xbar = (states - xd).T
    grad = gp.hamiltonian_grad(np.asarray(center, dtype=float)[:, None] + xbar)
    velocity = gp.mean(states.T) + np.outer(gp.g, np.asarray(inputs).ravel()) - xd_dot.T
    slope = np.sum(grad * velocity, axis=0)
    return 0.5 * np.diff(times) * (slope[:-1] + slope[1:])
