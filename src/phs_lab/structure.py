"""Parametrized structure estimates (J_hat, R_hat, G_hat) for learned PHS models.

A structure family fixes the shape of the interconnection/dissipation/input
matrices while leaving a small physical parameter vector phi free.  Skewness
of J_hat and positive semi-definiteness of R_hat hold for every phi by
construction (positive entries go through a softplus), so the optimizer can
move freely in the raw parameter space.

The contract: S = J_hat - R_hat and G_hat are constant matrices of phi, the
same at every state.  A family therefore exposes S, G_hat and their phi
derivatives as single matrices (stacks over phi only), and the kernel builds
every block of the PHS covariance from the one S (see backend.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "softplus",
    "softplus_inv",
    "StructureFamily",
    "MicroactuatorStructure",
    "FixedStructure",
    "StructureEstimate",
    "structure_from_jsonable",
]


def softplus(z):
    """Numerically stable log(1 + exp(z))."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def softplus_inv(v):
    """Inverse of softplus for v > 0."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("softplus_inv requires positive values")
    # log(exp(v) - 1), stable for large v
    return v + np.log(-np.expm1(-v))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class StructureFamily:
    """Interface for structure families; subclasses are stateless.

    Every method takes only the raw parameters phi: J_hat - R_hat and G_hat
    are constant matrices of phi, the contract the kernel and the GP rely on.
    """

    dim_state: int
    dim_input: int
    n_params: int

    def jr(self, phi):
        """J_hat - R_hat, shape (n, n)."""
        raise NotImplementedError

    def g(self, phi):
        """G_hat, shape (n, m)."""
        raise NotImplementedError

    def jr_param_grad(self, phi):
        """d(J_hat - R_hat)/dphi_p for each raw parameter, shape (P, n, n)."""
        raise NotImplementedError

    def g_param_grad(self, phi):
        """dG_hat/dphi_p for each raw parameter, shape (P, n, m)."""
        raise NotImplementedError

    def default_phi(self):
        return np.zeros(self.n_params)

    def to_jsonable(self):
        raise NotImplementedError


class MicroactuatorStructure(StructureFamily):
    """Microactuator structure with unknown damping b and input resistance r.

    phi = (raw_b, raw_r) with b_hat = softplus(raw_b), r_hat = softplus(raw_r).
    J_hat couples position and momentum; R_hat = diag(0, b_hat, 1/r_hat), and
    r_hat is shared with the input matrix G_hat = (0, 0, 1/r_hat)^T.
    """

    dim_state = 3
    dim_input = 1
    n_params = 2

    def values(self, phi):
        """Physical (b_hat, r_hat) from raw parameters."""
        b_hat, r_hat = float(softplus(phi[0])), float(softplus(phi[1]))
        if r_hat == 0.0:
            # 1 / r_hat enters R_hat and G_hat
            raise ValueError(f"r_hat = softplus({phi[1]:.6g}) underflows to 0")
        return b_hat, r_hat

    @staticmethod
    def phi_from_values(b_hat, r_hat):
        return np.array([float(softplus_inv(b_hat)), float(softplus_inv(r_hat))])

    def jr(self, phi):
        b_hat, r_hat = self.values(phi)
        return np.array([[0.0, 1.0, 0.0], [-1.0, -b_hat, 0.0], [0.0, 0.0, -1.0 / r_hat]])

    def g(self, phi):
        _, r_hat = self.values(phi)
        return np.array([[0.0], [0.0], [1.0 / r_hat]])

    def jr_param_grad(self, phi):
        _, r_hat = self.values(phi)
        out = np.zeros((2, 3, 3))
        out[0, 1, 1] = -_sigmoid(phi[0])
        out[1, 2, 2] = _sigmoid(phi[1]) / r_hat**2
        return out

    def g_param_grad(self, phi):
        _, r_hat = self.values(phi)
        out = np.zeros((2, 3, 1))
        out[1, 2, 0] = -_sigmoid(phi[1]) / r_hat**2
        return out

    def default_phi(self):
        return self.phi_from_values(0.5, 1.0)

    def to_jsonable(self):
        return {"kind": "microactuator"}


class FixedStructure(StructureFamily):
    """Constant, parameter-free structure matrices (useful for toy systems)."""

    n_params = 0

    def __init__(self, j, r, g):
        self._j = np.asarray(j, dtype=float)
        self._r = np.asarray(r, dtype=float)
        self._g = np.asarray(g, dtype=float)
        if self._j.shape != self._r.shape or self._j.shape[0] != self._j.shape[1]:
            raise ValueError("J and R must be square with matching shapes")
        if not np.allclose(self._j, -self._j.T, atol=1e-12):
            raise ValueError("J must be skew-symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (self._r + self._r.T))) < -1e-10:
            raise ValueError("R must be positive semi-definite")
        self.dim_state = self._j.shape[0]
        self.dim_input = self._g.shape[1]

    def jr(self, phi):
        return self._j - self._r

    def g(self, phi):
        return self._g

    def jr_param_grad(self, phi):
        return np.zeros((0, self.dim_state, self.dim_state))

    def g_param_grad(self, phi):
        return np.zeros((0, self.dim_state, self.dim_input))

    def to_jsonable(self):
        return {
            "kind": "fixed",
            "j": self._j.tolist(),
            "r": self._r.tolist(),
            "g": self._g.tolist(),
        }


@dataclass(frozen=True)
class StructureEstimate:
    """A structure family bound to a concrete raw parameter vector."""

    family: StructureFamily
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        if self.phi.shape != (self.family.n_params,):
            raise ValueError(
                f"phi has shape {self.phi.shape}, expected ({self.family.n_params},)"
            )

    def jr(self):
        return self.family.jr(self.phi)

    def g(self):
        return self.family.g(self.phi)

    def with_phi(self, phi):
        return StructureEstimate(self.family, np.asarray(phi, dtype=float))

    def jr_stack(self, states):
        """J_hat - R_hat tiled once per column of states (n, N) -> (N, n, n).

        Kept only for the benchmark tracer, which wraps this name; the
        program itself reads the one matrix from `jr`.
        """
        return np.tile(self.jr(), (np.shape(states)[1], 1, 1))

    def to_jsonable(self):
        return {"family": self.family.to_jsonable(), "phi": self.phi.tolist()}


def structure_from_jsonable(payload) -> StructureEstimate:
    fam = payload["family"]
    kind = fam["kind"]
    if kind == "microactuator":
        family = MicroactuatorStructure()
    elif kind == "fixed":
        family = FixedStructure(fam["j"], fam["r"], fam["g"])
    else:
        raise ValueError(f"unknown structure family kind '{kind}'")
    return StructureEstimate(family, np.asarray(payload["phi"], dtype=float))
