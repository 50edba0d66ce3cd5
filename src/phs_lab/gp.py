"""Gaussian-process learning of port-Hamiltonian vector fields.

The drift (J - R) grad H is given a GP prior through the structured kernel
(see kernels.py); the input term enters as the prior mean G_hat u.  Training
minimizes the negative log marginal likelihood over log-scale kernel
hyperparameters, log noise variances, and the raw structure parameters.

S = J_hat - R_hat and G_hat are constant matrices (the structure contract of
structure.py), and every path here uses them as such.  The likelihood builds
its Gram matrix with kernels.gram_matrix.  Its gradient is 1/2 tr(W dK/dtheta)
with W = K^-1 - alpha alpha^T (Rasmussen & Williams 2006, eq. 5.9); K^-1 comes
from the Cholesky factor in place (LAPACK potri), W is reordered once into
component planes, and each hyperparameter is a closed-form contraction with
the SE-Hessian blocks Pi, taken from k and Lambda^-1 d without forming Pi.

Posterior queries read cached weights: with alpha = K^-1 Xdot0 stacked as the
rows of A, the rows w_b of sf^2 (A S) Lambda^-1 give the posterior Hamiltonian
H_hat(x) = sum_b k(x, x_b) (x - x_b)^T w_b, its gradient is the closed-form
derivative of that sum, and the drift mean is mu(x) = S grad H_hat(x)
(predicting with cached weights, Rasmussen & Williams 2006, Alg. 2.1).  Only
the variance needs the cross-covariance, through one triangular solve; its
prior part sf^2 diag(S Lambda^-1 S^T) is a constant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dpotri
from scipy.optimize import minimize

from . import backend
from .core import PhsModel, eval_dynamics
from .errors import ConditioningError, TrainingError
from .filtering import FilteredDataset
from .kernels import factorize_gram, gram_matrix
from .structure import StructureEstimate, structure_from_jsonable

__all__ = [
    "GpHyperparams",
    "OptimizerConfig",
    "GpPhsModel",
    "PerfectPhsModel",
    "mean_adjust",
    "negative_log_marginal_likelihood",
    "train",
    "calibrate_beta",
    "save_model",
    "load_model",
]

# query columns per block of the Hamiltonian mean, bounding its (Q, N, n) work arrays
_H_CHUNK = 2048
# calibrate_beta sets beta_i to this percentile of |f_i - mu_i| / var_i over
# the held-out rollout, so eta = beta * var covers 99 % of its samples per row
BETA_PERCENTILE = 99.0


@dataclass(frozen=True)
class GpHyperparams:
    """Kernel and noise hyperparameters plus the structure estimate.

    sigma_f and the lengthscales/noise variances are stored in natural units;
    the optimizer works on [log sigma_f, log l_1..n, log sigma2_1..n, phi].
    """

    sigma_f: float
    lengthscales: np.ndarray
    noise_var: np.ndarray
    structure: StructureEstimate

    def __post_init__(self):
        object.__setattr__(self, "lengthscales", np.asarray(self.lengthscales, dtype=float))
        object.__setattr__(self, "noise_var", np.asarray(self.noise_var, dtype=float))
        n = self.structure.family.dim_state
        if self.lengthscales.shape != (n,) or self.noise_var.shape != (n,):
            raise ValueError("lengthscales and noise_var must have one entry per state dimension")
        if self.sigma_f <= 0 or np.any(self.lengthscales <= 0) or np.any(self.noise_var < 0):
            raise ValueError("sigma_f, lengthscales must be positive; noise_var nonnegative")

    @property
    def dim_state(self):
        return self.lengthscales.shape[0]

    @property
    def n_hyper(self):
        return 1 + 2 * self.dim_state + self.structure.family.n_params

    def to_vector(self):
        return np.concatenate(
            [
                [np.log(self.sigma_f)],
                np.log(self.lengthscales),
                np.log(np.maximum(self.noise_var, 1e-300)),
                self.structure.phi,
            ]
        )

    def from_vector(self, vec):
        n = self.dim_state
        vec = np.asarray(vec, dtype=float)
        return GpHyperparams(
            sigma_f=float(np.exp(vec[0])),
            lengthscales=np.exp(vec[1 : 1 + n]),
            noise_var=np.exp(vec[1 + n : 1 + 2 * n]),
            structure=self.structure.with_phi(vec[1 + 2 * n :]),
        )


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 5
    max_iter: int = 500
    gtol: float = 1e-5
    perturb_scale: float = 0.3
    jitter: float = 1e-10
    max_jitter: float = 1e-6


def mean_adjust(dataset: FilteredDataset, structure: StructureEstimate) -> np.ndarray:
    """Stacked derivative observations minus the prior mean G_hat u_i."""
    return (dataset.derivatives - structure.g() @ dataset.inputs).T.ravel()


def _nlml_value(dataset, hyper, jitter, max_jitter):
    """NLML and the conditioning it rests on: (value, cho, jitter used, alpha, Xdot0)."""
    n, n_pts = dataset.states.shape
    gram = gram_matrix(dataset.states, hyper)
    cho, jit_used = factorize_gram(gram, jitter=jitter, max_jitter=max_jitter)
    del gram
    xdot0 = mean_adjust(dataset, hyper.structure)
    alpha = cho_solve(cho, xdot0, check_finite=False)
    log_det_half = float(np.sum(np.log(np.diag(cho[0]))))
    value = 0.5 * xdot0 @ alpha + log_det_half + 0.5 * n * n_pts * np.log(2 * np.pi)
    return value, cho, jit_used, alpha, xdot0


def _nlml_and_grad(dataset, hyper, jitter, max_jitter):
    """NLML and its gradient; the Cholesky factor is overwritten with K^-1.

    dNLML/dtheta = 1/2 tr(W dK/dtheta) with W = K^-1 - alpha alpha^T
    (Rasmussen & Williams 2006, eq. 5.9).  Every kernel term is a contraction
    <A_ab, Pi_ab> summed over the pairs, with A = S^T W_ab S for sigma_f and
    the lengthscales and A = S^T W_ab dS_p for phi_p.  Pi = k (Lambda^-1 -
    (v d)(v d)^T) with v d = Lambda^-1 (x_a - x_b), so in closed form

        <A, Pi> = k (tr(C^T W_ab) - (S v d)^T W_ab (dS_p v d)),  C = S Lambda^-1 dS_p^T,

    and neither Pi nor A is formed.  W is reordered once into component planes
    W[k, l][a, b] = W[(a, k), (b, l)]; the traces are one matmul of the planes
    with the flattened C matrices, and the quadratic forms need W^T (S v d).
    """
    value, cho, _, alpha, _ = _nlml_value(dataset, hyper, jitter, max_jitter)
    x = dataset.states
    n, n_pts = x.shape
    sf2 = hyper.sigma_f**2
    struct = hyper.structure
    s = struct.jr()
    v = 1.0 / hyper.lengthscales**2

    # K^-1 by LAPACK potri in place of the lower factor, minus alpha alpha^T
    # by a rank-one update of the same triangle, then mirrored to the upper
    w, info = dpotri(cho[0], lower=1, overwrite_c=1)
    del cho
    if info != 0:
        raise ConditioningError(f"Gram inverse failed (potri info {info})")
    w = dsyr(-1.0, alpha, lower=1, a=w, overwrite_a=1)
    for j in range(w.shape[0] - 1):
        w[j, j + 1 :] = w[j + 1 :, j]
    diag_w = np.diagonal(w).reshape(n_pts, n).sum(axis=0)
    # W is symmetric, so its transpose view reads it in C order
    planes = w.T.reshape(n_pts, n, n_pts, n).transpose(1, 3, 0, 2).reshape(n, n, n_pts * n_pts)
    del w

    # pair planes (n, P) over the P = N^2 pairs: d = x_a - x_b, v d, k, u = S v d
    d = (x[:, :, None] - x[:, None, :]).reshape(n, -1)
    vd = d * v[:, None]
    k = np.exp(-0.5 * (v @ (d * d)))
    u = s @ vd
    wt_u = np.einsum("klp,kp->lp", planes, u)
    # traces tr(C^T W_ab) for C = S Lambda^-1 S^T (sigma_f), (S e_q)(S e_q)^T
    # (the diagonal of S^T W_ab S) and S Lambda^-1 dS_p^T (phi_p)
    phi = struct.phi
    ds_all = struct.family.jr_param_grad(phi)
    s_v = s * v
    c_mats = np.concatenate([[s_v @ s.T], np.einsum("kq,lq->qkl", s, s), s_v @ ds_all.transpose(0, 2, 1)])
    traces = c_mats.reshape(-1, n * n) @ planes.reshape(n * n, -1)
    grad = np.empty(hyper.n_hyper)

    # log sigma_f: dK = 2 (K - noise), and <S^T W_ab S, Pi> per pair
    w_pi = k * (traces[0] - np.einsum("lp,lp->p", wt_u, u))
    grad[0] = sf2 * w_pi.sum()

    # log lengthscales: Pi = k (diag(v) - (v d)(v d)^T) gives
    # dPi/dlog l_q = v_q d_q^2 Pi + 2 k v_q (d_q (e_q (v d)^T + (v d) e_q^T) - e_q e_q^T),
    # whose contraction with S^T W_ab S needs S^T (W_ab + W_ab^T) u and the
    # diagonal.  W_ab^T = W_ba while d and u change sign, so summed over all
    # pairs the W_ab u half equals the W_ab^T u half, which is counted twice
    cross = d * (2.0 * (s.T @ wt_u)) - traces[1 : 1 + n]
    grad[1 : 1 + n] = 0.5 * sf2 * v * ((d * d) @ w_pi + 2.0 * (cross @ k))

    # log noise variances (block-diagonal entries)
    grad[1 + n : 1 + 2 * n] = 0.5 * hyper.noise_var * diag_w

    # raw structure parameters: the kernel term sf^2 <(I x S)^T W (I x dS), P>
    # plus the prior-mean term alpha^T dXdot0 with dXdot0 = -(dG u) stacked
    for p, (ds, dg) in enumerate(zip(ds_all, struct.family.g_param_grad(phi))):
        quad = np.einsum("lp,lp->p", wt_u, ds @ vd)
        dm = -(dg @ dataset.inputs).T.ravel()
        grad[1 + 2 * n + p] = sf2 * (k @ (traces[1 + n + p] - quad)) + alpha @ dm
    return value, grad


def negative_log_marginal_likelihood(
    dataset: FilteredDataset,
    hyper: GpHyperparams,
    jitter: float = 1e-10,
    max_jitter: float = 1e-6,
    with_grad: bool = True,
):
    """NLML = 1/2 Xdot0^T K^-1 Xdot0 + 1/2 log |K| + (n N / 2) log 2 pi.

    With ``with_grad`` also returns the gradient with respect to the packed
    vector [log sigma_f, log l_i, log sigma2_i, phi] (trace identities; the
    structure parameters additionally feel the prior mean through Xdot0).
    """
    if with_grad:
        return _nlml_and_grad(dataset, hyper, jitter, max_jitter)
    return _nlml_value(dataset, hyper, jitter, max_jitter)[0]


@dataclass
class GpPhsModel:
    """A trained model: hyperparameters plus cached Gram factorization.

    Immutable by convention after training except for the error-envelope
    scale ``beta`` (set by calibration).  Posterior queries are pure.
    """

    hyper: GpHyperparams
    states: np.ndarray
    xdot0: np.ndarray
    cho: tuple
    jitter_used: float
    alpha: np.ndarray
    nlml: float
    beta: np.ndarray
    x_ref: np.ndarray = None
    # one exit record per optimizer restart, filled in by `train`
    restarts: list = field(default_factory=list, init=False, repr=False)
    _h_w: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.x_ref is None:
            self.x_ref = np.zeros(self.hyper.dim_state)
        self.x_ref = np.asarray(self.x_ref, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self._h_w = None

    @property
    def dim_state(self):
        return self.hyper.dim_state

    @property
    def dim_input(self):
        return self.hyper.structure.family.dim_input

    @property
    def structure(self):
        return self.hyper.structure

    def io_matrix(self, x):
        return self.structure.g()

    def drift(self, xq):
        """Posterior drift mean and per-dimension variance at query states (n, Q)."""
        return self.drift_mean(xq), self._drift_var(xq)

    def drift_mean(self, xq):
        """Posterior drift mean only: S grad H_hat(x), no cross-covariance."""
        return self.structure.jr() @ self.hamiltonian_grad(self._columns(xq))

    def _drift_var(self, xq):
        # var = prior - k K^-1 k^T = prior - |L^-1 k^T|^2 with the lower factor
        # L; the prior sf^2 diag(S Lambda^-1 S^T) is the same at every state
        xq = self._columns(xq)
        s = self.structure.jr()
        sf2 = self.hyper.sigma_f**2
        v = 1.0 / self.hyper.lengthscales**2
        cross = backend.phs_cross(xq, self.states, s, sf2, self.hyper.lengthscales)
        half = solve_triangular(self.cho[0], cross.T, lower=True, check_finite=False)
        quad = np.einsum("ij,ij->j", half, half).reshape(-1, self.dim_state)
        prior = sf2 * (s**2 @ v)
        return np.maximum(prior - quad, 0.0).T

    def dynamics(self, x, u):
        """Posterior state derivative mean mu + G_hat u and its variance."""
        x = np.asarray(x, dtype=float)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        mean, var = self.drift(x[:, None])
        return mean[:, 0] + self.io_matrix(x) @ u, var[:, 0]

    def hamiltonian_grad(self, xq):
        """Posterior mean of grad H at query columns (n, Q)."""
        # gradient of sum_b k(x, x_b) d_b^T w_b with d_b = x - x_b:
        # sum_b k(x, x_b) (w_b - (d_b^T w_b) Lambda^-1 d_b), which equals
        # sum_b Pi(x, x_b) t_b for t_b = sf^2 S^T alpha_b
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        v = 1.0 / self.hyper.lengthscales**2
        w = self._h_weights
        diff = xq.T[:, None, :] - self.states.T[None, :, :]
        vd = diff * v
        k = np.exp(-0.5 * np.einsum("qpn,qpn->qp", diff, vd))
        dw = np.einsum("qpn,pn->qp", diff, w)
        return (k @ w - np.einsum("qp,qpn->qn", k * dw, vd)).T

    def _columns(self, xq):
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        return xq if xq.shape[0] == self.dim_state else xq.T

    @property
    def _h_weights(self):
        # cov(H(x), xdot(x_i)) = sf^2 S Lambda^-1 (x - x_i) k(x, x_i), so the
        # posterior H mean is sum_i k(x, x_i) (x - x_i)^T w_i with the
        # query-independent rows w_i of sf^2 (A S) Lambda^-1 cached, where
        # A holds alpha_i as rows
        if self._h_w is None:
            a = self.alpha.reshape(-1, self.dim_state)
            v = 1.0 / self.hyper.lengthscales**2
            self._h_w = self.hyper.sigma_f**2 * (a @ self.structure.jr()) * v
        return self._h_w

    def _h_mean_raw(self, xq):
        ls = self.hyper.lengthscales
        diff = xq.T[:, None, :] - self.states.T[None, :, :]
        k = np.exp(-0.5 * np.einsum("qpn,n->qp", diff**2, 1.0 / ls**2))
        return np.einsum("qp,qpn,pn->q", k, diff, self._h_weights)

    def hamiltonian(self, xq):
        """Posterior Hamiltonian mean, pinned to H_hat(x_ref) = 0.

        Conditions the latent energy directly on the drift observations; the
        additive constant is fixed by subtracting the value at x_ref.
        """
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        n_q = xq.shape[1]
        h_ref = self._h_mean_raw(self.x_ref[:, None])[0]
        out = np.empty(n_q)
        for start in range(0, n_q, _H_CHUNK):
            out[start : start + _H_CHUNK] = self._h_mean_raw(xq[:, start : start + _H_CHUNK]) - h_ref
        return out

    def hamiltonian_scalar(self, x):
        """(H_hat(x), grad H_hat(x)) at a single state."""
        x = np.asarray(x, dtype=float)
        h = self.hamiltonian(x[:, None])[0]
        g = self.hamiltonian_grad(x[:, None])[:, 0]
        return float(h), g

    def envelope(self, xq):
        """Per-dimension model-error envelope eta_i = beta_i * var_i at queries."""
        return self.beta[:, None] * self._drift_var(xq)


def condition(
    dataset: FilteredDataset,
    hyper: GpHyperparams,
    jitter: float = 1e-10,
    max_jitter: float = 1e-6,
) -> GpPhsModel:
    """Condition on the dataset at fixed hyperparameters (no optimization)."""
    value, cho, jit_used, alpha, xdot0 = _nlml_value(dataset, hyper, jitter, max_jitter)
    n = hyper.dim_state
    return GpPhsModel(
        hyper=hyper,
        states=dataset.states.copy(),
        xdot0=xdot0,
        cho=cho,
        jitter_used=jit_used,
        alpha=alpha,
        nlml=float(value),
        beta=np.ones(n),
    )


def train(
    dataset: FilteredDataset,
    init: GpHyperparams,
    optimizer_config: Optional[OptimizerConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> GpPhsModel:
    """Fit hyperparameters by multi-restart quasi-Newton NLML minimization.

    The first restart starts exactly at ``init``; the rest perturb the packed
    log/raw vector with seeded Gaussian noise.  Restarts whose Gram matrix
    never factorizes, or whose structure parameters leave float range, are
    discarded; if all fail, TrainingError is raised.  Each restart's exit
    (final NLML, nit, nfev, message, |g|_inf, discarded) is kept on the
    returned model's ``restarts``.
    """
    cfg = optimizer_config or OptimizerConfig()
    rng = rng or np.random.default_rng(0)

    theta0 = init.to_vector()

    def objective(theta):
        # line-search trial points can push a parameter past float range (exp
        # underflow makes a lengthscale zero, softplus underflow a structure
        # value zero); treat those as infeasible instead of letting the
        # validation error escape
        with np.errstate(over="ignore"):
            try:
                hyper = init.from_vector(theta)
                value, grad = negative_log_marginal_likelihood(
                    dataset, hyper, jitter=cfg.jitter, max_jitter=cfg.max_jitter
                )
            except (ConditioningError, ValueError):
                return 1e25, np.zeros_like(theta)
        if not np.isfinite(value):
            return 1e25, np.zeros_like(theta)
        return value, grad

    best = None
    exits = []
    for restart in range(cfg.restarts):
        start = theta0 if restart == 0 else theta0 + cfg.perturb_scale * rng.standard_normal(theta0.shape)
        res = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": cfg.max_iter, "gtol": cfg.gtol},
        )
        discarded = not res.fun < 1e24
        exits.append(
            {
                "restart": restart,
                "nlml": float(res.fun),
                "nit": int(res.nit),
                "nfev": int(res.nfev),
                "message": str(res.message),
                "grad_inf_norm": float(np.max(np.abs(res.jac), initial=0.0)),
                "discarded": discarded,
            }
        )
        if not discarded and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        raise TrainingError(
            "all optimizer restarts ended infeasible (Gram not factorizable or parameters out of range)"
        )

    model = condition(
        dataset,
        init.from_vector(best.x),
        jitter=cfg.jitter,
        max_jitter=cfg.max_jitter,
    )
    model.restarts = exits
    return model


def calibrate_beta(model: GpPhsModel, validation: FilteredDataset):
    """Set beta_i to the BETA_PERCENTILE-th percentile of |error_i| / var_i on held-out data."""
    mean, var = model.drift(validation.states)
    target = mean_adjust(validation, model.structure).reshape(validation.n_points, -1).T
    err = np.abs(mean - target)
    beta = np.percentile(err / np.maximum(var, 1e-12), BETA_PERCENTILE, axis=1)
    model.beta = beta
    return beta


class PerfectPhsModel:
    """Drop-in replacement for GpPhsModel using the exact vector field.

    Posterior mean equals (J - R) grad H, variance and error envelope are
    identically zero, and the Hamiltonian is H(x) - H(x_ref).  Used for the
    eta = 0 baseline.
    """

    def __init__(self, plant: PhsModel, structure: StructureEstimate, x_ref=None):
        self.plant = plant
        self.structure = structure
        self.x_ref = np.zeros(plant.dim_state) if x_ref is None else np.asarray(x_ref, dtype=float)
        self.beta = np.zeros(plant.dim_state)

    @property
    def dim_state(self):
        return self.plant.dim_state

    @property
    def dim_input(self):
        return self.plant.dim_input

    def io_matrix(self, x):
        return self.structure.g()

    def drift(self, xq):
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        n_q = xq.shape[1]
        mean = np.empty((self.dim_state, n_q))
        for i in range(n_q):
            x = xq[:, i]
            jr = self.plant.interconnection(x) - self.plant.dissipation(x)
            mean[:, i] = jr @ np.asarray(self.plant.hamiltonian_gradient(x), dtype=float)
        return mean, np.zeros_like(mean)

    def drift_mean(self, xq):
        return self.drift(xq)[0]

    def dynamics(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return eval_dynamics(self.plant, x, u), np.zeros(self.dim_state)

    def hamiltonian_grad(self, xq):
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        return np.stack(
            [np.asarray(self.plant.hamiltonian_gradient(xq[:, i]), dtype=float) for i in range(xq.shape[1])],
            axis=1,
        )

    def hamiltonian(self, xq):
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        h_ref = self.plant.hamiltonian(self.x_ref)
        return np.array([self.plant.hamiltonian(xq[:, i]) - h_ref for i in range(xq.shape[1])])

    def hamiltonian_scalar(self, x):
        x = np.asarray(x, dtype=float)
        return float(self.hamiltonian(x[:, None])[0]), self.hamiltonian_grad(x[:, None])[:, 0]

    def envelope(self, xq):
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        return np.zeros((self.dim_state, xq.shape[1]))


def save_model(model: GpPhsModel, path) -> None:
    """Serialize a trained model to JSON; floats survive round-trip bit-exactly."""
    payload = {
        "format": "phs-lab-gp-model",
        "version": 1,
        "hyper": {
            "sigma_f": model.hyper.sigma_f,
            "lengthscales": model.hyper.lengthscales.tolist(),
            "noise_var": model.hyper.noise_var.tolist(),
            "structure": model.hyper.structure.to_jsonable(),
        },
        "states": model.states.tolist(),
        "xdot0": model.xdot0.tolist(),
        "jitter_used": model.jitter_used,
        "nlml": model.nlml,
        "beta": model.beta.tolist(),
        "x_ref": model.x_ref.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def load_model(path) -> GpPhsModel:
    """Rebuild a model saved by save_model; the factorization is recomputed."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != "phs-lab-gp-model":
        raise ValueError(f"not a model file: {path}")
    hyper = GpHyperparams(
        sigma_f=payload["hyper"]["sigma_f"],
        lengthscales=np.asarray(payload["hyper"]["lengthscales"], dtype=float),
        noise_var=np.asarray(payload["hyper"]["noise_var"], dtype=float),
        structure=structure_from_jsonable(payload["hyper"]["structure"]),
    )
    states = np.asarray(payload["states"], dtype=float)
    gram = gram_matrix(states, hyper, jitter=0.0)
    cho, jit_used = factorize_gram(gram, jitter=payload["jitter_used"])
    xdot0 = np.asarray(payload["xdot0"], dtype=float)
    return GpPhsModel(
        hyper=hyper,
        states=states,
        xdot0=xdot0,
        cho=cho,
        jitter_used=jit_used,
        alpha=cho_solve(cho, xdot0),
        nlml=payload["nlml"],
        beta=np.asarray(payload["beta"], dtype=float),
        x_ref=np.asarray(payload["x_ref"], dtype=float),
    )
