"""Gaussian-process learning of port-Hamiltonian vector fields.

The drift (J - R) grad H is given a GP prior through the structured kernel
(see kernels.py); the input term enters as the prior mean G_hat u.  Training
minimizes the negative log marginal likelihood over log-scale kernel
hyperparameters, log noise variances, and the raw structure parameters.

S = J_hat - R_hat and G_hat are constant matrices (the structure contract of
structure.py), and every path here uses them as such.  The likelihood,
`condition` and `load_model` build the Gram through kernels.TrainingPairs:
the pair geometry x_a - x_b of the strict-lower pairs a > b is computed once
per training set, and each evaluation forms k and u = S Lambda^-1 (x_a - x_b)
once and writes the blocks into the lower triangle that LAPACK factorizes
in place.  `train`'s objective holds one TrainingPairs for the whole fit,
and with it one likelihood workspace: the Gram, the pair terms and the
block buffer are allocated by the first evaluation, reused by every later
one and released before the final conditioning, which builds a Gram of its
own because the model keeps its inverse factor.  The NLML gradient is
1/2 tr(W dK/dtheta) with W = K^-1 - alpha alpha^T (Rasmussen & Williams
2006, eq. 5.9); K^-1 = L^-T L^-1 comes from the Cholesky factor L in place
(kernels.invert_lower's blocked L^-1, then LAPACK lauum), W's strict-lower
blocks are read once as component planes of W_ab + W_ab^T, and each
hyperparameter is a closed-form contraction with the SE-Hessian blocks Pi
over the strict-lower pairs and the diagonal blocks, taken from the Gram's
own k and u without forming Pi.  Once W is read, the per-pair arrays of the
contractions live in the Gram's memory.  `train`'s objective keeps its last
two results and its lowest, as L-BFGS-B asks again for earlier points.

Posterior queries read cached weights: with alpha = K^-1 Xdot0 stacked as the
rows of A, the rows w_b of sf^2 (A S) Lambda^-1 give the posterior Hamiltonian
H_hat(x) = sum_b k(x, x_b) (x - x_b)^T w_b, its gradient is the closed-form
derivative of that sum, and the drift mean is mu(x) = S grad H_hat(x)
(predicting with cached weights, Rasmussen & Williams 2006, Alg. 2.1).  The
variance needs the cross-covariance, built from the same SE values: every
posterior query (hamiltonian, hamiltonian_grad, drift, drift_mean, envelope,
dynamics) takes its states as the columns of an (n, Q) array and goes
through one routine that evaluates the pair terms x - x_b,
Lambda^-1 (x - x_b) and k(x, x_b) once per block of _VAR_CHUNK query states
and derives H_hat with its gradient, the variance or both from them.  H_hat
is pinned to zero at the origin by its raw value there, computed once when
the model is built.  The model stores the
inverse L^-1 of the lower Cholesky factor (kernels.invert_lower, once per
conditioning), so the variance's v = L^-1 k^T is a triangular multiply (BLAS
trmm, kernels.trmm_lower) instead of a triangular solve, one per block; its prior part
sf^2 diag(S Lambda^-1 S^T) is a constant.

The mean is itself a PHS (Beckers, Seidman, Perdikaris & Pappas, CDC 2022),
and control, H_d and the plan read it only as one: `GpPhsModel.mean`, whose
mu is core.eval_dynamics(mean, x, 0).  Only verify and the metrics stage's
envelope ratio read the variance, through `GpPhsModel.envelope`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dlauum
from scipy.optimize import minimize

from . import backend
from .artifacts import read_json, write_json
from .core import PhsModel, on_columns
from .errors import ConditioningError, TrainingError
from .filtering import FilteredDataset
from .kernels import TrainingPairs, factorize_gram, invert_lower, trmm_lower
from .structure import StructureEstimate, structure_from_jsonable

__all__ = [
    "GpHyperparams",
    "OptimizerConfig",
    "GpPhsModel",
    "mean_adjust",
    "negative_log_marginal_likelihood",
    "train",
    "calibrate_beta",
    "save_model",
    "load_model",
]

# query columns per block of the posterior's pair terms: the (n Q, n N) cross-
# covariance block (2.8 MB at N = 300) then stays in cache from phs_blocks
# writing it to trmm reading it
_VAR_CHUNK = 128
# calibrate_beta sets beta_i to this percentile of |f_i - mu_i| / var_i over
# the held-out rollout, so eta = beta * var covers 99 % of its samples per row
BETA_PERCENTILE = 99.0
# `train`'s L-BFGS-B gradient tolerance, and the standard deviation of the
# seeded Gaussian perturbation that starts every restart after the first
GTOL = 1e-5
PERTURB_SCALE = 0.3


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
    jitter: float = 1e-10
    max_jitter: float = 1e-6


def mean_adjust(dataset: FilteredDataset, structure: StructureEstimate) -> np.ndarray:
    """Stacked derivative observations minus the prior mean G_hat u_i."""
    return (dataset.derivatives - structure.g() @ dataset.inputs).T.ravel()


def _solve(pairs, xdot0, hyper, jitter, max_jitter):
    """Gram -> Cholesky factor -> alpha = K^-1 Xdot0, and the NLML they give.

    The one conditioning step of the likelihood, `condition` and `load_model`.
    ``pairs`` is the training set's kernels.TrainingPairs; the Gram is built
    from its one SE evaluation, again on each jitter retry.  Returns (value,
    cho, jitter used, alpha, the SE evaluation (sf^2 k, u, M)).
    """
    terms = pairs.terms(hyper)
    cho, jit_used = factorize_gram(lambda: pairs.gram(hyper, terms), jitter=jitter, max_jitter=max_jitter)
    alpha = cho_solve(cho, xdot0, check_finite=False)
    log_det_half = float(np.sum(np.log(np.diag(cho[0]))))
    value = 0.5 * xdot0 @ alpha + log_det_half + 0.5 * xdot0.size * np.log(2 * np.pi)
    return value, cho, jit_used, alpha, terms


def _nlml_and_grad(dataset, pairs, hyper, jitter, max_jitter):
    """NLML and its gradient in the workspace of ``pairs``; the Gram becomes K^-1, then scratch.

    dNLML/dtheta = 1/2 tr(W dK/dtheta) with W = K^-1 - alpha alpha^T
    (Rasmussen & Williams 2006, eq. 5.9).  Every kernel term is a sum over
    the ordered pairs (a, b) of contractions <A_ab, Pi_ab>, with
    A = S^T W_ab S for sigma_f and the lengthscales and A = S^T W_ab dS_p for
    phi_p.  Pi = k (Lambda^-1 - (v d)(v d)^T) with v d = Lambda^-1 (x_a - x_b),
    so in closed form

        <A, Pi> = k (tr(C^T W_ab) - (S v d)^T W_ab (dS_p v d)),  C = S Lambda^-1 dS_p^T,

    and neither Pi nor A is formed.  W is symmetric, so W_ba = W_ab^T, while d
    and u = S v d change sign: the (b, a) term of every sum is the (a, b)
    term with C^T for C and W_ab u for W_ab^T u.  Each sum over the ordered
    pairs is therefore one over the strict-lower pairs a > b, with the traces
    <C, W_ab + W_ab^T> and the quadratic forms in y = (W_ab + W_ab^T) u, plus
    the diagonal blocks a = b, where d = u = 0 and k = 1 leave
    tr(C^T sum_a W_aa).  The gradient reads W's lower triangle once, in the
    pair order of the Gram (kernels.TrainingPairs), and the k and u the Gram
    was built from; the lengthscale and phi quadratic forms need only the
    n x n sum Y = sum_p sf^2 k_p y_p d_p^T.
    """
    xdot0 = mean_adjust(dataset, hyper.structure)
    value, cho, _, alpha, (sf2_k, u, m) = _solve(pairs, xdot0, hyper, jitter, max_jitter)
    n = pairs.states.shape[0]
    sf2 = hyper.sigma_f**2
    struct = hyper.structure
    s = struct.jr()
    v = 1.0 / hyper.lengthscales**2

    # K^-1 = L^-T L^-1 in place of the lower factor L (blocked L^-1, then
    # LAPACK lauum), minus alpha alpha^T by a rank-one update of the same
    # triangle
    w, info = dlauum(invert_lower(cho[0]), lower=1, overwrite_c=1)
    del cho
    if info != 0:
        raise ConditioningError(f"Gram inverse failed (lauum info {info})")
    w = dsyr(-1.0, alpha, lower=1, a=w, overwrite_a=1)
    # sym[i, j, p] = (W_ab + W_ab^T)[i, j] over the strict-lower pairs
    sym = pairs.planes(w)
    w_diag = pairs.diagonal_sum(w)
    del w

    # per pair <C, W_ab + W_ab^T>: for the symmetric C = M / 2 (sigma_f) and
    # (S e_q)(S e_q)^T / 2 (the diagonal of S^T W_ab S, lengthscales) the
    # trace of the (a, b) term, for C_p = S Lambda^-1 dS_p^T (phi_p) that of
    # both orders
    phi = struct.phi
    ds_all = struct.family.jr_param_grad(phi)
    c_phi = (s * v) @ ds_all.transpose(0, 2, 1)
    coef = np.concatenate([[0.5 * m], 0.5 * np.einsum("iq,jq->qij", s, s), c_phi])
    # the per-pair arrays below live in the Gram's memory, free now that W is read
    k = len(coef)
    scratch = pairs.scratch(k + 2 * n + 1)
    traces, y, sf2_k_d, (w_pi,) = np.split(scratch, [k, k + n, k + 2 * n])
    np.matmul(coef.reshape(k, n * n), sym.reshape(n * n, -1), out=traces)
    np.einsum("ijp,jp->ip", sym, u, out=y)
    del sym
    y_d = y @ np.multiply(sf2_k, pairs.d, out=sf2_k_d).T
    grad = np.empty(hyper.n_hyper)

    # log sigma_f: dK = 2 (K - noise), and sf^2 <S^T W_ab S, Pi> per pair
    # (u^T W_ab u = u^T y / 2)
    np.einsum("ip,ip->p", u, y, out=w_pi)
    w_pi *= 0.5
    np.subtract(traces[0], w_pi, out=w_pi)
    w_pi *= sf2_k
    grad[0] = 2.0 * w_pi.sum() + sf2 * np.vdot(m, w_diag)

    # log lengthscales: Pi = k (diag(v) - (v d)(v d)^T) gives
    # dPi/dlog l_q = v_q d_q^2 Pi + 2 k v_q (d_q (e_q (v d)^T + (v d) e_q^T) - e_q e_q^T),
    # whose contraction with S^T W_ab S needs S^T y (summed: sum_i S_iq Y_iq)
    # and the diagonal of S^T W_ab S
    cross = np.einsum("iq,iq->q", s, y_d) - traces[1 : 1 + n] @ sf2_k
    diag_term = sf2 * np.einsum("iq,ij,jq->q", s, w_diag, s)
    grad[1 : 1 + n] = v * (pairs.dd @ w_pi + 2.0 * cross - diag_term)

    # log noise variances (block-diagonal entries)
    grad[1 + n : 1 + 2 * n] = 0.5 * hyper.noise_var * np.diagonal(w_diag)

    # raw structure parameters: the kernel term sf^2 <(I x S)^T W (I x dS), P>,
    # whose quadratic form summed is <dS_p Lambda^-1, Y>, plus the prior-mean
    # term alpha^T dXdot0 with dXdot0 = -(dG u) stacked
    kernel = (
        traces[1 + n :] @ sf2_k
        - np.einsum("pij,ij->p", ds_all * v, y_d)
        + sf2 * np.einsum("pij,ij->p", c_phi, w_diag)
    )
    prior = [alpha @ (dg @ dataset.inputs).T.ravel() for dg in struct.family.g_param_grad(phi)]
    grad[1 + 2 * n :] = kernel - prior
    return value, grad


def negative_log_marginal_likelihood(
    dataset: FilteredDataset,
    hyper: GpHyperparams,
    jitter: float = 1e-10,
    max_jitter: float = 1e-6,
    with_grad: bool = True,
    pairs: Optional[TrainingPairs] = None,
):
    """NLML = 1/2 Xdot0^T K^-1 Xdot0 + 1/2 log |K| + (n N / 2) log 2 pi.

    With ``with_grad`` also returns the gradient with respect to the packed
    vector [log sigma_f, log l_i, log sigma2_i, phi] (trace identities; the
    structure parameters additionally feel the prior mean through Xdot0).
    ``pairs`` is TrainingPairs(dataset.states), built here when not given;
    a given one lends its workspace, so calls on it after the first
    allocate only arrays of a few n N entries.
    """
    if pairs is None:
        pairs = TrainingPairs(dataset.states)
    if with_grad:
        return _nlml_and_grad(dataset, pairs, hyper, jitter, max_jitter)
    xdot0 = mean_adjust(dataset, hyper.structure)
    return _solve(pairs, xdot0, hyper, jitter, max_jitter)[0]


def _invert_factor(factor):
    """L^-1 in place of the lower Cholesky factor L, strict upper triangle zeroed.

    ``factor`` is the F-ordered factor from kernels.factorize_gram, whose
    strict upper triangle was never written; kernels.invert_lower, the
    likelihood's inverse, overwrites its lower triangle.  Raises
    ConditioningError when L is singular.
    """
    l_inv = invert_lower(factor)
    # l_inv.T is C-ordered, and its strict lower triangle is l_inv's strict upper
    np.copyto(l_inv.T, 0.0, where=np.tri(l_inv.shape[0], k=-1, dtype=bool))
    return l_inv


@dataclass
class GpPhsModel:
    """A trained model: hyperparameters plus the inverse Gram Cholesky factor.

    ``l_inv`` is L^-1 for the lower factor L of the Gram matrix, its strict
    upper triangle zero; it is the model's only use of the factorization.
    The structure is constant (see structure.py), so the model reads it once
    when it is built: ``s_hat`` = J_hat - R_hat and ``g_hat`` = G_hat, the
    prior variance ``prior_var`` = sf^2 diag(S Lambda^-1 S^T), ``m_hat`` =
    S Lambda^-1 S^T, the Hamiltonian weights ``h_weights`` (see
    `_posterior`) and the raw energy ``h_ref`` at the origin.  Immutable by
    convention except for the error-envelope scale ``beta`` (set by
    calibration).  Posterior queries are pure.
    """

    hyper: GpHyperparams
    states: np.ndarray
    xdot0: np.ndarray
    l_inv: np.ndarray
    jitter_used: float
    alpha: np.ndarray
    nlml: float
    beta: np.ndarray
    # one exit record per optimizer restart, filled in by `train`
    restarts: list = field(default_factory=list, init=False, repr=False)
    s_hat: np.ndarray = field(init=False, repr=False)
    g_hat: np.ndarray = field(init=False, repr=False)
    prior_var: np.ndarray = field(init=False, repr=False)
    m_hat: np.ndarray = field(init=False, repr=False)
    h_weights: np.ndarray = field(init=False, repr=False)
    h_ref: float = field(init=False, repr=False)

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        sf2 = self.hyper.sigma_f**2
        v = 1.0 / self.hyper.lengthscales**2
        self.s_hat = self.structure.jr()
        self.g_hat = self.structure.g()
        self.prior_var = sf2 * (self.s_hat**2 @ v)
        # M = S Lambda^-1 S^T of the cross-covariance blocks sf^2 k (M - u u^T)
        self.m_hat = (self.s_hat * v) @ self.s_hat.T
        # cov(H(x), xdot(x_i)) = sf^2 S Lambda^-1 (x - x_i) k(x, x_i), so the
        # posterior H mean is sum_i k(x, x_i) (x - x_i)^T w_i with the
        # query-independent rows w_i of sf^2 (A S) Lambda^-1, where A holds
        # alpha_i as rows
        self.h_weights = sf2 * (self.alpha.reshape(-1, self.dim_state) @ self.s_hat) * v
        self.h_ref = self._posterior(np.zeros((self.dim_state, 1)), mean=True, var=False)[0][0]

    @property
    def dim_state(self):
        return self.hyper.dim_state

    @property
    def dim_input(self):
        return self.hyper.structure.family.dim_input

    @property
    def structure(self):
        return self.hyper.structure

    @property
    def mean(self) -> PhsModel:
        """mu + G_hat u as a core.PhsModel: j - r = S, g = G_hat, H_hat and grad H_hat.

        Built on each access: a kept one would tie the model in a reference
        cycle, holding L^-1 until the cyclic garbage collector runs.
        """
        s = self.s_hat
        return PhsModel(
            j=0.5 * (s - s.T),
            r=-0.5 * (s + s.T),
            g=self.g_hat,
            hamiltonian=on_columns(self.hamiltonian),
            hamiltonian_gradient=on_columns(self.hamiltonian_grad),
        )

    def drift(self, xq):
        """Posterior drift mean and per-dimension variance at query states (n, Q)."""
        _, grad, var = self._posterior(xq, mean=True, var=True)
        return self.s_hat @ grad, var

    def drift_mean(self, xq):
        """Posterior drift mean only: S grad H_hat(x), no cross-covariance."""
        return self.s_hat @ self.hamiltonian_grad(xq)

    def dynamics(self, x, u):
        """Posterior state derivative mean mu + G_hat u and its variance at one state.

        x is an (n,) and u an (m,) float array.
        """
        mean, var = self.drift(x[:, None])
        return mean[:, 0] + self.g_hat @ u, var[:, 0]

    def hamiltonian_grad(self, xq):
        """Posterior mean of grad H at query states (n, Q)."""
        return self._posterior(xq, mean=True, var=False)[1]

    def hamiltonian(self, xq):
        """Posterior Hamiltonian mean at query states (n, Q), pinned to H_hat(0) = 0.

        The latent energy is conditioned directly on the drift observations;
        the additive constant is fixed by subtracting ``h_ref``, the raw
        value at the origin.  Each value is a sum over the training states only,
        so a state gets the same bits alone as inside any batch.
        """
        return self._posterior(xq, mean=True, var=False)[0] - self.h_ref

    def envelope(self, xq):
        """Per-dimension model-error envelope eta_i = beta_i * var_i at query states (n, Q)."""
        return self.beta[:, None] * self._posterior(xq, mean=False, var=True)[2]

    def _posterior(self, xq, mean, var):
        """Posterior H_hat (raw), grad H_hat and drift variance at query states xq (n, Q).

        Returns (h, grad, var), None for what was not asked for; ``mean``
        gives h and grad.  Raises ValueError unless xq is an (n, Q) array.
        One SE evaluation per block of _VAR_CHUNK states gives the pair terms
        d_b = x - x_b, Lambda^-1 d_b and k(x, x_b); each block writes its
        rows of h, k(x, x_b), corr and quad.  h is the row sum of
        k (d_b^T w_b) over the training states b, before the pin at the origin.
        grad, the derivative of H_hat(x) = sum_b k d_b^T w_b, is
        sum_b k (w_b - (d_b^T w_b) Lambda^-1 d_b)
        (= sum_b Pi(x, x_b) t_b for t_b = sf^2 S^T alpha_b), with corr the
        sum of its second term; its k @ w runs once over all Q states, after
        the blocks, as BLAS gemm may round a row differently with the number
        of rows.  var = prior - quad, quad = |L^-1 k^T|^2 for the lower
        factor L: per block, phs_blocks assembles sf^2 k (M - u u^T) with
        u = S Lambda^-1 d, and one trmm multiplies its transpose by L^-1.
        """
        xq = _query_states(xq, self.dim_state)
        n = self.dim_state
        n_q = xq.shape[1]
        v = 1.0 / self.hyper.lengthscales**2
        w = self.h_weights
        n_pts = self.states.shape[1]
        sf2 = self.hyper.sigma_f**2
        if mean:
            h = np.empty(n_q)
            k_all = np.empty((n_q, n_pts))
            corr = np.empty((n_q, n))
        if var:
            quad = np.empty((n_q, n))

        for start in range(0, n_q, _VAR_CHUNK):
            rows = slice(start, start + _VAR_CHUNK)
            diff = xq[:, rows].T[:, None, :] - self.states.T[None, :, :]
            vd = diff * v
            k = np.exp(-0.5 * np.einsum("qpn,qpn->qp", diff, vd))
            if mean:
                k_all[rows] = k
                kdw = k * np.einsum("qpn,pn->qp", diff, w)
                h[rows] = kdw.sum(axis=1)
                corr[rows] = np.einsum("qp,qpn->qn", kdw, vd)
            if var:
                # numpy lays diff and vd out component-major, so this reshape is a view
                u = (self.s_hat @ vd.transpose(2, 0, 1).reshape(n, -1)).reshape(n, -1, n_pts)
                cross = backend.phs_blocks(sf2 * k, u, self.m_hat)
                # cross.T is Fortran-ordered: trmm overwrites it with L^-1 cross^T
                half = trmm_lower(self.l_inv, cross.T)
                quad[rows] = np.einsum("ij,ij->j", half, half).reshape(-1, n)
        var_out = np.maximum(self.prior_var - quad, 0.0).T if var else None
        if not mean:
            return None, None, var_out
        return h, (k_all @ w - corr).T, var_out


def _query_states(xq, n):
    """xq as a float (n, Q) array of query states, one per column; ValueError otherwise."""
    xq = np.asarray(xq, dtype=float)
    if xq.ndim != 2 or xq.shape[0] != n:
        raise ValueError(f"query states must be an ({n}, Q) array, got shape {xq.shape}")
    return xq


def _conditioned(hyper, states, xdot0, jitter, max_jitter, beta) -> GpPhsModel:
    """The one conditioning routine of `condition` and `load_model`.

    Solves alpha from the Gram's Cholesky factor (see _solve), then inverts
    the factor in place; ``beta`` is the model's envelope scale.  The Gram
    is built from kernels.TrainingPairs, which copies ``states`` to C order,
    and the model keeps that copy.  Training builds its likelihood Grams the
    same way, so the Gram a trained model is conditioned on, the Grams its
    hyperparameters were fitted on and the Gram load_model rebuilds do not
    depend on the memory layout of the states (filtered_from_csv returns
    strided views): a trained model equals the one load_model rebuilds bit
    for bit.
    """
    pairs = TrainingPairs(states)
    value, cho, jit_used, alpha, _ = _solve(pairs, xdot0, hyper, jitter, max_jitter)
    return GpPhsModel(
        hyper=hyper,
        states=pairs.states,
        xdot0=xdot0,
        l_inv=_invert_factor(cho[0]),
        jitter_used=jit_used,
        alpha=alpha,
        nlml=float(value),
        beta=beta,
    )


def condition(
    dataset: FilteredDataset,
    hyper: GpHyperparams,
    jitter: float = 1e-10,
    max_jitter: float = 1e-6,
) -> GpPhsModel:
    """Condition on the dataset at fixed hyperparameters (no optimization)."""
    xdot0 = mean_adjust(dataset, hyper.structure)
    return _conditioned(hyper, dataset.states, xdot0, jitter, max_jitter, beta=np.ones(hyper.dim_state))


def _memo_recent_and_best(objective):
    """``objective(theta) -> (value, grad)``, keeping its last two results and its lowest.

    After a failed trial step L-BFGS-B asks again for the point it evaluated
    two calls before, and after a rejected and an infeasible trial it returns
    to its iterate three calls back, the lowest value so far.  The results
    are keyed by the bytes of theta and returned as copies, so the optimizer
    cannot alter a kept gradient.
    """
    kept = {}
    best = None

    def memoized(theta):
        nonlocal best
        key = np.asarray(theta, dtype=float).tobytes()
        if key not in kept:
            kept[key] = objective(theta)
            if best is None or kept[key][0] < kept[best][0]:
                best = key
            for old in list(kept)[:-2]:
                if old != best:
                    del kept[old]
        value, grad = kept[key]
        return value, grad.copy()

    return memoized


def train(
    dataset: FilteredDataset,
    init: GpHyperparams,
    optimizer_config: Optional[OptimizerConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> GpPhsModel:
    """Fit hyperparameters by multi-restart quasi-Newton NLML minimization.

    The first restart starts exactly at ``init``; the rest perturb the packed
    log/raw vector with seeded Gaussian noise of scale PERTURB_SCALE, and each
    stops at L-BFGS-B's gradient tolerance GTOL.  Restarts whose Gram matrix
    never factorizes, or whose structure parameters leave float range, are
    discarded; if all fail, TrainingError is raised.  Each restart's exit
    (final NLML, nit, nfev, message, |g|_inf, discarded) is kept on the
    returned model's ``restarts``.
    """
    cfg = optimizer_config or OptimizerConfig()
    rng = rng or np.random.default_rng(0)

    theta0 = init.to_vector()
    pairs = TrainingPairs(dataset.states)

    @_memo_recent_and_best
    def objective(theta):
        # line-search trial points can push a parameter past float range (exp
        # underflow makes a lengthscale zero, softplus underflow a structure
        # value zero); treat those as infeasible instead of letting the
        # validation error escape
        with np.errstate(over="ignore"):
            try:
                hyper = init.from_vector(theta)
                value, grad = negative_log_marginal_likelihood(
                    dataset, hyper, jitter=cfg.jitter, max_jitter=cfg.max_jitter, pairs=pairs
                )
            except (ConditioningError, ValueError):
                return 1e25, np.zeros_like(theta)
        if not np.isfinite(value):
            return 1e25, np.zeros_like(theta)
        return value, grad

    best = None
    exits = []
    for restart in range(cfg.restarts):
        start = theta0 if restart == 0 else theta0 + PERTURB_SCALE * rng.standard_normal(theta0.shape)
        res = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": cfg.max_iter, "gtol": GTOL},
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
    pairs.release()
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
    }
    write_json(path, payload)


def load_model(path) -> GpPhsModel:
    """Rebuild a model saved by save_model.

    The model is conditioned again (see condition), starting the Gram
    factorization at the saved jitter; the NLML is recomputed from the same
    factor, so it equals the saved value.  An ``x_ref`` key, which older
    files hold as zeros, is ignored: H_hat is pinned at the origin.
    """
    payload = read_json(path)
    if payload.get("format") != "phs-lab-gp-model":
        raise ValueError(f"not a model file: {path}")
    hyper = GpHyperparams(
        sigma_f=payload["hyper"]["sigma_f"],
        lengthscales=np.asarray(payload["hyper"]["lengthscales"], dtype=float),
        noise_var=np.asarray(payload["hyper"]["noise_var"], dtype=float),
        structure=structure_from_jsonable(payload["hyper"]["structure"]),
    )
    return _conditioned(
        hyper,
        np.asarray(payload["states"], dtype=float),
        np.asarray(payload["xdot0"], dtype=float),
        payload["jitter_used"],
        OptimizerConfig.max_jitter,
        beta=np.asarray(payload["beta"], dtype=float),
    )
