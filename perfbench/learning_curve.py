"""The `learning-curve` workload: the data-efficiency study of acceptance criterion 7.

``gp.train`` fits the model to noiseless rollouts of N = 50, 100 and 300
samples, ``GpPhsModel.dynamics`` predicts held-out derivatives, and the
posterior Hamiltonian is evaluated on a 10^3 grid.  The GP layer is written
here (Gram assembly, Cholesky and NLML gradient at three sizes) and barely
read; the control and verify layers do no work.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import solve_ivp
from scipy.stats import spearmanr

import oracle
import spans

SIZES = (50, 100, 300)
# Criterion 7 gives every size 5 restarts, 72 s per round on two cores.  One
# restart (from the initial hyperparameters, so no random perturbation) keeps
# the N = 300 fit, which is most of the cost, inside one benchmark run.
RESTARTS = 1
T_SPAN = (0.0, 20.0)
TRAIN_X0 = (0.0, 0.0, 1.0)
HELD_OUT_X0 = (0.05, -0.05, 1.05)
N_HELD_OUT = 200
N_CHECK_STATES = 20
GRID = 10

CHECKS = tuple(f"fit_{n}" for n in SIZES) + tuple(f"posterior_{n}" for n in SIZES) + (
    "rmse_order",
    "hamiltonian_rank",
)

# With one restart from the initial hyperparameters, L-BFGS stops on its
# relative-reduction test after 11 to 26 NLML evaluations, and the N = 100
# fit ends far worse than the N = 50 one, so the held-out RMSE is out of
# order on every run.  The check stays and is counted as failed.
KNOWN_FAULTS = ("rmse_order",)

RANK_MIN = 0.95
# The N = 300 Gram matrix has a condition number near 5e11; there the
# program and the dense oracle differ by up to about 2e-8 relative in the
# mean and 1e-11 of the prior in the variance, the smaller sizes far less.
MEAN_RTOL = 1e-6
VAR_RTOL = 1e-9
# OptimizerConfig's default starting jitter, which the NLML at the initial
# hyperparameters is evaluated with
INIT_JITTER = 1e-10


def rollout(plant_cfg, x0, n_samples):
    """Noiseless plant rollout under u = sin t with exact derivatives, from the written-out plant."""

    def rhs(t, x):
        return oracle.plant_derivatives(plant_cfg, x[:, None], [np.sin(t)])[:, 0]

    sol = solve_ivp(rhs, T_SPAN, np.asarray(x0, dtype=float), method="RK45", rtol=1e-8, atol=1e-8, dense_output=True)
    times = np.linspace(*T_SPAN, n_samples)
    states = sol.sol(times)
    inputs = np.sin(times)[None, :]
    return times, states, inputs, oracle.plant_derivatives(plant_cfg, states, inputs)


def setup(phs, seed):
    plant_cfg = phs.config.default_config()["plant"]
    data = {n: rollout(plant_cfg, TRAIN_X0, n) for n in SIZES}
    datasets = {
        n: phs.filtering.FilteredDataset(states=s, derivatives=d, inputs=u, times=t)
        for n, (t, s, u, d) in data.items()
    }
    family = phs.structure.MicroactuatorStructure()
    init = phs.gp.GpHyperparams(
        sigma_f=1.0,
        lengthscales=np.ones(3),
        noise_var=np.full(3, 1e-2),
        structure=phs.structure.StructureEstimate(family=family, phi=family.default_phi()),
    )
    _, held_states, held_inputs, held_derivs = rollout(plant_cfg, HELD_OUT_X0, N_HELD_OUT)

    # the seed picks the states where the posterior is checked against the
    # dense oracle and shifts the Hamiltonian grid; neither changes the work
    rng = np.random.default_rng(seed)
    big = data[SIZES[-1]][1]
    lo, hi = big.min(axis=1), big.max(axis=1)
    check_states = lo[:, None] + (hi - lo)[:, None] * rng.uniform(size=(3, N_CHECK_STATES))
    check_inputs = rng.uniform(-1.0, 1.0, size=(1, N_CHECK_STATES))
    cell = (hi - lo) / (GRID - 1)
    shift = (rng.uniform(size=3) - 0.5) * cell
    axes = [np.linspace(lo[i], hi[i], GRID) + shift[i] for i in range(3)]
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    return {
        "plant": plant_cfg,
        "data": data,
        "datasets": datasets,
        "init": init,
        "held_out": (held_states, held_inputs, held_derivs),
        "check": (check_states, check_inputs),
        "grid": grid,
    }


def _predict(model, states, inputs):
    out = [model.dynamics(x, u) for x, u in zip(states.T, inputs.T)]
    return np.stack([m for m, _ in out], axis=1), np.stack([v for _, v in out], axis=1)


def run_round(phs, state):
    """Fit every size, predict and evaluate H; returns (models, outputs, timings)."""
    opt = phs.gp.OptimizerConfig(restarts=RESTARTS, max_iter=500)
    models, train_s = {}, 0.0
    start = time.perf_counter()
    for n in SIZES:
        t0 = time.perf_counter()
        models[n] = phs.gp.train(state["datasets"][n], state["init"], optimizer_config=opt, rng=np.random.default_rng(n))
        train_s += time.perf_counter() - t0
    t_query = time.perf_counter()
    held_states, held_inputs, _ = state["held_out"]
    check_states, check_inputs = state["check"]
    outputs = {
        "held_out": {n: _predict(m, held_states, held_inputs)[0] for n, m in models.items()},
        "check": {n: _predict(m, check_states, check_inputs) for n, m in models.items()},
        "hamiltonian": models[SIZES[-1]].hamiltonian(state["grid"]),
    }
    end = time.perf_counter()
    return models, outputs, {"train_s": train_s, "query_s": end - t_query, "run_s": end - start}


def measure_round(phs, state, workdir, tracer=None):
    """One learning curve and its checks: (timings, [(check, ok, detail)], artifact bytes)."""
    try:
        with spans.installed(tracer, phs):
            models, outputs, timings = run_round(phs, state)
    except phs.errors.PhsLabError as exc:
        return None, [(name, False, f"learning curve failed: {exc}") for name in CHECKS], 0
    return timings, check_round(state, models, outputs), 0


def _dense(hyper, jitter, data):
    """Dense oracle conditioned on a rollout at the given hyperparameters."""
    payload = {
        "hyper": {
            "sigma_f": hyper.sigma_f,
            "lengthscales": hyper.lengthscales.tolist(),
            "noise_var": hyper.noise_var.tolist(),
            "structure": hyper.structure.to_jsonable(),
        },
        "states": data[1],
        "beta": [1.0, 1.0, 1.0],
        "jitter_used": jitter,
    }
    return oracle.DenseGp(payload, derivatives=data[3], inputs=data[2])


def rmse_in_order(rmse):
    """Held-out RMSE must fall strictly as N grows."""
    return all(a > b for a, b in zip(rmse, rmse[1:]))


def check_round(state, models, outputs):
    results = []
    posterior = []
    for n in SIZES:
        model, data = models[n], state["data"][n]
        gp = _dense(model.hyper, model.jitter_used, data)
        gp0 = _dense(state["init"], INIT_JITTER, data)
        ok = oracle.nlml_matches(model.nlml, gp) and gp.nlml <= gp0.nlml
        results.append((f"fit_{n}", ok, f"NLML {model.nlml:.8g} (dense {gp.nlml:.8g}), at init {gp0.nlml:.8g}"))

        states, inputs = state["check"]
        mean, var = outputs["check"][n]
        posterior.append((f"posterior_{n}",) + oracle.compare_posterior(mean, var, gp, states, MEAN_RTOL, VAR_RTOL, inputs))
    results += posterior

    _, _, held_derivs = state["held_out"]
    rmse = [float(np.sqrt(np.mean((outputs["held_out"][n] - held_derivs) ** 2))) for n in SIZES]
    detail = " > ".join(f"{r:.4g}" for r in rmse)
    results.append(("rmse_order", rmse_in_order(rmse), f"held-out RMSE over N = {SIZES}: {detail}"))

    h_true = oracle.plant_hamiltonian(state["plant"], state["grid"])
    rank = float(spearmanr(outputs["hamiltonian"], h_true).statistic)
    results.append(("hamiltonian_rank", rank >= RANK_MIN, f"rank correlation of posterior H with plant H {rank:.5f}"))
    return results
