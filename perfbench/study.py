"""The `study` workload: the eight-stage pipeline, run and checked.

One round runs every stage of ``run_pipeline`` into a fresh directory, one
stage per call so that each stage is timed from outside the program, and
then checks the artifacts against ``oracle``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext

import numpy as np

import oracle
import spans

# The production config takes 340-380 s on two cores, longer than one
# benchmark run may last.  These overrides keep all eight stages and the
# three posterior query shapes (plan grid, verify shells, single controller
# states) but shrink the sizes that set the cost: training points, restarts,
# plan grid points, verify directions and radii, closed-loop samples.
STUDY_OVERRIDES = {
    "dataset": {"n_samples": 100},
    "train": {"restarts": 2, "calibration": {"n_samples": 60}},
    "plan": {"t_span": [0.0, 1.0]},
    "verify": {"n_dirs": 400, "n_radii": 8, "n_times": 3},
    "closed_loop": {"n_samples": 101},
}

CHECKS = (
    "pipeline",
    "posterior",
    "nlml",
    "plan_reference",
    "plan_residual",
    "closed_loop",
    "hd_model_increments",
    "drift_envelope",
)
_TRACKING_BOUND = 0.05 + 1e-12
# checks that fail on every run because of a known fault in the program
KNOWN_FAULTS = ()


# The config seed decides the noise in the training data, hence the learned
# model, and with it how long the plan fit and the closed loop run: at these
# sizes, config seeds 1-11 took 5.6-21.3 s for the pipeline and 1.2-15.8 s
# for the plan stage (an exact plan, or trust-region fits of 115 to 600
# evaluations).  Stage times measured at different config seeds would not
# compare, so every run trains at the production seed and the benchmark seed
# picks the states where the posterior is checked.
CONFIG_SEED = 42


def config(phs):
    return phs.config.validate_config(dict(STUDY_OVERRIDES, seed=CONFIG_SEED))


def setup(phs, seed):
    return {"cfg": config(phs), "seed": seed}


def run_round(phs, cfg, workdir, tracer=None):
    """Run all stages into ``workdir``; returns per-stage wall seconds and the total."""
    times = {}
    start = time.perf_counter()
    for stage in phs.pipeline.STAGE_ORDER:
        t0 = time.perf_counter()
        with tracer.span(f"pipeline.{stage}") if tracer else nullcontext():
            phs.pipeline.run_pipeline(cfg, workdir, stages=[stage])
        times[stage] = time.perf_counter() - t0
    return times, time.perf_counter() - start


def artifact_bytes(workdir):
    """Bytes of every artifact a round wrote, wall-clock timings.json aside."""
    total = 0
    for base, _, files in os.walk(workdir):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files if f != "timings.json")
    return total


def measure_round(phs, state, workdir, tracer=None):
    """One pipeline run and its checks: (timings or None, [(check, ok, detail)], artifact bytes)."""
    cfg = state["cfg"]
    try:
        with spans.installed(tracer, phs):
            stages, total = run_round(phs, cfg, workdir, tracer)
    except phs.errors.StageError as exc:
        return None, [(name, False, f"pipeline failed: {exc}") for name in CHECKS], 0
    timings = {
        "run_s": total,
        "train_s": stages["train"],
        "query_s": sum(stages[s] for s in ("plan", "verify", "closed_loop")),
    }
    results = [("pipeline", True, " ".join(f"{s}={t:.3f}s" for s, t in stages.items()))]
    results += check_round(phs, cfg, workdir, np.random.default_rng(state["seed"]))
    return timings, results, artifact_bytes(workdir)


def _read(workdir, name):
    with open(os.path.join(workdir, name)) as fh:
        return json.load(fh)


def _csv(workdir, name):
    return np.loadtxt(os.path.join(workdir, name), delimiter=",", skiprows=1, ndmin=2)


# The program's posterior agrees with the dense oracle to about 1e-11
# relative (mean) and 1e-15 of the prior (variance) on the study's model; a
# 1e-6 relative error in the mean must still be caught.
MEAN_RTOL = 1e-8
VAR_RTOL = 1e-12
RESIDUAL_ATOL = 1e-8
REFERENCE_ATOL = 1e-12


def check_posterior(model, gp, states):
    mean, var = model.drift(states)
    return oracle.compare_posterior(mean, var, gp, states, MEAN_RTOL, VAR_RTOL)


def check_nlml(stored, gp):
    return oracle.nlml_matches(stored, gp), f"stored NLML {stored:.10g} vs dense {gp.nlml:.10g}"


def check_plan_reference(cfg, plan):
    pl = cfg["plan"]
    t0, t1 = pl["t_span"]
    n_grid = int(round((t1 - t0) / pl["grid_step"])) + 1
    times = np.linspace(t0, t1, n_grid)
    if plan.shape[0] != n_grid:
        return False, f"plan has {plan.shape[0]} rows, expected {n_grid}"
    gap_t = float(np.max(np.abs(plan[:, 0] - times)))
    gap_x = float(np.max(np.abs(plan[:, 1] - oracle.primary_reference(pl["reference"], times))))
    ok = gap_t <= REFERENCE_ATOL and gap_x <= REFERENCE_ATOL
    return ok, f"plan grid gap {gap_t:.2g}, x_d1 vs reference formula gap {gap_x:.2g}"


def check_plan_residual(gp, hd_check, plan, summary):
    n = (plan.shape[1] - 1) // 2
    times, xd = plan[:, 0], plan[:, 1 : 1 + n]
    idx = np.unique(np.linspace(0, times.size - 1, 25).round().astype(int))
    xd_dot = oracle.plan_spline(times, xd)(times[idx], 1)
    jd_minus_rd = np.array(
        [[0.0, 1.0, 0.0], [-1.0, -hd_check["b_hat"], 0.0], [0.0, 0.0, -hd_check["r_d_inv"]]]
    )
    res = oracle.matching_residual_norms(gp, hd_check["center"], jd_minus_rd, xd[idx], xd_dot)
    stored = summary["max_matching_residual"]
    gap = abs(float(np.max(res)) - stored)
    ok = gap <= RESIDUAL_ATOL and np.array_equal(summary["checked_times"], times[idx])
    return ok, f"max matching residual {stored:.6g} vs recomputed {float(np.max(res)):.6g}"


def check_closed_loop(cfg, loop, spline):
    n_expected = cfg["closed_loop"]["n_samples"]
    finite = bool(np.all(np.isfinite(loop)))
    err = float(np.max(np.abs(loop[:, 1] - spline(loop[:, 0])[:, 0]))) if finite else np.inf
    ok = loop.shape[0] == n_expected and finite and err <= _TRACKING_BOUND
    return ok, f"{loop.shape[0]}/{n_expected} finite samples: {finite}, max |x1 - x_d1| = {err:.12g}"


def check_hd_increments(cfg, gp, hd_check, loop, spline):
    inc = oracle.model_hd_increments(gp, hd_check["center"], loop[:, 0], loop[:, 1:4], loop[:, 4], spline)
    tol = cfg["closed_loop"]["hd_increase_tol"]
    events = int(np.sum(inc > tol))
    return events == 0, f"{events} model-predicted H_d increments above {tol:g} (max {float(np.max(inc)):.3g})"


def check_drift_envelope(cfg, gp, loop):
    states = loop[:, 1:4].T
    mean, var = gp.mean_var(states)
    err = np.abs(oracle.plant_drift(cfg["plant"], states) - mean)
    eta = gp.beta[:, None] * var
    ok = bool(np.all(err <= eta))
    ratio = float(np.max(err / np.maximum(eta, 1e-300)))
    return ok, f"|f - mu| <= eta at every sample and row: {ok} (max ratio {ratio:.3g})"


def check_round(phs, cfg, workdir, rng):
    """Run every output check on one round's artifacts; returns [(name, ok, detail)]."""
    with open(os.path.join(workdir, "model.json")) as fh:
        payload = json.load(fh)
    gp = oracle.DenseGp(payload)
    plan = _csv(workdir, "plan.csv")
    loop = _csv(workdir, "closedloop.csv")
    hd_check = _read(workdir, "hd_check.json")
    n = (plan.shape[1] - 1) // 2
    spline = oracle.plan_spline(plan[:, 0], plan[:, 1 : 1 + n])

    model = phs.gp.load_model(os.path.join(workdir, "model.json"))
    picks = np.concatenate(
        [
            plan[rng.choice(plan.shape[0], 8, replace=False), 1 : 1 + n],
            loop[rng.choice(loop.shape[0], 8, replace=False), 1 : 1 + n],
        ]
    ).T
    return [
        ("posterior",) + check_posterior(model, gp, picks),
        ("nlml",) + check_nlml(payload["nlml"], gp),
        ("plan_reference",) + check_plan_reference(cfg, plan),
        ("plan_residual",) + check_plan_residual(gp, hd_check, plan, _read(workdir, "plan_summary.json")),
        ("closed_loop",) + check_closed_loop(cfg, loop, spline),
        ("hd_model_increments",) + check_hd_increments(cfg, gp, hd_check, loop, spline),
        ("drift_envelope",) + check_drift_envelope(cfg, gp, loop),
    ]
