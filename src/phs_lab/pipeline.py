"""Experiment pipeline: staged runs with persisted, re-entrant artifacts.

Every stage reads only the config plus files written by upstream stages and
writes its own artifacts into the working directory, so any suffix of the
pipeline can be rerun bit-identically from persisted state.  Randomness is
drawn from per-stage streams spawned off the single config seed.

Stage artifacts:

    generate     dataset.csv
    filter       filtered.csv
    train        model.json, train_summary.json
    desired      hd_check.json
    plan         plan.csv, plan_summary.json
    verify       verify_report.json, margins.csv, verify_summary.txt
    closed_loop  closedloop.csv
    metrics      metrics.json, figures/{tracking,states,input,lyapunov}.csv

Wall-clock timings go to timings.json, kept out of metrics.json so that the
metrics artifact is bit-identical across machines.  Every file is read and
written through ``artifacts``: a write replaces its target atomically, and a
stage that reads a missing, ragged or non-finite upstream file fails naming it.

BLAS runs on one thread, set once for the package when `kernels` is
imported, so the artifacts do not depend on OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import os
import time

import numpy as np

from . import gp as gp_mod
from .artifacts import read_json, write_json, write_table, write_text
from .config import save_config, validate_config
from .control import (
    make_desired_dynamics,
    matching_residual,
    microactuator_desired_matrices,
    plan_from_csv,
    plan_to_csv,
    solve_reference_plan,
    tracking_control,
)
from .core import (
    MicroactuatorParams,
    Trajectory,
    energy_balance_residual,
    eval_dynamics,
    make_microactuator,
    simulate_feedback,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .errors import ConfigError, StageError
from .filtering import FilteredDataset, filter_derivatives, filtered_from_csv, filtered_to_csv
from .kernels import blas_thread_counts
from .structure import MicroactuatorStructure, StructureEstimate
from .verify import VerifySpec, build_desired_dynamics, verify_dissipation_condition

__all__ = [
    "STAGE_ORDER",
    "build_plant",
    "build_input",
    "build_reference",
    "generate_dataset",
    "rollout_plant",
    "run_pipeline",
    "run_stage",
    "emit_figure_data",
    "load_model_artifact",
    "load_desired",
]

def _stage_rng(cfg, stage):
    seq = np.random.SeedSequence(cfg["seed"], spawn_key=(STAGE_ORDER.index(stage),))
    return np.random.default_rng(seq)


def _stage_seed(cfg, stage) -> int:
    seq = np.random.SeedSequence(cfg["seed"], spawn_key=(STAGE_ORDER.index(stage),))
    return int(seq.generate_state(1)[0])


def build_plant(cfg):
    params = MicroactuatorParams(**cfg["plant"])
    return make_microactuator(params), params


def build_input(spec):
    amp, freq = spec["amplitude"], spec["frequency"]
    return lambda t: np.array([amp * np.sin(freq * t)])


def build_reference(spec):
    """Primary-reference signal t -> (x_d1, xdot_d1)."""
    if spec["kind"] == "constant":
        return lambda t: (spec["offset"], 0.0)
    off, slope, amp, freq = spec["offset"], spec["slope"], spec["amplitude"], spec["frequency"]

    def reference(t):
        return off + slope * t + amp * np.sin(freq * t), slope + amp * freq * np.cos(freq * t)

    return reference


def rollout_plant(cfg, n_samples, x0_offset=0.0):
    """Noise-free plant rollout under the configured excitation: (plant, trajectory).

    Starts at ``dataset.x0`` plus ``x0_offset`` and integrates over
    ``dataset.t_span``, sampled at ``n_samples`` times.
    """
    plant, _ = build_plant(cfg)
    d = cfg["dataset"]
    u = build_input(d["input"])
    traj = simulate_feedback(
        plant,
        np.asarray(d["x0"]) + np.asarray(x0_offset),
        lambda x, t: u(t),
        d["t_span"],
        n_samples=n_samples,
    )
    return plant, traj


def generate_dataset(cfg) -> Trajectory:
    """Simulate the plant under the configured excitation and add observation
    noise (variance ``dataset.noise_var`` per state) from the generate-stage
    stream."""
    d = cfg["dataset"]
    _, traj = rollout_plant(cfg, d["n_samples"])
    rng = _stage_rng(cfg, "generate")
    noisy = traj.states + rng.normal(0.0, np.sqrt(d["noise_var"]), size=traj.states.shape)
    return Trajectory(times=traj.times, states=noisy, inputs=traj.inputs)


def stage_generate(cfg, workdir):
    trajectory_to_csv(generate_dataset(cfg), os.path.join(workdir, "dataset.csv"))


def stage_filter(cfg, workdir):
    traj = trajectory_from_csv(os.path.join(workdir, "dataset.csv"))
    ds = filter_derivatives(traj, **cfg["filter"])
    filtered_to_csv(ds, os.path.join(workdir, "filtered.csv"))


def _calibration_dataset(cfg) -> FilteredDataset:
    """Noiseless plant rollout from a displaced start with exact derivatives,
    used to scale the error-envelope multipliers."""
    cal = cfg["train"]["calibration"]
    plant, traj = rollout_plant(cfg, cal["n_samples"], x0_offset=cal["x0_offset"])
    return FilteredDataset(
        states=traj.states.T,
        derivatives=eval_dynamics(plant, traj.states.T, traj.inputs.T),
        inputs=traj.inputs.T,
        times=traj.times,
    )


def stage_train(cfg, workdir):
    t = cfg["train"]
    plant, _ = build_plant(cfg)
    if t["perfect_model"]:
        head = {"format": "phs-lab-perfect-model", "version": 1, "plant": cfg["plant"]}
        write_json(os.path.join(workdir, "model.json"), head)
        summary = {"kind": "perfect", "nlml": None, "n_points": 0, "beta": [0.0] * plant.dim_state}
    else:
        ds = filtered_from_csv(os.path.join(workdir, "filtered.csv"))
        n = ds.states.shape[0]
        family = MicroactuatorStructure()
        init = gp_mod.GpHyperparams(
            sigma_f=1.0,
            lengthscales=np.ones(n),
            noise_var=np.full(n, 1e-2),
            structure=StructureEstimate(family=family, phi=family.default_phi()),
        )
        opt = gp_mod.OptimizerConfig(**{k: t[k] for k in ("restarts", "max_iter", "jitter", "max_jitter")})
        model = gp_mod.train(ds, init, optimizer_config=opt, rng=_stage_rng(cfg, "train"))
        gp_mod.calibrate_beta(model, _calibration_dataset(cfg))
        gp_mod.save_model(model, os.path.join(workdir, "model.json"))
        b_hat, r_hat = model.hyper.structure.family.values(model.hyper.structure.phi)
        summary = {
            "kind": "gp",
            "nlml": float(model.nlml),
            "n_points": int(ds.n_points),
            "beta": [float(v) for v in model.beta],
            "sigma_f": float(model.hyper.sigma_f),
            "lengthscales": [float(v) for v in model.hyper.lengthscales],
            "noise_var": [float(v) for v in model.hyper.noise_var],
            "b_hat": float(b_hat),
            "r_hat": float(r_hat),
            "jitter_used": float(model.jitter_used),
            "restarts": model.restarts,
        }
    write_json(os.path.join(workdir, "train_summary.json"), summary)


def _zero_envelope(xq):
    return np.zeros(np.shape(xq))


def load_model_artifact(cfg, workdir):
    """The train stage's model as (mean, gp, box).

    ``mean`` is the posterior mean as a core.PhsModel, ``gp`` the
    gp.GpPhsModel it comes from, and ``box`` is the bounding box of the
    training states, one (low, high) per dimension.  A perfect-model run
    gives the plant itself, no GP and no box.
    """
    path = os.path.join(workdir, "model.json")
    if read_json(path).get("format") == "phs-lab-perfect-model":
        return build_plant(cfg)[0], None, None
    model = gp_mod.load_model(path)
    return model.mean, model, list(zip(model.states.min(axis=1), model.states.max(axis=1)))


def stage_desired(cfg, workdir):
    mean, _, box = load_model_artifact(cfg, workdir)
    de = cfg["desired"]
    # the pipeline trains and loads microactuator-family models only, whose
    # damping b_hat is R_hat[1, 1]
    b_hat = float(mean.r[1, 1])
    jd, rd = microactuator_desired_matrices(b_hat, de["r_d_inv"])
    _, report = build_desired_dynamics(mean, jd, rd, box)
    report["b_hat"] = b_hat
    report["r_d_inv"] = de["r_d_inv"]
    write_json(os.path.join(workdir, "hd_check.json"), report)


def load_desired(workdir, mean):
    """The target error loop of the model ``mean`` from the desired stage's hd_check.json."""
    report = read_json(os.path.join(workdir, "hd_check.json"))
    jd, rd = microactuator_desired_matrices(report["b_hat"], report["r_d_inv"])
    return make_desired_dynamics(mean, jd, rd, center=np.asarray(report["center"]))


def stage_plan(cfg, workdir):
    mean, _, box = load_model_artifact(cfg, workdir)
    desired = load_desired(workdir, mean)
    pl = cfg["plan"]

    plan = solve_reference_plan(
        mean,
        desired,
        build_reference(pl["reference"]),
        pl["t_span"],
        pl["grid_step"],
        seed_tail=np.asarray(pl["seed_tail"]),
        box=box,
    )
    plan_to_csv(plan, os.path.join(workdir, "plan.csv"))
    check_idx = np.unique(np.linspace(0, plan.times.size - 1, 25).round().astype(int))
    residuals = np.linalg.norm(matching_residual(mean, desired, plan, check_idx), axis=0)
    write_json(
        os.path.join(workdir, "plan_summary.json"),
        {
            "max_matching_residual": float(np.max(residuals)),
            "checked_times": [float(plan.times[i]) for i in check_idx],
            "grid_step": pl["grid_step"],
            "fit": plan.fit,
            "solves": plan.solves,
            "n_grid": int(plan.times.size),
        },
    )


def stage_verify(cfg, workdir):
    mean, gp, _ = load_model_artifact(cfg, workdir)
    desired = load_desired(workdir, mean)
    plan = plan_from_csv(os.path.join(workdir, "plan.csv"))
    # the verify section holds the sampling leaves of VerifySpec
    spec = VerifySpec(**cfg["verify"], seed=_stage_seed(cfg, "verify"))
    envelope = _zero_envelope if gp is None else gp.envelope
    report = verify_dissipation_condition(envelope, desired, plan, spec)
    write_json(
        os.path.join(workdir, "verify_report.json"),
        dict(report.to_jsonable(), blas_threads=blas_thread_counts()),
    )
    report.margins_to_csv(os.path.join(workdir, "margins.csv"))
    write_text(os.path.join(workdir, "verify_summary.txt"), report.to_text() + "\n")


def build_controller(mean, desired, plan):
    """The closed-loop law: control.tracking_control of the model's mean."""
    return tracking_control(mean, desired, plan)


def stage_closed_loop(cfg, workdir):
    mean, _, _ = load_model_artifact(cfg, workdir)
    desired = load_desired(workdir, mean)
    plan = plan_from_csv(os.path.join(workdir, "plan.csv"))
    plant, _ = build_plant(cfg)
    cl = cfg["closed_loop"]
    controller = build_controller(mean, desired, plan)
    t0, t1 = plan.t_span
    x0 = plan.x_d(t0) + np.asarray(cl["x0_offset"])
    traj = simulate_feedback(plant, x0, controller, (t0, t1), n_samples=cl["n_samples"])
    trajectory_to_csv(traj, os.path.join(workdir, "closedloop.csv"))


def emit_figure_data(workdir, traj, plan, desired):
    """Four figure CSVs derived from the persisted closed-loop run: air-gap
    tracking, remaining states, control input, and the desired-energy series."""
    figdir = os.path.join(workdir, "figures")
    ts, xs = traj.times, traj.states
    xd = plan.x_d(ts)
    hd = desired.hamiltonian((xs - xd).T)
    write_table(os.path.join(figdir, "tracking.csv"), t=ts, x1=xs[:, 0], xd1=xd[:, 0])
    write_table(os.path.join(figdir, "states.csv"), t=ts, x2=xs[:, 1], x3=xs[:, 2])
    write_table(os.path.join(figdir, "input.csv"), t=ts, u=traj.inputs[:, 0])
    write_table(os.path.join(figdir, "lyapunov.csv"), t=ts, Hd=hd)
    return hd


def _model_hd_increments(mean, desired, plan, traj):
    """Per-step H_d increments the model predicts along a closed-loop run.

    The slope grad H_d^T (mu + Ghat u - xdot_d) at each sample, with u the
    recorded input and mu + Ghat u the model's dynamics, integrated over each
    sample step by the trapezoid rule.
    It carries the assigned dissipation and the off-reference matching
    mismatch but not the model error, which criterion 1b bounds separately.
    """
    xs, ts = traj.states, traj.times
    grad = desired.hamiltonian_gradient((xs - plan.x_d(ts)).T)
    velocity = eval_dynamics(mean, xs.T, traj.inputs.T) - plan.x_d_dot(ts).T
    slope = np.einsum("nk,nk->k", grad, velocity)
    return 0.5 * np.diff(ts) * (slope[:-1] + slope[1:])


def _drift_envelope_ratio(plant, gp, states):
    """max_i,k |f_i - mu_i| / eta_i over the rows of states (T, n); 0 where both vanish.

    mu and eta = beta * var come from one posterior pass of ``gp``; without
    a GP (a perfect-model run) mu is the plant's drift and eta is zero.
    """
    f = eval_dynamics(plant, states.T, np.zeros(plant.dim_input))
    if gp is None:
        mu, eta = f, _zero_envelope(f)
    else:
        mu, var = gp.drift(states.T)
        eta = gp.beta[:, None] * var
    err = np.abs(f - mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(err == 0.0, 0.0, err / eta)
    return float(np.max(ratio))


def stage_metrics(cfg, workdir):
    traj = trajectory_from_csv(os.path.join(workdir, "closedloop.csv"))
    plan = plan_from_csv(os.path.join(workdir, "plan.csv"))
    plant, _ = build_plant(cfg)
    mean, gp, _ = load_model_artifact(cfg, workdir)
    desired = load_desired(workdir, mean)
    train_summary = read_json(os.path.join(workdir, "train_summary.json"))
    hd_check = read_json(os.path.join(workdir, "hd_check.json"))
    verify_report = read_json(os.path.join(workdir, "verify_report.json"))
    plan_summary = read_json(os.path.join(workdir, "plan_summary.json"))

    hd = emit_figure_data(workdir, traj, plan, desired)

    xd = plan.x_d(traj.times)
    err = traj.states - xd
    diffs = np.diff(hd)
    nominal = _model_hd_increments(mean, desired, plan, traj)
    tol = cfg["closed_loop"]["hd_increase_tol"]
    metrics = {
        "schema": "phs-lab-metrics-v1",
        "seed": cfg["seed"],
        "tracking": {
            "max_abs_error": [float(v) for v in np.max(np.abs(err), axis=0)],
            "mean_abs_error": [float(v) for v in np.mean(np.abs(err), axis=0)],
            "final_error_norm": float(np.linalg.norm(err[-1])),
        },
        "lyapunov": {
            "initial": float(hd[0]),
            "final": float(hd[-1]),
            "increase_events": int(np.sum(diffs > tol)),
            "max_increase": float(max(float(np.max(diffs)), 0.0)) if diffs.size else 0.0,
            "model_increase_events": int(np.sum(nominal > tol)),
            "model_max_increase": float(max(float(np.max(nominal)), 0.0)) if nominal.size else 0.0,
            "tol": tol,
        },
        "drift_envelope": {"max_ratio": _drift_envelope_ratio(plant, gp, traj.states)},
        "energy_balance": {
            "closed_loop_max_residual": float(np.max(energy_balance_residual(plant, traj)))
        },
        "plan": {"max_matching_residual": plan_summary["max_matching_residual"]},
        "verify": {
            "epsilon": verify_report["epsilon"],
            "satisfied": verify_report["satisfied"],
            "unbounded": verify_report["unbounded"],
        },
        "hd_gate": {
            "center": hd_check["center"],
            "passed": hd_check["final_gate"]["passed"],
        },
        "train": {
            "kind": train_summary["kind"],
            "nlml": train_summary["nlml"],
            "n_points": train_summary["n_points"],
            "beta": train_summary["beta"],
        },
    }
    write_json(os.path.join(workdir, "metrics.json"), metrics)
    return metrics


_STAGES = {
    "generate": stage_generate,
    "filter": stage_filter,
    "train": stage_train,
    "desired": stage_desired,
    "plan": stage_plan,
    "verify": stage_verify,
    "closed_loop": stage_closed_loop,
    "metrics": stage_metrics,
}
STAGE_ORDER = list(_STAGES)


def _check_stages(stages):
    unknown = [s for s in stages if s not in _STAGES]
    if unknown:
        raise ConfigError(f"unknown stages: {unknown} (expected names from {STAGE_ORDER})")


def run_stage(cfg, workdir, stage):
    _check_stages([stage])
    try:
        return _STAGES[stage](cfg, workdir)
    except Exception as exc:
        raise StageError(stage, exc) from exc


def run_pipeline(cfg, workdir, stages=None) -> dict:
    """Run the requested stages (default all) in order, timing each.  Unknown
    stage names are rejected before anything is written.  Any stage failure
    aborts with the stage name; artifacts written so far stay on disk."""
    cfg = validate_config(cfg)
    _check_stages(stages or [])
    selected = STAGE_ORDER if stages is None else [s for s in STAGE_ORDER if s in set(stages)]
    save_config(cfg, os.path.join(workdir, "config.json"))

    timings_path = os.path.join(workdir, "timings.json")
    timings = read_json(timings_path) if os.path.exists(timings_path) else {}

    result = None
    for stage in selected:
        start = time.perf_counter()
        result = run_stage(cfg, workdir, stage)
        timings[stage] = time.perf_counter() - start
        write_json(timings_path, timings)
    return result if result is not None else {}
