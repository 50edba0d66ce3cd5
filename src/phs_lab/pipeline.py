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
metrics artifact is bit-identical across machines.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from . import gp as gp_mod
from .config import save_config, validate_config
from .control import (
    make_desired_dynamics,
    matching_residual,
    microactuator_desired_matrices,
    microactuator_tracking_control,
    plan_from_csv,
    plan_to_csv,
    simulate_closed_loop,
    solve_reference_plan,
)
from .core import (
    MicroactuatorParams,
    Trajectory,
    energy_balance_residual,
    eval_dynamics,
    make_microactuator,
    simulate,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .errors import ConfigError, PlanError, StageError
from .filtering import FilteredDataset, filter_derivatives, filtered_from_csv, filtered_to_csv
from .structure import MicroactuatorStructure, StructureEstimate
from .verify import VerifySpec, build_desired_dynamics, verify_dissipation_condition

__all__ = [
    "STAGE_ORDER",
    "build_plant",
    "build_input",
    "build_reference",
    "generate_dataset",
    "run_pipeline",
    "run_stage",
    "emit_figure_data",
    "load_model_artifact",
]

STAGE_ORDER = [
    "generate",
    "filter",
    "train",
    "desired",
    "plan",
    "verify",
    "closed_loop",
    "metrics",
]


def _stage_rng(cfg, stage):
    seq = np.random.SeedSequence(cfg["seed"], spawn_key=(STAGE_ORDER.index(stage),))
    return np.random.default_rng(seq)


def _stage_seed(cfg, stage) -> int:
    seq = np.random.SeedSequence(cfg["seed"], spawn_key=(STAGE_ORDER.index(stage),))
    return int(seq.generate_state(1)[0])


def build_plant(cfg):
    p = cfg["plant"]
    params = MicroactuatorParams(
        m=p["m"],
        b=p["b"],
        k=p["k"],
        r=p["r"],
        x1_star=p["x1_star"],
        c0=p["c0"],
        electrical_half=p["electrical_half"],
    )
    return make_microactuator(params), params


def build_input(spec):
    if spec["kind"] == "zero":
        return lambda t: np.zeros(1)
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


def generate_dataset(cfg) -> Trajectory:
    """Simulate the plant under the configured excitation and add observation
    noise (variance ``dataset.noise_var`` per state) from the generate-stage
    stream."""
    plant, _ = build_plant(cfg)
    d = cfg["dataset"]
    traj = simulate(
        plant,
        np.asarray(d["x0"]),
        build_input(d["input"]),
        d["t_span"],
        n_samples=d["n_samples"],
        rtol=d["rtol"],
        atol=d["atol"],
        record_outputs=False,
    )
    rng = _stage_rng(cfg, "generate")
    noisy = traj.states + rng.normal(0.0, np.sqrt(d["noise_var"]), size=traj.states.shape)
    return Trajectory(times=traj.times, states=noisy, inputs=traj.inputs)


def _path(workdir, name):
    return os.path.join(workdir, name)


def _require(workdir, name):
    path = _path(workdir, name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing upstream artifact: {path}")
    return path


def stage_generate(cfg, workdir):
    trajectory_to_csv(generate_dataset(cfg), _path(workdir, "dataset.csv"))


def stage_filter(cfg, workdir):
    traj = trajectory_from_csv(_require(workdir, "dataset.csv"))
    ds = filter_derivatives(traj, window=cfg["filter"]["window"], poly_order=cfg["filter"]["poly_order"])
    filtered_to_csv(ds, _path(workdir, "filtered.csv"))


def _true_structure(params: MicroactuatorParams) -> StructureEstimate:
    family = MicroactuatorStructure()
    return StructureEstimate(family=family, phi=family.phi_from_values(params.b, params.r))


def _calibration_dataset(cfg) -> FilteredDataset:
    """Noiseless plant rollout from a displaced start with exact derivatives,
    used to scale the error-envelope multipliers."""
    plant, _ = build_plant(cfg)
    d = cfg["dataset"]
    cal = cfg["train"]["calibration"]
    x0 = np.asarray(d["x0"]) + np.asarray(cal["x0_offset"])
    u_fn = build_input(d["input"])
    traj = simulate(
        plant,
        x0,
        u_fn,
        d["t_span"],
        n_samples=cal["n_samples"],
        rtol=d["rtol"],
        atol=d["atol"],
        record_outputs=False,
    )
    derivs = np.stack(
        [eval_dynamics(plant, x, u) for x, u in zip(traj.states, traj.inputs)]
    )
    return FilteredDataset(
        states=traj.states.T, derivatives=derivs.T, inputs=traj.inputs.T, times=traj.times
    )


def stage_train(cfg, workdir):
    t = cfg["train"]
    plant, params = build_plant(cfg)
    if t["perfect_model"]:
        model = gp_mod.PerfectPhsModel(plant, _true_structure(params))
        with open(_path(workdir, "model.json"), "w") as fh:
            json.dump(
                {"format": "phs-lab-perfect-model", "version": 1, "plant": cfg["plant"]},
                fh,
                indent=1,
                sort_keys=True,
            )
        summary = {"kind": "perfect", "nlml": None, "n_points": 0, "beta": [0.0] * model.dim_state}
    else:
        ds = filtered_from_csv(_require(workdir, "filtered.csv"))
        n = ds.states.shape[0]
        family = MicroactuatorStructure()
        init = gp_mod.GpHyperparams(
            sigma_f=1.0,
            lengthscales=np.ones(n),
            noise_var=np.full(n, 1e-2),
            structure=StructureEstimate(family=family, phi=family.default_phi()),
        )
        opt = gp_mod.OptimizerConfig(
            restarts=t["restarts"],
            max_iter=t["max_iter"],
            gtol=t["gtol"],
            perturb_scale=t["perturb_scale"],
            jitter=t["jitter"],
            max_jitter=t["max_jitter"],
        )
        model = gp_mod.train(ds, init, optimizer_config=opt, rng=_stage_rng(cfg, "train"))
        gp_mod.calibrate_beta(model, _calibration_dataset(cfg))
        gp_mod.save_model(model, _path(workdir, "model.json"))
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
    with open(_path(workdir, "train_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)


def load_model_artifact(cfg, workdir):
    path = _require(workdir, "model.json")
    with open(path) as fh:
        head = json.load(fh)
    if head.get("format") == "phs-lab-perfect-model":
        plant, params = build_plant(cfg)
        return gp_mod.PerfectPhsModel(plant, _true_structure(params))
    return gp_mod.load_model(path)


def stage_desired(cfg, workdir):
    model = load_model_artifact(cfg, workdir)
    de = cfg["desired"]
    # the pipeline trains and loads microactuator-family models only
    structure = model.structure
    b_hat = float(structure.family.values(structure.phi)[0])
    jd, rd = microactuator_desired_matrices(b_hat, de["r_d_inv"])
    # models without stored training states (exact-dynamics stand-ins) get the
    # gate domain as the energy-minimum search box
    search_box = None if getattr(model, "states", None) is not None else de["gate_domain"]
    _, report = build_desired_dynamics(
        model,
        jd,
        rd,
        gate_domain=de["gate_domain"],
        gate_resolution=de["gate_resolution"],
        search_box=search_box,
    )
    report["b_hat"] = b_hat
    report["r_d_inv"] = de["r_d_inv"]
    with open(_path(workdir, "hd_check.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)


def _load_desired(cfg, workdir, model):
    with open(_require(workdir, "hd_check.json")) as fh:
        report = json.load(fh)
    jd, rd = microactuator_desired_matrices(report["b_hat"], report["r_d_inv"])
    return make_desired_dynamics(model, jd, rd, center=np.asarray(report["center"]))


def stage_plan(cfg, workdir):
    model = load_model_artifact(cfg, workdir)
    desired = _load_desired(cfg, workdir, model)
    pl = cfg["plan"]

    def solve(mode):
        return solve_reference_plan(
            model,
            desired,
            build_reference(pl["reference"]),
            pl["t_span"],
            pl["grid_step"],
            seed_tail=np.asarray(pl["seed_tail"]),
            mode=mode,
        )

    try:
        plan, mode = solve("exact"), "exact"
    except PlanError:
        # learned-model error can leave the matching condition without a
        # root at some grid times; fall back to the residual minimizer
        plan, mode = solve("best-fit"), "best-fit"
    plan_to_csv(plan, _path(workdir, "plan.csv"))
    check_idx = np.unique(np.linspace(0, plan.times.size - 1, 25).round().astype(int))
    residuals = [
        float(np.linalg.norm(matching_residual(model, desired, plan, plan.xd[i], plan.times[i])))
        for i in check_idx
    ]
    with open(_path(workdir, "plan_summary.json"), "w") as fh:
        json.dump(
            {
                "max_matching_residual": max(residuals),
                "checked_times": [float(plan.times[i]) for i in check_idx],
                "grid_step": pl["grid_step"],
                "fit": plan.fit,
                "mode": mode,
                "n_grid": int(plan.times.size),
            },
            fh,
            indent=1,
            sort_keys=True,
        )


def stage_verify(cfg, workdir):
    model = load_model_artifact(cfg, workdir)
    desired = _load_desired(cfg, workdir, model)
    plan = plan_from_csv(_require(workdir, "plan.csv"))
    v = cfg["verify"]
    spec = VerifySpec(
        max_radius=v["max_radius"],
        n_radii=v["n_radii"],
        n_dirs=v["n_dirs"],
        n_times=v["n_times"],
        bisect_iters=v["bisect_iters"],
        seed=_stage_seed(cfg, "verify"),
    )
    report = verify_dissipation_condition(model, desired, plan, spec)
    with open(_path(workdir, "verify_report.json"), "w") as fh:
        json.dump(report.to_jsonable(), fh, indent=1, sort_keys=True)
    report.margins_to_csv(_path(workdir, "margins.csv"))
    with open(_path(workdir, "verify_summary.txt"), "w") as fh:
        fh.write(report.to_text() + "\n")


def build_controller(cfg, model, desired, plan):
    """The closed-loop law: the reduced microactuator form of the tracking law.

    ``cfg`` is unused; the signature stays as it is because perfbench/spans.py
    wraps this function by name and forwards its arguments.
    """
    return microactuator_tracking_control(model, desired, plan)


def stage_closed_loop(cfg, workdir):
    model = load_model_artifact(cfg, workdir)
    desired = _load_desired(cfg, workdir, model)
    plan = plan_from_csv(_require(workdir, "plan.csv"))
    plant, _ = build_plant(cfg)
    cl = cfg["closed_loop"]
    controller = build_controller(cfg, model, desired, plan)
    t0, t1 = plan.t_span
    x0 = plan.x_d(t0) + np.asarray(cl["x0_offset"])
    traj = simulate_closed_loop(
        plant,
        controller,
        x0,
        (t0, t1),
        n_samples=cl["n_samples"],
        rtol=cl["rtol"],
        atol=cl["atol"],
    )
    trajectory_to_csv(traj, _path(workdir, "closedloop.csv"))


def emit_figure_data(workdir, traj, plan, desired):
    """Four figure CSVs derived from the persisted closed-loop run: air-gap
    tracking, remaining states, control input, and the desired-energy series."""
    figdir = _path(workdir, "figures")
    os.makedirs(figdir, exist_ok=True)
    ts = traj.times
    xd = plan.x_d(ts)
    hd = desired.hd_error_batch((traj.states - xd).T)

    def emit(name, header, cols):
        np.savetxt(
            os.path.join(figdir, name),
            np.column_stack(cols),
            fmt="%.17g",
            delimiter=",",
            header=header,
            comments="",
        )

    emit("tracking.csv", "t,x1,xd1", [ts, traj.states[:, 0], xd[:, 0]])
    emit("states.csv", "t,x2,x3", [ts, traj.states[:, 1], traj.states[:, 2]])
    emit("input.csv", "t,u", [ts, traj.inputs[:, 0]])
    emit("lyapunov.csv", "t,Hd", [ts, hd])
    return hd


def _model_hd_increments(model, desired, plan, traj):
    """Per-step H_d increments the model predicts along a closed-loop run.

    The slope grad H_d^T (mu + Ghat u - xdot_d) at each sample, with u the
    recorded input, integrated over each sample step by the trapezoid rule.
    It carries the assigned dissipation and the off-reference matching
    mismatch but not the model error, which criterion 1b bounds separately.
    """
    xs, ts = traj.states, traj.times
    grad = desired.hd_error_grad_batch((xs - plan.x_d(ts)).T)
    g_u = np.stack([model.io_matrix(x) @ u for x, u in zip(xs, traj.inputs)], axis=1)
    velocity = model.drift_mean(xs.T) + g_u - plan.x_d_dot(ts).T
    slope = np.einsum("nk,nk->k", grad, velocity)
    return 0.5 * np.diff(ts) * (slope[:-1] + slope[1:])


def _drift_envelope_ratio(plant, model, states):
    """max_i,k |f_i - mu_i| / eta_i over the rows of states (T, n); 0 where both vanish."""
    u0 = np.zeros(plant.dim_input)
    f = np.stack([eval_dynamics(plant, x, u0) for x in states], axis=1)
    err = np.abs(f - model.drift_mean(states.T))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(err == 0.0, 0.0, err / model.envelope(states.T))
    return float(np.max(ratio))


def stage_metrics(cfg, workdir):
    traj = trajectory_from_csv(_require(workdir, "closedloop.csv"))
    plan = plan_from_csv(_require(workdir, "plan.csv"))
    plant, _ = build_plant(cfg)
    model = load_model_artifact(cfg, workdir)
    desired = _load_desired(cfg, workdir, model)
    with open(_require(workdir, "train_summary.json")) as fh:
        train_summary = json.load(fh)
    with open(_require(workdir, "hd_check.json")) as fh:
        hd_check = json.load(fh)
    with open(_require(workdir, "verify_report.json")) as fh:
        verify_report = json.load(fh)
    with open(_require(workdir, "plan_summary.json")) as fh:
        plan_summary = json.load(fh)

    hd = emit_figure_data(workdir, traj, plan, desired)

    xd = plan.x_d(traj.times)
    err = traj.states - xd
    diffs = np.diff(hd)
    nominal = _model_hd_increments(model, desired, plan, traj)
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
        "drift_envelope": {"max_ratio": _drift_envelope_ratio(plant, model, traj.states)},
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
            "mode": hd_check["mode"],
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
    with open(_path(workdir, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
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


def run_stage(cfg, workdir, stage):
    if stage not in _STAGES:
        raise ConfigError(f"unknown stage: {stage!r} (expected one of {STAGE_ORDER})")
    try:
        return _STAGES[stage](cfg, workdir)
    except Exception as exc:
        raise StageError(stage, exc) from exc


def run_pipeline(cfg, workdir, stages=None) -> dict:
    """Run the requested stages (default all) in order, timing each.  Any
    stage failure aborts with the stage name; artifacts written so far stay on
    disk."""
    cfg = validate_config(cfg)
    os.makedirs(workdir, exist_ok=True)
    save_config(cfg, _path(workdir, "config.json"))
    selected = STAGE_ORDER if stages is None else [s for s in STAGE_ORDER if s in set(stages)]

    timings_path = _path(workdir, "timings.json")
    timings = {}
    if os.path.exists(timings_path):
        with open(timings_path) as fh:
            timings = json.load(fh)

    result = None
    for stage in selected:
        start = time.perf_counter()
        result = run_stage(cfg, workdir, stage)
        timings[stage] = time.perf_counter() - start
        with open(timings_path, "w") as fh:
            json.dump(timings, fh, indent=1, sort_keys=True)
    return result if result is not None else {}
