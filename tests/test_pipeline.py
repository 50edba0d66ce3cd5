"""End-to-end pipeline runs on a scaled-down experiment.

The mini config keeps every stage's machinery (GP training, gate, plan,
certificate, closed loop) but shrinks the dataset and grids so two full runs
cost about a second.
"""

import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from phs_lab import ConfigError, StageError, gp, kernels, pipeline
from phs_lab.cli import main
from phs_lab.config import default_config, validate_config
from phs_lab.core import simulate_feedback, trajectory_from_csv
from phs_lab.pipeline import (
    STAGE_ORDER,
    build_input,
    build_plant,
    build_reference,
    rollout_plant,
    run_pipeline,
    run_stage,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# the threads a stage's posterior queries split their blocks over: the
# caller, plus gp.posterior_helper's thread on two cores or more
POSTERIOR_THREADS = min(2, len(os.sched_getaffinity(0)))

MINI_OVERRIDES = {
    "seed": 3,
    "dataset": {"n_samples": 60},
    "filter": {"window": 7},
    "train": {"restarts": 1, "max_iter": 80, "calibration": {"n_samples": 40}},
    "plan": {"t_span": [0.0, 2.0], "grid_step": 0.2},
    "verify": {"n_dirs": 100, "n_radii": 6, "n_times": 2, "max_radius": 1.0},
    "closed_loop": {"n_samples": 101},
}

ARTIFACTS = [
    "config.json",
    "dataset.csv",
    "filtered.csv",
    "model.json",
    "train_summary.json",
    "hd_check.json",
    "plan.csv",
    "plan_summary.json",
    "verify_report.json",
    "verify_summary.txt",
    "margins.csv",
    "closedloop.csv",
    "metrics.json",
    "timings.json",
]
FIGURES = ["tracking.csv", "states.csv", "input.csv", "lyapunov.csv"]


def mini_config(**extra):
    cfg = json.loads(json.dumps(MINI_OVERRIDES))
    for key, val in extra.items():
        cfg.setdefault(key, {}).update(val) if isinstance(val, dict) else cfg.__setitem__(key, val)
    return validate_config(cfg)


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("mini")
    metrics = run_pipeline(mini_config(), str(workdir))
    return workdir, metrics


def test_all_artifacts_written(mini_run):
    workdir, metrics = mini_run
    for name in ARTIFACTS:
        assert (workdir / name).exists(), name
    for fig in FIGURES:
        assert (workdir / "figures" / fig).exists()
    assert metrics["schema"] == "phs-lab-metrics-v1"
    for key in ("tracking", "lyapunov", "energy_balance", "plan", "verify", "hd_gate", "train"):
        assert key in metrics


def test_run_directory_holds_only_documented_artifacts(mini_run):
    # atomic writes leave no temporary file behind
    workdir, _ = mini_run
    written = {
        os.path.relpath(os.path.join(base, name), workdir)
        for base, _, names in os.walk(workdir)
        for name in names
    }
    assert written == set(ARTIFACTS) | {os.path.join("figures", f) for f in FIGURES}


def test_metrics_match_persisted_file(mini_run):
    workdir, metrics = mini_run
    with open(workdir / "metrics.json") as fh:
        assert json.load(fh) == json.loads(json.dumps(metrics))


def test_plan_summary_reports_fit_and_residual(mini_run):
    workdir, _ = mini_run
    with open(workdir / "plan_summary.json") as fh:
        summary = json.load(fh)
    assert "mode" not in summary
    assert summary["n_grid"] == 11
    assert np.isfinite(summary["max_matching_residual"])
    assert len(summary["checked_times"]) <= 25
    assert set(summary["fit"]) == {"status", "message", "nfev", "njev", "cost", "optimality"}


def test_hd_check_records_root_and_gate(mini_run):
    workdir, metrics = mini_run
    with open(workdir / "hd_check.json") as fh:
        hd_check = json.load(fh)
    assert set(hd_check) == {"center", "root", "final_gate", "b_hat", "r_d_inv"}
    assert set(hd_check["root"]) == {"status", "message", "nfev", "grad_inf_norm"}
    assert hd_check["root"]["status"] == 1 and hd_check["root"]["grad_inf_norm"] <= 1e-8
    # H_d(0) = H_hat(c) - H_hat(c) from the same bits, on the gate grid too
    gate = hd_check["final_gate"]
    assert gate["passed"] and gate["argmin_point"] == [0.0, 0.0, 0.0]
    assert gate["min_value"] == 0.0
    assert set(metrics["hd_gate"]) == {"center", "passed"}


def test_train_summary_records_restart_exits(mini_run):
    workdir, _ = mini_run
    with open(workdir / "train_summary.json") as fh:
        summary = json.load(fh)
    restarts = summary["restarts"]
    assert [r["restart"] for r in restarts] == list(range(MINI_OVERRIDES["train"]["restarts"]))
    for r in restarts:
        assert set(r) == {"restart", "nlml", "nit", "nfev", "message", "grad_inf_norm", "discarded"}
        assert r["nfev"] >= r["nit"] >= 0 and r["message"]
        assert np.isfinite(r["grad_inf_norm"]) and isinstance(r["discarded"], bool)
    kept = [r["nlml"] for r in restarts if not r["discarded"]]
    assert min(kept) == pytest.approx(summary["nlml"], rel=1e-9)
    assert summary["jitter_used"] >= 0.0


def test_best_fit_plan_converges_on_reduced_study(tmp_path):
    # on the reduced production study (100 training points, a 21-point grid
    # over t in [0, 1]) the trust-region fit must stop on one of its
    # convergence tests (status 1-4), not on the evaluation cap (status 0)
    cfg = validate_config(
        {
            "seed": 42,
            "dataset": {"n_samples": 100},
            "train": {"restarts": 2, "calibration": {"n_samples": 60}},
            "plan": {"t_span": [0.0, 1.0]},
        }
    )
    stages = ["generate", "filter", "train", "desired", "plan"]
    run_pipeline(cfg, str(tmp_path), stages=stages)
    with open(tmp_path / "plan_summary.json") as fh:
        summary = json.load(fh)
    fit = summary["fit"]
    assert 1 <= fit["status"] <= 4, fit["message"]
    assert fit["nfev"] < 600 and fit["njev"] <= fit["nfev"]
    assert fit["cost"] >= 0.0 and np.isfinite(fit["optimality"])
    # the free solve lands inside the data box, so it alone makes the plan,
    # in a few steps
    assert fit["njev"] <= 10
    assert summary["solves"] == {"free": fit, "box": None}


def test_rerun_is_byte_identical(mini_run, tmp_path):
    workdir, _ = mini_run
    second = tmp_path / "again"
    run_pipeline(mini_config(), str(second))
    for name in ARTIFACTS:
        if name == "timings.json":
            continue
        a = (workdir / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_metrics_stage_rerun_is_isolated(mini_run):
    workdir, _ = mini_run
    before = (workdir / "metrics.json").read_bytes()
    os.remove(workdir / "metrics.json")
    run_pipeline(mini_config(), str(workdir), stages=["metrics"])
    assert (workdir / "metrics.json").read_bytes() == before


def test_perfect_model_tracks_to_integrator_accuracy(tmp_path):
    # the coarse mini grid leaves visible off-grid matching defect, so this
    # run plans at the production step
    cfg = mini_config(
        train={"perfect_model": True},
        closed_loop={"x0_offset": [0.0, 0.0, 0.0]},
        plan={"grid_step": 0.05},
    )
    metrics = run_pipeline(cfg, str(tmp_path / "perfect"))
    assert max(metrics["tracking"]["max_abs_error"]) <= 1e-4
    assert metrics["verify"]["satisfied"]
    assert metrics["verify"]["epsilon"] == 0.0
    assert metrics["plan"]["max_matching_residual"] <= 1e-6
    assert metrics["lyapunov"]["increase_events"] == 0


def test_zero_noise_dataset_equals_clean_rollout(tmp_path):
    cfg = mini_config(dataset={"noise_var": 0.0})
    workdir = tmp_path / "clean"
    run_pipeline(cfg, str(workdir), stages=["generate"])
    traj = trajectory_from_csv(workdir / "dataset.csv")
    plant, _ = build_plant(cfg)
    d = cfg["dataset"]
    u = build_input(d["input"])
    ref = simulate_feedback(
        plant,
        np.asarray(d["x0"]),
        lambda x, t: u(t),
        d["t_span"],
        n_samples=d["n_samples"],
    )
    np.testing.assert_array_equal(traj.states, ref.states)


def test_zero_input_rollout_rests_at_the_energy_minimum():
    # (1, 0, 0) is the plant's energy minimum: grad H vanishes there, so the
    # unforced rollout never leaves it
    cfg = mini_config(dataset={"x0": [1.0, 0.0, 0.0], "input": {"kind": "zero"}})
    _, traj = rollout_plant(cfg, 20)
    np.testing.assert_array_equal(traj.states, np.tile([1.0, 0.0, 0.0], (20, 1)))
    np.testing.assert_array_equal(traj.inputs, np.zeros((20, 1)))
    np.testing.assert_array_equal(traj.outputs, np.zeros((20, 1)))


def test_constant_reference_holds_its_offset():
    spec = dict(default_config()["plan"]["reference"], kind="constant", offset=0.9)
    reference = build_reference(spec)
    assert reference(0.0) == (0.9, 0.0)
    assert reference(7.5) == (0.9, 0.0)


def test_cli_report_prints_the_run_summary(mini_run, tmp_path, capsys):
    workdir, metrics = mini_run
    copy = tmp_path / "copy"
    shutil.copytree(workdir, copy)
    code = main(["report", "--config", str(copy / "config.json"), "--out", str(copy)])
    assert code == 0
    text = capsys.readouterr().out
    assert "completed stages: metrics" in text
    lyap = metrics["lyapunov"]
    assert f"H_d: {lyap['initial']:.6g} -> {lyap['final']:.6g}" in text
    verify = metrics["verify"]
    radius = "unbounded" if verify["unbounded"] else f"{verify['epsilon']:.6g}"
    assert f"dissipation certificate radius: {radius}" in text


def test_stage_without_inputs_fails_with_stage_name(tmp_path):
    with pytest.raises(StageError) as err:
        run_stage(mini_config(), str(tmp_path / "void"), "train")
    assert err.value.stage == "train"
    assert "filtered.csv" in str(err.value)


def test_unknown_stage_is_rejected_before_anything_is_written(tmp_path):
    workdir = tmp_path / "typo"
    with pytest.raises(ConfigError, match="plna"):
        run_pipeline(mini_config(), str(workdir), stages=["plna"])
    assert not workdir.exists()


def test_non_finite_upstream_table_fails_the_reading_stage(mini_run, tmp_path):
    workdir = tmp_path / "nan"
    shutil.copytree(mini_run[0], workdir)
    plan = workdir / "plan.csv"
    lines = plan.read_text().splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]
    plan.write_text("\n".join(lines) + "\n")
    with pytest.raises(StageError) as err:
        run_stage(mini_config(), str(workdir), "closed_loop")
    assert err.value.stage == "closed_loop"
    assert "plan.csv" in str(err.value)


# The reduced study of the benchmark's `study` workload: 100 training points,
# 2 restarts, a 21-point plan grid, 400 x 8 x 3 verify samples.
STUDY_CONFIG = {
    "seed": 42,
    "dataset": {"n_samples": 100},
    "train": {"restarts": 2, "calibration": {"n_samples": 60}},
    "plan": {"t_span": [0.0, 1.0]},
    "verify": {"n_dirs": 400, "n_radii": 8, "n_times": 3},
    "closed_loop": {"n_samples": 101},
}


def _pipeline_in_subprocess(config_path, out, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "phs_lab.cli", "pipeline", "--config", str(config_path), "--out", str(out)]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_artifacts_do_not_depend_on_blas_environment(tmp_path):
    config_path = tmp_path / "study.json"
    config_path.write_text(json.dumps(STUDY_CONFIG))
    one, two = tmp_path / "one", tmp_path / "two"
    _pipeline_in_subprocess(config_path, one, 1)
    _pipeline_in_subprocess(config_path, two, 2)
    names = sorted(str(p.relative_to(one)) for p in one.rglob("*") if p.is_file() and p.name != "timings.json")
    assert len(names) == len(ARTIFACTS) - 1 + len(FIGURES)
    differing = [name for name in names if (one / name).read_bytes() != (two / name).read_bytes()]
    assert not differing, f"artifacts differ between OPENBLAS_NUM_THREADS=1 and =2: {differing}"


def test_without_openblas_nothing_is_set_and_verify_records_null(mini_run, monkeypatch, tmp_path):
    workdir = tmp_path / "no_blas"
    shutil.copytree(mini_run[0], workdir)
    monkeypatch.setattr(kernels, "_OPENBLAS", {})
    run_stage(mini_config(), str(workdir), "verify")
    with open(workdir / "verify_report.json") as fh:
        assert json.load(fh)["blas_threads"] == {"numpy": None, "scipy": None}
    with open(mini_run[0] / "verify_report.json") as fh:
        recorded = json.load(fh)
    assert recorded["blas_threads"] == {"numpy": 1, "scipy": 1}
    assert recorded["posterior_threads"] == POSTERIOR_THREADS


def test_verify_stage_writes_the_same_bytes_without_the_helper(mini_run, tmp_path):
    # the mini verify shells hold 2 x 114 states, two posterior blocks, so
    # through run_stage the helper takes one of them
    workdir = tmp_path / "serial"
    shutil.copytree(mini_run[0], workdir)
    assert gp.posterior_threads() == 1
    pipeline._STAGES["verify"](mini_config(), str(workdir))
    assert (workdir / "margins.csv").read_bytes() == (mini_run[0] / "margins.csv").read_bytes()
    with open(workdir / "verify_report.json") as fh:
        serial = json.load(fh)
    with open(mini_run[0] / "verify_report.json") as fh:
        staged = json.load(fh)
    assert serial.pop("posterior_threads") == 1
    assert staged.pop("posterior_threads") == POSTERIOR_THREADS
    assert serial == staged


def test_run_stage_leaves_no_thread_behind(mini_run, monkeypatch, tmp_path):
    workdir = tmp_path / "threads"
    shutil.copytree(mini_run[0], workdir)
    before = threading.active_count()
    run_stage(mini_config(), str(workdir), "verify")
    assert threading.active_count() == before
    during = []

    def failing(cfg, wd):
        _, model, _ = pipeline.load_model_artifact(cfg, wd)
        model.envelope(np.zeros((3, 3 * gp._VAR_CHUNK)))
        during.append(threading.active_count())
        raise RuntimeError("fails after a split query")

    monkeypatch.setitem(pipeline._STAGES, "verify", failing)
    with pytest.raises(StageError, match="fails after a split query"):
        run_stage(mini_config(), str(workdir), "verify")
    # the helper ran inside the stage and was joined when it failed
    assert during == [before + POSTERIOR_THREADS - 1]
    assert threading.active_count() == before
