"""Tests of the benchmark itself: its checks reject wrong outputs, and tracing
leaves the program's artifacts unchanged.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (sets the BLAS thread count and the import paths)
import learning_curve  # noqa: E402
import oracle  # noqa: E402
import study  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def phs():
    return run.import_program()


@pytest.fixture(scope="module")
def study_run(phs, tmp_path_factory):
    """One untraced study round; returns (config, artifact directory)."""
    workdir = str(tmp_path_factory.mktemp("untraced"))
    cfg = study.config(phs)
    study.run_round(phs, cfg, workdir)
    return cfg, workdir


def _artifacts(workdir):
    out = {}
    for base, _, files in os.walk(workdir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, workdir)] = fh.read()
    return out


def test_study_checks_accept_the_program_outputs(phs, study_run):
    cfg, workdir = study_run
    results = study.check_round(phs, cfg, workdir, np.random.default_rng(0))
    assert [name for name, _, _ in results] == list(study.CHECKS[1:])
    assert all(ok for _, ok, _ in results), results


def _model_and_oracle(phs, workdir):
    path = os.path.join(workdir, "model.json")
    model = phs.gp.load_model(path)
    with open(path) as fh:
        gp = oracle.DenseGp(json.load(fh))
    return model, gp


def test_posterior_check_rejects_a_mean_off_by_1e_6(phs, study_run):
    _, workdir = study_run
    model, gp = _model_and_oracle(phs, workdir)
    states = np.asarray(model.states)[:, ::7]
    assert study.check_posterior(model, gp, states)[0]

    class Perturbed:
        def drift(self, xq):
            mean, var = model.drift(xq)
            return mean * (1.0 + 1e-6), var

    assert not study.check_posterior(Perturbed(), gp, states)[0]


def test_plan_check_rejects_x_d1_shifted_by_one_grid_step(study_run):
    cfg, workdir = study_run
    plan = study._csv(workdir, "plan.csv")
    assert study.check_plan_reference(cfg, plan)[0]
    shifted = plan.copy()
    shifted[1:, 1] = plan[:-1, 1]
    assert not study.check_plan_reference(cfg, shifted)[0]


def test_rmse_order_rejects_a_learning_curve_out_of_order():
    assert learning_curve.rmse_in_order([3e-3, 2e-3, 1e-3])
    for rmse in ([3e-3, 1e-3, 2e-3], [1e-3, 2e-3, 3e-3], [2e-3, 2e-3, 1e-3]):
        assert not learning_curve.rmse_in_order(rmse)


def test_traced_round_writes_the_same_artifacts(phs, study_run, tmp_path):
    cfg, untraced = study_run
    tracer = spans.Tracer()
    tracer.install(phs)
    try:
        study.run_round(phs, cfg, str(tmp_path), tracer)
    finally:
        tracer.uninstall()
    first, second = _artifacts(untraced), _artifacts(str(tmp_path))
    first.pop("timings.json")
    second.pop("timings.json")
    assert sorted(first) == sorted(second)
    assert [name for name in first if first[name] != second[name]] == []
    assert tracer.calls["control.least_squares"] == 1
    assert tracer.calls["pipeline.plan"] == 1
    assert not hasattr(phs.gp.GpPhsModel.drift, "__wrapped__")
