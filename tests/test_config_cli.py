"""Config schema, dotted overrides, and the command-line entry point.

CLI tests call main(argv) in process; nothing here shells out.
"""

import json

import numpy as np
import pytest

from phs_lab.cli import main
from phs_lab.config import (
    apply_overrides,
    default_config,
    load_config,
    resolve_out_dir,
    save_config,
    validate_config,
)
from phs_lab.errors import ConfigError


def test_defaults_validate_and_are_idempotent():
    cfg = default_config()
    out = validate_config(cfg)
    assert out == cfg
    for section in ("plant", "dataset", "filter", "train", "desired", "plan", "verify", "closed_loop"):
        assert section in out


def test_partial_config_merges_over_defaults():
    cfg = validate_config({"seed": 7, "dataset": {"n_samples": 50}})
    assert cfg["seed"] == 7
    assert cfg["dataset"]["n_samples"] == 50
    assert cfg["dataset"]["noise_var"] == default_config()["dataset"]["noise_var"]


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="dataset.sample_count"):
        validate_config({"dataset": {"sample_count": 50}})


@pytest.mark.parametrize(
    "bad,path",
    [
        ({"dataset": {"n_samples": 1}}, "dataset.n_samples"),
        ({"dataset": {"noise_var": -0.1}}, "dataset.noise_var"),
        ({"dataset": {"input": {"kind": "chirp"}}}, "dataset.input.kind"),
        ({"plan": {"grid_step": 0.0}}, "plan.grid_step"),
        ({"plan": {"reference": {"kind": "ramp"}}}, "plan.reference.kind"),
        ({"verify": {"n_radii": 1}}, "verify.n_radii"),
        ({"closed_loop": {"x0_offset": [0.05, 0.0]}}, "closed_loop.x0_offset"),
        ({"plant": {"kind": "pendulum"}}, "plant.kind"),
        ({"plant": {"m": "heavy"}}, "plant.m"),
        ({"dataset": {"noise_var": True}}, "dataset.noise_var"),
        ({"desired": {"r_d_inv": float("nan")}}, "desired.r_d_inv"),
        ({"verify": {"n_dirs": 2.0}}, "verify.n_dirs"),
        ({"plant": {"electrical_half": 1}}, "plant.electrical_half"),
        ({"dataset": {"x0": 0.0}}, "dataset.x0"),
        ({"plan": {"t_span": [2.0, 1.0]}}, "plan.t_span"),
        ({"verify": 3}, "verify: expected a section object"),
        ({"out_dir": 5}, "out_dir"),
        ({"filter": {"window": 8}}, "filter.window: must be odd"),
        ({"filter": {"window": 5, "poly_order": 4}}, "filter.window: must be at least"),
        ([], "config: expected a JSON object"),
        ({"plan": {"reference": {"kind": ["constant"]}}}, "plan.reference.kind"),
    ],
)
def test_validation_errors_name_the_leaf(bad, path):
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        validate_config(bad)


def test_jitter_above_max_jitter_rejected():
    # the Gram factorization escalates jitter up to max_jitter, so a start
    # above it would get one attempt and no escalation
    with pytest.raises(ConfigError, match=r"train\.jitter"):
        validate_config({"train": {"jitter": 1e-5, "max_jitter": 1e-6}})
    cfg = validate_config({"train": {"jitter": 1e-6, "max_jitter": 1e-6}})
    assert cfg["train"]["jitter"] == cfg["train"]["max_jitter"]


@pytest.mark.parametrize(
    "path,value",
    [
        ("train.risk_p", 0.05),
        ("train.bound_scale", "variance"),
        ("train.beta_mode", "calibrate"),
        ("train.beta", None),
        ("train.beta_percentile", 99.0),
        ("desired.b_hat", None),
        ("desired.recenter", "auto"),
        ("desired.gate_domain", [[-2.0, 2.0], [-2.0, 2.0], [-2.0, 2.0]]),
        ("desired.gate_resolution", 21),
        ("plan.mode", "auto"),
        ("verify.chunk", 2048),
        ("closed_loop.reduced_law", True),
        ("plant.kind", "microactuator"),
        ("dataset.rtol", 1e-8),
        ("dataset.atol", 1e-8),
        ("closed_loop.rtol", 1e-8),
        ("closed_loop.atol", 1e-8),
        ("train.gtol", 1e-5),
        ("train.perturb_scale", 0.3),
        ("verify.bisect_iters", 12),
    ],
)
def test_removed_leaves_are_unknown_keys(path, value):
    # these settings had one value in every run; a config that still sets
    # one, even to its old default, must fail instead of being ignored
    section, key = path.split(".")
    with pytest.raises(ConfigError, match=path.replace(".", r"\.") + ": unknown key"):
        validate_config({section: {key: value}})


def test_config_round_trip(tmp_path):
    cfg = validate_config({"seed": 9, "plan": {"grid_step": 0.1}})
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_overrides_parse_json_values():
    cfg = apply_overrides(
        default_config(),
        ["seed=7", "dataset.noise_var=0.002", "plant.electrical_half=true", "dataset.input.kind=zero"],
    )
    assert cfg["seed"] == 7
    assert cfg["dataset"]["noise_var"] == 0.002
    assert cfg["plant"]["electrical_half"] is True
    # bare strings that are not JSON still land as strings
    assert cfg["dataset"]["input"]["kind"] == "zero"


def test_overrides_reject_unknown_and_malformed():
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(default_config(), ["dataset.samples=50"])
    with pytest.raises(ConfigError, match="unknown section"):
        apply_overrides(default_config(), ["data.n_samples=50"])
    with pytest.raises(ConfigError, match="key.path=value"):
        apply_overrides(default_config(), ["seed 7"])


def test_resolve_out_dir_precedence(monkeypatch):
    monkeypatch.delenv("PHS_LAB_OUT", raising=False)
    assert resolve_out_dir({"out_dir": None}) == "runs"
    monkeypatch.setenv("PHS_LAB_OUT", "/tmp/envdir")
    assert resolve_out_dir({"out_dir": None}) == "/tmp/envdir"
    assert resolve_out_dir({"out_dir": "cfgdir"}) == "cfgdir"
    assert resolve_out_dir({"out_dir": "cfgdir"}, cli_out="clidir") == "clidir"


def test_cli_check_config_prints_effective_config(capsys):
    code = main(["pipeline", "--check-config", "--seed", "7", "--override", "plan.grid_step=0.1"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["seed"] == 7
    assert printed["plan"]["grid_step"] == 0.1


def test_cli_bad_override_exits_2(capsys):
    code = main(["train", "--override", "dataset.bogus=1"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_report_missing_dir_exits_2(tmp_path, capsys):
    code = main(["report", "--out", str(tmp_path / "nope")])
    assert code == 2
    assert "no artifact directory" in capsys.readouterr().err


def test_cli_simulate_writes_open_loop(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--out",
            str(out),
            "--override",
            "dataset.n_samples=40",
            "--override",
            "dataset.t_span=[0.0,2.0]",
        ]
    )
    assert code == 0
    data = np.loadtxt(out / "open_loop.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == 40
    text = capsys.readouterr().out
    assert "max energy-balance residual" in text


def test_cli_stage_failure_exits_1(tmp_path, capsys):
    # training without generated data is a stage failure, not a config error
    code = main(["train", "--out", str(tmp_path / "empty")])
    assert code == 1
    assert "stage failure" in capsys.readouterr().err
