"""Experiment configuration: defaults, schema validation, dotted overrides.

Configs are plain JSON objects.  ``validate_config`` deep-merges the user
config over the defaults (rejecting unknown keys) and checks every leaf
against the schema, reporting errors by dotted path.  A validated config
serializes and re-parses to itself.
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np

from .artifacts import read_json, write_json
from .errors import ConfigError

__all__ = [
    "default_config",
    "validate_config",
    "load_config",
    "save_config",
    "apply_overrides",
    "resolve_out_dir",
]

_DEFAULTS = {
    "seed": 42,
    "out_dir": None,
    "plant": {
        "kind": "microactuator",
        "m": 1.0,
        "b": 0.5,
        "k": 10.0,
        "r": 1.0,
        "x1_star": 1.0,
        "c0": 1.0,
        "electrical_half": False,
    },
    "dataset": {
        "x0": [0.0, 0.0, 1.0],
        "t_span": [0.0, 20.0],
        "n_samples": 300,
        "noise_var": 0.001,
        "input": {"kind": "sin", "amplitude": 1.0, "frequency": 1.0},
        "rtol": 1e-8,
        "atol": 1e-8,
    },
    "filter": {"window": 9, "poly_order": 3},
    "train": {
        "restarts": 5,
        "max_iter": 500,
        "gtol": 1e-5,
        "perturb_scale": 0.3,
        "jitter": 1e-10,
        "max_jitter": 1e-6,
        "calibration": {"x0_offset": [0.05, -0.05, 0.05], "n_samples": 150},
        "perfect_model": False,
    },
    "desired": {
        "r_d_inv": 10.0,
    },
    "plan": {
        "t_span": [0.0, 13.0],
        "grid_step": 0.05,
        "seed_tail": [0.0, 0.3],
        "reference": {
            "kind": "drifting-sine",
            "offset": 1.0,
            "slope": -0.01,
            "amplitude": -0.01,
            "frequency": 0.8,
        },
    },
    "verify": {
        "max_radius": 2.0,
        "n_radii": 25,
        "n_dirs": 2000,
        "n_times": 5,
        "bisect_iters": 12,
    },
    "closed_loop": {
        "x0_offset": [0.05, 0.0, 0.0],
        "n_samples": 1301,
        "rtol": 1e-8,
        "atol": 1e-8,
        "hd_increase_tol": 1e-6,
    },
}


def default_config() -> dict:
    return copy.deepcopy(_DEFAULTS)


def _fail(path, expected, got):
    raise ConfigError(f"{path}: expected {expected}, got {got!r}")


def _check_number(path, value, lo=None, strict_lo=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        _fail(path, "a finite number", value)
    if lo is not None and (value <= lo if strict_lo else value < lo):
        _fail(path, f"a number {'>' if strict_lo else '>='} {lo}", value)
    return float(value)


def _check_int(path, value, lo=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "an integer", value)
    if lo is not None and value < lo:
        _fail(path, f"an integer >= {lo}", value)
    return value


def _check_bool(path, value):
    if not isinstance(value, bool):
        _fail(path, "a boolean", value)
    return value


def _check_choice(path, value, choices):
    if value not in choices:
        _fail(path, f"one of {sorted(choices)}", value)
    return value


def _check_vector(path, value, length=None):
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and np.isfinite(v) for v in value
    ):
        _fail(path, "a list of finite numbers", value)
    if length is not None and len(value) != length:
        _fail(path, f"a list of length {length}", value)
    return [float(v) for v in value]


def _check_span(path, value):
    value = _check_vector(path, value, length=2)
    if value[1] <= value[0]:
        _fail(path, "an increasing [start, end] pair", value)
    return value


def _merge(base, user, path=""):
    out = copy.deepcopy(base)
    for key, val in user.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"{here}: unknown key")
        if isinstance(base[key], dict) and base[key]:
            if not isinstance(val, dict):
                _fail(here, "a section object", val)
            out[key] = _merge(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def validate_config(cfg: dict) -> dict:
    """Merge over defaults, reject unknown keys, check every leaf. Returns the
    normalized config."""
    if not isinstance(cfg, dict):
        _fail("config", "a JSON object", cfg)
    c = _merge(_DEFAULTS, cfg)

    _check_int("seed", c["seed"], lo=0)
    if c["out_dir"] is not None and not isinstance(c["out_dir"], str):
        _fail("out_dir", "a string or null", c["out_dir"])

    p = c["plant"]
    _check_choice("plant.kind", p["kind"], {"microactuator"})
    for key in ("m", "b", "k", "r", "x1_star", "c0"):
        p[key] = _check_number(f"plant.{key}", p[key], lo=0.0, strict_lo=key != "b")
    _check_bool("plant.electrical_half", p["electrical_half"])

    d = c["dataset"]
    d["x0"] = _check_vector("dataset.x0", d["x0"], length=3)
    d["t_span"] = _check_span("dataset.t_span", d["t_span"])
    _check_int("dataset.n_samples", d["n_samples"], lo=2)
    d["noise_var"] = _check_number("dataset.noise_var", d["noise_var"], lo=0.0)
    _check_choice("dataset.input.kind", d["input"]["kind"], {"zero", "sin"})
    d["input"]["amplitude"] = _check_number("dataset.input.amplitude", d["input"]["amplitude"])
    d["input"]["frequency"] = _check_number("dataset.input.frequency", d["input"]["frequency"])
    d["rtol"] = _check_number("dataset.rtol", d["rtol"], lo=0.0, strict_lo=True)
    d["atol"] = _check_number("dataset.atol", d["atol"], lo=0.0, strict_lo=True)

    f = c["filter"]
    _check_int("filter.window", f["window"], lo=3)
    _check_int("filter.poly_order", f["poly_order"], lo=1)
    if f["window"] % 2 == 0:
        raise ConfigError("filter.window: must be odd")
    if f["window"] < f["poly_order"] + 2:
        raise ConfigError("filter.window: must be at least poly_order + 2")

    t = c["train"]
    _check_int("train.restarts", t["restarts"], lo=1)
    _check_int("train.max_iter", t["max_iter"], lo=1)
    t["gtol"] = _check_number("train.gtol", t["gtol"], lo=0.0, strict_lo=True)
    t["perturb_scale"] = _check_number("train.perturb_scale", t["perturb_scale"], lo=0.0)
    t["jitter"] = _check_number("train.jitter", t["jitter"], lo=0.0)
    t["max_jitter"] = _check_number("train.max_jitter", t["max_jitter"], lo=0.0)
    if t["jitter"] > t["max_jitter"]:
        raise ConfigError("train.jitter: must be at most train.max_jitter")
    cal = t["calibration"]
    cal["x0_offset"] = _check_vector("train.calibration.x0_offset", cal["x0_offset"], length=3)
    _check_int("train.calibration.n_samples", cal["n_samples"], lo=2)
    _check_bool("train.perfect_model", t["perfect_model"])

    de = c["desired"]
    de["r_d_inv"] = _check_number("desired.r_d_inv", de["r_d_inv"], lo=0.0, strict_lo=True)

    pl = c["plan"]
    pl["t_span"] = _check_span("plan.t_span", pl["t_span"])
    pl["grid_step"] = _check_number("plan.grid_step", pl["grid_step"], lo=0.0, strict_lo=True)
    pl["seed_tail"] = _check_vector("plan.seed_tail", pl["seed_tail"], length=2)
    ref = pl["reference"]
    _check_choice("plan.reference.kind", ref["kind"], {"drifting-sine", "constant"})
    for key in ("offset", "slope", "amplitude", "frequency"):
        ref[key] = _check_number(f"plan.reference.{key}", ref[key])

    v = c["verify"]
    v["max_radius"] = _check_number("verify.max_radius", v["max_radius"], lo=0.0, strict_lo=True)
    _check_int("verify.n_radii", v["n_radii"], lo=2)
    _check_int("verify.n_dirs", v["n_dirs"], lo=1)
    _check_int("verify.n_times", v["n_times"], lo=1)
    _check_int("verify.bisect_iters", v["bisect_iters"], lo=0)

    cl = c["closed_loop"]
    cl["x0_offset"] = _check_vector("closed_loop.x0_offset", cl["x0_offset"], length=3)
    _check_int("closed_loop.n_samples", cl["n_samples"], lo=2)
    cl["rtol"] = _check_number("closed_loop.rtol", cl["rtol"], lo=0.0, strict_lo=True)
    cl["atol"] = _check_number("closed_loop.atol", cl["atol"], lo=0.0, strict_lo=True)
    cl["hd_increase_tol"] = _check_number(
        "closed_loop.hd_increase_tol", cl["hd_increase_tol"], lo=0.0
    )

    return c


def load_config(path) -> dict:
    try:
        return validate_config(read_json(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def save_config(cfg: dict, path) -> None:
    write_json(path, cfg)


def apply_overrides(cfg: dict, items) -> dict:
    """Apply ``key.path=value`` overrides (values parsed as JSON, falling back
    to bare strings) and re-validate."""
    out = copy.deepcopy(cfg)
    for item in items:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key.path=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"override {item!r}: unknown section {part!r}")
            node = node[part]
        if not isinstance(node, dict) or parts[-1] not in node:
            raise ConfigError(f"override {item!r}: unknown key {parts[-1]!r}")
        node[parts[-1]] = value
    return validate_config(out)


def resolve_out_dir(cfg: dict, cli_out=None) -> str:
    """Output directory precedence: CLI flag, config, PHS_LAB_OUT, ./runs."""
    for cand in (cli_out, cfg.get("out_dir"), os.environ.get("PHS_LAB_OUT")):
        if cand:
            return str(cand)
    return "runs"
