"""Experiment configuration: one schema table, validation, dotted overrides.

Configs are plain JSON objects.  ``_SCHEMA`` is the whole schema: a nested
table whose sections are dicts and whose leaves are ``(default, check)``
pairs.  ``validate_config`` walks it once: it merges the user config over the
defaults, rejects unknown keys and non-object sections, and runs each leaf's
check with the dotted path it builds, so errors name the leaf.  Checks
normalize as they pass: integer leaves stay ints, number leaves become
floats and vectors lists of floats.  Three cross-field rules follow the
walk.  A validated config serializes and re-parses to itself, and
``default_config()`` is the validated empty config.
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


def _fail(path, expected, got):
    raise ConfigError(f"{path}: expected {expected}, got {got!r}")


def _number(lo=None, strict=False):
    def check(path, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
            _fail(path, "a finite number", value)
        if lo is not None and (value <= lo if strict else value < lo):
            _fail(path, f"a number {'>' if strict else '>='} {lo}", value)
        return float(value)

    return check


_positive = _number(0.0, strict=True)


def _int(lo):
    def check(path, value):
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, "an integer", value)
        if value < lo:
            _fail(path, f"an integer >= {lo}", value)
        return value

    return check


def _bool(path, value):
    if not isinstance(value, bool):
        _fail(path, "a boolean", value)
    return value


def _choice(*choices):
    def check(path, value):
        if value not in choices:
            _fail(path, f"one of {sorted(choices)}", value)
        return value

    return check


def _vector(length):
    def check(path, value):
        if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and np.isfinite(v) for v in value
        ):
            _fail(path, "a list of finite numbers", value)
        if len(value) != length:
            _fail(path, f"a list of length {length}", value)
        return [float(v) for v in value]

    return check


def _span(path, value):
    value = _vector(2)(path, value)
    if value[1] <= value[0]:
        _fail(path, "an increasing [start, end] pair", value)
    return value


def _out_dir(path, value):
    if value is not None and not isinstance(value, str):
        _fail(path, "a string or null", value)
    return value


_SCHEMA = {
    "seed": (42, _int(0)),
    "out_dir": (None, _out_dir),
    "plant": {
        "m": (1.0, _positive),
        "b": (0.5, _number(0.0)),
        "k": (10.0, _positive),
        "r": (1.0, _positive),
        "x1_star": (1.0, _positive),
        "c0": (1.0, _positive),
        "electrical_half": (False, _bool),
    },
    "dataset": {
        "x0": ([0.0, 0.0, 1.0], _vector(3)),
        "t_span": ([0.0, 20.0], _span),
        "n_samples": (300, _int(2)),
        "noise_var": (0.001, _number(0.0)),
        "input": {
            "kind": ("sin", _choice("zero", "sin")),
            "amplitude": (1.0, _number()),
            "frequency": (1.0, _number()),
        },
    },
    "filter": {"window": (9, _int(3)), "poly_order": (3, _int(1))},
    "train": {
        "restarts": (5, _int(1)),
        "max_iter": (500, _int(1)),
        "jitter": (1e-10, _number(0.0)),
        "max_jitter": (1e-6, _number(0.0)),
        "calibration": {"x0_offset": ([0.05, -0.05, 0.05], _vector(3)), "n_samples": (150, _int(2))},
        "perfect_model": (False, _bool),
    },
    "desired": {"r_d_inv": (10.0, _positive)},
    "plan": {
        "t_span": ([0.0, 13.0], _span),
        "grid_step": (0.05, _positive),
        "seed_tail": ([0.0, 0.3], _vector(2)),
        "reference": {
            "kind": ("drifting-sine", _choice("drifting-sine", "constant")),
            "offset": (1.0, _number()),
            "slope": (-0.01, _number()),
            "amplitude": (-0.01, _number()),
            "frequency": (0.8, _number()),
        },
    },
    "verify": {
        "max_radius": (2.0, _positive),
        "n_radii": (25, _int(2)),
        "n_dirs": (2000, _int(1)),
        "n_times": (5, _int(1)),
    },
    "closed_loop": {
        "x0_offset": ([0.05, 0.0, 0.0], _vector(3)),
        "n_samples": (1301, _int(2)),
        "hd_increase_tol": (1e-6, _number(0.0)),
    },
}


def _walk(schema, user, prefix=""):
    """Merge the section ``user`` over ``schema``: reject unknown keys and
    non-object sections, then check every leaf, given or default."""
    for key, value in user.items():
        if key not in schema:
            raise ConfigError(f"{prefix}{key}: unknown key")
        if isinstance(schema[key], dict) and not isinstance(value, dict):
            _fail(prefix + key, "a section object", value)
    out = {}
    for key, entry in schema.items():
        if isinstance(entry, dict):
            out[key] = _walk(entry, user.get(key, {}), f"{prefix}{key}.")
        else:
            default, check = entry
            out[key] = check(prefix + key, user.get(key, default))
    return out


def validate_config(cfg: dict) -> dict:
    """Merge over defaults, reject unknown keys, check every leaf. Returns the
    normalized config."""
    if not isinstance(cfg, dict):
        _fail("config", "a JSON object", cfg)
    c = _walk(_SCHEMA, cfg)
    f = c["filter"]
    if f["window"] % 2 == 0:
        raise ConfigError("filter.window: must be odd")
    if f["window"] < f["poly_order"] + 2:
        raise ConfigError("filter.window: must be at least poly_order + 2")
    if c["train"]["jitter"] > c["train"]["max_jitter"]:
        raise ConfigError("train.jitter: must be at most train.max_jitter")
    return c


def default_config() -> dict:
    return validate_config({})


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
