"""tools/compare_runs.py on two small run directories."""

import importlib.util
import json
import os

import pytest

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "compare_runs.py")


@pytest.fixture(scope="module")
def compare_runs():
    spec = importlib.util.spec_from_file_location("compare_runs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, name, text):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, beta, column, label, timing in (
        (parent, [2.0, -4.0], "1.0,0.5", "gp", 1.0),
        (change, [2.0, -4.0 + 4e-6], "1.0,0.4", "perfect", 9.0),
    ):
        _write(root, "plan.csv", "t,x1\n0,1\n1,2\n")
        _write(root, "figures/input.csv", f"t,u\n0,0\n{column}\n")
        _write(root, "model.json", json.dumps({"beta": beta, "hyper": {"sf": 1.5, "kind": label}}))
        _write(root, "timings.json", json.dumps({"train": timing}))
    # the same values, laid out differently
    _write(parent, "config.json", json.dumps({"seed": 42, "plan": {"grid_step": 0.05}}, indent=2))
    _write(change, "config.json", json.dumps({"plan": {"grid_step": 0.05}, "seed": 42}, indent=1))
    _write(parent, "verify_summary.txt", "ok\n")
    _write(change, "verify_summary.txt", "not ok\n")
    _write(change, "extra.json", "{}")
    return str(parent), str(change)


def test_compare_runs_reports_identical_and_largest_differences(compare_runs, tmp_path):
    parent, change = _runs(tmp_path)
    out = compare_runs.compare(parent, change)
    assert out["byte_identical"] == ["plan.csv"]
    # bytes differ, parsed values do not: listed by name, not as an empty difference
    assert out["value_identical"] == ["config.json"]
    assert out["only_in_parent"] == []
    assert out["only_in_change"] == ["extra.json"]
    diff = out["largest_difference"]
    # timings.json is wall clock and never compared
    assert sorted(diff) == ["figures/input.csv", "model.json", "verify_summary.txt"]
    # |change - parent| = 4e-6 over the largest |parent| = 4 in the pooled list
    assert diff["model.json"] == {"beta[]": pytest.approx(1e-6), "hyper.kind": "non-numeric value changed"}
    # only the changed column: 0.1 over the column's largest |parent| 0.5
    assert diff["figures/input.csv"] == {"u": pytest.approx(0.2)}
    assert diff["verify_summary.txt"] == "bytes differ"


def test_compare_runs_prints_json(compare_runs, tmp_path, capsys):
    parent, change = _runs(tmp_path)
    assert compare_runs.main([parent, change]) == 0
    assert json.loads(capsys.readouterr().out) == compare_runs.compare(parent, change)
