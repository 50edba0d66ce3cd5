"""The run-file module: one table format, one JSON format, atomic writes."""

import json
import os

import numpy as np
import pytest

from phs_lab import artifacts
from phs_lab.artifacts import read_json, read_table, write_json, write_table, write_text


def test_table_round_trip_names_blocks_and_columns(tmp_path):
    path = tmp_path / "t.csv"
    x = np.arange(6.0).reshape(3, 2) / 3.0
    write_table(path, t=[0.0, 1.0, 2.0], x=x, xdot=-x, xd=2 * x, xddot=3 * x)
    assert path.read_text().splitlines()[0] == "t,x1,x2,xdot1,xdot2,xd1,xd2,xddot1,xddot2"
    table = read_table(path)
    np.testing.assert_array_equal(table["t"], [0.0, 1.0, 2.0])
    # a prefix matches prefix<digits> only: x never picks up xdot, xd never xddot
    np.testing.assert_array_equal(table.group("x"), x)
    np.testing.assert_array_equal(table.group("xdot"), -x)
    np.testing.assert_array_equal(table.group("xd"), 2 * x)
    np.testing.assert_array_equal(table.group("xddot"), 3 * x)
    assert table.group("y") is None


def test_table_keeps_17_significant_digits(tmp_path):
    path = tmp_path / "t.csv"
    values = np.array([1.0 / 3.0, np.pi * 1e-300, -123456789.123456789])
    write_table(path, v=values)
    assert path.read_text() == "v\n" + "".join(f"{v:.17g}\n" for v in values)
    np.testing.assert_array_equal(read_table(path)["v"], values)


@pytest.mark.parametrize("rows", ["0,1\n1,2\n", "0,1,2\n1,2\n", "0,1,2\n1,2,x\n"])
def test_read_table_rejects_malformed_rows(tmp_path, rows):
    # rows narrower than the header, a truncated last row, an unparsable entry
    path = tmp_path / "ragged.csv"
    path.write_text("t,x1,x2\n" + rows)
    with pytest.raises(ValueError, match="ragged.csv: "):
        read_table(path)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_read_table_rejects_non_finite_values(tmp_path, entry):
    path = tmp_path / "plan.csv"
    path.write_text(f"t,x1\n0,1\n1,{entry}\n")
    with pytest.raises(ValueError, match="plan.csv: non-finite"):
        read_table(path)


@pytest.mark.parametrize("read", [read_table, read_json])
def test_readers_name_a_missing_file(tmp_path, read):
    with pytest.raises(FileNotFoundError, match="missing upstream artifact: .*absent"):
        read(tmp_path / "absent")


def test_json_layout_is_indent_1_sorted(tmp_path):
    path = tmp_path / "a.json"
    value = {"b": [1.5, 2], "a": {"z": None, "y": True}}
    write_json(path, value)
    assert path.read_text() == json.dumps(value, indent=1, sort_keys=True)
    assert read_json(path) == value


def test_writers_create_the_target_directory(tmp_path):
    path = tmp_path / "figures" / "s.txt"
    write_text(path, "ok\n")
    assert path.read_text() == "ok\n"


class _Unserializable:
    pass


def test_failed_json_write_keeps_previous_file(tmp_path):
    path = tmp_path / "metrics.json"
    write_json(path, {"run": 1})
    before = path.read_bytes()
    # json.dump streams: "a" is written to the temporary file before "b" raises
    with pytest.raises(TypeError):
        write_json(path, {"a": list(range(100)), "b": _Unserializable()})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["metrics.json"]


def test_failed_table_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "plan.csv"
    write_table(path, t=[0.0, 1.0])
    before = path.read_bytes()

    def savetxt_then_fail(fh, *args, **kwargs):
        fh.write("t\n0\n")
        raise OSError("disk full")

    monkeypatch.setattr(artifacts.np, "savetxt", savetxt_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write_table(path, t=[5.0, 6.0])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["plan.csv"]
