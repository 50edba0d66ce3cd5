"""Compare the artifacts of two run directories, file by file.

Run from anywhere:

    python3 tools/compare_runs.py PARENT CHANGE

PARENT and CHANGE are output directories of `phs-lab pipeline` (or of any
subset of its stages).  ``timings.json`` holds wall-clock times and is
skipped.  Standard output is one JSON object:

- ``byte_identical``: the files whose bytes are the same in both directories;
- ``value_identical``: the JSON and CSV files whose bytes differ but whose
  parsed values are all equal, such as a change of key order or indentation;
- ``largest_difference``: for every other file present in both, the largest
  |change - parent| over the largest |parent|, per JSON key and per CSV
  column.  A JSON key is its dotted path, and every entry of a list (nested
  lists too) is pooled under the key with ``[]`` appended.  Keys and columns
  with equal values are left out; a non-numeric value that changed, a key
  in one file only or a change of length is reported as text, and so is a
  file that is neither JSON nor numeric CSV;
- ``only_in_parent`` and ``only_in_change``: files that one directory lacks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

SKIPPED = ("timings.json",)


def _files(root):
    out = set()
    for base, _, names in os.walk(root):
        for name in names:
            out.add(os.path.relpath(os.path.join(base, name), root).replace(os.sep, "/"))
    return out - set(SKIPPED)


def _json_leaves(value, key, out):
    """Pool the leaves of a JSON value under their dotted keys, list entries under key[]."""
    if isinstance(value, dict):
        for k, v in value.items():
            _json_leaves(v, f"{key}.{k}" if key else str(k), out)
    elif isinstance(value, list):
        for v in value:
            _json_leaves(v, key if key.endswith("[]") else key + "[]", out)
    else:
        out.setdefault(key, []).append(value)
    return out


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def relative_gap(parent, change):
    """Largest |change - parent| over the largest |parent| of two equal-length value lists.

    Returns None when the values are equal, a float for numbers and a string
    otherwise.
    """
    if len(parent) != len(change):
        return f"length {len(parent)} -> {len(change)}"
    if parent == change:
        return None
    if not all(_is_number(v) for v in parent + change):
        return "non-numeric value changed"
    a = np.asarray(parent, dtype=float)
    b = np.asarray(change, dtype=float)
    if np.array_equal(a, b, equal_nan=True):
        return None
    gap = float(np.max(np.abs(b - a)))
    scale = float(np.max(np.abs(a)))
    if not np.isfinite(gap):
        return "non-finite value changed"
    if scale == 0.0:
        return f"{gap:.3g} where every parent value is 0"
    return float(f"{gap / scale:.3g}")


def _compare_json(parent, change):
    a, b = _json_leaves(parent, "", {}), _json_leaves(change, "", {})
    out = {}
    for key in sorted(set(a) | set(b)):
        if key not in b:
            out[key] = "only in parent"
        elif key not in a:
            out[key] = "only in change"
        else:
            gap = relative_gap(a[key], b[key])
            if gap is not None:
                out[key] = gap
    return out


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError("header and rows differ in width")
    return header, data


def _compare_csv(parent_path, change_path):
    ha, a = _read_csv(parent_path)
    hb, b = _read_csv(change_path)
    if ha != hb:
        return "columns differ"
    if a.shape != b.shape:
        return f"rows {a.shape[0]} -> {b.shape[0]}"
    out = {}
    for j, name in enumerate(ha):
        gap = relative_gap(a[:, j].tolist(), b[:, j].tolist())
        if gap is not None:
            out[name] = gap
    return out


def compare_file(parent_path, change_path):
    """The largest relative difference per key or column of one file pair."""
    if parent_path.endswith(".json"):
        try:
            with open(parent_path) as fa, open(change_path) as fb:
                return _compare_json(json.load(fa), json.load(fb))
        except ValueError:
            return "not valid JSON"
    if parent_path.endswith(".csv"):
        try:
            return _compare_csv(parent_path, change_path)
        except ValueError:
            return "not a numeric CSV"
    return "bytes differ"


def compare(parent, change):
    """The comparison of two run directories as one JSON-ready dict."""
    a, b = _files(parent), _files(change)
    identical, equal_values, differing = [], [], {}
    for name in sorted(a & b):
        pa, pb = os.path.join(parent, name), os.path.join(change, name)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            same = fa.read() == fb.read()
        if same:
            identical.append(name)
        elif (gap := compare_file(pa, pb)) == {}:
            equal_values.append(name)
        else:
            differing[name] = gap
    return {
        "parent": parent,
        "change": change,
        "skipped": list(SKIPPED),
        "byte_identical": identical,
        "value_identical": equal_values,
        "largest_difference": differing,
        "only_in_parent": sorted(a - b),
        "only_in_change": sorted(b - a),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="run directory of the parent tree")
    parser.add_argument("change", help="run directory of the changed tree")
    args = parser.parse_args(argv)
    for path in (args.parent, args.change):
        if not os.path.isdir(path):
            parser.error(f"not a directory: {path}")
    print(json.dumps(compare(args.parent, args.change), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
