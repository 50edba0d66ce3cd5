"""Run files: the one place that reads and writes them.

A table is CSV with one header line and every value at 17 significant
digits; a 2-D block ``name`` of K columns is headed ``name1..nameK``.  JSON
is written with ``indent=1, sort_keys=True``.  Writers fill a temporary file
beside the target (creating its directory) and rename it into place, so no
reader sees a partial file.  Readers name the file they reject: a missing
file, a table whose header and rows differ in width, or a non-finite value.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

__all__ = ["Table", "read_json", "read_table", "write_json", "write_table", "write_text"]


def _replace(path, write) -> None:
    """Call ``write(fh)`` on a temporary file beside ``path``, then rename it onto ``path``."""
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _open(path):
    try:
        return open(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"missing upstream artifact: {os.fspath(path)}") from None


def write_table(path, **columns) -> None:
    """One CSV table of the keyword columns, in order: 1-D values or (rows, K) blocks."""
    names = []
    for name, values in columns.items():
        width = np.shape(values)[1:]
        names += [f"{name}{i + 1}" for i in range(width[0])] if width else [name]
    data = np.column_stack(list(columns.values()))
    header = ",".join(names)
    _replace(path, lambda fh: np.savetxt(fh, data, fmt="%.17g", delimiter=",", header=header, comments=""))


class Table(dict):
    """The columns of one CSV table by header name."""

    def group(self, prefix):
        """The (rows, K) block of the columns ``prefix1..prefixK``; None if there are none."""
        names = [name for name in self if re.fullmatch(re.escape(prefix) + r"\d+", name)]
        return np.column_stack([self[name] for name in names]) if names else None


def read_table(path) -> Table:
    with _open(path) as fh:
        names = fh.readline().strip().split(",")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
            if data.shape[1] != len(names):
                raise ValueError(f"header has {len(names)} columns, rows have {data.shape[1]}")
            if not np.all(np.isfinite(data)):
                raise ValueError("non-finite value in the table")
        except ValueError as exc:
            raise ValueError(f"{os.fspath(path)}: {exc}") from None
    return Table(zip(names, data.T))


def write_json(path, value) -> None:
    _replace(path, lambda fh: json.dump(value, fh, indent=1, sort_keys=True))


def read_json(path):
    with _open(path) as fh:
        return json.load(fh)


def write_text(path, text) -> None:
    _replace(path, lambda fh: fh.write(text))
