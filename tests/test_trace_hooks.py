"""The benchmark tracer's hooks: every name it wraps in the program exists.

`perfbench/spans.py` patches module and class attributes of phs_lab by name,
and only the traced benchmark run exercises it.  This test installs the
tracer on a fresh import of the package, as the benchmark runner does, so a
renamed or deleted hook fails here instead.
"""

import importlib
import importlib.util
import os
import pkgutil
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _program_modules():
    return [name for name in sys.modules if name == "phs_lab" or name.startswith("phs_lab.")]


def _import_program():
    """Every module of phs_lab, imported afresh, as attributes of one namespace."""
    package = importlib.import_module("phs_lab")
    names = [info.name for info in pkgutil.iter_modules(package.__path__)]
    return SimpleNamespace(**{name: importlib.import_module(f"phs_lab.{name}") for name in names})


def test_tracer_hooks_resolve_and_uninstall():
    spans = _load_spans()
    # the rest of the suite keeps the modules it imported
    saved = {name: sys.modules.pop(name) for name in _program_modules()}
    try:
        phs = _import_program()
        tracer = spans.Tracer()
        tracer.install(phs)  # AttributeError here names a hook that no longer exists
        hooks = list(tracer._undo)
        try:
            assert hooks
            for owner, attr, original in hooks:
                current = getattr(owner, attr)
                assert current is not original, f"{attr} was not wrapped"
                assert getattr(current, "__wrapped__", original) is original
        finally:
            tracer.uninstall()
        for owner, attr, original in hooks:
            assert getattr(owner, attr) is original, f"{attr} was not restored"
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(saved)
