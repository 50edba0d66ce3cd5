"""Spans around calls into the program, recorded from outside it.

``Tracer.install`` replaces each traced name where the program looks it up
(a module attribute or a class attribute) with a wrapper that records a
span, and ``uninstall`` puts the originals back.  A span's self time is its
duration minus the time its child spans cover.  Spans stay in memory; the
benchmark reads them out as per-layer metrics when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# phs_lab.pipeline.STAGE_ORDER, written out because BENCHMARK.json lists the
# metric names without importing the program
PIPELINE_STAGES = ("generate", "filter", "train", "desired", "plan", "verify", "closed_loop", "metrics")

# span name -> counters it reports besides calls, s and self_s
SPAN_COUNTS = {
    "kernels.phs_cross": ("pairs",),
    "kernels.pi_tensor": (),
    "kernels.factorize_gram": (),
    "structure.jr_stack": ("columns",),
    "gp.drift_mean": ("columns",),
    "gp.drift": ("columns",),
    "gp.hamiltonian_grad": ("columns",),
    "gp.envelope": (),
    "gp.nlml": (),
    "gp.train": ("restarts", "nit", "nfev"),
    "gp.load_model": (),
    "control.least_squares": ("nfev", "njev"),
    "control.solve_ivp": ("nfev",),
    "control.controller": (),
}
LATENCY_SPANS = ("control.controller",)


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = {}
    for span, counts in SPAN_COUNTS.items():
        names[f"{span}.calls"] = "count"
        for c in counts:
            names[f"{span}.{c}"] = "count"
        names[f"{span}.s"] = "s"
        names[f"{span}.self_s"] = "s"
        if span in LATENCY_SPANS:
            names[f"{span}.p50_us"] = "us"
            names[f"{span}.p99_us"] = "us"
    for stage in PIPELINE_STAGES:
        names[f"pipeline.{stage}.s"] = "s"
        names[f"pipeline.{stage}.self_s"] = "s"
    names["pipeline.artifact_bytes"] = "bytes"
    return names


@contextmanager
def installed(tracer, phs):
    """Trace the program for the duration of the block; a no-op when tracer is None."""
    if tracer is None:
        yield
        return
    tracer.install(phs)
    try:
        yield
    finally:
        tracer.uninstall()


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.durations = defaultdict(list)
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name):
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
            self.calls[name] += 1
            self.seconds[name] += dur
            self.self_seconds[name] += dur - child
            if name in LATENCY_SPANS:
                self.durations[name].append(dur)

    def count(self, name, key, value):
        self.counts[f"{name}.{key}"] += value

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))

    def install(self, phs):
        """Wrap the traced names of the freshly imported package ``phs``."""
        gp_cls = phs.gp.GpPhsModel

        def columns(name):
            # args are (model, xq); xq holds dim_state values per query state
            return lambda args, out: self.count(name, "columns", np.size(args[1]) // args[0].dim_state)

        def pairs(args, out):
            self.count("kernels.phs_cross", "pairs", np.shape(args[0])[1] * np.shape(args[1])[1])

        def restart(args, res):
            self.count("gp.train", "restarts", 1)
            self.count("gp.train", "nit", res.nit)
            self.count("gp.train", "nfev", res.nfev)

        def lsq(args, res):
            self.count("control.least_squares", "nfev", res.nfev)
            self.count("control.least_squares", "njev", res.njev or 0)

        def ivp(args, res):
            self.count("control.solve_ivp", "nfev", res.nfev)

        self._patch(phs.backend, "phs_cross", "kernels.phs_cross", pairs)
        self._patch(phs.backend, "pi_tensor", "kernels.pi_tensor")
        self._patch(phs.gp, "factorize_gram", "kernels.factorize_gram")
        self._patch(
            phs.structure.StructureEstimate,
            "jr_stack",
            "structure.jr_stack",
            lambda args, out: self.count("structure.jr_stack", "columns", out.shape[0]),
        )
        for method in ("drift_mean", "drift", "hamiltonian_grad"):
            self._patch(gp_cls, method, f"gp.{method}", columns(f"gp.{method}"))
        self._patch(gp_cls, "envelope", "gp.envelope")
        self._patch(phs.gp, "negative_log_marginal_likelihood", "gp.nlml")
        self._patch(phs.gp, "train", "gp.train")
        self._patch(phs.gp, "minimize", "gp.minimize", restart)
        self._patch(phs.gp, "load_model", "gp.load_model")
        self._patch(phs.control, "least_squares", "control.least_squares", lsq)
        self._patch(phs.control, "solve_ivp", "control.solve_ivp", ivp)

        build = phs.pipeline.build_controller
        self._undo.append((phs.pipeline, "build_controller", build))

        def build_traced(*args, **kwargs):
            return self._wrap("control.controller", build(*args, **kwargs))

        phs.pipeline.build_controller = build_traced

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, rounds, artifact_bytes):
        """Per-round averages of every span and counter; latency percentiles over all calls."""
        out = {}
        for name, unit in metric_names().items():
            span, _, key = name.rpartition(".")
            if key == "calls":
                value = self.calls[span] / rounds
            elif key == "s":
                value = self.seconds[span] / rounds
            elif key == "self_s":
                value = self.self_seconds[span] / rounds
            elif key in ("p50_us", "p99_us"):
                d = self.durations[span]
                value = float(np.percentile(d, 50 if key == "p50_us" else 99)) * 1e6 if d else 0.0
            elif name == "pipeline.artifact_bytes":
                value = artifact_bytes
            else:
                value = self.counts[name] / rounds
            out[name] = {"value": float(value), "unit": unit}
        return out
