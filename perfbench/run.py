"""Benchmark of the phs-lab study: stage times end to end, layer spans when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study --seed 1 --seconds 35 --trace 0

Workloads are ``study`` (the eight-stage pipeline) and ``learning-curve``
(GP training at three data sizes).  Each run repeats whole rounds of its
workload until ``--seconds`` have passed; before each round it sets up
``SETUPS_PER_ROUND`` times, and after it checks the round's outputs.  The
last line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` count the checked operations, and ``metrics`` holds the
end-to-end metrics (medians over rounds and set-ups) with ``--trace 0`` or
the per-layer metrics (per-round means) with ``--trace 1``.  Per-round
details go to standard error.
"""

import os

# One BLAS thread keeps the process at one thread, inside the two cores of
# the reference machine, and the timings free of thread scheduling noise.
# It has to be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import learning_curve  # noqa: E402
import study  # noqa: E402
import spans  # noqa: E402

WORKLOADS = {"study": study, "learning-curve": learning_curve}
# Set-up is timed twice before every round, so that its median follows the
# same machine load as the rounds; the first import (numpy, scipy, byte
# compilation) is a warm-up and is not timed.
SETUPS_PER_ROUND = 2
PROGRAM_MODULES = ("backend", "config", "control", "errors", "filtering", "gp", "pipeline", "structure")
RUN_DIR = os.path.join(ROOT, ".perfbench_runs")


def import_program():
    """Import phs_lab afresh from the checkout's ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "phs_lab" or m.startswith("phs_lab.")]:
        del sys.modules[name]
    package = importlib.import_module("phs_lab")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"phs_lab imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"phs_lab.{m}") for m in PROGRAM_MODULES})


def set_up(workload, seed):
    """Import the program afresh and build the workload's inputs; returns (phs, inputs, seconds)."""
    start = time.perf_counter()
    phs = import_program()
    state = workload.setup(phs, seed)
    return phs, state, time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message):
    print(message, file=sys.stderr, flush=True)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        set_up(workload, args.seed)
    except ImportError as exc:
        log(f"cannot import phs_lab from {SRC}: {exc}")
        return 2
    tracer = spans.Tracer() if args.trace else None
    run_dir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    rounds = []
    setup_times = []
    failed = 0
    correct = True
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            for _ in range(SETUPS_PER_ROUND):
                phs, state, seconds = set_up(workload, args.seed)
                setup_times.append(seconds)
            workdir = os.path.join(run_dir, f"round-{len(rounds)}")
            timings, results, n_bytes = workload.measure_round(phs, state, workdir, tracer)
            shutil.rmtree(workdir, ignore_errors=True)
            rounds.append((timings, n_bytes))
            failed += sum(not ok for _, ok, _ in results)
            correct &= all(ok or name in workload.KNOWN_FAULTS for name, ok, _ in results)
            log(f"round {len(rounds) - 1}: " + (" ".join(f"{k}={v:.4f}" for k, v in timings.items()) if timings else "no timings"))
            for name, ok, detail in results:
                if not ok or len(rounds) == 1:
                    log(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(RUN_DIR) and not os.listdir(RUN_DIR):
            os.rmdir(RUN_DIR)

    timed = [t for t, _ in rounds if t is not None]
    if not timed:
        log(f"no round completed: {failed} of {len(rounds) * len(workload.CHECKS)} operations failed")
        return 1
    log("set-up times: " + " ".join(f"{t:.4f}" for t in setup_times))
    e2e = {"setup_s": statistics.median(setup_times)}
    for key in ("run_s", "train_s", "query_s"):
        e2e[key] = statistics.median(t[key] for t in timed)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log("end to end: " + " ".join(f"{k}={v:.4f}" for k, v in e2e.items()) + f" over {len(rounds)} rounds")
    units = {"setup_s": "s", "run_s": "s", "train_s": "s", "query_s": "s", "peak_rss_mb": "MB"}
    if tracer is None:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    else:
        metrics = tracer.metrics(len(rounds), rounds[-1][1])
    attempted = len(rounds) * len(workload.CHECKS)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
