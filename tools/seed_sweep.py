"""Run the production pipeline at several config seeds and tabulate the contract.

Run from the root of a checkout:

    python3 tools/seed_sweep.py --out SEED_SWEEP.json [--workdir DIR]
    python3 tools/seed_sweep.py --table SEED_SWEEP.json

The first form runs every stage of ``run_pipeline`` with the default config
at seeds 42 and 1-10, each seed into ``DIR/seed<N>``, or into a temporary
directory when ``--workdir`` is not given.  It then reads back only the
run's artifacts (``metrics.json``, ``plan_summary.json``, ``plan.csv``,
``closedloop.csv``, ``verify_report.json`` and ``timings.json``) and writes
one JSON object, ``{"seeds": {"<seed>": row}}``.  A row holds:

- ``criteria``: ``1a`` max |x1 - x_d1|, ``1b_i`` the model-predicted H_d
  increases above the tolerance, ``1b_ii`` max |f - mu| / eta, and
  ``plant_events`` the raw true-plant increase count;
- ``plan``: ``fit``, the exit of the solve that produced the plan,
  ``solves``, the free and the box solve's exits (None for runs that do not
  record them), ``max_matching_residual`` and ``min_xd3``;
- ``max_abs_u`` over the closed-loop samples;
- ``verify``: the verifier's ``verdict`` (``satisfied``, ``unbounded`` or
  ``bounded``, with its certificate radius ``epsilon``), whether its random
  ``scan`` ran or a witness among its deterministic directions decided, and
  the ``states_evaluated`` by its envelope calls;
- ``stage_s``: each stage's wall seconds and their ``total``.

The second form prints the JSON as one markdown table, failed checks in
bold.  Each stage runs as in a production run, whatever
OPENBLAS_NUM_THREADS says: both OpenBLAS libraries on one thread, set when
the package is imported; the 11 seeds take about a minute on two cores.
"""

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from phs_lab.artifacts import read_json, read_table, write_json  # noqa: E402
from phs_lab.config import validate_config  # noqa: E402
from phs_lab.pipeline import run_pipeline  # noqa: E402

SEEDS = (42, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
# 1a's bound, which x(0) = x_d(0) + 0.05 meets with one ulp to spare
TRACKING_BOUND = 0.05 + 1e-12


def read_row(workdir):
    """One seed's row, from the artifacts of its run alone."""
    metrics = read_json(os.path.join(workdir, "metrics.json"))
    summary = read_json(os.path.join(workdir, "plan_summary.json"))
    timings = read_json(os.path.join(workdir, "timings.json"))
    plan = read_table(os.path.join(workdir, "plan.csv"))
    loop = read_table(os.path.join(workdir, "closedloop.csv"))
    checked = read_json(os.path.join(workdir, "verify_report.json"))
    lyapunov = metrics["lyapunov"]
    return {
        "criteria": {
            "1a": metrics["tracking"]["max_abs_error"][0],
            "1b_i": lyapunov["model_increase_events"],
            "1b_ii": metrics["drift_envelope"]["max_ratio"],
            "plant_events": lyapunov["increase_events"],
        },
        "plan": {
            "fit": summary["fit"],
            "solves": summary.get("solves"),
            "max_matching_residual": summary["max_matching_residual"],
            "min_xd3": float(np.min(plan.group("xd")[:, 2])),
        },
        "max_abs_u": float(np.max(np.abs(loop.group("u")))),
        "verify": {
            "verdict": "satisfied" if checked["satisfied"] else "unbounded" if checked["unbounded"] else "bounded",
            "epsilon": checked["epsilon"],
            "scan": checked["scan"],
            "states_evaluated": checked["states_evaluated"],
        },
        "stage_s": dict(timings, total=sum(timings.values())),
    }


def sweep(root):
    rows = {}
    for seed in SEEDS:
        cfg = validate_config({"seed": seed})
        workdir = os.path.join(root, f"seed{seed}")
        run_pipeline(cfg, workdir)
        rows[str(seed)] = read_row(workdir)
        print(f"seed {seed}: {rows[str(seed)]['stage_s']['total']:.1f} s", file=sys.stderr, flush=True)
    return rows


def table(result):
    """The sweep as a markdown table; failed checks in bold."""

    def mark(text, failed):
        return f"**{text}**" if failed else text

    lines = [
        "| seed | 1a: max \\|x1 − x_d1\\| | 1b(i) events | 1b(ii) | plant events | min x_d3 | max \\|u\\| "
        "| plan fit: status, nfev | box re-solve | verify: verdict (path, states) | verify s | plan s | total s |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for seed, row in sorted(result["seeds"].items(), key=lambda item: int(item[0])):
        c, p, v = row["criteria"], row["plan"], row["verify"]
        solves = p["solves"]
        if solves is None:
            box = "n/a"
        elif solves["box"]:
            box = f"yes (free: {solves['free']['status']}, {solves['free']['nfev']})"
        else:
            box = "no"
        cells = [
            seed,
            mark(f"{c['1a']:.7g}", c["1a"] > TRACKING_BOUND),
            mark(str(c["1b_i"]), c["1b_i"] > 0),
            mark(f"{c['1b_ii']:.3f}", c["1b_ii"] > 1.0),
            str(c["plant_events"]),
            f"{p['min_xd3']:.3g}",
            f"{row['max_abs_u']:.2g}",
            f"{p['fit']['status']}, {p['fit']['nfev']}",
            box,
            f"{v['verdict']} ({'scan' if v['scan'] else 'witness'}, {v['states_evaluated']})",
            f"{row['stage_s']['verify']:.2f}",
            f"{row['stage_s']['plan']:.2f}",
            f"{row['stage_s']['total']:.1f}",
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="write the sweep JSON here")
    action.add_argument("--table", help="print the table of a sweep JSON")
    parser.add_argument("--workdir", help="keep each seed's run in WORKDIR/seed<N>")
    args = parser.parse_args(argv)

    if args.table:
        print(table(read_json(args.table)))
        return 0
    if args.workdir:
        rows = sweep(args.workdir)
    else:
        with tempfile.TemporaryDirectory() as root:
            rows = sweep(root)
    write_json(args.out, {"seeds": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
