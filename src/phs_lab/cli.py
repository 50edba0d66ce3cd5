"""Command-line entry point.

Subcommands map onto pipeline stages so experiments can be run end to end or
resumed piecewise from persisted artifacts:

    simulate        open-loop plant rollout (no noise), writes open_loop.csv
    generate-data   dataset generation + derivative filtering
    train           model fitting from filtered.csv
    plan            desired-dynamics gate + reference plan
    verify          dissipation-condition certificate
    control         closed-loop tracking run
    pipeline        everything, ending in metrics
    report          metrics + figure CSVs from persisted artifacts

Exit codes: 0 success, 1 stage failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import apply_overrides, default_config, load_config, resolve_out_dir
from .core import energy_balance_residual, trajectory_to_csv
from .errors import ConfigError, PhsLabError, StageError
from .pipeline import STAGE_ORDER, rollout_plant, run_pipeline

# subcommand -> (the pipeline stages it runs, None for all of them; help text)
_SUBCOMMANDS = {
    "simulate": ([], "integrate the configured plant open loop (noise-free)"),
    "generate-data": (["generate", "filter"], "generate the noisy dataset and filtered derivatives"),
    "train": (["train"], "fit the model from filtered.csv"),
    "plan": (["desired", "plan"], "gate the desired energy and solve the reference plan"),
    "verify": (["verify"], "sample the dissipation-condition certificate"),
    "control": (["closed_loop"], "run the closed-loop tracking simulation"),
    "pipeline": (None, "run every stage end to end"),
    "report": (["metrics"], "recompute metrics and figure CSVs from persisted artifacts"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phs-lab",
        description="Learn port-Hamiltonian dynamics from data and synthesize tracking controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="experiment config file (JSON); defaults used if omitted")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--out", help="output directory (default: config, then PHS_LAB_OUT, then ./runs)")
        sp.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY.PATH=VALUE",
            help="config override, repeatable (values parsed as JSON)",
        )
        sp.add_argument(
            "--check-config",
            action="store_true",
            help="validate the effective config, print it, and exit",
        )
    return parser


def _effective_config(args) -> dict:
    cfg = load_config(args.config) if args.config else default_config()
    if args.override:
        cfg = apply_overrides(cfg, args.override)
    if args.seed is not None:
        cfg = apply_overrides(cfg, [f"seed={args.seed}"])
    return cfg


def _cmd_simulate(cfg, workdir) -> int:
    plant, traj = rollout_plant(cfg, cfg["dataset"]["n_samples"])
    path = os.path.join(workdir, "open_loop.csv")
    trajectory_to_csv(traj, path)
    residual = float(np.max(energy_balance_residual(plant, traj)))
    print(f"wrote {path}")
    print(f"samples: {len(traj)}, final state: {np.array2string(traj.states[-1], precision=6)}")
    print(f"max energy-balance residual: {residual:.3e}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.check_config:
        json.dump(cfg, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    workdir = resolve_out_dir(cfg, args.out)
    stages = _SUBCOMMANDS[args.command][0]

    try:
        if args.command == "simulate":
            return _cmd_simulate(cfg, workdir)
        if args.command == "report" and not os.path.isdir(workdir):
            print(f"config error: no artifact directory at {workdir}", file=sys.stderr)
            return 2
        metrics = run_pipeline(cfg, workdir, stages=stages)
    except StageError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PhsLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ran = STAGE_ORDER if stages is None else stages
    print(f"completed stages: {', '.join(ran)} -> {workdir}")
    if metrics:
        track = metrics["tracking"]["max_abs_error"]
        lyap = metrics["lyapunov"]
        eps = metrics["verify"]["epsilon"]
        eps_text = "unbounded" if metrics["verify"]["unbounded"] else f"{eps:.6g}"
        print(f"max abs tracking error per state: {[f'{v:.4g}' for v in track]}")
        print(
            f"H_d: {lyap['initial']:.6g} -> {lyap['final']:.6g}, "
            f"increase events above {lyap['tol']:g}: {lyap['model_increase_events']} "
            f"model-predicted, {lyap['increase_events']} on the plant; "
            f"max |f - mu| / eta {metrics['drift_envelope']['max_ratio']:.3g}"
        )
        print(f"dissipation certificate radius: {eps_text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
