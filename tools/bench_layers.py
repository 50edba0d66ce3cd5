"""Time the north-star layers of the production study on production shapes.

Run from the root of a checkout:

    python3 tools/bench_layers.py --run-dir runs/seed42 [--repeats 7]

``--run-dir`` holds a production run (`phs-lab pipeline --seed 42`).  When it
lacks the artifacts the layers read (model.json, filtered.csv, hd_check.json,
plan.csv), the stages up to plan are run into it first, with the default
config at seed 42.  The run's ``config.json`` is validated again, so a run
directory written before the config schema dropped its single-valued keys
(``train.risk_p``, ``plan.mode``, ``verify.chunk`` and the others) fails
with an unknown-key error and has to be regenerated into an empty directory.
The process holds OpenBLAS to one thread, and each layer reports the median
and the minimum of ``--repeats`` timed calls after one untimed warm-up call:

- ``nlml_grad_n300``: NLML plus gradient on the training set at the trained
  hyperparameters;
- ``mean_q261``: the posterior drift mean on the plan grid;
- ``mean_var_q2014``: drift mean plus variance at 2014 states drawn
  uniformly in the training-data box (seeded), the size of one verify shell;
- ``controller_q1``: one call of the closed-loop controller at a state off
  the reference;
- ``best_fit_residual_jacobian``: one residual plus one banded Jacobian of
  the best-fit plan problem at the plan's solved tail.

The last line of standard output is one JSON object.
"""

import os

# set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from phs_lab import control, pipeline  # noqa: E402
from phs_lab.config import validate_config  # noqa: E402
from phs_lab.gp import negative_log_marginal_likelihood  # noqa: E402

NEEDED = ("config.json", "model.json", "filtered.csv", "hd_check.json", "plan.csv")
N_SHELL = 2014
SHELL_SEED = 0
PRODUCTION_SEED = 42


def ensure_run(run_dir):
    if all(os.path.exists(os.path.join(run_dir, name)) for name in NEEDED):
        return
    cfg = validate_config({"seed": PRODUCTION_SEED})
    pipeline.run_pipeline(cfg, run_dir, stages=["generate", "filter", "train", "desired", "plan"])


def time_calls(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {"median_s": statistics.median(times), "min_s": min(times)}


def layers(run_dir):
    """The layer name -> (shape note, zero-argument call) table for one run directory."""
    with open(os.path.join(run_dir, "config.json")) as fh:
        cfg = validate_config(json.load(fh))
    model = pipeline.load_model_artifact(cfg, run_dir)
    dataset = pipeline.filtered_from_csv(os.path.join(run_dir, "filtered.csv"))
    plan = control.plan_from_csv(os.path.join(run_dir, "plan.csv"))
    with open(os.path.join(run_dir, "hd_check.json")) as fh:
        hd_check = json.load(fh)
    jd, rd = control.microactuator_desired_matrices(hd_check["b_hat"], hd_check["r_d_inv"])
    desired = control.make_desired_dynamics(model, jd, rd, center=np.asarray(hd_check["center"]))

    n = model.dim_state
    lo, hi = dataset.states.min(axis=1), dataset.states.max(axis=1)
    rng = np.random.default_rng(SHELL_SEED)
    shell = lo[:, None] + (hi - lo)[:, None] * rng.uniform(size=(n, N_SHELL))

    controller = pipeline.build_controller(cfg, model, desired, plan)
    t_mid = float(plan.times[plan.times.size // 2])
    x_off = plan.x_d(t_mid) + np.asarray(cfg["closed_loop"]["x0_offset"])

    reference = pipeline.build_reference(cfg["plan"]["reference"])
    prim = np.array([reference(t) for t in plan.times], dtype=float)
    g0 = desired.hd_error_grad_batch(np.zeros((n, 1)))[:, 0]
    shaped0 = (desired.jd - desired.rd) @ g0
    residual, jacobian = control._best_fit_problem(
        model, prim[:, 0], prim[:, 1], shaped0, plan.xd[0], cfg["plan"]["grid_step"]
    )
    tail = plan.xd[:, 1:].ravel()

    return {
        "nlml_grad_n300": (f"N = {dataset.n_points}", lambda: negative_log_marginal_likelihood(dataset, model.hyper)),
        "mean_q261": (f"Q = {plan.times.size}", lambda: model.drift_mean(plan.xd.T)),
        "mean_var_q2014": (f"Q = {N_SHELL}", lambda: model.drift(shell)),
        "controller_q1": ("Q = 1", lambda: controller(x_off, t_mid)),
        "best_fit_residual_jacobian": (
            f"{plan.times.size} grid points x {n - 1} unknowns",
            lambda: (residual(tail), jacobian(tail)),
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-dir", required=True, help="production run directory (filled in when empty)")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per layer (default 7)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    ensure_run(args.run_dir)
    out = {"blas_threads": 1, "repeats": args.repeats, "layers": {}}
    for name, (shape, fn) in layers(args.run_dir).items():
        out["layers"][name] = dict(shape=shape, **time_calls(fn, args.repeats))
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
