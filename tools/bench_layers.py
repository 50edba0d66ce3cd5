"""Time the north-star layers of the production study on production shapes.

Run from the root of a checkout:

    python3 tools/bench_layers.py --run-dir runs/seed42 [--repeats 7]

``--run-dir`` holds a production run (`phs-lab pipeline --seed 42`).  When it
lacks the artifacts the layers read (model.json, filtered.csv, hd_check.json,
plan.csv), the stages up to plan are run into it first, with the default
config at seed 42.  The run's ``config.json`` is validated again, so a run
directory written before the config schema dropped its single-valued keys
(``train.risk_p``, ``plan.mode``, ``verify.chunk`` and the others, and
later ``plant.kind``, ``dataset.rtol``, ``dataset.atol``, ``train.gtol``,
``train.perturb_scale``, ``verify.bisect_iters``, ``closed_loop.rtol`` and
``closed_loop.atol``) fails with an unknown-key error and has to be
regenerated into an empty directory.
Importing the package sets both OpenBLAS libraries to one thread, as every
call of it runs, and every layer runs on the calling thread, as each
pipeline stage does.  Every layer records the OpenBLAS thread counts
(``blas_threads``) it ran with.  Each layer reports the median and the
minimum of ``--repeats`` timed calls after one untimed warm-up call:

- ``nlml_grad_n300``: NLML plus gradient on the training set at the trained
  hyperparameters, every call on one ``kernels.TrainingPairs`` of the
  training set, as ``gp.train``'s objective makes them;
- ``nlml_grad_n100``: the same on the first 100 training points, the
  training size of the perfbench ``study`` workload;
- ``invert_factor_n300``: L^-1 of the lower Cholesky factor of the
  training-set Gram (``gp._invert_factor``, the inverse ``condition`` and
  ``load_model`` take); each call first copies the factor into a held
  buffer, since the inverse overwrites it;
- ``mean_q261``: the posterior drift mean on the plan grid, read as the
  plan reads it, ``core.eval_dynamics(model.mean, x, 0)``;
- ``mean_var_q2014``: drift mean plus variance at 2014 states drawn
  uniformly in the training-data box (seeded), the size of one verify shell;
- ``envelope_q2014``: the error envelope beta * var alone at the same 2014
  states, the states of one shell around one plan time;
- ``verify_shell``: the envelope at 5 x 2014 states drawn the same way, the
  shape of the one call verify makes per scanned shell, around all 5 plan
  times at once;
- ``verify_witness``: the envelope at 25 x 14 x 5 states drawn the same
  way, the shape of verify's one call on its deterministic directions
  (25 radii, 6 signed axes and 8 corners, 5 plan times), which decides the
  production verdict (``envelope_calls`` in ``verify_report.json``);
- ``energy_q9261``: the posterior energy H_hat on the desired stage's
  gate grid (``verify.GATE_RESOLUTION`` points per axis of
  [-``verify.GATE_BOUND``, ``verify.GATE_BOUND``], 21^3, shifted to the
  centre in ``hd_check.json``), the one call the energy-minimum gate makes;
- ``controller_q1``: one call of the closed-loop controller at a state off
  the reference;
- ``dynamics_q1``: one ``model.dynamics`` call (mean plus variance at one
  state, with an input) at the same state, the query shape of the
  learning-curve study;
- ``best_fit_residual_jacobian``: one residual plus one Jacobian of the
  plan fit at the plan's solved tail.

The two NLML rows also report ``minor_faults_per_call``, the minor page
faults of the process (``ru_minflt``) over ``--repeats`` more calls,
divided by their number, and ``peak_traced_mb``, the peak of the memory
allocated through Python (tracemalloc) during one more call.  Both follow
the warm-up call, which allocates the training set's likelihood workspace,
so they count what every later call of a fit allocates and touches anew.
The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from phs_lab import control, pipeline, verify  # noqa: E402
from phs_lab.config import validate_config  # noqa: E402
from phs_lab.core import eval_dynamics  # noqa: E402
from phs_lab.filtering import FilteredDataset  # noqa: E402
from phs_lab.gp import _invert_factor, load_model, negative_log_marginal_likelihood  # noqa: E402
from phs_lab.kernels import TrainingPairs, blas_thread_counts, factorize_gram  # noqa: E402

NEEDED = ("config.json", "model.json", "filtered.csv", "hd_check.json", "plan.csv")
N_STUDY = 100
TRACED_LAYERS = ("nlml_grad_n300", "nlml_grad_n100")
N_SHELL = 2014
# plan times per verify shell and radii in the default config
# (verify.n_times, verify.n_radii), and verify's deterministic directions
# of a 3-state loop
N_TIMES = 5
N_RADII = 25
N_WITNESS = 14
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


def minor_faults_per_call(fn, repeats):
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / repeats


def peak_traced_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def layers(run_dir):
    """The layer name -> (shape note, zero-argument call) table for one run directory."""
    with open(os.path.join(run_dir, "config.json")) as fh:
        cfg = validate_config(json.load(fh))
    # the layers below the control code need the GP itself; the control code
    # reads its mean as a core.PhsModel, as the pipeline's stages do
    model = load_model(os.path.join(run_dir, "model.json"))
    mean = model.mean
    dataset = pipeline.filtered_from_csv(os.path.join(run_dir, "filtered.csv"))
    first = FilteredDataset(
        states=dataset.states[:, :N_STUDY],
        derivatives=dataset.derivatives[:, :N_STUDY],
        inputs=dataset.inputs[:, :N_STUDY],
        times=dataset.times[:N_STUDY],
    )
    pairs_all, pairs_first = TrainingPairs(dataset.states), TrainingPairs(first.states)
    factor_pairs = TrainingPairs(dataset.states)
    (factor, _), _ = factorize_gram(
        lambda: factor_pairs.gram(model.hyper, factor_pairs.terms(model.hyper)), jitter=model.jitter_used
    )
    factor_copy = np.empty_like(factor, order="F")

    def invert_factor():
        np.copyto(factor_copy, factor)
        return _invert_factor(factor_copy)

    plan = control.plan_from_csv(os.path.join(run_dir, "plan.csv"))
    desired = pipeline.load_desired(run_dir, mean)

    n, n_input = model.dim_state, model.dim_input
    lo, hi = dataset.states.min(axis=1), dataset.states.max(axis=1)
    rng = np.random.default_rng(SHELL_SEED)
    shell = lo[:, None] + (hi - lo)[:, None] * rng.uniform(size=(n, N_SHELL))
    merged = lo[:, None] + (hi - lo)[:, None] * rng.uniform(size=(n, N_TIMES * N_SHELL))
    witness = lo[:, None] + (hi - lo)[:, None] * rng.uniform(size=(n, N_RADII * N_WITNESS * N_TIMES))

    axes = [np.linspace(-verify.GATE_BOUND, verify.GATE_BOUND, verify.GATE_RESOLUTION)] * n
    gate_grid = desired.center[:, None] + np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])

    controller = pipeline.build_controller(mean, desired, plan)
    t_mid = float(plan.times[plan.times.size // 2])
    x_off = plan.x_d(t_mid) + np.asarray(cfg["closed_loop"]["x0_offset"])

    reference = pipeline.build_reference(cfg["plan"]["reference"])
    prim = np.array([reference(t) for t in plan.times], dtype=float)
    shaped0 = (desired.j - desired.r) @ desired.hamiltonian_gradient(np.zeros(n))
    residual, jacobian = control._best_fit_problem(mean, plan.times, prim[:, 0], prim[:, 1], shaped0)
    tail = plan.xd[:, 1:].ravel()

    return {
        "nlml_grad_n300": (
            f"N = {dataset.n_points}",
            lambda: negative_log_marginal_likelihood(dataset, model.hyper, pairs=pairs_all),
        ),
        "nlml_grad_n100": (
            f"N = {first.n_points}",
            lambda: negative_log_marginal_likelihood(first, model.hyper, pairs=pairs_first),
        ),
        "invert_factor_n300": (f"{factor.shape[0]} x {factor.shape[1]}", invert_factor),
        "mean_q261": (f"Q = {plan.times.size}", lambda: eval_dynamics(mean, plan.xd.T, np.zeros(n_input))),
        "mean_var_q2014": (f"Q = {N_SHELL}", lambda: model.drift(shell)),
        "envelope_q2014": (f"Q = {N_SHELL}", lambda: model.envelope(shell)),
        "verify_shell": (f"Q = {N_TIMES} x {N_SHELL}", lambda: model.envelope(merged)),
        "verify_witness": (f"Q = {N_RADII} x {N_WITNESS} x {N_TIMES}", lambda: model.envelope(witness)),
        "energy_q9261": (f"Q = {gate_grid.shape[1]}", lambda: model.hamiltonian(gate_grid)),
        "controller_q1": ("Q = 1", lambda: controller(x_off, t_mid)),
        "dynamics_q1": ("Q = 1", lambda: model.dynamics(x_off, np.zeros(n_input))),
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
    out = {"repeats": args.repeats, "layers": {}}
    for name, (shape, fn) in layers(args.run_dir).items():
        out["layers"][name] = dict(shape=shape, blas_threads=blas_thread_counts(), **time_calls(fn, args.repeats))
        if name in TRACED_LAYERS:
            out["layers"][name]["minor_faults_per_call"] = minor_faults_per_call(fn, args.repeats)
            out["layers"][name]["peak_traced_mb"] = peak_traced_mb(fn)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
