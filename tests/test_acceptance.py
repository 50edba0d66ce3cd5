"""Release gate: every headline claim of the package, one test per claim.

Each test prints a single PASS/FAIL line with the measured quantity so the
full gate can be audited from the pytest log.  The session fixture runs the
production experiment once; criterion 8 runs it a second time to compare
bytes, and the perfect-model and learning-sanity criteria build their own
runs.  Stated runtime budgets are asserted where the claim includes one.
"""

import json
import shutil
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from phs_lab import (
    MicroactuatorParams,
    condition,
    gram_matrix,
    make_microactuator,
    phs_kernel,
)
from phs_lab.config import default_config, validate_config
from phs_lab.control import (
    make_desired_dynamics,
    microactuator_desired_matrices,
    microactuator_tracking_control,
    plan_from_csv,
    semi_passive_control,
    solve_reference_plan,
)
from phs_lab.core import (
    eval_dynamics,
    make_mass_spring_damper,
    phs_output,
    simulate_feedback,
    trajectory_from_csv,
)
from phs_lab.filtering import FilteredDataset
from phs_lab.gp import (
    GpHyperparams,
    OptimizerConfig,
    load_model,
    negative_log_marginal_likelihood,
    train,
)
from phs_lab.pipeline import build_plant, load_desired, run_pipeline
from phs_lab.structure import MicroactuatorStructure, StructureEstimate
from phs_lab.verify import VerifySpec, verify_dissipation_condition

from conftest import micro_hypers, micro_structure, sin_input, subset, unforced
from test_gp import _dense_posterior
from test_verify import _ConstantEnvelopeModel, constant_plan, quadratic_desired

pytestmark = [pytest.mark.acceptance, pytest.mark.slow]


def report(criterion, ok, detail):
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def production_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("production")
    start = time.perf_counter()
    metrics = run_pipeline(default_config(), str(workdir))
    return workdir, metrics, time.perf_counter() - start


@pytest.fixture(scope="session")
def perfect_setup():
    plant = make_microactuator(MicroactuatorParams())
    model = plant  # the exact model: mu = f, with a zero envelope
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=10.0)
    desired = make_desired_dynamics(model, jd, rd, center=np.array([1.0, 0.0, 0.0]))
    plan = solve_reference_plan(
        model,
        desired,
        lambda t: (1.0 - 0.01 * t - 0.01 * np.sin(0.8 * t), -0.01 - 0.008 * np.cos(0.8 * t)),
        (0.0, 13.0),
        0.05,
        seed_tail=np.array([0.0, 0.3]),
    )
    return plant, model, desired, plan


def test_criterion_1a_tracking_error_bound(production_run):
    workdir, metrics, elapsed = production_run
    max_err = metrics["tracking"]["max_abs_error"][0]
    # the closed loop starts offset by exactly 0.05 in x1 and the spline
    # evaluation of x_d at t=0 carries a few ulps, so the comparison gets a
    # representation-level allowance far below any physical scale
    ok = max_err <= 0.05 + 1e-12 and elapsed <= 300.0
    report(
        "1a",
        ok,
        f"max |x1 - xd1| = {max_err:.12g} (bound 0.05), pipeline {elapsed:.0f} s (budget 300 s)",
    )


def test_criterion_1a_unperturbed_start(production_run, tmp_path):
    workdir, _, _ = production_run
    second = tmp_path / "unperturbed"
    shutil.copytree(workdir, second)
    cfg = validate_config({"closed_loop": {"x0_offset": [0.0, 0.0, 0.0]}})
    metrics = run_pipeline(cfg, str(second), stages=["closed_loop", "metrics"])
    max_err = metrics["tracking"]["max_abs_error"][0]
    report("1a-unperturbed", max_err <= 0.05, f"max |x1 - xd1| = {max_err:.4g} from x(0) = x_d(0)")


def nominal_hd_increments(mean, desired, plan, traj):
    """Per-step H_d increments that the model predicts along a closed-loop run.

    The slope grad H_d^T (mu + Ghat u - xdot_d) at each sample, with u the
    recorded input, is the assigned dissipation -grad H_d^T R_d grad H_d plus
    the off-reference matching mismatch; it leaves out the model error
    grad H_d^T ((f - mu) + (G - Ghat) u), which is what separates it from the
    true-plant slope.  Each sample step is integrated by the trapezoid rule.
    """
    xs, ts = traj.states, traj.times
    grad = desired.hamiltonian_gradient((xs - plan.x_d(ts)).T)
    velocity = eval_dynamics(mean, xs.T, np.zeros(1)) + mean.g @ traj.inputs.T - plan.x_d_dot(ts).T
    slope = np.einsum("nk,nk->k", grad, velocity)
    return 0.5 * np.diff(ts) * (slope[:-1] + slope[1:])


def drift_error_and_envelope(plant, mean, envelope, states):
    """Realised drift error |f_i - mu_i| and the envelope eta_i per sample, both (n, T)."""
    u0 = np.zeros(plant.dim_input)
    return np.abs(eval_dynamics(plant, states.T, u0) - eval_dynamics(mean, states.T, u0)), envelope(states.T)


@pytest.fixture(scope="session")
def production_loop(production_run):
    """Plant, model, desired dynamics, plan and closed-loop run rebuilt from the artifacts."""
    workdir, _, _ = production_run
    plant, _ = build_plant(default_config())
    model = load_model(workdir / "model.json")
    desired = load_desired(workdir, model.mean)
    plan = plan_from_csv(workdir / "plan.csv")
    traj = trajectory_from_csv(workdir / "closedloop.csv")
    return plant, model, desired, plan, traj


def test_criterion_1b_hd_monotone(production_run, production_loop):
    # Under a learned model the guarantee is probabilistic: H_d decreases
    # wherever the assigned damping dominates the model error, and that error
    # stays inside the GP envelope.  A sample-wise monotone H_d on the true
    # plant is not promised; the gap coordinate is undamped (R_d[0, 0] = 0)
    # and unactuated, so no law built from mu can cancel the drift error
    # there.  The criterion therefore checks (i) that the model-predicted
    # increments never exceed the tolerance and (ii) that the realised drift
    # error is covered by eta = beta * var at every sample; the raw true-plant
    # count is reported alongside.
    _, metrics, _ = production_run
    plant, model, desired, plan, traj = production_loop
    tol = metrics["lyapunov"]["tol"]
    nominal = nominal_hd_increments(model.mean, desired, plan, traj)
    nominal_events = int(np.sum(nominal > tol))
    err, eta = drift_error_and_envelope(plant, model.mean, model.envelope, traj.states)
    covered = bool(np.all(err <= eta))
    ratio = float(np.max(err / eta))
    # metrics.json carries the same two quantities, computed by the pipeline
    lyap = metrics["lyapunov"]
    stored = (
        lyap["model_increase_events"] == nominal_events
        and lyap["model_max_increase"] == pytest.approx(max(float(np.max(nominal)), 0.0), rel=1e-12)
        and metrics["drift_envelope"]["max_ratio"] == pytest.approx(ratio, rel=1e-12)
    )
    ok = nominal_events == 0 and covered and stored
    report(
        "1b",
        ok,
        f"{nominal_events} nominal H_d increase events above {tol:g} per step "
        f"(max nominal step {float(np.max(nominal)):.3g}); drift error within the GP "
        f"envelope at every sample: {covered} (max |f - mu| / eta {ratio:.3g}); "
        f"metrics.json agrees: {stored}; true-plant H_d: "
        f"{lyap['increase_events']} events, max step increase {lyap['max_increase']:.3g}",
    )


def test_criterion_1b_flags_dropped_feedforward(production_loop):
    # check (i) of 1b must catch a controller fault: without the r_hat xdot_d3
    # feedforward the charge lags its reference and the model itself predicts
    # H_d growth
    plant, model, desired, plan, traj = production_loop
    cl = default_config()["closed_loop"]
    law = microactuator_tracking_control(model.mean, desired, plan)
    r_hat = 1.0 / float(model.g_hat[2, 0])

    def dropped(x, t):
        return law(x, t) - r_hat * plan.x_d_dot(t)[2]

    t0, t1 = plan.t_span
    x0 = plan.x_d(t0) + np.asarray(cl["x0_offset"])

    def run(controller):
        return simulate_feedback(
            plant, x0, controller, (t0, t1), n_samples=cl["n_samples"], rtol=cl["rtol"], atol=cl["atol"]
        )

    production = run(law)
    faulty = run(dropped)
    tol = cl["hd_increase_tol"]
    nominal_ok = nominal_hd_increments(model.mean, desired, plan, production)
    nominal_bad = nominal_hd_increments(model.mean, desired, plan, faulty)
    events_ok = int(np.sum(nominal_ok > tol))
    events_bad = int(np.sum(nominal_bad > tol))
    reproduced = np.array_equal(production.states, traj.states)
    ok = reproduced and events_ok == 0 and events_bad > 0
    report(
        "1b-fault",
        ok,
        f"production law re-simulated bit-identically: {reproduced}, {events_ok} nominal "
        f"events; feedforward dropped: {events_bad} nominal events above {tol:g} "
        f"(max step {float(np.max(nominal_bad)):.3g})",
    )


def test_criterion_1b_perfect_model_oracle(perfect_setup):
    # with the exact vector field as the model, mu = f and eta = 0, so the
    # nominal increments are the true ones and may differ from Delta H_d only
    # by the trapezoid error: far below the 1e-6 event tolerance at the
    # production spacing, and falling about 8x per halving (third order per
    # step), where a missing or wrong slope term would fall only 2x
    plant, model, desired, plan = perfect_setup
    law = microactuator_tracking_control(model, desired, plan)
    x0 = plan.x_d(0.0) + np.array([0.05, 0.0, 0.0])
    gaps = []
    exact = True
    for n_samples in (1301, 2601):
        traj = simulate_feedback(plant, x0, law, (0.0, 13.0), n_samples=n_samples)
        ts = traj.times
        nominal = nominal_hd_increments(model, desired, plan, traj)
        actual = np.diff(desired.hamiltonian((traj.states - plan.x_d(ts)).T))
        gaps.append(float(np.max(np.abs(nominal - actual))))
        err, eta = drift_error_and_envelope(plant, model, np.zeros_like, traj.states)
        exact = exact and not np.any(err) and not np.any(eta)
    ok = gaps[0] <= 1e-7 and gaps[0] >= 6.0 * gaps[1] and exact
    report(
        "1b-oracle",
        ok,
        f"nominal vs Delta H_d gap {gaps[0]:.3g} (<= 1e-7) at step 0.01, {gaps[1]:.3g} at "
        f"0.005 (ratio {gaps[0] / gaps[1]:.2f} >= 6), |f - mu| = eta = 0 everywhere: {exact}",
    )


def test_production_plan_fit_converges(production_run):
    # the production plan's trust-region fit must end on a convergence test
    # (status 1-4) rather than on its evaluation cap (status 0)
    workdir, metrics, _ = production_run
    with open(workdir / "plan_summary.json") as fh:
        summary = json.load(fh)
    fit = summary["fit"]
    ok = fit["status"] >= 1
    report(
        "plan-fit",
        ok,
        f"trust-region status {fit['status']} ({fit['message']}) after "
        f"{fit['nfev']} evaluations, max matching residual {summary['max_matching_residual']:.3g}",
    )


def test_criterion_1c_no_divergence(production_run):
    workdir, metrics, _ = production_run
    # the closed-loop stage raises on divergence, so reaching metrics with the
    # full sample count is the check
    states = np.loadtxt(workdir / "closedloop.csv", delimiter=",", skiprows=1)
    n_samples = default_config()["closed_loop"]["n_samples"]
    ok = states.shape[0] == n_samples and bool(np.all(np.isfinite(states)))
    report("1c", ok, f"closed loop completed {states.shape[0]}/{n_samples} samples, all finite")


def test_criterion_2_perfect_model_equivalence(perfect_setup, tmp_path):
    start = time.perf_counter()
    plant, model, desired, plan = perfect_setup

    # on-reference start through the full pipeline
    cfg = validate_config(
        {"train": {"perfect_model": True}, "closed_loop": {"x0_offset": [0.0, 0.0, 0.0]}}
    )
    metrics = run_pipeline(cfg, str(tmp_path / "perfect"))
    on_ref_err = max(metrics["tracking"]["max_abs_error"])

    # perturbed start: the closed loop must reproduce the autonomous error
    # dynamics shifted by the reference
    xbar0 = np.array([0.5, 0.0, 0.0])
    controller = microactuator_tracking_control(model, desired, plan)
    traj = simulate_feedback(plant, plan.x_d(0.0) + xbar0, controller, (0.0, 13.0), n_samples=1301)

    # the unforced target error loop, integrated more tightly than the closed loop
    def error_loop(t1, n_samples):
        return simulate_feedback(desired, xbar0, unforced, (0.0, t1), n_samples, rtol=1e-10, atol=1e-10)

    err_traj = error_loop(13.0, 1301)
    equiv_gap = np.max(np.abs(traj.states - (plan.x_d(traj.times) + err_traj.states)))

    # strict decrease of H_d until the error ball is reached
    long_err = error_loop(30.0, 6001)
    hd = desired.hamiltonian(long_err.states.T)
    norms = np.linalg.norm(long_err.states, axis=1)
    inside = np.nonzero(norms <= 1e-3)[0]
    reached = inside.size > 0
    strict = bool(np.all(np.diff(hd[: inside[0] + 1]) < 0.0)) if reached else False
    elapsed = time.perf_counter() - start

    ok = on_ref_err <= 1e-4 and equiv_gap <= 1e-5 and reached and strict and elapsed <= 60.0
    report(
        "2",
        ok,
        f"on-reference error {on_ref_err:.3g} (<= 1e-4), closed loop vs error dynamics "
        f"gap {equiv_gap:.3g} (<= 1e-5), |xbar| <= 1e-3 reached "
        f"{'at t = %.1f' % long_err.times[inside[0]] if reached else 'never'} with H_d "
        f"strictly decreasing until then: {strict}, {elapsed:.0f} s (budget 60 s)",
    )


def test_criterion_3_gp_oracle_equivalence(filtered_full):
    start = time.perf_counter()
    ds = subset(filtered_full, 30)  # 10 points
    hyper = micro_hypers()
    model_small = condition(ds, hyper, jitter=0.0)

    rng = np.random.default_rng(7)
    worst_mean = worst_var = 0.0
    for _ in range(5):
        xq = rng.uniform(-0.5, 1.5, size=3)
        mean_o, var_o, _, _ = _dense_posterior(ds, hyper, xq)
        mean, var = model_small.drift(xq[:, None])
        worst_mean = max(worst_mean, float(np.max(np.abs(mean[:, 0] - mean_o))))
        worst_var = max(worst_var, float(np.max(np.abs(var[:, 0] - var_o))))

    vec = hyper.to_vector()
    _, grad = negative_log_marginal_likelihood(ds, hyper, jitter=0.0)
    h = 1e-6
    fd = np.empty_like(grad)
    for i in range(vec.size):
        vp, vm = vec.copy(), vec.copy()
        vp[i] += h
        vm[i] -= h
        fp = negative_log_marginal_likelihood(ds, hyper.from_vector(vp), jitter=0.0, with_grad=False)
        fm = negative_log_marginal_likelihood(ds, hyper.from_vector(vm), jitter=0.0, with_grad=False)
        fd[i] = (fp - fm) / (2 * h)
    rel = float(np.max(np.abs(fd - grad) / np.maximum(np.abs(grad), 1e-8)))
    elapsed = time.perf_counter() - start

    ok = worst_mean <= 1e-10 and worst_var <= 1e-10 and rel <= 1e-5 and elapsed <= 30.0
    report(
        "3",
        ok,
        f"dense-conditioning gap mean {worst_mean:.2g} / var {worst_var:.2g} (<= 1e-10), "
        f"NLML gradient vs FD {rel:.2g} relative (<= 1e-5), {elapsed:.1f} s (budget 30 s)",
    )


def test_criterion_4_kernel_validity():
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    min_eig = np.inf
    worst_sym = 0.0
    for _ in range(200):
        n_pts = int(rng.integers(3, 13))
        states = rng.uniform(-2.0, 2.0, size=(3, n_pts))
        hyper = GpHyperparams(
            sigma_f=float(rng.uniform(0.5, 2.0)),
            lengthscales=rng.uniform(0.4, 2.0, size=3),
            noise_var=np.zeros(3),
            structure=micro_structure(
                b=float(rng.uniform(0.1, 1.5)), r=float(rng.uniform(0.5, 2.0))
            ),
        )
        gram = gram_matrix(states, hyper, jitter=0.0)
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(gram))))
        xa, xb = states[:, 0], states[:, -1]
        worst_sym = max(
            worst_sym,
            float(np.max(np.abs(phs_kernel(xa, xb, hyper) - phs_kernel(xb, xa, hyper).T))),
        )
    elapsed = time.perf_counter() - start
    ok = min_eig >= -1e-10 and worst_sym <= 1e-12 and elapsed <= 30.0
    report(
        "4",
        ok,
        f"min Gram eigenvalue {min_eig:.3g} (>= -1e-10), worst transpose defect "
        f"{worst_sym:.2g} (<= 1e-12) over 200 sets, {elapsed:.1f} s (budget 30 s)",
    )


def test_criterion_5_energy_invariants(perfect_setup):
    start = time.perf_counter()

    # lossless: no damping, no input
    lossless = make_mass_spring_damper(m=1.0, k=1.0, b=0.0)
    tol = 1e-10
    horizon = 20.0
    traj = simulate_feedback(
        lossless,
        np.array([1.0, 0.0]),
        unforced,
        (0.0, horizon),
        n_samples=50,
        rtol=tol,
        atol=tol,
    )
    drift = abs(lossless.hamiltonian(traj.states[-1]) - lossless.hamiltonian(traj.states[0]))
    lossless_ok = drift <= 10.0 * tol * horizon

    # dissipation: unforced energy never rises across 50 random starts
    plant = make_microactuator(MicroactuatorParams())
    rng = np.random.default_rng(21)
    dissipation_ok = True
    worst_rise = -np.inf
    for _ in range(50):
        x0 = rng.uniform([-0.5, -1.0, -1.0], [2.0, 1.0, 1.5])
        run = simulate_feedback(plant, x0, unforced, (0.0, 5.0), n_samples=100)
        h_vals = plant.hamiltonian(run.states.T)
        rise = float(np.max(h_vals) - h_vals[0])
        worst_rise = max(worst_rise, rise)
        dissipation_ok = dissipation_ok and rise <= 1e-8

    # semi-passive: cumulative desired-energy growth never beats the external
    # power inflow (perfect model, so the certificate ball has radius zero)
    _, model, desired, plan = perfect_setup
    base = microactuator_tracking_control(model, desired, plan)
    semi_ok = True
    worst_defect = -np.inf
    for k in range(10):
        amp = float(rng.uniform(-0.5, 0.5))
        freq = float(rng.uniform(0.5, 3.0))
        u_ex = lambda t, a=amp, w=freq: np.array([a * np.sin(w * t)])
        controller = semi_passive_control(base, u_ex)
        run = simulate_feedback(plant, plan.x_d(0.0), controller, (0.0, 13.0), n_samples=1301)
        ts = run.times
        xbar = (run.states - plan.x_d(ts)).T
        hd = desired.hamiltonian(xbar)
        # y_ex = Ghat^T grad H_d(xbar), the target loop's port output
        power = np.array([float(y @ u_ex(t)) for y, t in zip(phs_output(desired, xbar).T, ts)])
        supplied = np.concatenate([[0.0], np.cumsum(np.diff(ts) * 0.5 * (power[:-1] + power[1:]))])
        defect = float(np.max((hd - hd[0]) - supplied))
        worst_defect = max(worst_defect, defect)
        semi_ok = semi_ok and defect <= 1e-3

    elapsed = time.perf_counter() - start
    ok = lossless_ok and dissipation_ok and semi_ok and elapsed <= 120.0
    report(
        "5",
        ok,
        f"lossless drift {drift:.2g} (<= {10 * tol * horizon:.1g}), worst unforced energy rise "
        f"{worst_rise:.2g} over 50 runs, worst semi-passive balance defect {worst_defect:.2g} "
        f"(<= 1e-3) over 10 runs, {elapsed:.0f} s (budget 120 s)",
    )


def test_criterion_6_condition_verifier():
    start = time.perf_counter()
    n, eta0, rho = 3, 0.05, 0.8
    eps_true = eta0 * np.sqrt(n) / rho
    spec = VerifySpec(max_radius=0.5, n_radii=50, n_dirs=500, n_times=2)
    grid_step = spec.max_radius / spec.n_radii
    rep = verify_dissipation_condition(
        _ConstantEnvelopeModel(n, eta0).envelope,
        quadratic_desired(n, rho),
        constant_plan(np.zeros(n)),
        spec,
    )
    elapsed = time.perf_counter() - start
    gap = abs(rep.epsilon - eps_true)
    ok = (not rep.satisfied) and (not rep.unbounded) and gap <= grid_step and elapsed <= 30.0
    report(
        "6",
        ok,
        f"certificate radius {rep.epsilon:.6g} vs closed form {eps_true:.6g} "
        f"(gap {gap:.2g} <= grid step {grid_step:g}), {elapsed:.1f} s (budget 30 s)",
    )


def _noiseless_dataset(plant, x0, n_samples):
    traj = simulate_feedback(plant, x0, sin_input, (0.0, 20.0), n_samples=n_samples)
    return FilteredDataset(
        states=traj.states.T,
        derivatives=eval_dynamics(plant, traj.states.T, traj.inputs.T),
        inputs=traj.inputs.T,
        times=traj.times,
    )


def test_criterion_7_learning_sanity():
    start = time.perf_counter()
    plant = make_microactuator(MicroactuatorParams())
    held_out = _noiseless_dataset(plant, np.array([0.05, -0.05, 1.05]), 200)

    family = MicroactuatorStructure()
    init = GpHyperparams(
        sigma_f=1.0,
        lengthscales=np.ones(3),
        noise_var=np.full(3, 1e-2),
        structure=StructureEstimate(family=family, phi=family.default_phi()),
    )
    # the learning-curve claim is about the NLML optimum per N, so each run
    # gets the full restart budget; a lucky shallow optimum at small N can
    # otherwise beat a stuck one at larger N
    opt = OptimizerConfig(restarts=5, max_iter=500)

    rmse = {}
    models = {}
    for n_train in (50, 100, 300):
        ds = _noiseless_dataset(plant, np.array([0.0, 0.0, 1.0]), n_train)
        model = train(ds, init, optimizer_config=opt, rng=np.random.default_rng(n_train))
        # forced dynamics prediction: the held-out derivatives include G u, so
        # the model side must too (drift alone would be off by the input term)
        pred = np.stack(
            [
                model.dynamics(x, u)[0]
                for x, u in zip(held_out.states.T, held_out.inputs.T)
            ],
            axis=1,
        )
        rmse[n_train] = float(np.sqrt(np.mean((pred - held_out.derivatives) ** 2)))
        models[n_train] = model

    monotone = rmse[50] > rmse[100] > rmse[300]

    big = models[300]
    lo = big.states.min(axis=1)
    hi = big.states.max(axis=1)
    axes = [np.linspace(lo[i], hi[i], 10) for i in range(3)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh])
    h_hat = big.hamiltonian(pts)
    h_true = plant.hamiltonian(pts)
    rank_corr = float(spearmanr(h_hat, h_true).statistic)
    elapsed = time.perf_counter() - start

    ok = monotone and rank_corr >= 0.95 and elapsed <= 600.0
    report(
        "7",
        ok,
        f"held-out RMSE {rmse[50]:.4g} > {rmse[100]:.4g} > {rmse[300]:.4g}: {monotone}, "
        f"Hamiltonian rank correlation {rank_corr:.4f} (>= 0.95) on the 10^3 grid, "
        f"{elapsed:.0f} s (budget 600 s)",
    )


def test_criterion_8_determinism(production_run, tmp_path):
    workdir, _, _ = production_run
    second = tmp_path / "repeat"
    run_pipeline(default_config(), str(second))
    compared = []
    diffs = []
    for path in sorted(workdir.rglob("*")):
        if not path.is_file() or path.name == "timings.json":
            continue
        rel = path.relative_to(workdir)
        compared.append(str(rel))
        if (second / rel).read_bytes() != path.read_bytes():
            diffs.append(str(rel))
    ok = not diffs and len(compared) >= 14
    report(
        "8",
        ok,
        f"{len(compared)} artifacts byte-compared, differing: {diffs if diffs else 'none'}",
    )
