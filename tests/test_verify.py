"""Energy-minimum gate and robust dissipation certificate.

The certificate radius has a closed form for a quadratic energy with a
constant error envelope, which pins the sampling machinery to an oracle
computed by hand (`quadratic_desired` in tests/oracles.py).
"""

import numpy as np
import pytest

from phs_lab import SynthesisError, condition
from phs_lab.control import (
    ReferencePlan,
    make_desired_dynamics,
    microactuator_desired_matrices,
)
from phs_lab.core import PhsModel
from phs_lab.gp import _VAR_CHUNK
from phs_lab.verify import (
    BISECT_ITERS,
    VerifySpec,
    _sphere_directions,
    build_desired_dynamics,
    validate_hd_minimum,
    verify_dissipation_condition,
)

from conftest import micro_hypers, subset
from oracles import ConstantEnvelopeModel, constant_plan, make_mass_spring_damper, quadratic_desired

# the deterministic directions of a 3-state loop: 6 signed axes, 8 corners
N_WITNESS = 14


@pytest.fixture(scope="module")
def centered_model(plant):
    # the plant is its own exact model, with a zero error envelope
    return plant


@pytest.fixture(scope="module")
def centered_desired(centered_model):
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=10.0)
    return make_desired_dynamics(centered_model, jd, rd, center=np.array([1.0, 0.0, 0.0]))


def test_hd_minimum_gate_passes_when_centered(centered_desired):
    rep = validate_hd_minimum(centered_desired, bound=1.0, resolution=11)
    assert rep.passed
    assert rep.gap > 0.0
    np.testing.assert_allclose(rep.argmin_point, 0.0, atol=1e-12)


def test_hd_minimum_gate_fails_off_center(centered_model):
    # without the shift the learned minimum sits at (1, 0, 0) in error space
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=10.0)
    off = make_desired_dynamics(centered_model, jd, rd)
    rep = validate_hd_minimum(off)
    assert not rep.passed
    np.testing.assert_allclose(rep.argmin_point, [1.0, 0.0, 0.0], atol=0.21)


def test_dissipation_satisfied_with_zero_envelope(centered_desired):
    report = verify_dissipation_condition(
        np.zeros_like,
        centered_desired,
        constant_plan([1.0, 0.0, 0.0]),
        VerifySpec(max_radius=0.5, n_radii=8, n_dirs=100, n_times=2),
    )
    assert report.satisfied
    assert report.epsilon == 0.0
    assert not report.unbounded
    assert np.all(report.min_margin_per_radius >= 0.0)
    assert "SATISFIED" in report.to_text()


def test_dissipation_epsilon_matches_quadratic_oracle():
    n, eta0, rho = 3, 0.05, 0.8
    eps_true = eta0 * np.sqrt(n) / rho
    spec = VerifySpec(max_radius=0.5, n_radii=50, n_dirs=500, n_times=2)
    grid_step = spec.max_radius / spec.n_radii
    report = verify_dissipation_condition(
        ConstantEnvelopeModel(n, eta0).envelope,
        quadratic_desired(n, rho),
        constant_plan(np.zeros(n)),
        spec,
    )
    assert not report.satisfied
    assert not report.unbounded
    assert abs(report.epsilon - eps_true) <= grid_step
    assert "holds outside radius" in report.to_text()


class _CountingEnvelopeModel(ConstantEnvelopeModel):
    def __init__(self, n, eta0):
        super().__init__(n, eta0)
        self.calls = 0
        self.states = 0

    def envelope(self, xq):
        eta = super().envelope(xq)
        self.calls += 1
        self.states += eta.shape[1]
        return eta


@pytest.mark.parametrize("eta0, rho", [(0.05, 0.8), (10.0, 0.1)], ids=["bisects", "unbounded"])
def test_verify_work_counts(eta0, rho):
    # one envelope call on the witness directions, then, when the scan runs,
    # one per shell of the grid and of the bisection on all directions
    spec = VerifySpec(max_radius=0.5, n_radii=10, n_dirs=40, n_times=3)
    model = _CountingEnvelopeModel(3, eta0)
    plan = ReferencePlan(times=np.linspace(0.0, 1.0, 5), xd=np.zeros((5, 3)))
    report = verify_dissipation_condition(model.envelope, quadratic_desired(3, rho), plan, spec)
    out = report.to_jsonable()
    n_times = report.times.size
    assert out["scan"] is (not report.unbounded)
    assert out["n_dirs"] == (N_WITNESS + spec.n_dirs if out["scan"] else N_WITNESS)
    assert out["bisection_steps"] == (BISECT_ITERS if out["scan"] else 0)
    scanned_shells = spec.n_radii + out["bisection_steps"] if out["scan"] else 0
    assert out["envelope_calls"] == model.calls == 1 + scanned_shells
    witness_states = spec.n_radii * N_WITNESS * n_times
    assert out["states_evaluated"] == model.states == witness_states + scanned_shells * out["n_dirs"] * n_times


def _reference_verify(envelope, desired, plan, spec):
    """The per-radius scan and bisection as the verifier ran them before its witness pass, verbatim."""
    n = desired.dim_state
    rng = np.random.default_rng(spec.seed)
    dirs = _sphere_directions(n, spec.n_dirs, rng)

    idx = np.unique(np.linspace(0, plan.times.size - 1, spec.n_times).round().astype(int))
    times = plan.times[idx]
    centers = np.stack([plan.x_d(t) for t in times], axis=1)

    def shell_margins(radius: float):
        xbar = radius * dirs
        grads = desired.hamiltonian_gradient(xbar)
        quad = np.einsum("iq,ij,jq->q", grads, desired.r, grads)
        # states[:, t, q] = centre t + xbar_q
        states = centers[:, :, None] + xbar[:, None, :]
        eta = envelope(states.reshape(n, -1)).reshape(states.shape)
        margins = quad - np.sum(np.abs(grads)[:, None, :] * eta, axis=0)
        return [(float(np.min(m)), float(np.mean(m))) for m in margins]

    radii = np.linspace(spec.max_radius / spec.n_radii, spec.max_radius, spec.n_radii)
    rows = []
    for s in radii:
        rows.extend([s, t, m_min, m_mean] for t, (m_min, m_mean) in zip(times, shell_margins(s)))
    rows = np.asarray(rows, dtype=float)
    min_per_radius = rows[:, 2].reshape(spec.n_radii, times.size).min(axis=1)
    feasible = min_per_radius >= 0.0

    if np.all(feasible):
        satisfied, unbounded, eps = True, False, 0.0
    elif not feasible[-1]:
        satisfied, unbounded, eps = False, True, float("inf")
    else:
        satisfied = False
        unbounded = False
        i_last_bad = int(np.max(np.nonzero(~feasible)[0]))
        lo, hi = radii[i_last_bad], radii[i_last_bad + 1]
        for _ in range(BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            if min(m_min for m_min, _ in shell_margins(mid)) >= 0.0:
                hi = mid
            else:
                lo = mid
        eps = float(hi)
    return dict(
        satisfied=satisfied,
        unbounded=unbounded,
        epsilon=eps,
        radii=radii,
        min_margin_per_radius=min_per_radius,
        margin_rows=rows,
    )


def _scan_cases(centered_desired):
    return {
        # an inner radius fails, so the certificate radius is bisected
        "bisects": (
            ConstantEnvelopeModel(3, 0.05).envelope,
            quadratic_desired(3, 0.8),
            ReferencePlan(times=np.linspace(0.0, 1.0, 5), xd=np.zeros((5, 3))),
            VerifySpec(max_radius=0.5, n_radii=10, n_dirs=40, n_times=3),
        ),
        # criterion 6's oracle: the certificate radius has a closed form
        "quadratic_oracle": (
            ConstantEnvelopeModel(3, 0.05).envelope,
            quadratic_desired(3, 0.8),
            constant_plan(np.zeros(3)),
            VerifySpec(max_radius=0.5, n_radii=50, n_dirs=500, n_times=2),
        ),
        "satisfied": (
            np.zeros_like,
            centered_desired,
            constant_plan([1.0, 0.0, 0.0]),
            VerifySpec(max_radius=0.5, n_radii=8, n_dirs=100, n_times=2),
        ),
    }


@pytest.mark.parametrize("case", ["bisects", "quadratic_oracle", "satisfied"])
def test_scan_report_equals_the_reference_when_no_witness_refutes(case, centered_desired):
    args = _scan_cases(centered_desired)[case]
    report = verify_dissipation_condition(*args)
    expected = _reference_verify(*args)
    assert report.scan
    assert report.witness is None
    assert report.to_jsonable()["witness"] is None
    assert report.satisfied == expected["satisfied"]
    assert report.unbounded == expected["unbounded"]
    assert report.epsilon == expected["epsilon"]
    for name in ("radii", "min_margin_per_radius", "margin_rows"):
        assert np.array_equal(getattr(report, name), expected[name]), name
    assert "witness" not in report.to_text()


def test_scan_with_a_gp_envelope_equals_the_reference(filtered_full):
    # a conditioned GP's envelope through the whole scan: beta = 0.1 leaves
    # every witness margin on the outer shell nonnegative, an inner shell
    # fails, so the certificate radius is bisected; each shell holds
    # (14 + 100) directions x 3 plan times = 342 states, more than one
    # posterior block of _VAR_CHUNK = 128
    model = condition(subset(filtered_full, 30), micro_hypers(), jitter=0.0)
    model.beta = np.full(3, 0.1)
    plan = ReferencePlan(times=np.linspace(0.0, 1.0, 5), xd=np.linspace([0.6, -0.2, 0.8], [1.0, 0.2, 1.2], 5))
    spec = VerifySpec(max_radius=0.5, n_radii=10, n_dirs=100, n_times=3)
    args = (model.envelope, quadratic_desired(3, 0.8), plan, spec)
    assert (N_WITNESS + spec.n_dirs) * 3 > _VAR_CHUNK
    report = verify_dissipation_condition(*args)
    expected = _reference_verify(*args)
    assert report.scan
    assert report.bisection_steps == BISECT_ITERS
    assert (report.satisfied, report.unbounded) == (expected["satisfied"], expected["unbounded"]) == (False, False)
    assert report.epsilon == expected["epsilon"]
    for name in ("radii", "min_margin_per_radius", "margin_rows"):
        assert np.array_equal(getattr(report, name), expected[name]), name


def test_witness_refutes_the_outer_shell_with_one_envelope_call():
    spec = VerifySpec(max_radius=0.5, n_radii=10, n_dirs=40, n_times=3)
    desired = quadratic_desired(3, 0.1)
    plan = ReferencePlan(times=np.linspace(0.0, 1.0, 5), xd=np.linspace(-1.0, 1.0, 15).reshape(5, 3))
    model = _CountingEnvelopeModel(3, 10.0)
    report = verify_dissipation_condition(model.envelope, desired, plan, spec)
    assert model.calls == 1
    assert model.states == spec.n_radii * N_WITNESS * report.times.size
    assert not report.scan
    assert report.unbounded and not report.satisfied
    assert report.n_dirs == N_WITNESS

    # the witness names a state whose margin, recomputed on its own, is negative
    w = report.to_jsonable()["witness"]
    assert w["radius"] == spec.max_radius
    assert w["time"] in report.times
    xbar = w["radius"] * np.asarray(w["direction"])
    grad = desired.hamiltonian_gradient(xbar[:, None])[:, 0]
    eta = ConstantEnvelopeModel(3, 10.0).envelope((plan.x_d(w["time"]) + xbar)[:, None])[:, 0]
    margin = grad @ desired.r @ grad - np.abs(grad) @ eta
    assert margin < 0.0
    assert margin == pytest.approx(w["margin"], rel=1e-12)
    assert w["margin"] == report.min_margin_per_radius[-1]
    assert "verdict from a witness" in report.to_text()

    # the full scan reaches the same verdict
    expected = _reference_verify(ConstantEnvelopeModel(3, 10.0).envelope, desired, plan, spec)
    assert (expected["satisfied"], expected["unbounded"]) == (report.satisfied, report.unbounded)


def test_dissipation_unbounded_when_envelope_dominates():
    report = verify_dissipation_condition(
        ConstantEnvelopeModel(3, 10.0).envelope,
        quadratic_desired(3, 0.1),
        constant_plan(np.zeros(3)),
        VerifySpec(max_radius=0.5, n_radii=8, n_dirs=100, n_times=2),
    )
    assert not report.satisfied
    assert report.unbounded
    assert report.to_jsonable()["epsilon"] is None
    assert "no finite certificate radius" in report.to_text()


def test_margin_csv_shape(tmp_path):
    spec = VerifySpec(max_radius=0.5, n_radii=6, n_dirs=50, n_times=2)
    report = verify_dissipation_condition(
        ConstantEnvelopeModel(3, 0.05).envelope,
        quadratic_desired(3, 0.8),
        constant_plan(np.zeros(3)),
        spec,
    )
    path = tmp_path / "margins.csv"
    report.margins_to_csv(path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (spec.n_radii * 2, 4)
    np.testing.assert_allclose(np.unique(rows[:, 0]), np.linspace(0.5 / 6, 0.5, 6), rtol=1e-15)


def test_build_desired_recenter_finds_learned_minimum(plant):
    # no training-data box is given, so the root search starts from the
    # gate grid's box, [-GATE_BOUND, GATE_BOUND] per dimension
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=10.0)
    desired, report = build_desired_dynamics(plant, jd, rd)
    assert set(report) == {"center", "root", "final_gate"}
    assert report["root"]["status"] == 1
    assert report["final_gate"]["passed"]
    np.testing.assert_allclose(report["center"], [1.0, 0.0, 0.0], atol=1e-5)
    assert desired.hamiltonian(np.zeros(3)) == 0.0


def test_build_desired_for_origin_minimum():
    msd = make_mass_spring_damper(m=1.0, k=1.0, b=0.5)
    desired, report = build_desired_dynamics(
        msd, np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag([0.0, 1.0])
    )
    assert report["final_gate"]["passed"]
    np.testing.assert_allclose(report["center"], [0.0, 0.0], atol=1e-8)


def test_build_desired_rejects_a_saddle():
    # H = (x2^2 - x1^2) / 2: the one root of grad H is a saddle, which the
    # root search finds and the gate rejects
    j, r, g = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag([0.0, 0.5]), np.array([[0.0], [1.0]])
    saddle = PhsModel(
        j=j,
        r=r,
        g=g,
        hamiltonian=lambda x: 0.5 * (x[1] ** 2 - x[0] ** 2),
        hamiltonian_gradient=lambda x: np.array([-x[0], x[1]]),
    )
    with pytest.raises(SynthesisError, match="lacks a minimum"):
        build_desired_dynamics(saddle, np.array(j), np.diag([0.0, 1.0]))
