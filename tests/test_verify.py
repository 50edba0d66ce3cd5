"""Energy-minimum gate and robust dissipation certificate.

The certificate radius has a closed form for a quadratic energy with a
constant error envelope, which pins the sampling machinery to an oracle
computed by hand below.
"""

import numpy as np
import pytest

from phs_lab import MicroactuatorParams, SynthesisError, make_microactuator
from phs_lab.control import (
    ReferencePlan,
    make_desired_dynamics,
    microactuator_desired_matrices,
)
from phs_lab.core import PhsModel, make_mass_spring_damper
from phs_lab.verify import (
    BISECT_ITERS,
    VerifySpec,
    build_desired_dynamics,
    validate_hd_minimum,
    verify_dissipation_condition,
)


@pytest.fixture(scope="module")
def plant():
    return make_microactuator(MicroactuatorParams())


@pytest.fixture(scope="module")
def centered_model(plant):
    # the plant is its own exact model, with a zero error envelope
    return plant


@pytest.fixture(scope="module")
def centered_desired(centered_model):
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=10.0)
    return make_desired_dynamics(centered_model, jd, rd, center=np.array([1.0, 0.0, 0.0]))


def constant_plan(xd_row, t1=1.0):
    xd_row = np.asarray(xd_row, dtype=float)
    return ReferencePlan(times=np.array([0.0, t1]), xd=np.tile(xd_row, (2, 1)))


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


class _ConstantEnvelopeModel:
    def __init__(self, n, eta0):
        self.n = n
        self.eta0 = float(eta0)

    def envelope(self, xq):
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        return np.full((self.n, xq.shape[1]), self.eta0)


def quadratic_desired(n, rho):
    # H_d = |xbar|^2 / 2, R_d = rho I: margin on the sphere of radius s is
    # rho s^2 - eta0 s |d|_1, worst over unit d at |d|_1 = sqrt(n), so the
    # certificate radius is eta0 sqrt(n) / rho
    return PhsModel(
        j=np.zeros((n, n)),
        r=rho * np.eye(n),
        g=np.zeros((n, 1)),
        hamiltonian=lambda xbar: 0.5 * np.sum(xbar**2, axis=0),
        hamiltonian_gradient=lambda xbar: np.asarray(xbar, dtype=float),
    )


def test_dissipation_epsilon_matches_quadratic_oracle():
    n, eta0, rho = 3, 0.05, 0.8
    eps_true = eta0 * np.sqrt(n) / rho
    spec = VerifySpec(max_radius=0.5, n_radii=50, n_dirs=500, n_times=2)
    grid_step = spec.max_radius / spec.n_radii
    report = verify_dissipation_condition(
        _ConstantEnvelopeModel(n, eta0).envelope,
        quadratic_desired(n, rho),
        constant_plan(np.zeros(n)),
        spec,
    )
    assert not report.satisfied
    assert not report.unbounded
    assert abs(report.epsilon - eps_true) <= grid_step
    assert "holds outside radius" in report.to_text()


class _CountingEnvelopeModel(_ConstantEnvelopeModel):
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
    spec = VerifySpec(max_radius=0.5, n_radii=10, n_dirs=40, n_times=3)
    model = _CountingEnvelopeModel(3, eta0)
    plan = ReferencePlan(times=np.linspace(0.0, 1.0, 5), xd=np.zeros((5, 3)))
    report = verify_dissipation_condition(model.envelope, quadratic_desired(3, rho), plan, spec)
    out = report.to_jsonable()
    n_times = report.times.size
    assert out["bisection_steps"] == (0 if report.unbounded else BISECT_ITERS)
    assert out["envelope_calls"] == spec.n_radii + out["bisection_steps"]
    assert out["envelope_calls"] == model.calls
    assert out["states_evaluated"] == model.states == model.calls * report.n_dirs * n_times


def test_dissipation_unbounded_when_envelope_dominates():
    report = verify_dissipation_condition(
        _ConstantEnvelopeModel(3, 10.0).envelope,
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
        _ConstantEnvelopeModel(3, 0.05).envelope,
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
