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
from phs_lab.core import make_mass_spring_damper
from phs_lab.gp import PerfectPhsModel
from phs_lab.structure import FixedStructure, StructureEstimate
from phs_lab.verify import (
    VerifySpec,
    build_desired_dynamics,
    validate_hd_minimum,
    verify_dissipation_condition,
)
from phs_lab.control import DesiredDynamics

from conftest import micro_structure


@pytest.fixture(scope="module")
def plant():
    return make_microactuator(MicroactuatorParams())


@pytest.fixture(scope="module")
def centered_model(plant):
    return PerfectPhsModel(plant, micro_structure(b=0.5, r=1.0), x_ref=np.array([1.0, 0.0, 0.0]))


@pytest.fixture(scope="module")
def centered_desired(centered_model):
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=10.0)
    return make_desired_dynamics(centered_model, jd, rd, center=np.array([1.0, 0.0, 0.0]))


def constant_plan(xd_row, t1=1.0):
    xd_row = np.asarray(xd_row, dtype=float)
    return ReferencePlan(
        times=np.array([0.0, t1]),
        xd=np.tile(xd_row, (2, 1)),
        xddot=np.zeros((2, xd_row.size)),
    )


def test_hd_minimum_gate_passes_when_centered(centered_desired):
    rep = validate_hd_minimum(centered_desired, domain=[(-1.0, 1.0)] * 3, resolution=11)
    assert rep.passed
    assert rep.gap > 0.0
    np.testing.assert_allclose(rep.argmin_point, 0.0, atol=1e-12)


def test_hd_minimum_gate_fails_off_center(centered_model):
    # without the shift the learned minimum sits at (1, 0, 0) in error space
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=10.0)
    off = make_desired_dynamics(centered_model, jd, rd)
    rep = validate_hd_minimum(off, domain=[(-2.0, 2.0)] * 3, resolution=21)
    assert not rep.passed
    np.testing.assert_allclose(rep.argmin_point, [1.0, 0.0, 0.0], atol=0.21)


def test_dissipation_satisfied_with_zero_envelope(centered_model, centered_desired):
    report = verify_dissipation_condition(
        centered_model,
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
    return DesiredDynamics(
        jd=np.zeros((n, n)),
        rd=rho * np.eye(n),
        hd_grad=lambda x, x_d: np.asarray(x, dtype=float) - np.asarray(x_d, dtype=float),
        hd_error_batch=lambda xbar: 0.5 * np.sum(np.atleast_2d(xbar) ** 2, axis=0),
        hd_error_grad_batch=lambda xbar: np.atleast_2d(np.asarray(xbar, dtype=float)),
        center=np.zeros(n),
        dim_state=n,
    )


def test_dissipation_epsilon_matches_quadratic_oracle():
    n, eta0, rho = 3, 0.05, 0.8
    eps_true = eta0 * np.sqrt(n) / rho
    spec = VerifySpec(max_radius=0.5, n_radii=50, n_dirs=500, n_times=2)
    grid_step = spec.max_radius / spec.n_radii
    report = verify_dissipation_condition(
        _ConstantEnvelopeModel(n, eta0),
        quadratic_desired(n, rho),
        constant_plan(np.zeros(n)),
        spec,
    )
    assert not report.satisfied
    assert not report.unbounded
    assert abs(report.epsilon - eps_true) <= grid_step
    assert "holds outside radius" in report.to_text()


def test_dissipation_unbounded_when_envelope_dominates():
    report = verify_dissipation_condition(
        _ConstantEnvelopeModel(3, 10.0),
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
        _ConstantEnvelopeModel(3, 0.05),
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
    model = PerfectPhsModel(plant, micro_structure(b=0.5, r=1.0))
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=10.0)
    desired, report = build_desired_dynamics(
        model, jd, rd, search_box=[(-0.5, 2.0), (-1.0, 1.0), (-1.0, 1.5)]
    )
    assert report["mode"] == "recentered"
    assert report["final_gate"]["passed"]
    np.testing.assert_allclose(report["center"], [1.0, 0.0, 0.0], atol=1e-5)
    assert desired.hd_error_batch(np.zeros((3, 1)))[0] == pytest.approx(0.0, abs=1e-12)


def test_build_desired_recenter_without_search_box_raises(plant):
    # the verbatim gate fails (the minimum sits at (1, 0, 0)), and with no
    # stored training states and no explicit box there is nowhere to search
    model = PerfectPhsModel(plant, micro_structure(b=0.5, r=1.0))
    jd, rd = microactuator_desired_matrices(b_hat=0.5, r_d_inv=10.0)
    with pytest.raises(SynthesisError, match="search box"):
        build_desired_dynamics(model, jd, rd)


def test_build_desired_verbatim_pass_for_origin_minimum():
    msd = make_mass_spring_damper(m=1.0, k=1.0, b=0.5)
    family = FixedStructure(
        j=[[0.0, 1.0], [-1.0, 0.0]], r=[[0.0, 0.0], [0.0, 0.5]], g=[[0.0], [1.0]]
    )
    model = PerfectPhsModel(msd, StructureEstimate(family=family, phi=np.empty(0)))
    desired, report = build_desired_dynamics(
        model, np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag([0.0, 1.0])
    )
    assert report["mode"] == "verbatim"
    assert report["final_gate"]["passed"]
    np.testing.assert_allclose(report["center"], [0.0, 0.0], atol=0)
