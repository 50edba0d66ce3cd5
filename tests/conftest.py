"""Shared builders for the test suite.

Most GP tests condition on small subsets of one simulated microactuator
run; building the trajectory once per session keeps them fast.
"""

import numpy as np
import pytest

from phs_lab import MicroactuatorParams, make_microactuator, simulate_feedback
from phs_lab.core import Trajectory
from phs_lab.filtering import FilteredDataset, filter_derivatives
from phs_lab.gp import GpHyperparams
from phs_lab.structure import MicroactuatorStructure, StructureEstimate


def sin_input(x, t):
    return np.array([np.sin(t)])


def unforced(x, t):
    return np.zeros(1)


@pytest.fixture(scope="session")
def plant():
    return make_microactuator(MicroactuatorParams())


@pytest.fixture(scope="session")
def clean_trajectory(plant):
    return simulate_feedback(plant, np.array([0.0, 0.0, 1.0]), sin_input, (0.0, 20.0), n_samples=300)


@pytest.fixture(scope="session")
def noisy_trajectory(clean_trajectory):
    rng = np.random.default_rng(0)
    noisy = clean_trajectory.states + rng.normal(0.0, np.sqrt(1e-3), clean_trajectory.states.shape)
    return Trajectory(
        times=clean_trajectory.times, states=noisy, inputs=clean_trajectory.inputs
    )


@pytest.fixture(scope="session")
def filtered_full(noisy_trajectory):
    return filter_derivatives(noisy_trajectory)


def subset(dataset: FilteredDataset, step: int) -> FilteredDataset:
    idx = np.arange(0, dataset.n_points, step)
    return FilteredDataset(
        states=dataset.states[:, idx],
        derivatives=dataset.derivatives[:, idx],
        inputs=dataset.inputs[:, idx],
        times=dataset.times[idx],
    )


def micro_structure(b=0.6, r=1.1) -> StructureEstimate:
    family = MicroactuatorStructure()
    return StructureEstimate(family=family, phi=family.phi_from_values(b, r))


def micro_hypers(structure=None) -> GpHyperparams:
    return GpHyperparams(
        sigma_f=1.2,
        lengthscales=np.array([0.8, 1.1, 0.9]),
        noise_var=np.array([2e-3, 3e-3, 1.5e-3]),
        structure=structure or micro_structure(),
    )
