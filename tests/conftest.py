"""Shared fixtures.

The renormalization flows are by far the most expensive objects the suite
needs (seconds each), and several tests inspect the same trajectories, so
they are computed once per session here.  The dilated model of criterion 7
is shared by the acceptance and oracle tests.
"""

import time

import numpy as np
import pytest

from specrg.fock import build_fock_basis, build_mode_grid
from specrg.models import ModelSpec, build_model, complex_dilate, ground_sector_hamiltonian
from specrg.rgflow import flow

FLOW_G_VALUES = (1e-3, 5e-3)
FLOW_RHO = 0.5
FLOW_N_STEPS = 6


def _flow_instance(g):
    grid = build_mode_grid(8, 0.5, "geometric")
    spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=g, kappa=1.0)

    def builder(lam):
        return ground_sector_hamiltonian(spec, grid, lam)

    basis = build_fock_basis(grid, 2)
    model = build_model(spec, basis)
    e0_exact = float(np.min(np.linalg.eigvalsh(model.H)))

    t0 = time.monotonic()
    traj = flow(builder(0.0), FLOW_RHO, FLOW_N_STEPS, builder=builder)
    elapsed = time.monotonic() - t0
    return {"g": g, "spec": spec, "grid": grid, "traj": traj,
            "e0_exact": e0_exact, "seconds": elapsed}


@pytest.fixture(scope="session")
def model_flows():
    """Six-step flows of the two-level model at the sweep couplings.

    Maps g -> {traj, e0_exact, seconds, ...}; the trajectory records carry
    the per-step (e_n, E, beta, gamma, budget) measurements.
    """
    return {g: _flow_instance(g) for g in FLOW_G_VALUES}


@pytest.fixture(scope="session")
def large_basis():
    """(basis, seconds): 128 uniform modes to k = 1 at n_max = 2, 8,385 Fock
    states (16,770 with two levels), and the time its enumeration took."""
    t0 = time.perf_counter()
    basis = build_fock_basis(build_mode_grid(128, 1.0, "uniform"), 2)
    return basis, time.perf_counter() - t0


@pytest.fixture(scope="module")
def resonance_instance():
    """(spec, grid, basis, D): the criterion-7 model dilated at theta = 0.2i."""
    spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=2e-3, kappa=2.0)
    grid = build_mode_grid(64, 2.0, "uniform")
    basis = build_fock_basis(grid, 1)
    D = complex_dilate(spec, basis, 0.2j)
    return spec, grid, basis, D
