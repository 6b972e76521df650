"""Regression of the frozen flow constants.

The constants are empirical: they record how large the recursion and
initial-membership ratios get over a seeded sweep.  Recomputing the sweep and
holding the result to ten percent catches silent drift in the step
implementation without hard-coding physics that was never derived.
"""

import numpy as np
import pytest

from specrg._calibration import (C_INIT, C_RG, CALIBRATION_N_RANDOM,
                                 CALIBRATION_N_STEPS, CALIBRATION_SEED)
from specrg.calibration import _random_polydisc_hamiltonian, calibrate_constants
from specrg.fock import build_mode_grid
from specrg.normalform import interaction_norm


@pytest.fixture(scope="module")
def recomputed():
    return calibrate_constants(seed=CALIBRATION_SEED,
                               n_random=CALIBRATION_N_RANDOM,
                               n_steps=CALIBRATION_N_STEPS)


def test_recursion_constant_regression(recomputed):
    assert recomputed["c_rg"] == pytest.approx(C_RG, rel=0.10)


def test_initial_membership_constant_regression(recomputed):
    assert recomputed["c_init"] == pytest.approx(C_INIT, rel=0.10)


def test_contraction_factor_below_one(recomputed):
    # c rho^mu < 1 is what makes the interaction direction stable
    assert recomputed["c_rg"] * 0.5 ** 0.5 < 1.0


@pytest.mark.parametrize("seed", [0, 3])
def test_random_hamiltonian_has_its_target_norm(seed):
    grid = build_mode_grid(8, 0.5, "geometric")
    target = 0.5 / 16.0
    H = _random_polydisc_hamiltonian(np.random.default_rng(seed), grid, 0.5, target)
    assert H.grid is grid
    assert abs(interaction_norm(H) - target) <= 1e-12 * target


def test_other_infrared_exponent_refused():
    # the norms have one infrared exponent, normalform.MU
    with pytest.raises(ValueError, match="MU"):
        calibrate_constants(mu=0.25)
