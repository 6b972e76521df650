"""Regression of the frozen flow constants.

The constants are empirical: they record how large the recursion and
initial-membership ratios get over a seeded sweep.  Recomputing the sweep and
holding the result to ten percent catches silent drift in the step
implementation without hard-coding physics that was never derived.
"""

import pytest

from specrg._calibration import (C_INIT, C_RG, CALIBRATION_N_RANDOM,
                                 CALIBRATION_N_STEPS, CALIBRATION_SEED)
from specrg.calibration import calibrate_constants


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


def test_other_infrared_exponent_refused():
    # the norms have one infrared exponent, normalform.MU
    with pytest.raises(ValueError, match="MU"):
        calibrate_constants(mu=0.25)
