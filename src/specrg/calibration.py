"""Empirical calibration of the recursion constant for the polydisc flow.

The contraction theorem asserts existence of a constant c such that one
renormalization step maps the polydisc (alpha, beta, gamma) into
(alpha/rho + c gamma^2/2rho, beta + c gamma^2/2rho, c rho^mu gamma), and that
the initial transformed model lands in (c g^2 rho^(mu-2), c g^2 rho^(mu-1),
c g rho^mu).  No value of c is given, so it is measured on random polydisc
kernels and the two-level model, each re-centred to E = 0 after every step:
c_rg is the largest rgflow.recursion_constant of a step.  The results are
frozen in _calibration.py; a regression test recomputes the sweep with the
same seed and asserts them within ten percent.
"""

from __future__ import annotations

import numpy as np

from .fock import build_mode_grid
from .models import ModelSpec, ground_sector_hamiltonian
from .normalform import (MU, R_GRID, CouplingFunction, NormalFormHamiltonian, from_profile,
                         shifted, term_norm)
from .rgflow import polydisc_coordinates, recursion_constant, rg_step


def _random_polydisc_hamiltonian(rng, grid, rho, gamma_target):
    nodes = grid.nodes
    E = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * rho / 24.0
    slope_dev = rng.uniform(-1, 1) / 24.0
    w00 = E + R_GRID * (1.0 + slope_dev)
    raw = {}
    for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        a0 = rng.standard_normal() + 1j * rng.standard_normal()
        a1 = 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
        raw[(m, n)] = from_profile(m, n, nodes, lambda r, *ks: a0 + a1 * r)
    # W's norm, summed in interaction_norm's order, is scaled to gamma_target
    scale = gamma_target / sum(term_norm(w) for w in raw.values())
    terms = {key: CouplingFunction(w.m, w.n, nodes, scale * w.values) for key, w in raw.items()}
    return NormalFormHamiltonian({(0, 0): CouplingFunction(0, 0, nodes, w00),
                                  **terms}, grid)


def calibrate_constants(seed: int = 0, n_random: int = 8, n_steps: int = 4,
                        rho: float = 0.5, mu: float = 0.5) -> dict:
    """Measured recursion and initial-membership constants.

    Returns {"c_rg": ..., "c_init": ...}: c_rg is the largest
    recursion_constant of any step on the random and the model Hamiltonians;
    c_init the largest the initial-membership inequalities require for the
    pre-decimated models.  mu must be MU, the one infrared exponent of
    the norms; any other value raises ValueError.
    """
    if mu != MU:
        raise ValueError(f"mu = {mu} differs from the norms' infrared exponent MU = {MU}")
    rng = np.random.default_rng(seed)
    grid = build_mode_grid(8, 0.5, "geometric")
    c_rg = 0.0

    def track(H, steps):
        nonlocal c_rg
        E, b, gam = polydisc_coordinates(H)
        for _ in range(steps):
            H, _ = rg_step(H, rho)
            E2, b2, g2 = polydisc_coordinates(H)
            if gam > 0:
                c_rg = max(c_rg, recursion_constant((E, b, gam), (E2, b2, g2), rho))
            # mimic the spectral-parameter adjustment: pull E back to 0 so iterated steps
            # stay inside the domain of the map; the shift keeps beta and gamma
            H = shifted(H, E2)
            E, b, gam = 0.0, b2, g2

    for _ in range(n_random):
        H = _random_polydisc_hamiltonian(rng, grid, rho, gamma_target=rho / 16.0)
        track(H, n_steps)

    c_init = 0.0
    for kappa in (0.4, 1.0):
        for g in (1e-3, 5e-3):
            spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=g, kappa=kappa)
            H = ground_sector_hamiltonian(spec, grid, lam=0.0)
            E, b, gam = polydisc_coordinates(H)
            c_init = max(c_init,
                         abs(E) / (g * g * rho ** (mu - 2.0)),
                         b / (g * g * rho ** (mu - 1.0)),
                         gam / (g * rho ** mu))
            track(H, n_steps)

    return {"c_rg": float(c_rg), "c_init": float(c_init)}
