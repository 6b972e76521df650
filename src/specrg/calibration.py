"""Empirical calibration of the recursion constant for the polydisc flow.

The contraction theorem asserts existence of a constant c such that one
renormalization step maps the polydisc (alpha, beta, gamma) into
(alpha/rho + c gamma^2/2rho, beta + c gamma^2/2rho, c rho^mu gamma), and that
the initial transformed model lands in (c g^2 rho^(mu-2), c g^2 rho^(mu-1),
c g rho^mu).  No value of c is given, so it is measured: run the step over a
randomized kernel sweep plus physical model flows, record the largest ratio
each inequality needs, and freeze the results (see _calibration.py).  A
regression test recomputes the sweep with the same seed and asserts the
frozen values within ten percent.
"""

from __future__ import annotations

import numpy as np

from .fock import build_mode_grid
from .models import ModelSpec, ground_sector_hamiltonian
from .normalform import (MU, CouplingFunction, NormalFormHamiltonian, default_r_grid,
                         interaction_norm, slot_masses, subtract_constant, symmetrized)
from .rgflow import polydisc_coordinates, rg_step


def _random_polydisc_hamiltonian(rng, grid, rho, gamma_target):
    r_grid = default_r_grid()
    nodes = grid.nodes
    masses = slot_masses(grid)
    E = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * rho / 24.0
    slope_dev = rng.uniform(-1, 1) / 24.0
    w00 = E + r_grid * (1.0 + slope_dev)
    terms = {(0, 0): CouplingFunction(0, 0, r_grid, nodes, w00.astype(complex))}
    shapes = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    raw = {}
    for (m, n) in shapes:
        a0 = rng.standard_normal() + 1j * rng.standard_normal()
        a1 = 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
        r, *ks = np.ix_(r_grid, *[nodes] * (m + n))
        vals = np.ones((len(r_grid),) + (len(nodes),) * (m + n), dtype=complex) * (a0 + a1 * r)
        for k in ks:
            vals = vals * k ** (MU - 0.5)
        raw[(m, n)] = CouplingFunction(m, n, r_grid, nodes, symmetrized(vals, m, n))
    H = NormalFormHamiltonian({**terms, **raw}, masses)
    gamma = interaction_norm(H)
    scale = gamma_target / gamma
    for key in shapes:
        w = H.terms[key]
        H.terms[key] = CouplingFunction(w.m, w.n, w.r_grid, w.nodes, scale * w.values)
    return H


def calibrate_constants(seed: int = 0, n_random: int = 8, n_steps: int = 4,
                        rho: float = 0.5, mu: float = 0.5) -> dict:
    """Measured recursion and initial-membership constants.

    Returns {"c_rg": ..., "c_init": ...}: c_rg is the largest constant any of
    the three recursion inequalities requires along randomized and physical
    flows; c_init the largest the initial-membership inequalities require for
    the pre-decimated models.  mu must be MU, the one infrared exponent of
    the norms; any other value raises ValueError.
    """
    if mu != MU:
        raise ValueError(f"mu = {mu} differs from the norms' infrared exponent MU = {MU}")
    rng = np.random.default_rng(seed)
    grid = build_mode_grid(8, 0.5, "geometric")
    c_rg = 0.0

    def recenter(H):
        # mimic the spectral-parameter adjustment: pull the scalar part back
        # toward zero so iterated steps stay inside the domain of the map
        w00 = H.terms[(0, 0)]
        H.terms[(0, 0)] = subtract_constant(w00, w00.values[0])
        return H

    def track(H, steps):
        nonlocal c_rg
        E, b, gam = polydisc_coordinates(H)
        for _ in range(steps):
            H, _ = rg_step(H, rho)
            E2, b2, g2 = polydisc_coordinates(H)
            if gam > 0:
                c_rg = max(c_rg, g2 / (rho ** mu * gam))
                quad = gam ** 2 / (2.0 * rho)
                c_rg = max(c_rg, (abs(E2) - abs(E) / rho) / quad, (b2 - b) / quad)
            H = recenter(H)
            E, b, gam = polydisc_coordinates(H)

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
