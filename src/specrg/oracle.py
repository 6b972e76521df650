"""Dense reference computations: spectra, resonances, resolvent continuation,
and low-order perturbation theory.

Everything here is an independent cross-check for the renormalization
machinery: plain eigensolves on the assembled matrices, the textbook
second-order formulas summed over the discretized continuum, and pole fits of
resolvent matrix elements.  Nothing in this module goes through coupling
kernels or the flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import DEFAULT_DIM_CAP, dense
from .models import CoupledModel, ModelSpec, complex_dilate, form_factor
from .normalform import slot_masses


class SolverError(RuntimeError):
    pass


class NotFoundError(LookupError):
    pass


class ResolutionError(ValueError):
    pass


def exact_spectrum(H, k: int | None = None):
    """Sorted eigenvalues: k lowest if max|H - H*| < 1e-10, full set otherwise."""
    mat = dense(H)
    herm = bool(np.max(np.abs(mat - mat.conj().T)) < 1e-10) if mat.size else True
    if mat.shape[0] > DEFAULT_DIM_CAP:
        raise SolverError(f"dimension {mat.shape[0]} exceeds the dense cap {DEFAULT_DIM_CAP}")
    try:
        if herm:
            vals = np.linalg.eigvalsh(mat)
        else:
            vals = np.sort_complex(np.linalg.eigvals(mat))
    except np.linalg.LinAlgError as exc:
        raise SolverError(str(exc)) from exc
    if k is not None:
        vals = vals[:k]
    return vals


# An isolated eigenvalue near the seed converges in a handful of steps; a seed
# that does not single out one eigenvalue contracts too slowly to converge.
INVERSE_ITERATION_CAP = 50


def _nearest_eigenvalue(mat: np.ndarray, seed: complex, radius: float):
    """The eigenvalue of mat nearest seed, by inverse iteration with shift seed.

    (mat - seed)^-1 is formed once; a fixed pseudo-random start vector is
    mapped through it and normalized until the Rayleigh quotient
    lam = x* mat x has residual ||mat x - lam x|| <= 4 eps max(1, ||mat||_F),
    about ten times the rounding floor of that residual.
    An exactly singular shift is returned as it is, being an eigenvalue.
    NotFoundError: the estimate lies farther than radius from seed.
    SolverError: the estimate lies inside radius but has not converged after
    INVERSE_ITERATION_CAP steps, as when two eigenvalues are (nearly) equally
    close to seed.
    """
    n = mat.shape[0]
    try:
        inv = np.linalg.inv(mat - seed * np.eye(n))
    except np.linalg.LinAlgError:
        return complex(seed)
    tol = 4.0 * np.finfo(float).eps * max(1.0, float(np.linalg.norm(mat)))
    x = np.random.default_rng(0).standard_normal(n).astype(complex)
    for _ in range(INVERSE_ITERATION_CAP):
        x = inv @ x
        x /= np.linalg.norm(x)
        ax = mat @ x
        lam = complex(np.vdot(x, ax))
        converged = np.linalg.norm(ax - lam * x) <= tol
        if converged:
            break
    if not abs(lam - seed) <= radius:
        raise NotFoundError(
            f"no eigenvalue within radius {radius:.3g} of seed {seed:.6g} "
            f"(inverse iteration estimate at distance {abs(lam - seed):.3g})")
    if not converged:
        raise SolverError(
            f"inverse iteration from seed {seed:.6g} did not converge in "
            f"{INVERSE_ITERATION_CAP} steps: no single nearest eigenvalue")
    return lam


def _resonance_at_angles(D: CoupledModel, seed: complex, radius: float | None,
                         thetas) -> tuple[complex, list, float]:
    """z at D's angle, the resonance at each Im theta of thetas, and their spread.

    z is the eigenvalue of D nearest seed; at each other angle the dilation is
    re-built and the eigenvalue nearest z is located (at D's own angle it is z).
    The spread is the maximum pairwise distance of the located values.
    """
    if min(np.imag(D.theta), *thetas) <= 0:
        raise ValueError("resonance location needs Im theta > 0")
    spec = D.spec
    if radius is None:
        radius = 0.5 * spec.level_gap if np.isfinite(spec.level_gap) else 0.5
    z = _nearest_eigenvalue(D.H, seed, radius)
    zs = [z if t == np.imag(D.theta) else
          _nearest_eigenvalue(complex_dilate(spec, D.basis, np.real(D.theta) + 1j * t).H,
                              z, radius)
          for t in thetas]
    for v in (z, *zs):
        if np.imag(v) > 1e-10 * max(1.0, abs(v)):
            raise SolverError(f"resonance with positive imaginary part {v}")
    return z, zs, float(max(abs(a - b) for a in zs for b in zs))


# Im theta of the dilations across which a resonance must stay put
STABILITY_THETAS = (0.15, 0.2, 0.25)


def resonance_eigenvalue(D: CoupledModel, seed: complex, radius: float | None = None):
    """Nearest complex eigenvalue of the dilated model, with theta-stability.

    z is the eigenvalue of D nearest seed (within radius, default half the
    level gap), located by shifted inverse iteration, not a full eigensolve
    (`_nearest_eigenvalue` gives the stop and the NotFoundError/SolverError
    cases).  Stability is the maximum pairwise displacement of the eigenvalue
    nearest z across the Im theta of STABILITY_THETAS (the continuum branches
    rotate with theta, the discrete resonance must not); at D's own angle
    that is z.
    SolverError also when a located value has Im > 0 beyond solver noise.
    """
    z, _, stability = _resonance_at_angles(D, seed, radius, STABILITY_THETAS)
    return z, stability


def resonance_multiplicity(D: CoupledModel, center: complex, radius: float) -> int:
    """Algebraic multiplicity inside a disc: eigenvalue count with repetition."""
    vals = np.linalg.eigvals(D.H)
    return int(np.sum(np.abs(vals - center) < radius))


@dataclass
class PoleFit:
    pole: complex
    residue: complex
    background: complex
    samples_z: np.ndarray
    samples_f: np.ndarray
    residual: float


def _resolvent(H: np.ndarray, psi: np.ndarray, phi: np.ndarray, zs) -> np.ndarray:
    """<psi, (H - z)^-1 phi> at each z of zs, one linear solve per point."""
    eye = np.eye(H.shape[0])
    return np.array([np.vdot(psi, np.linalg.solve(H - z * eye, phi)) for z in zs],
                    dtype=complex)


def resolvent_element(D: CoupledModel, psi: np.ndarray, phi: np.ndarray, z_grid):
    """(values, flags): F(z) = <psi, (H_theta - z)^-1 phi> over the grid.

    Grid points closer than 1e-9 to an eigenvalue are skipped: their
    value is nan and their flag True.  fit_pole fits the pole form near one.
    """
    zs = np.asarray(z_grid, dtype=complex)
    eigs = np.linalg.eigvals(D.H)
    flags = np.array([np.min(np.abs(eigs - z)) < 1e-9 for z in zs], dtype=bool)
    values = np.full(len(zs), np.nan + 0j)
    values[~flags] = _resolvent(D.H, psi, phi, zs[~flags])
    return values, flags


def fit_pole(D: CoupledModel, psi: np.ndarray, phi: np.ndarray, seed: complex) -> PoleFit:
    """Fit F(z) = p/(pole - z) + a + b (z - pole) near the resonance at seed.

    Samples lie on three rays at 120 degree separation approaching the pole
    geometrically, at 6 radii halving from 0.3 times the distance to the
    nearest other eigenvalue; the linear system solves for (p, a, b) and the
    residual is the maximum relative misfit.  The residue certifies a genuine
    first-order pole when it is finite and nonzero.
    """
    eigs = np.linalg.eigvals(D.H)
    pole = complex(eigs[np.argmin(np.abs(eigs - seed))])
    others = eigs[np.abs(eigs - pole) > 1e-12]
    gap = float(np.min(np.abs(others - pole))) if len(others) else 1.0
    radii = 0.3 * gap * 0.5 ** np.arange(6)
    angles = np.exp(1j * (np.pi / 7 + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])))
    zs = (pole + np.outer(radii, angles)).ravel()
    fs = _resolvent(D.H, psi, phi, zs)
    design = np.stack([1.0 / (pole - zs), np.ones_like(zs), zs - pole], axis=1)
    coef, *_ = np.linalg.lstsq(design, fs, rcond=None)
    fitvals = design @ coef
    scale = np.max(np.abs(fs))
    residual = float(np.max(np.abs(fitvals - fs)) / scale) if scale > 0 else 0.0
    return PoleFit(pole=pole, residue=complex(coef[0]), background=complex(coef[1]),
                   samples_z=zs, samples_f=fs, residual=residual)


def combes_deviation(D: CoupledModel, covariant: CoupledModel, psi: np.ndarray,
                     phi: np.ndarray, z_grid) -> float:
    """Max deviation between the dilated resolvent element and its undeformed
    realization on the covariantly rescaled grid (real theta).

    For real theta the dilation is a unitary change of the one-photon
    discretization: the same model built on nodes e^-theta k with weights
    e^-3theta w has exactly the matrix of H_theta, and particle (x) vacuum
    vectors are fixed by the rotation.  Agreement of the two code paths is the
    discrete form of the analytic-continuation argument for matrix elements.
    """
    a, b = (_resolvent(H, psi, phi, z_grid) for H in (D.H, covariant.H))
    return float(max((abs(x - y) / max(abs(y), 1.0) for x, y in zip(a, b)), default=0.0))


def perturbation_oracle(spec: ModelSpec, grid) -> dict:
    """Second-order shifts and golden-rule widths over the discretized bath.

    Ground shift: g^2 sum_{l != 0} |Gamma_0l|^2 sum_a mass_a f(k_a)^2
    / (eps_0 - eps_l - k_a) (all denominators negative, so the level is
    pushed down).  Width of level j: the continuum golden-rule value
    pi g^2 sum_{l < j} |Gamma_jl|^2 Delta chi(Delta)^2 with Delta the decay
    gap; this closed form is independent of the grid, which is the point of
    the cross-check.
    """
    if spec.n_levels > 1 and spec.g > spec.level_gap / 10.0:
        raise ValueError("coupling outside the perturbative window g <= gap/10")
    eps = spec.particle_levels
    nodes = np.asarray(grid.nodes, dtype=float)
    masses = slot_masses(grid)
    g2 = spec.g ** 2
    gamma2 = np.abs(spec.gamma) ** 2

    f2 = np.abs(form_factor(spec, nodes)) ** 2
    shift = 0.0
    for l in range(1, spec.n_levels):
        shift += g2 * gamma2[0, l] * float(np.sum(masses * f2 / (eps[0] - eps[l] - nodes)))

    spacing = float(np.max(np.diff(np.concatenate(([0.0], nodes)))))

    widths = np.zeros(spec.n_levels)
    for j in range(spec.n_levels):
        for l in range(j):
            delta = eps[j] - eps[l]
            if delta <= nodes[-1] + spacing and delta < 10.0 * spacing:
                # the decay energy falls inside the discretized continuum
                # but the grid cannot resolve it
                raise ResolutionError(
                    f"decay gap {delta:.3g} under 10x the grid spacing {spacing:.3g}")
            chi = abs(complex(spec.cutoff(delta)))
            widths[j] += np.pi * g2 * gamma2[j, l] * delta * chi ** 2

    return {"ground_shift": float(shift), "widths": widths}
