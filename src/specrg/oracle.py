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

from .fock import DEFAULT_DIM_CAP
from .models import (CoupledModel, DeformedOperator, ModelSpec, build_model,
                     complex_dilate, form_factor)
from .normalform import FOUR_PI


class SolverError(RuntimeError):
    pass


class NotFoundError(LookupError):
    pass


class ResolutionError(ValueError):
    pass


def exact_spectrum(H, k: int | None = None):
    """Sorted eigenvalues: k lowest if max|H - H*| < 1e-10, full set otherwise."""
    mat = np.asarray(H, dtype=complex)
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


def ground_state(H) -> tuple[float, np.ndarray]:
    vals, vecs = np.linalg.eigh(np.asarray(H))
    return float(vals[0]), vecs[:, 0]


def _nearest_eigenvalue(mat: np.ndarray, seed: complex, radius: float):
    vals = np.linalg.eigvals(mat)
    dist = np.abs(vals - seed)
    order = np.argsort(dist)
    if dist[order[0]] > radius:
        raise NotFoundError(
            f"no eigenvalue within radius {radius:.3g} of seed {seed:.6g} "
            f"(closest at distance {dist[order[0]]:.3g})")
    return complex(vals[order[0]])


def resonance_eigenvalue(D: DeformedOperator, seed: complex,
                         radius: float | None = None,
                         stability_thetas=(0.15, 0.2, 0.25)):
    """Nearest complex eigenvalue of the dilated model, with theta-stability.

    The eigenvalue is located at D's own angle; stability is the maximum
    pairwise displacement of the re-located eigenvalue across the given
    Im theta triple (the continuum branches rotate with theta, the discrete
    resonance must not).  At D's own angle the eigenvalue is z itself and is
    not solved for again.  Contract: Im z <= 0 up to solver noise.
    """
    if np.imag(D.theta) <= 0:
        raise ValueError("resonance location needs Im theta > 0")
    spec = D.spec
    if radius is None:
        radius = 0.5 * spec.level_gap if np.isfinite(spec.level_gap) else 0.5
    z = _nearest_eigenvalue(D.H, seed, radius)
    zs = [z if t == np.imag(D.theta) else
          _nearest_eigenvalue(complex_dilate(spec, D.basis, np.real(D.theta) + 1j * t).H,
                              z, radius)
          for t in stability_thetas]
    stability = max(abs(a - b) for a in zs for b in zs)
    if np.imag(z) > 1e-10 * max(1.0, abs(z)):
        raise SolverError(f"resonance with positive imaginary part {z}")
    return z, float(stability)


def resonance_multiplicity(D: DeformedOperator, center: complex, radius: float) -> int:
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


def resolvent_element(D: DeformedOperator, psi: np.ndarray, phi: np.ndarray,
                      z_grid, pole_seed: complex | None = None,
                      cond_radius: float = 1e-9):
    """F(z) = <psi, (H_theta - z)^-1 phi> over the grid, plus a pole fit.

    Grid points closer than cond_radius to an eigenvalue are skipped and
    flagged.  When pole_seed is given, the pole form
    F(z) = p/(pole - z) + a + b (z - pole) is fitted on samples taken along
    three rays at 120 degrees around the located eigenvalue.
    """
    H = D.H
    dim = H.shape[0]
    eigs = np.linalg.eigvals(H)
    values = []
    flags = []
    for z in np.asarray(z_grid, dtype=complex):
        if np.min(np.abs(eigs - z)) < cond_radius:
            values.append(np.nan + 0j)
            flags.append(True)
            continue
        sol = np.linalg.solve(H - z * np.eye(dim), phi)
        values.append(complex(np.vdot(psi, sol)))
        flags.append(False)
    values = np.asarray(values)
    fit = None
    if pole_seed is not None:
        fit = fit_pole(D, psi, phi, pole_seed)
    return values, np.asarray(flags), fit


def fit_pole(D: DeformedOperator, psi: np.ndarray, phi: np.ndarray,
             seed: complex, n_radii: int = 6, r_max: float | None = None) -> PoleFit:
    """Fit F(z) = p/(pole - z) + a + b (z - pole) near the resonance at seed.

    Samples lie on three rays at 120 degree separation approaching the pole
    geometrically; the linear system solves for (p, a, b) and the residual is
    the maximum relative misfit.  The residue certifies a genuine first-order
    pole when it is finite and nonzero.
    """
    H = D.H
    dim = H.shape[0]
    eigs = np.linalg.eigvals(H)
    pole = complex(eigs[np.argmin(np.abs(eigs - seed))])
    others = eigs[np.abs(eigs - pole) > 1e-12]
    gap = float(np.min(np.abs(others - pole))) if len(others) else 1.0
    if r_max is None:
        r_max = 0.3 * gap
    radii = r_max * 0.5 ** np.arange(n_radii)
    angles = np.exp(1j * (np.pi / 7 + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])))
    zs = (pole + np.outer(radii, angles)).ravel()
    fs = []
    for z in zs:
        sol = np.linalg.solve(H - z * np.eye(dim), phi)
        fs.append(complex(np.vdot(psi, sol)))
    fs = np.asarray(fs)
    design = np.stack([1.0 / (pole - zs), np.ones_like(zs), zs - pole], axis=1)
    coef, *_ = np.linalg.lstsq(design, fs, rcond=None)
    fitvals = design @ coef
    scale = np.max(np.abs(fs))
    residual = float(np.max(np.abs(fitvals - fs)) / scale) if scale > 0 else 0.0
    return PoleFit(pole=pole, residue=complex(coef[0]), background=complex(coef[1]),
                   samples_z=zs, samples_f=fs, residual=residual)


def combes_deviation(model: CoupledModel, model_covariant: CoupledModel,
                     psi: np.ndarray, phi: np.ndarray, z_grid, theta: float,
                     D: DeformedOperator) -> float:
    """Max deviation between the dilated resolvent element and its undeformed
    realization on the covariantly rescaled grid (real theta).

    For real theta the dilation is a unitary change of the one-photon
    discretization: the same model built on nodes e^-theta k with weights
    e^-3theta w has exactly the matrix of H_theta, and particle (x) vacuum
    vectors are fixed by the rotation.  Agreement of the two code paths is the
    discrete form of the analytic-continuation argument for matrix elements.
    """
    Hd = D.H
    Hc = model_covariant.H
    dim = Hd.shape[0]
    dev = 0.0
    for z in np.asarray(z_grid, dtype=complex):
        a = np.vdot(psi, np.linalg.solve(Hd - z * np.eye(dim), phi))
        b = np.vdot(psi, np.linalg.solve(Hc - z * np.eye(dim), phi))
        denom = max(abs(b), 1.0)
        dev = max(dev, abs(a - b) / denom)
    return float(dev)


def perturbation_oracle(spec: ModelSpec, grid, order: int = 2) -> dict:
    """Second-order shifts and golden-rule widths over the discretized bath.

    Ground shift: g^2 sum_{l != 0} |Gamma_0l|^2 sum_a mass_a f(k_a)^2
    / (eps_0 - eps_l - k_a) (all denominators negative, so the level is
    pushed down).  Width of level j: the continuum golden-rule value
    pi g^2 sum_{l < j} |Gamma_jl|^2 Delta chi(Delta)^2 with Delta the decay
    gap; this closed form is independent of the grid, which is the point of
    the cross-check.  A discretization-error estimate (relative quadrature
    defect of the shift sum under grid coarsening by 2) is attached.
    """
    if order > 2 or order < 0:
        raise ValueError("perturbation order must be 0, 1 or 2")
    if spec.n_levels > 1 and spec.g > spec.level_gap / 10.0:
        raise ValueError("coupling outside the perturbative window g <= gap/10")
    eps = spec.particle_levels
    nodes = np.asarray(grid.nodes, dtype=float)
    masses = np.asarray(grid.weights, dtype=float) / FOUR_PI
    f2 = np.abs(form_factor(spec, nodes)) ** 2
    g2 = spec.g ** 2
    gamma2 = np.abs(spec.gamma) ** 2

    spacing = float(np.max(np.diff(np.concatenate(([0.0], nodes)))))
    shift = 0.0
    if order >= 2:
        for l in range(1, spec.n_levels):
            denom = eps[0] - eps[l] - nodes
            if np.min(np.abs(denom)) < 1e-12:
                raise ResolutionError("vanishing denominator in the shift sum")
            shift += g2 * gamma2[0, l] * float(np.sum(masses * f2 / denom))

    widths = np.zeros(spec.n_levels)
    if order >= 2:
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

    # quadrature defect of the shift under 2x coarsening (pairing cells)
    defect = 0.0
    if order >= 2 and len(nodes) >= 4 and spec.n_levels > 1:
        coarse_n = nodes[::2]
        coarse_m = masses[::2] + np.append(masses[1::2], 0.0)[:len(coarse_n)]
        f2c = np.abs(form_factor(spec, coarse_n)) ** 2
        shift_c = 0.0
        for l in range(1, spec.n_levels):
            shift_c += g2 * gamma2[0, l] * float(
                np.sum(coarse_m * f2c / (eps[0] - eps[l] - coarse_n)))
        defect = abs(shift_c - shift) / max(abs(shift), 1e-300)

    return {"ground_shift": float(shift), "widths": widths,
            "discretization_defect": float(defect)}
