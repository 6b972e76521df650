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

from .fock import DEFAULT_DIM_CAP, blocks, dense, hermitian
from .models import CoupledModel, ModelSpec, complex_dilate, form_factor
from .normalform import slot_masses


class SolverError(RuntimeError):
    pass


class NotFoundError(LookupError):
    pass


class ResolutionError(ValueError):
    pass


def exact_spectrum(H, k: int | None = None):
    """Sorted eigenvalues, or the k >= 1 lowest (ValueError for k < 1).

    eigvalsh (Hermitian by `fock.hermitian`) or eigvals runs on each connected
    block of H (`fock.blocks`) and the merged values are sorted; an irreducible
    H is one block, the same call on the same matrix.  SolverError above DEFAULT_DIM_CAP.
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, not {k}")
    if np.shape(H)[0] > DEFAULT_DIM_CAP:  # before any copy of a matrix it refuses
        raise SolverError(f"dimension {np.shape(H)[0]} exceeds the dense cap {DEFAULT_DIM_CAP}")
    mat = dense(H)
    herm = hermitian(mat)
    solve = np.linalg.eigvalsh if herm else np.linalg.eigvals
    try:
        vals = np.concatenate([solve(mat[np.ix_(b, b)]) for b in blocks(mat)] or [solve(mat)])
    except np.linalg.LinAlgError as exc:
        raise SolverError(str(exc)) from exc
    vals = np.sort(vals) if herm else np.sort_complex(vals)
    return vals if k is None else vals[:k]


# An isolated eigenvalue near the seed converges in a handful of steps; a seed
# that does not single out one eigenvalue contracts too slowly to converge.
INVERSE_ITERATION_CAP = 50


def _parity(D: CoupledModel) -> np.ndarray:
    """Photon-number parity of each state of D, particle index outer."""
    return np.tile(D.basis.states.sum(1) % 2, D.spec.n_levels)


def _default_radius(spec: ModelSpec) -> float:
    return 0.5 * spec.level_gap if np.isfinite(spec.level_gap) else 0.5


def _block_solver(mat: np.ndarray, shift: complex, radius: float, parity=None):
    """x -> (mat - shift)^-1 x by one Feshbach-Schur elimination.

    Phi is odd in the photon number, so each parity class of H_theta - shift
    is diagonal.  The larger class E is eliminated but for its states within
    radius of shift; the kept states K (the range of a Feshbach projection)
    carry S = (mat - shift)_KK - mat_KE (d_E - shift)^-1 mat_EK, the only
    matrix inverted: LinAlgError when S, so mat - shift, is singular.  Without
    a parity E is empty.  ValueError: the block to eliminate is not diagonal.
    """
    d = np.diagonal(mat) - shift
    elim = np.zeros(len(d), dtype=bool) if parity is None else (
        (parity == np.argmax(np.bincount(parity))) & (np.abs(d) > radius))
    E, K = np.flatnonzero(elim), np.flatnonzero(~elim)
    block = mat[np.ix_(E, E)]
    if np.count_nonzero(block) != np.count_nonzero(np.diagonal(block)):
        raise ValueError("the parity class to eliminate is not diagonal")
    left, right = mat[np.ix_(K, E)] / d[E], mat[np.ix_(E, K)]
    s_inv = np.linalg.inv(mat[np.ix_(K, K)] - shift * np.eye(len(K)) - left @ right)

    def solve(x: np.ndarray) -> np.ndarray:
        y = np.empty(len(d), dtype=complex)
        y[K] = s_inv @ (x[K] - left @ x[E])
        y[E] = (x[E] - right @ y[K]) / d[E]
        return y
    return solve


def _nearest_eigenvalue(mat: np.ndarray, seed: complex, radius: float, parity=None):
    """The eigenvalue of mat nearest seed, by inverse iteration with shift seed.

    A fixed pseudo-random start vector is mapped through (mat - seed)^-1
    (`_block_solver` with parity) and normalized until the Rayleigh quotient
    lam = x* mat x has residual ||mat x - lam x|| <= 4 eps max(1, ||mat||_F),
    about ten times the rounding floor of that residual.
    An exactly singular shift is returned as it is, being an eigenvalue.
    NotFoundError: the estimate lies farther than radius from seed.
    SolverError: the estimate lies inside radius but has not converged after
    INVERSE_ITERATION_CAP steps, as when two eigenvalues are (nearly) equally
    close to seed.
    """
    try:
        solve = _block_solver(mat, seed, radius, parity)
    except np.linalg.LinAlgError:
        return complex(seed)
    tol = 4.0 * np.finfo(float).eps * max(1.0, float(np.linalg.norm(mat)))
    x = np.random.default_rng(0).standard_normal(mat.shape[0]).astype(complex)
    for _ in range(INVERSE_ITERATION_CAP):
        x = solve(x)
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
    spec, parity = D.spec, _parity(D)
    radius = _default_radius(spec) if radius is None else radius
    z = _nearest_eigenvalue(D.H, seed, radius, parity)
    zs = [z if t == np.imag(D.theta) else
          _nearest_eigenvalue(complex_dilate(spec, D.basis, np.real(D.theta) + 1j * t).H,
                              z, radius, parity)
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
    level gap), located by shifted inverse iteration on the Feshbach-Schur
    complement of D's kept states (`_block_solver`; `_nearest_eigenvalue`
    gives the stop and the NotFoundError/SolverError cases).  Stability is the maximum pairwise displacement of the eigenvalue
    nearest z across the Im theta of STABILITY_THETAS (the continuum branches
    rotate with theta, the discrete resonance must not); at D's own angle
    that is z.
    SolverError also when a located value has Im > 0 beyond solver noise.
    """
    z, _, stability = _resonance_at_angles(D, seed, radius, STABILITY_THETAS)
    return z, stability


def resonance_multiplicity(D: CoupledModel, center: complex, radius: float) -> int:
    """Algebraic multiplicity inside a disc: eigenvalue count with repetition.

    The eigenvalues are `exact_spectrum`'s, so DEFAULT_DIM_CAP applies.
    """
    return int(np.sum(np.abs(exact_spectrum(D.H) - center) < radius))


@dataclass
class PoleFit:
    pole: complex
    residue: complex
    background: complex
    samples_z: np.ndarray
    samples_f: np.ndarray
    residual: float


def _resolvent(D: CoupledModel, psi: np.ndarray, phi: np.ndarray, zs) -> np.ndarray:
    """<psi, (H_theta - z)^-1 phi> at each z of zs, by `_block_solver` with D's
    parity and the default radius."""
    radius, parity = _default_radius(D.spec), _parity(D)
    return np.array([np.vdot(psi, _block_solver(D.H, z, radius, parity)(phi)) for z in zs],
                    dtype=complex)


def fit_pole(D: CoupledModel, psi: np.ndarray, phi: np.ndarray, seed: complex) -> PoleFit:
    """Fit F(z) = p/(pole - z) + a + b (z - pole) near the resonance at seed.

    Samples lie on three rays at 120 degree separation approaching the pole
    geometrically, at 6 radii halving from 0.3 times the distance to the
    nearest other eigenvalue; the linear system solves for (p, a, b) and the
    residual is the maximum relative misfit.  The residue certifies a genuine
    first-order pole when it is finite and nonzero.  The pole and the distance
    come from `exact_spectrum`, so DEFAULT_DIM_CAP applies.
    """
    eigs = exact_spectrum(D.H)
    pole = complex(eigs[np.argmin(np.abs(eigs - seed))])
    others = eigs[np.abs(eigs - pole) > 1e-12]
    gap = float(np.min(np.abs(others - pole))) if len(others) else 1.0
    radii = 0.3 * gap * 0.5 ** np.arange(6)
    angles = np.exp(1j * (np.pi / 7 + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])))
    zs = (pole + np.outer(radii, angles)).ravel()
    fs = _resolvent(D, psi, phi, zs)
    design = np.stack([1.0 / (pole - zs), np.ones_like(zs), zs - pole], axis=1)
    coef, *_ = np.linalg.lstsq(design, fs, rcond=None)
    scale = np.max(np.abs(fs))
    residual = float(np.max(np.abs(design @ coef - fs)) / scale) if scale > 0 else 0.0
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
    a, b = (_resolvent(M, psi, phi, z_grid) for M in (D, covariant))
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
    shift = sum((g2 * gamma2[0, l] * float(np.sum(masses * f2 / (eps[0] - eps[l] - nodes)))
                 for l in range(1, spec.n_levels)), 0.0)

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
