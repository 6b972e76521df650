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

from .fock import DEFAULT_DIM_CAP, FockBasis, blocks, check_dense, dense, hermitian
from .models import CoupledModel, ModelSpec, form_factor
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


class SchurChain:
    """H_theta of (spec, basis, theta) as levels x states arrays (as ordered in
    complex_dilate), for exact Feshbach elimination over the photon number N: Phi
    moves N by +-1, the rest is diag.  g Gamma (x) Phi gathers w = sqrt(mass_a)
    f_theta(k_a) sqrt(n_a) at lower (up from N - 1) and v at upper (down from N + 1)
    of basis.shells; no dense Phi, LD x LD matrix or top-shell coupling is formed.
    ValueError: a dense complement (L x a shell below the top) over DEFAULT_DIM_CAP,
    or |Im theta| >= pi/4 (form_factor).
    """

    def __init__(self, spec: ModelSpec, basis: FockBasis, theta: complex = 0.0):
        self.off, self.lower, modes, amp, self.upper, camp = basis.shells
        check_dense(spec.n_levels * max(np.diff(self.off)[:-1], default=0))
        coef = dense(np.sqrt(slot_masses(basis.grid)) * form_factor(spec, basis.grid.nodes, theta))
        self.top, self.G = basis.n_max, dense(spec.g * spec.gamma)
        self.w, self.v = coef[modes] * amp, coef * camp
        self.diag = dense(spec.particle_levels[:, None] + np.exp(-theta) * basis.hf_diagonal())
        # ||H_theta||_F: an entry of w stands for two entries of H per (l, l')
        self.frobenius = float(np.sqrt(np.vdot(self.diag, self.diag).real + 2.0
                                       * np.vdot(self.G, self.G).real * np.vdot(self.w, self.w).real))

    def hop(self, X: np.ndarray, rows: slice, up: bool) -> np.ndarray:
        """Rows of g Gamma (x) Phi X, from shell N - 1 (up) or N + 1 into shell N."""
        idx, amp = (self.lower[rows], self.w[rows]) if up else (self.upper[rows], self.v[rows])
        return np.einsum("lm,mij,ij->li", self.G, X[:, idx], amp)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H_theta x, from the blocks."""
        X = x.reshape(len(self.G), -1)
        out = self.diag * X + self.hop(X, slice(None), True)
        out[:, :self.off[-2]] += self.hop(X, slice(self.off[-2]), False)
        return out.ravel()

    def complements(self, sigma: complex) -> tuple[dict, dict]:
        """Schur complements S[N] of H_theta - sigma, S[0] the L x L Feshbach map onto
        N = 0, and inverses R[N] of those eliminated: the diagonal top shell (levels x
        states; its moves scattered in pairs), then shells n_max - 1, ..., 1 densely.
        LinAlgError when an eliminated one is singular."""
        off, G, L = self.off, self.G, len(self.G)
        S, R = {self.top: self.diag[:, off[-2]:] - sigma}, {}
        for N in range(self.top, 0, -1):
            shell, d = slice(off[N - 1], off[N]), off[N] - off[N - 1]
            if N == self.top:
                if not np.all(S[N]):
                    raise np.linalg.LinAlgError("a top-shell pivot of H - sigma is 0")
                R[N], w = 1.0 / S[N], self.w[off[N]:]
                rows = (self.lower[off[N]:] - off[N - 1]) % d  # padding, at w = 0, to any row
                P = np.zeros((L, d, d), np.result_type(w, R[N]))
                np.add.at(P, (slice(None), rows[:, :, None], rows[:, None, :]),
                          w[:, :, None] * w[:, None, :] * R[N][:, :, None, None])
                K = np.einsum("al,lb,lij->aibj", G, G, P)
            else:
                R[N], a = np.linalg.inv(S[N]), np.zeros((d, off[N + 1] - off[N]), self.v.dtype)
                a[np.arange(d)[:, None], self.upper[shell] - off[N]] = self.v[shell]
                R4 = R[N].reshape(L, a.shape[1], L, a.shape[1])  # K = (G (x) a) R (G (x) a^T)
                K = np.einsum("lm,ij,mjnk,nr,sk->lirs", G, a, R4, G, a, optimize=True)
            S[N - 1] = np.diag((self.diag[:, shell] - sigma).ravel()) - K.reshape(L * d, -1)
        S[0] = S[0] if self.top else np.diag(S[0].ravel())
        return S, R

    def solver(self, sigma: complex):
        """x -> (H_theta - sigma)^-1 x: the elimination down to N = 0, then
        back-substitution.  LinAlgError when a complement, S[0] included, is singular."""
        S, R = self.complements(sigma)
        R[0], shell = np.linalg.inv(S[0]), list(map(slice, self.off, self.off[1:]))

        def inverse(N, Z):
            return Z * R[N] if N and N == self.top else (R[N] @ Z.ravel()).reshape(Z.shape)

        def solve(x: np.ndarray) -> np.ndarray:
            X = x.reshape(len(self.G), -1).astype(complex)
            for N in range(self.top, -1, -1):
                Z = X[:, shell[N]] - (self.hop(X, shell[N], False) if N < self.top else 0)
                X[:, shell[N]] = inverse(N, Z)
            for N in range(1, self.top + 1):
                X[:, shell[N]] -= inverse(N, self.hop(X, shell[N], True))
            return X.ravel()
        return solve


def _nearest_eigenvalue(chain: SchurChain, seed: complex, radius: float):
    """The eigenvalue of chain's H nearest seed, by shifted inverse iteration.

    A fixed pseudo-random start vector is mapped through chain.solver(seed)
    and normalized until the Rayleigh quotient lam = x* H x (chain.apply) has
    residual ||H x - lam x|| <= 4 eps max(1, chain.frobenius), about ten times
    the rounding floor of that residual.
    An exactly singular shift is returned as it is, being an eigenvalue.
    NotFoundError: the estimate lies farther than radius from seed.
    SolverError: the estimate lies inside radius but has not converged after
    INVERSE_ITERATION_CAP steps, as when two eigenvalues are (nearly) equally
    close to seed.
    """
    try:
        solve = chain.solver(seed)
    except np.linalg.LinAlgError:
        return complex(seed)
    tol = 4.0 * np.finfo(float).eps * max(1.0, chain.frobenius)
    x = np.random.default_rng(0).standard_normal(chain.diag.size).astype(complex)
    for _ in range(INVERSE_ITERATION_CAP):
        x = solve(x)
        x /= np.linalg.norm(x)
        ax = chain.apply(x)
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


def _resonance_at_angles(spec: ModelSpec, basis: FockBasis, theta: complex, seed: complex,
                         radius: float | None, thetas) -> tuple[complex, list, float]:
    """z at angle theta, the resonance at each Im theta of thetas, and their spread.

    z is the eigenvalue of H_theta nearest seed (within radius, default half the
    level gap); at each other angle a new SchurChain locates the eigenvalue nearest
    z (at theta itself it is z).  The spread is the maximum pairwise distance.
    """
    if min(np.imag(theta), *thetas) <= 0:
        raise ValueError("resonance location needs Im theta > 0")
    if radius is None:
        radius = 0.5 * spec.level_gap if np.isfinite(spec.level_gap) else 0.5
    z = _nearest_eigenvalue(SchurChain(spec, basis, theta), seed, radius)
    zs = [z if t == np.imag(theta) else
          _nearest_eigenvalue(SchurChain(spec, basis, np.real(theta) + 1j * t), z, radius)
          for t in thetas]
    for v in (z, *zs):
        if np.imag(v) > 1e-10 * max(1.0, abs(v)):
            raise SolverError(f"resonance with positive imaginary part {v}")
    return z, zs, float(max(abs(a - b) for a in zs for b in zs))


def ground_energy(spec: ModelSpec, basis: FockBasis) -> float:
    """Lowest eigenvalue of the model (theta = 0): the root of lambda_min(S[0](sigma))
    of its SchurChain, by regula falsi with the Illinois halving on [a Gershgorin
    lower bound, eps_0].  At every sigma each eliminated complement must pass a
    Cholesky test, or SolverError names sigma; then, by Haynsworth's inertia
    additivity, the root is the lowest eigenvalue of H, not just an eigenvalue.
    """
    chain = SchurChain(spec, basis)
    rows = np.abs(chain.w).sum(axis=1)  # sum |Phi| along each row
    rows[:chain.off[-2]] += np.abs(chain.v).sum(axis=1)
    lo = np.min(chain.diag - np.abs(chain.G).sum(1)[:, None] * rows)

    def lowest(sigma):
        try:
            S, _ = chain.complements(sigma)
            if chain.top and not np.all(S[chain.top] > 0):
                raise np.linalg.LinAlgError
            for N in range(1, chain.top):
                np.linalg.cholesky(S[N])
            return float(np.linalg.eigvalsh(S[0])[0])
        except np.linalg.LinAlgError:
            raise SolverError("an eliminated complement is not positive definite at "
                              f"sigma = {sigma!r}") from None
    (lo, f_lo), (hi, f_hi) = ((x, lowest(x)) for x in (float(lo), float(spec.particle_levels[0])))
    side, sigma = 0, hi if f_lo > 0 else lo
    # stop at a root or when the secant point, rounded, leaves the open bracket
    while f_lo > 0 > f_hi and lo < (sigma := (lo * f_hi - hi * f_lo) / (f_hi - f_lo)) < hi:
        if (f := lowest(sigma)) > 0:
            lo, f_lo, f_hi, side = sigma, f, f_hi / 2 if side > 0 else f_hi, 1
        else:
            hi, f_hi, f_lo, side = sigma, f, f_lo / 2 if side < 0 else f_lo, -1
    return min(max(sigma, lo), hi)


# Im theta of the dilations across which a resonance must stay put
STABILITY_THETAS = (0.15, 0.2, 0.25)


def resonance_eigenvalue(D: CoupledModel, seed: complex, radius: float | None = None):
    """Nearest complex eigenvalue of the dilated model, with theta-stability.

    z is the eigenvalue of D nearest seed (within radius, default half the
    level gap), located by shifted inverse iteration through a SchurChain
    solve (`_nearest_eigenvalue` gives the stop and the NotFoundError/SolverError
    cases).  Only D.spec, D.basis and D.theta are read, never D.H.  Stability
    is the maximum pairwise displacement of the eigenvalue nearest z across
    the Im theta of STABILITY_THETAS (the continuum branches rotate with
    theta, the discrete resonance must not); at D's own angle that is z.
    SolverError also when a located value has Im > 0 beyond solver noise.
    """
    z, _, stability = _resonance_at_angles(D.spec, D.basis, D.theta, seed, radius,
                                           STABILITY_THETAS)
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
    """<psi, (H_theta - z)^-1 phi> at each z of zs, by the SchurChain solve of D's
    spec, basis and theta."""
    chain = SchurChain(D.spec, D.basis, D.theta)
    return np.array([np.vdot(psi, chain.solver(z)(phi)) for z in zs], dtype=complex)


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
