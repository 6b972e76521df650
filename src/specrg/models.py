"""Desk-scale matter-field models: generalized spin-boson Hamiltonians,
complex dilation, the generalized Pauli-Fierz change of coupling, fiber
Hamiltonians at fixed total momentum, and mass renormalization.

The matter system is a finite N-level matrix standing in for a particle
Hamiltonian with isolated low-lying eigenvalues.  It couples linearly to the
scalar field through

    H = H_p (x) 1 + 1 (x) H_f + g Gamma (x) Phi(f),
    Phi(f) = sum_a sqrt(mass_a) f(k_a) (a_a + a*_a),   f(k) = chi(k)/sqrt(k),

with Gamma a Hermitian coupling matrix between levels (default: unit
off-diagonal entries) and chi the ultraviolet form factor.  This keeps every
spectral phenomenon the renormalization analysis addresses (ground state
below the unperturbed level, resonances with negative imaginary part,
mass shift of a freely moving dressed particle) while staying dense-solvable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fock import FockBasis, ModeGrid, dense, field_hamiltonian, ladder_walk
from .normalform import NormalFormHamiltonian, from_profile, slot_masses


def _gaussian_cutoff(kappa):
    return lambda k: np.exp(-(np.asarray(k) / kappa) ** 2)


@dataclass
class ModelSpec:
    """Particle levels, coupling strength, form factor, and profile choices.

    particle_levels must be strictly increasing.  gamma defaults to the full
    off-diagonal Hermitian matrix with unit entries; cutoff defaults to a
    Gaussian on scale kappa (analytic under k -> e^{-theta} k, as dilation
    needs); phi_profile defaults to the identity, the standard choice with
    phi'(0) = 1.
    """

    particle_levels: np.ndarray
    g: float
    kappa: float
    mass: float = 1.0
    gamma: np.ndarray | None = None
    cutoff: object = None
    phi_profile: object = None

    def __post_init__(self):
        self.particle_levels = np.asarray(self.particle_levels, dtype=float)
        if self.particle_levels.ndim != 1 or len(self.particle_levels) < 1:
            raise ValueError("particle_levels must be a nonempty 1-d array")
        if len(self.particle_levels) > 1 and not np.all(np.diff(self.particle_levels) > 0):
            raise ValueError("particle_levels must be strictly increasing")
        if self.g < 0:
            raise ValueError("g must be nonnegative")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        L = len(self.particle_levels)
        if self.gamma is None:
            self.gamma = np.ones((L, L), dtype=complex) - np.eye(L)
        else:
            self.gamma = np.asarray(self.gamma, dtype=complex)
            if self.gamma.shape != (L, L):
                raise ValueError("gamma must be L x L")
            if np.max(np.abs(self.gamma - self.gamma.conj().T)) > 1e-12:
                raise ValueError("gamma must be Hermitian")
        if self.cutoff is None:
            self.cutoff = _gaussian_cutoff(self.kappa)
        if abs(complex(self.cutoff(0.0)) - 1.0) > 1e-9:
            raise ValueError("form factor must satisfy chi(0) = 1")
        if self.phi_profile is None:
            self.phi_profile = lambda s: s
        dphi0 = _phi_prime(self.phi_profile, 0.0)
        if abs(dphi0 - 1.0) > 1e-6:
            raise ValueError(f"phi_profile must have phi'(0) = 1, measured {dphi0:.6f}")
        if L > 1:
            gap = float(np.min(np.diff(self.particle_levels)))
            if self.g > 0.1 * gap:
                warnings.warn(f"g = {self.g} is not small against the level gap {gap}")

    @property
    def n_levels(self) -> int:
        return len(self.particle_levels)

    @property
    def level_gap(self) -> float:
        if self.n_levels < 2:
            return np.inf
        return float(np.min(np.diff(self.particle_levels)))


def form_factor(spec: ModelSpec, k, theta=0.0):
    """Coupling function f(k) = chi(k)/sqrt(k), continued in the dilation angle to
    f_theta(k) = e^{-3 theta/2} chi(e^{-theta} k) / sqrt(e^{-theta} k)."""
    scaled_k = np.exp(-theta) * np.asarray(k, dtype=float)
    chi = np.asarray(spec.cutoff(scaled_k), dtype=complex)
    return np.exp(-1.5 * theta) * chi / np.sqrt(scaled_k)


def field_operator(spec: ModelSpec, basis: FockBasis, fvals=None) -> np.ndarray:
    """Phi(f) = sum_a sqrt(mass_a) f(k_a) (a_a + a*_a) on the truncated basis.

    Each move i -> i - e_a of fock.ladder_walk gives one entry of a_a and one of a*_a,
    both with coefficient sqrt(mass_a) f(k_a): Phi is Hermitian for real f and
    analytic in f, so Phi(f_theta) continues it in the dilation angle.
    """
    mass = slot_masses(basis.grid)
    if fvals is None:
        fvals = form_factor(spec, basis.grid.nodes)
    coef = np.sqrt(mass) * np.asarray(fvals, dtype=complex)
    upper, modes, lower, amp = ladder_walk(basis, np.arange(basis.dim), 1, "annihilate")
    mode = modes[:, 0]
    phi = np.zeros((basis.dim, basis.dim), dtype=complex)
    phi[upper, lower] += coef[mode] * amp
    phi[lower, upper] += coef[mode] * amp
    return phi


@dataclass
class CoupledModel:
    """Assembled matter-field model: H acts on C^L tensor Fock (L*D square).

    theta is the dilation angle; H is non-Hermitian for Im theta != 0.
    """

    spec: ModelSpec
    basis: FockBasis
    H: np.ndarray
    theta: complex = 0.0


def build_model(spec: ModelSpec, basis: FockBasis) -> CoupledModel:
    """The model H = H_p (x) 1 + 1 (x) H_f + g Gamma (x) Phi(f): its dilation at theta = 0."""
    return complex_dilate(spec, basis, 0.0)


# ---------------------------------------------------------------------------
# complex dilation
# ---------------------------------------------------------------------------

def complex_dilate(spec: ModelSpec, basis: FockBasis, theta: complex) -> CoupledModel:
    """Analytic continuation of the model in the dilation parameter.

    H_theta = H_p (x) 1 + e^{-theta} 1 (x) H_f + g Gamma (x) Phi(f_theta), particle
    index outer: f continues to f_theta(k) = e^{-3 theta/2} f(e^{-theta} k)
    (form_factor at theta), the scaling action on a creation operator over the
    d^3k measure.  The finite matter system is dilation-invariant.
    """
    if abs(np.imag(theta)) >= np.pi / 4:
        raise ValueError("dilation angle must satisfy |Im theta| < pi/4")
    fvals = form_factor(spec, basis.grid.nodes, theta)
    H = (np.kron(np.diag(spec.particle_levels).astype(complex), np.eye(basis.dim))
         + np.exp(-theta) * np.kron(np.eye(spec.n_levels), field_hamiltonian(basis))
         + spec.g * np.kron(spec.gamma, field_operator(spec, basis, fvals=fvals)))
    return CoupledModel(spec=spec, basis=basis, H=H, theta=theta)


def dilated_grid(grid: ModeGrid, theta: float) -> ModeGrid:
    """Covariantly rescaled grid {e^{-theta} k_i} with weights {e^{-3 theta} w_i}.

    For real theta, building the undeformed model on this grid reproduces the
    dilated matrix of complex_dilate exactly: the field diagonal picks up
    e^{-theta} and sqrt(mass') f(k') = sqrt(mass) f_theta(k) slot by slot.
    This gives a second, independent code path for the similarity claim.
    """
    s = float(theta)
    return ModeGrid(np.exp(-s) * grid.nodes, np.exp(-3.0 * s) * grid.weights)


# ---------------------------------------------------------------------------
# entry point for the renormalization flow
# ---------------------------------------------------------------------------

def ground_sector_hamiltonian(spec: ModelSpec, grid: ModeGrid,
                              lam: float) -> NormalFormHamiltonian:
    """Normal-form kernels of the model decimated onto its lowest particle level j = 0.

    Eliminating the other levels at second order in g (a Schur complement on
    the particle index with the free resolvent R_l(x) = (eps_l - lam + x)^-1)
    leaves, to O(g^3 max|Gamma_ll|) + O(g^4),

      w00(r)        = eps_j - lam + r
                      - g^2 sum_l |G_jl|^2 sum_a mass_a f(k_a)^2 R_l(r + k_a)
      w11(r; b; a)  = -g^2 sum_l |G_jl|^2 f(k_b) f(k_a) [R_l(r) + R_l(r+k_a+k_b)]
      w20(r; a, b)  = -g^2 sum_l |G_jl|^2 f(k_a) f(k_b)
                        (R_l(r+k_a) + R_l(r+k_b)) / 2        (w02 identical)

    plus first-order terms g Gamma_jj f(k) in the (1,0)/(0,1) slots when the
    kept level couples to itself.  The field energies of the kept sector
    must fit in I = [0,1]; a grid with n_max k_max > 1 will clamp, and
    assemble_term warns about it when the caller assembles.
    """
    eps = spec.particle_levels
    if spec.n_levels > 1 and lam >= eps[1]:
        raise ValueError("spectral parameter lam must sit below every decimated level")
    nodes = grid.nodes
    masses = slot_masses(grid)
    g = spec.g
    gj = np.abs(spec.gamma[0]) ** 2
    coupled = [l for l in range(1, spec.n_levels) if gj[l] != 0.0]
    fvec = form_factor(spec, nodes).real  # cutoff real, f real

    def fofk(k):
        return spec.cutoff(k) / np.sqrt(k)

    def w00(r):
        val = eps[0] - lam + r
        for l in coupled:
            val -= g * g * gj[l] * np.sum(masses * fvec ** 2
                                          / (eps[l] - lam + r[..., np.newaxis] + nodes), axis=-1)
        return val

    def w11(r, kb, ka):
        tot = 0.0
        for l in coupled:
            tot += gj[l] * (1.0 / (eps[l] - lam + r)
                            + 1.0 / (eps[l] - lam + r + ka + kb))
        return -g * g * fofk(kb) * fofk(ka) * tot

    def wpair(r, ka, kb):
        tot = 0.0
        for l in coupled:
            tot += gj[l] * 0.5 * (1.0 / (eps[l] - lam + r + ka)
                                  + 1.0 / (eps[l] - lam + r + kb))
        return -g * g * fofk(ka) * fofk(kb) * tot

    terms = {
        (0, 0): from_profile(0, 0, nodes, w00),
        (1, 1): from_profile(1, 1, nodes, w11),
        (2, 0): from_profile(2, 0, nodes, wpair),
        (0, 2): from_profile(0, 2, nodes, wpair),
    }
    diag = spec.gamma[0, 0]
    if abs(diag) > 0:
        terms[(1, 0)] = from_profile(1, 0, nodes, lambda r, k: g * diag * fofk(k))
        terms[(0, 1)] = from_profile(0, 1, nodes, lambda r, k: g * np.conj(diag) * fofk(k))
    return NormalFormHamiltonian(terms, grid)


# ---------------------------------------------------------------------------
# generalized Pauli-Fierz transform (scalarized)
# ---------------------------------------------------------------------------

def _phi_prime(phi, s):
    return (phi(s + 1e-5) - phi(s - 1e-5)) / 2e-5


def pf_gauge_function(spec: ModelSpec, x: float, k):
    """f_x(k) = e^{-ikx} phi(sqrt(k) x) / sqrt(k), the transform generator."""
    k = np.asarray(k, dtype=float)
    phi = spec.phi_profile
    return np.exp(-1j * k * x) * phi(np.sqrt(k) * x) / np.sqrt(k)


def pf_coupling(spec: ModelSpec, x: float, k):
    """Transformed coupling phi_x(k) = e^{-ikx} - d/dx f_x(k).

    With the gradient evaluated analytically in x,
    phi_x(k) = e^{-ikx} [ 1 - phi'(sqrt(k) x) + i k phi(sqrt(k) x)/sqrt(k) ].
    For phi(s) = s this is i k x e^{-ikx}: one full power of k better than the
    raw infrared behaviour 1/sqrt(k) of the coupling function.
    """
    k = np.asarray(k, dtype=float)
    phi = spec.phi_profile
    s = np.sqrt(k) * x
    phivals = phi(s)
    dphivals = _phi_prime(phi, s)
    return np.exp(-1j * k * x) * (1.0 - dphivals + 1j * k * phivals / np.sqrt(k))


def infrared_exponent(ks, vals) -> float:
    """Fitted power of the small-k behaviour of |vals|: the log-log slope
    through its 6 smallest-k nonzero points."""
    ks = np.asarray(ks, dtype=float)
    mag = np.abs(np.asarray(vals))
    order = np.argsort(ks)
    ks, mag = ks[order], mag[order]
    keep = mag > 0
    ks, mag = ks[keep][:6], mag[keep][:6]
    if len(ks) < 2:
        return np.inf
    slope, _ = np.polyfit(np.log(ks), np.log(mag), 1)
    return float(slope)


def pauli_fierz_transform(spec: ModelSpec, x_grid) -> dict:
    """Transformed-coupling report over a position grid.

    Returns the smallest admissible constant in the infrared bound
    |phi_x(k)| <= C min(1, sqrt(k) <x>), the per-x infrared exponents of the
    transformed coupling, and the untransformed control exponent, all read on
    48 geometric momenta from 1e-6 to min(1, kappa).
    """
    k_grid = np.geomspace(1e-6, min(1.0, spec.kappa), 48)
    x_grid = np.asarray(x_grid, dtype=float)
    exps = []
    C = 0.0
    rows = []
    for x in x_grid:
        vals = pf_coupling(spec, float(x), k_grid)
        exps.append(infrared_exponent(k_grid, vals * np.asarray(spec.cutoff(k_grid))))
        envelope = np.minimum(1.0, np.sqrt(k_grid) * np.hypot(1.0, x))
        C = max(C, float(np.max(np.abs(vals) / envelope)))
        rows.append(np.abs(vals))
    f_untransformed = np.abs(form_factor(spec, k_grid))
    exp_raw = infrared_exponent(k_grid, f_untransformed)
    return {
        "x_grid": x_grid,
        "k_grid": k_grid,
        "coupling_magnitudes": np.asarray(rows),
        "bound_constant": C,
        "exponents": np.asarray(exps),
        "untransformed_exponent": exp_raw,
    }


# ---------------------------------------------------------------------------
# fiber Hamiltonians and mass renormalization
# ---------------------------------------------------------------------------

def fiber_hamiltonian(spec: ModelSpec, basis: FockBasis, P: float) -> np.ndarray:
    """H(P) = (P - P_f - g Phi)^2 / 2m + H_f, momenta scalarized along P, so P_f = H_f."""
    if abs(P) >= 1.0 / 3.0:
        warnings.warn(f"|P| = {abs(P)} outside the controlled range |P| < 1/3")
    hf = field_hamiltonian(basis)
    A = dense(P * np.eye(basis.dim) - hf - spec.g * field_operator(spec, basis))
    return A @ A / (2.0 * spec.mass) + hf


def mass_renormalization(spec: ModelSpec, basis: FockBasis, p_grid) -> dict:
    """Fit E(P) = a + b P^2 + c P^3 over ground energies; m_ren = 1/(2b)."""
    p_grid = np.asarray(p_grid, dtype=float)
    if len(p_grid) < 4:
        raise ValueError("p_grid needs at least 4 points for the cubic fit")
    if np.max(np.abs(p_grid)) >= 1.0 / 3.0:
        raise ValueError("p_grid must stay inside |P| < 1/3")
    energies = []
    for P in p_grid:
        H = fiber_hamiltonian(spec, basis, float(P))
        energies.append(float(np.linalg.eigvalsh(H)[0]))
    energies = np.asarray(energies)
    design = np.stack([np.ones_like(p_grid), p_grid ** 2, p_grid ** 3], axis=1)
    coef, res, _, _ = np.linalg.lstsq(design, energies, rcond=None)
    fit = design @ coef
    residual = float(np.max(np.abs(fit - energies)))
    scale = max(1.0, float(np.max(np.abs(energies))))
    if residual > 1e-4 * scale:
        raise ValueError(f"fiber energy fit is ill conditioned (residual {residual:.3e})")
    b = coef[1]
    if b <= 0:
        raise ValueError("fit produced a nonpositive quadratic coefficient")
    return {
        "p_grid": p_grid,
        "energies": energies,
        "coefficients": coef,
        "m_ren": float(1.0 / (2.0 * b)),
        "residual": residual,
    }
