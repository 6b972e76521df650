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

from . import rgflow
from .fock import FockBasis, ModeGrid, check_dense
from .normalform import R_GRID, CouplingFunction, NormalFormHamiltonian, slot_masses


@dataclass
class ModelSpec:
    """Particle levels, coupling strength, form-factor scale, mass and level coupling.

    particle_levels must be strictly increasing.  gamma defaults to the full
    off-diagonal Hermitian matrix with unit entries.  The form factor is the
    Gaussian chi(k) = exp(-(k/kappa)^2) (`cutoff`), analytic under
    k -> e^{-theta} k as dilation needs, and chi(0) = 1.
    """

    particle_levels: np.ndarray
    g: float
    kappa: float
    mass: float = 1.0
    gamma: np.ndarray | None = None

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
        if self.g > 0.1 * self.level_gap:
            warnings.warn(f"g = {self.g} is not small against the level gap {self.level_gap}")

    @property
    def n_levels(self) -> int:
        return len(self.particle_levels)

    @property
    def level_gap(self) -> float:
        if self.n_levels < 2:
            return np.inf
        return float(np.min(np.diff(self.particle_levels)))

    def cutoff(self, k):
        """The form factor chi(k) = exp(-(k/kappa)^2)."""
        return np.exp(-(np.asarray(k) / self.kappa) ** 2)


def form_factor(spec: ModelSpec, k, theta=0.0):
    """Coupling function f(k) = chi(k)/sqrt(k), continued in the dilation angle to
    f_theta(k) = e^{-3 theta/2} chi(e^{-theta} k) / sqrt(e^{-theta} k), for |Im theta| < pi/4
    (ValueError otherwise), where the cutoff chi still decays."""
    if abs(np.imag(theta)) >= np.pi / 4:
        raise ValueError("dilation angle must satisfy |Im theta| < pi/4")
    scaled_k = np.exp(-theta) * np.asarray(k, dtype=float)
    chi = np.asarray(spec.cutoff(scaled_k), dtype=complex)
    return np.exp(-1.5 * theta) * chi / np.sqrt(scaled_k)


def field_operator(spec: ModelSpec, basis: FockBasis, fvals=None) -> np.ndarray:
    """Phi(f) = sum_a sqrt(mass_a) f(k_a) (a_a + a*_a) on the truncated basis.

    Each move i -> lower[i, a] of the basis gives one entry of a_a, and the
    transpose those of a*_a, with coefficient sqrt(mass_a) f(k_a): Phi is Hermitian
    for real f and analytic in f, so Phi(f_theta) continues it in the dilation angle.
    Phi has f's dtype, complex for the form factor's.
    """
    check_dense(basis.dim)
    mass = slot_masses(basis.grid)
    if fvals is None:
        fvals = form_factor(spec, basis.grid.nodes)
    coef = np.sqrt(mass) * np.asarray(fvals)
    i, mode = np.nonzero(basis.lower >= 0)
    phi = np.zeros((basis.dim, basis.dim), dtype=coef.dtype)
    phi[basis.lower[i, mode], i] = phi[i, basis.lower[i, mode]] = (
        coef[mode] * np.sqrt(basis.states[i, mode]))
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
    d^3k measure.  The finite matter system is dilation-invariant.  H_theta is
    np.kron(Gamma, Phi(f_theta)) times g, plus eps_l + e^{-theta} H_f on its diagonal.
    """
    check_dense(spec.n_levels * basis.dim)
    H = np.kron(spec.gamma, field_operator(spec, basis,
                                           fvals=form_factor(spec, basis.grid.nodes, theta)))
    H *= spec.g
    diag = np.arange(len(H))
    H[diag, diag] = (spec.particle_levels[:, None]
                     + np.exp(-theta) * basis.hf_diagonal()).ravel() + H[diag, diag]
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
                              lam: float | np.ndarray) -> NormalFormHamiltonian:
    """Normal-form kernels of the model decimated onto its lowest particle level 0.

    To O(g^3 max|Gamma_ll|) + O(g^4) the Schur complement on the particle
    index is H = eps_0 - lam + r + g Gamma_00 Phi - :Phi G(H_f) Phi:, with

      G(x) = g^2 sum_{l >= 1} |Gamma_0l|^2 / (eps_l - lam + x)

    and Phi's (1,0) and (0,1) kernels f = form_factor(spec, k), uncast and constant in r.
    rgflow.normal_order_product orders it with every pull-through shift and drops
    nothing.  Kernels zero by structure (Gamma_00 = 0, level 0 uncoupled) are left out.
    An array lam gives the family H(lam) on a member axis, as rgflow.rg_step takes it, from
    one Phi G Phi product; each member is the build at its lam bit for bit.
    """
    eps, g, nodes, lam = spec.particle_levels, spec.g, grid.nodes, np.asarray(lam)
    if spec.n_levels > 1 and np.any(lam >= eps[1]):
        raise ValueError("spectral parameter lam must sit below every decimated level")
    f = np.broadcast_to(form_factor(spec, nodes), lam.shape + (len(R_GRID), len(nodes)))
    weight = g * g * np.abs(spec.gamma[0]) ** 2
    coupled = [l for l in range(1, spec.n_levels) if weight[l] != 0.0]
    tables = {(0, 0): eps[0] - lam[..., np.newaxis] + R_GRID}
    if coupled:
        def G(x):  # lam's member axis, then x's
            lam_x = lam.reshape(lam.shape + (1,) * np.ndim(x))
            return sum(weight[l] / (eps[l] - lam_x + x) for l in coupled)

        phi = {(1, 0): CouplingFunction(1, 0, nodes, f), (0, 1): CouplingFunction(0, 1, nodes, f)}
        # G decreases on x >= 0, so G(0) is its sup there
        vgv, _ = rgflow.normal_order_product(phi, phi, G, slot_masses(grid), 2, G(0.0))
        tables.update({key: tables.get(key, 0.0) - w.values for key, w in vgv.items()})
    diag = spec.gamma[0, 0]
    if abs(diag) > 0:
        tables.update({(1, 0): g * diag * f, (0, 1): g * np.conj(diag) * f})
    return NormalFormHamiltonian({(m, n): CouplingFunction(m, n, nodes, vals)
                                  for (m, n), vals in tables.items()}, grid)


# ---------------------------------------------------------------------------
# generalized Pauli-Fierz transform (scalarized)
# ---------------------------------------------------------------------------

def pf_coupling(x: float, k):
    """Transformed coupling phi_x(k) = e^{-ikx} - d/dx f_x(k) = i k x e^{-ikx}.

    The gauge function is f_x(k) = e^{-ikx} phi(sqrt(k) x) / sqrt(k) with the
    standard profile phi(s) = s, so f_x(k) = x e^{-ikx}.  phi_x vanishes like k
    at k -> 0, where the untransformed coupling function grows like 1/sqrt(k).
    """
    k = np.asarray(k, dtype=float)
    return 1j * k * x * np.exp(-1j * k * x)


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
    vals = [pf_coupling(float(x), k_grid) for x in x_grid]
    envelopes = [np.minimum(1.0, np.sqrt(k_grid) * np.hypot(1.0, x)) for x in x_grid]
    return {
        "x_grid": x_grid,
        "k_grid": k_grid,
        "coupling_magnitudes": np.asarray([np.abs(v) for v in vals]),
        "bound_constant": max([0.0] + [float(np.max(np.abs(v) / e))
                                       for v, e in zip(vals, envelopes)]),
        "exponents": np.asarray([infrared_exponent(k_grid, v * np.asarray(spec.cutoff(k_grid)))
                                 for v in vals]),
        "untransformed_exponent": infrared_exponent(k_grid, np.abs(form_factor(spec, k_grid))),
    }


# ---------------------------------------------------------------------------
# fiber Hamiltonians and mass renormalization
# ---------------------------------------------------------------------------

def _fiber_parts(spec: ModelSpec, basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """B = H_f + g Phi and K = B^2/2m + H_f, so that H(P) = K - (P/m) B + P^2/2m, formed
    in place in float64: Phi from the form factor's real part, H_f on the diagonals."""
    B = field_operator(spec, basis, form_factor(spec, basis.grid.nodes).real)
    B *= spec.g
    B[np.diag_indices(basis.dim)] += basis.hf_diagonal()
    K = B @ B
    K /= 2.0 * spec.mass
    K[np.diag_indices(basis.dim)] += basis.hf_diagonal()
    return B, K


def fiber_hamiltonian(spec: ModelSpec, basis: FockBasis, P: float) -> np.ndarray:
    """H(P) = (P - P_f - g Phi)^2 / 2m + H_f, momenta scalarized along P, so P_f = H_f.

    Expanded in P it is K - (P/m) B + P^2/2m with B = H_f + g Phi and
    K = B^2/2m + H_f (`_fiber_parts`), the one formula the mass fit uses.
    """
    if abs(P) >= 1.0 / 3.0:
        warnings.warn(f"|P| = {abs(P)} outside the controlled range |P| < 1/3")
    B, K = _fiber_parts(spec, basis)
    return K - (P / spec.mass) * B + (P * P / (2.0 * spec.mass)) * np.eye(basis.dim)


def _fiber_ground_energies(spec: ModelSpec, basis: FockBasis, p_grid: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of H(P) at each P of p_grid: B and K are formed once,
    and each P costs one eigvalsh of K - (P/m) B, plus P^2/2m."""
    B, K = _fiber_parts(spec, basis)
    return np.array([np.linalg.eigvalsh(K - (P / spec.mass) * B)[0] + P * P / (2.0 * spec.mass)
                     for P in p_grid], dtype=float)


def mass_renormalization(spec: ModelSpec, basis: FockBasis, p_grid) -> dict:
    """Fit E(P) = a + b P^2 + c P^3 over ground energies; m_ren = 1/(2b).

    The fiber ground energies come from `_fiber_ground_energies`: the P-free
    parts of H(P) are formed once per fit, so no P costs a matrix product.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    if len(p_grid) < 4:
        raise ValueError("p_grid needs at least 4 points for the cubic fit")
    if np.max(np.abs(p_grid)) >= 1.0 / 3.0:
        raise ValueError("p_grid must stay inside |P| < 1/3")
    energies = _fiber_ground_energies(spec, basis, p_grid)
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
