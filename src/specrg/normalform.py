"""Generalized-normal-form Hamiltonians and their anisotropic norms.

A Hamiltonian is a collection of coupling functions w_{m,n}(r; k_1..k_{m+n})
with r in I = [0,1] standing for the field energy and each momentum slot
running over the radial grid nodes.  The operator it represents is

    H = sum_{m,n} W_{m,n},
    W_{m,n} = sum over node multi-indices of
              prod_i sqrt(mass_i) a*(k_i) w_{m,n}(H_f; k) prod_j sqrt(mass_j) a(k_j),

where mass_i = weight_i / (4 pi) is the radial quadrature measure k^2 dk
(the angular 4 pi is kept out of the slot measure so that the operator-norm
bound below carries the same constant as in the continuum), and w is
evaluated at the field energy of the intermediate state sitting between the
creation block and the annihilation block.  This placement is the one
consistent with pull-through bookkeeping.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial

import numpy as np

from .fock import FockBasis, ModeGrid, OperatorMatrix, ladder_walk

FOUR_PI = 4.0 * np.pi

DEFAULT_R_POINTS = 33

# Banach weight xi in (0, 1) of the norm sum_{m,n} xi^-(m+n) ||w_{m,n}||_{mu,1}
XI = 0.5

# infrared exponent mu of that norm, one value for the whole flow
MU = 0.5


def default_r_grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, DEFAULT_R_POINTS)


def interp_axis(values, xp, x, axis: int = 0) -> np.ndarray:
    """Complex table values sampled at x along one axis, for every column at once.

    This is the one rule by which kernels are read off their grids: linear
    between the nodes xp (strictly increasing) and clamped into [xp[0], xp[-1]].
    x may have any shape; its axes take the place of the interpolated one.
    Real and imaginary parts follow np.interp's formula slope * (x - xp[j]) +
    fp[j] separately, so every column equals np.interp bit for bit.
    """
    xp = np.asarray(xp, dtype=float)
    x = np.clip(np.asarray(x, dtype=float), xp[0], xp[-1])
    values = np.asarray(values, dtype=complex)
    if values.shape[axis] != len(xp):
        raise ValueError(f"axis {axis} has {values.shape[axis]} entries, xp has {len(xp)}")
    if values.ndim == 1:
        # a single column (the scalar kernel) is cheaper through np.interp
        return np.interp(x, xp, values.real) + 1j * np.interp(x, xp, values.imag)
    axis = axis % values.ndim
    table = np.ascontiguousarray(np.moveaxis(values, axis, 0) if axis else values)
    parts = table.view(float).reshape(table.shape + (2,))  # (re, im) last
    j = np.searchsorted(xp, x, side="right") - 1
    j_next = np.minimum(j + 1, len(xp) - 1)
    # at the top node the slope is 0, so the value is fp[-1] exactly
    dx = np.where(j_next > j, xp[j_next] - xp[j], 1.0)
    cols = (Ellipsis,) + (np.newaxis,) * (parts.ndim - 1)
    fp_j = parts[j]
    out = (parts[j_next] - fp_j) / dx[cols]
    out *= (x - xp[j])[cols]
    out += fp_j
    out = out.view(complex)[..., 0]
    return np.moveaxis(out, range(x.ndim), range(axis, axis + x.ndim)) if axis else out


def symmetrized(values: np.ndarray, m: int, n: int) -> np.ndarray:
    """Kernel table averaged over swaps of its first two creation and annihilation slots."""
    vals = 0.5 * (values + np.swapaxes(values, 1, 2)) if m >= 2 else values
    if n >= 2:
        vals = 0.5 * (vals + np.swapaxes(vals, 1 + m, 2 + m))
    return vals


class CouplingFunction:
    """Discretized kernel w_{m,n}(r; k_1..k_{m+n}).

    values has shape (len(r_grid),) + (len(nodes),) * (m + n), the first m
    momentum axes being creation slots and the last n annihilation slots.
    dr_values holds the r-derivative on the same grid; when omitted it is
    produced by central differences the first time it is read.  The profile
    callable profile(r, k_1, ..., k_{m+n}) that from_profile keeps lets
    scale_coupling re-tabulate the kernel instead of interpolating it.
    """

    def __init__(self, m: int, n: int, r_grid, nodes, values, dr_values=None, profile=None):
        self.m, self.n, self.profile = m, n, profile
        self.r_grid = np.asarray(r_grid, dtype=float)
        self.nodes = np.asarray(nodes, dtype=float)
        self.values = np.asarray(values, dtype=complex)
        for name in ("r_grid", "nodes"):
            if not np.all(np.diff(getattr(self, name)) > 0):
                raise ValueError(f"{name} must be strictly increasing")
        expected = (len(self.r_grid),) + (len(self.nodes),) * self.order
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape}, expected {expected}")
        if dr_values is not None:
            dr_values = np.asarray(dr_values, dtype=complex)
            if dr_values.shape != expected:
                raise ValueError("dr_values shape mismatch")
        self._dr_values = dr_values
        if not np.all(np.isfinite(self.values)):
            raise ValueError("kernel values must be finite")

    @property
    def dr_values(self) -> np.ndarray:
        if self._dr_values is None:
            self._dr_values = np.gradient(self.values, self.r_grid, axis=0)
        return self._dr_values

    @property
    def order(self) -> int:
        return self.m + self.n

    def at_r(self, r):
        """Kernel sampled at field energies r (clamped to I), shape r + slots."""
        return interp_axis(self.values, self.r_grid, np.atleast_1d(r))

    def symmetry_deviation(self) -> float:
        """Max change under swapping two creation or two annihilation slots."""
        dev = 0.0
        if self.m >= 2:
            dev = max(dev, float(np.max(np.abs(self.values - np.swapaxes(self.values, 1, 2)))))
        if self.n >= 2:
            a = 1 + self.m
            dev = max(dev, float(np.max(np.abs(self.values - np.swapaxes(self.values, a, a + 1)))))
        return dev


def from_profile(m, n, r_grid, nodes, func) -> CouplingFunction:
    """Tabulate func(r, k_1, .., k_{m+n}) on the grid and keep it for rescaling.

    func is called once, on the open mesh np.ix_(r_grid, nodes, .., nodes);
    a result that does not broadcast to the table shape raises ValueError.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    shape = (len(r_grid),) + (len(nodes),) * (m + n)
    vals = np.asarray(func(*np.ix_(r_grid, *[nodes] * (m + n))), dtype=complex)
    vals = np.array(np.broadcast_to(vals, shape))
    return CouplingFunction(m, n, r_grid, nodes, vals, profile=func)


def _norm_weight(w: CouplingFunction, mu: float):
    """Slot weight min_j |k_j|^-mu prod_i |k_i|^1/2 of the anisotropic norm (1 for m + n = 0)."""
    if w.order == 0:
        return 1.0
    slots = np.ix_(*[w.nodes] * w.order)
    root_prod, kmin = 1.0, slots[0]
    for k in slots:
        root_prod = root_prod * np.sqrt(k)
        kmin = np.minimum(kmin, k)
    return kmin ** (-mu) * root_prod


def coupling_norm_mu(w: CouplingFunction, mu: float) -> float:
    """Anisotropic sup norm max_j sup |k_j|^-mu prod_i |k_i|^1/2 w.

    For m + n = 0 the empty momentum product degenerates to sup_r |w|.
    """
    return float(np.max(_norm_weight(w, mu) * np.abs(w.values)))


def coupling_norm_mu1(w: CouplingFunction, mu: float) -> float:
    """||w||_mu + ||dw/dr||_mu."""
    weight = _norm_weight(w, mu)
    return float(np.max(weight * np.abs(w.values))) + float(np.max(weight * np.abs(w.dr_values)))


@dataclass
class NormalFormHamiltonian:
    """Collection {w_{m,n}} for m+n <= M_max with its slot measure (mu is MU, xi is XI).

    masses is the radial quadrature measure per node (k^2 dk, the weights of
    a ModeGrid divided by 4 pi) that the contraction sums of a step read.
    """

    terms: dict
    masses: np.ndarray
    M_max: int = 2

    def __post_init__(self):
        for (m, n), w in self.terms.items():
            if (m, n) != (w.m, w.n):
                raise ValueError(f"term key {(m, n)} disagrees with kernel ({w.m}, {w.n})")
            if m + n > self.M_max:
                raise ValueError(f"term ({m},{n}) exceeds M_max={self.M_max}")
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.shape != self.nodes.shape:
            raise ValueError("masses must align with the kernel nodes")

    @property
    def r_grid(self) -> np.ndarray:
        return next(iter(self.terms.values())).r_grid

    @property
    def nodes(self) -> np.ndarray:
        return next(iter(self.terms.values())).nodes


def hamiltonian_norm(H: NormalFormHamiltonian) -> float:
    """Banach norm sum_{m,n} xi^-(m+n) ||w_{m,n}||_{mu,1}."""
    total = 0.0
    for (m, n), w in H.terms.items():
        total += XI ** (-(m + n)) * coupling_norm_mu1(w, MU)
    return total


def subtract_constant(w00: CouplingFunction, c) -> CouplingFunction:
    """The scalar kernel w00 - c; a constant shift keeps the r-derivative."""
    return CouplingFunction(0, 0, w00.r_grid, w00.nodes, w00.values - c,
                            dr_values=w00.dr_values)


def split(H: NormalFormHamiltonian):
    """Decompose H into (E, W): the scalar part w00(0) and the interaction terms.

    The field part T = w00 - E is not formed; t_slope_deviation reads its
    slope off w00.
    """
    w00 = H.terms.get((0, 0))
    if w00 is None:
        raise ValueError("split requires the (0,0) term")
    if w00.r_grid[0] != 0.0:
        raise ValueError("r_grid must start at 0 to read off E = w_00(0)")
    return complex(w00.values[0]), {key: w for key, w in H.terms.items() if key != (0, 0)}


def t_slope_deviation(H: NormalFormHamiltonian) -> float:
    """sup_r |T'(r) - 1|, the marginal-direction displacement (T' = w00')."""
    return float(np.max(np.abs(H.terms[(0, 0)].dr_values - 1.0)))


def interaction_norm(H: NormalFormHamiltonian) -> float:
    """||W||_{mu,xi}: the Banach norm of the m+n >= 1 part."""
    total = 0.0
    for (m, n), w in H.terms.items():
        if m + n >= 1:
            total += XI ** (-(m + n)) * coupling_norm_mu1(w, MU)
    return total


def slot_masses(grid: ModeGrid) -> np.ndarray:
    """Radial measure k^2 dk per node: quadrature weight divided by 4 pi."""
    return grid.weights / FOUR_PI


def assemble_term(w: CouplingFunction, basis: FockBasis) -> np.ndarray:
    """Dense matrix of one monomial W_{m,n} on the truncated basis.

    Every column is walked through every ordered tuple J of n annihilations,
    the kernel is read at the field energy of the intermediate state, and the
    walk continues through every ordered tuple I of m creations.  The moves
    and the hard-cutoff truncation come from fock.ladder_walk; contributions
    to one matrix entry are summed in (J, I) lexicographic order.  Field
    energies above the end of the kernel's r grid read its last value, and a
    warning says so.
    """
    if len(w.nodes) != basis.n_modes or not np.allclose(w.nodes, basis.grid.nodes):
        raise ValueError("kernel nodes do not match the basis grid")
    D = basis.dim
    root_mass = np.sqrt(slot_masses(basis.grid))
    hf = basis.hf_diagonal()
    if hf.max() > w.r_grid[-1]:
        warnings.warn(f"field energies up to {hf.max():.6g} exceed the kernel grid end "
                      f"{w.r_grid[-1]:.6g}; the kernel is clamped there", stacklevel=2)
    kern_at_hf = w.at_r(hf)  # (D,) + slots
    cols, J, mid, amp_a = ladder_walk(basis, np.arange(D), w.n, "annihilate")
    src, I, top, amp_c = ladder_walk(basis, mid, w.m, "create")
    cols, J, mid, amp_a = cols[src], J[src], mid[src], amp_a[src]
    slots = np.column_stack([I, J])
    factor = np.ones(len(top))
    for s in range(w.order):
        factor = factor * root_mass[slots[:, s]]
    kern = kern_at_hf[(mid,) + tuple(slots.T)]
    out = np.zeros((D, D), dtype=complex)
    np.add.at(out, (top, cols), amp_a * amp_c * factor * kern)
    return out


def assemble_operator(H: NormalFormHamiltonian, basis: FockBasis) -> OperatorMatrix:
    """Dense matrix of the full normal-form Hamiltonian."""
    D = basis.dim
    total = np.zeros((D, D), dtype=complex)
    for w in H.terms.values():
        total += assemble_term(w, basis)
    return OperatorMatrix(total, basis)


def basic_bound_margin(w: CouplingFunction, rho: float, mu: float, basis: FockBasis):
    """Operator-norm bound of a cut-off monomial against its kernel norm.

    Returns (lhs, rhs) with lhs = ||chi_rho W_{m,n} chi_rho|| (spectral norm)
    and rhs = rho^(m+n+mu) / sqrt(m! n!) * ||w||_mu.
    """
    if w.order < 1:
        raise ValueError("basic bound applies to m+n >= 1")
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    mat = assemble_term(w, basis)
    chi = (basis.hf_diagonal() <= rho).astype(float)
    cut = chi[:, np.newaxis] * mat * chi[np.newaxis, :]
    lhs = float(np.linalg.norm(cut, 2))
    rhs = rho ** (w.order + mu) / np.sqrt(factorial(w.m) * factorial(w.n)) * coupling_norm_mu(w, mu)
    return lhs, rhs
