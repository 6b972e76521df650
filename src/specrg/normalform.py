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
from functools import lru_cache
from math import factorial

import numpy as np

from .fock import FockBasis, ModeGrid, OperatorMatrix, check_dense, dense, ladder_walk

FOUR_PI = 4.0 * np.pi

# the field energies r in I = [0, 1] on which every kernel is tabulated; read-only,
# because every kernel shares this one array
R_GRID = np.linspace(0.0, 1.0, 33)
R_GRID.flags.writeable = False

# Banach weight xi in (0, 1) of the norm sum_{m,n} xi^-(m+n) ||w_{m,n}||_{mu,1}
XI = 0.5

# infrared exponent mu of that norm, one value for the whole flow
MU = 0.5


class NotFiniteError(ValueError):
    """A kernel table holds a value that is not finite, as an overflow leaves it."""


class CouplingFunction:
    """Discretized kernel w_{m,n}(r; k_1..k_{m+n}), symmetric in its creation and in
    its annihilation momenta, so stored once per multiset of each.

    values has shape family + (len(R_GRID),) + slot_shape(N, m, n): family is () for
    one kernel and (F,) for F members of a family H(lam), whose norms are one per
    member; then one axis for each side that has slots, indexed by the rows of
    multisets(N, m) (creation) and multisets(N, n) (annihilation); the kernel at ordered
    tuples I, J is the table at sorted(I), sorted(J), and expanded() gathers that full
    table.  dr_values holds the r-derivative on the same grid, by central differences
    the first time it is read unless given.  Both go through fock.dense, the one place a
    kernel's dtype is chosen (float64 when exactly real, else complex128), and every
    reader keeps it.  norm_mu1 is likewise computed the first time it is read: the
    caches rely on kernels never being changed in place.
    """

    def __init__(self, m: int, n: int, nodes, values, dr_values=None):
        self.m, self.n = m, n
        self.nodes = np.asarray(nodes, dtype=float)
        self.values = np.ascontiguousarray(dense(values))
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        expected = (len(R_GRID),) + slot_shape(len(self.nodes), m, n)
        self.family = self.values.shape[:self.values.ndim - len(expected)]
        if len(self.family) > 1 or self.values.shape[len(self.family):] != expected:
            raise ValueError(f"values shape {self.values.shape}, expected {expected}")
        if dr_values is not None:
            dr_values = dense(dr_values)
            if dr_values.shape != self.values.shape:
                raise ValueError("dr_values shape mismatch")
        self._dr_values = dr_values
        self._norm_mu1 = None
        if not np.all(np.isfinite(self.values)):
            raise NotFiniteError(f"the ({m},{n}) kernel is not finite")

    def expanded(self, table=None) -> np.ndarray:
        """The full table of values (or of table, dr_values or an at_r read say) on every
        ordered tuple, one axis per slot, gathered from the multisets, so exactly symmetric."""
        N, table = len(self.nodes), self.values if table is None else table
        rows = [multisets(N, k)[1].reshape(-1) for k in (self.m, self.n) if k]
        return table[(slice(None),) + np.ix_(*rows)].reshape(table.shape[:1] + (N,) * self.order)

    @property
    def dr_values(self) -> np.ndarray:
        """np.gradient(values, R_GRID) along r bit for bit: its differences on R_GRID = j/32."""
        if self._dr_values is None:
            axis, h = len(self.family), R_GRID[1]
            v = self.values.swapaxes(0, axis)  # r first
            self._dr_values = np.concatenate([(v[1:2] - v[:1]) / h, (v[2:] - v[:-2]) / (2.0 * h),
                                              (v[-1:] - v[-2:-1]) / h]).swapaxes(0, axis)
        return self._dr_values

    @property
    def norm_mu1(self) -> float:
        """||w||_{MU,1} = coupling_norm_mu1(w, MU), computed once per kernel."""
        if self._norm_mu1 is None:
            self._norm_mu1 = coupling_norm_mu1(self, MU)
        return self._norm_mu1

    @property
    def order(self) -> int:
        return self.m + self.n

    def at_r(self, r):
        """Kernel sampled at field energies r, shape family + r + slots.

        This is the rule by which every kernel is read in r: linear between
        the R_GRID points j/32 and clamped into I = [0, 1].  With
        t = 32 clip(r, 0, 1) and j = floor(t), the value is
        v_j + (t - j)(v_j+1 - v_j), the next point capped at 32 so that r = 1
        reads v_32.  Real and complex tables run the same lines and equal
        np.interp on R_GRID bit for bit (part by part, up to signed zeros).
        An order-0 kernel, a function of H_f alone (w00 = E + T), continues
        above r = 1 with its last cell's slope 32 (v_32 - v_31).  A non-finite r raises ValueError.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.isfinite(r).all():
            raise ValueError("field energies r must be finite")
        return self.read(r, read_cells(r))

    def read(self, r: np.ndarray, cells) -> np.ndarray:
        """at_r(r) on the cells read_cells(r) gave, so that a caller can keep them (a read
        plan), with no check of r."""
        j, j1, frac = cells
        vals, axis = self.values, len(self.family)
        lo = vals.take(j, axis=axis)
        out = vals.take(j1, axis=axis)
        out -= lo
        out *= frac[(Ellipsis,) + (np.newaxis,) * (vals.ndim - 1 - axis)]
        out += lo
        if not self.order and r.max(initial=0.0) > 1.0:
            slope = (vals[..., -1] - vals[..., -2]) * (len(R_GRID) - 1)
            out += np.multiply.outer(slope, np.maximum(r - 1.0, 0.0))
        return out


def read_cells(r: np.ndarray):
    """at_r's cells of the field energies r: with t = 32 clip(r, 0, 1), the point j = floor(t),
    the next one j + 1 capped at 32, and the weight t - j."""
    top = len(R_GRID) - 1
    t = np.minimum(np.maximum(r, 0.0), 1.0) * top
    j = t.astype(np.intp)
    return j, np.minimum(j + 1, top), t - j


@lru_cache(maxsize=None)
def multisets(n_nodes: int, length: int):
    """(tuples, index, flat) of the sorted length-tuples of n_nodes slot indices: tuples
    one per row in lexicographic order, index[t] the row of sorted(t) for every ordered
    tuple t, and flat each row's position among the ordered tuples (C order)."""
    powers = n_nodes ** np.arange(length - 1, -1, -1)
    ordered = np.arange(n_nodes ** length)[:, np.newaxis] // powers % n_nodes
    ranked = np.sort(ordered, axis=1)
    is_sorted = (ranked == ordered).all(axis=1)
    index = (np.cumsum(is_sorted) - 1)[ranked @ powers]
    return ordered[is_sorted], index.reshape((n_nodes,) * length), np.flatnonzero(is_sorted)


def slot_shape(n_nodes: int, m: int, n: int) -> tuple:
    """The slot axes of an (m, n) kernel's table: the multiset count of each side with slots."""
    return tuple(len(multisets(n_nodes, k)[0]) for k in (m, n) if k)


def slot_mesh(nodes: np.ndarray, m: int, n: int) -> list:
    """The open mesh of an (m, n) table, as np.ix_(R_GRID, nodes, .., nodes) is of a full
    one: R_GRID, then the node of each of the m + n slots, broadcast against its axes."""
    r, *rows = np.ix_(R_GRID, *[np.arange(P) for P in slot_shape(len(nodes), m, n)])
    cre, ann = (multisets(len(nodes), k)[0].T for k in (m, n))
    return [r] + [nodes[c][rows[0]] for c in cre] + [nodes[a][rows[-1]] for a in ann]


def from_profile(m, n, nodes, func) -> CouplingFunction:
    """Tabulate func(r, k_1, .., k_{m+n}) on R_GRID and the multisets of the nodes.

    func is called once, on the open mesh slot_mesh(nodes, m, n), so it must be
    symmetric in k_1..k_m and in k_{m+1}..k_{m+n}; a result that does not broadcast
    to the table shape raises ValueError.
    """
    nodes = np.asarray(nodes, dtype=float)
    shape = (len(R_GRID),) + slot_shape(len(nodes), m, n)
    vals = np.array(np.broadcast_to(func(*slot_mesh(nodes, m, n)), shape))
    return CouplingFunction(m, n, nodes, vals)


def _norm_weight(w: CouplingFunction, mu: float):
    """Slot weight (min_j k_j)^-mu prod_i k_i^1/2 of the anisotropic norm (1 for m + n = 0),
    one shared array per node set, (m, n) and mu."""
    return 1.0 if w.order == 0 else _slot_weight(tuple(w.nodes), w.m, w.n, mu)


@lru_cache(maxsize=256)  # per node set, so bounded
def _slot_weight(nodes: tuple, m: int, n: int, mu: float) -> np.ndarray:
    _, *slots = slot_mesh(np.array(nodes), m, n)
    root_prod, kmin = 1.0, slots[0]
    for k in slots:
        root_prod, kmin = root_prod * np.sqrt(k), np.minimum(kmin, k)
    return kmin ** (-mu) * root_prod


def _weighted_sup(w: CouplingFunction, mu: float, table: np.ndarray):
    """sup of the slot weight times |table| (w's shape): a float, one per member for a family."""
    top = (_norm_weight(w, mu) * np.abs(table)).reshape(w.family + (-1,)).max(axis=-1)
    return top if w.family else float(top)


def coupling_norm_mu(w: CouplingFunction, mu: float) -> float:
    """Anisotropic sup norm max_j sup |k_j|^-mu prod_i |k_i|^1/2 w.

    For m + n = 0 the empty momentum product degenerates to sup_r |w|.
    """
    return _weighted_sup(w, mu, w.values)


def coupling_norm_mu1(w: CouplingFunction, mu: float) -> float:
    """||w||_mu + ||dw/dr||_mu."""
    return _weighted_sup(w, mu, w.values) + _weighted_sup(w, mu, w.dr_values)


def term_norm(w: CouplingFunction) -> float:
    """Banach weight xi^-(m+n) ||w_{m,n}||_{mu,1} of one kernel in H's norm,
    read from the kernel's cached norm_mu1."""
    return XI ** (-w.order) * w.norm_mu1


@dataclass
class NormalFormHamiltonian:
    """Collection {w_{m,n}} for m+n <= M_max on one ModeGrid (mu is MU, xi is XI).

    The constructor raises TypeError unless grid is a ModeGrid, and
    ValueError unless w00 exists (E = w00(0)) and every kernel lies on the
    grid's nodes.  masses, the radial measure k^2 dk per node that the
    contraction sums of a step read, is read off the grid.
    """

    terms: dict
    grid: ModeGrid
    M_max: int = 2

    def __post_init__(self):
        if not isinstance(self.grid, ModeGrid):
            raise TypeError(f"grid must be a ModeGrid, not {type(self.grid).__name__}")
        if (0, 0) not in self.terms:
            raise ValueError("a normal-form Hamiltonian needs its (0,0) term")
        for (m, n), w in self.terms.items():
            if (m, n) != (w.m, w.n):
                raise ValueError(f"term key {(m, n)} disagrees with kernel ({w.m}, {w.n})")
            if m + n > self.M_max:
                raise ValueError(f"term ({m},{n}) exceeds M_max={self.M_max}")
            if not np.array_equal(w.nodes, self.nodes):
                raise ValueError(f"term ({m},{n}) is not on the nodes of the grid")

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def masses(self) -> np.ndarray:
        return slot_masses(self.grid)


def hamiltonian_norm(H: NormalFormHamiltonian) -> float:
    """Banach norm sum_{m,n} xi^-(m+n) ||w_{m,n}||_{mu,1}."""
    return sum((term_norm(w) for w in H.terms.values()), 0.0)


def shifted(H: NormalFormHamiltonian, c) -> NormalFormHamiltonian:
    """H - c: w00 moves by the constant c and keeps its r-derivative; the
    other kernels are H's own, which nothing changes in place."""
    w00 = H.terms[(0, 0)]
    w00 = CouplingFunction(0, 0, w00.nodes, w00.values - c, dr_values=w00.dr_values)
    return NormalFormHamiltonian({**H.terms, (0, 0): w00}, H.grid, H.M_max)


def split(H: NormalFormHamiltonian):
    """Decompose H into (E, W): the scalar part w00(0) (a list for a family) and the
    interaction terms.

    The field part T = w00 - E is not formed; t_slope_deviation reads its
    slope off w00.
    """
    return (H.terms[(0, 0)].values[..., 0].astype(complex).tolist(),
            {k: w for k, w in H.terms.items() if k != (0, 0)})


def t_slope_deviation(H: NormalFormHamiltonian) -> float:
    """sup_r |T'(r) - 1|, the marginal-direction displacement (T' = w00')."""
    return float(np.max(np.abs(H.terms[(0, 0)].dr_values - 1.0)))


def interaction_norm(H: NormalFormHamiltonian) -> float:
    """||W||_{mu,xi}: the Banach norm of the m+n >= 1 part."""
    return sum((term_norm(w) for w in H.terms.values() if w.order >= 1), 0.0)


def slot_masses(grid: ModeGrid) -> np.ndarray:
    """Radial measure k^2 dk per node: quadrature weight divided by 4 pi."""
    return grid.weights / FOUR_PI


def assemble_term(w: CouplingFunction, basis: FockBasis) -> np.ndarray:
    """Dense matrix of one monomial W_{m,n} on the truncated basis.

    Every column is walked through every ordered tuple J of n annihilations,
    the kernel is read at the field energy of the intermediate state, and the
    walk continues through every ordered tuple I of m creations.  The moves
    and the hard-cutoff truncation come from fock.ladder_walk, walked once per
    (m, n) and kept on the basis (FockBasis.walks) with the multiset rows of
    I and J and the slot masses' square roots; contributions to one matrix
    entry are summed in (J, I) lexicographic order.  An interaction kernel read
    above r = 1 is clamped (at_r), with a warning.  A family's kernel gives a stack.
    """
    if not np.array_equal(w.nodes, basis.grid.nodes):
        raise ValueError("kernel nodes do not match the basis grid")
    check_dense(basis.dim)
    walk = basis.walks.get((w.m, w.n))
    if walk is None:
        cols, J, mid, amp_a = ladder_walk(basis, np.arange(basis.dim), w.n, "annihilate")
        src, I, top, amp_c = ladder_walk(basis, mid, w.m, "create")
        slots = np.column_stack([I, J[src]])
        coef = amp_a[src] * amp_c * np.prod(np.sqrt(slot_masses(basis.grid))[slots], axis=1)
        rows = tuple(multisets(basis.n_modes, k)[1][tuple(t.T)]
                     for k, t in ((w.m, I), (w.n, J[src])) if k)
        walk = basis.walks[(w.m, w.n)] = (top, cols[src], mid[src], rows, coef)
    top, cols, mid, rows, coef = walk
    hf = basis.hf_diagonal()
    read_max = hf[mid].max(initial=0.0)
    if w.order and read_max > R_GRID[-1]:
        warnings.warn(f"field energies up to {read_max:.6g} exceed the kernel grid end "
                      f"{R_GRID[-1]:.6g}; the kernel is clamped there", stacklevel=2)
    kern = w.at_r(hf)[(Ellipsis, mid) + rows]
    out = np.zeros(w.family + (basis.dim, basis.dim), dtype=kern.dtype)
    np.add.at(out, (Ellipsis, top, cols), coef * kern)
    return out


def assemble_operator(H: NormalFormHamiltonian, basis: FockBasis) -> OperatorMatrix:
    """Dense matrix of the full normal-form Hamiltonian: the sum of its terms,
    in its kernels' dtype."""
    return OperatorMatrix(sum(assemble_term(w, basis) for w in H.terms.values()), basis)


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
