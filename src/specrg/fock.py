"""Truncated bosonic Fock space over a discretized radial photon-momentum grid.

The one-photon space is represented by a finite set of momentum magnitudes
k_1 < ... < k_M with positive quadrature weights that absorb the radial
measure |k|^2 d|k| together with the angular integral (4 pi for isotropic
integrands).  Photons are scalar; the dispersion relation is omega(k) = k.

Occupation vectors n = (n_1, ..., n_M) with sum(n) <= n_max enumerate the
truncated Fock basis.  Ladder operators use the hard-cutoff convention:
creation out of the top occupation level annihilates the state, and every
algebraic identity (CCR, pull-through) is asserted on the safe subspace
sum(n) <= n_max - 1 where the truncation is invisible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb

import numpy as np

# Dense dimension cap.  Dense eigensolvers stay the oracle below this size.
DEFAULT_DIM_CAP = 5000


@dataclass(frozen=True)
class ModeGrid:
    """Radial quadrature grid for the one-photon momentum magnitude."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not np.all(nodes > 0):
            raise ValueError("all nodes must be positive (no zero mode is stored)")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("all weights must be positive")

    @property
    def n_modes(self) -> int:
        return len(self.nodes)


def build_mode_grid(n_modes: int, k_max: float, scheme: str = "uniform") -> ModeGrid:
    """Discretize the ball |k| <= k_max into radial cells.

    Weights are the exact cell volumes (4 pi / 3)(b^3 - a^3), so their sum
    reproduces the ball volume exactly.  The uniform scheme uses equal radial
    cells with midpoint nodes; the geometric scheme refines toward k = 0
    (halving cell edges) to resolve infrared scaling.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if k_max <= 0:
        raise ValueError(f"k_max must be positive, got {k_max}")

    if scheme == "uniform":
        edges = np.linspace(0.0, k_max, n_modes + 1)
        nodes = 0.5 * (edges[:-1] + edges[1:])
    elif scheme == "geometric":
        # edges k_max * 2^{-(n-1)}, ..., k_max/2, k_max plus the origin; the
        # nodes, each upper edge over sqrt(2), form a geometric sequence with ratio 2.
        edges = np.concatenate(([0.0], k_max * 2.0 ** np.arange(-(n_modes - 1), 1)))
        nodes = edges[1:] / np.sqrt(2.0)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    weights = (4.0 * np.pi / 3.0) * (edges[1:] ** 3 - edges[:-1] ** 3)
    return ModeGrid(nodes, weights)


def _enumerate_states(n_modes: int, n_max: int) -> np.ndarray:
    """All occupation vectors with total <= n_max, vacuum first.

    Enumeration is by total occupation, then lexicographic, which is
    deterministic and complete.
    """
    states = []
    for total in range(n_max + 1):
        # multisets of modes of size `total`
        for combo in combinations_with_replacement(range(n_modes), total):
            occ = [0] * n_modes
            for m in combo:
                occ[m] += 1
            states.append(occ)
    return np.array(states, dtype=np.int64).reshape(len(states), n_modes)


@dataclass
class FockBasis:
    """Enumerated occupation basis with total-quantum cutoff.

    lower holds the ladder rule for every operator built on the basis:
    lower[m, i] is the index of state i with one quantum fewer in mode m, or
    -1 when mode m is empty.  The amplitude of that move is
    sqrt(states[i, m]).  Creation is the inverse map, so creating out of the
    top shell sum(n) = n_max has no target and gives zero.
    """

    grid: ModeGrid
    n_max: int
    states: np.ndarray = field(repr=False)
    index: dict = field(repr=False)
    lower: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @property
    def n_modes(self) -> int:
        return self.grid.n_modes

    def hf_diagonal(self) -> np.ndarray:
        """Field energy sum_i n_i omega(k_i) of each basis state."""
        return self.states @ self.grid.nodes

    def state_index(self, occupation) -> int:
        return self.index[tuple(int(x) for x in occupation)]

    def safe_mask(self) -> np.ndarray:
        """States with total occupation <= n_max - 1 (truncation-blind)."""
        return self.states.sum(axis=1) <= self.n_max - 1


def build_fock_basis(grid: ModeGrid, n_max: int) -> FockBasis:
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    M = grid.n_modes
    D = sum(comb(M + j - 1, j) for j in range(n_max + 1))
    if D > DEFAULT_DIM_CAP:
        raise ValueError(
            f"basis dimension D={D} exceeds the dense cap {DEFAULT_DIM_CAP} "
            f"(n_modes={M}, n_max={n_max})"
        )
    states = _enumerate_states(M, n_max)
    assert states.shape[0] == D
    index = {tuple(int(x) for x in s): i for i, s in enumerate(states)}
    lower = np.full((M, D), -1, dtype=np.int64)
    for i, mode in zip(*np.nonzero(states)):
        occ = states[i].copy()
        occ[mode] -= 1
        lower[mode, i] = index[tuple(int(x) for x in occ)]
    return FockBasis(grid=grid, n_max=n_max, states=states, index=index, lower=lower)


@dataclass
class OperatorMatrix:
    """Dense complex matrix tagged with the FockBasis it acts on.

    Dense operators are plain ndarrays everywhere in the package.  This tag
    stays only as the return type of normalform.assemble_operator, because
    the benchmark workloads (perfbench/workloads.py) build one and read .mat;
    every function that takes an operator reads it with dense().
    """

    mat: np.ndarray
    basis: FockBasis

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(
                f"matrix shape {self.mat.shape} does not match basis dimension {self.basis.dim}"
            )

    def __array__(self, dtype=None, copy=None):
        return np.array(self.mat, dtype=dtype, copy=copy)


def dense(H) -> np.ndarray:
    """H as every dense solver reads it: float64 when its imaginary part is
    exactly zero, complex128 otherwise, so LAPACK runs in real arithmetic
    wherever it can."""
    mat = np.asarray(H)
    if np.iscomplexobj(mat) and np.any(mat.imag):
        return mat.astype(complex, copy=False)
    return np.ascontiguousarray(mat.real, dtype=float)


def ladder_matrix(basis: FockBasis, mode: int, kind: str) -> np.ndarray:
    """Creation or annihilation operator for one mode, hard truncation.

    The annihilation matrix has entries sqrt(n_mode) connecting |n> to
    |n - e_mode>; creation is its conjugate transpose, so creating out of the
    truncated sector gives zero.
    """
    if not (0 <= mode < basis.n_modes):
        raise ValueError(f"mode {mode} out of range [0, {basis.n_modes - 1}]")
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")

    D = basis.dim
    a = np.zeros((D, D), dtype=complex)
    cols = np.flatnonzero(basis.lower[mode] >= 0)
    a[basis.lower[mode, cols], cols] = np.sqrt(basis.states[cols, mode])
    return a.conj().T if kind == "create" else a


def ladder_walk(basis: FockBasis, start, depth: int, kind: str):
    """Apply every ordered tuple of depth ladder operators of one kind to the
    basis states start, all of them at once.

    Returns flat arrays (src, modes, end, amp) with one entry per sequence of
    moves that stays in the basis: its position in start, the modes in the
    order applied (shape (N, depth)), the index of the end state and the
    product of the sqrt(n) amplitudes.  Entries are ordered by position in
    start, then lexicographically by modes.
    """
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    table = basis.lower
    if kind == "create":
        mode, state = np.nonzero(basis.lower >= 0)
        table = np.full_like(basis.lower, -1)
        table[mode, basis.lower[mode, state]] = state
    cur = np.asarray(start, dtype=np.int64)
    src = np.arange(len(cur))
    modes = np.empty((len(cur), 0), dtype=np.int64)
    amp = np.ones(len(cur))
    for _ in range(depth):
        nxt = table[:, cur].T
        k, mode = np.nonzero(nxt >= 0)
        end = nxt[k, mode]
        occ = basis.states[end if kind == "create" else cur[k], mode]
        src, modes, cur = src[k], np.column_stack([modes[k], mode]), end
        amp = amp[k] * np.sqrt(occ)
    return src, modes, cur, amp


def field_hamiltonian(basis: FockBasis) -> np.ndarray:
    """Diagonal free-field Hamiltonian sum_i n_i omega(k_i), real."""
    return np.diag(basis.hf_diagonal())


def pull_through_check(basis: FockBasis, f, mode: int) -> float:
    """Max deviation of a(k) f(H_f) = f(H_f + omega(k)) a(k) on the safe subspace.

    Both the annihilation identity and its creation mirror
    f(H_f) a*(k) = a*(k) f(H_f + omega(k)) are evaluated; the larger sup-norm
    deviation is returned.  Columns are restricted to states with total
    occupation <= n_max - 1 so the truncation cannot contribute.
    """
    a = ladder_matrix(basis, mode, "annihilate")
    adag = a.conj().T
    hf = basis.hf_diagonal()
    om = basis.grid.nodes[mode]
    fhf = np.broadcast_to(np.asarray(f(hf), dtype=complex), hf.shape)
    fshift = np.broadcast_to(np.asarray(f(hf + om), dtype=complex), hf.shape)

    lhs_a = a * fhf[np.newaxis, :]          # a f(H_f)
    rhs_a = fshift[:, np.newaxis] * a       # f(H_f + omega) a
    lhs_c = fhf[:, np.newaxis] * adag       # f(H_f) a*
    rhs_c = adag * fshift[np.newaxis, :]    # a* f(H_f + omega)

    cols = basis.safe_mask()
    if not np.any(cols):
        return 0.0
    dev_a = np.max(np.abs((lhs_a - rhs_a)[:, cols]))
    dev_c = np.max(np.abs((lhs_c - rhs_c)[:, cols]))
    return float(max(dev_a, dev_c))
