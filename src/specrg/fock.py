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
from functools import cached_property, reduce
from math import comb

import numpy as np

# Dense dimension cap: no dense operator, matrix solve or Schur complement of
# more states than this is allocated (check_dense).
DEFAULT_DIM_CAP = 5000


def check_dense(dim: int) -> None:
    """Refuse, before anything is allocated, a dense array of dim > DEFAULT_DIM_CAP states."""
    if dim > DEFAULT_DIM_CAP:
        raise ValueError(f"dense dimension {dim} exceeds the dense cap {DEFAULT_DIM_CAP}")


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


@dataclass
class FockBasis:
    """Enumerated occupation basis with total-quantum cutoff.

    Every operator built on the basis reads its moves off two inverse tables:
    upper[i, m] (lower[i, m]) is state i with one quantum more (fewer) in mode m,
    or -1 out of the top shell sum(n) = n_max (from an empty mode).  A move's
    amplitude is sqrt(n_m) in the state holding the quantum.  walks keeps
    normalform.assemble_term's ladder walks, one per (m, n), once walked.
    """

    grid: ModeGrid
    n_max: int
    states: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)
    walks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @property
    def n_modes(self) -> int:
        return self.grid.n_modes

    @cached_property
    def _hf(self) -> np.ndarray:
        hf = self.states @ self.grid.nodes
        hf.flags.writeable = False
        return hf

    def hf_diagonal(self) -> np.ndarray:
        """Field energy sum_i n_i omega(k_i) of each basis state, kept (read-only)."""
        return self._hf

    def state_index(self, occupation) -> int:
        """Index of a state, walked up from the vacuum; KeyError outside the basis."""
        occ = np.asarray(occupation, dtype=np.int64)
        if occ.shape != (self.n_modes,) or np.any(occ < 0) or occ.sum() > self.n_max:
            raise KeyError(occ.tolist())
        return int(reduce(lambda i, m: self.upper[i, m],
                          np.repeat(np.arange(self.n_modes), occ), 0))

    def safe_mask(self) -> np.ndarray:
        """States with total occupation <= n_max - 1 (truncation-blind)."""
        return self.states.sum(axis=1) <= self.n_max - 1

    @cached_property
    def shells(self) -> tuple:
        """(off, lower, modes, amp, upper, camp), worked out on first use: states
        off[N]:off[N+1] make up shell N (states come by total occupation).  Row i
        of (lower, modes, amp) lists the annihilations out of state i, occupied
        modes first (n_max columns; -1, 0 for the rest); row i < off[n_max] of
        (upper, camp) lists its creations, one per mode.  Entries are the state
        reached and sqrt(n) in the state with the photon."""
        off = np.searchsorted(self.states.sum(axis=1), np.arange(self.n_max + 2))
        modes = np.argsort(self.states == 0, axis=1, kind="stable")[:, :self.n_max].copy()
        rows = np.arange(self.dim)[:, None]
        return (off, self.lower[rows, modes], modes, np.sqrt(self.states[rows, modes]),
                self.upper[:off[-2]], np.sqrt(self.states[:off[-2]] + 1))


def build_fock_basis(grid: ModeGrid, n_max: int) -> FockBasis:
    """All occupation vectors with total <= n_max, in the order of
    itertools.combinations_with_replacement, shell by shell from the vacuum: shell
    N + 1 takes each state of shell N with one quantum added in its highest occupied
    mode h or above.  One added below h, in mode m, lands on the parent's move by m
    with h added back, read off upper."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    M = grid.n_modes
    D, modes = comb(M + n_max, n_max), np.arange(M)
    states = np.zeros((D, M), dtype=np.int64)
    upper, lower = np.full((D, M), -1, dtype=np.int64), np.full((D, M), -1, dtype=np.int64)
    high = np.zeros(D, dtype=np.int64)  # the highest occupied mode, 0 at the vacuum
    lo, hi = 0, 1  # shell N is states lo:hi
    for _ in range(n_max):
        above = modes >= high[lo:hi, None]
        i, m = np.nonzero(above)
        i, child = i + lo, np.arange(hi, hi + len(i))
        upper[i, m], lower[child, m], high[child] = child, i, m
        states[child] = states[i]
        states[child, m] += 1
        i, m = np.nonzero(~above)
        i, h = i + lo, high[i + lo]
        upper[i, m] = upper[upper[lower[i, h], m], h]
        lower[upper[i, m], m] = i
        lo, hi = hi, child[-1] + 1
    return FockBasis(grid=grid, n_max=n_max, states=states, upper=upper, lower=lower)


@dataclass
class OperatorMatrix:
    """Dense matrix, read through dense(), tagged with the FockBasis it acts on.

    Dense operators are plain ndarrays everywhere in the package.  This tag
    stays only as the return type of normalform.assemble_operator, because
    the benchmark workloads (perfbench/workloads.py) build one and read .mat;
    every function that takes an operator reads it with dense().
    """

    mat: np.ndarray
    basis: FockBasis

    def __post_init__(self):
        self.mat = dense(self.mat)
        if self.mat.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(
                f"matrix shape {self.mat.shape} does not match basis dimension {self.basis.dim}"
            )

    def __array__(self, dtype=None, copy=None):
        return np.array(self.mat, dtype=dtype, copy=copy)


def dense(H) -> np.ndarray:
    """H as every dense solver and every kernel table reads it: float64 when
    its imaginary part is exactly zero, complex128 otherwise, so LAPACK and
    the Wick products run in real arithmetic wherever they can."""
    mat = np.asarray(H)
    if np.iscomplexobj(mat) and np.any(mat.imag):
        return mat.astype(complex, copy=False)
    return np.ascontiguousarray(mat.real, dtype=float)


def hermitian(mat: np.ndarray) -> bool:
    """The dense route's one rule for eigh: max|mat - mat*| < 1e-10 max(1, max|mat|)."""
    scale = max(1.0, float(np.max(np.abs(mat), initial=0.0)))
    return bool(np.max(np.abs(mat - mat.conj().T), initial=0.0) < 1e-10 * scale)


def blocks(mat) -> list[np.ndarray]:
    """Connected components of the nonzero pattern of the square matrix mat.

    Rows i and j are joined when mat[i, j] or mat[j, i] is nonzero, so mat is
    block diagonal on the returned index sets.  Each set is sorted, and the
    sets come in order of their first index; an irreducible mat is the one
    set arange(n).  A breadth-first search reads each row of the adjacency once.
    """
    nonzero = np.asarray(mat) != 0
    adjacent = nonzero | nonzero.T
    unseen = np.ones(len(adjacent), dtype=bool)
    found = []
    for start in range(len(adjacent)):
        if not unseen[start]:
            continue
        unseen[start] = False
        members = frontier = np.array([start])
        while len(frontier):
            frontier = np.flatnonzero(adjacent[frontier].any(axis=0) & unseen)
            unseen[frontier] = False
            members = np.concatenate((members, frontier))
        found.append(np.sort(members))
    return found


def ladder_matrix(basis: FockBasis, mode: int) -> np.ndarray:
    """Annihilation operator of one mode, float64, hard truncation: entries
    sqrt(n_mode) connecting |n> to |n - e_mode>.  Creation is its transpose, so
    creating out of the truncated sector gives zero."""
    if not (0 <= mode < basis.n_modes):
        raise ValueError(f"mode {mode} out of range [0, {basis.n_modes - 1}]")
    check_dense(basis.dim)
    a = np.zeros((basis.dim, basis.dim))
    cols = np.flatnonzero(basis.lower[:, mode] >= 0)
    a[basis.lower[cols, mode], cols] = np.sqrt(basis.states[cols, mode])
    return a


def ladder_walk(basis: FockBasis, start, depth: int, kind: str):
    """Apply every ordered tuple of depth ladder operators of one kind to the
    basis states start, all at once, through basis.upper or basis.lower.

    Returns flat arrays (src, modes, end, amp) with one entry per sequence of
    moves that stays in the basis: its position in start, the modes in the
    order applied (shape (N, depth)), the index of the end state and the
    product of the sqrt(n) amplitudes.  Entries are ordered by position in
    start, then lexicographically by modes.
    """
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    table = basis.upper if kind == "create" else basis.lower
    cur = np.asarray(start, dtype=np.int64)
    src = np.arange(len(cur))
    modes = np.empty((len(cur), 0), dtype=np.int64)
    amp = np.ones(len(cur))
    for _ in range(depth):
        nxt = table[cur]
        k, mode = np.nonzero(nxt >= 0)
        end = nxt[k, mode]
        occ = basis.states[end if kind == "create" else cur[k], mode]
        src, modes, cur = src[k], np.column_stack([modes[k], mode]), end
        amp = amp[k] * np.sqrt(occ)
    return src, modes, cur, amp


def field_hamiltonian(basis: FockBasis) -> np.ndarray:
    """Diagonal free-field Hamiltonian sum_i n_i omega(k_i), real."""
    check_dense(basis.dim)
    return np.diag(basis.hf_diagonal())


def pull_through_check(basis: FockBasis, f, mode: int) -> float:
    """Max deviation of a(k) f(H_f) = f(H_f + omega(k)) a(k) on the safe subspace.

    Both the annihilation identity and its creation mirror
    f(H_f) a*(k) = a*(k) f(H_f + omega(k)), the transpose, are evaluated; the
    larger sup-norm deviation is returned.  Columns of the first and rows of the
    transpose are restricted to states with total occupation <= n_max - 1 so the
    truncation cannot contribute.
    """
    a = ladder_matrix(basis, mode)
    hf = basis.hf_diagonal()
    fhf = np.broadcast_to(f(hf), hf.shape)
    fshift = np.broadcast_to(f(hf + basis.grid.nodes[mode]), hf.shape)
    safe = basis.safe_mask()
    if not np.any(safe):
        return 0.0
    dev = np.abs(a * fhf[np.newaxis, :] - fshift[:, np.newaxis] * a)
    return float(max(np.max(dev[:, safe]), np.max(dev[safe])))
