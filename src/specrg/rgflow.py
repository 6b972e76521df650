"""Scaling transformation, one decimation-and-rescale step, polydisc tracking.

One step of the renormalization map does three things to a normal-form
Hamiltonian H = E + T + W at scale rho:

  1. decimates the field energies above rho through the Feshbach-Schur map,
     expanded in a norm-convergent Neumann series
     F = H0 + chi [ sum_s (-1)^s W (G W)^s ] chi,   G = chibar^2 / H0,
     each term re-normal-ordered with the generalized Wick rules
     (contractions of annihilators against creators of the neighbouring
     factor, with pull-through shifts of every field-energy argument);
  2. truncates the result to kernels with m+n <= M_max, logging the Banach
     norm of everything dropped plus the Neumann remainder into a budget;
  3. rescales, w'(r; k) = rho^(m+n-1) w(rho r; rho k), which fixes H_f,
     expands the scalar part by 1/rho and contracts the interaction.

The full flow iterates this while sliding the spectral parameter so the
vacuum expectation stays pinned near the running zero e_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

import numpy as np

# fock and normalform functions are looked up through their modules at call
# time, so that wrapping them there (as perfbench's tracer does) sees the calls
from . import fock, normalform
from .normalform import (MU, R_GRID, XI, CouplingFunction, NormalFormHamiltonian,
                         interaction_norm, multisets, shifted, split, t_slope_deviation,
                         term_norm)


class DomainError(ValueError):
    """The Hamiltonian left the domain of the renormalization map."""

    def __init__(self, message, margins=None):
        super().__init__(message)
        self.margins = margins or {}


class FlowStalledError(RuntimeError):
    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes


def polydisc_coordinates(H: NormalFormHamiltonian) -> tuple[complex, float, float]:
    """(E, beta, gamma) of H: E = w00(0), beta = sup|T'-1|, gamma = ||W||_{mu,xi}."""
    E, _ = split(H)
    return E, t_slope_deviation(H), interaction_norm(H)


def recursion_constant(before: tuple, after: tuple, rho: float) -> float:
    """Smallest c with which the step from before to after obeys the recursion.

    before and after are polydisc_coordinates (E, beta, gamma).  The theorem
    maps the polydisc (alpha, beta, gamma) into (alpha/rho + c q, beta + c q,
    c rho^MU gamma), q = gamma^2 / 2rho, so c is the largest of
    gamma'/(rho^MU gamma), (|E'| - |E|/rho)/q and (beta' - beta)/q.
    ValueError unless gamma > 0, and on a NaN, which max() would pass or drop.
    """
    (E, beta, gamma), (E2, beta2, gamma2) = before, after
    if not gamma > 0:
        raise ValueError(f"the recursion constant needs gamma > 0, not {gamma}")
    quad = gamma ** 2 / (2.0 * rho)
    ratios = (gamma2 / (rho ** MU * gamma), (abs(E2) - abs(E) / rho) / quad, (beta2 - beta) / quad)
    if np.isnan(ratios).any():
        raise ValueError(f"NaN in the polydisc coordinates {before} -> {after}")
    return max(ratios)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def _slot_index(nodes: np.ndarray, rho: float) -> np.ndarray:
    """s with nodes[s[j]] == rho * nodes[j] exactly, and s[j] = -1 where rho k_j < k_0.

    Raises DomainError when some rho k_j lies strictly between two nodes: the
    rescaling k -> rho k is an index shift only on nodes closed under it.
    """
    targets = rho * nodes
    s = np.searchsorted(nodes, targets)
    on_node = nodes[s] == targets
    off = np.flatnonzero(~on_node & (targets >= nodes[0]))
    if len(off):
        j = off[0]
        raise DomainError(f"rho k = {targets[j]:.6g} (k = {nodes[j]:.6g}, rho = {rho:.6g}) "
                          f"lies between two nodes; the nodes are not closed under k -> rho k",
                          margins={"k": float(nodes[j]), "rho_k": float(targets[j]), "rho": rho})
    return np.where(on_node, s, -1)


def scale_coupling(w: CouplingFunction, rho: float) -> CouplingFunction:
    """Kernel form of the rescaling, w'(r; k) = rho^(3(m+n)/2 - 1) w(rho r; rho k).

    The momentum arguments contract into the unit ball while the grid and its
    radial measure k^2 dk stay fixed, so each slot carries a factor rho^(3/2)
    (half the Jacobian of the measure; a contracted pair of slots then
    reproduces the full rho^3) and the overall 1/rho expands the scalar part.
    This makes ||w'||_mu <= rho^(m+n-1+mu) ||w||_mu in the anisotropic norm.

    The kernel is read linearly in r at rho * R_GRID (inside [0, rho]), and
    each momentum slot k_j at the node rho k_j (_slot_index), which reads 0
    below the lowest node: the model has no photon there.  Nodes that are not
    closed under k -> rho k raise DomainError, except for a kernel of order 0.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    vals = w.at_r(rho * R_GRID)
    if w.order:
        # s increases, so it maps a sorted tuple to a sorted tuple: a row to a row
        s = _slot_index(w.nodes, rho)
        sides = [multisets(len(s), k) for k in (w.m, w.n) if k]
        vals = vals[(slice(None),) + np.ix_(*[index[tuple(np.maximum(s, 0)[C.T])]
                                              for C, index, _ in sides])]
        for axis, (C, _, _) in enumerate(sides, 1):  # index -1 reads 0
            vals[(slice(None),) * axis + ((s[C] < 0).any(axis=1),)] = 0.0
    return CouplingFunction(w.m, w.n, w.nodes, rho ** (1.5 * w.order - 1.0) * vals)


def _apply_field_support_mask(w: CouplingFunction) -> CouplingFunction:
    """Zero the kernel where the in- or out-state field energy exceeds 1.

    After rescaling, the decimation cutoffs chi_rho on both sides of the
    operator become indicators that r plus the created (resp. annihilated)
    photon energies stay below 1.
    """
    if w.order == 0:
        return w
    r, *ks = normalform.slot_mesh(w.nodes, w.m, w.n)
    omega_cre, omega_ann = sum(ks[:w.m], 0.0), sum(ks[w.m:], 0.0)
    mask = (r + omega_cre <= 1.0 + 1e-12) & (r + omega_ann <= 1.0 + 1e-12)
    # the indicator is flat away from its edge, so the almost-everywhere
    # r-derivative of the masked kernel is the masked derivative
    return CouplingFunction(w.m, w.n, w.nodes, w.values * mask, dr_values=w.dr_values * mask)


# ---------------------------------------------------------------------------
# generalized Wick ordering of products
# ---------------------------------------------------------------------------

def _rows(n_nodes: int, columns: list, shape) -> np.ndarray:
    """Row in multisets(n_nodes, len(columns)) of the sorted tuple of the slot-index columns."""
    return np.broadcast_to(multisets(n_nodes, len(columns))[1][tuple(columns)], shape)


@lru_cache(maxsize=None)
def _merge(n_nodes: int, len_a: int, len_b: int) -> np.ndarray:
    """Row of sorted(X + Y) for every row X of multisets(n_nodes, len_a) and Y of
    multisets(n_nodes, len_b): shape (P_a, P_b)."""
    X, Y = multisets(n_nodes, len_a)[0], multisets(n_nodes, len_b)[0]
    return _rows(n_nodes, [x[:, np.newaxis] for x in X.T] + list(Y.T), (len(X), len(Y)))


@lru_cache(maxsize=None)
def _splits(n_nodes: int, length: int, first: int) -> np.ndarray:
    """i P + j for every row C of multisets(n_nodes, length) (axis 0) and choice S of
    `first` of its positions (axis 1): i is the row of C[S], j that of the rest, and
    P = len(multisets(n_nodes, length - first))."""
    C, P = multisets(n_nodes, length)[0], len(multisets(n_nodes, length - first)[0])
    return np.stack([_rows(n_nodes, list(C[:, list(S)].T), len(C)) * P + _rows(
        n_nodes, [C[:, k] for k in range(length) if k not in S], len(C))
        for S in combinations(range(length), first)], axis=1)


@lru_cache(maxsize=256)  # per node set, so bounded
def _sums(nodes: tuple, masses: tuple, length: int):
    """For every row of multisets(N, length): its node-energy sum, the distinct sums and
    the inverse index, and its weight in a sum over ordered tuples, the mass product
    times the number length!/prod(c_i!) of ordered tuples it stands for."""
    tuples, index, _ = multisets(len(nodes), length)
    s = np.array(nodes)[tuples].sum(axis=1)
    # each row counts the ordered tuples whose sorted form it is, itself among them
    weight = np.array(masses)[tuples].prod(axis=1) * np.bincount(index.ravel())
    return (s, *np.unique(s, return_inverse=True), weight)


@lru_cache(maxsize=256)  # per node set, so bounded: a dropped order's sum_i mass_i / k_i
def _mass_over_k(nodes: tuple, masses: tuple) -> float:
    return float(np.sum(np.array(masses) / np.array(nodes)))


@lru_cache(maxsize=256)  # per node set, so bounded
def _pair_sums(nodes: tuple, masses: tuple, len_I: int, len_J: int):
    """The distinct values of sI + sJ over all (I, J), and the inverse index."""
    T = _sums(nodes, masses, len_I)[0][:, np.newaxis] + _sums(nodes, masses, len_J)[0]
    return np.unique(T.ravel(), return_inverse=True)


def _pair_product(wA: CouplingFunction, wB: CouplingFunction, G, node_set: tuple,
                  max_order: int, out_arrays: dict, budget: list, sup_G: float, rows: int):
    """Accumulate the normal ordering of W[wA] G(H_f) W[wB] into out_arrays, on multisets.

    With p contractions (annihilators of A against creators of B, equal mode
    index) the kernel at field energy r between the merged blocks is

      C(n1,p) C(m2,p) p! * sum_q prod(mass_q)
        wA(r + O(I2'); I1, J1', q) G(r + O(J1') + O(I2') + O(q)) wB(r + O(J1'); q, I2', J2)

    with O(.) the node-energy sum of the listed slots, I1/J1' the open slots of
    A and I2'/J2 those of B.  Each part is a sorted tuple: A is read at the
    multiset J1' + q and B at q + I2' (_merge), q runs over sorted tuples
    weighted by p!/prod(c_i!), and the kernel at sorted (C, D) is the mean over
    the position splits of C into (I1, I2') and of D into (J1', J2) (_splits).
    README "Conventions" describes the reads and G's table.  Only the first rows
    points of R_GRID are computed.  A dropped order is charged a bound built
    from the kernels' cached norms, which are computed only then.
    """
    m1, n1, m2, n2 = wA.m, wA.n, wB.m, wB.n
    nodes, N, r = wA.nodes, len(wA.nodes), R_GRID[:rows]

    for p in range(0, min(n1, m2) + 1):
        mo, no = m1 + m2 - p, n1 + n2 - p
        order = mo + no
        Cf = comb(n1, p) * comb(m2, p) * factorial(p)
        if order > max_order:
            # dropped: log a norm-product bound instead of the kernel
            budget.append(Cf * _mass_over_k(*node_set) ** p * sup_G
                          * wA.norm_mu1 * wB.norm_mu1 * nodes[0] ** (-MU) * XI ** (-order))
            continue

        sI, uI, invI, _ = _sums(*node_set, m2 - p)
        sJ, uJ, invJ, _ = _sums(*node_set, n1 - p)
        omega_q, u_omega, inv_omega, weight_q = _sums(*node_set, p)
        uT, invT = _pair_sums(*node_set, m2 - p, n1 - p)
        NI, NJ, Q = len(sI), len(sJ), len(omega_q)
        # each factor is read at the distinct shifts, as (rows, shifts, P_m, P_n); one
        # gather gives each tuple its factor at its shift's read and merged multiset
        A = wA.at_r(r[:, np.newaxis] + uI).reshape(rows, len(uI), -1, len(multisets(N, n1)[0]))
        A = A.transpose(0, 1, 3, 2)[:, invI[:, np.newaxis, np.newaxis], _merge(N, n1 - p, p)]
        B = wB.at_r(r[:, np.newaxis] + uJ).reshape(rows, len(uJ), -1, len(multisets(N, n2)[0]))
        B = B[:, invJ[:, np.newaxis, np.newaxis], _merge(N, p, m2 - p)]
        Gu = G((r[:, np.newaxis, np.newaxis] + uT[:, np.newaxis]) + u_omega)
        Gq = Gu[:, invT[:, np.newaxis], inv_omega]
        Gq *= weight_q
        block = np.einsum("rabqi,rabq,rbqak->riabk", A, Gq.reshape(rows, NI, NJ, Q), B)
        block *= Cf
        block = block.reshape(rows, A.shape[4] * NI, NJ * B.shape[4])
        # the mean over the position splits of each side; one split is the identity
        for axis, splits in ((1, _splits(N, mo, m1)), (2, _splits(N, no, n1 - p))):
            if splits.shape[1] > 1:
                parts = [block.take(split, axis=axis) for split in splits.T]
                block = sum(parts[1:], parts[0]) / len(parts)
        acc = out_arrays.get((mo, no))
        out_arrays[(mo, no)] = block if acc is None else acc + block


def normal_order_product(A_terms: dict, B_terms: dict, G, masses: np.ndarray,
                         max_order: int, sup_G: float, rows: int | None = None):
    """Normal ordering of (sum A) G(H_f) (sum B); returns (terms, dropped norm).

    Every kernel, of A, B and the result, is a CouplingFunction on multisets.  The
    result's kernels are computed on the first rows points of R_GRID (all when rows
    is None) and are zero above.
    """
    ref = next(iter(A_terms.values()))
    node_set = (tuple(ref.nodes), tuple(masses))  # the key of the cached sums
    rows = len(R_GRID) if rows is None else rows
    out_arrays: dict = {}
    budget: list = []
    for wA in A_terms.values():
        for wB in B_terms.values():
            _pair_product(wA, wB, G, node_set, max_order, out_arrays, budget, sup_G, rows)
    if rows < len(R_GRID):  # the rows above are zero
        for key, vals in out_arrays.items():
            out_arrays[key] = np.zeros((len(R_GRID),) + vals.shape[1:], dtype=vals.dtype)
            out_arrays[key][:rows] = vals
    terms = {key: CouplingFunction(*key, ref.nodes, vals.reshape(
        (len(R_GRID),) + normalform.slot_shape(len(ref.nodes), *key)))
        for key, vals in out_arrays.items()}
    return terms, float(np.sum(budget))


# ---------------------------------------------------------------------------
# one RG step
# ---------------------------------------------------------------------------

@dataclass
class StepInfo:
    q: float
    neumann_remainder: float
    dropped_norm: float
    inv_bound: float

    @property
    def budget(self) -> float:
        return self.neumann_remainder + self.dropped_norm

    @property
    def margins(self) -> dict:
        return {"q": self.q, "inv_bound": self.inv_bound, "dropped_norm": self.dropped_norm}


@lru_cache(maxsize=16)  # one basis per grid (nodes, weights), holding its walks
def _q_basis(nodes: tuple, weights: tuple) -> fock.FockBasis:
    return fock.build_fock_basis(fock.ModeGrid(np.array(nodes), np.array(weights)), 2)


def measured_q(H: NormalFormHamiltonian, W: dict, G) -> float:
    """Neumann ratio ||G(H_f) W||, with W the interaction of H and G the step's
    resolvent, on an n_max = 2 basis of H's grid, built once per grid (_q_basis)."""
    if not W:
        return 0.0
    basis = _q_basis(tuple(H.nodes), tuple(H.grid.weights))
    Wmat = sum(normalform.assemble_term(w, basis) for w in W.values())
    return float(np.linalg.norm(G(basis.hf_diagonal())[:, np.newaxis] * Wmat, 2))


def _check_step(rho: float, s_max: int) -> None:
    if not (0.0 < rho <= 0.5):
        raise ValueError("rho must lie in (0, 1/2]")
    if s_max < 0 or s_max > 2:
        raise ValueError("Neumann order s_max must be 0, 1 or 2")


def decimate(H: NormalFormHamiltonian, rho: float, s_max: int = 2):
    """Feshbach-Schur decimation of H at scale rho; returns (F, StepInfo).

    F = E + T + chi [sum_{s <= s_max} (-1)^s W (G W)^s] chi, G = chibar^2 / (E + T)
    with E + T = w00 read by at_r, truncated to M_max: a dropped order is charged
    its term_norm, and the s = 1 terms feed the s = 2 product.  F lives on
    Ran chi_rho(H_f), so the s = 2 product is tabulated only up to the first
    R_GRID row above rho (all that scale_coupling's read at rho * R_GRID
    reaches) and is zero above.

    DomainError when ||(E+T)^-1|| on the decimated region and above r = 1 exceeds
    2/rho, when the measured Neumann ratio is not below 1 (NaN included), or when
    a kernel of a product or of F is not finite, naming both, with StepInfo.margins.
    """
    _check_step(rho, s_max)
    _, W = split(H)
    w00 = H.terms[(0, 0)]
    # rho <= 1/2, so this region and the one above rho both hold r = 1
    min_h0 = float(np.min(np.abs(w00.at_r(R_GRID[R_GRID >= 0.75 * rho]))))
    # G also reads at_r's continuation above r = 1, the ray v_32 + slope t (t >= 0); where
    # it passes nearer to 0 than v_32, its distance to 0 enters the bound
    v, slope = w00.values[-1], (w00.values[-1] - w00.values[-2]) * (len(R_GRID) - 1)
    if np.real(np.conj(slope) * v) < 0:
        min_h0 = min(min_h0, abs(np.imag(np.conj(slope) * v)) / abs(slope))
    inv_bound = 1.0 / min_h0 if min_h0 > 0 else np.inf
    if inv_bound > 2.0 / rho * (1.0 + 1e-9):
        raise DomainError(
            f"scalar part nearly singular on the decimated region: "
            f"||(E+T)^-1|| ~ {inv_bound:.3e} > 2/rho = {2.0 / rho:.3e}",
            margins={"inv_bound": inv_bound, "allowed": 2.0 / rho})

    def G(r):  # r is a float array; G has w00's dtype
        out = np.zeros(r.shape, dtype=w00.values.dtype)
        mask = r > rho
        out[mask] = 1.0 / w00.at_r(r[mask])
        return out

    q = measured_q(H, W, G)
    if not q < 1.0:
        raise DomainError(f"Neumann ratio ||G W|| = {q:.3f} is not below 1",
                          margins={"q": q})
    sup_G = float(np.max(np.abs(G(R_GRID[R_GRID > rho]))))
    info = StepInfo(q, float(interaction_norm(H) * q ** (s_max + 1) / (1.0 - q)), 0.0, inv_bound)

    series = [W]  # the terms W (G W)^s, of sign (-1)^s; all are 0 when W is
    f_arrays: dict = {(0, 0): w00.values}
    try:  # an overflow leaves a kernel that is not finite, which raises ValueError
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(1, s_max + 1 if W else 1):
                stage = f"the s = {s} Neumann product"
                max_order, rows = ((4, None) if s == 1 else
                                   (H.M_max, int(np.searchsorted(R_GRID, rho, side="right")) + 1))
                term, d = normal_order_product(series[-1], W, G, H.masses,
                                               max_order=max_order, sup_G=sup_G, rows=rows)
                info.dropped_norm += d
                series.append(term)
            stage = "the decimated Hamiltonian"
            for s, terms in enumerate(series):
                for key, w in terms.items():
                    if w.order > H.M_max:
                        info.dropped_norm += term_norm(w)
                    else:
                        f_arrays[key] = f_arrays.get(key, 0) + (-1.0) ** s * w.values
            F = {key: CouplingFunction(*key, H.nodes, v) for key, v in f_arrays.items()}
    except ValueError as exc:
        raise DomainError(f"{stage}: {exc}", info.margins) from exc
    return NormalFormHamiltonian(F, H.grid, H.M_max), info


def rg_step(H: NormalFormHamiltonian, rho: float, s_max: int = 2):
    """One step of the renormalization map, decimate then rescale; returns (H', StepInfo).

    DomainError before any work on nodes not closed under k -> rho k (_slot_index),
    decimate's, and on a rescaled kernel that is not finite, with decimate's margins.
    """
    _check_step(rho, s_max)
    _slot_index(H.nodes, rho)
    F, info = decimate(H, rho, s_max)
    new_terms = {}
    for (mo, no), w in F.terms.items():
        try:  # F is finite, so a ValueError is an overflow: raised below, not warned of
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                scaled = scale_coupling(w, rho)
        except ValueError as exc:
            raise DomainError(f"the rescaled ({mo},{no}) kernel is not finite",
                              margins=info.margins) from exc
        new_terms[(mo, no)] = _apply_field_support_mask(scaled)
    return NormalFormHamiltonian(new_terms, H.grid, H.M_max), info


# ---------------------------------------------------------------------------
# the full flow
# ---------------------------------------------------------------------------

@dataclass
class FlowRecord:
    step: int
    e: complex
    E: complex
    beta: float
    gamma: float
    budget: float


@dataclass
class FlowTrajectory:
    records: list = dfield(default_factory=list)
    e_final: complex = 0.0
    budget: float = 0.0

    def to_csv(self) -> str:
        lines = ["step,e_re,e_im,beta,gamma,budget"]
        for r in self.records:
            lines.append(f"{r.step},{r.e.real:.16e},{r.e.imag:.16e},"
                         f"{r.beta:.16e},{r.gamma:.16e},{r.budget:.16e}")
        return "\n".join(lines) + "\n"


# the tolerance to which the last step's root e_final is located
E_TOL = 1e-9

# degree of the polynomial in lam that carries each step's family
DEGREE = 3


def _lagrange(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Weights L[i, j] = l_j(t_i) of the Lagrange basis on the points x."""
    return np.linalg.solve(np.vander(x).T, np.vander(t, len(x)).T).T


def _combine(family: list, weights: np.ndarray) -> NormalFormHamiltonian:
    """sum_j weights[j] family[j]; kernel values and r-derivatives are both linear."""
    terms = {}
    for key, w in family[0].terms.items():
        ws = [H.terms[key] for H in family]
        terms[key] = CouplingFunction(w.m, w.n, w.nodes,
                                      np.tensordot(weights, [u.values for u in ws], 1),
                                      np.tensordot(weights, [u.dr_values for u in ws], 1))
    return NormalFormHamiltonian(terms, family[0].grid, family[0].M_max)


def flow(H0: NormalFormHamiltonian, rho: float, n_steps: int, s_max: int = 2,
         builder=None):
    """Iterate the map on the analytic family H(lam), re-centering it each step.

    H0 = H(0) gives e_0; builder(lam) gives H(lam), shifted(H0, lam) by
    default.  Step n carries R^n(H(lam)) at the DEGREE + 1 Chebyshev points
    of e_{n-1} -/+ rho^n / 8: rg_step applied to builder (step 1) or to the
    previous step's Hamiltonians interpolated there.  e_n is the root of the
    vacuum interpolant, and the record holds the family interpolated at it.
    FlowStalledError, with the points, when the interval holds no root or
    several, when a next step's points would leave it (root outside the middle
    1 - rho), or when the degree-DEGREE coefficient over the slope at the root
    exceeds rho^(n+1) / 24 (E_TOL on the last step).  ValueError unless n_steps >= 1.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, not {n_steps}")
    if builder is None:
        def builder(lam):
            return shifted(H0, lam)

    # Chebyshev points on [-1, 1], increasing; lam = e_{n-1} + rho^n / 8 * x
    x = -np.cos(np.pi * (np.arange(DEGREE + 1) + 0.5) / (DEGREE + 1))
    vander = np.vander(x)
    e_prev = split(H0)[0].real
    traj = FlowTrajectory()
    family = root = None
    for n in range(1, n_steps + 1):
        half = rho ** n / 8.0
        lams = e_prev + half * x
        if family is None:
            inputs = (builder(lam) for lam in lams)
        else:
            # the points sit at root + rho x in the previous step's coordinate
            inputs = (_combine(family, w) for w in _lagrange(x, root + rho * x))
        steps = [rg_step(H, rho, s_max=s_max) for H in inputs]
        family = [H for H, _ in steps]
        vacuum = [split(H)[0].real for H in family]
        coef = np.linalg.solve(vander, vacuum)
        roots = np.roots(coef)
        inside = roots.real[(roots.imag == 0) & (np.abs(roots.real) <= 1.0)]
        where = f"the step-{n} interval [{e_prev - half:.6g}, {e_prev + half:.6g}]"
        if len(inside) != 1:
            raise FlowStalledError(
                f"the vacuum interpolant has {len(inside)} roots on {where}; node values "
                + ", ".join(f"{v:.3e}" for v in vacuum), nodes=lams)
        root = float(inside[0])
        e_n = e_prev + half * root
        if n < n_steps and abs(root) > 1.0 - rho:
            raise FlowStalledError(f"root {e_n:.9g} outside the middle 1 - rho of {where}",
                                   nodes=lams)
        slope = np.polyval(np.polyder(coef), root) / half
        tol = max(min(rho ** (n + 1) / 24.0, E_TOL if n == n_steps else np.inf), 1e-14)
        if not abs(coef[0]) <= tol * abs(slope):
            raise FlowStalledError(
                f"family not resolved on {where}: degree-{DEGREE} coefficient over slope "
                f"{abs(coef[0] / slope):.3e} > {tol:.3e}", nodes=lams)
        at_root = _lagrange(x, np.array([root]))[0]
        E, beta, gamma = polydisc_coordinates(_combine(family, at_root))
        traj.budget += float(at_root @ [info.budget for _, info in steps])
        traj.records.append(FlowRecord(step=n, e=complex(e_n), E=E, beta=beta, gamma=gamma,
                                       budget=traj.budget))
        e_prev = e_n
    traj.e_final = complex(e_prev)
    return traj
