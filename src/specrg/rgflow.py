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
from functools import lru_cache, partial
from itertools import combinations
from math import comb, factorial

import numpy as np

# fock and normalform functions are looked up through their modules at call
# time, so that wrapping them there (as perfbench's tracer does) sees the calls
from . import fock, normalform
from .normalform import (MU, R_GRID, XI, CouplingFunction, NormalFormHamiltonian,
                         NotFiniteError, interaction_norm, multisets, shifted, split,
                         t_slope_deviation, term_norm)


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
        vals = vals[(Ellipsis,) + np.ix_(*[index[tuple(np.maximum(s, 0)[C.T])]
                                           for C, index, _ in sides])]
        for k, (C, _, _) in enumerate(sides):  # index -1 reads 0; the slot axes come last
            vals[(Ellipsis, (s[C] < 0).any(axis=1)) + (slice(None),) * (len(sides) - 1 - k)] = 0.0
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
def _splits(n_nodes: int, length: int, first: int) -> np.ndarray:
    """i P + j for every choice S of `first` positions (axis 0) and row C of
    multisets(n_nodes, length) (axis 1): i is the row of C[S], j that of the rest, and
    P = len(multisets(n_nodes, length - first))."""
    C, P = multisets(n_nodes, length)[0], len(multisets(n_nodes, length - first)[0])
    return np.stack([_rows(n_nodes, list(C[:, list(S)].T), len(C)) * P + _rows(
        n_nodes, [C[:, k] for k in range(length) if k not in S], len(C))
        for S in combinations(range(length), first)])


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


@lru_cache(maxsize=256)  # per node set, so bounded
def _read_plan(nodes: tuple, masses: tuple, length: int, rows: int):
    """The field energies R_GRID[:rows] + each distinct node-energy sum of `length` slots,
    (rows, sums), and at_r's cells there."""
    r = R_GRID[:rows, np.newaxis] + _sums(nodes, masses, length)[1]
    return r, normalform.read_cells(r)


@lru_cache(maxsize=256)  # per node set, so bounded
def _gather(nodes: tuple, masses: tuple, first: int, second: int, length: int) -> np.ndarray:
    """The flat index, into a read flattened (shift, multiset), of the shift of every row of
    multisets(N, length) (axis 0) and the multiset sorted(X + Y) of every row X of
    multisets(N, first) (axis 1) and Y of multisets(N, second) (axis 2)."""
    N, inv = len(nodes), _sums(nodes, masses, length)[2]
    X, Y = multisets(N, first)[0], multisets(N, second)[0]
    merged = _rows(N, [x[:, np.newaxis] for x in X.T] + list(Y.T), (len(X), len(Y)))
    return inv[:, np.newaxis, np.newaxis] * len(multisets(N, first + second)[0]) + merged


def _read(w: CouplingFunction, node_set: tuple, length: int, rows: int, axes=(0, 1, 2, 3)):
    """w at R_GRID[:rows] + each distinct sum of `length` slots, on the read plan's cells, as
    (members * rows, shifts, P_m, P_n) (P = 1 for a side without slots) in the order axes."""
    r, cells = _read_plan(*node_set, length, rows)
    return np.ascontiguousarray(w.read(r, cells).reshape([-1, r.shape[1]] + [
        len(multisets(len(w.nodes), k)[0]) for k in (w.m, w.n)]).transpose(axes))


def _live_nodes(W: dict, N: int) -> np.ndarray:
    """The nodes on which some kernel of W, of some member, is nonzero, increasing."""
    live = np.zeros(N, dtype=bool)
    for w in W.values():
        nonzero = w.values.any(axis=tuple(range(len(w.family) + 1)))  # over members and r
        for side, k in enumerate(k for k in (w.m, w.n) if k):
            rows = nonzero.any(axis=1 - side) if nonzero.ndim == 2 else nonzero
            live[multisets(N, k)[0][rows]] = True
    return np.flatnonzero(live)


@lru_cache(maxsize=256)  # per node count and live set, so bounded
def _live_cut(N: int, live: tuple, m: int, n: int) -> tuple:
    """The index of an (m, n) table on N nodes at the rows of multisets(len(live), .) of live."""
    live = np.array(live, dtype=np.intp)
    return (Ellipsis,) + np.ix_(*[multisets(N, k)[1][tuple(live[multisets(len(live), k)[0]].T)]
                                  for k in (m, n) if k])


def _split_mean(block: np.ndarray, axis: int, splits: np.ndarray) -> np.ndarray:
    """The mean of block's takes along axis at the rows of splits, added in place in row
    order.  A complex sum is scaled on its float view by 1/S, which is how numpy rounds a
    complex divided by a real S (up to the sign of a zero); a real sum is divided by S."""
    mean = block.take(splits[0], axis=axis)
    for split in splits[1:]:
        mean += block.take(split, axis=axis)
    if mean.dtype.kind == "c":
        np.multiply(mean.view(float), 1.0 / len(splits), out=mean.view(float))
    else:
        mean /= len(splits)
    return mean


def _pair_product(wA: CouplingFunction, wB: CouplingFunction, G, node_set: tuple, max_order: int,
                  out_arrays: dict, budget: list, sup_G: float, rows: int, charge: tuple):
    """Accumulate the normal ordering of W[wA] G(H_f) W[wB] into out_arrays, on multisets.

    With p contractions (annihilators of A against creators of B, equal mode
    index) the kernel at field energy r between the merged blocks is

      C(n1,p) C(m2,p) p! * sum_q prod(mass_q)
        wA(r + O(I2'); I1, J1', q) G(r + O(J1') + O(I2') + O(q)) wB(r + O(J1'); q, I2', J2)

    with O(.) the node-energy sum of the listed slots, I1/J1' the open slots of
    A and I2'/J2 those of B.  Each part is a sorted tuple: A is read at the
    multiset J1' + q and B at q + I2', q runs over sorted tuples weighted by
    p!/prod(c_i!), and the kernel at sorted (C, D) is the mean over the position
    splits of C into (I1, I2') and of D into (J1', J2) (_splits, _split_mean).
    Each factor is read at its distinct shifts on cached cells (_read_plan), by
    at_r's rule bit for bit, and one take of a cached flat index (_gather) gives
    every tuple its read: A with the tuple axes outermost in memory, as a fancy
    index leaves them, which fixes einsum's order of summation over q, and B in
    C order.  README "Conventions" describes G's table.  Only the first rows
    points of R_GRID are computed.  A dropped order is charged a bound built
    from the kernels' cached norms, which are computed only then, and from charge.
    A family's member axis folds into the row axis: each step below runs once for all members.
    """
    m1, n1, m2, n2 = wA.m, wA.n, wB.m, wB.n
    N, r = len(wA.nodes), R_GRID[:rows]

    for p in range(0, min(n1, m2) + 1):
        mo, no = m1 + m2 - p, n1 + n2 - p
        order = mo + no
        Cf = comb(n1, p) * comb(m2, p) * factorial(p)
        if order > max_order:
            # dropped: log a norm-product bound instead of the kernel (one per member)
            budget.append(Cf * charge[0] ** p * sup_G
                          * wA.norm_mu1 * wB.norm_mu1 * charge[1] ** (-MU) * XI ** (-order))
            continue

        omega_q, u_omega, inv_omega, weight_q = _sums(*node_set, p)
        uT, invT = _pair_sums(*node_set, m2 - p, n1 - p)
        NI, NJ, Q = len(_sums(*node_set, m2 - p)[0]), len(_sums(*node_set, n1 - p)[0]), len(omega_q)
        Gq = G((r[:, np.newaxis, np.newaxis] + uT[:, np.newaxis]) + u_omega).reshape(
            -1, len(uT), len(u_omega))[:, invT[:, np.newaxis], inv_omega].reshape(-1, NI, NJ, Q)
        Gq *= weight_q
        # A as (rows, i, I2', J1', q), (I2', J1', q) outermost in memory; B in C order
        A = _read(wA, node_set, m2 - p, rows, (1, 3, 0, 2))  # (shifts, P_n1, rows, i)
        A = A.reshape(-1, A[0, 0].size).take(_gather(*node_set, n1 - p, p, m2 - p), axis=0).reshape(
            NI, NJ, Q, *A.shape[2:]).transpose(3, 4, 0, 1, 2)
        A = A.astype(np.result_type(A, Gq), copy=False)
        A *= Gq[:, np.newaxis]  # A G in A's table: two tables at a time, not three
        del Gq
        B = _read(wB, node_set, n1 - p, rows)  # (rows, shifts, P_m2, k)
        B = B.reshape(len(B), -1, B.shape[3]).take(_gather(*node_set, p, m2 - p, n1 - p), axis=1)
        block = np.einsum("riabq,rbqak->riabk", A, B, order="C")
        if Cf != 1:
            block *= Cf
        block = block.reshape(-1, A.shape[1] * NI, NJ * B.shape[4])
        del A, B  # the largest tables, freed before the split means and the next order
        # the mean over the position splits of each side; one split is the identity
        for axis, splits in ((1, _splits(N, mo, m1)), (2, _splits(N, no, n1 - p))):
            if len(splits) > 1:
                block = _split_mean(block, axis, splits)
        acc = out_arrays.get((mo, no))  # summed in place, unless a real sum meets a complex block
        out_arrays[(mo, no)] = block if acc is None else np.add(
            acc, block, out=acc if acc.dtype == np.result_type(acc, block) else None)


def normal_order_product(A_terms: dict, B_terms: dict, G, masses: np.ndarray,
                         max_order: int, sup_G: float, rows: int | None = None, _charge=None):
    """Normal ordering of (sum A) G(H_f) (sum B); returns (terms, dropped norm).

    Every kernel, of A, B and the result, is a CouplingFunction on multisets.  The
    result's kernels are computed on the first rows points of R_GRID (all when rows
    is None) and are zero above.  A family's G(r) and dropped norms are per member.
    A dropped order's charge reads (sum_i mass_i / k_i, lowest node) of the kernels' nodes.
    """
    ref = next(iter(A_terms.values()))
    node_set = (tuple(ref.nodes), tuple(masses))  # the key of the cached sums
    charge = _charge or (_mass_over_k(*node_set), ref.nodes[0])  # _decimate's: the whole grid's
    rows = len(R_GRID) if rows is None else rows
    out_arrays: dict = {}
    budget: list = []
    for wA in A_terms.values():
        for wB in B_terms.values():
            _pair_product(wA, wB, G, node_set, max_order, out_arrays, budget, sup_G, rows, charge)
    terms = {}
    for key, vals in out_arrays.items():
        vals = vals.reshape(ref.family + (rows, -1))
        if rows < len(R_GRID):  # the rows above are zero
            vals = np.concatenate([vals, np.zeros(ref.family + (len(R_GRID) - rows, vals.shape[-1]),
                                                  vals.dtype)], axis=-2)
        terms[key] = CouplingFunction(*key, ref.nodes, vals.reshape(
            ref.family + (len(R_GRID),) + normalform.slot_shape(len(ref.nodes), *key)))
    # each member's charges in order, summed as np.sum sums one member's list
    return terms, np.stack(budget, axis=-1).sum(axis=-1) if budget else 0.0


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
    """Neumann ratio ||G(H_f) W|| (per member), with W the interaction of H and G the
    step's resolvent, on an n_max = 2 basis of H's grid, built once per grid (_q_basis)."""
    if not W:
        return 0.0
    basis = _q_basis(tuple(H.nodes), tuple(H.grid.weights))
    Wmat = sum(normalform.assemble_term(w, basis) for w in W.values())
    return np.linalg.norm(G(basis.hf_diagonal())[..., np.newaxis] * Wmat, 2, axis=(-2, -1))


def _check_step(rho: float, s_max: int) -> None:
    if not (0.0 < rho <= 0.5):
        raise ValueError("rho must lie in (0, 1/2]")
    if s_max < 0 or s_max > 2:
        raise ValueError("Neumann order s_max must be 0, 1 or 2")


def _stack(family: list) -> NormalFormHamiltonian:
    """The Hamiltonians of family (one grid) as one family, each table stacked on a member axis."""
    H = family[0]
    return NormalFormHamiltonian({key: CouplingFunction(
        *key, H.nodes, np.stack([Hi.terms[key].values for Hi in family]),
        np.stack([Hi.terms[key].dr_values for Hi in family])) for key in H.terms}, H.grid, H.M_max)


def _member(H: NormalFormHamiltonian, i) -> NormalFormHamiltonian:
    """Member i of the family H."""
    return NormalFormHamiltonian({key: CouplingFunction(*key, w.nodes, w.values[i], w.dr_values[i])
                                  for key, w in H.terms.items()}, H.grid, H.M_max)


def _per_member(step, H: NormalFormHamiltonian, rho: float, s_max: int):
    """step(H, rho, s_max) -> (H', list of StepInfos), returning one StepInfo for a single
    H.  A family stops at the first check any member fails; its members are then stepped
    one by one, so the DomainError is the lowest failing member's, at its first failing
    check, as a loop over them raises it."""
    family = H.terms[(0, 0)].family
    try:
        out, infos = step(H, rho, s_max)
    except DomainError:
        for i in range(family[0] if family else 0):
            step(_member(H, i), rho, s_max)
        raise
    return out, infos if family else infos[0]


def decimate(H: NormalFormHamiltonian, rho: float, s_max: int = 2):
    """Feshbach-Schur decimation of H at scale rho; returns (F, StepInfo), for a family
    the members' F and StepInfos (_per_member).

    F = E + T + chi [sum_{s <= s_max} (-1)^s W (G W)^s] chi, G = chibar^2 / (E + T)
    with E + T = w00 read by at_r, truncated to M_max: a dropped order is charged
    its term_norm, and the s = 1 terms feed the s = 2 product.  F lives on
    Ran chi_rho(H_f), so the s = 2 product is tabulated only up to the first
    R_GRID row above rho (all that scale_coupling's read at rho * R_GRID
    reaches) and is zero above.  The products run on W's live nodes (_live_nodes), none
    when no node is live, and every number is the whole grid's (README "Conventions").

    DomainError when ||(E+T)^-1|| on the decimated region and above r = 1 exceeds
    2/rho, when the measured Neumann ratio is not below 1 (NaN included), or when
    a kernel of a product or of F is not finite, naming both, with StepInfo.margins.
    """
    return _per_member(_decimate, H, rho, s_max)


def _decimate(H: NormalFormHamiltonian, rho: float, s_max: int):
    """decimate, with the list of StepInfos (one for a single H)."""
    _check_step(rho, s_max)
    _, W = split(H)
    w00 = H.terms[(0, 0)]
    # rho <= 1/2, so this region and the one above rho both hold r = 1
    min_h0 = np.atleast_1d(np.min(np.abs(w00.at_r(R_GRID[R_GRID >= 0.75 * rho])), axis=-1))
    # G also reads at_r's continuation above r = 1, the ray v_32 + slope t (t >= 0); where
    # it passes nearer to 0 than v_32, its distance to 0 enters the bound
    v, slope = np.atleast_1d(w00.values[..., -1],
                             (w00.values[..., -1] - w00.values[..., -2]) * (len(R_GRID) - 1))
    for i in np.flatnonzero(np.real(np.conj(slope) * v) < 0):
        min_h0[i] = min(min_h0[i], abs(np.imag(np.conj(slope[i]) * v[i])) / abs(slope[i]))
    inv_bound = np.divide(1.0, min_h0, out=np.full(len(min_h0), np.inf), where=min_h0 > 0)
    if inv_bound.max() > 2.0 / rho * (1.0 + 1e-9):  # a family's max: see _per_member
        raise DomainError(
            f"scalar part nearly singular on the decimated region: "
            f"||(E+T)^-1|| ~ {inv_bound.max():.3e} > 2/rho = {2.0 / rho:.3e}",
            margins={"inv_bound": float(inv_bound.max()), "allowed": 2.0 / rho})

    def G(r):  # r is a float array; G has w00's dtype and member axis
        out = np.zeros(w00.family + r.shape, dtype=w00.values.dtype)
        above = (r > rho).ravel().nonzero()[0]  # flat: a boolean index after the members is slow
        out.reshape(w00.family + (-1,))[..., above] = 1.0 / w00.at_r(r.ravel()[above])
        return out

    q = measured_q(H, W, G) + np.zeros(len(min_h0))  # measured_q is 0.0 when W is
    if not q.max() < 1.0:  # NaN included, which max passes on
        raise DomainError(f"Neumann ratio ||G W|| = {q.max():.3f} is not below 1",
                          margins={"q": float(q.max())})
    sup_G = np.max(np.abs(G(R_GRID[R_GRID > rho])), axis=-1)

    # the products run on the live nodes: their kernels are 0 at a tuple that holds a dead
    # node, and so is every term of their sums over one
    N, live = len(H.nodes), _live_nodes(W, len(H.nodes))
    cut = partial(_live_cut, N, tuple(live.tolist())) if len(live) < N else None
    Wl = W if cut is None else {key: CouplingFunction(
        *key, H.nodes[live], w.values[cut(*key)], w.dr_values[cut(*key)]) for key, w in W.items()}

    series = [Wl]  # the terms W (G W)^s, of sign (-1)^s; no product runs when W is 0
    f_arrays: dict = {(0, 0): w00.values}
    dropped = np.zeros(len(q))
    try:  # an overflow leaves a kernel that is not finite, which raises NotFiniteError
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(1, s_max + 1 if len(live) else 1):
                stage = f"the s = {s} Neumann product"
                max_order, rows = ((4, None) if s == 1 else
                                   (H.M_max, int(np.searchsorted(R_GRID, rho, side="right")) + 1))
                term, d = normal_order_product(
                    series[-1], Wl, G, H.masses[live], max_order=max_order, sup_G=sup_G,
                    rows=rows, _charge=(_mass_over_k(tuple(H.nodes), tuple(H.masses)), H.nodes[0]))
                dropped += d
                series.append(term)
            stage = "the decimated Hamiltonian"
            for s, terms in enumerate([W] + series[1:]):
                for key, w in terms.items():
                    if w.order > H.M_max:
                        dropped += term_norm(w)
                    else:
                        vals = w.values
                        if s and cut:  # a product's kernel, embedded: 0 off the live rows
                            vals = np.zeros(w.family + (len(R_GRID),) + normalform.slot_shape(
                                N, *key), w.values.dtype)
                            vals[cut(*key)] = w.values
                        f_arrays[key] = f_arrays.get(key, 0) + (-1.0) ** s * vals
            F = {key: CouplingFunction(*key, H.nodes, v) for key, v in f_arrays.items()}
            norms = np.broadcast_to(interaction_norm(H), q.shape).tolist()
    except NotFiniteError as exc:
        raise DomainError(f"{stage}: {exc}", StepInfo(q[0], 0.0, dropped[0], inv_bound[0]).margins
                          ) from exc
    return NormalFormHamiltonian(F, H.grid, H.M_max), [
        StepInfo(qi, float(gamma * qi ** (s_max + 1) / (1.0 - qi)), d, bound)
        for qi, gamma, d, bound in zip(q.tolist(), norms, dropped.tolist(), inv_bound.tolist())]


def rg_step(H: NormalFormHamiltonian, rho: float, s_max: int = 2):
    """One step of the renormalization map, decimate then rescale; returns (H', StepInfo).

    H may be a family (CouplingFunction): each read, product and rescaling runs once for
    all its members, and their StepInfos come as a list.  A single H runs the same lines.
    DomainError before any work on nodes not closed under k -> rho k (_slot_index),
    decimate's, and on a rescaled kernel that is not finite, with decimate's margins;
    for a family, the lowest failing member's at its first failing check (_per_member).
    """
    return _per_member(_rg_step, H, rho, s_max)


def _rg_step(H: NormalFormHamiltonian, rho: float, s_max: int):
    """rg_step, with the list of StepInfos (one for a single H)."""
    _check_step(rho, s_max)
    _slot_index(H.nodes, rho)
    F, infos = _decimate(H, rho, s_max)
    new_terms = {}
    for (mo, no), w in F.terms.items():
        try:  # F is finite, so this is an overflow: raised below, not warned of
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                scaled = scale_coupling(w, rho)
        except NotFiniteError as exc:
            raise DomainError(f"the rescaled ({mo},{no}) kernel is not finite",
                              margins=infos[0].margins) from exc
        new_terms[(mo, no)] = _apply_field_support_mask(scaled)
    return NormalFormHamiltonian(new_terms, H.grid, H.M_max), infos


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


def _combine(family: NormalFormHamiltonian, weights: np.ndarray) -> NormalFormHamiltonian:
    """sum_j weights[..., j] member j: one H for a weight vector, a family for a matrix of
    one row per member; kernel values and r-derivatives are both linear (a gemv a row)."""
    def lin(t):
        return np.matmul(weights[..., np.newaxis, :], t.reshape(len(t), -1)).reshape(
            weights.shape[:-1] + t.shape[1:])
    return NormalFormHamiltonian({key: CouplingFunction(*key, w.nodes, lin(w.values),
                                                        lin(w.dr_values))
                                  for key, w in family.terms.items()}, family.grid, family.M_max)


def flow(H0: NormalFormHamiltonian, rho: float, n_steps: int, s_max: int = 2,
         builder=None):
    """Iterate the map on the analytic family H(lam), re-centering it each step.

    H0 = H(0) gives e_0; builder(lams), called once, gives the family H(lam) at an array
    of points (shifted(H0, lam) stacked by default).  Step n carries R^n(H(lam)) at the
    DEGREE + 1 Chebyshev points of e_{n-1} -/+ rho^n / 8 as one family: one rg_step on
    the builder's family (step 1) or on the previous family interpolated there.
    Each point keeps its StepInfo, and a DomainError is the lowest failing
    point's.  e_n is the root of the vacuum interpolant, and the record holds
    the family, and the budgets, interpolated at it.
    FlowStalledError, with the points, when the interval holds no root or
    several, when a next step's points would leave it (root outside the middle
    1 - rho), or when the degree-DEGREE coefficient over the slope at the root
    exceeds rho^(n+1) / 24 (E_TOL on the last step).  ValueError unless n_steps >= 1.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, not {n_steps}")
    if builder is None:
        def builder(lams):
            return _stack([shifted(H0, lam) for lam in lams])

    # Chebyshev points on [-1, 1], increasing; lam = e_{n-1} + rho^n / 8 * x
    x = -np.cos(np.pi * (np.arange(DEGREE + 1) + 0.5) / (DEGREE + 1))
    vander = np.vander(x)
    e_prev = split(H0)[0].real
    traj = FlowTrajectory()
    family = root = None
    for n in range(1, n_steps + 1):
        half = rho ** n / 8.0
        lams = e_prev + half * x
        # the points sit at root + rho x in the previous step's coordinate
        family, infos = rg_step(builder(lams) if family is None
                                else _combine(family, _lagrange(x, root + rho * x)), rho, s_max)
        vacuum = np.real(split(family)[0])
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
        traj.budget += float(at_root @ [info.budget for info in infos])
        traj.records.append(FlowRecord(step=n, e=complex(e_n), E=E, beta=beta, gamma=gamma,
                                       budget=traj.budget))
        e_prev = e_n
    traj.e_final = complex(e_prev)
    return traj
