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

import warnings
from dataclasses import dataclass, field as dfield
from functools import lru_cache
from math import comb, factorial

import numpy as np

# fock and normalform functions are looked up through their modules at call
# time, so that wrapping them there (as perfbench's tracer does) sees the calls
from . import fock, normalform
from .normalform import (MU, XI, CouplingFunction, NormalFormHamiltonian, coupling_norm_mu1,
                         interaction_norm, interp_axis, split, subtract_constant,
                         symmetrized, t_slope_deviation)


class DomainError(ValueError):
    """The Hamiltonian left the domain of the renormalization map."""

    def __init__(self, message, margins=None):
        super().__init__(message)
        self.margins = margins or {}


class FlowStalledError(RuntimeError):
    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes


@dataclass
class PolydiscParams:
    """Polydisc radii (alpha, beta, gamma) plus the flow constants (mu is MU)."""

    alpha: float
    beta: float
    gamma: float
    rho: float = 0.5
    c: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.rho <= 0.5):
            raise ValueError("rho must lie in (0, 1/2]")
        if self.rho == 0.5:
            # the contraction theorem is stated on the open interval; the
            # boundary value is allowed for experiments but flagged
            warnings.warn("rho = 1/2 sits on the boundary of the theorem range")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("alpha, beta, gamma must be nonnegative")


def polydisc_coordinates(H: NormalFormHamiltonian) -> tuple[complex, float, float]:
    """(E, beta, gamma) of H: E = w00(0), beta = sup|T'-1|, gamma = ||W||_{mu,xi}."""
    E, _ = split(H)
    return E, t_slope_deviation(H), interaction_norm(H)


def polydisc_membership(H: NormalFormHamiltonian, p: PolydiscParams):
    """Evaluate |E| <= alpha, sup|T'-1| <= beta, ||W|| <= gamma."""
    E, beta_meas, gamma_meas = polydisc_coordinates(H)
    margins = (p.alpha - abs(E), p.beta - beta_meas, p.gamma - gamma_meas)
    return all(m >= 0 for m in margins), margins


def parameter_flow(p: PolydiscParams) -> PolydiscParams:
    """One application of the recursion for the polydisc radii.

    alpha' = alpha/rho + c gamma^2 / (2 rho), beta' = beta + c gamma^2/(2 rho),
    gamma' = c rho^mu gamma.  The hypothesis alpha, beta, gamma <= rho/8 is
    checked; a violation warns but the values are still produced.
    """
    if max(p.alpha, p.beta, p.gamma) > p.rho / 8.0:
        warnings.warn("parameter_flow hypothesis alpha, beta, gamma <= rho/8 violated")
    quad = p.c * p.gamma ** 2 / (2.0 * p.rho)
    return PolydiscParams(alpha=p.alpha / p.rho + quad,
                          beta=p.beta + quad,
                          gamma=p.c * p.rho ** MU * p.gamma,
                          rho=p.rho, c=p.c)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def _power_tail(vals: np.ndarray, nodes: np.ndarray, targets: np.ndarray,
                axis: int) -> np.ndarray:
    """vals continued along one momentum axis to targets below the lowest node.

    Infrared kernels behave like powers of |k|: each column continues as
    v0 (k / k0)^p with p fitted to its first two nodes, or stays at v0 where
    either of those values vanishes.
    """
    v0 = np.take(vals, [0], axis=axis)
    v1 = np.take(vals, [1], axis=axis)
    fit = (v0 != 0) & (v1 != 0)
    pexp = (np.log(np.abs(np.where(fit, v1, 1.0)) / np.abs(np.where(fit, v0, 1.0)))
            / np.log(nodes[1] / nodes[0]))
    shape = [1] * vals.ndim
    shape[axis] = len(targets)
    return v0 * (targets / nodes[0]).reshape(shape) ** pexp


def scale_coupling(w: CouplingFunction, rho: float) -> CouplingFunction:
    """Kernel form of the rescaling, w'(r; k) = rho^(3(m+n)/2 - 1) w(rho r; rho k).

    The momentum arguments contract into the unit ball while the grid and its
    radial measure k^2 dk stay fixed, so each slot carries a factor rho^(3/2)
    (half the Jacobian of the measure; a contracted pair of slots then
    reproduces the full rho^3) and the overall 1/rho expands the scalar part.
    This makes ||w'||_mu <= rho^(m+n-1+mu) ||w||_mu in the anisotropic norm.

    A kernel from from_profile is re-tabulated from its profile in one call;
    any other is interpolated (linear in r and in each momentum slot, with a
    power-law extension below the lowest node).  rg_step builds its decimated
    kernels from arrays, so a flow reads a profile only when W is empty.
    Interpolation keeps the bound above to rounding where every target
    rho k is a node or lies below the lowest one, as on the dyadic nodes of
    a geometric ModeGrid at rho = 1/2.  Between nodes the linear rule can
    exceed it: on geomspace(0.02, 0.5, 6) or (.., 7) nodes at mu = 0.25 the
    ratio is 0.5% or 1.0% over the bound.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    pref = rho ** (1.5 * w.order - 1.0)
    if w.profile is not None:
        prof = w.profile
        new_prof = (lambda r, *ks, _p=prof, _c=pref, _rho=rho:
                    _c * _p(_rho * r, *(_rho * kk for kk in ks)))
        return normalform.from_profile(w.m, w.n, w.r_grid, w.nodes, new_prof)

    # r axis first: sample at rho * r_grid (always inside [0, rho] subset of I)
    vals = w.at_r(rho * w.r_grid)
    # then each momentum slot
    targets = rho * w.nodes
    low = targets < w.nodes[0]
    for axis in range(1, w.order + 1):
        scaled = interp_axis(vals, w.nodes, targets, axis)
        if np.any(low) and len(w.nodes) > 1:
            scaled[(slice(None),) * axis + (low,)] = _power_tail(vals, w.nodes,
                                                                 targets[low], axis)
        vals = scaled
    return CouplingFunction(w.m, w.n, w.r_grid, w.nodes, pref * vals)


def _apply_field_support_mask(w: CouplingFunction) -> CouplingFunction:
    """Zero the kernel where the in- or out-state field energy exceeds 1.

    After rescaling, the decimation cutoffs chi_rho on both sides of the
    operator become indicators that r plus the created (resp. annihilated)
    photon energies stay below 1.
    """
    if w.order == 0:
        return w
    r, *ks = np.ix_(w.r_grid, *[w.nodes] * w.order)
    omega_cre, omega_ann = sum(ks[:w.m], 0.0), sum(ks[w.m:], 0.0)
    mask = (r + omega_cre <= 1.0 + 1e-12) & (r + omega_ann <= 1.0 + 1e-12)
    # the indicator is flat away from its edge, so the almost-everywhere
    # r-derivative of the masked kernel is the masked derivative
    return CouplingFunction(w.m, w.n, w.r_grid, w.nodes, w.values * mask,
                            dr_values=w.dr_values * mask)


# ---------------------------------------------------------------------------
# generalized Wick ordering of products
# ---------------------------------------------------------------------------

def _slot_tuples(M: int, length: int) -> np.ndarray:
    """Every length-tuple of M slot indices, one per column, in itertools.product order."""
    return np.indices((M,) * length).reshape(length, M ** length)


def _pair_product(wA: CouplingFunction, wB: CouplingFunction, G, masses: np.ndarray,
                  max_order: int, out_arrays: dict, budget: list, sup_G: float,
                  norms: tuple):
    """Accumulate the normal ordering of W[wA] G(H_f) W[wB] into out_arrays.

    For each number p of contractions (annihilators of A against creators of
    B, equal mode index), the new kernel at field energy r (the value between
    the merged creation and annihilation blocks) is

      C(n1,p) C(m2,p) p! * sum_q prod(mass_q)
        wA(r + O(I2'); I1, J1', q) G(r + O(J1') + O(I2') + O(q))
        wB(r + O(J1'); q, I2', J2)

    where O(.) sums the node energies of the listed slots, I1/J1' are the
    (uncontracted) slots of A, I2'/J2 those of B.  The argument shifts are
    the pull-through bookkeeping.  Per p, A is read once at r + O(I2') for
    every tuple I2' and B at r + O(J1') for every J1', G is tabulated once on
    (r, I2', J1', q), and one einsum contracts q for all slot tuples at once.

    Reads at r + shift > 1 are clamped to r = 1, like every off-grid read.
    On the two-level model (4 and 8 modes) and the calibration sweep's random
    kernels, no entry kept by the field-support mask depends on one from the
    second step on: a 1e3 offset on every clamped read leaves them bit-equal.
    In a first step, whose input kernels carry no mask, setting the clamped
    reads to 0 moves kept entries by at most 1.4e-12 relative (model, g <=
    5e-3) and 1.3e-8 (random kernels), and leaves the flow's e_final as is.
    norms holds the (mu, 1) norms of wA and wB for the dropped-order bound.
    """
    m1, n1, m2, n2 = wA.m, wA.n, wB.m, wB.n
    r_grid, nodes = wA.r_grid, wA.nodes
    R, M = len(r_grid), len(nodes)

    for p in range(0, min(n1, m2) + 1):
        mo, no = m1 + m2 - p, n1 + n2 - p
        order = mo + no
        Cf = comb(n1, p) * comb(m2, p) * factorial(p)
        if order > max_order:
            # dropped: log a norm-product bound instead of the kernel
            budget.append(Cf * float(np.sum(masses / nodes)) ** p * sup_G * norms[0] * norms[1]
                          * nodes[0] ** (-MU) * XI ** (-order))
            continue

        # sums and products over each tuple, left to right like np.sum and np.prod
        I2, J1, q = _slot_tuples(M, m2 - p), _slot_tuples(M, n1 - p), _slot_tuples(M, p)
        sI, sJ, omega_q = nodes[I2].sum(axis=0), nodes[J1].sum(axis=0), nodes[q].sum(axis=0)
        mass_q = masses[q].prod(axis=0)
        NI, NJ, Q = len(sI), len(sJ), len(omega_q)
        A = wA.at_r(r_grid[:, np.newaxis] + sI).reshape(R, NI, M ** m1, NJ, Q)
        B = wB.at_r(r_grid[:, np.newaxis] + sJ).reshape(R, NJ, Q, NI, M ** n2)
        g_arg = (r_grid[:, np.newaxis, np.newaxis, np.newaxis]
                 + (sI[:, np.newaxis] + sJ)[..., np.newaxis] + omega_q)
        Gq = G(g_arg) * mass_q
        block = np.einsum("raibq,rabq,rbqak->riabk", A, Gq, B)
        out_arrays[(mo, no)] = (out_arrays.get((mo, no), 0)
                                + (Cf * block).reshape((R,) + (M,) * order))


def normal_order_product(A_terms: dict, B_terms: dict, G, masses: np.ndarray,
                         max_order: int, sup_G: float):
    """Normal ordering of (sum A) G(H_f) (sum B); returns (terms, dropped norm)."""
    out_arrays: dict = {}
    budget: list = []
    norms_A = [coupling_norm_mu1(w, MU) for w in A_terms.values()]
    norms_B = [coupling_norm_mu1(w, MU) for w in B_terms.values()]
    ref = next(iter(A_terms.values()))
    for wA, nA in zip(A_terms.values(), norms_A):
        for wB, nB in zip(B_terms.values(), norms_B):
            _pair_product(wA, wB, G, masses, max_order, out_arrays, budget, sup_G, (nA, nB))
    terms = {(mo, no): CouplingFunction(mo, no, ref.r_grid, ref.nodes, symmetrized(arr, mo, no))
             for (mo, no), arr in out_arrays.items()}
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


def _h0_function(w00: CouplingFunction):
    """E + T as a callable with linear extension above r = 1."""
    r_grid, vals = w00.r_grid, w00.values
    slope_top = (vals[-1] - vals[-2]) / (r_grid[-1] - r_grid[-2])

    def h0(r):
        r = np.asarray(r, dtype=float)
        return w00.at_r(r) + np.maximum(r - 1.0, 0.0) * slope_top

    return h0


@lru_cache(maxsize=4)
def _q_basis(nodes: bytes, masses: bytes) -> fock.FockBasis:
    """The n_max = 2 basis of measured_q, built once per grid (nodes and masses as bytes)."""
    grid = fock.ModeGrid(np.frombuffer(nodes), np.frombuffer(masses) * normalform.FOUR_PI)
    return fock.build_fock_basis(grid, 2)


def measured_q(H: NormalFormHamiltonian, W: dict, G) -> float:
    """Neumann ratio ||G(H_f) W||, with W the interaction of H and G the step's
    resolvent, on an n_max = 2 basis of H's grid."""
    if not W:
        return 0.0
    basis = _q_basis(H.nodes.tobytes(), H.masses.tobytes())
    Wmat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for w in W.values():
        Wmat += normalform.assemble_term(w, basis)
    return float(np.linalg.norm(G(basis.hf_diagonal())[:, np.newaxis] * Wmat, 2))


def rg_step(H: NormalFormHamiltonian, rho: float, s_max: int = 2):
    """One decimation-and-rescale step; returns (H', StepInfo).

    Raises DomainError when the scalar part fails the invertibility surrogate
    ||(E+T)^-1|| <= 2/rho on the decimated region or the measured Neumann
    ratio reaches 1.
    """
    if not (0.0 < rho <= 0.5):
        raise ValueError("rho must lie in (0, 1/2]")
    if s_max < 0 or s_max > 2:
        raise ValueError("Neumann order s_max must be 0, 1 or 2")
    _, W = split(H)
    w00 = H.terms[(0, 0)]
    r_grid, nodes, masses = w00.r_grid, H.nodes, H.masses

    h0 = _h0_function(w00)
    region = r_grid[r_grid >= 0.75 * rho]
    min_h0 = float(np.min(np.abs(h0(region)))) if len(region) else np.inf
    inv_bound = 1.0 / min_h0 if min_h0 > 0 else np.inf
    if inv_bound > 2.0 / rho * (1.0 + 1e-9):
        raise DomainError(
            f"scalar part nearly singular on the decimated region: "
            f"||(E+T)^-1|| ~ {inv_bound:.3e} > 2/rho = {2.0 / rho:.3e}",
            margins={"inv_bound": inv_bound, "allowed": 2.0 / rho})

    def G(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape, dtype=complex)
        mask = r > rho
        if np.any(mask):
            out[mask] = 1.0 / h0(r[mask])
        return out

    q = measured_q(H, W, G)
    if q >= 1.0:
        raise DomainError(f"Neumann ratio ||G W|| = {q:.3f} >= 1",
                          margins={"q": q})

    sup_G = float(np.max(np.abs(G(r_grid[r_grid > rho])))) if np.any(r_grid > rho) else 0.0

    gamma = interaction_norm(H)
    dropped = 0.0
    neumann_terms = []  # list of (sign, term dict)
    if W:
        neumann_terms.append((1.0, W))
        if s_max >= 1:
            n1_full, d1 = normal_order_product(W, W, G, masses, max_order=4, sup_G=sup_G)
            dropped += d1
            neumann_terms.append((-1.0, n1_full))
            if s_max >= 2:
                n2, d2 = normal_order_product(n1_full, W, G, masses, max_order=H.M_max,
                                              sup_G=sup_G)
                dropped += d2
                neumann_terms.append((1.0, n2))
    remainder = gamma * q ** (s_max + 1) / (1.0 - q) if q < 1.0 else np.inf

    # assemble the decimated kernels (F), order by order; orders above M_max
    # (only the s <= 1 terms have any) are dropped and their norms logged
    f_arrays: dict = {(0, 0): w00.values.copy()}
    for sign, terms in neumann_terms:
        for (mo, no), w in terms.items():
            if mo + no > H.M_max:
                dropped += XI ** (-(mo + no)) * coupling_norm_mu1(w, MU)
            else:
                f_arrays[(mo, no)] = f_arrays.get((mo, no), 0) + sign * w.values

    new_terms = {}
    for (mo, no), arr in f_arrays.items():
        # without W the decimated kernel is w00 itself, which rescales exactly
        # through its profile when it has one
        kern = w00 if not W else CouplingFunction(mo, no, r_grid, nodes, arr)
        scaled = scale_coupling(kern, rho)
        new_terms[(mo, no)] = _apply_field_support_mask(scaled)

    Hp = NormalFormHamiltonian(new_terms, masses, H.M_max)
    return Hp, StepInfo(q=q, neumann_remainder=float(remainder),
                        dropped_norm=float(dropped), inv_bound=inv_bound)


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
        lines = ["step,e_re,e_im,E_abs,beta,gamma,budget"]
        for r in self.records:
            lines.append(f"{r.step},{r.e.real:.16e},{r.e.imag:.16e},"
                         f"{abs(r.E):.16e},{r.beta:.16e},{r.gamma:.16e},{r.budget:.16e}")
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
        terms[key] = CouplingFunction(w.m, w.n, w.r_grid, w.nodes,
                                      np.tensordot(weights, [u.values for u in ws], 1),
                                      np.tensordot(weights, [u.dr_values for u in ws], 1))
    return NormalFormHamiltonian(terms, family[0].masses, family[0].M_max)


def flow(H0: NormalFormHamiltonian | None, rho: float, n_steps: int, s_max: int = 2,
         builder=None):
    """Iterate the map on the analytic family H(lam), re-centering it each step.

    builder(lam) gives H(lam); without one it is H0 minus lam, and with one
    H0 is not read (pass None).  Step n carries R^n(H(lam)) at the DEGREE + 1
    Chebyshev points of e_{n-1} -/+ rho^n / 8: rg_step applied to builder
    (step 1) or to the previous step's Hamiltonians interpolated there.  e_n
    is the root of the vacuum interpolant, and the record holds the family
    interpolated at it.  FlowStalledError, with the points, when the interval
    holds no root or several, when a next step's points would leave it (root
    outside the middle 1 - rho), or when the degree-DEGREE coefficient over
    the slope at the root exceeds rho^(n+1) / 24 (E_TOL on the last step).
    """
    if builder is None:
        if H0 is None:
            raise ValueError("flow needs H0 or a builder")

        def builder(lam):
            w00 = subtract_constant(H0.terms[(0, 0)], lam)
            return NormalFormHamiltonian({**H0.terms, (0, 0): w00}, H0.masses, H0.M_max)

    # Chebyshev points on [-1, 1], increasing; lam = e_{n-1} + rho^n / 8 * x
    x = -np.cos(np.pi * (np.arange(DEGREE + 1) + 0.5) / (DEGREE + 1))
    vander = np.vander(x)
    e_prev = float(np.real(builder(0.0).terms[(0, 0)].values[0]))
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
        vacuum = [float(np.real(H.terms[(0, 0)].values[0])) for H in family]
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
