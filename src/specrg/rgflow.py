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
from itertools import product as iproduct
from math import comb, factorial

import numpy as np

# fock and normalform functions are looked up through their modules at call
# time, so that wrapping them there (as perfbench's tracer does) sees the calls
from . import fock, normalform
from .normalform import (CouplingFunction, NormalFormHamiltonian, coupling_norm_mu1,
                         interaction_norm, split, subtract_constant, t_slope_deviation,
                         _interp_complex)


class DomainError(ValueError):
    """The Hamiltonian left the domain of the renormalization map."""

    def __init__(self, message, margins=None):
        super().__init__(message)
        self.margins = margins or {}


class FlowStalledError(RuntimeError):
    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


@dataclass
class PolydiscParams:
    """Polydisc radii (alpha, beta, gamma) plus the flow constants."""

    alpha: float
    beta: float
    gamma: float
    mu: float = 0.5
    xi: float = 0.5
    rho: float = 0.5
    c: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.rho <= 0.5):
            raise ValueError("rho must lie in (0, 1/2]")
        if self.rho == 0.5:
            # the contraction theorem is stated on the open interval; the
            # boundary value is allowed for experiments but flagged
            warnings.warn("rho = 1/2 sits on the boundary of the theorem range")
        if min(self.alpha, self.beta, self.gamma) < 0 or self.mu < 0:
            raise ValueError("alpha, beta, gamma, mu must be nonnegative")
        if not (0.0 < self.xi < 1.0):
            raise ValueError("xi must lie in (0, 1)")


def polydisc_membership(H: NormalFormHamiltonian, p: PolydiscParams):
    """Evaluate |E| <= alpha, sup|T'-1| <= beta, ||W|| <= gamma."""
    E, _, _ = split(H)
    beta_meas = t_slope_deviation(H)
    gamma_meas = interaction_norm(H)
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
                          gamma=p.c * p.rho ** p.mu * p.gamma,
                          mu=p.mu, xi=p.xi, rho=p.rho, c=p.c)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def _interp_k_column(vals: np.ndarray, nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Linear interpolation in one momentum slot with power-law tail below the
    lowest node (infrared kernels behave like powers of |k|)."""
    out = _interp_complex(targets, nodes, vals)
    low = targets < nodes[0]
    if np.any(low):
        v0, v1 = vals[0], vals[1] if len(vals) > 1 else vals[0]
        if abs(v0) > 0 and abs(v1) > 0 and len(nodes) > 1:
            pexp = np.log(abs(v1) / abs(v0)) / np.log(nodes[1] / nodes[0])
            out[low] = v0 * (targets[low] / nodes[0]) ** pexp
        else:
            out[low] = v0
    return out


def scale_coupling(w: CouplingFunction, rho: float) -> CouplingFunction:
    """Kernel form of the rescaling, w'(r; k) = rho^(3(m+n)/2 - 1) w(rho r; rho k).

    The momentum arguments contract into the unit ball while the grid and its
    radial measure k^2 dk stay fixed, so each slot carries a factor rho^(3/2)
    (half the Jacobian of the measure; a contracted pair of slots then
    reproduces the full rho^3) and the overall 1/rho expands the scalar part.
    This makes ||w'||_mu <= rho^(m+n-1+mu) ||w||_mu in the anisotropic norm.

    When the kernel carries an exact profile it is re-tabulated analytically;
    otherwise the grid values are interpolated (linear in r and in each
    momentum slot, with a power-law extension below the lowest node).
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
    flat = w.values.reshape(len(w.r_grid), -1)
    out = np.empty_like(flat)
    rt = rho * w.r_grid
    for col in range(flat.shape[1]):
        out[:, col] = _interp_complex(rt, w.r_grid, flat[:, col])
    vals = out.reshape(w.values.shape)
    # then each momentum slot
    targets = rho * w.nodes
    for axis in range(1, w.order + 1):
        moved = np.moveaxis(vals, axis, -1)
        shp = moved.shape
        cols = moved.reshape(-1, shp[-1])
        new_cols = np.empty_like(cols)
        for i in range(cols.shape[0]):
            new_cols[i] = _interp_k_column(cols[i], w.nodes, targets)
        vals = np.moveaxis(new_cols.reshape(shp), -1, axis)
    return CouplingFunction(w.m, w.n, w.r_grid, w.nodes, pref * vals)


def _apply_field_support_mask(w: CouplingFunction) -> CouplingFunction:
    """Zero the kernel where the in- or out-state field energy exceeds 1.

    After rescaling, the decimation cutoffs chi_rho on both sides of the
    operator become indicators that r plus the created (resp. annihilated)
    photon energies stay below 1.
    """
    if w.order == 0:
        return w
    shape = w.values.shape
    r = w.r_grid.reshape((-1,) + (1,) * w.order)
    omega_cre = 0.0
    omega_ann = 0.0
    for axis in range(1, w.order + 1):
        kshape = [1] * (w.order + 1)
        kshape[axis] = len(w.nodes)
        kvec = w.nodes.reshape(kshape)
        if axis <= w.m:
            omega_cre = omega_cre + kvec
        else:
            omega_ann = omega_ann + kvec
    mask = np.ones(shape)
    mask = mask * (r + omega_cre <= 1.0 + 1e-12) * (r + omega_ann <= 1.0 + 1e-12)
    # the indicator is flat away from its edge, so the almost-everywhere
    # r-derivative of the masked kernel is the masked derivative
    return CouplingFunction(w.m, w.n, w.r_grid, w.nodes, w.values * mask,
                            dr_values=w.dr_values * mask)


# ---------------------------------------------------------------------------
# generalized Wick ordering of products
# ---------------------------------------------------------------------------

def _shift_stack(values: np.ndarray, r_grid: np.ndarray, shift: float) -> np.ndarray:
    """Sample a kernel array at r + shift along the (uniform) r axis.

    Linear interpolation; arguments above the top of the grid clamp to the
    endpoint (kernels are only carried on I = [0,1], see the module notes).
    """
    if shift == 0.0:
        return values
    R = len(r_grid)
    dr = r_grid[1] - r_grid[0]
    pos = np.arange(R) + shift / dr
    lo = np.clip(np.floor(pos).astype(int), 0, R - 1)
    hi = np.clip(lo + 1, 0, R - 1)
    frac = np.clip(pos - np.floor(pos), 0.0, 1.0)
    frac[pos >= R - 1] = 0.0
    shape = (R,) + (1,) * (values.ndim - 1)
    return (1.0 - frac).reshape(shape) * values[lo] + frac.reshape(shape) * values[hi]


def _pair_product(wA: CouplingFunction, wB: CouplingFunction, G, masses: np.ndarray,
                  max_order: int, out_arrays: dict, budget: list, mu: float, xi: float,
                  sup_G: float):
    """Accumulate the normal ordering of W[wA] G(H_f) W[wB] into out_arrays.

    For each number p of contractions (annihilators of A against creators of
    B, equal mode index), the new kernel at field energy r (the value between
    the merged creation and annihilation blocks) is

      C(n1,p) C(m2,p) p! * sum_q prod(mass_q)
        wA(r + O(I2'); I1, J1', q) G(r + O(J1') + O(I2') + O(q))
        wB(r + O(J1'); q, I2', J2)

    where O(.) sums the node energies of the listed slots, I1/J1' are the
    (uncontracted) slots of A, I2'/J2 those of B.  The argument shifts are
    the pull-through bookkeeping.
    """
    m1, n1, m2, n2 = wA.m, wA.n, wB.m, wB.n
    r_grid = wA.r_grid
    nodes = wA.nodes
    M = len(nodes)
    R = len(r_grid)

    for p in range(0, min(n1, m2) + 1):
        mo, no = m1 + m2 - p, n1 + n2 - p
        order = mo + no
        Cf = comb(n1, p) * comb(m2, p) * factorial(p)
        if order > max_order:
            # dropped: log a norm-product bound instead of the kernel
            contr = float(np.sum(masses / nodes)) ** p
            est = (Cf * contr * sup_G
                   * coupling_norm_mu1(wA, mu) * coupling_norm_mu1(wB, mu)
                   * nodes[0] ** (-mu) * xi ** (-order))
            budget.append(est)
            continue

        i2len, j1len = m2 - p, n1 - p
        key = (mo, no)
        if key not in out_arrays:
            out_arrays[key] = np.zeros((R,) + (M,) * order, dtype=complex)
        out = out_arrays[key]

        # contracted q tuples and their energies / measures
        if p > 0:
            q_tuples = list(iproduct(range(M), repeat=p))
            omega_q = np.array([sum(nodes[list(q)]) for q in q_tuples])
            mass_q = np.array([np.prod(masses[list(q)]) for q in q_tuples])
        else:
            q_tuples = [()]
            omega_q = np.zeros(1)
            mass_q = np.ones(1)
        Q = len(q_tuples)

        # caches of r-shifted kernels, keyed by the rounded shift
        a_cache, b_cache = {}, {}

        def a_shifted(s):
            k = round(s, 12)
            if k not in a_cache:
                a_cache[k] = _shift_stack(wA.values, r_grid, s)
            return a_cache[k]

        def b_shifted(s):
            k = round(s, 12)
            if k not in b_cache:
                b_cache[k] = _shift_stack(wB.values, r_grid, s)
            return b_cache[k]

        for i2 in iproduct(range(M), repeat=i2len):
            sI = float(np.sum(nodes[list(i2)])) if i2len else 0.0
            for j1 in iproduct(range(M), repeat=j1len):
                sJ = float(np.sum(nodes[list(j1)])) if j1len else 0.0

                Ablk = a_shifted(sI)[(slice(None),) + (slice(None),) * m1 + j1]
                Ablk = Ablk.reshape(R, M ** m1, Q) if p else Ablk.reshape(R, M ** m1, 1)
                Bfull = b_shifted(sJ)
                Bblk = Bfull[(slice(None),) + (slice(None),) * p + i2]
                Bblk = Bblk.reshape(R, Q, M ** n2) if p else Bblk.reshape(R, 1, M ** n2)

                g_arg = r_grid[:, np.newaxis] + (sI + sJ) + omega_q[np.newaxis, :]
                Gq = G(g_arg) * mass_q[np.newaxis, :]

                block = np.einsum("riq,rq,rqj->rij", Ablk, Gq, Bblk)
                tgt = (slice(None),) + (slice(None),) * m1 + i2 + j1 + (slice(None),) * n2
                out[tgt] += (Cf * block).reshape(
                    (R,) + (M,) * m1 + (M,) * n2)


def normal_order_product(A_terms: dict, B_terms: dict, G, masses: np.ndarray,
                         max_order: int, mu: float, xi: float, sup_G: float):
    """Normal ordering of (sum A) G(H_f) (sum B); returns (terms, dropped norm)."""
    out_arrays: dict = {}
    budget: list = []
    ref = next(iter(A_terms.values()))
    for wA in A_terms.values():
        for wB in B_terms.values():
            _pair_product(wA, wB, G, masses, max_order, out_arrays, budget,
                          mu, xi, sup_G)
    terms = {}
    for (mo, no), arr in out_arrays.items():
        terms[(mo, no)] = CouplingFunction(mo, no, ref.r_grid, ref.nodes, arr).symmetrize()
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
        base = _interp_complex(np.clip(r, 0.0, 1.0), r_grid, vals)
        over = r > 1.0
        if np.any(over):
            base = base + np.where(over, (r - 1.0) * slope_top, 0.0)
        return base

    return h0


def measured_q(H: NormalFormHamiltonian, rho: float, n_max: int = 2) -> float:
    """Operator norm of G W on an assembled auxiliary basis, the Neumann ratio."""
    if H.masses is None:
        raise ValueError("H carries no slot measure; set masses before rg_step")
    grid = fock.ModeGrid(H.nodes, H.masses * normalform.FOUR_PI)
    basis = fock.build_fock_basis(grid, n_max)
    E, T, W = split(H)
    if not W:
        return 0.0
    Wmat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for w in W.values():
        Wmat += normalform.assemble_term(w, basis)
    h0 = _h0_function(H.terms[(0, 0)])
    hf = basis.hf_diagonal()
    gdiag = np.zeros(len(hf), dtype=complex)
    mask = hf > rho
    if np.any(mask):
        gdiag[mask] = 1.0 / h0(hf[mask])
    return float(np.linalg.norm(gdiag[:, np.newaxis] * Wmat, 2))


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
    E, T, W = split(H)
    w00 = H.terms[(0, 0)]
    r_grid = w00.r_grid
    nodes = H.nodes
    masses = H.masses
    if masses is None:
        raise ValueError("H carries no slot measure; set masses on the Hamiltonian")

    h0 = _h0_function(w00)
    region = r_grid[r_grid >= 0.75 * rho]
    min_h0 = float(np.min(np.abs(h0(region)))) if len(region) else np.inf
    inv_bound = 1.0 / min_h0 if min_h0 > 0 else np.inf
    if inv_bound > 2.0 / rho * (1.0 + 1e-9):
        raise DomainError(
            f"scalar part nearly singular on the decimated region: "
            f"||(E+T)^-1|| ~ {inv_bound:.3e} > 2/rho = {2.0 / rho:.3e}",
            margins={"inv_bound": inv_bound, "allowed": 2.0 / rho})

    q = measured_q(H, rho)
    if q >= 1.0:
        raise DomainError(f"Neumann ratio ||G W|| = {q:.3f} >= 1",
                          margins={"q": q})

    def G(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape, dtype=complex)
        mask = r > rho
        if np.any(mask):
            out[mask] = 1.0 / h0(r[mask])
        return out

    sup_G = float(np.max(np.abs(G(r_grid[r_grid > rho])))) if np.any(r_grid > rho) else 0.0

    gamma = interaction_norm(H)
    dropped = 0.0
    neumann_terms = []  # list of (sign, term dict)
    if W:
        neumann_terms.append((1.0, W))
        if s_max >= 1:
            n1_full, d1 = normal_order_product(W, W, G, masses, max_order=4,
                                               mu=H.mu, xi=H.xi, sup_G=sup_G)
            dropped += d1
            neumann_terms.append((-1.0, n1_full))
            if s_max >= 2:
                n2, d2 = normal_order_product(n1_full, W, G, masses, max_order=H.M_max,
                                              mu=H.mu, xi=H.xi, sup_G=sup_G)
                dropped += d2
                neumann_terms.append((1.0, n2))
        # orders above M_max in the s <= 1 terms are dropped now
        for sign, terms in neumann_terms[:2]:
            for (mo, no) in [k for k in terms if k[0] + k[1] > H.M_max]:
                dropped += H.xi ** (-(mo + no)) * coupling_norm_mu1(terms[(mo, no)], H.mu)
    remainder = gamma * q ** (s_max + 1) / (1.0 - q) if q < 1.0 else np.inf

    # assemble the decimated kernels (F), order by order
    f_arrays: dict = {}
    f_arrays[(0, 0)] = w00.values.copy()
    for sign, terms in neumann_terms:
        for (mo, no), w in terms.items():
            if mo + no > H.M_max:
                continue
            if (mo, no) not in f_arrays:
                f_arrays[(mo, no)] = np.zeros_like(w.values)
            f_arrays[(mo, no)] = f_arrays[(mo, no)] + sign * w.values

    new_terms = {}
    for (mo, no), arr in f_arrays.items():
        # without W the decimated kernel is w00 itself, which rescales exactly
        # through its profile when it has one
        kern = w00 if not W else CouplingFunction(mo, no, r_grid, nodes, arr)
        scaled = scale_coupling(kern, rho)
        new_terms[(mo, no)] = _apply_field_support_mask(scaled)

    Hp = NormalFormHamiltonian(new_terms, mu=H.mu, xi=H.xi, M_max=H.M_max,
                               masses=masses)
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
    member: bool


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


def _run_steps(builder, lam: float, n: int, rho: float, s_max: int):
    """Apply n RG steps to H(lam); returns (final H, records, budget)."""
    H = builder(lam)
    budget = 0.0
    hist = []
    for k in range(n):
        H, info = rg_step(H, rho, s_max=s_max)
        budget += info.budget
        hist.append((H, info))
    return H, hist, budget


def flow(H0: NormalFormHamiltonian, rho: float, n_steps: int, s_max: int = 2,
         builder=None, e_tol: float = 1e-9, membership: PolydiscParams | None = None):
    """Iterate the map, re-centering the spectral parameter each step.

    e_n is located by bisection of lam -> vacuum component of R^n(H(lam))
    inside a bracket of width rho^n / 4 around e_{n-1}; monotonicity on the
    bracket is verified first and a failure aborts with diagnostics.  The
    recentering keeps |<H>_Omega - e_{n-1}| <= rho^(n+1) / 12 along the flow.
    """
    if builder is None:
        base = H0.copy()

        def builder(lam):
            Hl = base.copy()
            Hl.terms[(0, 0)] = subtract_constant(Hl.terms[(0, 0)], lam)
            return Hl

    def vacuum_component(lam, n):
        H, _, budget = _run_steps(builder, lam, n, rho, s_max)
        return float(np.real(H.terms[(0, 0)].values[0])), budget

    e_prev = float(np.real(builder(0.0).terms[(0, 0)].values[0]))
    traj = FlowTrajectory()
    for n in range(1, n_steps + 1):
        half = rho ** n / 8.0
        lo, hi = e_prev - half, e_prev + half
        samples = np.linspace(lo, hi, 5)
        vals = [vacuum_component(x, n)[0] for x in samples]
        if not all(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise FlowStalledError(
                f"vacuum component not monotone on the step-{n} bracket "
                f"[{lo:.6g}, {hi:.6g}]: {vals}", bracket=(lo, hi))
        if not (vals[0] > 0.0 > vals[-1]):
            raise FlowStalledError(
                f"no sign change on the step-{n} bracket [{lo:.6g}, {hi:.6g}]: "
                f"ends {vals[0]:.3e}, {vals[-1]:.3e}", bracket=(lo, hi))
        target = min(rho ** (n + 1) / 24.0, e_tol if n == n_steps else np.inf)
        a, b = lo, hi
        fa = vals[0]
        while (b - a) > max(target, 1e-14):
            mid = 0.5 * (a + b)
            fm = vacuum_component(mid, n)[0]
            if fa > 0 and fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        e_n = 0.5 * (a + b)

        H, hist, budget = _run_steps(builder, e_n, n, rho, s_max)
        E, _, _ = split(H)
        beta = t_slope_deviation(H)
        gamma = interaction_norm(H)
        member = True
        if membership is not None:
            member, _ = polydisc_membership(H, membership)
        traj.records.append(FlowRecord(step=n, e=complex(e_n), E=E, beta=beta,
                                       gamma=gamma, budget=budget, member=member))
        traj.budget = budget
        e_prev = e_n
    traj.e_final = complex(e_prev)
    return traj
