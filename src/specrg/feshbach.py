"""Sharp and smooth Feshbach-Schur maps on finite matrices.

Both variants are driven through one formula.  With tau the part of H kept
undecimated (diagonal in the working basis, so it commutes with the cutoff),
W = H - tau, and a pair (chi, chibar) obeying chi^2 + chibar^2 = 1,

    F = tau + chi W chi - chi W chibar R chibar W chi,
    Q = chi - chibar R chibar W chi,
    Q# = chi - chi W chibar R chibar,

where R inverts H_tau_chibar = tau + chibar W chibar on the support of
chibar.  Sharp orthogonal projections satisfy chi^2 + chibar^2 = chi + chibar
= 1, so the sharp map is the special case.  The algebra gives the exact
identities H Q = chi F and Q# H = F chi, which are asserted for every
computed result, and the inverse representation
H^-1 = Q F^-1 Q# + chibar R chibar.

Every function reads its matrix through fock.dense, so an exactly real H is
decimated in float64 and any other H in complex128.  R vanishes outside
supp chibar x supp chibar, so each product with R runs on the rows and
columns of supp chibar only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .fock import FockBasis, dense

RANK_THRESHOLD_FACTOR = 1e-8  # singular values below this times ||H|| count as null
INDETERMINATE_BAND = 10.0     # rank decisions within this factor are reported, not guessed


@dataclass
class ProjectionPair:
    """Diagonal cutoff pair: chi in [0, 1] and chibar = sqrt(1 - chi^2),
    so chi^2 + chibar^2 = 1 by construction; an indicator chi is a sharp pair."""

    chi: np.ndarray      # diagonal entries
    chibar: np.ndarray = field(init=False)

    def __post_init__(self):
        self.chi = np.asarray(self.chi, dtype=float)
        if self.chi.ndim != 1:
            raise ValueError("chi must be a 1-d array")
        if np.any(self.chi < 0) or np.any(self.chi > 1):
            raise ValueError("chi must take values in [0, 1]")
        self.chibar = np.sqrt(np.clip(1.0 - self.chi ** 2, 0.0, None))


def spectral_projection(basis: FockBasis, rho: float, smooth: bool = False,
                        taper: float | None = None) -> ProjectionPair:
    """Field-energy cutoff at scale rho, sharp indicator or cosine taper.

    The smooth variant interpolates chi from 1 to 0 on [rho - taper, rho]
    (default taper rho/4, i.e. the window [3 rho / 4, rho]) with a cosine
    profile; ProjectionPair derives chibar from chi.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    hf = basis.hf_diagonal()
    if rho > np.max(hf):
        warnings.warn(f"rho={rho} exceeds the spectral max of H_f; chi is the identity")
    if not smooth:
        chi = (hf <= rho).astype(float)
    else:
        width = rho / 4.0 if taper is None else float(taper)
        if not (0.0 < width <= rho):
            raise ValueError("taper width must lie in (0, rho]")
        lo = rho - width
        chi = np.ones_like(hf)
        ramp = (hf > lo) & (hf < rho)
        chi[ramp] = np.cos(0.5 * np.pi * (hf[ramp] - lo) / width)
        chi[hf >= rho] = 0.0
    return ProjectionPair(chi)


@dataclass
class FeshbachResult:
    """F, Q, Q# and R (Hchibar_inv, zero outside supp chibar x supp chibar) of
    one map: float64 when H and tau are exactly real, complex128 otherwise."""

    F: np.ndarray
    Q: np.ndarray
    Qsharp: np.ndarray
    Hchibar_inv: np.ndarray
    pair: ProjectionPair
    tau: np.ndarray  # the diagonal of the undecimated part


class NotInvertibleError(np.linalg.LinAlgError):
    def __init__(self, message, singular_value=None):
        super().__init__(message)
        self.singular_value = singular_value


def _checked_inverse(M: np.ndarray, name: str, H: np.ndarray | None = None) -> np.ndarray:
    """M^-1, or NotInvertibleError when the smallest singular value of M falls
    below 1e-13 max(1, ||H||_2), H defaulting to M.

    ||H||_2 <= ||H||_F, so the SVD behind ||H||_2 runs only for an M whose
    smallest singular value falls below 1e-13 max(1, ||H||_F).
    """
    svals = np.linalg.svd(M, compute_uv=False)
    smin = float(svals[-1]) if len(svals) else 0.0
    H = M if H is None else H
    if (smin < 1e-13 * max(1.0, np.linalg.norm(H))
            and smin < 1e-13 * max(1.0, np.linalg.norm(H, 2))):
        raise NotInvertibleError(
            f"{name} is numerically singular (smallest singular value {smin:.3e})",
            singular_value=smin)
    return np.linalg.inv(M)


def feshbach_map(H, tau_part, pair: ProjectionPair) -> FeshbachResult:
    """Decimate the square matrix H onto the chi sector.

    tau_part defaults to the diagonal part of H in the working basis.  It
    must be diagonal so that it commutes with the cutoff pair.
    """
    H = dense(H)
    D = H.shape[0]
    if len(pair.chi) != D:
        raise ValueError("projection pair dimension mismatch")
    if tau_part is None:
        tau = np.diag(H).copy()
    else:
        tmat = dense(tau_part)
        if np.max(np.abs(tmat - np.diag(np.diag(tmat)))) > 1e-13 * max(1.0, np.max(np.abs(tmat))):
            raise ValueError("tau must be diagonal in the working basis")
        tau = np.diag(tmat).copy()
    W = H - np.diag(tau)
    chi = pair.chi
    sup = np.flatnonzero(pair.chibar > 0.0)
    cb = pair.chibar[sup]

    block = np.diag(tau[sup]) + cb[:, np.newaxis] * W[np.ix_(sup, sup)] * cb[np.newaxis, :]
    R_sup = _checked_inverse(block, "chibar block", H) if len(sup) else block
    R = np.zeros_like(W)
    R[np.ix_(sup, sup)] = R_sup
    cbWchi = cb[:, np.newaxis] * (W[sup] * chi[np.newaxis, :])     # rows sup
    chiWcb = chi[:, np.newaxis] * W[:, sup] * cb[np.newaxis, :]    # columns sup
    RcbWchi = R_sup @ cbWchi

    F = np.diag(tau) + chi[:, np.newaxis] * (W * chi[np.newaxis, :]) - chiWcb @ RcbWchi
    Q = np.diag(chi).astype(W.dtype)
    Qs = Q.copy()
    Q[sup] -= cb[:, np.newaxis] * RcbWchi
    Qs[:, sup] -= (chiWcb @ R_sup) * cb[np.newaxis, :]

    return FeshbachResult(F=F, Q=Q, Qsharp=Qs, Hchibar_inv=R, pair=pair, tau=tau)


def identity_defect(H, res: FeshbachResult) -> tuple[float, float]:
    """Norms of H Q - chi F and Q# H - F chi, the exactness certificates."""
    H = dense(H)
    chi = res.pair.chi
    d1 = np.linalg.norm(H @ res.Q - chi[:, np.newaxis] * res.F, 2)
    d2 = np.linalg.norm(res.Qsharp @ H - res.F * chi[np.newaxis, :], 2)
    return float(d1), float(d2)


def reconstruct_inverse(res: FeshbachResult) -> np.ndarray:
    """H^-1 = Q F^-1 Q# + chibar R chibar, requiring F invertible."""
    Finv = _checked_inverse(res.F, "F")
    cb = res.pair.chibar
    return res.Q @ Finv @ res.Qsharp + cb[:, np.newaxis] * res.Hchibar_inv * cb[np.newaxis, :]


def _null_dimension(s: np.ndarray, vh: np.ndarray, threshold: float):
    """(rank-deficiency count, indeterminate flag, null vectors) from the
    singular values s and right singular vectors vh of a matrix."""
    null = s < threshold
    borderline = (~null) & (s < INDETERMINATE_BAND * threshold)
    vectors = vh.conj().T[:, null]
    return int(np.sum(null)), bool(np.any(borderline)), vectors


def isospectral_check(H, pair: ProjectionPair, lam: complex) -> dict:
    """Compare the null structure of H - lambda with that of F(H - lambda).

    The report records null dimensions on both sides (singular-value
    thresholding at 1e-8 ||H||), eigenvector transport both ways, and
    invertibility flags.  Borderline singular values within a factor 10 of
    the threshold mark the verdict indeterminate instead of failing.
    """
    H = np.asarray(H)
    H = dense(H - lam * np.eye(len(H)))
    res = feshbach_map(H, None, pair)
    _, s, vh = np.linalg.svd(H)
    hnorm = max(s[0], 1.0)  # the largest singular value is ||H||_2
    thr = RANK_THRESHOLD_FACTOR * hnorm

    dim_h, ind_h, null_h = _null_dimension(s, vh, thr)
    # F is block diagonal with respect to supp(chi); its action outside the
    # decimation sector is just tau and carries no spectral information about
    # the chi sector, so the null count is taken on the supp(chi) block.
    sup = pair.chi > 0.0
    _, s_f, vh_f = np.linalg.svd(res.F[np.ix_(sup, sup)])
    dim_f, ind_f, null_f_block = _null_dimension(s_f, vh_f, thr)
    null_f = np.zeros((len(H), null_f_block.shape[1]), dtype=null_f_block.dtype)
    null_f[sup, :] = null_f_block

    # the largest residual of a null vector carried to the other side, 0 for none
    transport_h_to_f = max([0.0] + [float(np.linalg.norm(res.F @ (pair.chi * psi))) / hnorm
                                    for psi in null_h.T])
    transport_f_to_h = max([0.0] + [float(np.linalg.norm(H @ (res.Q @ phi))) / hnorm
                                    for phi in null_f.T])

    d1, d2 = identity_defect(H, res)
    return {
        "lambda": [float(np.real(lam)), float(np.imag(lam))],
        "dim_null_H": dim_h,
        "dim_null_F": dim_f,
        "null_dims_equal": dim_h == dim_f,
        "indeterminate": ind_h or ind_f,
        "H_invertible": dim_h == 0,
        "F_invertible": dim_f == 0,
        "transport_residual_chi": transport_h_to_f,
        "transport_residual_Q": transport_f_to_h,
        "identity_defect_HQ": d1 / hnorm,
        "identity_defect_QsH": d2 / hnorm,
    }
