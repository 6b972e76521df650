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

from .fock import FockBasis, blocks, dense, hermitian

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


def spectral_projection(basis: FockBasis, rho: float, smooth: bool = False) -> ProjectionPair:
    """Field-energy cutoff at scale rho, sharp indicator or cosine taper.

    The smooth variant interpolates chi from 1 to 0 on the window [3 rho / 4, rho]
    with a cosine profile; ProjectionPair derives chibar from chi.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    hf = basis.hf_diagonal()
    if rho > np.max(hf):
        warnings.warn(f"rho={rho} exceeds the spectral max of H_f; chi is the identity")
    if not smooth:
        chi = (hf <= rho).astype(float)
    else:
        width = rho / 4.0
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

    return FeshbachResult(F=F, Q=Q, Qsharp=Qs, Hchibar_inv=R, pair=pair)


def _norm2(A: np.ndarray) -> float:
    """||A||_2 by an SVD of the rows and columns of A that hold a nonzero entry:
    zero rows and columns carry no singular value, and a zero A has norm 0."""
    nonzero = A != 0
    rows, cols = np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))
    return float(np.linalg.norm(A[np.ix_(rows, cols)], 2)) if len(rows) else 0.0


def identity_defect(H, res: FeshbachResult) -> tuple[float, float]:
    """Norms of H Q - chi F and Q# H - F chi, the exactness certificates.

    The rows where Q differs from diag(chi), and the columns where Q# does, are
    read off Q and Q# (supp chibar for a computed map, but nothing is assumed),
    and H Q = H chi + H[:, rows] (Q - chi)[rows], Q# H = chi H + (Q# - chi)[:, cols] H[cols].
    Each 2-norm is taken on the defect's nonzero rows and columns only.
    """
    H = dense(H)
    chi = res.pair.chi
    dq, dqs = res.Q - np.diag(chi), res.Qsharp - np.diag(chi)
    rows, cols = np.flatnonzero(dq.any(axis=1)), np.flatnonzero(dqs.any(axis=0))
    return (_norm2(H * chi + H[:, rows] @ dq[rows] - chi[:, np.newaxis] * res.F),
            _norm2(chi[:, np.newaxis] * H + dqs[:, cols] @ H[cols] - res.F * chi))


def reconstruct_inverse(res: FeshbachResult) -> np.ndarray:
    """H^-1 = Q F^-1 Q# + chibar R chibar, requiring F invertible."""
    Finv = _checked_inverse(res.F, "F")
    cb = res.pair.chibar
    return res.Q @ Finv @ res.Qsharp + cb[:, np.newaxis] * res.Hchibar_inv * cb[np.newaxis, :]


def _block_singular(mat: np.ndarray, index: np.ndarray, dim: int):
    """Singular values of mat, and its right singular vectors as the matching
    columns of a dim-row matrix (mat's rows at index): one eigh per connected
    block (`fock.blocks`) of a Hermitian mat (`fock.hermitian`), |eigenvalues|
    and eigenvectors, and one SVD per block of any other."""
    herm, s, vecs = hermitian(mat), np.empty(len(mat)), np.zeros((dim, len(mat)), mat.dtype)
    for b in blocks(mat):
        if herm:
            e, v = np.linalg.eigh(mat[np.ix_(b, b)])
            s[b], vecs[np.ix_(index[b], b)] = np.abs(e), v
        else:
            _, s[b], vh = np.linalg.svd(mat[np.ix_(b, b)])
            vecs[np.ix_(index[b], b)] = vh.conj().T
    return s, vecs


def isospectral_check(H, pair: ProjectionPair, lam: complex) -> dict:
    """Compare the null structure of H - lambda with that of F(H - lambda).

    The report records null dimensions on both sides (singular-value
    thresholding at 1e-8 ||H||), eigenvector transport both ways, and
    invertibility flags.  Borderline singular values within a factor 10 of
    the threshold mark the verdict indeterminate instead of failing.
    The singular data of H - lambda and of F's chi block come block by block
    (`_block_singular`: eigh when the matrix is Hermitian, as at real lambda,
    an SVD otherwise); ||H||_2 is the largest singular value of H - lambda.
    """
    H = np.asarray(H).astype(np.result_type(np.asarray(H).dtype, lam, np.float64))
    H[np.diag_indices_from(H)] -= lam  # on a copy of H, with no dense identity
    H = dense(H)
    res = feshbach_map(H, None, pair)
    s_h, vecs_h = _block_singular(H, np.arange(len(H)), len(H))
    hnorm = float(np.max(s_h, initial=1.0))
    thr = RANK_THRESHOLD_FACTOR * hnorm
    # F is block diagonal with respect to supp(chi); its action outside the
    # decimation sector is just tau and carries no spectral information about
    # the chi sector, so the null count is taken on the supp(chi) block.
    sup = np.flatnonzero(pair.chi > 0.0)
    s_f, vecs_f = _block_singular(res.F[np.ix_(sup, sup)], sup, len(H))
    null_h, null_f = vecs_h[:, s_h < thr], vecs_f[:, s_f < thr]
    dim_h, dim_f = null_h.shape[1], null_f.shape[1]
    indeterminate = any(np.any((s >= thr) & (s < INDETERMINATE_BAND * thr)) for s in (s_h, s_f))

    # the largest residual of a null vector carried to the other side, 0 for none
    transport_h_to_f, transport_f_to_h = (
        float(max(np.linalg.norm(images, axis=0), default=0.0)) / hnorm
        for images in (res.F @ (pair.chi[:, np.newaxis] * null_h), H @ (res.Q @ null_f)))

    d1, d2 = identity_defect(H, res)
    return {
        "lambda": [float(np.real(lam)), float(np.imag(lam))],
        "dim_null_H": dim_h,
        "dim_null_F": dim_f,
        "null_dims_equal": dim_h == dim_f,
        "indeterminate": indeterminate,
        "H_invertible": dim_h == 0,
        "F_invertible": dim_f == 0,
        "transport_residual_chi": transport_h_to_f,
        "transport_residual_Q": transport_f_to_h,
        "identity_defect_HQ": d1 / hnorm,
        "identity_defect_QsH": d2 / hnorm,
    }
