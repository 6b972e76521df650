"""Sharp and smooth decimation maps on finite matrices."""

import numpy as np
import pytest

from specrg import feshbach, fock
from specrg.fock import OperatorMatrix, build_fock_basis, build_mode_grid
from specrg.feshbach import (INDETERMINATE_BAND, RANK_THRESHOLD_FACTOR, FeshbachResult,
                             NotInvertibleError, ProjectionPair, feshbach_map,
                             identity_defect, isospectral_check,
                             reconstruct_inverse, spectral_projection)
from specrg.models import ModelSpec, ground_sector_hamiltonian
from specrg.normalform import assemble_operator, assemble_term
from specrg.oracle import exact_spectrum


class TestProjectionPairs:
    def test_rho_above_spectrum_gives_identity_cutoff(self):
        basis = build_fock_basis(build_mode_grid(2, 0.4, "uniform"), 2)
        with pytest.warns(UserWarning):
            pair = spectral_projection(basis, rho=10.0)
        assert np.all(pair.chi == 1.0)

    def test_rho_below_first_level_gives_vacuum_projector(self):
        basis = build_fock_basis(build_mode_grid(2, 0.4, "uniform"), 2)
        hf = basis.hf_diagonal()
        rho = 0.5 * np.min(hf[hf > 0])
        pair = spectral_projection(basis, rho=rho)
        expected = np.zeros(basis.dim)
        expected[0] = 1.0
        assert np.array_equal(pair.chi, expected)

    def test_smooth_partition_exact_by_construction(self):
        basis = build_fock_basis(build_mode_grid(3, 0.6, "uniform"), 2)
        pair = spectral_projection(basis, rho=0.5, smooth=True)
        assert np.max(np.abs(pair.chi ** 2 + pair.chibar ** 2 - 1.0)) == 0.0


class TestFeshbachMap:
    def test_two_by_two_schur_complement(self):
        a, b, d = 1.3, 0.4 - 0.2j, 2.7
        H = np.array([[a, b], [np.conj(b), d]])
        pair = ProjectionPair(np.array([1.0, 0.0]))
        res = feshbach_map(H, None, pair)
        assert res.F[0, 0] == pytest.approx(a - abs(b) ** 2 / d)
        # outside the decimation sector F carries only tau
        assert res.F[1, 1] == pytest.approx(d)

    def test_diagonal_hamiltonian_passes_through(self):
        H = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        pair = ProjectionPair(np.array([1.0, 1.0, 0.0, 0.0]))
        res = feshbach_map(H, None, pair)
        assert np.allclose(res.F, H)

    def test_identity_defects_vanish(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        chi = np.linspace(0.0, 1.0, 12)
        pair = ProjectionPair(chi)
        res = feshbach_map(A, None, pair)
        d1, d2 = identity_defect(A, res)
        scale = np.linalg.norm(A, 2)
        assert d1 < 1e-12 * scale and d2 < 1e-12 * scale

    def test_singular_chibar_block_raises(self):
        H = np.diag([1.0, 0.0]).astype(complex)
        pair = ProjectionPair(np.array([1.0, 0.0]))
        with pytest.raises(NotInvertibleError):
            feshbach_map(H, None, pair)

    def test_low_spectrum_preserved_on_hermitian_matrix(self):
        rng = np.random.default_rng(5)
        basis = build_fock_basis(build_mode_grid(3, 1.0, "uniform"), 3)
        D = basis.dim
        hf = np.diag(basis.hf_diagonal())
        V = rng.standard_normal((D, D)) * 0.02
        mat = hf + (V + V.T) / 2.0
        pair = spectral_projection(basis, rho=0.5)
        # the map is isospectral through characteristic zeros: H - lam is
        # singular iff F(H - lam) is singular on the decimation sector
        lam = float(np.min(np.linalg.eigvalsh(mat)))
        rep = isospectral_check(mat, pair, lam)
        assert rep["dim_null_H"] == rep["dim_null_F"] == 1
        rep_off = isospectral_check(mat, pair, lam - 0.05)
        assert rep_off["dim_null_H"] == rep_off["dim_null_F"] == 0


class TestIdentityDefectNorm:
    """identity_defect's 2-norms skip zero rows and columns; a defect is set up as
    H Q - chi F = Q# H - F chi = A through H = 1, Q = Q# = A and F = 0."""

    @staticmethod
    def _defects(A):
        n = len(A)
        res = FeshbachResult(F=np.zeros((n, n)), Q=A, Qsharp=A, Hchibar_inv=np.zeros((n, n)),
                             pair=ProjectionPair(np.ones(n)))
        return identity_defect(np.eye(n), res)

    def test_zero_rows_and_columns_carry_no_singular_value(self):
        rng = np.random.default_rng(31)
        A = np.zeros((30, 30), dtype=complex)
        rows, cols = [1, 4, 5, 17, 29], [0, 2, 3, 9, 11, 12, 20]
        A[np.ix_(rows, cols)] = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        want = np.linalg.norm(A, 2)
        for got in self._defects(A):
            assert abs(got - want) <= 1e-15 * want

    def test_zero_defect_has_norm_zero(self):
        assert self._defects(np.zeros((6, 6))) == (0.0, 0.0)


def _sharp_or_smooth_pair(rng, n, smooth):
    return ProjectionPair(rng.uniform(0.1, 0.9, n) if smooth else
                          (rng.random(n) > 0.5).astype(float))


class TestStructuredDefect:
    """identity_defect forms H Q and Q# H through the rows of Q and the columns of
    Q# that differ from chi; the plain products must give the same defects."""

    @pytest.mark.parametrize("smooth", [False, True], ids=["sharp", "smooth"])
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_plain_products(self, seed, smooth):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        H = A + A.conj().T if seed % 2 else A
        pair = _sharp_or_smooth_pair(rng, 40, smooth)
        res = feshbach_map(H, None, pair)
        chi = pair.chi
        want = (np.linalg.norm(H @ res.Q - chi[:, np.newaxis] * res.F, 2),
                np.linalg.norm(res.Qsharp @ H - res.F * chi[np.newaxis, :], 2))
        hnorm = np.linalg.norm(H, 2)
        for got, plain in zip(identity_defect(H, res), want):
            assert abs(got - plain) <= 1e-14 * hnorm

    @pytest.mark.parametrize("side", ["Q", "Qsharp"])
    def test_corruption_outside_chibar_support_shows(self, side):
        # a row of Q (column of Q#) where chibar = 0 equals chi; adding c at one of
        # its entries moves H Q by c H[:, i] e_j^T (Q# H by c e_j H[i, :])
        rng = np.random.default_rng(37)
        A = rng.standard_normal((30, 30))
        H = A + A.T
        pair = _sharp_or_smooth_pair(rng, 30, smooth=False)
        res = feshbach_map(H, None, pair)
        i, j = np.flatnonzero(pair.chibar == 0.0)[0], np.flatnonzero(pair.chibar > 0.0)[0]
        c = 1e-6
        if side == "Q":
            res.Q[i, j] += c
            size, defect = c * np.linalg.norm(H[:, i]), identity_defect(H, res)[0]
        else:
            res.Qsharp[j, i] += c
            size, defect = c * np.linalg.norm(H[i]), identity_defect(H, res)[1]
        assert defect >= (1.0 - 1e-6) * size


class TestEighRoute:
    """A Hermitian matrix takes one eigh per block; the SVD route, forced by
    making the predicate false, must give the same null structure."""

    @staticmethod
    def _compare_routes(monkeypatch, mat):
        assert fock.hermitian(mat)
        index = np.arange(len(mat))
        by_eigh = feshbach._block_singular(mat, index, len(mat))
        monkeypatch.setattr(feshbach, "hermitian", lambda m: False)
        by_svd = feshbach._block_singular(mat, index, len(mat))
        monkeypatch.undo()
        hnorms = [max(1.0, s.max()) for s, _ in (by_eigh, by_svd)]
        assert abs(hnorms[0] - hnorms[1]) <= 1e-13 * hnorms[1]
        thr = RANK_THRESHOLD_FACTOR * hnorms[1]
        (dim_e, ind_e, null_e), (dim_s, ind_s, null_s) = (
            (int(np.sum(s < thr)), bool(np.any((s >= thr) & (s < INDETERMINATE_BAND * thr))),
             vecs[:, s < thr]) for s, vecs in (by_eigh, by_svd))
        assert (dim_e, ind_e) == (dim_s, ind_s)
        assert np.max(np.abs(null_e @ null_e.conj().T - null_s @ null_s.conj().T),
                      initial=0.0) <= 1e-10
        return dim_s, ind_s

    def test_engineered_double_eigenvalue(self, monkeypatch):
        Q, _ = np.linalg.qr(np.random.default_rng(13).standard_normal((6, 6)))
        mat = Q @ np.diag([0.0, 0.0, 0.7, 1.5, -2.1, 2.8]) @ Q.T
        assert self._compare_routes(monkeypatch, mat) == (2, False)

    def test_permuted_two_block_double_eigenvalue(self, monkeypatch):
        rng = np.random.default_rng(19)
        mat = np.zeros((11, 11))
        for block, diag in ((slice(0, 5), [0.0, 0.8, 1.3, -1.9, 2.5]),
                            (slice(5, 11), [0.0, 0.5, -0.9, 1.7, 2.2, 3.0])):
            Q, _ = np.linalg.qr(rng.standard_normal((len(diag), len(diag))))
            mat[block, block] = Q @ np.diag(diag) @ Q.T
        perm = rng.permutation(11)
        mat = mat[np.ix_(perm, perm)]
        assert len(fock.blocks(mat)) == 2
        assert self._compare_routes(monkeypatch, mat) == (2, False)

    @pytest.mark.parametrize("factor, indeterminate", [(9.9, True), (10.1, False)])
    def test_borderline_singular_value(self, monkeypatch, factor, indeterminate):
        # ||mat||_2 = 3, so the threshold is 3e-8; one eigenvalue sits near -10x it.
        # It shares no block with the null vector, which a gap of 3e-7 would
        # otherwise leave resolved only to ~1e-9
        rng = np.random.default_rng(23)
        mat = np.zeros((8, 8))
        near = -factor * RANK_THRESHOLD_FACTOR * 3.0
        for block, diag in ((slice(0, 4), [3.0, -2.0, 1.1, 0.0]),
                            (slice(4, 8), [0.5, -0.7, 1.9, near])):
            Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            mat[block, block] = Q @ np.diag(diag) @ Q.T
        assert self._compare_routes(monkeypatch, mat) == (1, indeterminate)


class TestChibarBlockThreshold:
    """The chibar block is singular below 1e-13 max(1, ||H||_2); ||H||_F >= ||H||_2
    screens it first, so ||H||_2 is computed only for a block that fails the screen."""

    @pytest.mark.parametrize("smin, singular, spectral", [
        (2e-9, False, False), (5e-10, False, True), (5e-11, True, True)],
        ids=["clear", "between-thresholds", "below-spectral-threshold"])
    def test_decision_and_spectral_norm(self, monkeypatch, smin, singular, spectral):
        # ||H||_2 = 1e3 and ||H||_F = 1e4: the thresholds are 1e-10 and 1e-9
        H = np.diag(np.append(np.full(100, 1e3), smin))
        assert np.linalg.norm(H, 2) == 1e3 and np.isclose(np.linalg.norm(H), 1e4)
        pair = ProjectionPair(np.append(np.ones(100), 0.0))
        ords = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm",
                            lambda x, ord=None: ords.append(ord) or norm(x, ord))
        try:
            res = feshbach_map(H, None, pair)
        except NotInvertibleError as exc:
            res = exc
        monkeypatch.undo()
        assert (2 in ords) == spectral
        if singular:
            assert isinstance(res, NotInvertibleError) and res.singular_value == smin
        else:
            assert res.Hchibar_inv[100, 100] == 1.0 / smin


class TestReconstructInverse:
    def test_diagonal_inverse(self):
        H = np.diag([2.0, 4.0, 8.0]).astype(complex)
        pair = ProjectionPair(np.array([1.0, 0.0, 0.0]))
        res = feshbach_map(H, None, pair)
        inv = reconstruct_inverse(res)
        assert np.allclose(inv, np.diag([0.5, 0.25, 0.125]))

    def test_two_by_two_matches_direct_inverse(self):
        mat = np.array([[1.5, 0.3], [0.3, 2.5]], dtype=complex)
        pair = ProjectionPair(np.array([1.0, 0.0]))
        res = feshbach_map(mat, None, pair)
        inv = reconstruct_inverse(res)
        assert np.allclose(inv, np.linalg.inv(mat), atol=1e-13)

    def test_random_well_conditioned(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        mat = A + 8.0 * np.eye(64)  # push away from singularity
        chi = (rng.random(64) > 0.5).astype(float)
        pair = ProjectionPair(chi)
        res = feshbach_map(mat, None, pair)
        inv = reconstruct_inverse(res)
        direct = np.linalg.inv(mat)
        err = np.linalg.norm(inv - direct, 2) / np.linalg.norm(direct, 2)
        assert err < 1e-10


def _singular_data(A):
    """Singular values and right singular vectors as columns, by the documented
    rule: one eigh when max|A - A*| < 1e-10 max(1, max|A|) (|eigenvalues| and
    eigenvectors), one SVD otherwise."""
    if np.max(np.abs(A - A.conj().T)) < 1e-10 * max(1.0, np.max(np.abs(A))):
        e, v = np.linalg.eigh(A)
        return np.abs(e), v
    _, s, vh = np.linalg.svd(A)
    return s, vh.conj().T


def _whole_matrix_check(H, pair, lam):
    """isospectral_check with the singular data of the whole H - lambda and of
    F's whole chi block (`_singular_data`), and 2-norms of the whole defect
    matrices, formed by the row formula H Q = H chi + H[:, rows] (Q - chi)[rows]
    and the column formula Q# H = chi H + (Q# - chi)[:, cols] H[cols]."""
    H = H - lam * np.eye(len(H))
    res = feshbach_map(H, None, pair)
    s, v = _singular_data(H)
    hnorm = max(s.max(), 1.0)
    thr = RANK_THRESHOLD_FACTOR * hnorm
    sup = pair.chi > 0.0
    s_f, v_f = _singular_data(res.F[np.ix_(sup, sup)])
    null_h = v[:, s < thr]
    null_f = np.zeros((len(H), np.sum(s_f < thr)), dtype=v_f.dtype)
    null_f[sup] = v_f[:, s_f < thr]
    chi = pair.chi
    dq, dqs = res.Q - np.diag(chi), res.Qsharp - np.diag(chi)
    rows, cols = np.flatnonzero(dq.any(axis=1)), np.flatnonzero(dqs.any(axis=0))
    d1 = np.linalg.norm(H * chi[np.newaxis, :] + H[:, rows] @ dq[rows]
                        - chi[:, np.newaxis] * res.F, 2)
    d2 = np.linalg.norm(chi[:, np.newaxis] * H + dqs[:, cols] @ H[cols]
                        - res.F * chi[np.newaxis, :], 2)
    dim_h, dim_f = int(np.sum(s < thr)), int(np.sum(s_f < thr))
    borderline = [(v >= thr) & (v < INDETERMINATE_BAND * thr) for v in (s, s_f)]
    return {
        "lambda": [float(np.real(lam)), float(np.imag(lam))],
        "dim_null_H": dim_h, "dim_null_F": dim_f, "null_dims_equal": dim_h == dim_f,
        "indeterminate": bool(np.any(borderline[0]) or np.any(borderline[1])),
        "H_invertible": dim_h == 0, "F_invertible": dim_f == 0,
        "transport_residual_chi": max([0.0] + [float(np.linalg.norm(res.F @ (chi * psi))) / hnorm
                                               for psi in null_h.T]),
        "transport_residual_Q": max([0.0] + [float(np.linalg.norm(H @ (res.Q @ phi))) / hnorm
                                             for phi in null_f.T]),
        "identity_defect_HQ": float(d1) / hnorm, "identity_defect_QsH": float(d2) / hnorm,
    }


class TestIsospectralCheck:
    def test_diagonal_null_transport(self):
        H = np.diag([0.3, 1.0, 2.0]).astype(complex)
        pair = ProjectionPair(np.array([1.0, 1.0, 0.0]))
        rep = isospectral_check(H, pair, 0.3)
        assert rep["dim_null_H"] == 1 and rep["dim_null_F"] == 1
        assert rep["null_dims_equal"]

    def test_resolvent_point(self):
        H = np.diag([0.3, 1.0, 2.0]).astype(complex)
        pair = ProjectionPair(np.array([1.0, 1.0, 0.0]))
        rep = isospectral_check(H, pair, 0.5 + 0.1j)
        assert rep["dim_null_H"] == rep["dim_null_F"] == 0
        assert rep["H_invertible"] and rep["F_invertible"]

    def test_engineered_double_eigenvalue(self):
        rng = np.random.default_rng(13)
        diag = np.array([0.4, 0.4, 1.1, 1.9, 2.5, 3.2])
        A = rng.standard_normal((6, 6))
        Q, _ = np.linalg.qr(A)
        mat = Q @ np.diag(diag) @ Q.T
        H = mat.astype(complex)
        chi = (np.diag(mat).real < 1.5).astype(float)
        if chi.sum() in (0, 6):
            chi[0] = 1.0 - chi[0]
        pair = ProjectionPair(chi)
        rep = isospectral_check(H, pair, 0.4)
        assert rep["dim_null_H"] == 2
        assert rep["dim_null_F"] == 2
        assert rep["transport_residual_chi"] < 1e-8
        assert rep["transport_residual_Q"] < 1e-8

    def test_permuted_two_block_double_eigenvalue(self):
        # lambda = 0.4 is an eigenvalue of each block: the two null vectors come
        # from different SVDs and must land on their blocks' indices
        rng = np.random.default_rng(19)
        mat = np.zeros((11, 11))
        for block, diag in ((slice(0, 5), [0.4, 1.2, 1.7, 2.3, 2.9]),
                            (slice(5, 11), [0.4, 0.9, 1.3, 2.1, 2.6, 3.4])):
            Q, _ = np.linalg.qr(rng.standard_normal((len(diag), len(diag))))
            mat[block, block] = Q @ np.diag(diag) @ Q.T
        perm = rng.permutation(11)
        H = mat[np.ix_(perm, perm)]
        assert len(fock.blocks(H)) == 2
        pair = ProjectionPair((np.diag(H) < 1.5).astype(float))
        assert 0 < pair.chi.sum() < 11
        rep = isospectral_check(H, pair, 0.4)
        assert rep["dim_null_H"] == rep["dim_null_F"] == 2
        assert rep["transport_residual_chi"] < 1e-8
        assert rep["transport_residual_Q"] < 1e-8
        # the defects are scaled by ||H - lambda||_2, the larger block's norm
        want = _whole_matrix_check(H, pair, 0.4)
        for key in ("identity_defect_HQ", "identity_defect_QsH"):
            assert abs(rep[key] - want[key]) <= 1e-12 * want[key]

    @pytest.mark.parametrize("smooth", [False, True], ids=["sharp", "smooth"])
    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "non-hermitian"])
    def test_irreducible_matrix_matches_whole_matrix_check(self, hermitian, smooth):
        # a dense H - lambda and F chi block are one block each: the same solver
        # calls (an SVD each, since lambda is complex).  A
        # smooth chi in (0, 1) leaves the defects no zero row or column, so the
        # whole report is bit-identical; a sharp pair zeroes the defects' chibar
        # columns, and their 2-norms then agree to rounding
        rng = np.random.default_rng(29)
        A = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        H = A + A.conj().T if hermitian else A
        chi = rng.uniform(0.1, 0.9, 24) if smooth else (rng.random(24) > 0.5).astype(float)
        pair = ProjectionPair(chi)
        lam = 0.3 + 0.1j
        got, want = isospectral_check(H, pair, lam), _whole_matrix_check(H, pair, lam)
        defects = ("identity_defect_HQ", "identity_defect_QsH")
        if smooth:
            assert got == want
        else:
            assert {k: v for k, v in got.items() if k not in defects} == \
                {k: v for k, v in want.items() if k not in defects}
            for key in defects:
                assert abs(got[key] - want[key]) <= 1e-12 * want[key]


class TestAssembledOperatorInput:
    def test_tagged_and_plain_matrix_give_equal_results(self):
        # assemble_operator tags its matrix with the basis; the dense functions
        # must treat the tag exactly like its .mat, as the benchmark calls them
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=3e-3, kappa=1.0)
        basis = build_fock_basis(build_mode_grid(4, 1.0 / 3.0, "geometric"), 3)
        H = ground_sector_hamiltonian(spec, basis.grid, 0.0)
        Hop = assemble_operator(H, basis)
        tau = assemble_term(H.terms[(0, 0)], basis)
        pair = spectral_projection(basis, 0.5)
        tagged = feshbach_map(Hop, OperatorMatrix(tau, basis), pair)
        plain = feshbach_map(Hop.mat, tau, pair)
        for field in ("F", "Q", "Qsharp", "Hchibar_inv"):
            assert np.array_equal(getattr(tagged, field), getattr(plain, field))
        assert identity_defect(Hop, tagged) == identity_defect(Hop.mat, plain)
        assert fock.hermitian(tagged.F[np.ix_(pair.chi > 0, pair.chi > 0)])  # takes eigh
        spectrum = exact_spectrum(Hop)
        assert np.array_equal(spectrum, exact_spectrum(Hop.mat))
        assert np.isrealobj(spectrum)  # the assembled kernels are Hermitian
        lam = float(spectrum[0])
        assert isospectral_check(Hop, pair, lam) == isospectral_check(Hop.mat, pair, lam)


class TestRefusals:
    """Each refusal of the module's constructors and map, with its message, on a
    6-state basis (2 uniform modes to 0.4, n_max = 2, field energies up to 0.6)."""

    @pytest.mark.parametrize("call, message", [
        (lambda b: ProjectionPair(np.eye(2)), "chi must be a 1-d array"),
        (lambda b: ProjectionPair([0.5, 1.5]), r"chi must take values in \[0, 1\]"),
        (lambda b: ProjectionPair([-0.1, 1.0]), r"chi must take values in \[0, 1\]"),
        (lambda b: spectral_projection(b, 0.0), "rho must be positive"),
        (lambda b: spectral_projection(b, -0.3), "rho must be positive"),
        (lambda b: feshbach_map(np.eye(b.dim), None, ProjectionPair(np.ones(b.dim + 1))),
         "projection pair dimension mismatch"),
        (lambda b: feshbach_map(np.eye(b.dim), np.ones((b.dim, b.dim)),
                                spectral_projection(b, 0.3)),
         "tau must be diagonal in the working basis")],
        ids=["chi-2d", "chi-above-1", "chi-below-0", "rho-0", "rho-negative", "pair-dimension",
             "tau-not-diagonal"])
    def test_refusal(self, call, message):
        basis = build_fock_basis(build_mode_grid(2, 0.4, "uniform"), 2)
        with pytest.raises(ValueError, match=message):
            call(basis)
