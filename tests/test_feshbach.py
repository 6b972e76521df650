"""Sharp and smooth decimation maps on finite matrices."""

import numpy as np
import pytest

from specrg.fock import OperatorMatrix, build_fock_basis, build_mode_grid
from specrg.feshbach import (NotInvertibleError, ProjectionPair, feshbach_map,
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

    def test_smooth_sharp_taper_convergence(self):
        rng = np.random.default_rng(17)
        basis = build_fock_basis(build_mode_grid(3, 1.0, "uniform"), 2)
        D = basis.dim
        hf = np.diag(basis.hf_diagonal())
        V = rng.standard_normal((D, D)) * 0.05
        mat = hf + (V + V.T) / 2.0
        rho = 0.9
        sharp = feshbach_map(mat, None, spectral_projection(basis, rho)).F
        diffs = []
        for taper in (rho / 2.0, rho / 8.0, rho / 32.0):
            pair = spectral_projection(basis, rho, smooth=True, taper=taper)
            smooth = feshbach_map(mat, None, pair).F
            diffs.append(np.linalg.norm(smooth - sharp, 2))
        assert diffs[0] > diffs[1] > diffs[2]


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
        for field in ("F", "Q", "Qsharp", "Hchibar_inv", "tau"):
            assert np.array_equal(getattr(tagged, field), getattr(plain, field))
        assert identity_defect(Hop, tagged) == identity_defect(Hop.mat, plain)
        spectrum = exact_spectrum(Hop)
        assert np.array_equal(spectrum, exact_spectrum(Hop.mat))
        assert np.isrealobj(spectrum)  # the assembled kernels are Hermitian
        lam = float(spectrum[0])
        assert isospectral_check(Hop, pair, lam) == isospectral_check(Hop.mat, pair, lam)
