"""Dense reference computations and their internal consistency."""

import tracemalloc

import numpy as np
import pytest

from specrg import fock, oracle
from specrg.fock import build_fock_basis, build_mode_grid, field_hamiltonian
from specrg.models import (ModelSpec, build_model, complex_dilate, dilated_grid)
from specrg.oracle import (NotFoundError, ResolutionError, SolverError,
                           combes_deviation, exact_spectrum, fit_pole,
                           perturbation_oracle, resonance_eigenvalue,
                           resonance_multiplicity)


def _two_level(g, kappa=2.0):
    return ModelSpec(particle_levels=np.array([0.0, 1.0]), g=g, kappa=kappa)


def _resonance_setup(g=2e-3):
    spec = _two_level(g)
    grid = build_mode_grid(64, 2.0, "uniform")
    basis = build_fock_basis(grid, 1)
    return spec, grid, basis


def _dense_oracle_dilation(g, im_theta):
    """The dense-oracle workload's 650-state dilation, with its photon parity."""
    basis = build_fock_basis(build_mode_grid(24, 2.0, "uniform"), 2)
    D = complex_dilate(_two_level(g), basis, 1j * im_theta)
    return D, oracle._parity(D)


class TestExactSpectrum:
    def test_diagonal_matrix(self):
        vals = exact_spectrum(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(vals, [1.0, 2.0, 3.0])

    def test_field_hamiltonian_two_modes(self):
        basis = build_fock_basis(build_mode_grid(2, 1.0, "uniform"), 2)
        k1, k2 = basis.grid.nodes
        vals = exact_spectrum(field_hamiltonian(basis))
        expected = np.sort([0.0, k1, k2, 2 * k1, k1 + k2, 2 * k2])
        assert np.allclose(vals, expected)

    def test_k_lowest(self):
        vals = exact_spectrum(np.diag([3.0, 1.0, 2.0]).astype(complex), k=2)
        assert np.allclose(vals, [1.0, 2.0])

    @pytest.mark.parametrize("k", [-1, 0])
    def test_k_below_one_raises(self, k):
        with pytest.raises(ValueError, match=f"k must be at least 1, not {k}"):
            exact_spectrum(np.diag([3.0, 1.0, 2.0]), k=k)

    def test_hermitian_rule_scales_with_the_entries(self):
        # the rounding asymmetry of V diag V^T grows with its entries: at norm 1e8
        # it exceeds an absolute 1e-10, yet the matrix is Hermitian and gets eigvalsh
        rng = np.random.default_rng(3)
        V, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        diag = np.linspace(-1e8, 1e8, 20)
        mat = V @ np.diag(diag) @ V.T
        assert np.max(np.abs(mat - mat.T)) > 1e-10
        vals = exact_spectrum(mat)
        assert vals.dtype == np.float64
        assert np.max(np.abs(vals - diag)) <= 1e-14 * 1e8 * 20

    def test_dimension_cap(self):
        # the cap is checked before the Hermitian test, so a refused matrix
        # costs no copy of its own size
        big = np.zeros((6000, 6000))
        tracemalloc.start()
        try:
            with pytest.raises(SolverError, match="dimension 6000 exceeds the dense cap"):
                exact_spectrum(big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < big.nbytes

    def test_eigensolver_failure_raises_solver_error(self):
        # a NaN fails the Hermitian test, and eigvals refuses it with LinAlgError
        with pytest.raises(SolverError, match="Array must not contain infs or NaNs"):
            exact_spectrum(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_non_hermitian_matrix_gets_its_complex_spectrum(self, resonance_instance):
        # the dilated model is not Hermitian: its full spectrum comes sorted
        # and complex, and holds the resonance that inverse iteration locates
        _, _, _, D = resonance_instance
        vals = exact_spectrum(D.H)
        assert vals.dtype == np.complex128 and len(vals) == D.H.shape[0]
        assert np.array_equal(vals, np.sort_complex(vals))
        z, _ = resonance_eigenvalue(D, 1.0)
        assert z.imag < 0.0
        assert np.min(np.abs(vals - z)) <= 1e-12

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "non-hermitian"])
    def test_permuted_reducible_matrix_matches_whole_solve(self, hermitian):
        # three blocks of sizes 6, 1 and 9, scattered by a permutation
        rng = np.random.default_rng(11)
        H = np.zeros((16, 16), dtype=complex)
        for block in (slice(0, 6), slice(6, 7), slice(7, 16)):
            size = block.stop - block.start
            A = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            H[block, block] = A + A.conj().T if hermitian else A
        perm = rng.permutation(16)
        H = H[np.ix_(perm, perm)]
        assert len(fock.blocks(H)) == 3
        want = np.linalg.eigvalsh(H) if hermitian else np.sort_complex(np.linalg.eigvals(H))
        tol = 1e-13 * max(1.0, np.linalg.norm(H, 2))
        for k in (None, 5):
            got = exact_spectrum(H, k)
            assert got.dtype == want.dtype and len(got) == len(want[:k])
            assert np.max(np.abs(got - want[:k])) <= tol

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "non-hermitian"])
    def test_irreducible_matrix_is_one_whole_solve(self, hermitian):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        H = A + A.conj().T if hermitian else A
        want = np.linalg.eigvalsh(H) if hermitian else np.sort_complex(np.linalg.eigvals(H))
        assert exact_spectrum(H).tobytes() == want.tobytes()

    def test_coupled_ground_below_particle_level(self):
        spec = _two_level(5e-3, kappa=1.0)
        basis = build_fock_basis(build_mode_grid(6, 0.5, "geometric"), 2)
        model = build_model(spec, basis)
        vals, vecs = np.linalg.eigh(model.H)
        assert vals[0] < 0.0
        assert np.linalg.norm(vecs[:, 0]) == pytest.approx(1.0)


class TestResonanceEigenvalue:
    def test_uncoupled_resonance_is_real_level(self):
        spec, grid, basis = _resonance_setup(g=0.0)
        D = complex_dilate(spec, basis, 0.2j)
        z, stab = resonance_eigenvalue(D, 1.0)
        assert z == pytest.approx(1.0, abs=1e-12)
        assert stab < 1e-12

    def test_coupled_resonance_moves_down_by_order_g_squared(self):
        g = 2e-3
        spec, grid, basis = _resonance_setup(g)
        D = complex_dilate(spec, basis, 0.2j)
        z, stab = resonance_eigenvalue(D, 1.0)
        assert z.imag < 0.0
        assert abs(z - 1.0) < g  # O(g^2) displacement, g bounds it comfortably
        assert stab < 1e-6 * spec.level_gap

    def test_requires_positive_imaginary_angle(self):
        spec, grid, basis = _resonance_setup(0.0)
        D = complex_dilate(spec, basis, 0.1 + 0j)
        with pytest.raises(ValueError):
            resonance_eigenvalue(D, 1.0)

    def test_missing_eigenvalue_raises(self):
        spec, grid, basis = _resonance_setup(0.0)
        D = complex_dilate(spec, basis, 0.2j)
        with pytest.raises(NotFoundError):
            resonance_eigenvalue(D, 10.0, radius=0.05)

    def test_seed_that_singles_out_no_eigenvalue_raises(self):
        # from 10 the top continuum eigenvalues 1 + e^-theta k are all about
        # equally far, so no one of them is the resonance the seed names
        spec, grid, basis = _resonance_setup(0.0)
        D = complex_dilate(spec, basis, 0.2j)
        with pytest.raises(SolverError, match="did not converge"):
            resonance_eigenvalue(D, 10.0, radius=100.0)

    def test_multiplicity_one_for_nondegenerate_level(self):
        spec, grid, basis = _resonance_setup(2e-3)
        D = complex_dilate(spec, basis, 0.2j)
        z, _ = resonance_eigenvalue(D, 1.0)
        assert resonance_multiplicity(D, z, 0.01) == 1


def _nearest_root(mat, seed):
    vals = np.linalg.eigvals(mat)
    return vals[np.argmin(np.abs(vals - seed))]


class TestNearestEigenvalue:
    @pytest.mark.parametrize("n", [2, 7, 40, 120])
    def test_matches_eigvals_on_random_nonnormal_matrices(self, n):
        rng = np.random.default_rng(n)
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat[np.triu_indices(n, 1)] *= 5.0  # far from normal
        vals = np.linalg.eigvals(mat)
        hnorm = np.linalg.norm(mat, 2)
        for j in rng.choice(n, size=min(n, 4), replace=False):
            # a seed a tenth of the way to the next eigenvalue singles out vals[j]
            gap = np.min(np.abs(np.delete(vals, j) - vals[j]))
            seed = vals[j] + 0.1 * gap * np.exp(1j * rng.uniform(0, 2 * np.pi))
            z = oracle._nearest_eigenvalue(mat, seed, radius=gap)
            assert abs(z - vals[j]) <= 1e-12 * hnorm

    def test_matches_eigvals_on_dense_oracle_dilation(self):
        H = _dense_oracle_dilation(1.5e-3, 0.2)[0].H
        assert H.shape == (650, 650)
        z = oracle._nearest_eigenvalue(H, 1.0, 0.5)
        assert abs(z - _nearest_root(H, 1.0)) <= 1e-12 * np.linalg.norm(H, 2)

    @pytest.mark.parametrize("im_theta", oracle.STABILITY_THETAS)
    def test_parity_block_solve_matches_eigvals_on_dense_oracle_dilation(self, im_theta):
        D, parity = _dense_oracle_dilation(1.5e-3, im_theta)
        vals = np.linalg.eigvals(D.H)
        hnorm = np.linalg.norm(D.H, 2)
        z = vals[np.argmin(np.abs(vals - 1.0))]
        # at seed 1.0 the pivot of level 1 (x) vacuum is exactly 0: it must be kept
        assert np.count_nonzero(np.diagonal(D.H) == 1.0) == 1
        for seed in (1.0, z):
            got = oracle._nearest_eigenvalue(D.H, seed, 0.5, parity)
            assert abs(got - z) <= 1e-12 * hnorm

    def test_parity_block_solve_returns_seed_at_uncoupled_exact_pivot(self):
        D, parity = _dense_oracle_dilation(0.0, 0.2)
        assert oracle._nearest_eigenvalue(D.H, 1.0, 0.5, parity) == 1.0

    def test_parity_with_coupled_eliminated_block_raises(self, monkeypatch):
        # one class for every state: the block to eliminate holds Phi
        spec, grid, basis = _resonance_setup(2e-3)
        H = complex_dilate(spec, basis, 0.2j).H
        monkeypatch.setattr(np.linalg, "inv", lambda *a: pytest.fail("fell back to inv"))
        with pytest.raises(ValueError, match="not diagonal"):
            oracle._nearest_eigenvalue(H, 1.0, 0.5, np.zeros(H.shape[0], dtype=int))

    def test_resonance_eigenvalue_inverts_only_the_kept_block(self, monkeypatch):
        D, _ = _dense_oracle_dilation(1.5e-3, 0.2)
        shapes = []
        for name in ("inv", "solve"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, *r, fn=fn: shapes.append(np.shape(a)) or fn(a, *r))
        resonance_eigenvalue(D, 1.0)
        assert len(shapes) == len(oracle.STABILITY_THETAS)
        assert all(max(s) <= 200 for s in shapes)

    def test_outside_radius_raises_not_found(self):
        mat = np.diag([1.0, 2.0, 3.0]).astype(complex)
        with pytest.raises(NotFoundError):
            oracle._nearest_eigenvalue(mat, 5.0, radius=1.0)

    def test_equidistant_tie_raises_solver_error(self):
        mat = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(SolverError, match="did not converge"):
            oracle._nearest_eigenvalue(mat, 0.0, radius=5.0)

    def test_exactly_singular_shift_returns_seed(self):
        mat = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 3.0]], dtype=complex)
        assert oracle._nearest_eigenvalue(mat, 1.0, radius=0.1) == 1.0

    def test_resonance_eigenvalue_runs_no_full_eigensolve(self, monkeypatch):
        spec, grid, basis = _resonance_setup(2e-3)
        D = complex_dilate(spec, basis, 0.2j)
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda *a, **k: calls.append(1) or eigvals(*a, **k))
        z, stab = resonance_eigenvalue(D, 1.0)
        assert calls == []
        monkeypatch.undo()
        assert abs(z - _nearest_root(D.H, 1.0)) <= 1e-13
        assert z.imag < 0.0 and stab < 1e-6 * spec.level_gap


class TestPoleFitting:
    def test_rank_one_resolvent_has_unit_residue(self):
        spec, grid, basis = _resonance_setup(0.0)
        D = complex_dilate(spec, basis, 0.2j)
        phi = np.zeros(2 * basis.dim, dtype=complex)
        phi[basis.dim] = 1.0  # excited level tensor vacuum
        fit = fit_pole(D, phi, phi, 1.0)
        assert fit.pole == pytest.approx(1.0, abs=1e-12)
        assert fit.residue == pytest.approx(1.0, abs=1e-10)
        assert fit.residual < 1e-10

    def test_coupled_pole_has_finite_nonzero_residue(self):
        spec, grid, basis = _resonance_setup(5e-3)
        D = complex_dilate(spec, basis, 0.2j)
        z, _ = resonance_eigenvalue(D, 1.0)
        phi = np.zeros(2 * basis.dim, dtype=complex)
        phi[basis.dim] = 1.0
        fit = fit_pole(D, phi, phi, z)
        assert np.isfinite(fit.residue)
        assert abs(fit.residue) > 0.5
        assert fit.residual < 1e-3

    def test_pole_fit_samples_are_resolvent_elements(self, resonance_instance):
        # the samples are <psi, (H_theta - z)^-1 phi>, against a plain dense solve; phi
        # is the level-1 vacuum and psi adds a level-0 one-photon state, in phi's
        # photon-parity block, so that no element is zero by structure
        _, _, basis, D = resonance_instance
        phi = np.zeros(2 * basis.dim, dtype=complex)
        phi[basis.dim] = 1.0
        psi = phi.copy()
        psi[1] = 0.5
        fit = fit_pole(D, psi, phi, 1.0)
        eye = np.eye(D.H.shape[0])
        want = np.array([np.vdot(psi, np.linalg.solve(D.H - z * eye, phi)) for z in fit.samples_z])
        assert np.min(np.abs(want)) > 0
        assert np.all(np.abs(fit.samples_f - want) <= 1e-12 * np.abs(want))

    def test_resolvent_matches_plain_solve(self, resonance_instance):
        # criterion 8's vectors, on its pole-fit samples and continuation grid
        spec, grid, basis, D = resonance_instance
        psi = np.zeros(2 * basis.dim, dtype=complex)
        psi[0] = 1.0
        phi = np.zeros(2 * basis.dim, dtype=complex)
        phi[basis.dim] = 1.0
        D_real = complex_dilate(spec, basis, 0.1 + 0j)
        z_grid = np.array([0.5 + 0.3j, -0.2 + 0.1j, 1.3 + 0.4j, 0.9 + 0.6j])
        for model, zs in ((D, fit_pole(D, phi, phi, 1.0).samples_z), (D_real, z_grid)):
            for vec in (psi, phi):
                got = oracle._resolvent(model, vec, phi, zs)
                eye = np.eye(model.H.shape[0])
                want = [np.vdot(vec, np.linalg.solve(model.H - z * eye, phi)) for z in zs]
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_combes_identity_at_real_angle(self):
        spec = _two_level(5e-3)
        grid = build_mode_grid(32, 2.0, "uniform")
        basis = build_fock_basis(grid, 1)
        theta = 0.1
        D = complex_dilate(spec, basis, theta + 0j)
        covariant = build_model(spec, build_fock_basis(dilated_grid(grid, theta), 1))
        psi = np.zeros(2 * basis.dim, dtype=complex)
        psi[0] = 1.0
        phi = np.zeros(2 * basis.dim, dtype=complex)
        phi[basis.dim] = 1.0
        z_grid = np.array([0.5 + 0.3j, -0.2 + 0.1j, 1.3 + 0.4j])
        dev = combes_deviation(D, covariant, psi, phi, z_grid)
        assert dev < 1e-10


class TestPerturbationOracle:
    def test_uncoupled_corrections_vanish(self):
        spec = _two_level(0.0)
        grid = build_mode_grid(32, 2.0, "uniform")
        rep = perturbation_oracle(spec, grid)
        assert rep["ground_shift"] == 0.0
        assert np.all(rep["widths"] == 0.0)

    def test_ground_shift_is_negative(self):
        spec = _two_level(1e-3)
        grid = build_mode_grid(32, 2.0, "uniform")
        rep = perturbation_oracle(spec, grid)
        assert rep["ground_shift"] < 0.0

    def test_shift_matches_exact_diagonalization(self):
        spec = _two_level(1e-3, kappa=1.0)
        grid = build_mode_grid(8, 0.5, "geometric")
        basis = build_fock_basis(grid, 2)
        model = build_model(spec, basis)
        e0 = float(np.min(np.linalg.eigvalsh(model.H)))
        rep = perturbation_oracle(spec, grid)
        assert rep["ground_shift"] == pytest.approx(e0, rel=0.05)

    def test_perturbative_window_enforced(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = _two_level(0.2)
        grid = build_mode_grid(32, 2.0, "uniform")
        with pytest.raises(ValueError, match="perturbative"):
            perturbation_oracle(spec, grid)

    def test_unresolved_decay_gap_raises(self):
        spec = _two_level(1e-3)
        grid = build_mode_grid(4, 2.0, "uniform")  # spacing 0.5, gap 1
        with pytest.raises(ResolutionError):
            perturbation_oracle(spec, grid)
