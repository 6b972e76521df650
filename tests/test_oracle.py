"""Dense reference computations and their internal consistency."""

import time
import tracemalloc

import numpy as np
import pytest

from specrg import fock, oracle
from specrg.fock import build_fock_basis, build_mode_grid, field_hamiltonian
from specrg.models import (ModelSpec, build_model, complex_dilate, dilated_grid)
from specrg.oracle import (NotFoundError, ResolutionError, SchurChain, SolverError,
                           combes_deviation, exact_spectrum, fit_pole, ground_energy,
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
    """The dense-oracle workload's 650-state dilation."""
    basis = build_fock_basis(build_mode_grid(24, 2.0, "uniform"), 2)
    return complex_dilate(_two_level(g), basis, 1j * im_theta)


def _chain(D):
    return SchurChain(D.spec, D.basis, D.theta)


class _Dense:
    """A dense matrix with the interface _nearest_eigenvalue reads of a SchurChain."""

    def __init__(self, mat):
        self.mat, self.diag, self.frobenius = mat, np.diagonal(mat), float(np.linalg.norm(mat))

    def apply(self, x):
        return self.mat @ x

    def solver(self, sigma):
        return np.linalg.inv(self.mat - sigma * np.eye(len(self.mat))).__matmul__


# complex Hermitian, with Gamma_00 != 0: the two directions of a coupling read
# Gamma_ll' and Gamma_l'l = conj(Gamma_ll')
GAMMA3 = np.array([[0.3, 1.0, 0.5j], [1.0, -0.2, 0.7 - 0.2j], [-0.5j, 0.7 + 0.2j, 0.1]])


def _three_level(g=4e-3):
    return ModelSpec(particle_levels=np.array([0.0, 0.8, 1.5]), g=g, kappa=1.0, gamma=GAMMA3)


def _chain_case(case):
    if case == "two-level":
        return (_two_level(5e-3, kappa=1.0),
                build_fock_basis(build_mode_grid(8, 0.5, "geometric"), 2))
    return _three_level(4e-2), build_fock_basis(build_mode_grid(6, 1.0, "geometric"), 3)


def _scattered(chain):
    """The chain's blocks written into one dense matrix, particle index outer."""
    L, D = chain.diag.shape
    up, down = np.zeros((D, D), dtype=complex), np.zeros((D, D), dtype=complex)
    np.add.at(up, (np.arange(D)[:, None], chain.lower), chain.w)
    np.add.at(down, (np.arange(chain.off[-2])[:, None], chain.upper), chain.v)
    # the two tables hold the same coupling, one move at a time
    assert np.array_equal(down, up.T)
    return np.diag(chain.diag.ravel()) + np.kron(chain.G, up + down)


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
            z = oracle._nearest_eigenvalue(_Dense(mat), seed, radius=gap)
            assert abs(z - vals[j]) <= 1e-12 * hnorm

    def test_matches_eigvals_on_dense_oracle_dilation(self):
        H = _dense_oracle_dilation(1.5e-3, 0.2).H
        assert H.shape == (650, 650)
        z = oracle._nearest_eigenvalue(_Dense(H), 1.0, 0.5)
        assert abs(z - _nearest_root(H, 1.0)) <= 1e-12 * np.linalg.norm(H, 2)

    @pytest.mark.parametrize("im_theta", oracle.STABILITY_THETAS)
    def test_chain_matches_eigvals_on_dense_oracle_dilation(self, im_theta):
        D = _dense_oracle_dilation(1.5e-3, im_theta)
        vals = np.linalg.eigvals(D.H)
        hnorm = np.linalg.norm(D.H, 2)
        z = vals[np.argmin(np.abs(vals - 1.0))]
        # at seed 1.0 the pivot of level 1 (x) vacuum, in the kept shell N = 0, is exactly 0
        assert np.count_nonzero(np.diagonal(D.H) == 1.0) == 1
        for seed in (1.0, z):
            got = oracle._nearest_eigenvalue(_chain(D), seed, 0.5)
            assert abs(got - z) <= 1e-12 * hnorm

    def test_chain_returns_seed_at_uncoupled_exact_pivot(self):
        # at g = 0 the Feshbach map onto N = 0 is diag(eps - seed): singular at seed 1
        D = _dense_oracle_dilation(0.0, 0.2)
        assert oracle._nearest_eigenvalue(_chain(D), 1.0, 0.5) == 1.0
        assert resonance_eigenvalue(D, 1.0) == (1.0, 0.0)

    def test_resonance_eigenvalue_solves_nothing_larger_than_a_complement(self, monkeypatch):
        # the dense complements of the 650 states are S_1 (2 levels x 24 one-photon
        # states) and S_0 (2 levels x vacuum); the 600-state top shell is diagonal
        D = _dense_oracle_dilation(1.5e-3, 0.2)
        shapes = []
        for name in ("inv", "solve"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, *r, fn=fn: shapes.append(np.shape(a)) or fn(a, *r))
        resonance_eigenvalue(D, 1.0)
        assert shapes == [(48, 48), (2, 2)] * len(oracle.STABILITY_THETAS)

    def test_outside_radius_raises_not_found(self):
        mat = np.diag([1.0, 2.0, 3.0]).astype(complex)
        with pytest.raises(NotFoundError):
            oracle._nearest_eigenvalue(_Dense(mat), 5.0, radius=1.0)

    def test_equidistant_tie_raises_solver_error(self):
        mat = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(SolverError, match="did not converge"):
            oracle._nearest_eigenvalue(_Dense(mat), 0.0, radius=5.0)

    def test_exactly_singular_shift_returns_seed(self):
        mat = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 3.0]], dtype=complex)
        assert oracle._nearest_eigenvalue(_Dense(mat), 1.0, radius=0.1) == 1.0

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


class TestSchurChain:
    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.2j, 0.1 + 0.15j])
    @pytest.mark.parametrize("case", ["two-level", "three-level"])
    def test_blocks_are_the_dilation(self, case, theta):
        spec, basis = _chain_case(case)
        H = complex_dilate(spec, basis, theta).H
        chain = SchurChain(spec, basis, theta)
        assert np.max(np.abs(_scattered(chain) - H)) <= 1e-15 * np.max(np.abs(H))
        # H x and ||H||_F from the blocks, and the solve, against the dense matrix
        x = np.random.default_rng(4).standard_normal(len(H)) + 0.5j
        hnorm = np.linalg.norm(H, 2)
        assert np.max(np.abs(chain.apply(x) - H @ x)) <= 1e-14 * hnorm * np.linalg.norm(x)
        assert chain.frobenius == pytest.approx(np.linalg.norm(H), rel=1e-14)
        sigma = 0.3 + 0.05j
        want = np.linalg.solve(H - sigma * np.eye(len(H)), x)
        assert np.max(np.abs(chain.solver(sigma)(x) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_top_shell_coupling_is_never_dense(self, large_basis):
        # at 16,770 states a dense a_1 would be 128 x 8,256 complex (16.9 MB); the
        # peak, ~8.8 MB, is hf_diagonal's float copy of the occupation table, made
        # once per basis
        basis, _ = large_basis
        spec = _two_level(5e-3, kappa=1.0)
        basis.shells
        tracemalloc.start()
        try:
            solve = SchurChain(spec, basis, 0.2j).solver(1.0 - 1e-3j)
            x = solve(np.ones(2 * basis.dim, dtype=complex))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20 and np.all(np.isfinite(x))

    @pytest.mark.parametrize("theta", [0.0, 0.2j])
    def test_second_chain_reuses_the_basis(self, large_basis, theta):
        # the shells and field energies are kept on the basis, so a second chain
        # allocates only its theta-dependent values (w and diag: 8,385 x 2 each,
        # v: 129 x 128), not the 8.6 MB float copy of the occupation table
        basis, _ = large_basis
        spec = _two_level(5e-3, kappa=1.0)
        SchurChain(spec, basis, theta)
        tracemalloc.start()
        try:
            SchurChain(spec, basis, theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_refuses_a_complement_over_the_cap(self, monkeypatch):
        # the 650-state dilation's largest dense complement is S_1, 2 x 24 states
        D = _dense_oracle_dilation(1.5e-3, 0.2)
        monkeypatch.setattr(fock, "DEFAULT_DIM_CAP", 48)
        SchurChain(D.spec, D.basis, D.theta)
        monkeypatch.setattr(fock, "DEFAULT_DIM_CAP", 47)
        with pytest.raises(ValueError, match="dense dimension 48 exceeds the dense cap 47"):
            SchurChain(D.spec, D.basis, D.theta)


class TestGroundEnergy:
    def test_matches_exact_spectrum_on_three_levels(self):
        spec = _three_level()
        basis = build_fock_basis(build_mode_grid(8, 1.0, "geometric"), 3)
        want = exact_spectrum(build_model(spec, basis).H, 1)[0]
        assert abs(ground_energy(spec, basis) - want) <= 1e-14 * abs(want)

    def test_matches_exact_spectrum_at_4290_states_20x_faster(self):
        spec = _two_level(5e-3, kappa=1.0)
        basis = build_fock_basis(build_mode_grid(64, 1.0, "uniform"), 2)
        t0 = time.perf_counter()
        e0 = ground_energy(spec, basis)
        t1 = time.perf_counter()
        want = exact_spectrum(build_model(spec, basis).H, 1)[0]
        t2 = time.perf_counter()
        assert 2 * basis.dim == 4290
        assert abs(e0 - want) <= 1e-14 * abs(want)
        assert t2 - t1 >= 20 * (t1 - t0)

    def test_16770_states_within_two_seconds(self, large_basis):
        # over the dense cap: no LD x LD matrix (2.2 GB in float64) is made, and the
        # root lies below the n_max = 1 value (Rayleigh-Ritz) and near second order
        basis, seconds = large_basis
        spec = _two_level(5e-3, kappa=1.0)
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            e0 = ground_energy(spec, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        e1 = ground_energy(spec, build_fock_basis(basis.grid, 1))
        shift = perturbation_oracle(spec, basis.grid)["ground_shift"]
        assert seconds + time.perf_counter() - t0 <= 2.0
        assert 2 * basis.dim == 16770 and peak < 64 * 2 ** 20
        assert e0 < e1 < 0.0
        assert abs(e0 - shift) <= 1e-3 * abs(shift)

    def test_indefinite_complement_raises(self):
        # at g = 1 the eliminated shells N >= 1 reach below eps_0 = 0
        with pytest.warns(UserWarning, match="not small against the level gap"):
            spec = _two_level(1.0, kappa=1.0)
        basis = build_fock_basis(build_mode_grid(4, 1.0, "geometric"), 2)
        with pytest.raises(SolverError,
                           match=r"complement is not positive definite at sigma = 0\.0"):
            ground_energy(spec, basis)

    def test_uncoupled_model_returns_the_lowest_level(self):
        basis = build_fock_basis(build_mode_grid(4, 1.0, "geometric"), 2)
        assert ground_energy(_two_level(0.0), basis) == 0.0
        assert ground_energy(_two_level(5e-3), build_fock_basis(basis.grid, 0)) == 0.0


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
