"""Matter-field models, dilation, change of coupling, fiber Hamiltonians."""

import numpy as np
import pytest

from specrg.fock import build_fock_basis, build_mode_grid, field_hamiltonian, ladder_matrix
from specrg.models import (ModelSpec, build_model, complex_dilate, dilated_grid,
                           fiber_hamiltonian, form_factor, field_operator,
                           ground_sector_hamiltonian, infrared_exponent,
                           mass_renormalization, pauli_fierz_transform,
                           pf_coupling, pf_gauge_function)
from specrg.normalform import assemble_operator, slot_masses


def _two_level(g, kappa=1.0):
    return ModelSpec(particle_levels=np.array([0.0, 1.0]), g=g, kappa=kappa)


class TestModelSpec:
    def test_levels_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            ModelSpec(particle_levels=np.array([0.0, 0.0]), g=0.0, kappa=1.0)

    def test_gamma_must_be_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ModelSpec(particle_levels=np.array([0.0, 1.0]), g=0.0, kappa=1.0,
                      gamma=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_cutoff_normalization_checked(self):
        with pytest.raises(ValueError, match="chi"):
            ModelSpec(particle_levels=np.array([0.0]), g=0.0, kappa=1.0,
                      cutoff=lambda k: 0.5 * np.exp(-np.asarray(k) ** 2))

    def test_large_coupling_warns(self):
        with pytest.warns(UserWarning, match="not small"):
            _two_level(0.5)

    def test_level_gap(self):
        assert _two_level(0.0).level_gap == 1.0
        one = ModelSpec(particle_levels=np.array([0.0]), g=0.0, kappa=1.0)
        assert one.level_gap == np.inf


class TestBuildModel:
    def test_uncoupled_spectrum_is_tensor_sum(self):
        spec = _two_level(0.0)
        basis = build_fock_basis(build_mode_grid(2, 0.5, "uniform"), 2)
        model = build_model(spec, basis)
        vals = np.sort(np.linalg.eigvalsh(model.H))
        hf = basis.hf_diagonal()
        expected = np.sort(np.concatenate([hf + e for e in spec.particle_levels]))
        assert np.allclose(vals, expected, atol=1e-12)

    def test_uncoupled_ground_state(self):
        spec = _two_level(0.0)
        basis = build_fock_basis(build_mode_grid(2, 0.5, "uniform"), 1)
        model = build_model(spec, basis)
        vals, vecs = np.linalg.eigh(model.H)
        assert vals[0] == pytest.approx(0.0, abs=1e-14)
        ground = vecs[:, 0]
        assert abs(abs(ground[0]) - 1.0) < 1e-12  # level 0 tensor vacuum

    def test_assembled_dimension_and_hermiticity(self):
        spec = _two_level(1e-2)
        basis = build_fock_basis(build_mode_grid(2, 0.5, "uniform"), 2)
        model = build_model(spec, basis)
        assert model.H.shape == (2 * basis.dim, 2 * basis.dim)
        assert np.max(np.abs(model.H - model.H.conj().T)) < 1e-12

    def test_ground_energy_below_particle_level(self):
        spec = _two_level(5e-3)
        basis = build_fock_basis(build_mode_grid(6, 0.5, "geometric"), 2)
        model = build_model(spec, basis)
        e0 = np.min(np.linalg.eigvalsh(model.H))
        assert e0 < 0.0

    def test_field_operator_matches_ladder_matrices(self):
        basis = build_fock_basis(build_mode_grid(4, 0.5, "geometric"), 3)
        fvals = np.exp(1j * np.arange(4)) * np.array([1.0, -0.5, 2.0, 0.25])
        coef = np.sqrt(slot_masses(basis.grid)) * fvals
        expected = np.zeros((basis.dim, basis.dim), dtype=complex)
        for a in range(basis.n_modes):
            am = ladder_matrix(basis, a, "annihilate")
            expected += coef[a] * am.conj().T + np.conj(coef[a]) * am
        assert np.array_equal(field_operator(_two_level(1e-3), basis, fvals=fvals), expected)


class TestComplexDilation:
    def test_real_theta_is_isospectral_to_covariant_discretization(self):
        # on a fixed grid a real dilation is realized by rescaling the grid
        # itself, so the similarity partner is the model rebuilt on the
        # rescaled grid, not the model on the original grid
        spec = _two_level(5e-3)
        grid = build_mode_grid(6, 1.0, "uniform")
        basis = build_fock_basis(grid, 1)
        D = complex_dilate(spec, basis, 0.15 + 0j)
        covariant = build_model(spec, build_fock_basis(dilated_grid(grid, 0.15), 1))
        a = np.sort(np.linalg.eigvalsh(covariant.H))
        b = np.sort(np.linalg.eigvals(D.H).real)
        assert np.allclose(a, b, atol=1e-10)

    def test_real_theta_equals_covariant_grid_model(self):
        spec = _two_level(5e-3)
        grid = build_mode_grid(6, 1.0, "uniform")
        basis = build_fock_basis(grid, 1)
        D = complex_dilate(spec, basis, 0.15 + 0j)
        covariant = build_model(spec, build_fock_basis(dilated_grid(grid, 0.15), 1))
        assert np.max(np.abs(D.H - covariant.H)) < 1e-12

    def test_uncoupled_continuum_rotates(self):
        spec = _two_level(0.0)
        grid = build_mode_grid(4, 1.0, "uniform")
        basis = build_fock_basis(grid, 1)
        theta = 0.2j
        D = complex_dilate(spec, basis, theta)
        vals = np.linalg.eigvals(D.H)
        expected = np.concatenate([
            e + np.exp(-theta) * np.concatenate(([0.0], grid.nodes))
            for e in spec.particle_levels])
        assert np.allclose(np.sort_complex(vals), np.sort_complex(expected), atol=1e-12)

    def test_angle_range_enforced(self):
        spec = _two_level(0.0)
        basis = build_fock_basis(build_mode_grid(2, 1.0, "uniform"), 1)
        with pytest.raises(ValueError, match="pi"):
            complex_dilate(spec, basis, 1j)


class TestGroundSectorHamiltonian:
    def test_kernel_zero_locates_exact_ground_energy(self):
        spec = _two_level(5e-3)
        grid = build_mode_grid(8, 0.5, "geometric")
        basis = build_fock_basis(grid, 2)
        model = build_model(spec, basis)
        e0 = float(np.min(np.linalg.eigvalsh(model.H)))
        H = ground_sector_hamiltonian(spec, grid, lam=e0)
        F = assemble_operator(H, basis)
        vals = np.linalg.eigvals(F.mat)
        # the decimated operator at the true energy must be singular up to
        # the fourth-order error of the construction
        assert np.min(np.abs(vals)) < 10.0 * spec.g ** 4

    def test_initial_polydisc_membership(self):
        from specrg._calibration import C_INIT
        from specrg.normalform import interaction_norm, split, t_slope_deviation
        rho, mu = 0.5, 0.5
        grid = build_mode_grid(8, 0.5, "geometric")
        for g in (1e-3, 5e-3):
            spec = _two_level(g)
            H = ground_sector_hamiltonian(spec, grid, lam=0.0)
            E, _ = split(H)
            assert abs(E) <= C_INIT * g * g * rho ** (mu - 2.0)
            assert t_slope_deviation(H) <= C_INIT * g * g * rho ** (mu - 1.0)
            assert interaction_norm(H) <= C_INIT * g * rho ** mu

    def test_spectral_parameter_above_other_levels_rejected(self):
        spec = _two_level(1e-3)
        grid = build_mode_grid(4, 0.5, "geometric")
        with pytest.raises(ValueError):
            ground_sector_hamiltonian(spec, grid, lam=1.5)


class TestPauliFierz:
    def test_gauge_function_vanishes_at_origin_for_identity_profile(self):
        spec = _two_level(1e-3)
        k = np.geomspace(1e-6, 1.0, 20)
        assert np.max(np.abs(pf_gauge_function(spec, 0.0, k))) == 0.0

    def test_transformed_coupling_vanishes_at_origin(self):
        spec = _two_level(1e-3)
        k = np.geomspace(1e-6, 1.0, 20)
        assert np.max(np.abs(pf_coupling(spec, 0.0, k))) < 1e-10

    def test_infrared_exponents_improve(self):
        spec = _two_level(1e-3)
        rep = pauli_fierz_transform(spec, np.linspace(-2.0, 2.0, 9))
        assert np.all(rep["exponents"] >= 0.5)
        assert rep["untransformed_exponent"] == pytest.approx(-0.5, abs=1e-6)

    def test_bounded_profile_gives_finite_constant(self):
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=1e-3, kappa=1.0,
                         phi_profile=np.tanh)
        rep = pauli_fierz_transform(spec, np.linspace(-3.0, 3.0, 13))
        assert np.isfinite(rep["bound_constant"])
        envelope_ok = rep["bound_constant"] > 0.0
        assert envelope_ok

    def test_infrared_exponent_fit(self):
        k = np.geomspace(1e-5, 1e-1, 12)
        assert infrared_exponent(k, k ** 1.5) == pytest.approx(1.5, abs=1e-9)


class TestFiberAndMass:
    def _basis(self):
        return build_fock_basis(build_mode_grid(8, 1.0, "geometric"), 2)

    def test_free_dispersion_at_zero_coupling(self):
        basis = self._basis()
        spec = ModelSpec(particle_levels=np.array([0.0]), g=0.0, kappa=1.0)
        for P in (0.0, 0.1, 0.25):
            H = fiber_hamiltonian(spec, basis, P)
            e0 = np.min(np.linalg.eigvalsh(H))
            assert e0 == pytest.approx(P ** 2 / 2.0, abs=1e-13)

    def test_coupling_flattens_dispersion(self):
        # the field dresses the particle: the quadratic coefficient of
        # E(P) - E(0) shrinks, equivalently the fitted mass grows.  A raw
        # comparison of E(P) at one momentum is not a clean probe because the
        # coupling also adds a positive zero point shift and a quartic term.
        basis = self._basis()
        coupled = ModelSpec(particle_levels=np.array([0.0]), g=1e-2, kappa=1.0)
        fit = mass_renormalization(coupled, basis, np.linspace(-0.2, 0.2, 7))
        assert fit["m_ren"] > 1.0
        e_zero = np.min(np.linalg.eigvalsh(fiber_hamiltonian(coupled, basis, 0.0)))
        assert e_zero > 0.0

    def test_mass_unrenormalized_at_zero_coupling(self):
        basis = self._basis()
        spec = ModelSpec(particle_levels=np.array([0.0]), g=0.0, kappa=1.0, mass=1.0)
        fit = mass_renormalization(spec, basis, np.linspace(-0.2, 0.2, 7))
        assert fit["m_ren"] == pytest.approx(1.0, abs=1e-12)
        assert fit["residual"] < 1e-12

    def test_momentum_window_enforced(self):
        basis = self._basis()
        spec = ModelSpec(particle_levels=np.array([0.0]), g=0.0, kappa=1.0)
        with pytest.raises(ValueError, match="1/3"):
            mass_renormalization(spec, basis, np.linspace(-0.5, 0.5, 7))


class TestFormFactor:
    def test_infrared_singularity(self):
        spec = _two_level(1e-3)
        k = np.array([1e-6, 1e-4])
        f = form_factor(spec, k)
        assert np.allclose(np.abs(f), 1.0 / np.sqrt(k), rtol=1e-3)

    def test_field_operator_is_hermitian(self):
        spec = _two_level(1e-3)
        basis = build_fock_basis(build_mode_grid(3, 0.5, "uniform"), 2)
        phi = field_operator(spec, basis)
        assert np.max(np.abs(phi - phi.conj().T)) < 1e-13
