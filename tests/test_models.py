"""Matter-field models, dilation, change of coupling, fiber Hamiltonians."""

import tracemalloc

import numpy as np
import pytest

from specrg.fock import build_fock_basis, build_mode_grid, field_hamiltonian, ladder_matrix
from specrg.models import (ModelSpec, build_model, complex_dilate, dilated_grid,
                           fiber_hamiltonian, form_factor, field_operator,
                           ground_sector_hamiltonian, infrared_exponent,
                           mass_renormalization, pauli_fierz_transform,
                           pf_coupling)
from specrg import models
from specrg.normalform import R_GRID, assemble_operator, slot_masses


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

    @pytest.mark.parametrize("field", ["cutoff", "phi_profile"])
    def test_form_factor_and_profile_are_not_settable(self, field):
        # the form factor is exp(-(k/kappa)^2) and the Pauli-Fierz profile phi(s) = s
        with pytest.raises(TypeError):
            ModelSpec(particle_levels=np.array([0.0]), g=0.0, kappa=1.0, **{field: np.tanh})

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
            am = ladder_matrix(basis, a)
            expected += coef[a] * (am.conj().T + am)
        assert np.array_equal(field_operator(_two_level(1e-3), basis, fvals=fvals), expected)

    @pytest.mark.parametrize("theta", [None, 0.2j], ids=["form-factor", "dilated"])
    def test_field_operator_entries_at_model_couplings(self, theta):
        # Phi(f) = sum_a coef_a (a*_a + a_a) with coef = sqrt(mass) f, at the
        # form factor and at the f_theta that complex_dilate reads
        spec = _two_level(1e-3)
        basis = build_fock_basis(build_mode_grid(6, 0.5, "geometric"), 2)
        k = basis.grid.nodes
        if theta is None:
            fvals = form_factor(spec, k)
        else:
            fvals = (np.exp(-1.5 * theta) * np.asarray(spec.cutoff(np.exp(-theta) * k),
                                                       dtype=complex) / np.sqrt(np.exp(-theta) * k))
            assert np.array_equal(form_factor(spec, k, theta), fvals)
        coef = np.sqrt(slot_masses(basis.grid)) * fvals
        expected = np.zeros((basis.dim, basis.dim), dtype=complex)
        for a in range(basis.n_modes):
            expected += coef[a] * ladder_matrix(basis, a).T
            expected += coef[a] * ladder_matrix(basis, a)
        phi = field_operator(spec, basis, fvals=None if theta is None else fvals)
        assert np.array_equal(phi, expected)


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

    @pytest.mark.parametrize("theta", [0.2j, 0.1 + 0.15j])
    def test_dilated_matrix_is_analytic_in_theta(self, theta):
        # Cauchy-Riemann: the central differences along theta +- h and
        # theta +- ih give one derivative
        spec = _two_level(5e-3)
        basis = build_fock_basis(build_mode_grid(4, 0.5, "geometric"), 2)
        h = 1e-6

        def derivative(step):
            return (complex_dilate(spec, basis, theta + step).H
                    - complex_dilate(spec, basis, theta - step).H) / (2.0 * step)

        along_re, along_im = derivative(h), derivative(1j * h)
        assert np.max(np.abs(along_re)) > 0.1
        assert np.max(np.abs(along_re - along_im)) < 1e-7

    @pytest.mark.parametrize("theta", [0.0, 0.2j, 0.1 + 0.15j])
    @pytest.mark.parametrize("levels, gamma", [
        ([0.0, 1.0], None),
        ([0.0, 0.8, 1.5], [[0.3, 1.0 - 0.5j, 0.5j], [1.0 + 0.5j, -0.2, 0.7], [-0.5j, 0.7, 0.1]])])
    def test_blocks_equal_the_kronecker_formula(self, levels, gamma, theta):
        spec = ModelSpec(particle_levels=np.array(levels), g=5e-3, kappa=1.0,
                         gamma=None if gamma is None else np.array(gamma))
        basis = build_fock_basis(build_mode_grid(8, 0.5, "geometric"), 2)
        phi = field_operator(spec, basis, fvals=form_factor(spec, basis.grid.nodes, theta))
        kron = (np.kron(np.diag(spec.particle_levels), np.eye(basis.dim))
                + np.exp(-theta) * np.kron(np.eye(spec.n_levels), field_hamiltonian(basis))
                + spec.g * np.kron(spec.gamma, phi))
        H = complex_dilate(spec, basis, theta).H
        assert H.dtype == kron.dtype and np.array_equal(H, kron)

    def test_dilation_holds_no_copy_of_its_own_size(self):
        # the dense oracle's 650-state dilation: H and Phi(f_theta), a quarter of
        # H on two levels, and no (L D)^2 intermediate
        spec = _two_level(1.5e-3, kappa=2.0)
        basis = build_fock_basis(build_mode_grid(24, 2.0, "uniform"), 2)
        tracemalloc.start()
        try:
            H = complex_dilate(spec, basis, 0.2j).H
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * H.nbytes

    def test_angle_range_enforced(self):
        spec = _two_level(0.0)
        basis = build_fock_basis(build_mode_grid(2, 1.0, "uniform"), 1)
        with pytest.raises(ValueError, match="pi"):
            complex_dilate(spec, basis, 1j)


# levels, Gamma (None: the default unit off-diagonal matrix) and lam of the
# builder checks; "diagonal-coupling" has Gamma_00 != 0, "van-hove" couples
# level 0 only to itself
SECTOR_MODELS = {
    "two-level": ([0.0, 1.0], None, 0.0),
    "two-level-below": ([0.0, 1.0], None, -2.5e-4),
    "diagonal-coupling": ([0.0, 0.8, 1.5], [[0.3, 1.0, 0.5], [1.0, -0.2, 0.7], [0.5, 0.7, 0.1]],
                          1.3e-3),
    "van-hove": ([0.0], [[1.0]], 0.0),
}


def _sector_spec(name, g):
    levels, gamma, _ = SECTOR_MODELS[name]
    return ModelSpec(particle_levels=np.array(levels), g=g, kappa=1.0,
                     gamma=None if gamma is None else np.array(gamma, dtype=complex))


def _closed_form_schur(spec, grid, lam):
    """The second-order Schur kernels written out, R_l(x) = 1/(eps_l - lam + x):

      w00(r)       = eps_0 - lam + r - g^2 sum_l |G_0l|^2 sum_a mass_a f_a^2 R_l(r + k_a)
      w11(r; b; a) = -g^2 sum_l |G_0l|^2 f_b f_a [R_l(r) + R_l(r + k_a + k_b)]
      w20(r; a, b) = -g^2 sum_l |G_0l|^2 f_a f_b [R_l(r + k_a) + R_l(r + k_b)] / 2 = w02

    over the levels l >= 1 with G_0l != 0, which exist iff w11, w20 and w02
    do, and g Gamma_00 f in (1,0)/(0,1) iff Gamma_00 != 0; f = chi(k)/sqrt(k).
    """
    eps, g, k = spec.particle_levels, spec.g, grid.nodes
    f = spec.cutoff(k) / np.sqrt(k)
    weight = np.abs(spec.gamma[0]) ** 2
    coupled = [l for l in range(1, spec.n_levels) if weight[l] != 0.0]
    r = R_GRID[:, np.newaxis, np.newaxis]
    kb, ka = k[:, np.newaxis], k

    def res(l, x):
        return 1.0 / (eps[l] - lam + x)

    ref = {(0, 0): eps[0] - lam + R_GRID}
    for l in coupled:
        ref[(0, 0)] = ref[(0, 0)] - g * g * weight[l] * np.sum(
            slot_masses(grid) * f ** 2 * res(l, R_GRID[:, np.newaxis] + k), axis=-1)
        ref[(1, 1)] = ref.get((1, 1), 0.0) - g * g * weight[l] * np.outer(f, f) * (
            res(l, r) + res(l, r + ka + kb))
        ref[(2, 0)] = ref.get((2, 0), 0.0) - g * g * weight[l] * np.outer(f, f) * 0.5 * (
            res(l, r + ka) + res(l, r + kb))
    if coupled:
        ref[(0, 2)] = ref[(2, 0)]
    if abs(spec.gamma[0, 0]) > 0:
        ref[(1, 0)] = ref[(0, 1)] = g * spec.gamma[0, 0].real * f * np.ones((len(R_GRID), 1))
    return ref


def _kernel_zero_residual(spec, k_max):
    """min |eig| of the assembled sector operator at the dense ground energy e0,
    on 8 geometric modes; n_max k_max = 1 keeps every field energy the kernels
    are read at in I."""
    grid = build_mode_grid(8, k_max, "geometric")
    basis = build_fock_basis(grid, round(1.0 / k_max))
    e0 = float(np.min(np.linalg.eigvalsh(build_model(spec, basis).H)))
    F = assemble_operator(ground_sector_hamiltonian(spec, grid, lam=e0), basis)
    return np.min(np.abs(np.linalg.eigvals(F.mat)))


class TestGroundSectorHamiltonian:
    @pytest.mark.parametrize("k_max", [0.5, 1.0])
    @pytest.mark.parametrize("name", list(SECTOR_MODELS))
    def test_kernels_match_closed_form_schur(self, name, k_max):
        spec, lam = _sector_spec(name, 4e-3), SECTOR_MODELS[name][2]
        grid = build_mode_grid(8, k_max, "geometric")
        H = ground_sector_hamiltonian(spec, grid, lam)
        ref = _closed_form_schur(spec, grid, lam)
        assert H.terms.keys() == ref.keys()
        for key, vals in ref.items():
            err = np.max(np.abs(H.terms[key].expanded() - vals))
            assert err <= 1e-15 * np.max(np.abs(vals)), key

    def test_kernel_zero_locates_exact_ground_energy(self):
        # the decimated operator at the true energy must be singular up to
        # the fourth-order error of the construction
        spec = _two_level(5e-3)
        assert _kernel_zero_residual(spec, 0.5) < 10.0 * spec.g ** 4

    @pytest.mark.parametrize("k_max", [0.5, 1.0])
    @pytest.mark.parametrize("spec", [
        ModelSpec(particle_levels=np.array([0.0, 1.0, 1.5]), g=5e-3, kappa=1.0),
        _sector_spec("diagonal-coupling", 5e-3),
    ], ids=["three-level", "diagonal-coupling"])
    def test_kernel_zero_locates_exact_ground_energy_of_more_levels(self, spec, k_max):
        assert _kernel_zero_residual(spec, k_max) < 10.0 * spec.g ** 4

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

    @pytest.mark.parametrize("name", ["two-level", "diagonal-coupling", "van-hove"])
    def test_array_lam_builds_the_stacked_family(self, name):
        # one build at an array lam is the scalar builds stacked on a member axis, bit for
        # bit: values and r-derivatives, on 2 and 3 levels and with Gamma_00 != 0
        spec, lam = _sector_spec(name, 4e-3), SECTOR_MODELS[name][2]
        grid = build_mode_grid(8, 1.0, "geometric")
        lams = lam + np.array([-2e-3, -5e-4, 5e-4, 2e-3])
        family = ground_sector_hamiltonian(spec, grid, lams)
        singles = [ground_sector_hamiltonian(spec, grid, float(x)) for x in lams]
        assert family.terms.keys() == singles[0].terms.keys()
        for key, w in family.terms.items():
            assert w.family == (len(lams),), key
            for member, single in enumerate(singles):
                ref = single.terms[key]
                assert w.values.dtype == ref.values.dtype, key
                assert w.values[member].tobytes() == ref.values.tobytes(), (key, member)
                assert w.dr_values[member].tobytes() == ref.dr_values.tobytes(), (key, member)

    def test_spectral_parameter_above_other_levels_rejected(self):
        spec = _two_level(1e-3)
        grid = build_mode_grid(4, 0.5, "geometric")
        with pytest.raises(ValueError):
            ground_sector_hamiltonian(spec, grid, lam=1.5)
        with pytest.raises(ValueError):  # one member above is enough
            ground_sector_hamiltonian(spec, grid, lam=np.array([0.0, 1.5]))


class TestPauliFierz:
    def test_transformed_coupling_vanishes_at_origin(self):
        k = np.geomspace(1e-6, 1.0, 20)
        assert np.max(np.abs(pf_coupling(0.0, k))) < 1e-10

    def test_infrared_exponents_improve(self):
        spec = _two_level(1e-3)
        rep = pauli_fierz_transform(spec, np.linspace(-2.0, 2.0, 9))
        assert np.all(rep["exponents"] >= 0.5)
        assert rep["untransformed_exponent"] == pytest.approx(-0.5, abs=1e-6)

    def test_transformed_coupling_is_its_closed_form(self):
        # phi(s) = s gives phi_x(k) = i k x e^{-ikx}, evaluated as written
        k = np.geomspace(1e-6, 1.0, 32)
        for x in (-1.5, 0.5, 2):
            want = 1j * k * x * np.exp(-1j * k * x)
            assert pf_coupling(x, k).tobytes() == want.tobytes(), x

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

    def test_fiber_parts_are_real_and_small(self):
        # dense-oracle's 455-state mass basis: B = H_f + g Phi is written in float64,
        # equal to the complex Phi's real part, with no complex or dense H_f copy
        basis = build_fock_basis(build_mode_grid(12, 1.0 / 3.0, "geometric"), 3)
        spec = ModelSpec(particle_levels=np.array([0.0]), g=0.05, kappa=1.0)
        tracemalloc.start()
        try:
            B, K = models._fiber_parts(spec, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert basis.dim == 455 and B.dtype == K.dtype == float
        assert peak <= 4.5e6
        hf = field_hamiltonian(basis)
        assert np.array_equal(B, (hf + spec.g * field_operator(spec, basis)).real)
        assert np.array_equal(K, B @ B / (2.0 * spec.mass) + hf)

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


class TestRefusals:
    """Each refusal of ModelSpec and the mass fit, and the fiber's |P| warning,
    with its message."""

    @staticmethod
    def _spec(**kwargs):
        return ModelSpec(**{"particle_levels": np.array([0.0, 1.0]), "g": 1e-3, "kappa": 1.0,
                            **kwargs})

    @pytest.mark.parametrize("call, kind, message", [
        (lambda s, b: s(particle_levels=np.array([])), ValueError,
         "particle_levels must be a nonempty 1-d array"),
        (lambda s, b: s(particle_levels=np.zeros((2, 1))), ValueError,
         "particle_levels must be a nonempty 1-d array"),
        (lambda s, b: s(g=-1e-3), ValueError, "g must be nonnegative"),
        (lambda s, b: s(kappa=0.0), ValueError, "kappa must be positive"),
        (lambda s, b: s(mass=0.0), ValueError, "mass must be positive"),
        (lambda s, b: s(gamma=np.zeros((3, 3))), ValueError, "gamma must be L x L"),
        (lambda s, b: mass_renormalization(s(), b, [-0.1, 0.0, 0.1]), ValueError,
         "p_grid needs at least 4 points for the cubic fit"),
        # at mass 0.05 the one-photon branch (P - k)^2 / 2m + k crosses below
        # P^2 / 2m inside |P| <= 0.2, so E(P) has kinks that no cubic fits
        (lambda s, b: mass_renormalization(s(particle_levels=np.array([0.0]), g=0.0, mass=0.05),
                                           b, np.linspace(-0.2, 0.2, 7)), ValueError,
         r"fiber energy fit is ill conditioned \(residual 9\.52\de-03\)"),
        (lambda s, b: fiber_hamiltonian(s(), b, 1.0 / 3.0), UserWarning,
         r"\|P\| = 0\.333333\d* outside the controlled range \|P\| < 1/3")],
        ids=["levels-empty", "levels-2d", "g-negative", "kappa-0", "mass-0", "gamma-shape",
             "p_grid-short", "fit-ill-conditioned", "fiber-P"])
    def test_refusal(self, call, kind, message):
        basis = build_fock_basis(build_mode_grid(2, 0.4, "uniform"), 1)
        check = pytest.warns if issubclass(kind, Warning) else pytest.raises
        with check(kind, match=message):
            call(self._spec, basis)
