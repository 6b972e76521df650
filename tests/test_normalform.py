"""Coupling kernels, anisotropic norms, operator assembly, basic bound."""

from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrg.fock import build_fock_basis, build_mode_grid, field_hamiltonian, ladder_matrix
from specrg.normalform import (MU, XI, CouplingFunction, NormalFormHamiltonian,
                               assemble_operator, assemble_term,
                               basic_bound_margin, coupling_norm_mu,
                               coupling_norm_mu1, default_r_grid, from_profile,
                               hamiltonian_norm, interaction_norm, interp_axis,
                               slot_masses, split, symmetrized,
                               t_slope_deviation)
from specrg.models import ModelSpec, ground_sector_hamiltonian
from specrg.rgflow import scale_coupling


def _kernel(m, n, nodes, func, r_grid=None):
    r_grid = default_r_grid() if r_grid is None else r_grid
    return from_profile(m, n, r_grid, nodes, func)


class TestCouplingFunction:
    def test_shape_validation(self):
        r = default_r_grid()
        with pytest.raises(ValueError, match="shape"):
            CouplingFunction(1, 0, r, np.array([0.5]), np.zeros((len(r), 2)))
        # np.interp and searchsorted read garbage off a grid that is not sorted
        with pytest.raises(ValueError, match="r_grid must be strictly increasing"):
            CouplingFunction(0, 0, r[::-1], np.array([0.5]), np.zeros(len(r)))
        with pytest.raises(ValueError, match="nodes must be strictly increasing"):
            CouplingFunction(1, 0, r, np.array([0.5, 0.5]), np.zeros((len(r), 2)))

    def test_at_r_reproduces_grid_points(self):
        nodes = np.array([0.3, 0.6])
        w = _kernel(1, 0, nodes, lambda r, k: np.cos(r) * k)
        sampled = w.at_r(w.r_grid)
        assert np.allclose(sampled, w.values)
        # the one off-grid rule, along every axis of a complex table, is
        # np.interp of the real and imaginary parts column by column
        rng = np.random.default_rng(3)
        grids = [np.linspace(0.0, 1.0, 6), np.array([0.1, 0.25, 0.7]), np.geomspace(0.05, 0.9, 4)]
        vals = rng.standard_normal((6, 3, 4)) + 1j * rng.standard_normal((6, 3, 4))
        for axis, xp in enumerate(grids):
            for x in (np.concatenate([xp, [xp[0] - 0.5, xp[-1] + 0.5],
                                      rng.uniform(xp[0] - 0.2, xp[-1] + 0.2, 9)]),
                      rng.uniform(-0.2, 1.2, (2, 5))):
                moved = np.moveaxis(vals, axis, -1)
                expected = np.empty(moved.shape[:-1] + x.shape, dtype=complex)
                for idx in np.ndindex(moved.shape[:-1]):
                    col = moved[idx]
                    expected[idx] = np.interp(x, xp, col.real) + 1j * np.interp(x, xp, col.imag)
                expected = np.moveaxis(expected, list(range(2, 2 + x.ndim)),
                                       list(range(axis, axis + x.ndim)))
                assert np.array_equal(interp_axis(vals, xp, x, axis), expected)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_symmetrize_is_idempotent_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        r = np.linspace(0, 1, 5)
        nodes = np.array([0.2, 0.4, 0.8])
        vals = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        w = CouplingFunction(2, 0, r, nodes, vals)
        sym = CouplingFunction(2, 0, r, nodes, symmetrized(w.values, 2, 0))
        assert sym.symmetry_deviation() < 1e-14
        assert np.allclose(symmetrized(sym.values, 2, 0), sym.values)


def _per_point(m, n, r_grid, nodes, func):
    """The table tabulated one point per call, each argument a length-1 array."""
    vals = np.empty((len(r_grid),) + (len(nodes),) * (m + n), dtype=complex)
    for idx in iproduct(range(len(nodes)), repeat=m + n):
        for i, r in enumerate(r_grid):
            args = [np.array([r])] + [np.array([nodes[j]]) for j in idx]
            vals[(i,) + idx] = np.asarray(func(*args), dtype=complex).ravel()[0]
    return vals


def _mixed_profile(r, *ks):
    out = np.exp(-r) + 0.25j * r
    for i, k in enumerate(ks):
        out = out * (1.0 + (i + 1) * k) / np.sqrt(k) - 0.1j * k * r
    return out


class TestFromProfile:
    NODES = np.geomspace(0.05, 0.5, 4)

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(4) for n in range(4 - m)])
    def test_one_mesh_call_matches_point_by_point(self, m, n):
        r_grid = default_r_grid()
        for func in (_mixed_profile, lambda r, *ks: 0.3 - 0.2j, lambda r, *ks: np.cos(r)):
            w = from_profile(m, n, r_grid, self.NODES, func)
            assert np.array_equal(w.values, _per_point(m, n, r_grid, self.NODES, func))
            assert w.values.flags.writeable

    @pytest.mark.parametrize("levels,gamma,lam", [
        ([0.0, 1.0], None, 0.0),
        ([0.0, 1.0], None, -2.5e-4),
        ([0.0, 0.8, 1.5], [[0.3, 1.0, 0.5], [1.0, -0.2, 0.7], [0.5, 0.7, 0.1]], 1.3e-3),
    ])
    def test_model_kernels_match_point_by_point(self, levels, gamma, lam):
        spec = ModelSpec(particle_levels=np.array(levels), g=4e-3, kappa=1.0,
                         gamma=None if gamma is None else np.array(gamma, dtype=complex))
        H = ground_sector_hamiltonian(spec, build_mode_grid(4, 0.5, "geometric"), lam)
        assert ((1, 0) in H.terms) == (gamma is not None)
        for w in H.terms.values():
            assert np.array_equal(w.values, _per_point(w.m, w.n, w.r_grid, w.nodes, w.profile))

    def test_profile_is_called_once_per_kernel(self):
        calls = []

        def counting(r, *ks):
            calls.append(len(ks))
            return _mixed_profile(r, *ks)

        for m, n in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            w = from_profile(m, n, default_r_grid(), self.NODES, counting)
            scale_coupling(w, 0.5)
        assert calls == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_result_that_does_not_broadcast_raises(self):
        with pytest.raises(ValueError):
            from_profile(1, 0, default_r_grid(), self.NODES, lambda r, k: np.ones(5))
        with pytest.raises(ValueError):
            from_profile(0, 1, default_r_grid(), self.NODES, lambda r, k: np.ones((2,) + r.shape))


class TestKernelNorms:
    def test_critical_power_kernel_has_unit_norm(self):
        mu = 0.5
        nodes = np.geomspace(0.01, 1.0, 7)
        w = _kernel(1, 0, nodes, lambda r, k: k ** (mu - 0.5))
        assert coupling_norm_mu(w, mu) == pytest.approx(1.0)

    def test_zero_kernel(self):
        nodes = np.array([0.2, 0.7])
        w = _kernel(1, 1, nodes, lambda r, k1, k2: 0.0)
        assert coupling_norm_mu(w, 0.5) == 0.0
        assert coupling_norm_mu1(w, 0.5) == 0.0

    def test_gaussian_1_1_kernel_against_brute_force(self):
        g, kappa, mu = 0.01, 1.0, 0.5
        nodes = np.geomspace(0.05, 1.0, 6)
        chi = lambda k: np.exp(-(k / kappa) ** 2)
        w = _kernel(1, 1, nodes, lambda r, k1, k2: g * chi(k1) * chi(k2) / np.sqrt(k1 * k2))
        # independent maximization over the discrete grid
        best = 0.0
        for i, k1 in enumerate(nodes):
            for j, k2 in enumerate(nodes):
                weight = min(k1, k2) ** (-mu) * np.sqrt(k1 * k2)
                best = max(best, weight * np.max(np.abs(w.values[:, i, j])))
        assert coupling_norm_mu(w, mu) == pytest.approx(best, rel=1e-12)

    def test_scalar_kernel_norm_is_sup(self):
        w = _kernel(0, 0, np.array([0.5]), lambda r: 3.0 - r)
        assert coupling_norm_mu(w, 0.5) == pytest.approx(3.0)


class TestHamiltonianNorm:
    def test_field_part_alone(self):
        nodes = np.array([0.25, 0.5])
        w00 = _kernel(0, 0, nodes, lambda r: r)
        H = NormalFormHamiltonian({(0, 0): w00}, np.ones(2))
        assert hamiltonian_norm(H) == pytest.approx(2.0)

    def test_zero_hamiltonian(self):
        nodes = np.array([0.25])
        w00 = _kernel(0, 0, nodes, lambda r: 0.0)
        H = NormalFormHamiltonian({(0, 0): w00}, np.ones(1))
        assert hamiltonian_norm(H) == 0.0

    def test_initial_model_norm_regression(self):
        # pinned value for the decimated two-level model at g = 1e-3
        from specrg.models import ModelSpec, ground_sector_hamiltonian
        grid = build_mode_grid(8, 0.5, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=1e-3, kappa=1.0)
        H = ground_sector_hamiltonian(spec, grid, lam=0.0)
        assert hamiltonian_norm(H) == pytest.approx(2.0005972234707374, rel=1e-9)
        assert interaction_norm(H) == pytest.approx(0.0005972057898260654, rel=1e-9)


class TestSplit:
    def test_field_hamiltonian_components(self):
        nodes = np.array([0.25, 0.5])
        H = NormalFormHamiltonian({(0, 0): _kernel(0, 0, nodes, lambda r: r)}, np.ones(2))
        E, W = split(H)
        assert E == 0.0
        assert W == {}
        assert t_slope_deviation(H) < 1e-12

    def test_shifted_field_hamiltonian(self):
        nodes = np.array([0.25])
        H = NormalFormHamiltonian({(0, 0): _kernel(0, 0, nodes, lambda r: 3.0 + r)}, np.ones(1))
        E, W = split(H)
        assert E == pytest.approx(3.0)
        assert t_slope_deviation(H) < 1e-12

    def test_interaction_norm_matches_w_part(self):
        from specrg.models import ModelSpec, ground_sector_hamiltonian
        grid = build_mode_grid(6, 0.5, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=2e-3, kappa=1.0)
        H = ground_sector_hamiltonian(spec, grid, lam=0.0)
        _, W = split(H)
        direct = sum(XI ** (-(m + n)) * coupling_norm_mu1(w, MU)
                     for (m, n), w in W.items())
        assert interaction_norm(H) == pytest.approx(direct, rel=1e-12)


class TestAssembly:
    def test_scalar_r_kernel_equals_field_hamiltonian(self):
        grid = build_mode_grid(3, 0.3, "uniform")
        basis = build_fock_basis(grid, 2)
        w00 = _kernel(0, 0, grid.nodes, lambda r: r)
        mat = assemble_term(w00, basis)
        assert np.allclose(mat, field_hamiltonian(basis))

    def test_single_mode_creation_entry(self):
        grid = build_mode_grid(1, 0.5, "uniform")
        basis = build_fock_basis(grid, 1)
        c = 0.7
        w10 = _kernel(1, 0, grid.nodes, lambda r, k: c)
        mat = assemble_term(w10, basis)
        root_mass = np.sqrt(slot_masses(basis.grid)[0])
        expected = np.zeros((2, 2), dtype=complex)
        expected[basis.state_index([1]), basis.state_index([0])] = root_mass * c
        assert np.allclose(mat, expected)

    def test_conjugate_symmetric_terms_assemble_hermitian(self):
        rng = np.random.default_rng(3)
        grid = build_mode_grid(3, 0.4, "geometric")
        basis = build_fock_basis(grid, 2)
        r = default_r_grid()
        shape10 = (len(r), 3)
        v10 = rng.standard_normal(shape10) + 1j * rng.standard_normal(shape10)
        w10 = CouplingFunction(1, 0, r, grid.nodes, v10)
        w01 = CouplingFunction(0, 1, r, grid.nodes, v10.conj())
        v11 = rng.standard_normal((len(r), 3, 3))
        v11 = v11 + np.swapaxes(v11, 1, 2)  # real symmetric kernel
        w11 = CouplingFunction(1, 1, r, grid.nodes, v11.astype(complex))
        w00 = _kernel(0, 0, grid.nodes, lambda rr: rr)
        H = NormalFormHamiltonian({(0, 0): w00, (1, 0): w10, (0, 1): w01, (1, 1): w11},
                                  slot_masses(grid))
        mat = assemble_operator(H, basis).mat
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    @pytest.mark.parametrize("m, n", [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)])
    def test_matches_ladder_matrix_products(self, m, n):
        # W = sum_{I,J} prod sqrt(mass) a*_I diag(w(H_f; I, J)) a_J from dense
        # ladder matrices; with n_max = m + n the truncation shell is in range,
        # so the hard cutoff is compared too
        rng = np.random.default_rng(10 * m + n)
        grid = build_mode_grid(3, 0.4, "geometric")
        basis = build_fock_basis(grid, m + n)
        r = default_r_grid()
        shape = (len(r),) + (3,) * (m + n)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = CouplingFunction(m, n, r, grid.nodes, vals)
        create = [ladder_matrix(basis, k, "create") for k in range(3)]
        annihilate = [ladder_matrix(basis, k, "annihilate") for k in range(3)]
        root_mass = np.sqrt(slot_masses(basis.grid))
        kern = w.at_r(basis.hf_diagonal())
        expected = np.zeros((basis.dim, basis.dim), dtype=complex)
        for I in iproduct(range(3), repeat=m):
            for J in iproduct(range(3), repeat=n):
                op = np.diag(kern[(slice(None),) + I + J]) * np.prod(root_mass[list(I + J)])
                for i in I:
                    op = create[i] @ op
                for j in J:
                    op = op @ annihilate[j]
                expected += op
        dev = np.max(np.abs(assemble_term(w, basis) - expected))
        assert dev <= 1e-14 * np.max(np.abs(expected))

    def test_field_energies_above_the_grid_warn(self):
        # n_max * k_max > 1: the top shell reads the kernel clamped at r = 1
        grid = build_mode_grid(2, 0.8, "uniform")
        basis = build_fock_basis(grid, 2)
        w = _kernel(1, 1, grid.nodes, lambda r, k1, k2: 1.0 + r)
        with pytest.warns(UserWarning, match="clamped"):
            assemble_term(w, basis)

    def test_kernel_grid_mismatch_raises(self):
        grid = build_mode_grid(2, 0.4, "uniform")
        other = build_mode_grid(2, 0.8, "uniform")
        basis = build_fock_basis(grid, 1)
        w = _kernel(1, 0, other.nodes, lambda r, k: 1.0)
        with pytest.raises(ValueError, match="nodes"):
            assemble_term(w, basis)


class TestBasicBound:
    def test_zero_kernel(self):
        grid = build_mode_grid(3, 0.4, "uniform")
        basis = build_fock_basis(grid, 2)
        w = _kernel(1, 0, grid.nodes, lambda r, k: 0.0)
        lhs, rhs = basic_bound_margin(w, 0.5, 0.5, basis)
        assert lhs == 0.0 and rhs == 0.0

    def test_gaussian_1_1_kernel(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        basis = build_fock_basis(grid, 2)
        chi = lambda k: np.exp(-k ** 2)
        w = _kernel(1, 1, grid.nodes, lambda r, k1, k2: chi(k1) * chi(k2) / np.sqrt(k1 * k2))
        lhs, rhs = basic_bound_margin(w, 0.5, 0.5, basis)
        assert lhs <= rhs * (1.0 + 1e-9)

    def test_scalar_kernel_rejected(self):
        grid = build_mode_grid(2, 0.4, "uniform")
        basis = build_fock_basis(grid, 1)
        w = _kernel(0, 0, grid.nodes, lambda r: r)
        with pytest.raises(ValueError):
            basic_bound_margin(w, 0.5, 0.5, basis)
