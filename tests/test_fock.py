"""Mode grids, truncated Fock bases, ladder operators, pull-through."""

from itertools import product as iproduct
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrg.fock import (FockBasis, OperatorMatrix, build_fock_basis,
                         build_mode_grid, field_hamiltonian, ladder_matrix,
                         pull_through_check)


class TestModeGrid:
    def test_single_uniform_cell_is_midpoint_rule(self):
        grid = build_mode_grid(1, 1.0, "uniform")
        assert grid.nodes == pytest.approx([0.5])
        assert grid.weights == pytest.approx([4.0 * np.pi / 3.0])

    def test_geometric_nodes_form_ratio_two_sequence(self):
        grid = build_mode_grid(4, 1.0, "geometric")
        ratios = grid.nodes[1:] / grid.nodes[:-1]
        assert ratios == pytest.approx(np.full(3, 2.0))
        assert np.all(grid.weights > 0)

    def test_uniform_weight_sum_approximates_ball_volume(self):
        grid = build_mode_grid(64, 1.0, "uniform")
        ball = 4.0 * np.pi / 3.0
        assert abs(grid.weights.sum() - ball) / ball < 1e-3

    def test_geometric_weight_sum_is_exact_ball_volume(self):
        # cell volumes telescope regardless of the edge placement
        grid = build_mode_grid(6, 0.5, "geometric")
        assert grid.weights.sum() == pytest.approx(4.0 * np.pi / 3.0 * 0.5 ** 3)

    @pytest.mark.parametrize("bad", [
        dict(n_modes=0, k_max=1.0), dict(n_modes=3, k_max=0.0),
        dict(n_modes=3, k_max=-1.0),
    ])
    def test_invalid_arguments_raise(self, bad):
        with pytest.raises(ValueError):
            build_mode_grid(bad["n_modes"], bad["k_max"])

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError):
            build_mode_grid(4, 1.0, "chebyshev")


class TestFockBasis:
    def test_vacuum_only(self):
        grid = build_mode_grid(2, 1.0, "uniform")
        basis = build_fock_basis(grid, 0)
        assert basis.dim == 1
        assert np.array_equal(basis.states, [[0, 0]])

    def test_two_modes_two_quanta(self):
        grid = build_mode_grid(2, 1.0, "uniform")
        assert build_fock_basis(grid, 2).dim == 6

    def test_enumeration_matches_brute_force(self):
        # independent count: all occupation tuples with total <= n_max
        grid = build_mode_grid(3, 1.0, "uniform")
        basis = build_fock_basis(grid, 3)
        brute = {occ for occ in iproduct(range(4), repeat=3) if sum(occ) <= 3}
        assert basis.dim == 20
        assert {tuple(s) for s in basis.states} == brute

    def test_dimension_cap_enforced(self):
        grid = build_mode_grid(30, 1.0, "uniform")
        with pytest.raises(ValueError, match="cap"):
            build_fock_basis(grid, 4)

    def test_state_index_inverts_enumeration(self):
        grid = build_mode_grid(3, 1.0, "geometric")
        basis = build_fock_basis(grid, 2)
        for i, s in enumerate(basis.states):
            assert basis.state_index(s) == i


class TestLadderOperators:
    def test_annihilate_vacuum_is_zero(self):
        grid = build_mode_grid(2, 1.0, "uniform")
        basis = build_fock_basis(grid, 2)
        a = ladder_matrix(basis, 0, "annihilate")
        vac = np.zeros(basis.dim)
        vac[0] = 1.0
        assert np.linalg.norm(a @ vac) == 0.0

    def test_create_on_single_quantum(self):
        grid = build_mode_grid(1, 1.0, "uniform")
        basis = build_fock_basis(grid, 2)
        c = ladder_matrix(basis, 0, "create")
        one = np.zeros(3)
        one[basis.state_index([1])] = 1.0
        out = c @ one
        expected = np.zeros(3)
        expected[basis.state_index([2])] = np.sqrt(2.0)
        assert out == pytest.approx(expected)

    def test_create_out_of_truncated_sector_vanishes(self):
        grid = build_mode_grid(1, 1.0, "uniform")
        basis = build_fock_basis(grid, 1)
        c = ladder_matrix(basis, 0, "create")
        top = np.zeros(2)
        top[basis.state_index([1])] = 1.0
        assert np.linalg.norm(c @ top) == 0.0

    def test_ccr_on_safe_subspace(self):
        grid = build_mode_grid(3, 1.0, "geometric")
        basis = build_fock_basis(grid, 3)
        safe = basis.safe_mask()
        for i in range(3):
            for j in range(3):
                a = ladder_matrix(basis, i, "annihilate")
                c = ladder_matrix(basis, j, "create")
                comm = a @ c - c @ a
                expect = (1.0 if i == j else 0.0) * np.eye(basis.dim)
                dev = np.max(np.abs((comm - expect)[:, safe]))
                assert dev < 1e-12

    def test_many_modes_single_quantum(self):
        # 100 modes at n_max = 1: a mixed-radix key (n_max + 1)^n_modes would
        # overflow any fixed-width integer
        basis = build_fock_basis(build_mode_grid(100, 1.0, "uniform"), 1)
        a = ladder_matrix(basis, 99, "annihilate")
        assert a[0, basis.state_index([0] * 99 + [1])] == 1.0
        assert np.count_nonzero(a) == 1

    def test_number_operator_diagonal(self):
        grid = build_mode_grid(2, 1.0, "uniform")
        basis = build_fock_basis(grid, 2)
        for mode in range(2):
            a = ladder_matrix(basis, mode, "annihilate")
            num = a.conj().T @ a
            assert np.diag(num).real == pytest.approx(basis.states[:, mode])

    def test_mode_out_of_range(self):
        grid = build_mode_grid(2, 1.0, "uniform")
        basis = build_fock_basis(grid, 1)
        with pytest.raises(ValueError):
            ladder_matrix(basis, 2, "create")
        with pytest.raises(ValueError):
            ladder_matrix(basis, 0, "destroy")


class TestFieldHamiltonian:
    def test_vacuum_eigenvalue_zero(self):
        grid = build_mode_grid(2, 1.0, "uniform")
        basis = build_fock_basis(grid, 2)
        hf = field_hamiltonian(basis)
        assert hf[0, 0] == 0.0

    def test_single_and_double_occupancy_energies(self):
        grid = build_mode_grid(2, 1.0, "uniform")
        basis = build_fock_basis(grid, 2)
        hf = np.diag(field_hamiltonian(basis)).real
        k1, k2 = grid.nodes
        assert hf[basis.state_index([1, 0])] == pytest.approx(k1)
        assert hf[basis.state_index([0, 1])] == pytest.approx(k2)
        assert hf[basis.state_index([1, 1])] == pytest.approx(k1 + k2)
        assert hf[basis.state_index([2, 0])] == pytest.approx(2 * k1)


class TestOperatorMatrix:
    def test_shape_validation(self):
        grid = build_mode_grid(2, 1.0, "uniform")
        basis = build_fock_basis(grid, 1)
        with pytest.raises(ValueError, match="does not match"):
            OperatorMatrix(np.zeros((2, 2)), basis)


class TestPullThrough:
    def _basis(self, n_modes=3, n_max=3, scheme="geometric"):
        return build_fock_basis(build_mode_grid(n_modes, 1.0, scheme), n_max)

    def test_identity_function(self):
        basis = self._basis()
        for mode in range(basis.n_modes):
            assert pull_through_check(basis, lambda x: x, mode) < 1e-14

    def test_constant_function(self):
        basis = self._basis()
        assert pull_through_check(basis, lambda x: 2.5, 0) == 0.0

    def test_resolvent_function(self):
        basis = self._basis()
        for mode in range(basis.n_modes):
            dev = pull_through_check(basis, lambda x: 1.0 / (x + 1.0), mode)
            assert dev < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3),
           st.floats(min_value=0.2, max_value=3.0))
    def test_polynomial_pull_through_random_grids(self, n_modes, n_max, k_max):
        basis = build_fock_basis(build_mode_grid(n_modes, k_max, "uniform"), n_max)
        f = lambda x: x ** 2 - 0.7 * x + 0.1
        for mode in range(n_modes):
            assert pull_through_check(basis, f, mode) < 1e-12
