"""Mode grids, truncated Fock bases, ladder operators, pull-through."""

import time
from itertools import combinations_with_replacement
from itertools import product as iproduct
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrg.fock import (DEFAULT_DIM_CAP, FockBasis, ModeGrid, OperatorMatrix, blocks,
                         build_fock_basis,
                         build_mode_grid, field_hamiltonian, ladder_matrix, ladder_walk,
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
        # a basis over the cap is enumerated; a dense operator on it is refused
        basis = build_fock_basis(build_mode_grid(99, 1.0, "uniform"), 2)
        assert basis.dim == 5050 > DEFAULT_DIM_CAP
        with pytest.raises(ValueError, match="dense dimension 5050 exceeds the dense cap 5000"):
            ladder_matrix(basis, 0)

    def test_state_index_inverts_enumeration(self):
        grid = build_mode_grid(3, 1.0, "geometric")
        basis = build_fock_basis(grid, 2)
        for i, s in enumerate(basis.states):
            assert basis.state_index(s) == i

    @pytest.mark.parametrize("occupation", [[3, 0, 0], [1, 1, 1], [0, 0, 4]])
    def test_state_index_refuses_above_n_max(self, occupation):
        basis = build_fock_basis(build_mode_grid(3, 1.0, "geometric"), 2)
        with pytest.raises(KeyError):
            basis.state_index(occupation)

    def test_8385_states_build_fast(self):
        # 128 uniform modes at n_max = 2: the shells come out of the creation
        # table in numpy, with no per-state Python (about 0.5 s state by state)
        grid = build_mode_grid(128, 1.0, "uniform")
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            basis = build_fock_basis(grid, 2)
            seconds.append(time.perf_counter() - t0)
        assert basis.dim == 8385 and min(seconds) <= 0.15


LADDER_CASES = [(1, 0), (1, 3), (2, 2), (3, 3), (5, 4), (12, 3), (24, 2)]


class TestLadderTables:
    """The shell-by-shell build against an independent enumeration, and its tables."""

    @pytest.mark.parametrize("n_modes, n_max", LADDER_CASES)
    def test_states_match_combinations_with_replacement(self, n_modes, n_max):
        reference = []
        for total in range(n_max + 1):
            for combo in combinations_with_replacement(range(n_modes), total):
                reference.append(np.bincount(combo, minlength=n_modes))
        basis = build_fock_basis(build_mode_grid(n_modes, 1.0, "uniform"), n_max)
        assert basis.states.dtype == np.int64
        assert np.array_equal(basis.states, np.array(reference, dtype=np.int64))

    @pytest.mark.parametrize("n_modes, n_max", LADDER_CASES)
    def test_upper_and_lower_are_inverse(self, n_modes, n_max):
        basis = build_fock_basis(build_mode_grid(n_modes, 1.0, "uniform"), n_max)
        eye = np.eye(n_modes, dtype=np.int64)
        for table, inverse, step in ((basis.upper, basis.lower, 1), (basis.lower, basis.upper, -1)):
            i, m = np.nonzero(table >= 0)
            assert np.array_equal(basis.states[table[i, m]], basis.states[i] + step * eye[m])
            assert np.array_equal(inverse[table[i, m], m], i)
        # a move is missing exactly out of the top shell and from an empty mode
        total = basis.states.sum(axis=1)
        assert np.array_equal(basis.upper < 0, np.broadcast_to(
            (total == n_max)[:, None], basis.upper.shape))
        assert np.array_equal(basis.lower < 0, basis.states == 0)

    @pytest.mark.parametrize("n_modes, n_max", LADDER_CASES)
    def test_amplitude_is_root_of_the_occupied_state(self, n_modes, n_max):
        basis = build_fock_basis(build_mode_grid(n_modes, 1.0, "uniform"), n_max)
        everything = np.arange(basis.dim)
        src, modes, end, amp = ladder_walk(basis, everything, 1, "create")
        assert np.array_equal(amp, np.sqrt(basis.states[end, modes[:, 0]]))
        src, modes, end, amp = ladder_walk(basis, everything, 1, "annihilate")
        assert np.array_equal(amp, np.sqrt(basis.states[src, modes[:, 0]]))
        off, lower, occupied, lamp, upper, camp = basis.shells
        rows = np.arange(basis.dim)[:, None]
        assert np.array_equal(lamp, np.sqrt(basis.states[rows, occupied]))
        assert np.array_equal(camp, np.sqrt(basis.states[upper, np.arange(n_modes)]))
        if basis.dim <= 500:
            for mode in range(n_modes):
                a = ladder_matrix(basis, mode)
                i = np.flatnonzero(basis.lower[:, mode] >= 0)
                assert np.array_equal(a[basis.lower[i, mode], i], np.sqrt(basis.states[i, mode]))
                assert np.count_nonzero(a) == len(i)


class TestBlocks:
    """Connected components of a matrix's nonzero pattern, read both ways."""

    def test_permuted_block_diagonal(self):
        rng = np.random.default_rng(5)
        sizes = [3, 5, 1, 4]
        n = sum(sizes)
        B = np.zeros((n, n))
        start = 0
        for size in sizes:
            B[start:start + size, start:start + size] = rng.uniform(0.5, 1.5, (size, size))
            start += size
        perm = rng.permutation(n)
        M = np.empty_like(B)
        M[np.ix_(perm, perm)] = B  # state i of B is state perm[i] of M
        edges = np.cumsum([0] + sizes)
        want = sorted((sorted(perm[a:b].tolist()) for a, b in zip(edges[:-1], edges[1:])),
                      key=lambda block: block[0])
        assert [b.tolist() for b in blocks(M)] == want

    def test_one_way_entry_joins_its_rows(self):
        M = np.diag([1.0, 2.0, 3.0])
        M[0, 2] = 0.5
        got = blocks(M)
        assert [b.tolist() for b in got] == [[0, 2], [1]]

    def test_zero_row_and_column_are_their_own_block(self):
        M = np.random.default_rng(1).standard_normal((4, 4)) + 5.0
        M[2, :] = M[:, 2] = 0.0
        assert [b.tolist() for b in blocks(M)] == [[0, 1, 3], [2]]

    @pytest.mark.parametrize("kind", ["dense", "chain"])
    def test_irreducible_matrix_is_one_block(self, kind):
        n = 200
        if kind == "dense":
            M = np.random.default_rng(2).standard_normal((n, n)) + 1j
        else:
            M = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        got = blocks(M)
        assert len(got) == 1 and np.array_equal(got[0], np.arange(n))


class TestLadderOperators:
    def test_annihilate_vacuum_is_zero(self):
        grid = build_mode_grid(2, 1.0, "uniform")
        basis = build_fock_basis(grid, 2)
        a = ladder_matrix(basis, 0)
        vac = np.zeros(basis.dim)
        vac[0] = 1.0
        assert np.linalg.norm(a @ vac) == 0.0

    def test_create_on_single_quantum(self):
        grid = build_mode_grid(1, 1.0, "uniform")
        basis = build_fock_basis(grid, 2)
        c = ladder_matrix(basis, 0).T
        one = np.zeros(3)
        one[basis.state_index([1])] = 1.0
        out = c @ one
        expected = np.zeros(3)
        expected[basis.state_index([2])] = np.sqrt(2.0)
        assert out == pytest.approx(expected)

    def test_create_out_of_truncated_sector_vanishes(self):
        grid = build_mode_grid(1, 1.0, "uniform")
        basis = build_fock_basis(grid, 1)
        c = ladder_matrix(basis, 0).T
        top = np.zeros(2)
        top[basis.state_index([1])] = 1.0
        assert np.linalg.norm(c @ top) == 0.0

    def test_ccr_on_safe_subspace(self):
        grid = build_mode_grid(3, 1.0, "geometric")
        basis = build_fock_basis(grid, 3)
        safe = basis.safe_mask()
        for i in range(3):
            for j in range(3):
                a = ladder_matrix(basis, i)
                c = ladder_matrix(basis, j).T
                comm = a @ c - c @ a
                expect = (1.0 if i == j else 0.0) * np.eye(basis.dim)
                dev = np.max(np.abs((comm - expect)[:, safe]))
                assert dev < 1e-12

    def test_many_modes_single_quantum(self):
        # 100 modes at n_max = 1: a mixed-radix key (n_max + 1)^n_modes would
        # overflow any fixed-width integer
        basis = build_fock_basis(build_mode_grid(100, 1.0, "uniform"), 1)
        a = ladder_matrix(basis, 99)
        assert a[0, basis.state_index([0] * 99 + [1])] == 1.0
        assert np.count_nonzero(a) == 1

    def test_number_operator_diagonal(self):
        grid = build_mode_grid(2, 1.0, "uniform")
        basis = build_fock_basis(grid, 2)
        for mode in range(2):
            a = ladder_matrix(basis, mode)
            num = a.conj().T @ a
            assert np.diag(num).real == pytest.approx(basis.states[:, mode])

    def test_mode_out_of_range(self):
        grid = build_mode_grid(2, 1.0, "uniform")
        basis = build_fock_basis(grid, 1)
        with pytest.raises(ValueError):
            ladder_matrix(basis, 2)


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


class TestRefusals:
    """Each refusal of ModeGrid, build_fock_basis and ladder_walk, with its message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: ModeGrid(np.ones((2, 2)), np.ones((2, 2))),
         "nodes and weights must be 1-d arrays of equal length"),
        (lambda: ModeGrid([0.1, 0.2], [1.0]),
         "nodes and weights must be 1-d arrays of equal length"),
        (lambda: ModeGrid([0.0, 0.2], [1.0, 1.0]),
         r"all nodes must be positive \(no zero mode is stored\)"),
        (lambda: ModeGrid([0.2, 0.1], [1.0, 1.0]), "nodes must be strictly increasing"),
        (lambda: ModeGrid([0.1, 0.2], [1.0, 0.0]), "all weights must be positive"),
        (lambda: build_fock_basis(build_mode_grid(2, 0.4, "uniform"), -1),
         "n_max must be >= 0, got -1"),
        (lambda: ladder_walk(build_fock_basis(build_mode_grid(2, 0.4, "uniform"), 1), [0], 1,
                             "destroy"),
         "kind must be 'create' or 'annihilate', got 'destroy'")],
        ids=["grid-2d", "grid-lengths", "node-zero", "nodes-decreasing", "weight-zero",
             "n_max-negative", "walk-kind"])
    def test_refusal(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
