"""Scaling transformation, Wick ordering, one renormalization step, the flow."""

import warnings
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial

import numpy as np
import pytest

from specrg.feshbach import feshbach_map, spectral_projection
from specrg.fock import ModeGrid, build_fock_basis, build_mode_grid
from specrg.normalform import (FOUR_PI, MU, R_GRID, CouplingFunction, NormalFormHamiltonian,
                               assemble_operator, assemble_term, coupling_norm_mu,
                               coupling_norm_mu1, from_profile, interaction_norm, multisets,
                               slot_masses, slot_shape, shifted, split, term_norm)
from specrg import oracle, rgflow
from specrg.calibration import _random_polydisc_hamiltonian
from specrg.models import ModelSpec, build_model, ground_sector_hamiltonian
from specrg.rgflow import (DomainError, FlowStalledError, decimate, flow, normal_order_product,
                           polydisc_coordinates, recursion_constant, rg_step, scale_coupling)

RHO = 0.5


def _field_kernel(nodes):
    return from_profile(0, 0, nodes, lambda r: r)


def _power_profile(rng, mu):
    """Profile (a0 + a1 r) prod_i k_i^(mu - 1/2), a0 complex and a1 real drawn from rng."""
    a0 = rng.standard_normal() + 1j * rng.standard_normal()
    a1 = rng.standard_normal()

    def prof(r, *ks):
        out = a0 + a1 * r
        for k in ks:
            out = out * k ** (mu - 0.5)
        return out

    return prof


def _closed_grid(rho):
    """4 modes closed under k -> rho k: the geometric grid when rho is 1/2 or 1/4,
    else nodes rho^i / sqrt(8), each exactly rho times the one above it."""
    if rho in (0.5, 0.25):
        return build_mode_grid(4, 0.5, "geometric")
    nodes = np.cumprod([0.5 / np.sqrt(2.0)] + [rho] * 3)[::-1]
    edges = np.concatenate(([0.0], nodes / np.sqrt(rho)))
    return ModeGrid(nodes, FOUR_PI / 3.0 * np.diff(edges ** 3))


def _random_hamiltonian(rho):
    """A random polydisc Hamiltonian on 4 modes closed under rho, as the calibration draws it."""
    return _random_polydisc_hamiltonian(np.random.default_rng(3), _closed_grid(rho), rho,
                                        rho / 16.0)


def _random_kernel(rng, m, n, nodes, real=False):
    """A random kernel on nodes, drawn on its multisets."""
    shape = (len(R_GRID),) + slot_shape(len(nodes), m, n)
    return CouplingFunction(m, n, nodes, rng.standard_normal(shape)
                            + (0 if real else 1j) * rng.standard_normal(shape))


def _fully_symmetric(vals, m, n):
    """A full table averaged over every permutation of its creation and of its
    annihilation slots."""
    axes = [(0,) + tuple(1 + i for i in pc) + tuple(1 + m + j for j in pa)
            for pc in permutations(range(m)) for pa in permutations(range(n))]
    return sum(np.transpose(vals, ax) for ax in axes) / len(axes)


def _on_multisets(m, n, nodes, full):
    """The kernel that reads the symmetric full table full at the sorted tuples."""
    N = len(nodes)
    cre, ann = (multisets(N, k)[2] for k in (m, n))
    vals = full.reshape(len(R_GRID), N ** m, N ** n)[:, cre][:, :, ann]
    return CouplingFunction(m, n, nodes, vals.reshape((len(R_GRID),) + slot_shape(N, m, n)))


def _scalar_hamiltonian(E, grid):
    """E + H_f, or the family of them for an array E."""
    w00 = CouplingFunction(0, 0, grid.nodes, np.add.outer(E, R_GRID))
    return NormalFormHamiltonian({(0, 0): w00}, grid)


class TestScaling:
    def test_field_kernel_is_fixed_point(self):
        nodes = np.geomspace(0.05, 0.5, 5)
        w = _field_kernel(nodes)
        scaled = scale_coupling(w, RHO)
        assert np.max(np.abs(scaled.values - w.values)) < 1e-12

    def test_constant_expands_by_inverse_rho(self):
        nodes = np.array([0.25])
        E = 0.1 - 0.03j
        w = from_profile(0, 0, nodes, lambda r: E)
        scaled = scale_coupling(w, RHO)
        assert np.allclose(scaled.values, E / RHO)

    def test_critical_kernel_contracts_by_rho_mu(self):
        mu = 0.5
        nodes = build_mode_grid(7, 0.5, "geometric").nodes
        w = from_profile(1, 0, nodes, lambda r, k: k ** (mu - 0.5))
        for rho in (0.5, 0.25):
            scaled = scale_coupling(w, rho)
            ratio = coupling_norm_mu(scaled, mu) / coupling_norm_mu(w, mu)
            assert ratio <= rho ** mu * (1.0 + 1e-9)
            with pytest.raises(DomainError, match="between two nodes"):
                scale_coupling(from_profile(1, 0, np.geomspace(0.02, 0.5, 7), lambda r, k: k),
                               rho)

    def test_contraction_bound_for_random_profiles(self):
        rng = np.random.default_rng(2)
        nodes = build_mode_grid(6, 0.5, "geometric").nodes
        for mu in (0.25, 0.5):
            for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 0)]:
                w = from_profile(m, n, nodes, _power_profile(rng, mu))
                for rho in (0.5, 0.25):
                    scaled = scale_coupling(w, rho)
                    ratio = coupling_norm_mu(scaled, mu) / coupling_norm_mu(w, mu)
                    bound = rho ** (m + n - 1 + (mu if m + n == 1 else 0.0))
                    assert ratio <= bound * (1.0 + 1e-9)
        with pytest.raises(DomainError, match="between two nodes"):
            scale_coupling(from_profile(1, 1, np.geomspace(0.02, 0.5, 6),
                                        _power_profile(rng, 0.5)), RHO)

    @pytest.mark.parametrize("nodes", [
        pytest.param(build_mode_grid(6, 0.5, "geometric").nodes, id="6"),
        pytest.param(build_mode_grid(8, 0.5, "geometric").nodes, id="8"),
        pytest.param(np.geomspace(0.02, 0.5, 6), id="geomspace-6"),
        pytest.param(np.geomspace(0.02, 0.5, 7), id="geomspace-7"),
        pytest.param(build_mode_grid(8, 0.5, "uniform").nodes, id="uniform-8"),
    ])
    def test_contraction_bound_when_interpolated(self, nodes):
        # scale_coupling reads a table linearly in r and each slot k_j at the
        # node rho k_j, 0 below the lowest node, so on the geometric grid with
        # as many nodes (closed under k -> rho k at rho = 1/2 and 1/4) the bound
        # holds to rounding and a power-law profile rescales to its closed form
        # wherever every slot has a source node; nodes that are not closed
        # under k -> rho k are refused
        closed = build_mode_grid(len(nodes), 0.5, "geometric").nodes
        rng = np.random.default_rng(2)
        for rho in (0.5, 0.25):
            if not np.array_equal(nodes, closed):
                with pytest.raises(DomainError, match="between two nodes"):
                    scale_coupling(from_profile(0, 1, nodes, _power_profile(rng, MU)), rho)
            has_source = rho * closed >= closed[0]
            for mu in (0.25, 0.5):
                for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
                    prof = _power_profile(rng, mu)
                    tab = from_profile(m, n, closed, prof)
                    w = CouplingFunction(m, n, tab.nodes, tab.values)  # as rg_step builds
                    scaled = scale_coupling(w, rho)
                    ratio = coupling_norm_mu(scaled, mu) / coupling_norm_mu(w, mu)
                    bound = rho ** (m + n - 1 + (mu if m + n == 1 else 0.0))
                    assert ratio <= bound * (1.0 + 1e-12)
                    pref = rho ** (1.5 * (m + n) - 1.0)
                    exact = from_profile(m, n, closed, lambda r, *ks, _p=prof:
                                         pref * _p(rho * r, *(rho * k for k in ks))).expanded()
                    got = scaled.expanded()
                    inside = np.ix_(range(len(R_GRID)), *[has_source] * (m + n))
                    assert np.all(np.abs(got - exact)[inside] <= 1e-13 * np.abs(exact[inside]))
                    outside = np.ones(got.shape, dtype=bool)
                    outside[inside] = False
                    assert np.all(got[outside] == 0.0)

    def test_one_node_kernel_rescales_to_zero(self):
        # rho k_0 lies below the only node, so every slot reads 0
        rng = np.random.default_rng(5)
        shape = (len(R_GRID), 1, 1)
        w = CouplingFunction(1, 1, np.array([0.3]),
                             rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert np.array_equal(scale_coupling(w, RHO).values, np.zeros(shape))

    def test_nodes_not_closed_under_rho_are_refused(self):
        # rho k = 0.05 lies below k_0 and reads 0, but rho k = 0.125 lies
        # between 0.1 and 0.25; a kernel of order 0 has no slot to read
        nodes = np.array([0.1, 0.25, 0.3, 0.45])
        column = np.array([0.7 - 0.2j, 0.0, 0.3, 0.1])
        w = CouplingFunction(1, 0, nodes, (1.0 + R_GRID)[:, np.newaxis] * column)
        with pytest.raises(DomainError, match=r"rho k = 0\.125 \(k = 0\.25, rho = 0\.5\)"):
            scale_coupling(w, RHO)
        assert np.array_equal(scale_coupling(_field_kernel(nodes), RHO).values,
                              _field_kernel(nodes).values)

    def test_on_node_targets_read_node_values(self):
        # on a geometric grid rho k_j = k_(j-1) for all but the lowest node at
        # rho = 1/2, so those columns of an order-4 kernel read the node below
        nodes = build_mode_grid(8, 0.5, "geometric").nodes
        on_node = np.flatnonzero(np.isin(RHO * nodes, nodes))
        assert len(on_node) == len(nodes) - 1
        source = np.searchsorted(nodes, RHO * nodes[on_node])
        w = _random_kernel(np.random.default_rng(8), 2, 2, nodes)
        scaled = scale_coupling(w, RHO)
        cols = np.ix_(range(len(R_GRID)), *[on_node] * 4)
        node_vals = w.expanded(w.at_r(RHO * R_GRID))[np.ix_(range(len(R_GRID)), *[source] * 4)]
        assert np.array_equal(scaled.expanded()[cols], RHO ** 5.0 * node_vals)

    def test_every_shell_is_decimated_once_and_none_invented(self):
        # each rescaling at rho = 1/2 moves every slot one node down and reads
        # 0 below the lowest, so N of them empty every kernel of order >= 1
        nodes = build_mode_grid(5, 0.5, "geometric").nodes
        rng = np.random.default_rng(9)
        for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 2)]:
            shape = (len(R_GRID),) + slot_shape(len(nodes), m, n)
            w = CouplingFunction(m, n, nodes, rng.standard_normal(shape) + 1.0)
            for step in range(len(nodes)):
                assert np.any(w.values != 0.0), step
                w = scale_coupling(w, RHO)
            assert np.array_equal(w.values, np.zeros(shape))

    def test_invalid_rho(self):
        w = _field_kernel(np.array([0.25]))
        with pytest.raises(ValueError):
            scale_coupling(w, 1.5)


class TestFieldSupportMask:
    @pytest.mark.parametrize("m, n", [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)])
    def test_keeps_entries_whose_field_energies_fit(self, m, n):
        # r + k crosses 1 on R_GRID, and 0.25 + 0.75 and 0.5 + 0.5 hit it exactly
        nodes = np.array([0.1, 0.5, 0.75])
        shape = (len(R_GRID),) + slot_shape(len(nodes), m, n)
        rng = np.random.default_rng(10 * m + n)
        vals, dr = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    for _ in range(2))
        w = CouplingFunction(m, n, nodes, vals, dr_values=dr)
        out = rgflow._apply_field_support_mask(w)
        vals, dr = w.expanded(), w.expanded(dr)
        out_vals, out_dr = out.expanded(), out.expanded(out.dr_values)
        kept = 0
        for idx in np.ndindex(*vals.shape):
            r, ks = R_GRID[idx[0]], [nodes[i] for i in idx[1:]]
            keep = r + sum(ks[:m]) <= 1.0 + 1e-12 and r + sum(ks[m:]) <= 1.0 + 1e-12
            assert out_vals[idx] == (vals[idx] if keep else 0.0)
            assert out_dr[idx] == (dr[idx] if keep else 0.0)
            kept += keep
        assert 0 < kept < vals.size


class TestFullTableRules:
    """The rescaling and the field-support mask on multisets against the rules they
    replace, which act on every ordered tuple of a full table, kept here as written."""

    KEYS = [(m, n) for m in range(5) for n in range(5 - m)]

    @staticmethod
    def _scale_full(w, rho):
        vals = w.expanded(w.at_r(rho * R_GRID))
        if w.order:
            s = rgflow._slot_index(w.nodes, rho)
            vals = vals[(slice(None),) + np.ix_(*[np.maximum(s, 0)] * w.order)]
            for axis in range(1, w.order + 1):  # index -1 reads 0
                vals[(slice(None),) * axis + (s < 0,)] = 0.0
        return rho ** (1.5 * w.order - 1.0) * vals

    @staticmethod
    def _mask_full(w):
        r, *ks = np.ix_(R_GRID, *[w.nodes] * w.order)
        omega_cre, omega_ann = sum(ks[:w.m], 0.0), sum(ks[w.m:], 0.0)
        return (r + omega_cre <= 1.0 + 1e-12) & (r + omega_ann <= 1.0 + 1e-12)

    @pytest.mark.parametrize("m, n", KEYS)
    def test_scale_coupling_equals_the_full_table_rule(self, m, n):
        # 5 geometric nodes are closed under k -> k/2 and k -> k/4; the lowest
        # one or two slots read 0
        rng = np.random.default_rng(40 + 5 * m + n)
        w = _random_kernel(rng, m, n, build_mode_grid(5, 0.5, "geometric").nodes)
        for rho in (0.5, 0.25):
            assert np.array_equal(scale_coupling(w, rho).expanded(), self._scale_full(w, rho))

    @pytest.mark.parametrize("m, n", KEYS)
    def test_field_support_mask_equals_the_full_table_rule(self, m, n):
        # node sums of up to 4 slots reach 1 exactly (0.25 + 0.75, 4 x 0.25) and
        # cross it between the points of R_GRID
        rng = np.random.default_rng(70 + 5 * m + n)
        nodes = np.array([0.1, 0.25, 0.4, 0.75])
        w = _random_kernel(rng, m, n, nodes)
        out = rgflow._apply_field_support_mask(w)
        mask = self._mask_full(w) if w.order else True
        assert np.array_equal(out.expanded(), w.expanded() * mask)
        assert np.array_equal(out.expanded(out.dr_values), w.expanded(w.dr_values) * mask)
        if w.order:
            assert 0 < np.count_nonzero(np.broadcast_to(mask, out.expanded().shape)) < \
                out.expanded().size


class TestWickOrdering:
    """Cross-checks of the re-normal-ordering against dense matrix algebra."""

    def _aligned_setup(self, seed=0):
        # nodes at multiples of the R_GRID spacing, so every pull-through
        # shift lands exactly on grid points and interpolation is exact
        nodes = np.array([2.0 / 32.0, 3.0 / 32.0])
        masses = np.array([0.011, 0.017])
        rng = np.random.default_rng(seed)
        return nodes, masses, rng

    def test_single_contraction_closed_form(self):
        # (0,1) kernel times (1,0) kernel: the p=1 contraction produces the
        # scalar correction sum_q mass_q wA(r; k_q) G(r + k_q) wB(r; k_q)
        nodes, masses, rng = self._aligned_setup(1)
        vA = rng.standard_normal((33, 2)) + 1j * rng.standard_normal((33, 2))
        vB = rng.standard_normal((33, 2)) + 1j * rng.standard_normal((33, 2))
        wA = CouplingFunction(0, 1, nodes, vA)
        wB = CouplingFunction(1, 0, nodes, vB)
        G = lambda r: 1.0 / (np.asarray(r) + 2.0)
        out, _ = normal_order_product({(0, 1): wA}, {(1, 0): wB}, G, masses,
                                      max_order=2, sup_G=0.5)
        expected = np.zeros(33, dtype=complex)
        for q, k in enumerate(nodes):
            expected += masses[q] * vA[:, q] * G(R_GRID + k) * vB[:, q]
        assert np.allclose(out[(0, 0)].values, expected, atol=1e-13)

    def test_shifts_on_non_uniform_r_grid(self):
        # kernels linear in r interpolate exactly between grid points, so the
        # p=0 (1,1) term of W[1+r](0,1) G W[1+r](1,0) is closed-form wherever
        # the shifted field energies r + k stay inside I; these nodes put
        # r + k between the points of R_GRID
        nodes = np.array([0.11, 0.23, 0.37])
        masses = np.array([0.01, 0.02, 0.03])
        lin = np.repeat((1.0 + R_GRID)[:, np.newaxis], 3, axis=1)
        wA = CouplingFunction(0, 1, nodes, lin)
        wB = CouplingFunction(1, 0, nodes, lin)
        G = lambda r: 1.0 / (np.asarray(r) + 2.0)
        out, _ = normal_order_product({(0, 1): wA}, {(1, 0): wB}, G, masses,
                                      max_order=2, sup_G=0.5)
        r = R_GRID[:, np.newaxis, np.newaxis]
        ki, kj = nodes[np.newaxis, :, np.newaxis], nodes[np.newaxis, np.newaxis, :]
        expected = (1.0 + r + ki) * G(r + ki + kj) * (1.0 + r + kj)
        inside = np.broadcast_to((r + ki <= 1.0) & (r + kj <= 1.0), expected.shape)
        got = out[(1, 1)].values
        assert np.max(np.abs(got - expected)[inside] / np.abs(expected[inside])) < 1e-14

    def _check_matrix_algebra(self, A_keys, B_keys, seed):
        # assemble W_A G(H_f) W_B on a truncated basis and compare matrix
        # elements on the truncation-blind block
        nodes, masses, rng = self._aligned_setup(seed)
        grid = ModeGrid(nodes, masses * FOUR_PI)
        n_max = 4
        basis = build_fock_basis(grid, n_max)
        G = lambda r: 1.0 / (np.asarray(r) + 2.0)

        def rand_terms(keys):
            return {(m, n): _random_kernel(rng, m, n, nodes) for (m, n) in keys}

        A = rand_terms(A_keys)
        B = rand_terms(B_keys)
        out, dropped = normal_order_product(A, B, G, masses, max_order=4, sup_G=0.5)
        assert dropped == 0.0  # nothing exceeds max_order here

        def assemble(terms):
            mat = np.zeros((basis.dim, basis.dim), dtype=complex)
            for w in terms.values():
                mat += assemble_term(w, basis)
            return mat

        hf = basis.hf_diagonal()
        direct = assemble(A) @ np.diag(G(hf)) @ assemble(B)
        reordered = assemble(out)
        # restrict to states whose occupation cannot feel the hard cutoff
        # through the intermediate state either
        totals = basis.states.sum(axis=1)
        safe = totals <= n_max - 2
        dev = np.max(np.abs((direct - reordered)[np.ix_(safe, safe)]))
        scale = np.max(np.abs(direct)) or 1.0
        assert dev / scale < 1e-12

    def test_product_matches_matrix_algebra(self):
        self._check_matrix_algebra([(1, 0), (0, 1), (1, 1)], [(1, 0), (0, 1)], seed=2)

    def test_two_slot_products_match_matrix_algebra(self):
        # p = 2 contractions (two-slot q tuples) and two-slot pull-through
        # shifts: (0,2)(2,0) contracts twice, (2,0)(2,0) shifts A by two
        # creators of B, (0,2)(0,2) shifts B by two annihilators of A
        keys = [(0, 2), (2, 0), (1, 1)]
        self._check_matrix_algebra(keys, keys, seed=3)

    @staticmethod
    def _random_W(seed, real=False):
        """Random kernels of every shape up to order 2 on 3 modes."""
        nodes = np.array([0.1, 0.2, 0.35])
        rng = np.random.default_rng(seed)
        W = {(m, n): _random_kernel(rng, m, n, nodes, real)
             for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]}
        return W, np.array([0.01, 0.02, 0.03])

    def test_one_G_table_per_merged_length(self):
        # G is tabulated once per merged length L = |I2'| + |J1'| + |q| among the kept
        # (kernel pair, p) blocks, at r plus each distinct node sum of L slots; a table per
        # block, as (r, distinct O(I2') + O(J1'), distinct O(q)), would take more points
        W, masses = self._random_W(4)
        calls = []

        def G(r):
            calls.append(np.asarray(r))
            return 1.0 / (np.asarray(r) + 2.0)

        max_order = 3
        _, dropped = normal_order_product(W, W, G, masses, max_order=max_order, sup_G=0.5)
        kept = [(m2 - p, n1 - p, p) for (m1, n1) in W for (m2, n2) in W
                for p in range(min(n1, m2) + 1) if m1 + n1 + m2 + n2 - 2 * p <= max_order]
        assert dropped > 0.0  # order-4 terms are dropped, and make no G call
        nodes = W[(1, 0)].nodes

        def distinct(*lengths):  # the distinct sums of one multiset of each length
            return sorted({sum(sum(nodes[list(t)]) for t in ts) for ts in product(
                *[combinations_with_replacement(range(len(nodes)), L) for L in lengths])})

        lengths = sorted({sum(block) for block in kept})
        assert len(calls) == len(lengths) == 4  # L = 0, 1, 2, 3
        for r, L in zip(sorted(calls, key=lambda r: r.shape[1]), lengths):
            # (rows, distinct sums of L slots), increasing along the sums
            assert r.shape == (len(R_GRID), len(distinct(L)))
            assert np.all(np.diff(r, axis=1) > 0)
            assert np.allclose(r[0], distinct(L), rtol=0, atol=1e-15)
        per_block = sum(len(R_GRID) * len(distinct(I, J)) * len(distinct(p)) for I, J, p in kept)
        assert sum(r.size for r in calls) < per_block

    @pytest.mark.parametrize("n_nodes", [3, 4])
    def test_merged_index_is_the_multiset_of_I_J_and_q(self, n_nodes):
        # _merged maps every (I, J, q) to the distinct sum of its merged multiset
        # sorted(I + J + q), the row combinations_with_replacement lists it at
        nodes = np.array([0.1, 0.2, 0.35, 0.6][:n_nodes])
        node_set = (tuple(nodes), (0.01,) * n_nodes)
        for len_I, len_J, p in product(range(3), repeat=3):
            merged = rgflow._merged(*node_set, len_I, len_J, p)
            multisets_L = list(combinations_with_replacement(range(n_nodes), len_I + len_J + p))
            _, sums, inverse, _ = rgflow._sums(*node_set, len_I + len_J + p)
            I, J, Q = (list(combinations_with_replacement(range(n_nodes), k))
                       for k in (len_I, len_J, p))
            assert merged.shape == (len(I), len(J), len(Q))
            for (a, i), (b, j), (c, q) in product(enumerate(I), enumerate(J), enumerate(Q)):
                row = multisets_L.index(tuple(sorted(i + j + q)))
                assert merged[a, b, c] == inverse[row]
                assert sums[merged[a, b, c]] == np.sum(nodes[sorted(i + j + q)])

    def test_one_read_per_distinct_shift(self, monkeypatch):
        # each kernel is read once per distinct pull-through shift, in
        # increasing order: the 6 multisets of 2 of 3 nodes have 6 sums.  A
        # factor is read on its read plan's cells, at field energies (rows, shifts)
        W, masses = self._random_W(4)
        shifts = []
        read = CouplingFunction.read

        def recorded(w, r, cells):
            if r.ndim == 2:
                shifts.append(r[0] - R_GRID[0])
            return read(w, r, cells)

        monkeypatch.setattr(CouplingFunction, "read", recorded)
        G = lambda r: 1.0 / (np.asarray(r) + 2.0)
        normal_order_product(W, W, G, masses, max_order=4, sup_G=0.5)
        assert all(np.all(np.diff(s) > 0) for s in shifts)
        assert max(len(s) for s in shifts) == 6

    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("S", [2, 3, 4, 6])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_split_mean_is_the_sum_divided_by_S(self, real, S, axis):
        # the mean over S position splits, added in place and, when complex, scaled
        # by 1/S on its float view, is the sum of the parts divided by S bit for bit
        rng = np.random.default_rng(S)
        block = rng.standard_normal((4, 9, 9)) + (0 if real else 1j) * rng.standard_normal(
            (4, 9, 9))
        splits = rng.integers(0, 9, (S, 7))
        parts = [block.take(split, axis=axis) for split in splits]
        expected = sum(parts[1:], parts[0]) / len(parts)
        got = rgflow._split_mean(block, axis, splits)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_one_norm_per_kernel(self, monkeypatch):
        # a kernel's (MU, 1) norm is cached on it, and a product computes one
        # only for a dropped contraction order
        calls = Counter()
        kernels = []  # held, so that no id is reused within the test

        def counted(w, mu):
            kernels.append(w)
            calls[id(w)] += 1
            return coupling_norm_mu1(w, mu)

        monkeypatch.setattr(rgflow.normalform, "coupling_norm_mu1", counted)
        W, masses = self._random_W(4)
        G = lambda r: 1.0 / (np.asarray(r) + 2.0)
        normal_order_product(W, W, G, masses, max_order=4, sup_G=0.5)
        assert not calls
        for _ in range(2):
            term_norm(W[(1, 1)])
        assert list(calls.values()) == [1]
        for H in (TestFlow._model_builder()(0.0), _random_hamiltonian(RHO)):
            calls.clear()
            rg_step(H, RHO)
            assert calls and max(calls.values()) == 1

    def test_products_of_higher_orders_match_the_ordered_tuple_formula(self):
        # the factor C(n1,p) C(m2,p) p! counts every choice of contracted slots
        # as the same one, which holds for kernels symmetric in all of their
        # creation slots and all of their annihilation slots, as kernels on
        # multisets are; factors of orders 3 and 4, against every ordered tuple
        W, masses = self._random_W(7)
        nodes, rng = W[(1, 0)].nodes, np.random.default_rng(8)
        for (m, n) in [(3, 0), (3, 1), (1, 3), (4, 0), (0, 4)]:
            W[(m, n)] = _random_kernel(rng, m, n, nodes)
        out, _ = normal_order_product(W, W, self._G, masses, max_order=4, sup_G=0.5)
        ref = self._ordered_tuple_product(W, W, self._G, masses, 4)
        assert {(3, 1), (1, 3), (4, 0), (0, 4)} <= out.keys() == ref.keys()
        for key, arr in ref.items():
            assert np.max(np.abs(out[key].expanded() - arr)) <= 1e-14 * np.max(np.abs(arr)), key

    @staticmethod
    def _tuple_loop_product(A_terms, B_terms, G, masses, max_order):
        """Kept kernels of (sum A) G (sum B) on multisets, one sorted tuple at a time.

        Each sorted (i2, j1) gets its block over I1 and J2, the contracted q
        running over sorted tuples weighted by p!/prod(c_i!); each sorted output
        (C, D) averages the blocks of its position splits, the creation ones
        first; every ordered tuple then reads its sorted form.
        """
        out = {}
        for wA in A_terms.values():
            for wB in B_terms.values():
                (m1, n1), (m2, n2), nodes, r = (wA.m, wA.n), (wB.m, wB.n), wA.nodes, R_GRID
                M, R = len(nodes), len(r)
                multisets = {L: list(combinations_with_replacement(range(M), L))
                             for L in range(5)}
                for p in range(min(n1, m2) + 1):
                    mo, no = m1 + m2 - p, n1 + n2 - p
                    if mo + no > max_order:
                        continue
                    Cf = comb(n1, p) * comb(m2, p) * factorial(p)
                    qs = multisets[p]
                    weight = np.array([np.prod(masses[list(q)]) * (factorial(p) // np.prod(
                        [factorial(c) for c in Counter(q).values()])) for q in qs])
                    block = {}
                    for i2 in multisets[m2 - p]:
                        sI = float(np.sum(nodes[list(i2)]))
                        A_full = wA.expanded(wA.at_r(r + sI))
                        for j1 in multisets[n1 - p]:
                            sJ = float(np.sum(nodes[list(j1)]))
                            B_full = wB.expanded(wB.at_r(r + sJ))
                            A = np.stack([A_full[(slice(None),) * (1 + m1) + tuple(sorted(j1 + q))]
                                          for q in qs], axis=-1).reshape(R, M ** m1, len(qs))
                            B = np.stack([B_full[(slice(None),) + tuple(sorted(q + i2))]
                                          for q in qs], axis=1).reshape(R, len(qs), M ** n2)
                            merged = [np.sum(nodes[sorted(i2 + j1 + q)]) for q in qs]
                            Gq = G(r[:, np.newaxis] + np.array(merged)) * weight
                            blk = np.einsum("riq,rq,rqj->rij", A, Gq, B) * Cf
                            block[i2, j1] = blk.reshape((R,) + (M,) * (m1 + n2))

                    def split_mean(parts):
                        total = parts[0]
                        for part in parts[1:]:
                            total = total + part
                        return total / len(parts) if len(parts) > 1 else total

                    def value(C, D):
                        def at(S, T):
                            rest_S = [k for k in range(mo) if k not in S]
                            rest_T = [k for k in range(no) if k not in T]
                            i1, i2 = tuple(C[k] for k in S), tuple(C[k] for k in rest_S)
                            j1, j2 = tuple(D[k] for k in T), tuple(D[k] for k in rest_T)
                            return block[i2, j1][(slice(None),) + i1 + j2]

                        cre = list(combinations(range(mo), m1))
                        return split_mean([split_mean([at(S, T) for S in cre])
                                           for T in combinations(range(no), n1 - p)])

                    arr = np.zeros((R,) + (M,) * (mo + no), dtype=complex)
                    for C in multisets[mo]:
                        for D in multisets[no]:
                            v = value(C, D)
                            for I in set(permutations(C)):
                                for J in set(permutations(D)):
                                    arr[(slice(None),) + I + J] = v
                    acc = out.get((mo, no))
                    out[(mo, no)] = arr if acc is None else acc + arr
        return out

    @staticmethod
    def _ordered_tuple_product(A_terms, B_terms, G, masses, max_order):
        """Kept kernels of (sum A) G (sum B) by the ordered-tuple formula on the
        factors' full tables: every ordered slot tuple (i2, j1) and q, then
        symmetrized."""
        out = {}
        for wA in A_terms.values():
            for wB in B_terms.values():
                (m1, n1), (m2, n2), nodes, r = (wA.m, wA.n), (wB.m, wB.n), wA.nodes, R_GRID
                M, R = len(nodes), len(r)
                for p in range(min(n1, m2) + 1):
                    mo, no = m1 + m2 - p, n1 + n2 - p
                    if mo + no > max_order:
                        continue
                    Cf = comb(n1, p) * comb(m2, p) * factorial(p)
                    qs = list(product(range(M), repeat=p))
                    omega = np.array([sum(nodes[list(q)]) for q in qs], dtype=float)
                    mass = np.array([np.prod(masses[list(q)]) for q in qs])
                    arr = out.setdefault((mo, no), np.zeros((R,) + (M,) * (mo + no), complex))
                    for i2 in product(range(M), repeat=m2 - p):
                        sI = float(np.sum(nodes[list(i2)]))
                        for j1 in product(range(M), repeat=n1 - p):
                            sJ = float(np.sum(nodes[list(j1)]))
                            A = wA.expanded(wA.at_r(r + sI))[(slice(None),) * (1 + m1) + j1]
                            B = wB.expanded(wB.at_r(r + sJ))[(slice(None),) * (1 + p) + i2]
                            Gq = G(r[:, np.newaxis] + (sI + sJ) + omega) * mass
                            block = np.einsum("riq,rq,rqj->rij", A.reshape(R, M ** m1, len(qs)),
                                              Gq, B.reshape(R, len(qs), M ** n2))
                            arr[(slice(None),) * (1 + m1) + i2 + j1] += (
                                Cf * block).reshape((R,) + (M,) * (m1 + n2))
        return {key: _fully_symmetric(arr, *key) for key, arr in out.items()}

    @staticmethod
    def _G(r):
        return np.where(np.asarray(r) > 0.25, 1.0 / (np.asarray(r) + 2.0), 0.0)

    def test_batched_product_equals_tuple_loop(self):
        # the batched contraction keeps the loop's float operations, so the
        # kernels agree bit for bit, also where shifted reads clamp at r = 1
        W, masses = self._random_W(6)
        n1, _ = normal_order_product(W, W, self._G, masses, max_order=4, sup_G=0.5)
        n2, _ = normal_order_product(n1, W, self._G, masses, max_order=2, sup_G=0.5)
        for got, (A, B, max_order) in ((n1, (W, W, 4)), (n2, (n1, W, 2))):
            ref = self._tuple_loop_product(A, B, self._G, masses, max_order)
            assert got.keys() == ref.keys()
            for key, arr in ref.items():
                assert np.array_equal(got[key].expanded(), arr), key

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_multisets_match_the_ordered_tuple_formula(self, real):
        # W W and (W W) W on 3 modes, whose 2-multisets have distinct sums out
        # of tuple order, against every ordered tuple summed and symmetrized
        W, masses = self._random_W(9, real=real)
        n1, _ = normal_order_product(W, W, self._G, masses, max_order=4, sup_G=0.5)
        n2, _ = normal_order_product(n1, W, self._G, masses, max_order=2, sup_G=0.5)
        ref1 = self._ordered_tuple_product(W, W, self._G, masses, 4)
        ordered = {key: _on_multisets(*key, W[(1, 0)].nodes, arr) for key, arr in ref1.items()}
        ref2 = self._ordered_tuple_product(ordered, W, self._G, masses, 2)
        for got, ref in ((n1, ref1), (n2, ref2)):
            assert got.keys() == ref.keys()
            for key, arr in ref.items():
                full = got[key].expanded()
                assert full.dtype == (float if real else complex), key
                scale = np.max(np.abs(arr))
                assert np.max(np.abs(full - arr)) <= 1e-15 * scale, key

    def test_step_keeps_every_kernel_on_multisets(self, monkeypatch):
        # a step reads, multiplies, sums, rescales and masks kernels on multisets:
        # no full table is gathered, the s = 1 product makes orders 3 and 4 there
        # at M_max = 2 too, and every kernel's slot axes are its multiset counts,
        # (33, 36) for a (2,0) kernel on 8 nodes and (33, 36, 36) for a (2,2) one
        orders = []
        init = CouplingFunction.__init__

        def recorded(self, m, n, *args, **kwargs):
            orders.append(m + n)
            init(self, m, n, *args, **kwargs)

        def gathered(self, table=None):
            raise AssertionError("a step gathered a full table")

        monkeypatch.setattr(CouplingFunction, "__init__", recorded)
        monkeypatch.setattr(CouplingFunction, "expanded", gathered)
        model = TestFlow._model_builder(8)(0.0)
        at_order_4 = NormalFormHamiltonian(model.terms, model.grid, 4)
        for H in (model, _random_hamiltonian(RHO), at_order_4):
            orders.clear()
            Hp, _ = rg_step(H, RHO)
            assert max(orders) == 4
            N = len(H.nodes)
            for (m, n), w in Hp.terms.items():
                assert w.values.shape == w.dr_values.shape == (
                    (len(R_GRID),) + tuple(comb(N + k - 1, k) for k in (m, n) if k)), (m, n)
            if H.M_max == 4:
                assert Hp.terms[(2, 0)].values.shape == (33, 36)
                assert Hp.terms[(2, 2)].values.shape == (33, 36, 36)


class TestRgStep:
    def test_field_hamiltonian_is_fixed_point(self):
        grid = build_mode_grid(6, 0.5, "geometric")
        H = _scalar_hamiltonian(0.0, grid)
        Hp, info = rg_step(H, RHO)
        w = Hp.terms[(0, 0)]
        assert np.max(np.abs(w.values - R_GRID)) < 1e-12
        assert info.budget == 0.0

    def test_scalar_shift_expands_exactly(self):
        grid = build_mode_grid(6, 0.5, "geometric")
        E = 0.01 + 0.002j
        H = _scalar_hamiltonian(E, grid)
        Hp, _ = rg_step(H, RHO)
        Ep, W = split(Hp)
        assert Ep == pytest.approx(E / RHO)
        assert np.allclose(Hp.terms[(0, 0)].values - Ep, R_GRID)
        assert W == {}

    def test_measured_q_of_one_mode_shift(self):
        # on one mode with n_max = 2, G W for a constant (1,0) kernel c is the
        # weighted shift |0> -> |1> -> |2> with weights c sqrt(mass) G(k) and
        # c sqrt(mass) sqrt(2) G(2k); its norm is the larger weight
        grid = build_mode_grid(1, 0.5, "geometric")
        (k,), (mass,) = grid.nodes, slot_masses(grid)
        c = 0.3 - 0.4j
        w10 = from_profile(1, 0, grid.nodes, lambda r, kk: c)
        H = NormalFormHamiltonian({(0, 0): _field_kernel(grid.nodes), (1, 0): w10}, grid)
        G = lambda r: 1.0 / (0.1 + np.asarray(r)) + 0.2j
        expected = abs(c) * np.sqrt(mass) * max(abs(G(k)), np.sqrt(2) * abs(G(2 * k)))
        assert rgflow.measured_q(H, {(1, 0): w10}, G) == pytest.approx(expected, rel=1e-12)
        assert rgflow.measured_q(H, {}, G) == 0.0

    def test_measured_q_alternating_grids_equals_a_fresh_basis(self):
        # two grids with equal nodes and different weights, so equal bases but
        # different slot masses: the basis kept for one must not serve the other
        one = build_mode_grid(4, 0.5, "geometric")
        grids = [one, ModeGrid(one.nodes, 2.0 * one.weights), one]
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
        G = lambda r: 1.0 / (0.1 + np.asarray(r)) + 0.2j
        for grid in grids + grids:
            _, W = split(ground_sector_hamiltonian(spec, grid, 0.0))
            H = NormalFormHamiltonian({(0, 0): _field_kernel(grid.nodes), **W}, grid)
            basis = build_fock_basis(grid, 2)
            Wmat = sum(assemble_term(w, basis) for w in W.values())
            fresh = float(np.linalg.norm(G(basis.hf_diagonal())[:, np.newaxis] * Wmat, 2))
            assert rgflow.measured_q(H, W, G) == fresh

    def test_one_split_per_step(self, monkeypatch):
        calls = Counter()

        def counted(H):
            calls["split"] += 1
            return split(H)

        monkeypatch.setattr(rgflow, "split", counted)
        monkeypatch.setattr(rgflow.normalform, "split", counted)
        H = TestFlow._model_builder()(0.0)
        for _ in range(2):
            H, _ = rg_step(H, RHO, s_max=1)
        assert calls["split"] == 2

    def test_missing_masses_rejected(self):
        # the slot masses are read off the grid, so H needs a ModeGrid
        grid = build_mode_grid(4, 0.5, "geometric")
        w00 = _field_kernel(grid.nodes)
        with pytest.raises(TypeError, match="grid"):
            NormalFormHamiltonian({(0, 0): w00})
        for not_a_grid in (None, slot_masses(grid)):
            with pytest.raises(TypeError, match="grid"):
                NormalFormHamiltonian({(0, 0): w00}, not_a_grid)

    def test_nan_neumann_ratio_raises_domain_error(self, monkeypatch):
        # a NaN ratio passes no comparison, so it must not pass the q < 1 check
        monkeypatch.setattr(rgflow, "measured_q", lambda H, W, G: float("nan"))
        H = TestFlow._model_builder()(0.0)
        with pytest.raises(DomainError, match="Neumann ratio"):
            rg_step(H, RHO)

    def test_singular_scalar_part_raises_domain_error(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        # E + r vanishes inside the decimated region r >= 3 rho / 4
        H = _scalar_hamiltonian(-0.6, grid)
        with pytest.raises(DomainError):
            rg_step(H, RHO)

    @staticmethod
    def _continued_hamiltonian(im):
        """w00 = r + i im except v_32 = 0.3 + i im, with (1,0) and (0,1) kernels 1e-3,
        on 4 geometric modes to 0.5.  at_r continues w00 above r = 1 along
        v_32 + 32 (v_32 - v_31) t, whose real part falls through 0 at r ~ 1.014."""
        grid = build_mode_grid(4, 0.5, "geometric")
        w00 = R_GRID + 1j * im
        w00[-1] = 0.3 + 1j * im
        f = np.full((len(R_GRID), 4), 1e-3)
        return NormalFormHamiltonian({(0, 0): CouplingFunction(0, 0, grid.nodes, w00),
                                      (1, 0): CouplingFunction(1, 0, grid.nodes, f),
                                      (0, 1): CouplingFunction(0, 1, grid.nodes, f)}, grid)

    @pytest.mark.parametrize("step", [rgflow.decimate, rg_step], ids=["decimate", "rg_step"])
    def test_continuation_through_zero_raises_domain_error(self, step):
        # |w00| >= 0.3 on the decimated region's R_GRID points, yet G reads its
        # continuation up to r ~ 1.7
        H = self._continued_hamiltonian(0.0)
        assert np.all(np.abs(H.terms[(0, 0)].values[R_GRID >= 0.75 * RHO]) >= 0.3)
        assert np.array_equal(np.sign(H.terms[(0, 0)].at_r([1.01, 1.015])), [1.0, -1.0])
        with pytest.raises(DomainError, match="nearly singular") as err:
            step(H, RHO)
        assert err.value.margins["inv_bound"] == np.inf

    def test_continuation_distance_enters_the_inverse_bound(self):
        # Im w00 = 1/2 keeps the continuation 1/2 away from 0, nearer than any grid read
        H = self._continued_hamiltonian(0.5)
        assert np.min(np.abs(H.terms[(0, 0)].values[R_GRID >= 0.75 * RHO])) > 0.55
        _, info = rgflow.decimate(H, RHO)
        assert info.inv_bound == 2.0

    def test_first_order_step_truncates_and_charges_dropped_orders(self):
        # at s_max = 1 the step keeps W - W G W up to M_max; the product's
        # kernels above M_max are charged at their Banach weight, which is the
        # M_max = 4 decimation's own charge plus the norms of the order-3 and
        # order-4 kernels it keeps
        grid = build_mode_grid(4, 0.5, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
        H = ground_sector_hamiltonian(spec, grid, 0.0)
        Hp, info = rg_step(H, RHO, s_max=1)
        assert all(m + n <= H.M_max for (m, n) in Hp.terms)

        F4, info4 = rgflow.decimate(NormalFormHamiltonian(H.terms, grid, 4), RHO, s_max=1)
        above = [key for key in F4.terms if sum(key) > H.M_max]
        assert above and all(sum(key) in (3, 4) for key in above)
        expected = info4.dropped_norm
        for key in above:
            expected += term_norm(F4.terms[key])
        assert info.dropped_norm > 0.0
        assert info.dropped_norm == pytest.approx(expected, rel=1e-13)
        assert rg_step(H, RHO, s_max=0)[1].dropped_norm == 0.0

    @pytest.mark.parametrize("rho", [0.5, 0.3, 0.25])
    @pytest.mark.parametrize("which", ["model", "random"])
    def test_cut_rows_match_full_rows(self, monkeypatch, which, rho):
        # the s = 2 product is tabulated up to the first R_GRID point above
        # rho (on a point of R_GRID at 0.5 and 0.25, between two at 0.3, on
        # nodes closed under k -> 0.3 k); the step is bit for bit the one that
        # tabulates every row
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=3e-3, kappa=1.0)
        H = (ground_sector_hamiltonian(spec, _closed_grid(rho), 0.0) if which == "model"
             else _random_hamiltonian(rho))
        got, got_info = rg_step(H, rho)
        cut = []

        def full_rows(*args, rows=None, **kwargs):
            cut.append(rows)
            return normal_order_product(*args, **kwargs)

        monkeypatch.setattr(rgflow, "normal_order_product", full_rows)
        ref, ref_info = rg_step(H, rho)
        assert cut[-1] == np.searchsorted(R_GRID, rho, side="right") + 1 < len(R_GRID)
        assert got_info == ref_info
        assert got.terms.keys() == ref.terms.keys()
        for key, w in ref.terms.items():
            assert got.terms[key].values.tobytes() == w.values.tobytes(), key
            assert got.terms[key].dr_values.tobytes() == w.dr_values.tobytes(), key

    def test_blow_up_raises_domain_error(self):
        # a scalar part of 1.5e308 passes the Neumann and inverse checks, and
        # its 1/rho expansion overflows
        grid = build_mode_grid(4, 0.5, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
        H = ground_sector_hamiltonian(spec, grid, 0.0)
        huge = CouplingFunction(0, 0, grid.nodes, np.full(len(R_GRID), 1.5e308))
        H = NormalFormHamiltonian({**H.terms, (0, 0): huge}, grid)
        with pytest.raises(DomainError) as err:  # and no RuntimeWarning on the way
            rg_step(H, RHO)
        assert str(err.value) == "the rescaled (0,0) kernel is not finite"
        assert err.value.margins.keys() == {"q", "inv_bound", "dropped_norm"}
        assert err.value.margins["q"] < 1.0

    @staticmethod
    def _hidden_orders(offset, kernels):
        """H = offset + H_f + W on 4 geometric modes to k_max = 1 at M_max = 4,
        W of constant kernels {(m, n): value}.  measured_q's n_max = 2 basis
        cannot see kernels of order 3 or 4, so q stays small at any size of theirs."""
        grid = build_mode_grid(4, 1.0, "geometric")
        terms = {(0, 0): CouplingFunction(0, 0, grid.nodes, offset + R_GRID)}
        for (m, n), value in kernels.items():
            table = np.full((len(R_GRID),) + slot_shape(len(grid.nodes), m, n), value)
            terms[(m, n)] = CouplingFunction(m, n, grid.nodes, table)
        return NormalFormHamiltonian(terms, grid, 4)

    @pytest.mark.parametrize("case", ["product", "sum"])
    def test_overflow_in_decimation_raises_domain_error(self, case):
        # product: the s = 1 product contracts the (0,4) kernel against the
        # (4,0) one, 1e400 summed into every kernel of order <= 4 it keeps.
        # sum: every kernel of W G W is finite, but the (0,4)-(1,0)
        # contraction adds ~6e306 to W's (0,3) kernel of 1.79e308
        if case == "product":
            H = self._hidden_orders(0.0, {(0, 1): 1e-3, (4, 0): 1e200, (0, 4): 1e200})
            s_max, message = 2, "the s = 1 Neumann product: the (2,2) kernel is not finite"
        else:
            H = self._hidden_orders(0.5, {(1, 0): 0.05, (0, 4): -1.7e308, (0, 3): 1.79e308})
            s_max, message = 1, "the decimated Hamiltonian: the (0,3) kernel is not finite"
        for step in (rgflow.decimate, rg_step):
            with pytest.raises(DomainError) as err:  # and no RuntimeWarning on the way
                step(H, RHO, s_max)
            assert str(err.value) == message
            assert err.value.margins.keys() == {"q", "inv_bound", "dropped_norm"}
            assert err.value.margins["q"] < 0.05

    @pytest.mark.parametrize("step", ["rg_step", "decimate"])
    def test_other_value_errors_in_a_product_are_not_domain_errors(self, monkeypatch, step):
        # only a kernel that is not finite, as an overflow leaves it, makes a
        # DomainError; any other ValueError in a product leaves the step as raised
        def broken(*args):
            raise ValueError("cannot reshape array of size 26136 into shape (33,8,120)")

        H = TestFlow._model_builder()(0.0)
        monkeypatch.setattr(rgflow, "_pair_product", broken)
        with pytest.raises(ValueError, match="cannot reshape array") as err:
            getattr(rgflow, step)(H, RHO)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("step", ["rg_step", "decimate"])
    @pytest.mark.parametrize("rho, s_max", [(0.0, 2), (0.6, 2), (RHO, -1), (RHO, 3)])
    def test_step_parameters_are_refused_before_any_product(self, monkeypatch, step, rho,
                                                            s_max):
        def no_work(*args, **kwargs):
            raise AssertionError("the step did work with parameters it must refuse")

        H = TestFlow._model_builder()(0.0)
        monkeypatch.setattr(rgflow, "measured_q", no_work)
        monkeypatch.setattr(rgflow, "normal_order_product", no_work)
        message = r"rho must lie in \(0, 1/2\]" if s_max == 2 else "s_max must be 0, 1 or 2"
        with pytest.raises(ValueError, match=message) as err:
            getattr(rgflow, step)(H, rho, s_max)
        assert type(err.value) is ValueError

    def test_fourth_order_flow_matches_second_order(self):
        # keeping orders up to 4 on the 4-mode model moves e_final by less
        # than the M_max = 4 flow's own budget
        grid = build_mode_grid(4, 0.5, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
        trajs = {}
        for M_max in (2, 4):
            def builder(lam, M_max=M_max):
                return NormalFormHamiltonian(ground_sector_hamiltonian(spec, grid, lam).terms,
                                             grid, M_max)

            trajs[M_max] = flow(builder(0.0), RHO, 2, builder=builder)
        assert np.isfinite(trajs[4].budget)
        assert abs(trajs[4].e_final - trajs[2].e_final) <= trajs[4].budget

    def test_nodes_not_closed_are_refused_before_any_product(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("rg_step did work on nodes it must refuse")

        grid = build_mode_grid(4, 0.5, "uniform")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
        H = ground_sector_hamiltonian(spec, grid, 0.0)  # the builder's own product runs here
        monkeypatch.setattr(rgflow, "measured_q", no_work)
        monkeypatch.setattr(rgflow, "normal_order_product", no_work)
        with pytest.raises(DomainError, match=r"rho k = 0\.09375 \(k = 0\.1875, rho = 0\.5\)"):
            rg_step(H, RHO)

    def test_step_on_modes_to_one_reads_no_clamped_kernel(self):
        # k_max = 1: measured_q's n_max = 2 basis reaches field energy 1.41,
        # but W is read there only at one-photon energies, up to 0.71
        grid = build_mode_grid(8, 1.0, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, info = rg_step(ground_sector_hamiltonian(spec, grid, 0.0), RHO)
        assert info.q < 1.0

    def test_real_hamiltonian_steps_in_real_arithmetic(self):
        # at real lambda every table of F and of the step's output is float64;
        # the calibration's random kernels are complex and stay so
        grid = build_mode_grid(8, 1.0, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
        H = ground_sector_hamiltonian(spec, grid, 1e-6)
        R = _random_polydisc_hamiltonian(np.random.default_rng(0), grid, RHO, RHO / 16.0)
        for Hin, dtype in ((H, np.float64), (R, np.complex128)):
            F, _ = rgflow.decimate(Hin, RHO)
            Hp, _ = rg_step(Hin, RHO)
            for K in (Hin, F, Hp):
                assert {(w.values.dtype, w.dr_values.dtype) for w in K.terms.values()} == {
                    (np.dtype(dtype), np.dtype(dtype))}

    def test_real_and_complex_arithmetic_take_one_path(self):
        # an imaginary shift far below rounding makes every table complex; the
        # real parts must be the real step's kernels, so the two are one code path
        grid = build_mode_grid(8, 1.0, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
        H = ground_sector_hamiltonian(spec, grid, 0.0)
        (Hp, info), (Hc, info_c) = rg_step(H, RHO), rg_step(shifted(H, 1e-30j), RHO)
        assert list(Hc.terms) == list(Hp.terms)
        for key, w in Hp.terms.items():
            wc = Hc.terms[key]
            assert wc.values.dtype == np.complex128
            for got, want in ((wc.values, w.values), (wc.dr_values, w.dr_values)):
                assert np.max(np.abs(got.real - want)) <= 1e-15 * np.max(np.abs(want))
        for name in ("q", "neumann_remainder", "dropped_norm", "inv_bound"):
            assert getattr(info_c, name) == pytest.approx(getattr(info, name), rel=1e-15, abs=0)

    def test_interaction_contracts_on_model(self, model_flows):
        from specrg._calibration import C_RG
        from specrg.models import ground_sector_hamiltonian
        inst = model_flows[1e-3]
        H = ground_sector_hamiltonian(inst["spec"], inst["grid"],
                                      lam=inst["traj"].e_final.real)
        gamma0 = interaction_norm(H)
        Hp, info = rg_step(H, RHO)
        gamma1 = interaction_norm(Hp)
        assert gamma1 <= C_RG * RHO ** 0.5 * gamma0 * (1.0 + 1e-9)
        assert info.q < 1.0


class TestWholeStep:
    """decimate's F against the dense feshbach_map of the same H at rho = 1/2, on
    the chi states whose Fock truncation is exact to Neumann order 2 (at most
    n_max - 4 photons)."""

    @pytest.fixture(scope="class")
    def basis(self):
        return build_fock_basis(build_mode_grid(4, 1.0, "geometric"), 8)

    @staticmethod
    def _defects(H, basis):
        """(vacuum defect, block defect, StepInfo) of decimate(H) against dense."""
        F, info = rgflow.decimate(H, RHO)
        hf = basis.hf_diagonal()
        # the interaction kernels are read at field energies up to n_max k_max = 8
        with pytest.warns(UserWarning, match="clamped"):
            tau = assemble_term(H.terms[(0, 0)], basis)
            Hd = np.asarray(assemble_operator(H, basis))
            Fk = np.asarray(assemble_operator(F, basis))
        dense = feshbach_map(Hd, tau, spectral_projection(basis, RHO))
        keep = np.flatnonzero((hf <= RHO) & (basis.states.sum(axis=1) <= basis.n_max - 4))
        assert keep[0] == 0 and not basis.states[0].any()  # the vacuum comes first
        D = (dense.F - Fk)[np.ix_(keep, keep)]
        return abs(D[0, 0]), float(np.linalg.norm(D, 2)), info

    @pytest.mark.parametrize("which", ["model 5e-3", "model 2e-2", "random 0", "random 1"])
    def test_decimation_matches_dense_feshbach_map(self, basis, which):
        kind, value = which.split()
        if kind == "model":
            spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=float(value), kappa=1.0)
            H = ground_sector_hamiltonian(spec, basis.grid, 0.0)
        else:
            H = _random_polydisc_hamiltonian(np.random.default_rng(int(value)), basis.grid, RHO,
                                             RHO / 16.0)
        vacuum, block, info = self._defects(H, basis)
        assert vacuum <= info.neumann_remainder
        assert block <= info.budget
        # the block defect is the dropped orders': keeping orders up to 4 shrinks it
        _, block4, _ = self._defects(NormalFormHamiltonian(H.terms, H.grid, 4), basis)
        assert 10.0 * block4 <= block


class TestPolydisc:
    """recursion_constant: the recursion read backwards, the smallest c one step needs."""

    @staticmethod
    def _forward(before, c, rho):
        """The image of before under the recursion with constant c."""
        E, beta, gamma = before
        quad = c * gamma ** 2 / (2 * rho)
        return abs(E) / rho + quad, beta + quad, c * rho ** MU * gamma

    def test_flow_formula_from_pure_interaction(self):
        g, c, rho = 1e-3, 2.0, 0.25
        quad = g ** 2 / (2 * rho)
        after = (c * quad, c * quad, c * rho ** MU * g)
        assert recursion_constant((0.0, 0.0, g), after, rho) == pytest.approx(c, rel=1e-14)

    def test_five_fold_gamma_iteration(self):
        # every step of the recursion at constant c needs c, also once E and
        # beta have grown and |E|/rho nearly cancels in the E ratio
        g, c, rho = 1e-3, 1.5, 0.25
        p = (0.0, 0.0, g)
        for _ in range(5):
            q = self._forward(p, c, rho)
            assert recursion_constant(p, q, rho) == pytest.approx(c, rel=1e-9)
            p = q

    @pytest.mark.parametrize("term", ["E", "beta", "gamma"])
    def test_each_term_dominates_in_turn(self, term):
        # the step needs c = 1 in two coordinates and c = 3 in the third; E is
        # complex and only its modulus counts
        rho, E, beta, gamma = 0.5, 1e-4 + 1e-4j, 2e-3, 1e-2
        need = {"E": 1.0, "beta": 1.0, "gamma": 1.0, term: 3.0}
        quad = gamma ** 2 / (2 * rho)
        after = (-1j * (abs(E) / rho + need["E"] * quad), beta + need["beta"] * quad,
                 need["gamma"] * rho ** MU * gamma)
        assert recursion_constant((E, beta, gamma), after, rho) == pytest.approx(3.0, rel=1e-12)

    def test_flow_formula_with_zero_gamma(self):
        # at gamma = 0 the recursion is E -> E/rho and fixes no c
        for gamma in (0.0, -1e-3):
            with pytest.raises(ValueError, match="gamma > 0"):
                recursion_constant((4e-3, 2e-3, gamma), (8e-3, 2e-3, 0.0), 0.25)

    @pytest.mark.parametrize("radius", ["alpha", "beta", "gamma"])
    def test_nan_radius_rejected(self, radius):
        # max() passes or drops a NaN by its position, so a NaN in any of
        # (E, beta, gamma), before or after the step, raises
        i = ["alpha", "beta", "gamma"].index(radius)
        for side in (0, 1):
            coords = [[1e-4, 2e-3, 1e-2], [3e-4, 2.1e-3, 8e-3]]
            coords[side][i] = float("nan")
            with pytest.raises(ValueError):
                recursion_constant(tuple(coords[0]), tuple(coords[1]), 0.5)


class TestFlow:
    def test_field_hamiltonian_gives_null_trajectory(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        H = _scalar_hamiltonian(0.0, grid)
        traj = flow(H, RHO, 4)
        # the family H_f - lam is affine, so its interpolant's root is exact
        # up to rounding
        assert abs(traj.e_final) < 1e-15
        for rec in traj.records:
            # each record carries the family interpolated at that root, whose
            # vacuum component vanishes there
            assert abs(rec.E) < 1e-15
            assert rec.gamma == 0.0
            assert rec.budget == 0.0

    def test_scalar_shift_flow_recovers_shift(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        E = 3.3e-4
        H = _scalar_hamiltonian(E, grid)
        traj = flow(H, RHO, 6)
        assert traj.e_final.real == pytest.approx(E, abs=2e-9)

    def test_csv_columns(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        H = _scalar_hamiltonian(0.0, grid)
        traj = flow(H, RHO, 2)
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "step,e_re,e_im,beta,gamma,budget"
        assert len(lines) == 3

    def _scalar_builder(self, energy):
        """Builder of the scalar Hamiltonians E(lam) + H_f at an array lam, whose vacuum
        components after n steps are E(lam) / rho^n."""
        grid = build_mode_grid(4, 0.5, "geometric")
        return lambda lam: _scalar_hamiltonian(np.broadcast_to(energy(lam), np.shape(lam)), grid)

    def test_flow_leaves_H0_unchanged(self):
        H0 = TestFlow._model_builder()(0.0)
        before = {key: (w.values.copy(), w.dr_values.copy()) for key, w in H0.terms.items()}
        flow(H0, RHO, 2)
        for key, w in H0.terms.items():
            assert np.array_equal(w.values, before[key][0])
            assert np.array_equal(w.dr_values, before[key][1])

    def test_H0_gives_e0_and_builder_the_points(self):
        # H0 sits 1e-3 above the builder's H(0), so step 1 centres on its
        # vacuum value and the builder is called at those points alone
        energy = self._scalar_builder(lambda lam: 3.3e-4 - lam)
        lams = []

        def builder(points):
            lams.append(points)
            return energy(points)

        H0 = energy(-1e-3)
        traj = flow(H0, RHO, 2, builder=builder)
        assert len(lams) == 1
        assert lams[0] == pytest.approx(self._points(1.33e-3, 1))
        assert traj.e_final.real == pytest.approx(3.3e-4, abs=1e-12)
        # without a builder the family is shifted(H0, lam) at the points
        default = flow(H0, RHO, 2, builder=lambda points: rgflow._stack(
            [shifted(H0, lam) for lam in points]))
        assert flow(H0, RHO, 2).to_csv() == default.to_csv()

    @staticmethod
    def _points(center, n):
        """The Chebyshev points of the step-n interval center -/+ rho^n / 8."""
        x = np.cos(np.pi * (np.arange(rgflow.DEGREE, -1, -1) + 0.5) / (rgflow.DEGREE + 1))
        return center + RHO ** n / 8 * x

    def test_no_sign_change_stalls(self):
        builder = self._scalar_builder(lambda lam: 0.01)
        with pytest.raises(FlowStalledError, match="has 0 roots on the step-1 interval") as info:
            flow(builder(0.0), RHO, 1, builder=builder)
        assert info.value.nodes == pytest.approx(self._points(0.01, 1))

    def test_rising_interior_stalls(self):
        # E rises on |lam| < 1/32, which holds the two inner points, so the
        # cubic through the four points crosses zero three times
        builder = self._scalar_builder(lambda lam: np.where(np.abs(lam) < 1 / 32, 3.0 * lam, -lam))
        with pytest.raises(FlowStalledError, match="has 3 roots on the step-1 interval") as info:
            flow(builder(0.0), RHO, 1, builder=builder)
        assert info.value.nodes == pytest.approx(self._points(0.0, 1))

    def test_unresolved_family_stalls(self):
        # at the four points T_5 aliases onto T_3, so (16 lam)^5 leaves a cubic
        # coefficient of 1e-3 / 4 that the last step's tolerance E_TOL refuses
        builder = self._scalar_builder(lambda lam: -lam + 1e-3 * (16 * lam) ** 5)
        with pytest.raises(FlowStalledError, match="family not resolved") as info:
            flow(builder(0.0), RHO, 1, builder=builder)
        assert info.value.nodes == pytest.approx(self._points(0.0, 1))

    def test_root_off_middle_stalls(self):
        # the root 0.1 sits at 0.8 of the half-width from e_0 = 0.05, outside
        # the middle 1 - rho where step 2's points would have to lie
        builder = self._scalar_builder(lambda lam: 0.05 - lam / 2)
        with pytest.raises(FlowStalledError, match="outside the middle") as info:
            flow(builder(0.0), RHO, 2, builder=builder)
        assert info.value.nodes == pytest.approx(self._points(0.05, 1))
        # with no step after it the same root is accepted
        assert flow(builder(0.0), RHO, 1, builder=builder).e_final.real == pytest.approx(0.1)

    @staticmethod
    def _model_builder(n_modes=4, g=3e-3):
        grid = build_mode_grid(n_modes, 0.5, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=g, kappa=1.0)
        return lambda lam: ground_sector_hamiltonian(spec, grid, lam)

    def test_few_map_evaluations_per_step(self, monkeypatch):
        calls = Counter()

        def counted(H, rho, s_max=2):
            calls["rg_step"] += 1
            return rg_step(H, rho, s_max=s_max)

        model = self._model_builder()

        def builder(lam):
            calls["builder"] += 1
            return model(lam)

        monkeypatch.setattr(rgflow, "rg_step", counted)
        flow(model(0.0), RHO, 3, s_max=0, builder=builder)
        # H0 gives e_0 and one builder call the family at step 1's DEGREE + 1
        # points; every step applies rg_step once, to the family of its points
        assert calls == {"rg_step": 3, "builder": 1}

    def test_ten_step_flow_matches_dense_ground_energy(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=3e-3, kappa=1.0)

        def builder(lam):
            return ground_sector_hamiltonian(spec, grid, lam)

        traj = flow(builder(0.0), RHO, 10, builder=builder)
        model = build_model(spec, build_fock_basis(grid, 2))
        e0 = float(np.min(np.linalg.eigvalsh(model.H)))
        assert len(traj.records) == 10
        assert abs(traj.e_final.real - e0) <= rgflow.E_TOL

    def test_root_matches_fine_bisection(self):
        builder = self._model_builder()
        traj = flow(builder(0.0), RHO, 2, s_max=0, builder=builder)

        def replay(lam):
            """R^2(H(lam)) and the budget of its two steps."""
            H, budget = builder(lam), 0.0
            for _ in range(2):
                H, info = rg_step(H, RHO, s_max=0)
                budget += info.budget
            return H, budget

        def vacuum(lam):
            return replay(lam)[0].terms[(0, 0)].values[0].real

        e = traj.e_final.real
        a, b = e - RHO ** 2 / 8, e + RHO ** 2 / 8
        assert vacuum(a) > 0.0 > vacuum(b)
        while b - a > 1e-12:
            mid = 0.5 * (a + b)
            a, b = (mid, b) if vacuum(mid) > 0.0 else (a, mid)
        assert abs(e - 0.5 * (a + b)) <= rgflow.E_TOL
        # the last record holds the family interpolated at e, which differs
        # from the replay there by the interpolation error (4e-6 relative for
        # beta and gamma, 8e-5 for the budget)
        H, budget = replay(e)
        _, beta, gamma = polydisc_coordinates(H)
        rec = traj.records[-1]
        assert (rec.beta, rec.gamma, rec.budget) == pytest.approx((beta, gamma, budget), rel=1e-3)


class TestFamily:
    """rg_step on a family, its kernels stacked on a leading member axis, against a
    loop of rg_step over the members."""

    @staticmethod
    def _per_member_equal(family, s_max=2):
        """The stacked step equals the per-member steps bit for bit, each member's kernels,
        r-derivatives and StepInfo fields."""
        got, infos = rg_step(family, RHO, s_max)
        n = len(family.terms[(0, 0)].values)
        assert len(infos) == n
        for i in range(n):
            ref, ref_info = rg_step(rgflow._member(family, i), RHO, s_max)
            assert infos[i] == ref_info
            assert got.terms.keys() == ref.terms.keys()
            for key, w in ref.terms.items():
                mine = rgflow._member(got, i).terms[key]
                assert mine.values.dtype == w.values.dtype, key
                assert mine.values.tobytes() == w.values.tobytes(), (i, key)
                assert mine.dr_values.tobytes() == w.dr_values.tobytes(), (i, key)
        return got

    @pytest.mark.parametrize("s_max", [0, 1, 2])
    def test_model_family_at_the_flow_points(self, s_max):
        # the builder's Hamiltonians at the step-1 Chebyshev points, then the
        # step-2 family interpolated from their images, as flow makes them
        builder = TestFlow._model_builder(g=5e-3)
        x = -np.cos(np.pi * (np.arange(rgflow.DEGREE + 1) + 0.5) / (rgflow.DEGREE + 1))
        e0 = split(builder(0.0))[0].real
        family = rgflow._stack([builder(lam) for lam in e0 + RHO / 8.0 * x])
        out = self._per_member_equal(family, s_max)
        coef = np.linalg.solve(np.vander(x), np.real(split(out)[0]))
        root = [r.real for r in np.roots(coef) if r.imag == 0 and abs(r) <= 1][0]
        self._per_member_equal(rgflow._combine(out, rgflow._lagrange(x, root + RHO * x)), s_max)

    def test_complex_random_family(self):
        # calibration's random polydisc kernels, complex and with odd orders
        grid = build_mode_grid(8, 0.5, "geometric")
        rng = np.random.default_rng(11)
        family = rgflow._stack([_random_polydisc_hamiltonian(rng, grid, RHO, RHO / 16.0)
                                for _ in range(3)])
        assert family.terms[(1, 0)].values.dtype == complex
        self._per_member_equal(family)

    @pytest.mark.parametrize("s_max, expected", [
        (0, (1.171864690924337e-05, 4.1120125413687825e-08, 0.0, 2.66667870149776)),
        (1, (1.171864690924337e-05, 4.818722305868125e-13, 7.827396829875156e-06,
             2.66667870149776)),
        (2, (1.171864690924337e-05, 5.6468905256163585e-18, 8.099287899600627e-06,
             2.66667870149776))])
    def test_family_of_one_is_the_single_step(self, s_max, expected):
        # a single H is the family of one: stacked by hand it steps alike, and its
        # StepInfo is the one the step computed member by member before families
        H = TestFlow._model_builder(g=5e-3)(0.0)
        single, info = rg_step(H, RHO, s_max)
        assert (info.q, info.neumann_remainder, info.dropped_norm, info.inv_bound) == (
            pytest.approx(expected, rel=1e-12))
        self._per_member_equal(rgflow._stack([H]), s_max)
        stacked, infos = rg_step(rgflow._stack([H]), RHO, s_max)
        assert infos == [info]
        for key, w in single.terms.items():
            assert stacked.terms[key].values[0].tobytes() == w.values.tobytes()

    @staticmethod
    def _member_hamiltonian(kind):
        """4 geometric modes to k_max = 1 at M_max = 4, one key set for every kind:
        ok passes; q fails the Neumann ratio; inv the inverse bound (E + r vanishes on
        the decimated region); inf overflows in the s = 1 product; rescale passes the
        decimation and overflows in its 1/rho expansion."""
        offset, small, big = {"inv": (-0.6, 1e-3, 1e-3), "q": (0.0, 5.0, 1e-3),
                              "inf": (0.0, 1e-3, 1e200), "rescale": (1.5e308, 1e-3, 1e-3),
                              "ok": (0.0, 1e-3, 1e-3)}[kind]
        return TestRgStep._hidden_orders(offset, {(1, 0): small, (0, 1): small,
                                                  (4, 0): big, (0, 4): big})

    @pytest.mark.parametrize("kinds", [("ok", "q", "inf", "inv"), ("ok", "inf", "ok", "inv"),
                                       ("ok", "ok", "q", "inf"), ("inv", "q"),
                                       ("ok", "rescale", "inf", "q"), ("q", "ok")])
    def test_the_lowest_failing_member_raises(self, kinds):
        # the error a loop over the members meets first, with its message and
        # margins, and no warning or crash from another member's numbers
        members = [self._member_hamiltonian(kind) for kind in kinds]
        first = next(i for i, kind in enumerate(kinds) if kind != "ok")
        for i, H in enumerate(members):
            if i < first:
                rg_step(H, RHO)
        with pytest.raises(DomainError) as ref:
            rg_step(members[first], RHO)
        for step in (rgflow.decimate, rg_step) if kinds[first] != "rescale" else (rg_step,):
            with pytest.raises(DomainError) as err:
                step(rgflow._stack(members), RHO)
            assert str(err.value) == str(ref.value)
            assert err.value.margins == ref.value.margins
        messages = {"q": "Neumann ratio", "inv": "nearly singular", "inf": "the s = 1 Neumann",
                    "rescale": "the rescaled (0,0)"}
        assert messages[kinds[first]] in str(ref.value)


class TestLiveNodes:
    """A step runs its Wick products on the live nodes, those where some kernel of the
    interaction is nonzero: after n steps at rho = 1/2 the rescaling has left the n lowest
    geometric nodes dead.  Every number is the whole grid's."""

    @staticmethod
    def _model(M_max=2, n_modes=8, k_max=1.0, g=5e-3):
        """The builder of the two-level model on geometric modes, its kernels kept to M_max."""
        grid = build_mode_grid(n_modes, k_max, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=g, kappa=1.0)
        return spec, grid, lambda lam: NormalFormHamiltonian(
            ground_sector_hamiltonian(spec, grid, lam).terms, grid, M_max)

    @staticmethod
    def _whole_grid_decimate(H):
        """decimate's F and StepInfo at s_max = 2, both products run on the whole grid."""
        w00, (_, W) = H.terms[(0, 0)], split(H)

        def G(r):
            out = np.zeros(r.shape, dtype=w00.values.dtype)
            out[r > RHO] = 1.0 / w00.at_r(r[r > RHO])
            return out

        series, dropped = [W], np.zeros(1)
        sup_G, cut = np.max(np.abs(G(R_GRID[R_GRID > RHO]))), np.searchsorted(R_GRID, RHO, "right")
        for max_order, rows in ((4, None), (H.M_max, int(cut) + 1)):
            term, d = normal_order_product(series[-1], W, G, H.masses, max_order=max_order,
                                           sup_G=sup_G, rows=rows)
            dropped += d
            series.append(term)
        F = {(0, 0): w00.values}
        for s, terms in enumerate(series):
            for key, w in terms.items():
                if w.order > H.M_max:
                    dropped += term_norm(w)
                else:
                    F[key] = F.get(key, 0) + (-1.0) ** s * w.values
        q = float(rgflow.measured_q(H, W, G))
        min_h0 = np.min(np.abs(w00.at_r(R_GRID[R_GRID >= 0.75 * RHO])))
        return F, rgflow.StepInfo(q, float(interaction_norm(H) * q ** 3 / (1.0 - q)),
                                  float(dropped[0]), float(1.0 / min_h0))

    @pytest.mark.parametrize("M_max", [2, 4])
    @pytest.mark.parametrize("step", [2, 3])
    def test_live_products_equal_the_whole_grid(self, M_max, step):
        H = self._model(M_max)[2](0.0)
        for _ in range(step - 1):
            H, _ = rg_step(H, RHO)
        assert len(rgflow._live_nodes(split(H)[1], 8)) == 9 - step
        F, info = decimate(H, RHO)
        ref, ref_info = self._whole_grid_decimate(H)
        assert info == ref_info
        assert F.terms.keys() == ref.keys()
        for key, vals in ref.items():
            w, whole = F.terms[key], CouplingFunction(*key, H.nodes, vals)
            assert w.values.dtype == whole.values.dtype, key
            # bit for bit, up to the sign of a zero (adding +0.0 makes every zero +0.0)
            for got, want in ((w.values, whole.values), (w.dr_values, whole.dr_values)):
                assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), key

    def test_products_see_the_live_nodes(self, monkeypatch):
        seen = []

        def spy(A_terms, B_terms, *args, **kwargs):
            seen.append({len(w.nodes) for w in (*A_terms.values(), *B_terms.values())})
            return normal_order_product(A_terms, B_terms, *args, **kwargs)

        H = self._model()[2](0.0)
        monkeypatch.setattr(rgflow, "normal_order_product", spy)
        for n in range(1, 6):  # step n's products see 9 - n nodes, the first step all 8
            seen.clear()
            H, _ = rg_step(H, RHO)
            assert seen == [{9 - n}] * 2, n
        seen.clear()
        rg_step(_random_polydisc_hamiltonian(np.random.default_rng(3), H.grid, RHO, RHO / 16.0),
                RHO)
        assert seen == [{8}] * 2

    def test_no_product_once_every_node_is_dead(self, monkeypatch):
        # on 4 geometric modes to k_max = 1/2 no node is live after 4 steps: from step 5
        # on W is 0, and a step runs no Wick product
        per_step = []

        def step(H, rho, s_max=2):
            per_step.append(0)
            return rg_step(H, rho, s_max)

        def product(*args, **kwargs):
            if per_step:  # the builder's own product runs before any step
                per_step[-1] += 1
            return normal_order_product(*args, **kwargs)

        builder = self._model(n_modes=4, k_max=0.5, g=3e-3)[2]
        monkeypatch.setattr(rgflow, "rg_step", step)
        monkeypatch.setattr(rgflow, "normal_order_product", product)
        traj = flow(builder(0.0), RHO, 10, builder=builder)
        assert per_step == [2] * 4 + [0] * 6
        assert [r.gamma for r in traj.records[4:]] == [0.0] * 6
        assert len({r.budget for r in traj.records[4:]}) == 1

    def test_order_four_flow_on_eight_modes_meets_dense(self):
        # 8 steps at M_max = 4 on 8 modes to k_max = 1: within the bar of the dense ground
        # energy, and the window error of the M_max = 2 flow (4.86e-7 relative)
        spec, grid, builder = self._model(4)
        traj = flow(builder(0.0), RHO, 8, builder=builder)
        e0 = oracle.ground_energy(spec, build_fock_basis(grid, 3))
        assert abs(traj.e_final.real - e0) <= traj.budget
        assert abs(traj.e_final.real - e0) <= 1e-6 * abs(e0)
