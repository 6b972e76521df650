"""Scaling transformation, Wick ordering, one renormalization step, the flow."""

from collections import Counter
from itertools import product
from math import comb, factorial

import numpy as np
import pytest

from specrg.fock import ModeGrid, build_fock_basis, build_mode_grid
from specrg.normalform import (FOUR_PI, MU, XI, CouplingFunction, NormalFormHamiltonian,
                               assemble_term, coupling_norm_mu, coupling_norm_mu1,
                               default_r_grid, from_profile, interaction_norm, slot_masses,
                               split, symmetrized)
from specrg import rgflow
from specrg.models import ModelSpec, build_model, ground_sector_hamiltonian
from specrg.rgflow import (DomainError, FlowStalledError, PolydiscParams, flow,
                           normal_order_product, parameter_flow, polydisc_coordinates,
                           polydisc_membership, rg_step, scale_coupling)

RHO = 0.5


def _field_kernel(nodes, r_grid=None):
    r_grid = default_r_grid() if r_grid is None else r_grid
    return from_profile(0, 0, r_grid, nodes, lambda r: r)


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


def _scalar_hamiltonian(E, grid):
    w00 = from_profile(0, 0, default_r_grid(), grid.nodes, lambda r: E + r)
    return NormalFormHamiltonian({(0, 0): w00}, slot_masses(grid))


class TestScaling:
    def test_field_kernel_is_fixed_point(self):
        nodes = np.geomspace(0.05, 0.5, 5)
        w = _field_kernel(nodes)
        scaled = scale_coupling(w, RHO)
        assert np.max(np.abs(scaled.values - w.values)) < 1e-12

    def test_constant_expands_by_inverse_rho(self):
        nodes = np.array([0.25])
        E = 0.1 - 0.03j
        w = from_profile(0, 0, default_r_grid(), nodes, lambda r: E)
        scaled = scale_coupling(w, RHO)
        assert np.allclose(scaled.values, E / RHO)

    def test_critical_kernel_contracts_by_rho_mu(self):
        mu = 0.5
        nodes = np.geomspace(0.02, 0.5, 7)
        w = from_profile(1, 0, default_r_grid(), nodes, lambda r, k: k ** (mu - 0.5))
        scaled = scale_coupling(w, RHO)
        ratio = coupling_norm_mu(scaled, mu) / coupling_norm_mu(w, mu)
        assert ratio <= RHO ** mu * (1.0 + 1e-9)

    def test_contraction_bound_for_random_profiles(self):
        rng = np.random.default_rng(2)
        nodes = np.geomspace(0.02, 0.5, 6)
        for mu in (0.25, 0.5):
            for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 0)]:
                w = from_profile(m, n, default_r_grid(), nodes, _power_profile(rng, mu))
                scaled = scale_coupling(w, RHO)
                ratio = coupling_norm_mu(scaled, mu) / coupling_norm_mu(w, mu)
                bound = RHO ** (m + n - 1 + (mu if m + n == 1 else 0.0))
                assert ratio <= bound * (1.0 + 1e-9)

    @pytest.mark.parametrize("n_modes", [6, 8])
    def test_contraction_bound_when_interpolated(self, n_modes):
        # rg_step's kernels carry no profile, so scale_coupling interpolates
        # them; on the dyadic nodes of a geometric mode grid the targets rho k
        # land on nodes and the bound holds to rounding
        rng = np.random.default_rng(2)
        nodes = build_mode_grid(n_modes, 0.5, "geometric").nodes
        for mu in (0.25, 0.5):
            for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
                tab = from_profile(m, n, default_r_grid(), nodes, _power_profile(rng, mu))
                w = CouplingFunction(m, n, tab.r_grid, tab.nodes, tab.values)
                scaled = scale_coupling(w, RHO)
                ratio = coupling_norm_mu(scaled, mu) / coupling_norm_mu(w, mu)
                bound = RHO ** (m + n - 1 + (mu if m + n == 1 else 0.0))
                assert ratio <= bound * (1.0 + 1e-12)

    def test_invalid_rho(self):
        w = _field_kernel(np.array([0.25]))
        with pytest.raises(ValueError):
            scale_coupling(w, 1.5)


class TestFieldSupportMask:
    @pytest.mark.parametrize("m, n", [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)])
    def test_keeps_entries_whose_field_energies_fit(self, m, n):
        # r + k crosses 1 on this grid, and 0.25 + 0.75 and 0.5 + 0.5 hit it exactly
        r_grid = np.linspace(0.0, 1.0, 5)
        nodes = np.array([0.1, 0.5, 0.75])
        shape = (len(r_grid),) + (len(nodes),) * (m + n)
        rng = np.random.default_rng(10 * m + n)
        vals, dr = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    for _ in range(2))
        out = rgflow._apply_field_support_mask(
            CouplingFunction(m, n, r_grid, nodes, vals, dr_values=dr))
        kept = 0
        for idx in np.ndindex(*shape):
            r, ks = r_grid[idx[0]], [nodes[i] for i in idx[1:]]
            keep = r + sum(ks[:m]) <= 1.0 + 1e-12 and r + sum(ks[m:]) <= 1.0 + 1e-12
            assert out.values[idx] == (vals[idx] if keep else 0.0)
            assert out.dr_values[idx] == (dr[idx] if keep else 0.0)
            kept += keep
        assert 0 < kept < vals.size


class TestWickOrdering:
    """Cross-checks of the re-normal-ordering against dense matrix algebra."""

    def _aligned_setup(self, seed=0):
        # nodes at multiples of the r-grid spacing, so every pull-through
        # shift lands exactly on grid points and interpolation is exact
        r_grid = np.linspace(0.0, 1.0, 33)
        nodes = np.array([2.0 / 32.0, 3.0 / 32.0])
        masses = np.array([0.011, 0.017])
        rng = np.random.default_rng(seed)
        return r_grid, nodes, masses, rng

    def test_single_contraction_closed_form(self):
        # (0,1) kernel times (1,0) kernel: the p=1 contraction produces the
        # scalar correction sum_q mass_q wA(r; k_q) G(r + k_q) wB(r; k_q)
        r_grid, nodes, masses, rng = self._aligned_setup(1)
        vA = rng.standard_normal((33, 2)) + 1j * rng.standard_normal((33, 2))
        vB = rng.standard_normal((33, 2)) + 1j * rng.standard_normal((33, 2))
        wA = CouplingFunction(0, 1, r_grid, nodes, vA)
        wB = CouplingFunction(1, 0, r_grid, nodes, vB)
        G = lambda r: 1.0 / (np.asarray(r) + 2.0)
        out, _ = normal_order_product({(0, 1): wA}, {(1, 0): wB}, G, masses,
                                      max_order=2, sup_G=0.5)
        expected = np.zeros(33, dtype=complex)
        for q, k in enumerate(nodes):
            expected += masses[q] * vA[:, q] * G(r_grid + k) * vB[:, q]
        assert np.allclose(out[(0, 0)].values, expected, atol=1e-13)

    def test_shifts_on_non_uniform_r_grid(self):
        # kernels linear in r interpolate exactly on any grid, so the p=0
        # (1,1) term of W[1+r](0,1) G W[1+r](1,0) is closed-form wherever the
        # shifted field energies r + k stay inside I
        r_grid = np.concatenate([np.linspace(0.0, 0.5, 9), np.linspace(0.5, 1.0, 25)[1:]])
        nodes = np.array([0.11, 0.23, 0.37])
        masses = np.array([0.01, 0.02, 0.03])
        lin = np.repeat((1.0 + r_grid)[:, np.newaxis], 3, axis=1)
        wA = CouplingFunction(0, 1, r_grid, nodes, lin)
        wB = CouplingFunction(1, 0, r_grid, nodes, lin)
        G = lambda r: 1.0 / (np.asarray(r) + 2.0)
        out, _ = normal_order_product({(0, 1): wA}, {(1, 0): wB}, G, masses,
                                      max_order=2, sup_G=0.5)
        r = r_grid[:, np.newaxis, np.newaxis]
        ki, kj = nodes[np.newaxis, :, np.newaxis], nodes[np.newaxis, np.newaxis, :]
        expected = (1.0 + r + ki) * G(r + ki + kj) * (1.0 + r + kj)
        inside = np.broadcast_to((r + ki <= 1.0) & (r + kj <= 1.0), expected.shape)
        got = out[(1, 1)].values
        assert np.max(np.abs(got - expected)[inside] / np.abs(expected[inside])) < 1e-14

    def _check_matrix_algebra(self, A_keys, B_keys, seed):
        # assemble W_A G(H_f) W_B on a truncated basis and compare matrix
        # elements on the truncation-blind block
        r_grid, nodes, masses, rng = self._aligned_setup(seed)
        grid = ModeGrid(nodes, masses * FOUR_PI)
        n_max = 4
        basis = build_fock_basis(grid, n_max)
        G = lambda r: 1.0 / (np.asarray(r) + 2.0)

        def rand_terms(keys):
            terms = {}
            for (m, n) in keys:
                shape = (33,) + (2,) * (m + n)
                vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                terms[(m, n)] = CouplingFunction(m, n, r_grid, nodes, symmetrized(vals, m, n))
            return terms

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
    def _random_W(seed):
        """Random symmetric kernels of every shape up to order 2 on 3 modes."""
        r_grid = default_r_grid()
        nodes = np.array([0.1, 0.2, 0.35])
        rng = np.random.default_rng(seed)
        W = {}
        for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
            shape = (len(r_grid),) + (3,) * (m + n)
            vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            W[(m, n)] = CouplingFunction(m, n, r_grid, nodes, symmetrized(vals, m, n))
        return W, np.array([0.01, 0.02, 0.03])

    def test_one_G_table_per_pair_and_contraction_order(self):
        # G is tabulated once per kept (kernel pair, p) on all slot tuples;
        # one call per (i2, j1) tuple would make 9 for the p = 0 term of
        # (1,1)(1,1) on 3 modes alone
        W, masses = self._random_W(4)
        calls = []

        def G(r):
            calls.append(np.shape(r))
            return 1.0 / (np.asarray(r) + 2.0)

        max_order = 3
        _, dropped = normal_order_product(W, W, G, masses, max_order=max_order, sup_G=0.5)
        kept = sum(1 for (m1, n1) in W for (m2, n2) in W for p in range(min(n1, m2) + 1)
                   if m1 + n1 + m2 + n2 - 2 * p <= max_order)
        assert dropped > 0.0  # order-4 terms are dropped, and make no G call
        assert 0 < len(calls) <= kept

    @staticmethod
    def _tuple_loop_product(A_terms, B_terms, G, masses, max_order):
        """Kept kernels of (sum A) G (sum B), one slot tuple (i2, j1) at a time."""
        out = {}
        for wA in A_terms.values():
            for wB in B_terms.values():
                (m1, n1), (m2, n2), nodes, r = (wA.m, wA.n), (wB.m, wB.n), wA.nodes, wA.r_grid
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
                            A = wA.at_r(r + sI)[(slice(None),) * (1 + m1) + j1]
                            B = wB.at_r(r + sJ)[(slice(None),) * (1 + p) + i2]
                            Gq = G(r[:, np.newaxis] + (sI + sJ) + omega) * mass
                            block = np.einsum("riq,rq,rqj->rij", A.reshape(R, M ** m1, len(qs)),
                                              Gq, B.reshape(R, len(qs), M ** n2))
                            arr[(slice(None),) * (1 + m1) + i2 + j1] += (
                                Cf * block).reshape((R,) + (M,) * (m1 + n2))
        return {key: symmetrized(arr, *key) for key, arr in out.items()}

    def test_batched_product_equals_tuple_loop(self):
        # the batched contraction keeps the loop's float operations, so the
        # kernels agree bit for bit, also where shifted reads clamp at r = 1
        W, masses = self._random_W(6)
        G = lambda r: np.where(np.asarray(r) > 0.25, 1.0 / (np.asarray(r) + 2.0), 0.0)
        n1, _ = normal_order_product(W, W, G, masses, max_order=4, sup_G=0.5)
        n2, _ = normal_order_product(n1, W, G, masses, max_order=2, sup_G=0.5)
        for got, (A, B, max_order) in ((n1, (W, W, 4)), (n2, (n1, W, 2))):
            ref = self._tuple_loop_product(A, B, G, masses, max_order)
            assert got.keys() == ref.keys()
            for key, arr in ref.items():
                assert np.array_equal(got[key].values, arr), key


class TestRgStep:
    def test_field_hamiltonian_is_fixed_point(self):
        grid = build_mode_grid(6, 0.5, "geometric")
        H = _scalar_hamiltonian(0.0, grid)
        Hp, info = rg_step(H, RHO)
        w = Hp.terms[(0, 0)]
        assert np.max(np.abs(w.values - H.r_grid)) < 1e-12
        assert info.budget == 0.0

    def test_scalar_shift_expands_exactly(self):
        grid = build_mode_grid(6, 0.5, "geometric")
        E = 0.01 + 0.002j
        H = _scalar_hamiltonian(E, grid)
        Hp, _ = rg_step(H, RHO)
        Ep, W = split(Hp)
        assert Ep == pytest.approx(E / RHO)
        assert np.allclose(Hp.terms[(0, 0)].values - Ep, Hp.r_grid)
        assert W == {}

    def test_measured_q_of_one_mode_shift(self):
        # on one mode with n_max = 2, G W for a constant (1,0) kernel c is the
        # weighted shift |0> -> |1> -> |2> with weights c sqrt(mass) G(k) and
        # c sqrt(mass) sqrt(2) G(2k); its norm is the larger weight
        grid = build_mode_grid(1, 0.5, "geometric")
        (k,), (mass,) = grid.nodes, slot_masses(grid)
        c = 0.3 - 0.4j
        w10 = from_profile(1, 0, default_r_grid(), grid.nodes, lambda r, kk: c)
        H = NormalFormHamiltonian({(0, 0): _field_kernel(grid.nodes), (1, 0): w10},
                                  slot_masses(grid))
        G = lambda r: 1.0 / (0.1 + np.asarray(r)) + 0.2j
        expected = abs(c) * np.sqrt(mass) * max(abs(G(k)), np.sqrt(2) * abs(G(2 * k)))
        assert rgflow.measured_q(H, {(1, 0): w10}, G) == pytest.approx(expected, rel=1e-12)
        assert rgflow.measured_q(H, {}, G) == 0.0

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
        w00 = _field_kernel(build_mode_grid(4, 0.5, "geometric").nodes)
        with pytest.raises(TypeError, match="masses"):
            NormalFormHamiltonian({(0, 0): w00})
        with pytest.raises(ValueError, match="masses"):
            NormalFormHamiltonian({(0, 0): w00}, None)

    def test_singular_scalar_part_raises_domain_error(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        # E + r vanishes inside the decimated region r >= 3 rho / 4
        H = _scalar_hamiltonian(-0.6, grid)
        with pytest.raises(DomainError):
            rg_step(H, RHO)

    def test_first_order_step_truncates_and_charges_dropped_orders(self):
        # at s_max = 1 the step keeps W - W G W up to M_max; the product's
        # kernels above M_max are charged at their Banach weight
        grid = build_mode_grid(4, 0.5, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
        H = ground_sector_hamiltonian(spec, grid, 0.0)
        Hp, info = rg_step(H, RHO, s_max=1)
        assert all(m + n <= H.M_max for (m, n) in Hp.terms)

        h0 = rgflow._h0_function(H.terms[(0, 0)])

        def G(r):
            r = np.asarray(r, dtype=float)
            out = np.zeros(r.shape, dtype=complex)
            out[r > RHO] = 1.0 / h0(r[r > RHO])
            return out

        _, W = split(H)
        sup_G = float(np.max(np.abs(G(H.r_grid[H.r_grid > RHO]))))
        product_terms, expected = normal_order_product(W, W, G, H.masses, max_order=4,
                                                       sup_G=sup_G)
        above = [key for key in product_terms if sum(key) > H.M_max]
        assert above and all(sum(key) in (3, 4) for key in above)
        for (m, n) in above:
            expected += XI ** (-(m + n)) * coupling_norm_mu1(product_terms[(m, n)], MU)
        assert info.dropped_norm > 0.0
        assert info.dropped_norm == pytest.approx(expected, rel=1e-13)
        assert rg_step(H, RHO, s_max=0)[1].dropped_norm == 0.0

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


class TestPolydisc:
    def test_field_hamiltonian_is_member(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        H = _scalar_hamiltonian(0.0, grid)
        p = PolydiscParams(alpha=0.01, beta=0.01, gamma=0.01, rho=0.25)
        member, margins = polydisc_membership(H, p)
        assert member and all(m >= 0 for m in margins)

    def test_scalar_violation_flags_first_margin(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        H = _scalar_hamiltonian(0.02, grid)
        p = PolydiscParams(alpha=0.01, beta=0.01, gamma=0.01, rho=0.25)
        member, margins = polydisc_membership(H, p)
        assert not member and margins[0] < 0

    def test_flow_formula_with_zero_gamma(self):
        p = PolydiscParams(alpha=0.004, beta=0.002, gamma=0.0, rho=0.25, c=2.0)
        q = parameter_flow(p)
        assert q.alpha == pytest.approx(p.alpha / p.rho)
        assert q.beta == pytest.approx(p.beta)
        assert q.gamma == 0.0

    def test_flow_formula_from_pure_interaction(self):
        g, c, rho = 1e-3, 2.0, 0.25
        p = PolydiscParams(alpha=0.0, beta=0.0, gamma=g, rho=rho, c=c)
        q = parameter_flow(p)
        assert q.alpha == pytest.approx(c * g ** 2 / (2 * rho))
        assert q.beta == pytest.approx(c * g ** 2 / (2 * rho))
        assert q.gamma == pytest.approx(c * rho ** MU * g)

    def test_five_fold_gamma_iteration(self):
        g, c, rho = 1e-3, 1.5, 0.25
        p = PolydiscParams(alpha=0.0, beta=0.0, gamma=g, rho=rho, c=c)
        for _ in range(5):
            p = parameter_flow(p)
        assert p.gamma / g == pytest.approx((c * rho ** MU) ** 5)

    def test_hypothesis_violation_warns(self):
        p = PolydiscParams(alpha=0.2, beta=0.0, gamma=0.0, rho=0.25)
        with pytest.warns(UserWarning, match="hypothesis"):
            parameter_flow(p)


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
        assert lines[0] == "step,e_re,e_im,E_abs,beta,gamma,budget"
        assert len(lines) == 3

    def _scalar_builder(self, energy):
        """Builder of scalar Hamiltonians E(lam) + H_f, whose vacuum component
        after n steps is E(lam) / rho^n."""
        grid = build_mode_grid(4, 0.5, "geometric")
        return lambda lam: _scalar_hamiltonian(energy(lam), grid)

    def test_flow_leaves_H0_unchanged(self):
        H0 = TestFlow._model_builder()(0.0)
        before = {key: (w.values.copy(), w.dr_values.copy()) for key, w in H0.terms.items()}
        flow(H0, RHO, 2)
        for key, w in H0.terms.items():
            assert np.array_equal(w.values, before[key][0])
            assert np.array_equal(w.dr_values, before[key][1])

    def test_builder_needs_no_H0(self):
        builder = self._scalar_builder(lambda lam: 3.3e-4 - lam)
        traj = flow(None, RHO, 2, builder=builder)
        assert traj.to_csv() == flow(builder(0.0), RHO, 2, builder=builder).to_csv()
        with pytest.raises(ValueError, match="H0 or a builder"):
            flow(None, RHO, 2)

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
        builder = self._scalar_builder(lambda lam: 3.0 * lam if abs(lam) < 1 / 32 else -lam)
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
        flow(None, RHO, 3, s_max=0, builder=builder)
        # builder reads e_0 and gives step 1 its points; every step applies
        # rg_step once per point
        assert calls == {"rg_step": 3 * (rgflow.DEGREE + 1), "builder": rgflow.DEGREE + 2}

    def test_ten_step_flow_matches_dense_ground_energy(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=3e-3, kappa=1.0)
        traj = flow(None, RHO, 10, builder=lambda lam: ground_sector_hamiltonian(spec, grid, lam))
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
