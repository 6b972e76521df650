"""Scaling transformation, Wick ordering, one renormalization step, the flow."""

import numpy as np
import pytest

from specrg.fock import ModeGrid, build_fock_basis, build_mode_grid
from specrg.normalform import (FOUR_PI, CouplingFunction, NormalFormHamiltonian,
                               assemble_term, coupling_norm_mu, default_r_grid,
                               from_profile, interaction_norm, split)
from specrg.rgflow import (DomainError, PolydiscParams, flow, normal_order_product,
                           parameter_flow, polydisc_membership, rg_step,
                           scale_coupling)

RHO = 0.5


def _field_kernel(nodes, r_grid=None):
    r_grid = default_r_grid() if r_grid is None else r_grid
    return from_profile(0, 0, r_grid, nodes, lambda r: r)


def _scalar_hamiltonian(E, nodes, masses=None):
    w00 = from_profile(0, 0, default_r_grid(), nodes, lambda r: E + r)
    return NormalFormHamiltonian({(0, 0): w00}, masses=masses)


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
                a0 = rng.standard_normal() + 1j * rng.standard_normal()
                a1 = rng.standard_normal()

                def prof(r, *ks, _a0=a0, _a1=a1):
                    out = (_a0 + _a1 * r)
                    for k in ks:
                        out = out * k ** (mu - 0.5)
                    return out

                w = from_profile(m, n, default_r_grid(), nodes, prof)
                scaled = scale_coupling(w, RHO)
                ratio = coupling_norm_mu(scaled, mu) / coupling_norm_mu(w, mu)
                bound = RHO ** (m + n - 1 + (mu if m + n == 1 else 0.0))
                assert ratio <= bound * (1.0 + 1e-9)

    def test_invalid_rho(self):
        w = _field_kernel(np.array([0.25]))
        with pytest.raises(ValueError):
            scale_coupling(w, 1.5)


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
                                      max_order=2, mu=0.5, xi=0.5, sup_G=0.5)
        expected = np.zeros(33, dtype=complex)
        for q, k in enumerate(nodes):
            expected += masses[q] * vA[:, q] * G(r_grid + k) * vB[:, q]
        assert np.allclose(out[(0, 0)].values, expected, atol=1e-13)

    def test_product_matches_matrix_algebra(self):
        # assemble W_A G(H_f) W_B on a truncated basis and compare matrix
        # elements on the truncation-blind block
        r_grid, nodes, masses, rng = self._aligned_setup(2)
        grid = ModeGrid(nodes, masses * FOUR_PI)
        n_max = 4
        basis = build_fock_basis(grid, n_max)
        G = lambda r: 1.0 / (np.asarray(r) + 2.0)

        def rand_terms(keys):
            terms = {}
            for (m, n) in keys:
                shape = (33,) + (2,) * (m + n)
                vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                terms[(m, n)] = CouplingFunction(m, n, r_grid, nodes, vals).symmetrize()
            return terms

        A = rand_terms([(1, 0), (0, 1), (1, 1)])
        B = rand_terms([(1, 0), (0, 1)])
        out, dropped = normal_order_product(A, B, G, masses, max_order=4,
                                            mu=0.5, xi=0.5, sup_G=0.5)
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


class TestRgStep:
    def _masses(self, grid):
        return grid.weights / FOUR_PI

    def test_field_hamiltonian_is_fixed_point(self):
        grid = build_mode_grid(6, 0.5, "geometric")
        H = _scalar_hamiltonian(0.0, grid.nodes, masses=self._masses(grid))
        Hp, info = rg_step(H, RHO)
        w = Hp.terms[(0, 0)]
        assert np.max(np.abs(w.values - H.r_grid)) < 1e-12
        assert info.budget == 0.0

    def test_scalar_shift_expands_exactly(self):
        grid = build_mode_grid(6, 0.5, "geometric")
        E = 0.01 + 0.002j
        H = _scalar_hamiltonian(E, grid.nodes, masses=self._masses(grid))
        Hp, _ = rg_step(H, RHO)
        Ep, T, W = split(Hp)
        assert Ep == pytest.approx(E / RHO)
        assert np.allclose(T.values, Hp.r_grid)
        assert W == {}

    def test_missing_masses_rejected(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        H = _scalar_hamiltonian(0.0, grid.nodes)
        with pytest.raises(ValueError, match="measure"):
            rg_step(H, RHO)

    def test_singular_scalar_part_raises_domain_error(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        # E + r vanishes inside the decimated region r >= 3 rho / 4
        H = _scalar_hamiltonian(-0.6, grid.nodes, masses=self._masses(grid))
        with pytest.raises(DomainError):
            rg_step(H, RHO)

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
        H = _scalar_hamiltonian(0.0, grid.nodes)
        p = PolydiscParams(alpha=0.01, beta=0.01, gamma=0.01, rho=0.25)
        member, margins = polydisc_membership(H, p)
        assert member and all(m >= 0 for m in margins)

    def test_scalar_violation_flags_first_margin(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        H = _scalar_hamiltonian(0.02, grid.nodes)
        p = PolydiscParams(alpha=0.01, beta=0.01, gamma=0.01, rho=0.25)
        member, margins = polydisc_membership(H, p)
        assert not member and margins[0] < 0

    def test_flow_formula_with_zero_gamma(self):
        p = PolydiscParams(alpha=0.004, beta=0.002, gamma=0.0, rho=0.25, mu=0.5, c=2.0)
        q = parameter_flow(p)
        assert q.alpha == pytest.approx(p.alpha / p.rho)
        assert q.beta == pytest.approx(p.beta)
        assert q.gamma == 0.0

    def test_flow_formula_from_pure_interaction(self):
        g, c, rho, mu = 1e-3, 2.0, 0.25, 0.5
        p = PolydiscParams(alpha=0.0, beta=0.0, gamma=g, rho=rho, mu=mu, c=c)
        q = parameter_flow(p)
        assert q.alpha == pytest.approx(c * g ** 2 / (2 * rho))
        assert q.beta == pytest.approx(c * g ** 2 / (2 * rho))
        assert q.gamma == pytest.approx(c * rho ** mu * g)

    def test_five_fold_gamma_iteration(self):
        g, c, rho, mu = 1e-3, 1.5, 0.25, 0.5
        p = PolydiscParams(alpha=0.0, beta=0.0, gamma=g, rho=rho, mu=mu, c=c)
        for _ in range(5):
            p = parameter_flow(p)
        assert p.gamma / g == pytest.approx((c * rho ** mu) ** 5)

    def test_hypothesis_violation_warns(self):
        p = PolydiscParams(alpha=0.2, beta=0.0, gamma=0.0, rho=0.25)
        with pytest.warns(UserWarning, match="hypothesis"):
            parameter_flow(p)


class TestFlow:
    def test_field_hamiltonian_gives_null_trajectory(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        H = _scalar_hamiltonian(0.0, grid.nodes, masses=grid.weights / FOUR_PI)
        traj = flow(H, RHO, 4)
        # the bisection stops at its terminal tolerance, not at machine zero
        assert abs(traj.e_final) < 1e-9
        for rec in traj.records:
            # each record carries the rescaled residual of the accepted
            # bisection iterate, bounded by the step tolerance rho/24
            assert abs(rec.E) <= RHO / 24.0 + 1e-12
            assert rec.gamma == 0.0
            assert rec.budget == 0.0

    def test_scalar_shift_flow_recovers_shift(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        E = 3.3e-4
        H = _scalar_hamiltonian(E, grid.nodes, masses=grid.weights / FOUR_PI)
        traj = flow(H, RHO, 6)
        assert traj.e_final.real == pytest.approx(E, abs=2e-9)

    def test_csv_columns(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        H = _scalar_hamiltonian(0.0, grid.nodes, masses=grid.weights / FOUR_PI)
        traj = flow(H, RHO, 2)
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "step,e_re,e_im,E_abs,beta,gamma,budget"
        assert len(lines) == 3
