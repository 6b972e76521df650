"""Coupling kernels, anisotropic norms, operator assembly, basic bound."""

import warnings
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrg.fock import (ModeGrid, build_fock_basis, build_mode_grid, field_hamiltonian,
                        ladder_matrix, ladder_walk)
from specrg.normalform import (FOUR_PI, MU, R_GRID, XI, CouplingFunction,
                               NormalFormHamiltonian, assemble_operator, assemble_term,
                               basic_bound_margin, coupling_norm_mu,
                               coupling_norm_mu1, from_profile,
                               hamiltonian_norm, interaction_norm,
                               multisets, shifted, slot_masses, slot_shape, split,
                               t_slope_deviation)
from specrg.models import ModelSpec, ground_sector_hamiltonian
from specrg.rgflow import scale_coupling


def _unit_grid(nodes):
    """Grid on nodes whose slot masses are 1."""
    return ModeGrid(nodes, FOUR_PI * np.ones(len(nodes)))


def _field_kernel(grid):
    return from_profile(0, 0, grid.nodes, lambda r: r)


def _const_kernel(m, n, grid):
    return from_profile(m, n, grid.nodes, lambda r, *ks: 0.1)


class TestCouplingFunction:
    def test_shape_validation(self):
        r = R_GRID
        with pytest.raises(ValueError, match="shape"):
            CouplingFunction(1, 0, np.array([0.5]), np.zeros((len(r), 2)))
        with pytest.raises(ValueError, match="nodes must be strictly increasing"):
            CouplingFunction(1, 0, np.array([0.5, 0.5]), np.zeros((len(r), 2)))

    def test_r_grid_is_read_only(self):
        # every kernel reads this one array, so a write would corrupt them all
        with pytest.raises(ValueError):
            R_GRID[1] = 0.5
        assert R_GRID[0] == 0.0 and R_GRID[-1] == 1.0

    def test_at_r_reproduces_grid_points(self):
        nodes = np.array([0.3, 0.6])
        w = from_profile(1, 0, nodes, lambda r, k: np.cos(r) * k)
        assert np.array_equal(w.at_r(R_GRID), w.values)
        # the r rule, on a real or a complex table of any order, is np.interp on
        # R_GRID column by column (of the real and imaginary parts of a complex
        # one), clamped outside I except that an order-0 kernel continues with
        # the slope of its last cell above r = 1, and keeps the table's dtype
        rng = np.random.default_rng(3)
        for order, dtype in iproduct(range(4), (float, complex)):
            m, n = order - order // 2, order // 2
            shape = (len(R_GRID),) + slot_shape(3, m, n)
            vals = rng.standard_normal(shape)
            if dtype is complex:
                vals = vals + 1j * rng.standard_normal(shape)
            w = CouplingFunction(m, n, np.array([0.2, 0.4, 0.8]), vals)
            assert w.values.dtype == dtype
            table = vals.copy()
            for x in (np.concatenate([R_GRID, [-0.5, 1.5], rng.uniform(-0.2, 1.2, 9)]),
                      rng.uniform(-0.2, 1.2, (2, 5)), np.float64(0.37)):
                x1 = np.atleast_1d(x)  # a scalar reads as one point
                expected = np.empty(x1.shape + shape[1:], dtype=dtype)
                for idx in np.ndindex(shape[1:]):
                    col = vals[(slice(None),) + idx]
                    expected[(Ellipsis,) + idx] = np.interp(x1, R_GRID, col.real)
                    if dtype is complex:
                        expected[(Ellipsis,) + idx] += 1j * np.interp(x1, R_GRID, col.imag)
                if order == 0:
                    expected += np.maximum(x1 - 1.0, 0.0) * (vals[-1] - vals[-2]) * 32.0
                got = w.at_r(x)
                assert got.dtype == dtype
                assert np.array_equal(got, expected)
                assert np.array_equal(w.values, table)  # a scalar x too leaves the table as it was

    def test_tables_are_real_exactly_when_their_imaginary_part_is_zero(self):
        nodes = np.array([0.2, 0.4, 0.8])
        re = np.random.default_rng(1).standard_normal((len(R_GRID), 3))
        zero_im = re.astype(complex)
        zero_im.imag[::2] = -0.0
        w = CouplingFunction(1, 0, nodes, zero_im, dr_values=zero_im)
        assert w.values.dtype == w.dr_values.dtype == np.float64
        assert np.array_equal(w.values, re) and np.array_equal(w.dr_values, re)
        assert from_profile(1, 0, nodes, lambda r, k: (r + k).astype(complex)).values.dtype == float
        one_im = zero_im.copy()
        one_im[5, 1] += 1e-300j
        w = CouplingFunction(1, 0, nodes, one_im)
        assert w.values.dtype == w.dr_values.dtype == np.complex128
        assert np.array_equal(w.values, one_im)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_at_r_refuses_non_finite_r(self, bad):
        # a NaN field energy must not become a grid index
        w = from_profile(0, 0, np.array([0.5]), lambda r: 1.0 + r)
        with pytest.raises(ValueError, match="finite"):
            w.at_r(np.array([0.25, bad]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_expanded_reads_the_table_at_the_sorted_tuples(self, seed):
        # a (2, 2) kernel on 3 nodes: 6 multisets a side, 81 ordered tuples
        rng = np.random.default_rng(seed)
        nodes = np.array([0.2, 0.4, 0.8])
        shape = (len(R_GRID), 6, 6)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = CouplingFunction(2, 2, nodes, vals)
        full = w.expanded()
        assert full.shape == (len(R_GRID), 3, 3, 3, 3)
        for I, J in iproduct(iproduct(range(3), repeat=2), repeat=2):
            row = [multisets(3, 2)[0].tolist().index(sorted(t)) for t in (I, J)]
            assert np.array_equal(full[(slice(None),) + I + J], w.values[:, row[0], row[1]])
        assert np.array_equal(w.expanded(w.dr_values), np.gradient(full, R_GRID, axis=0))


def _per_point(m, n, r_grid, nodes, func):
    """The table tabulated one point per call at the sorted slot tuples (the rows of
    multisets), each argument a length-1 array."""
    cre, ann = (multisets(len(nodes), k)[0] for k in (m, n))
    vals = np.empty((len(r_grid), len(cre), len(ann)), dtype=complex)
    for (c, C), (d, D) in iproduct(enumerate(cre), enumerate(ann)):
        for i, r in enumerate(r_grid):
            args = [np.array([r])] + [np.array([nodes[j]]) for j in (*C, *D)]
            vals[i, c, d] = np.asarray(func(*args), dtype=complex).ravel()[0]
    return vals.reshape((len(r_grid),) + slot_shape(len(nodes), m, n))


def _mixed_profile(r, *ks):
    out = np.exp(-r) + 0.25j * r
    for i, k in enumerate(ks):
        out = out * (1.0 + (i + 1) * k) / np.sqrt(k) - 0.1j * k * r
    return out


class TestFromProfile:
    NODES = np.geomspace(0.05, 0.5, 4)

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(4) for n in range(4 - m)])
    def test_one_mesh_call_matches_point_by_point(self, m, n):
        for func in (_mixed_profile, lambda r, *ks: 0.3 - 0.2j, lambda r, *ks: np.cos(r)):
            w = from_profile(m, n, self.NODES, func)
            assert np.array_equal(w.values, _per_point(m, n, R_GRID, self.NODES, func))
            assert w.values.flags.writeable

    def test_profile_is_called_once_per_kernel(self):
        calls = []

        def counting(r, *ks):
            calls.append(len(ks))
            return _mixed_profile(r, *ks)

        nodes = build_mode_grid(4, 0.5, "geometric").nodes  # closed under k -> k / 2
        for m, n in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            w = from_profile(m, n, nodes, counting)
            scale_coupling(w, 0.5)
        # scale_coupling reads the table, never the profile
        assert calls == [0, 1, 2, 3]

    def test_result_that_does_not_broadcast_raises(self):
        with pytest.raises(ValueError):
            from_profile(1, 0, self.NODES, lambda r, k: np.ones(5))
        with pytest.raises(ValueError):
            from_profile(0, 1, self.NODES, lambda r, k: np.ones((2,) + r.shape))


class TestKernelNorms:
    def test_critical_power_kernel_has_unit_norm(self):
        mu = 0.5
        nodes = np.geomspace(0.01, 1.0, 7)
        w = from_profile(1, 0, nodes, lambda r, k: k ** (mu - 0.5))
        assert coupling_norm_mu(w, mu) == pytest.approx(1.0)

    def test_zero_kernel(self):
        nodes = np.array([0.2, 0.7])
        w = from_profile(1, 1, nodes, lambda r, k1, k2: 0.0)
        assert coupling_norm_mu(w, 0.5) == 0.0
        assert coupling_norm_mu1(w, 0.5) == 0.0

    def test_gaussian_1_1_kernel_against_brute_force(self):
        g, kappa, mu = 0.01, 1.0, 0.5
        nodes = np.geomspace(0.05, 1.0, 6)
        chi = lambda k: np.exp(-(k / kappa) ** 2)
        w = from_profile(1, 1, nodes, lambda r, k1, k2: g * chi(k1) * chi(k2) / np.sqrt(k1 * k2))
        # independent maximization over the discrete grid
        best = 0.0
        for i, k1 in enumerate(nodes):
            for j, k2 in enumerate(nodes):
                weight = min(k1, k2) ** (-mu) * np.sqrt(k1 * k2)
                best = max(best, weight * np.max(np.abs(w.values[:, i, j])))
        assert coupling_norm_mu(w, mu) == pytest.approx(best, rel=1e-12)

    def test_scalar_kernel_norm_is_sup(self):
        w = from_profile(0, 0, np.array([0.5]), lambda r: 3.0 - r)
        assert coupling_norm_mu(w, 0.5) == pytest.approx(3.0)


class TestHamiltonianNorm:
    def test_field_part_alone(self):
        nodes = np.array([0.25, 0.5])
        w00 = from_profile(0, 0, nodes, lambda r: r)
        H = NormalFormHamiltonian({(0, 0): w00}, _unit_grid(nodes))
        assert hamiltonian_norm(H) == pytest.approx(2.0)

    def test_zero_hamiltonian(self):
        nodes = np.array([0.25])
        w00 = from_profile(0, 0, nodes, lambda r: 0.0)
        H = NormalFormHamiltonian({(0, 0): w00}, _unit_grid(nodes))
        assert hamiltonian_norm(H) == 0.0

    def test_initial_model_norm_regression(self):
        # pinned value for the decimated two-level model at g = 1e-3
        from specrg.models import ModelSpec, ground_sector_hamiltonian
        grid = build_mode_grid(8, 0.5, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=1e-3, kappa=1.0)
        H = ground_sector_hamiltonian(spec, grid, lam=0.0)
        assert hamiltonian_norm(H) == pytest.approx(2.0005972234707374, rel=1e-9)
        assert interaction_norm(H) == pytest.approx(0.0005972057898260654, rel=1e-9)


class TestConstructorInvariants:
    NODES = np.array([0.25, 0.5])

    def _terms(self, **w11_grid):
        w11 = from_profile(1, 1, w11_grid.get("nodes", self.NODES), lambda r, kb, ka: 0.1 + r)
        return {(0, 0): from_profile(0, 0, self.NODES, lambda r: r), (1, 1): w11}

    def test_consistent_terms_accepted(self):
        H = NormalFormHamiltonian(self._terms(), _unit_grid(self.NODES))
        assert set(H.terms) == {(0, 0), (1, 1)}

    @pytest.mark.parametrize("grid", [{"nodes": np.array([0.25, 0.6])}], ids=["other-nodes"])
    def test_kernel_off_the_scalar_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="nodes of the grid"):
            NormalFormHamiltonian(self._terms(**grid), _unit_grid(self.NODES))

    def test_missing_scalar_term_rejected(self):
        terms = self._terms()
        del terms[(0, 0)]
        with pytest.raises(ValueError, match=r"\(0,0\) term"):
            NormalFormHamiltonian(terms, _unit_grid(self.NODES))


class TestSplit:
    def test_field_hamiltonian_components(self):
        nodes = np.array([0.25, 0.5])
        H = NormalFormHamiltonian({(0, 0): from_profile(0, 0, nodes, lambda r: r)},
                                  _unit_grid(nodes))
        E, W = split(H)
        assert E == 0.0
        assert W == {}
        assert t_slope_deviation(H) < 1e-12

    def test_shifted_field_hamiltonian(self):
        nodes = np.array([0.25])
        H = NormalFormHamiltonian({(0, 0): from_profile(0, 0, nodes, lambda r: 3.0 + r)},
                                  _unit_grid(nodes))
        E, W = split(H)
        assert E == pytest.approx(3.0)
        assert t_slope_deviation(H) < 1e-12

    def test_shift_moves_only_E(self):
        grid = build_mode_grid(6, 0.5, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=2e-3, kappa=1.0)
        H = ground_sector_hamiltonian(spec, grid, lam=0.0)
        before = {key: (w.values.copy(), w.dr_values.copy()) for key, w in H.terms.items()}
        c = 0.003 - 0.001j
        Hs = shifted(H, c)
        assert split(Hs)[0] == split(H)[0] - c
        assert t_slope_deviation(Hs) == t_slope_deviation(H)
        assert interaction_norm(Hs) == interaction_norm(H)
        assert list(Hs.terms) == list(H.terms)
        for key, (values, dr_values) in before.items():
            assert np.array_equal(H.terms[key].values, values)
            assert np.array_equal(H.terms[key].dr_values, dr_values)

    def test_real_shift_keeps_and_complex_shift_leaves_real_arithmetic(self):
        grid = build_mode_grid(6, 0.5, "geometric")
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=2e-3, kappa=1.0)
        H = ground_sector_hamiltonian(spec, grid, lam=1e-4)
        assert {w.values.dtype for w in H.terms.values()} == {np.dtype(float)}
        for c, dtype in ((0.003, float), (0.003 + 0j, float), (0.003 - 1e-30j, complex)):
            w00 = shifted(H, c).terms[(0, 0)]
            assert w00.values.dtype == dtype and w00.dr_values.dtype == np.float64
            assert np.array_equal(w00.values.real, H.terms[(0, 0)].values - 0.003)

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
        w00 = from_profile(0, 0, grid.nodes, lambda r: r)
        mat = assemble_term(w00, basis)
        assert np.allclose(mat, field_hamiltonian(basis))

    def test_single_mode_creation_entry(self):
        grid = build_mode_grid(1, 0.5, "uniform")
        basis = build_fock_basis(grid, 1)
        c = 0.7
        w10 = from_profile(1, 0, grid.nodes, lambda r, k: c)
        mat = assemble_term(w10, basis)
        root_mass = np.sqrt(slot_masses(basis.grid)[0])
        expected = np.zeros((2, 2), dtype=complex)
        expected[basis.state_index([1]), basis.state_index([0])] = root_mass * c
        assert np.allclose(mat, expected)

    def test_conjugate_symmetric_terms_assemble_hermitian(self):
        rng = np.random.default_rng(3)
        grid = build_mode_grid(3, 0.4, "geometric")
        basis = build_fock_basis(grid, 2)
        shape10 = (len(R_GRID), 3)
        v10 = rng.standard_normal(shape10) + 1j * rng.standard_normal(shape10)
        w10 = CouplingFunction(1, 0, grid.nodes, v10)
        w01 = CouplingFunction(0, 1, grid.nodes, v10.conj())
        v11 = rng.standard_normal((len(R_GRID), 3, 3))
        v11 = v11 + np.swapaxes(v11, 1, 2)  # real symmetric kernel
        w11 = CouplingFunction(1, 1, grid.nodes, v11.astype(complex))
        w00 = from_profile(0, 0, grid.nodes, lambda rr: rr)
        H = NormalFormHamiltonian({(0, 0): w00, (1, 0): w10, (0, 1): w01, (1, 1): w11}, grid)
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
        shape = (len(R_GRID),) + slot_shape(3, m, n)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = CouplingFunction(m, n, grid.nodes, vals)
        create = [ladder_matrix(basis, k).T for k in range(3)]
        annihilate = [ladder_matrix(basis, k) for k in range(3)]
        root_mass = np.sqrt(slot_masses(basis.grid))
        kern = w.expanded(w.at_r(basis.hf_diagonal()))  # on every ordered (I, J)
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
        # a (1,1) kernel is read between its annihilation and its creation,
        # at n_max - 1 photons at most: up to 1.2 on 2 modes to 0.8 at
        # n_max = 3, where the kernel is clamped at r = 1, but only up to 0.6
        # at n_max = 2, although that basis reaches field energy 1.2
        grid = build_mode_grid(2, 0.8, "uniform")
        w = from_profile(1, 1, grid.nodes, lambda r, k1, k2: 1.0 + r)
        with pytest.warns(UserWarning, match="up to 1.2 exceed .* clamped"):
            assemble_term(w, build_fock_basis(grid, 3))
        assert build_fock_basis(grid, 2).hf_diagonal().max() == pytest.approx(1.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assemble_term(w, build_fock_basis(grid, 2))

    def test_free_part_continues_above_the_grid_without_warning(self):
        # w00 = E + T is a function of H_f alone: it is read at the basis
        # states' field energies, up to 1.8 here, on its continuation, silently
        grid = build_mode_grid(2, 0.8, "uniform")
        basis = build_fock_basis(grid, 3)
        w00 = CouplingFunction(0, 0, grid.nodes, 0.3 + R_GRID)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mat = assemble_term(w00, basis)
        hf = basis.hf_diagonal()
        assert hf.max() == pytest.approx(1.8)
        assert np.allclose(mat, np.diag(0.3 + hf), rtol=0, atol=1e-15)

    def test_kernel_grid_mismatch_raises(self):
        grid = build_mode_grid(2, 0.4, "uniform")
        other = build_mode_grid(2, 0.8, "uniform")
        basis = build_fock_basis(grid, 1)
        w = from_profile(1, 0, other.nodes, lambda r, k: 1.0)
        with pytest.raises(ValueError, match="nodes"):
            assemble_term(w, basis)

    @pytest.mark.parametrize("nodes", [lambda k: np.nextafter(k, 1.0), lambda k: k[:1]],
                             ids=["one-ulp-off", "fewer-nodes"])
    def test_kernel_nodes_must_equal_the_grid_exactly(self, nodes):
        # as NormalFormHamiltonian requires: no tolerance on the nodes
        basis = build_fock_basis(build_mode_grid(2, 0.4, "uniform"), 1)
        w = from_profile(1, 0, nodes(basis.grid.nodes), lambda r, k: 1.0)
        with pytest.raises(ValueError, match="nodes"):
            assemble_term(w, basis)


def _random_kernel(rng, m, n, nodes, real=False):
    """A random kernel on nodes, float64 or complex128."""
    vals = rng.standard_normal((len(R_GRID),) + slot_shape(len(nodes), m, n))
    if not real:
        vals = vals + 1j * rng.standard_normal(vals.shape)
    return CouplingFunction(m, n, nodes, vals)


def _fresh_norm_mu1(w, mu):
    """||w||_{mu,1} with the slot weight written out on the rows of multisets, the
    creation rows along the first slot axis, nothing cached."""
    cre, ann = (multisets(len(w.nodes), k)[0] for k in (w.m, w.n))
    weight = np.ones((len(cre), len(ann)))
    for (c, C), (d, D) in iproduct(enumerate(cre), enumerate(ann)):
        slots = w.nodes[[*C, *D]]
        root_prod = 1.0
        for k in slots:
            root_prod = root_prod * np.sqrt(k)
        weight[c, d] = slots.min(initial=1.0) ** (-mu) * root_prod
    weight = weight.reshape(slot_shape(len(w.nodes), w.m, w.n))
    return (float(np.max(weight * np.abs(w.values)))
            + float(np.max(weight * np.abs(np.gradient(w.values, R_GRID, axis=0)))))


class TestBuiltOnce:
    """What is built once and kept gives what a fresh build gives, whatever was
    built before it on another key."""

    KEYS = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (0, 0), (2, 1), (1, 2)]

    @staticmethod
    def _walked(w, basis):
        """assemble_term's sum written out on walks taken afresh, nothing kept."""
        cols, J, mid, amp_a = ladder_walk(basis, np.arange(basis.dim), w.n, "annihilate")
        src, I, top, amp_c = ladder_walk(basis, mid, w.m, "create")
        cols, J, mid, amp_a = cols[src], J[src], mid[src], amp_a[src]
        root_mass, slots = np.sqrt(slot_masses(basis.grid)), np.column_stack([I, J])
        factor = np.ones(len(top))
        for s in range(w.order):
            factor = factor * root_mass[slots[:, s]]
        kern = w.expanded(w.at_r(basis.hf_diagonal()))[(mid,) + tuple(slots.T)]
        out = np.zeros((basis.dim, basis.dim), dtype=kern.dtype)
        np.add.at(out, (top, cols), amp_a * amp_c * factor * kern)
        return out

    def test_assemble_term_on_a_used_basis_equals_a_fresh_walk(self):
        # two bases of one grid, n_max 2 and 3, each already holding the walks of
        # the (m, n) before, and a fresh basis; k_max n_max = 0.75 keeps every
        # read inside [0, 1]
        rng = np.random.default_rng(29)
        grid = build_mode_grid(4, 0.25, "geometric")
        used = {n_max: build_fock_basis(grid, n_max) for n_max in (2, 3)}
        for m, n in self.KEYS:
            w = _random_kernel(rng, m, n, grid.nodes)
            for n_max, basis in used.items():
                fresh = build_fock_basis(grid, n_max)
                expected = self._walked(w, fresh)
                assert np.array_equal(assemble_term(w, basis), expected)
                assert np.array_equal(assemble_term(w, fresh), expected)
        assert set(used[2].walks) == set(self.KEYS)

    def test_norms_equal_an_uncached_computation(self):
        # one node set, two mu, then a second node set; the norm on the full table
        # differs only by the rounding of the weights' products in slot order
        rng = np.random.default_rng(30)
        for nodes in (build_mode_grid(4, 0.5, "geometric").nodes,
                      build_mode_grid(4, 0.5, "uniform").nodes):
            for m, n in self.KEYS:
                w = _random_kernel(rng, m, n, nodes)
                assert w.norm_mu1 == _fresh_norm_mu1(w, MU)
                assert coupling_norm_mu1(w, 0.25) == _fresh_norm_mu1(w, 0.25)
                if w.order:
                    root_prod, kmin = 1.0, nodes.max()
                    for k in np.ix_(*[nodes] * w.order):
                        root_prod, kmin = root_prod * np.sqrt(k), np.minimum(kmin, k)
                    weight = kmin ** (-MU) * root_prod
                    full = (np.max(weight * np.abs(w.expanded()))
                            + np.max(weight * np.abs(w.expanded(w.dr_values))))
                    assert w.norm_mu1 == pytest.approx(full, rel=1e-15)

    @pytest.mark.parametrize("real", [True, False])
    def test_dr_values_equal_np_gradient_bit_for_bit(self, real):
        assert np.all(np.diff(R_GRID) == 1.0 / 32.0)
        rng = np.random.default_rng(31)
        nodes = build_mode_grid(3, 0.5, "geometric").nodes
        for m, n in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2), (2, 2), (3, 1)]:
            w = _random_kernel(rng, m, n, nodes, real=real)
            expected = np.gradient(w.values, R_GRID, axis=0)
            assert w.dr_values.dtype == expected.dtype
            assert w.dr_values.tobytes() == expected.tobytes()


class TestBasicBound:
    def test_zero_kernel(self):
        grid = build_mode_grid(3, 0.4, "uniform")
        basis = build_fock_basis(grid, 2)
        w = from_profile(1, 0, grid.nodes, lambda r, k: 0.0)
        lhs, rhs = basic_bound_margin(w, 0.5, 0.5, basis)
        assert lhs == 0.0 and rhs == 0.0

    def test_gaussian_1_1_kernel(self):
        grid = build_mode_grid(4, 0.5, "geometric")
        basis = build_fock_basis(grid, 2)
        chi = lambda k: np.exp(-k ** 2)
        w = from_profile(1, 1, grid.nodes, lambda r, k1, k2: chi(k1) * chi(k2) / np.sqrt(k1 * k2))
        lhs, rhs = basic_bound_margin(w, 0.5, 0.5, basis)
        assert lhs <= rhs * (1.0 + 1e-9)

    def test_scalar_kernel_rejected(self):
        grid = build_mode_grid(2, 0.4, "uniform")
        basis = build_fock_basis(grid, 1)
        w = from_profile(0, 0, grid.nodes, lambda r: r)
        with pytest.raises(ValueError):
            basic_bound_margin(w, 0.5, 0.5, basis)


class TestRefusals:
    """Each refusal of the kernel and Hamiltonian constructors and of the basic
    bound, with its message, on 2 uniform modes to 0.4."""

    @pytest.mark.parametrize("call, message", [
        (lambda g, b: CouplingFunction(0, 0, g.nodes, R_GRID, dr_values=np.zeros(3)),
         "dr_values shape mismatch"),
        (lambda g, b: NormalFormHamiltonian(
            {(0, 0): _field_kernel(g), (1, 0): _const_kernel(0, 1, g)}, g),
         r"term key \(1, 0\) disagrees with kernel \(0, 1\)"),
        (lambda g, b: NormalFormHamiltonian(
            {(0, 0): _field_kernel(g), (2, 1): _const_kernel(2, 1, g)}, g),
         r"term \(2,1\) exceeds M_max=2"),
        (lambda g, b: basic_bound_margin(_const_kernel(1, 0, g), 0.0, MU, b),
         r"rho must lie in \(0, 1\]"),
        (lambda g, b: basic_bound_margin(_const_kernel(1, 0, g), 1.5, MU, b),
         r"rho must lie in \(0, 1\]")],
        ids=["dr_values-shape", "term-key", "above-M_max", "rho-0", "rho-above-1"])
    def test_refusal(self, call, message):
        grid = build_mode_grid(2, 0.4, "uniform")
        with pytest.raises(ValueError, match=message):
            call(grid, build_fock_basis(grid, 1))
