"""The dense route's dtype rule: fock.dense reads an exactly real matrix as
float64 and any other as complex128, and every dense solver reads through it;
and its size rule: nothing dense over fock.DEFAULT_DIM_CAP states is allocated."""

import tracemalloc

import numpy as np
import pytest

from specrg import feshbach, fock, models, normalform, oracle
from specrg.fock import OperatorMatrix, build_fock_basis, build_mode_grid, dense

RHO = 0.5
P_GRID = np.linspace(-0.2, 0.2, 7)


def _fiber_reference(spec, basis, P):
    """H(P) in complex128, built from the module's operators with numpy alone."""
    hf = np.diag(basis.hf_diagonal()).astype(complex)
    A = P * np.eye(basis.dim) - hf - spec.g * models.field_operator(spec, basis)
    return A @ A / (2.0 * spec.mass) + hf


def _full_matmul_map(H, pair, tau=None):
    """F, Q, Q# and R by the module formula with every product over the full basis;
    tau defaults to the diagonal of H."""
    tau = np.diag(np.diag(H if tau is None else tau))
    W = H - tau
    chi, cb = np.diag(pair.chi), np.diag(pair.chibar)
    sup = pair.chibar > 0.0
    R = np.zeros_like(H)
    R[np.ix_(sup, sup)] = np.linalg.inv((tau + cb @ W @ cb)[np.ix_(sup, sup)])
    F = tau + chi @ W @ chi - chi @ W @ cb @ R @ cb @ W @ chi
    return F, chi - cb @ R @ cb @ W @ chi, chi - chi @ W @ cb @ R @ cb, R


class TestSupportProducts:
    """feshbach_map multiplies by R only on supp chibar; the full products agree."""

    @pytest.mark.parametrize("smooth", [False, True], ids=["sharp", "smooth"])
    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "non-hermitian"])
    def test_matches_full_matmul_formula(self, smooth, hermitian):
        rng = np.random.default_rng(23)
        basis = build_fock_basis(build_mode_grid(4, 0.5, "uniform"), 3)
        D = basis.dim
        V = (rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))) / np.sqrt(D)
        H = np.diag(4.0 * basis.hf_diagonal()) + (V + V.conj().T if hermitian else V)
        pair = feshbach.spectral_projection(basis, 0.6, smooth=smooth)
        # the smooth pair's chibar reaches into the taper, where chi > 0 too
        overlap = np.sum((pair.chi > 0.0) & (pair.chibar > 0.0))
        assert 0 < np.sum(pair.chibar > 0.0) < D and (overlap > 0) == smooth
        res = feshbach.feshbach_map(H, None, pair)
        tol = 1e-13 * max(1.0, np.linalg.norm(H, 2))
        for got, want in zip((res.F, res.Q, res.Qsharp, res.Hchibar_inv),
                             _full_matmul_map(H, pair)):
            assert got.dtype == np.complex128
            assert np.max(np.abs(got - want)) <= tol


@pytest.fixture(scope="module")
def oracle_inputs():
    """dense-oracle's objects at its smoke sizes: the model at 24 uniform modes to
    k = 2 (n_max = 1), the ground-sector operator and mass model at 4 geometric
    modes to 1/3 (n_max = 3)."""
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=1.5e-3, kappa=2.0)
    res_basis = build_fock_basis(build_mode_grid(24, 2.0, "uniform"), 1)
    fes_basis = build_fock_basis(build_mode_grid(4, 1.0 / 3.0, "geometric"), 3)
    spec_f = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=3e-3, kappa=1.0)
    H = models.ground_sector_hamiltonian(spec_f, fes_basis.grid, 0.0)
    return {"spec": spec, "res_basis": res_basis, "fes_basis": fes_basis,
            "Hop": normalform.assemble_operator(H, fes_basis),
            "tau": OperatorMatrix(normalform.assemble_term(H.terms[(0, 0)], fes_basis),
                                  fes_basis),
            "pair": feshbach.spectral_projection(fes_basis, RHO),
            "spec_m": models.ModelSpec(particle_levels=np.array([0.0]), g=0.05, kappa=1.0)}


class TestDenseRule:
    def test_zero_imaginary_part_reads_as_float64(self):
        mat = np.array([[1.0, 2.0 - 0.0j], [3.0, -4.0]], dtype=complex)
        out = dense(mat)
        assert out.dtype == np.float64 and np.array_equal(out, mat.real)

    def test_nonzero_imaginary_part_stays_complex(self):
        mat = np.array([[1.0, 1e-300j], [0.0, 1.0]])
        out = dense(mat)
        assert out.dtype == np.complex128 and np.array_equal(out, mat)

    def test_real_and_tagged_input(self):
        # OperatorMatrix reads its matrix through dense, so a real one is float64
        assert dense(np.eye(3, dtype=int)).dtype == np.float64
        basis = build_fock_basis(build_mode_grid(2, 0.4, "uniform"), 1)
        tagged = OperatorMatrix(fock.field_hamiltonian(basis).astype(complex), basis)
        assert tagged.mat.dtype == dense(tagged).dtype == np.float64
        assert np.array_equal(tagged.mat, dense(tagged))
        assert np.array_equal(dense(tagged), fock.field_hamiltonian(basis))

    def test_assembled_operator_takes_its_kernels_dtype(self, oracle_inputs):
        # an imaginary shift far below rounding makes w00 complex, and with it the sum
        basis = oracle_inputs["fes_basis"]
        spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=3e-3, kappa=1.0)
        H = models.ground_sector_hamiltonian(spec, basis.grid, 0.0)
        real = normalform.assemble_operator(H, basis).mat
        cplx = normalform.assemble_operator(normalform.shifted(H, 1e-30j), basis).mat
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.array_equal(cplx.real, real)

    def test_model_operators(self, oracle_inputs):
        spec, basis = oracle_inputs["spec"], oracle_inputs["res_basis"]
        assert dense(models.build_model(spec, basis).H).dtype == np.float64
        assert dense(oracle_inputs["Hop"]).dtype == np.float64
        assert models.fiber_hamiltonian(oracle_inputs["spec_m"], basis, 0.1).dtype == np.float64
        for theta in (0.2j, 0.1 + 0.15j):
            assert dense(models.complex_dilate(spec, basis, theta).H).dtype == np.complex128


class TestSolverDtypes:
    def test_real_solves_run_in_float64(self, monkeypatch, oracle_inputs):
        calls = []
        for name in ("eigvalsh", "svd", "inv"):
            def spy(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, np.asarray(a).dtype))
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        spec, basis = oracle_inputs["spec"], oracle_inputs["res_basis"]
        Hop, pair = oracle_inputs["Hop"], oracle_inputs["pair"]

        oracle.resonance_eigenvalue(models.complex_dilate(spec, basis, 0.2j), 1.0)
        dilation, calls[:] = list(calls), []
        # at n_max = 1 the Schur chain's one dense complement is S_0: one inv per angle
        assert dilation == [("inv", np.complex128)] * len(oracle.STABILITY_THETAS)

        oracle.exact_spectrum(models.build_model(spec, basis).H, 1)
        res = feshbach.feshbach_map(Hop, oracle_inputs["tau"], pair)
        feshbach.identity_defect(Hop, res)
        lam = float(oracle.exact_spectrum(Hop, 1)[0])
        feshbach.isospectral_check(Hop, pair, lam)
        models.mass_renormalization(oracle_inputs["spec_m"], oracle_inputs["fes_basis"], P_GRID)
        assert {name for name, _ in calls} == {"eigvalsh", "svd", "inv"}
        assert all(dt == np.float64 for _, dt in calls), calls
        calls[:] = []

        feshbach.isospectral_check(Hop, pair, lam + 0.01j)
        assert calls and all(dt == np.complex128 for _, dt in calls)


class TestRealMatchesComplexReference:
    """The float64 route against complex128 built with .astype(complex) and numpy,
    within 1e-13 max(1, ||H||_2)."""

    def test_exact_spectrum(self, oracle_inputs):
        for H in (models.build_model(oracle_inputs["spec"], oracle_inputs["res_basis"]).H,
                  oracle_inputs["Hop"]):
            Hc = np.asarray(H).astype(complex)
            tol = 1e-13 * max(1.0, np.linalg.norm(Hc, 2))
            vals = oracle.exact_spectrum(H)
            assert vals.dtype == np.float64
            assert np.max(np.abs(vals - np.linalg.eigvalsh(Hc))) <= tol

    def test_feshbach_map_and_checks(self, oracle_inputs):
        Hop, pair = oracle_inputs["Hop"], oracle_inputs["pair"]
        Hc = np.asarray(Hop).astype(complex)
        tol = 1e-13 * max(1.0, np.linalg.norm(Hc, 2))
        res = feshbach.feshbach_map(Hop, oracle_inputs["tau"], pair)

        F, Q, Qs, R = _full_matmul_map(Hc, pair, np.asarray(oracle_inputs["tau"]).astype(complex))
        for got, want in ((res.F, F), (res.Q, Q), (res.Qsharp, Qs), (res.Hchibar_inv, R)):
            assert got.dtype == np.float64
            assert np.max(np.abs(got - want)) <= tol

        chi = np.diag(pair.chi)
        d1, d2 = feshbach.identity_defect(Hop, res)
        assert abs(d1 - np.linalg.norm(Hc @ Q - chi @ F, 2)) <= tol
        assert abs(d2 - np.linalg.norm(Qs @ Hc - F @ chi, 2)) <= tol

        lam = float(oracle.exact_spectrum(Hop, 1)[0])
        rep = feshbach.isospectral_check(Hop, pair, lam)
        shifted = Hc - lam * np.eye(len(Hc))
        s = np.linalg.svd(shifted, compute_uv=False)
        threshold = feshbach.RANK_THRESHOLD_FACTOR * max(s[0], 1.0)
        assert rep["dim_null_H"] == int(np.sum(s < threshold)) == 1
        assert rep["null_dims_equal"] and not rep["indeterminate"]
        assert max(rep["identity_defect_HQ"], rep["identity_defect_QsH"]) <= 1e-13

    def test_mass_renormalization(self, oracle_inputs):
        spec, basis = oracle_inputs["spec_m"], oracle_inputs["fes_basis"]
        fit = models.mass_renormalization(spec, basis, P_GRID)
        for P, energy in zip(P_GRID, fit["energies"]):
            Hc = _fiber_reference(spec, basis, float(P))
            assert np.max(np.abs(models.fiber_hamiltonian(spec, basis, float(P)) - Hc)) <= 1e-15
            tol = 1e-13 * max(1.0, np.linalg.norm(Hc, 2))
            assert abs(energy - np.linalg.eigvalsh(Hc)[0]) <= tol


@pytest.fixture(scope="module")
def full_oracle_inputs():
    """dense-oracle's objects at full size: the 650-state model (24 uniform modes
    to k = 2, n_max = 2) and the 455-state ground-sector operator (12 geometric
    modes to 1/3, n_max = 3) with its tau and sharp pair at rho."""
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=1.5e-3, kappa=2.0)
    res_basis = build_fock_basis(build_mode_grid(24, 2.0, "uniform"), 2)
    fes_basis = build_fock_basis(build_mode_grid(12, 1.0 / 3.0, "geometric"), 3)
    spec_f = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=3e-3, kappa=1.0)
    H = models.ground_sector_hamiltonian(spec_f, fes_basis.grid, 0.0)
    return {"model": models.build_model(spec, res_basis).H,
            "dilation": models.complex_dilate(spec, res_basis, 0.2j).H,
            "Hop": normalform.assemble_operator(H, fes_basis),
            "tau": OperatorMatrix(normalform.assemble_term(H.terms[(0, 0)], fes_basis),
                                  fes_basis),
            "pair": feshbach.spectral_projection(fes_basis, RHO)}


class TestBlockSolves:
    def test_no_dense_solve_spans_two_blocks(self, monkeypatch, full_oracle_inputs):
        # every svd, eigh, eigvalsh, eigvals and 2-norm runs on one connected block
        # of its input or on a smaller matrix: none on the 650- or 455-state whole
        shapes, calls = [], []
        for name in ("svd", "eigh", "eigvalsh", "eigvals"):
            def spy(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                shapes.append(np.shape(a))
                calls.append((_name, len(a)))
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        norm = np.linalg.norm

        def norm_spy(x, ord=None, **kwargs):
            if ord == 2:
                shapes.append(np.shape(x))
            return norm(x, ord, **kwargs)
        monkeypatch.setattr(np.linalg, "norm", norm_spy)

        inputs = full_oracle_inputs
        Hop, pair = inputs["Hop"], inputs["pair"]
        largest = {name: max(len(b) for b in fock.blocks(dense(inputs[name])))
                   for name in ("model", "dilation", "Hop")}
        assert largest == {"model": 325, "dilation": 325, "Hop": 376}

        def run(name, call):
            shapes[:] = []
            out = call()
            assert shapes and max(max(s) for s in shapes) <= largest[name], shapes
            return out

        for name in ("model", "dilation", "Hop"):
            run(name, lambda: oracle.exact_spectrum(inputs[name]))
        run("Hop", lambda: feshbach.identity_defect(
            Hop, feshbach.feshbach_map(Hop, inputs["tau"], pair)))
        lam = float(run("Hop", lambda: oracle.exact_spectrum(Hop, 1))[0])
        calls[:] = []
        rep = run("Hop", lambda: feshbach.isospectral_check(Hop, pair, lam))
        assert rep["dim_null_H"] == rep["dim_null_F"] == 1
        # at real lambda H - lambda and F's chi block are Hermitian: one eigh per
        # block, and one SVD, of the 4-state chibar block that feshbach_map inverts
        assert [n for name, n in calls if name == "eigh"] == [79, 376, 79, 372]
        assert [n for name, n in calls if name == "svd"] == [4]


class TestSizeGuard:
    """Every dense allocator refuses a basis over DEFAULT_DIM_CAP before it
    allocates: a traced peak under 64 MB, against 562 MB for one D x D float64
    array at D = 8,385, shows that no D x D array was made."""

    CALLS = {
        "field_operator": lambda spec, b: models.field_operator(spec, b),
        "complex_dilate": lambda spec, b: models.complex_dilate(spec, b, 0.2j),
        "build_model": lambda spec, b: models.build_model(spec, b),
        "field_hamiltonian": lambda spec, b: fock.field_hamiltonian(b),
        "ladder_matrix": lambda spec, b: fock.ladder_matrix(b, 0),
        "assemble_term": lambda spec, b: normalform.assemble_term(
            normalform.CouplingFunction(0, 0, b.grid.nodes, normalform.R_GRID), b),
        "assemble_operator": lambda spec, b: normalform.assemble_operator(
            normalform.NormalFormHamiltonian(
                {(0, 0): normalform.CouplingFunction(0, 0, b.grid.nodes, normalform.R_GRID)},
                b.grid), b),
        "_fiber_parts": lambda spec, b: models._fiber_parts(spec, b),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_refuses_before_allocating(self, name, large_basis):
        basis = large_basis[0]
        spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
        dim = 2 * basis.dim if name in ("complex_dilate", "build_model") else basis.dim
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"dense dimension {dim} exceeds the dense cap"):
                self.CALLS[name](spec, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert basis.dim == 8385 and peak < 64 * 2 ** 20
