"""The dense route's dtype rule: fock.dense reads an exactly real matrix as
float64 and any other as complex128, and every dense solver reads through it."""

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
        assert dense(np.eye(3, dtype=int)).dtype == np.float64
        basis = build_fock_basis(build_mode_grid(2, 0.4, "uniform"), 1)
        tagged = OperatorMatrix(fock.field_hamiltonian(basis), basis)
        assert tagged.mat.dtype == np.complex128
        assert dense(tagged).dtype == np.float64
        assert np.array_equal(dense(tagged), fock.field_hamiltonian(basis))

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
        assert {name for name, _ in dilation} == {"inv"}
        assert all(dt == np.complex128 for _, dt in dilation)

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
