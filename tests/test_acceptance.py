"""Acceptance gate: one test per quantitative criterion, each printing a
single PASS/FAIL line with its headline numbers.

Criteria (tolerances in the asserts):
  1  decimation-map isospectrality on random matrices
  2  pull-through identities
  3  kernel operator-norm bound
  4  scaling laws of the three directions
  5  polydisc recursion along model flows
  6  ground-state energy from the flow vs dense diagonalization
  7  resonances under complex dilation
  8  meromorphic continuation and pole form
  9  mass renormalization
  10 change-of-coupling infrared improvement
  11 CLI determinism
"""

import json
import time

import numpy as np
import pytest

from specrg._calibration import C_RG
from specrg.cli import _random_kernel
from specrg.fock import (build_fock_basis, build_mode_grid, field_hamiltonian,
                         pull_through_check)
from specrg.feshbach import (feshbach_map, isospectral_check,
                             projection_from_diagonal, reconstruct_inverse)
from specrg.models import (ModelSpec, build_model, complex_dilate, dilated_grid,
                           field_operator, mass_renormalization,
                           pauli_fierz_transform, pf_coupling)
from specrg.normalform import (basic_bound_margin, coupling_norm_mu,
                               default_r_grid, from_profile)
from specrg.oracle import (combes_deviation, fit_pole, perturbation_oracle,
                           resonance_eigenvalue, resonance_multiplicity)
from specrg.rgflow import scale_coupling


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_feshbach_isospectrality():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst_defect = 0.0
    worst_inverse = 0.0
    n_null_trials = 0
    for trial in range(200):
        A = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        hermitian = trial % 2 == 0
        mat = (A + A.conj().T) / 2.0 if hermitian else A
        if trial % 3 == 0:
            chi = rng.random(64)  # smooth pair
            pair = projection_from_diagonal(chi, smooth=True)
        else:
            chi = (rng.random(64) > 0.5).astype(float)
            if chi.sum() in (0, 64):
                chi[0] = 1.0 - chi[0]
            pair = projection_from_diagonal(chi, smooth=False)
        if trial % 4 == 0:
            lam = complex(rng.choice(np.linalg.eigvals(mat)))  # engineered null
            n_null_trials += 1
        else:
            lam = complex(20.0 + 1j)  # far outside the spectrum
        rep = isospectral_check(mat, pair, lam)
        assert rep["null_dims_equal"], f"null dims differ in trial {trial}"
        worst_defect = max(worst_defect, rep["identity_defect_HQ"],
                           rep["identity_defect_QsH"])
        shifted = mat - lam * np.eye(64)
        if rep["H_invertible"]:
            direct = np.linalg.inv(shifted)
            if np.linalg.cond(shifted) < 1e8:
                res = feshbach_map(shifted, None, pair)
                inv = reconstruct_inverse(res)
                err = (np.linalg.norm(inv - direct, 2)
                       / np.linalg.norm(direct, 2))
                worst_inverse = max(worst_inverse, err)
    elapsed = time.monotonic() - t0
    ok = worst_defect <= 1e-10 and worst_inverse <= 1e-10 and elapsed < 30.0
    _report(1, ok, f"defect {worst_defect:.2e}, inverse err {worst_inverse:.2e}, "
                   f"{n_null_trials} engineered-null trials, {elapsed:.1f}s")


def test_criterion_02_pull_through():
    rng = np.random.default_rng(102)
    t0 = time.monotonic()
    worst = 0.0
    funcs = [lambda x: x ** 3 - 0.4 * x, lambda x: 1.0 / (x + 1.0)]
    for _ in range(50):
        n_modes = int(rng.integers(1, 5))
        n_max = int(rng.integers(1, 4))
        k_max = float(rng.uniform(0.2, 3.0))
        scheme = "uniform" if rng.random() < 0.5 else "geometric"
        basis = build_fock_basis(build_mode_grid(n_modes, k_max, scheme), n_max)
        mode = int(rng.integers(0, n_modes))
        for f in funcs:
            worst = max(worst, pull_through_check(basis, f, mode))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and elapsed < 5.0
    _report(2, ok, f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_basic_bound():
    rng = np.random.default_rng(103)
    t0 = time.monotonic()
    grid = build_mode_grid(4, 0.5, "geometric")
    basis = build_fock_basis(grid, 2)
    worst_ratio = 0.0
    count = 0
    shapes = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for i in range(100):
        m, n = shapes[i % len(shapes)]
        w = _random_kernel(rng, grid.nodes, m, n, mu=0.5)
        for rho in (0.25, 0.5):
            lhs, rhs = basic_bound_margin(w, rho, 0.5, basis)
            assert lhs <= rhs * (1.0 + 1e-9), f"bound violated for (m,n)=({m},{n})"
            if rhs > 0:
                worst_ratio = max(worst_ratio, lhs / rhs)
            count += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    _report(3, ok, f"{count} cases, worst lhs/rhs {worst_ratio:.3f}, {elapsed:.1f}s")


def test_criterion_04_scaling_laws():
    rng = np.random.default_rng(104)
    rho = 0.5
    nodes = np.geomspace(0.02, 0.5, 6)
    r_grid = default_r_grid()

    hf = from_profile(0, 0, r_grid, nodes, lambda r: r)
    fp_dev = float(np.max(np.abs(scale_coupling(hf, rho).values - hf.values)))

    E = 0.07 - 0.02j
    const = from_profile(0, 0, r_grid, nodes, lambda r: E)
    e_ratio = complex(scale_coupling(const, rho).values[0]) / E

    worst_excess = 0.0
    shapes = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for i in range(50):
        m, n = shapes[i % len(shapes)]
        for mu in (0.25, 0.5):
            a0 = rng.standard_normal() + 1j * rng.standard_normal()
            a1 = rng.standard_normal()

            def prof(r, *ks, _a0=a0, _a1=a1, _mu=mu):
                out = _a0 + _a1 * r
                for k in ks:
                    out = out * k ** (_mu - 0.5)
                return out

            w = from_profile(m, n, r_grid, nodes, prof)
            ratio = (coupling_norm_mu(scale_coupling(w, rho), mu)
                     / coupling_norm_mu(w, mu))
            bound = rho ** (m + n - 1 + (mu if m + n == 1 else 0.0))
            worst_excess = max(worst_excess, ratio / bound)

    ok = (fp_dev < 1e-12 and abs(e_ratio - 1.0 / rho) < 1e-12
          and worst_excess <= 1.0 + 1e-9)
    _report(4, ok, f"fixed-point dev {fp_dev:.1e}, E ratio {e_ratio:.6f}, "
                   f"worst contraction/bound {worst_excess:.3f}")


def test_criterion_05_parameter_flow_recursion(model_flows):
    rho, mu = 0.5, 0.5
    worst_gamma_ratio = 0.0
    ok = True
    details = []
    for g, inst in model_flows.items():
        recs = inst["traj"].records
        for prev, cur in zip(recs, recs[1:]):
            quad = C_RG * prev.gamma ** 2 / (2.0 * rho)
            ok = ok and abs(cur.E) <= abs(prev.E) / rho + quad + 1e-12
            ok = ok and cur.beta <= prev.beta + quad + 1e-12
            ok = ok and cur.gamma <= C_RG * rho ** mu * prev.gamma * (1 + 1e-9)
            worst_gamma_ratio = max(worst_gamma_ratio, cur.gamma / prev.gamma)
        details.append(f"g={g:g}")
    ok = ok and worst_gamma_ratio <= C_RG * rho ** mu * (1 + 1e-9)
    _report(5, ok, f"{', '.join(details)}; worst gamma ratio "
                   f"{worst_gamma_ratio:.3f} vs c rho^mu {C_RG * rho ** mu:.3f}")


def test_criterion_06_ground_state(model_flows):
    inst = model_flows[5e-3]
    e_flow = inst["traj"].e_final.real
    e_exact = inst["e0_exact"]
    budget = inst["traj"].budget
    tol = max(1e-6, budget)
    err = abs(e_flow - e_exact)

    # coupling sweep for the quadratic departure, dense diagonalization
    grid = inst["grid"]
    basis = build_fock_basis(grid, 2)
    gs = np.geomspace(1e-3, 8e-3, 5)
    shifts = []
    for g in gs:
        spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=float(g), kappa=1.0)
        model = build_model(spec, basis)
        e0 = float(np.min(np.linalg.eigvalsh(model.H)))
        assert e0 < 0.0, "ground energy must sit strictly below the particle level"
        shifts.append(-e0)
    slope = np.polyfit(np.log(gs), np.log(shifts), 1)[0]

    seconds = inst["seconds"]
    ok = err <= tol and abs(slope - 2.0) <= 0.2 and seconds < 300.0
    _report(6, ok, f"|e_flow - e_exact| {err:.2e} vs tol {tol:.2e}, "
                   f"slope {slope:.3f}, flow {seconds:.0f}s")


@pytest.fixture(scope="module")
def resonance_instance():
    spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=2e-3, kappa=2.0)
    grid = build_mode_grid(64, 2.0, "uniform")
    basis = build_fock_basis(grid, 1)
    D = complex_dilate(spec, basis, 0.2j)
    return spec, grid, basis, D


def test_criterion_07_resonances(resonance_instance):
    spec, grid, basis, D = resonance_instance
    z, stability = resonance_eigenvalue(D, 1.0)
    widths = perturbation_oracle(spec, grid)["widths"]
    width_ratio = -z.imag / widths[1]
    mult = resonance_multiplicity(D, z, 0.01)

    # engineered doubly-degenerate excited level (manual assembly, since the
    # model constructor enforces simple levels)
    theta = 0.2j
    k = grid.nodes
    fvals = (np.exp(-1.5 * theta) * np.asarray(spec.cutoff(np.exp(-theta) * k),
                                               dtype=complex)
             / np.sqrt(np.exp(-theta) * k))
    phi_th = field_operator(spec, basis, fvals=fvals)
    hf = field_hamiltonian(basis)
    eps = np.diag([0.0, 1.0, 1.0]).astype(complex)
    coupling = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=complex)
    H_deg = (np.kron(eps, np.eye(basis.dim))
             + np.exp(-theta) * np.kron(np.eye(3), hf)
             + spec.g * np.kron(coupling, phi_th))
    deg_vals = np.linalg.eigvals(H_deg)
    deg_mult = int(np.sum(np.abs(deg_vals - 1.0) < 0.01))

    ok = (z.imag < 0.0 and stability < 1e-6 * spec.level_gap and mult == 1
          and deg_mult == 2 and abs(width_ratio - 1.0) <= 0.2)
    _report(7, ok, f"Im z {z.imag:.2e}, stability {stability:.2e}, "
                   f"width/oracle {width_ratio:.3f}, degenerate multiplicity {deg_mult}")


def test_criterion_08_meromorphic_continuation(resonance_instance):
    spec, grid, basis, _ = resonance_instance
    theta = 0.1
    D_real = complex_dilate(spec, basis, theta + 0j)
    model = build_model(spec, basis)
    covariant = build_model(spec, build_fock_basis(dilated_grid(grid, theta), 1))
    psi = np.zeros(2 * basis.dim, dtype=complex)
    psi[0] = 1.0
    phi = np.zeros(2 * basis.dim, dtype=complex)
    phi[basis.dim] = 1.0
    z_grid = np.array([0.5 + 0.3j, -0.2 + 0.1j, 1.3 + 0.4j, 0.9 + 0.6j])
    dev = combes_deviation(model, covariant, psi, phi, z_grid, theta, D_real)

    D = complex_dilate(spec, basis, 0.2j)
    z, _ = resonance_eigenvalue(D, 1.0)
    fit = fit_pole(D, phi, phi, z)

    ok = (dev < 1e-10 and np.isfinite(fit.residue) and abs(fit.residue) > 0.1
          and fit.residual < 1e-3)
    _report(8, ok, f"continuation dev {dev:.2e}, residue {abs(fit.residue):.4f}, "
                   f"fit residual {fit.residual:.2e}")


def test_criterion_09_mass_renormalization():
    t0 = time.monotonic()
    basis = build_fock_basis(build_mode_grid(10, 1.0, "geometric"), 2)
    p_grid = np.linspace(-0.2, 0.2, 7)

    free = ModelSpec(particle_levels=np.array([0.0]), g=0.0, kappa=1.0, mass=1.0)
    fit0 = mass_renormalization(free, basis, p_grid)
    exact_free = abs(fit0["m_ren"] - 1.0) < 1e-12

    gs = np.array([0.01, 0.02, 0.04, 0.08])
    m_ren = []
    for g in gs:
        spec = ModelSpec(particle_levels=np.array([0.0]), g=float(g),
                         kappa=1.0, mass=1.0)
        m_ren.append(mass_renormalization(spec, basis, p_grid)["m_ren"])
    m_ren = np.array(m_ren)
    monotone_above = np.all(m_ren >= 1.0 - 1e-12)
    slope = np.polyfit(np.log(gs), np.log(m_ren - 1.0), 1)[0]
    window = np.max(np.abs(p_grid)) < 1.0 / 3.0
    elapsed = time.monotonic() - t0

    ok = (exact_free and monotone_above and abs(slope - 2.0) <= 0.1
          and window and elapsed < 120.0)
    _report(9, ok, f"m_ren(0)-1 = {fit0['m_ren'] - 1.0:.1e}, slope {slope:.3f}, "
                   f"{elapsed:.1f}s")


def test_criterion_10_pauli_fierz():
    spec = ModelSpec(particle_levels=np.array([0.0, 1.0]), g=1e-3, kappa=1.0)
    k = np.geomspace(1e-6, 1.0, 32)
    vanish = float(np.max(np.abs(pf_coupling(spec, 0.0, k))))
    rep = pauli_fierz_transform(spec, np.linspace(-2.0, 2.0, 9))
    min_exp = float(np.min(rep["exponents"]))
    raw = rep["untransformed_exponent"]
    ok = vanish < 1e-12 and min_exp >= 0.5 and abs(raw + 0.5) < 1e-6
    _report(10, ok, f"origin coupling {vanish:.1e}, min exponent {min_exp:.2f}, "
                    f"control exponent {raw:.3f}")


def test_criterion_11_cli_determinism(tmp_path):
    from specrg.cli import EXIT_OK, main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"n_modes": 8, "k_max": 0.5, "scheme": "geometric"},
        "model": {"particle_levels": [0.0, 1.0], "g": 5e-3, "kappa": 1.0},
        "n_max": 2,
    }))
    identical = True
    for command in ("verify", "spectrum", "pf"):
        dumps = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            assert main([command, "--config", str(cfg), "--out", str(out),
                         "--seed", "11"]) == EXIT_OK
            dumps.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        identical = identical and dumps[0] == dumps[1]
    _report(11, identical, "verify/spectrum/pf outputs byte-identical across reruns")
