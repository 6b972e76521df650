"""Batch driver: verification suites and experiments with CSV/JSON output.

Usage:
    specrg <verify|flow|spectrum|resonance|mass|pf> --config cfg.json
           --out outdir [--seed N]

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 domain or
precondition violation or a dense solver failure.  Identical config and seed
produce byte-identical output files; all CSV uses '.' decimals, '\\n' line
endings, and a header row.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import feshbach, fock, models, normalform, oracle, rgflow

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _grid_from_config(cfg: dict) -> fock.ModeGrid:
    g = cfg.get("grid", {})
    return fock.build_mode_grid(int(g.get("n_modes", 8)),
                                float(g.get("k_max", 0.5)),
                                g.get("scheme", "geometric"))


def _spec_from_config(cfg: dict) -> models.ModelSpec:
    m = cfg.get("model", {})
    gamma = m.get("gamma")
    return models.ModelSpec(
        particle_levels=np.asarray(m.get("particle_levels", [0.0, 1.0]), dtype=float),
        g=float(m.get("g", 1e-3)),
        kappa=float(m.get("kappa", 1.0)),
        mass=float(m.get("mass", 1.0)),
        gamma=None if gamma is None else np.asarray(gamma, dtype=complex),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(cfg: dict, out: Path, seed: int) -> int:
    rng = np.random.default_rng(seed)
    n_max = int(cfg.get("n_max", 2))
    grid = _grid_from_config(cfg)
    basis = fock.build_fock_basis(grid, n_max)
    rho = float(cfg.get("rho", 0.5))
    mu = float(cfg.get("mu", 0.5))
    n_trials = int(cfg.get("n_trials", 10))
    report = {"checks": []}
    ok = True

    def record(name, passed, margin):
        nonlocal ok
        ok = ok and passed
        report["checks"].append({"name": name, "passed": bool(passed),
                                 "margin": float(margin)})

    # CCR on the safe subspace
    dev = 0.0
    safe = basis.safe_mask()
    a = [fock.ladder_matrix(basis, i, "annihilate") for i in range(basis.n_modes)]
    for i, ai in enumerate(a):
        for j, aj in enumerate(a):
            cj = aj.conj().T
            comm = ai @ cj - cj @ ai - (1.0 if i == j else 0.0) * np.eye(basis.dim)
            if np.any(safe):
                dev = max(dev, float(np.max(np.abs(comm[:, safe]))))
    record("ccr_safe_subspace", dev < 1e-12, 1e-12 - dev)

    # pull-through for a polynomial and a resolvent
    dev_pt = 0.0
    for f in (lambda x: x ** 2 - 0.3 * x, lambda x: 1.0 / (x + 1.0)):
        for mode in range(basis.n_modes):
            dev_pt = max(dev_pt, fock.pull_through_check(basis, f, mode))
    record("pull_through", dev_pt < 1e-12, 1e-12 - dev_pt)

    # Feshbach isospectrality on random matrices
    worst = 0.0
    all_equal = True
    for _ in range(n_trials):
        A = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        H = A + A.conj().T
        chi = (rng.random(16) > 0.5).astype(float)
        if chi.sum() in (0, 16):
            chi[0] = 1.0 - chi[0]
        pair = feshbach.projection_from_diagonal(chi, smooth=False)
        rep = feshbach.isospectral_check(H, pair, 0.1 + 0.05j)
        all_equal = all_equal and rep["null_dims_equal"]
        worst = max(worst, rep["identity_defect_HQ"], rep["identity_defect_QsH"])
    record("feshbach_isospectrality", all_equal and worst < 1e-10, 1e-10 - worst)

    # basic bound on random kernels
    margin = np.inf
    for _ in range(n_trials):
        w = _random_kernel(rng, grid.nodes, 1, 1, mu)
        lhs, rhs = normalform.basic_bound_margin(w, rho, mu, basis)
        margin = min(margin, rhs * (1.0 + 1e-9) - lhs)
    record("basic_bound", margin >= 0.0, margin)

    # scaling fixed point
    r_grid = normalform.default_r_grid()
    hf_kernel = normalform.CouplingFunction(0, 0, r_grid, grid.nodes, r_grid.astype(complex))
    scaled = rgflow.scale_coupling(hf_kernel, rho)
    fp_dev = float(np.max(np.abs(scaled.values - hf_kernel.values)))
    record("scaling_fixed_point", fp_dev < 1e-12, 1e-12 - fp_dev)

    report["all_passed"] = bool(ok)
    _write(out / "verify_report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if ok else EXIT_INVARIANT


def _random_kernel(rng, nodes, m, n, mu, r_grid=None):
    """Symmetric Gaussian kernel with the critical infrared power k^(mu - 1/2)
    in every slot."""
    r_grid = normalform.default_r_grid() if r_grid is None else r_grid
    shape = (len(r_grid),) + (len(nodes),) * (m + n)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for axis in range(1, m + n + 1):
        kshape = [1] * len(shape)
        kshape[axis] = len(nodes)
        vals = vals * (nodes ** (mu - 0.5)).reshape(kshape)
    return normalform.CouplingFunction(m, n, r_grid, nodes, normalform.symmetrized(vals, m, n))


def cmd_flow(cfg: dict, out: Path, seed: int) -> int:
    spec = _spec_from_config(cfg)
    grid = _grid_from_config(cfg)
    rho = float(cfg.get("rho", 0.5))
    n_steps = int(cfg.get("n_steps", 6))
    s_max = int(cfg.get("s_max", 2))

    def builder(lam):
        return models.ground_sector_hamiltonian(spec, grid, lam)

    traj = rgflow.flow(None, rho, n_steps, s_max=s_max, builder=builder)
    _write(out / "flow.csv", traj.to_csv())
    summary = {"e_final_re": traj.e_final.real, "e_final_im": traj.e_final.imag,
               "budget": traj.budget}
    _write(out / "flow_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_spectrum(cfg: dict, out: Path, seed: int) -> int:
    spec = _spec_from_config(cfg)
    grid = _grid_from_config(cfg)
    basis = fock.build_fock_basis(grid, int(cfg.get("n_max", 2)))
    model = models.build_model(spec, basis)
    k = cfg.get("k")
    vals = oracle.exact_spectrum(model.H, None if k is None else int(k))
    lines = ["index,eig_re,eig_im"]
    for i, v in enumerate(np.atleast_1d(vals)):
        lines.append(f"{i},{_fmt(np.real(v))},{_fmt(np.imag(v))}")
    _write(out / "spectrum.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_resonance(cfg: dict, out: Path, seed: int) -> int:
    spec = _spec_from_config(cfg)
    grid = _grid_from_config(cfg)
    basis = fock.build_fock_basis(grid, int(cfg.get("n_max", 1)))
    thetas = cfg.get("im_thetas", [0.15, 0.2, 0.25])
    level = int(cfg.get("level", 1))
    seed_energy = float(spec.particle_levels[level])
    lines = ["im_theta,z_re,z_im,stability"]
    for t in thetas:
        D = models.complex_dilate(spec, basis, 1j * float(t))
        z, stab = oracle.resonance_eigenvalue(D, seed_energy,
                                              stability_thetas=tuple(thetas))
        lines.append(f"{_fmt(t)},{_fmt(z.real)},{_fmt(z.imag)},{_fmt(stab)}")
    _write(out / "resonance.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_mass(cfg: dict, out: Path, seed: int) -> int:
    grid = _grid_from_config(cfg)
    basis = fock.build_fock_basis(grid, int(cfg.get("n_max", 2)))
    g_values = cfg.get("g_values", [0.0, 1e-3, 2e-3, 5e-3])
    p_grid = np.asarray(cfg.get("p_grid", [0.0, 0.08, 0.16, 0.24, 0.32]), dtype=float)
    base = cfg.get("model", {})
    lines = ["g,m_ren,residual"]
    for g in g_values:
        spec = models.ModelSpec(
            particle_levels=np.asarray(base.get("particle_levels", [0.0]), dtype=float),
            g=float(g), kappa=float(base.get("kappa", 1.0)),
            mass=float(base.get("mass", 1.0)))
        fit = models.mass_renormalization(spec, basis, p_grid)
        lines.append(f"{_fmt(g)},{_fmt(fit['m_ren'])},{_fmt(fit['residual'])}")
    _write(out / "mass.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_pf(cfg: dict, out: Path, seed: int) -> int:
    spec = _spec_from_config(cfg)
    x_grid = np.asarray(cfg.get("x_grid", [0.0, 0.5, 1.0, 2.0]), dtype=float)
    rep = models.pauli_fierz_transform(spec, x_grid)
    lines = ["x,exponent,max_coupling"]
    for x, e, row in zip(rep["x_grid"], rep["exponents"], rep["coupling_magnitudes"]):
        lines.append(f"{_fmt(x)},{_fmt(e)},{_fmt(float(np.max(row)))}")
    _write(out / "pf.csv", "\n".join(lines) + "\n")
    summary = {"bound_constant": rep["bound_constant"],
               "untransformed_exponent": rep["untransformed_exponent"]}
    _write(out / "pf_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


COMMANDS = {
    "verify": cmd_verify,
    "flow": cmd_flow,
    "spectrum": cmd_spectrum,
    "resonance": cmd_resonance,
    "mass": cmd_mass,
    "pf": cmd_pf,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="specrg", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
    except (OSError, ValueError) as exc:
        print(f"specrg: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        return COMMANDS[args.command](cfg, Path(args.out), args.seed)
    except (rgflow.DomainError, rgflow.FlowStalledError, oracle.ResolutionError,
            oracle.NotFoundError) as exc:
        print(f"specrg: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except oracle.SolverError as exc:
        print(f"specrg: solver error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"specrg: precondition violated: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
