"""Batch driver: verification suites and experiments with CSV/JSON output.

Usage:
    specrg <verify|flow|spectrum|resonance|mass|pf> --config cfg.json
           --out outdir [--seed N]

Exit codes: 0 success, 1 invariant failure, 2 usage error (a config key that
no command reads, or a value of the wrong JSON type, is one), 3 domain or
precondition violation (a resonance level out of range is one) or a dense
solver failure.  Identical config and seed produce byte-identical output
files; all CSV uses '.' decimals, '\\n' line endings, and a header row.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb
from pathlib import Path

import numpy as np

from . import feshbach, fock, models, normalform, oracle, rgflow

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


# The kind of every key some command reads, at the top level ("") and inside
# "grid" and "model"; a list holds numbers or lists of them.  One table serves
# all commands, so a config may be shared between them.  Null is the default
# for the NULLABLE keys and a wrong type for every other one.
CONFIG_KEYS = {"": {"grid": dict, "model": dict, "n_max": int, "rho": float, "n_trials": int,
                    "n_steps": int, "s_max": int, "k": int, "im_thetas": list, "level": int,
                    "g_values": list, "p_grid": list, "x_grid": list},
               "grid": {"n_modes": int, "k_max": float, "scheme": str},
               "model": {"particle_levels": list, "g": float, "kappa": float, "mass": float,
                         "gamma": list}}
NULLABLE = {"k", "model.gamma"}
KIND_NAMES = {dict: "a JSON object", int: "an integer", float: "a number", str: "a string",
              list: "a list of numbers"}


def _has_kind(value, kind: type) -> bool:
    if kind is list:
        return isinstance(value, list) and all(_has_kind(v, float) or _has_kind(v, list)
                                               for v in value)
    if kind in (int, float):
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and (kind is float or float(value).is_integer()))
    return isinstance(value, kind)


def _check_keys(cfg: dict) -> None:
    """ValueError naming the first config key that no command reads or whose
    value has the wrong JSON type."""
    for section, kinds in CONFIG_KEYS.items():
        for key, value in (cfg.get(section, {}) if section else cfg).items():
            name = f"{section}.{key}" if section else key
            if key not in kinds:
                raise ValueError(f"unknown config key {name!r}")
            if not (_has_kind(value, kinds[key]) or (value is None and name in NULLABLE)):
                raise ValueError(f"config key {name!r} must be {KIND_NAMES[kinds[key]]}, "
                                 f"not {json.dumps(value)}")


def _value(cfg: dict, name: str, default):
    """The config value at name ("key" or "section.key"), checked by _check_keys,
    as its kind in CONFIG_KEYS; default when it is absent or null."""
    *section, key = name.split(".")
    value = (cfg.get(section[0], {}) if section else cfg).get(key)
    if value is None:
        return default
    kind = CONFIG_KEYS[section[0] if section else ""][key]
    return kind(value) if kind in (int, float) else value


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _grid_from_config(cfg: dict) -> fock.ModeGrid:
    return fock.build_mode_grid(_value(cfg, "grid.n_modes", 8),
                                _value(cfg, "grid.k_max", 0.5),
                                _value(cfg, "grid.scheme", "geometric"))


def _basis_from_config(cfg: dict, n_max: int) -> fock.FockBasis:
    """The Fock basis of the config (n_max its default), refused (ValueError) before
    it is enumerated when it has more than fock.DEFAULT_DIM_CAP states."""
    grid, n_max = _grid_from_config(cfg), _value(cfg, "n_max", n_max)
    fock.check_dense(sum(comb(grid.n_modes + j - 1, j) for j in range(n_max + 1)))
    return fock.build_fock_basis(grid, n_max)


def _spec_from_config(cfg: dict) -> models.ModelSpec:
    return models.ModelSpec(
        particle_levels=_value(cfg, "model.particle_levels", [0.0, 1.0]),
        g=_value(cfg, "model.g", 1e-3),
        kappa=_value(cfg, "model.kappa", 1.0),
        mass=_value(cfg, "model.mass", 1.0),
        gamma=_value(cfg, "model.gamma", None),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(cfg: dict, out: Path, seed: int) -> int:
    rng = np.random.default_rng(seed)
    basis = _basis_from_config(cfg, 2)
    grid = basis.grid
    rho = _value(cfg, "rho", 0.5)
    n_trials = _value(cfg, "n_trials", 10)
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, not {n_trials}")
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
    a = [fock.ladder_matrix(basis, i) for i in range(basis.n_modes)]
    for i, ai in enumerate(a):
        for j, aj in enumerate(a):
            cj = aj.T
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
        pair = feshbach.ProjectionPair(chi)
        rep = feshbach.isospectral_check(H, pair, 0.1 + 0.05j)
        all_equal = all_equal and rep["null_dims_equal"]
        worst = max(worst, rep["identity_defect_HQ"], rep["identity_defect_QsH"])
    record("feshbach_isospectrality", all_equal and worst < 1e-10, 1e-10 - worst)

    # basic bound on random kernels
    margin = np.inf
    for _ in range(n_trials):
        w = _random_kernel(rng, grid.nodes, 1, 1)
        lhs, rhs = normalform.basic_bound_margin(w, rho, normalform.MU, basis)
        margin = min(margin, rhs * (1.0 + 1e-9) - lhs)
    record("basic_bound", margin >= 0.0, margin)

    # scaling fixed point
    hf_kernel = normalform.CouplingFunction(0, 0, grid.nodes, normalform.R_GRID)
    scaled = rgflow.scale_coupling(hf_kernel, rho)
    fp_dev = float(np.max(np.abs(scaled.values - hf_kernel.values)))
    record("scaling_fixed_point", fp_dev < 1e-12, 1e-12 - fp_dev)

    # the flow rescales k -> rho k as a node shift, so it refuses nodes not
    # closed under it; the margin is minus the distance of rho k to the nearest node
    margin = 0.0
    try:
        rgflow._slot_index(grid.nodes, rho)
    except rgflow.DomainError as exc:
        margin = -float(np.min(np.abs(grid.nodes - exc.margins["rho_k"])))
    record("nodes_closed_under_rho", margin == 0.0, margin)

    report["all_passed"] = bool(ok)
    _write(out / "verify_report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if ok else EXIT_INVARIANT


def _random_kernel(rng, nodes, m, n):
    """Gaussian kernel on multisets (the critical infrared power k^(MU - 1/2) is 1)."""
    shape = (len(normalform.R_GRID),) + normalform.slot_shape(len(nodes), m, n)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return normalform.CouplingFunction(m, n, nodes, vals)


def cmd_flow(cfg: dict, out: Path, seed: int) -> int:
    spec = _spec_from_config(cfg)
    grid = _grid_from_config(cfg)
    rho = _value(cfg, "rho", 0.5)
    n_steps = _value(cfg, "n_steps", 6)
    s_max = _value(cfg, "s_max", 2)

    def builder(lam):
        return models.ground_sector_hamiltonian(spec, grid, lam)

    traj = rgflow.flow(builder(0.0), rho, n_steps, s_max=s_max, builder=builder)
    _write(out / "flow.csv", traj.to_csv())
    summary = {"e_final_re": traj.e_final.real, "e_final_im": traj.e_final.imag,
               "budget": traj.budget}
    _write(out / "flow_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_spectrum(cfg: dict, out: Path, seed: int) -> int:
    spec = _spec_from_config(cfg)
    basis = _basis_from_config(cfg, 2)
    model = models.build_model(spec, basis)
    vals = oracle.exact_spectrum(model.H, _value(cfg, "k", None))
    lines = ["index,eig_re,eig_im"]
    for i, v in enumerate(np.atleast_1d(vals)):
        lines.append(f"{i},{_fmt(np.real(v))},{_fmt(np.imag(v))}")
    _write(out / "spectrum.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_resonance(cfg: dict, out: Path, seed: int) -> int:
    spec = _spec_from_config(cfg)
    basis = _basis_from_config(cfg, 1)
    thetas = _value(cfg, "im_thetas", oracle.STABILITY_THETAS)
    level = _value(cfg, "level", 1)
    if not 0 <= level < spec.n_levels:
        raise ValueError(f"level {level} is not one of the {spec.n_levels} particle levels")
    seed_energy = float(spec.particle_levels[level])
    if not thetas:
        raise ValueError("im_thetas must list at least one angle")
    # one located eigenvalue per angle, each by a Schur chain, gives every row
    _, zs, stab = oracle._resonance_at_angles(spec, basis, 1j * float(thetas[0]), seed_energy,
                                              None, thetas)
    lines = ["im_theta,z_re,z_im,stability"]
    for t, z in zip(thetas, zs):
        lines.append(f"{_fmt(t)},{_fmt(z.real)},{_fmt(z.imag)},{_fmt(stab)}")
    _write(out / "resonance.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_mass(cfg: dict, out: Path, seed: int) -> int:
    basis = _basis_from_config(cfg, 2)
    g_values = _value(cfg, "g_values", [0.0, 1e-3, 2e-3, 5e-3])
    p_grid = np.asarray(_value(cfg, "p_grid", [0.0, 0.08, 0.16, 0.24, 0.32]), dtype=float)
    levels = _value(cfg, "model.particle_levels", [0.0])
    kappa, mass = _value(cfg, "model.kappa", 1.0), _value(cfg, "model.mass", 1.0)
    lines = ["g,m_ren,residual"]
    for g in g_values:
        spec = models.ModelSpec(particle_levels=levels, g=float(g), kappa=kappa, mass=mass)
        fit = models.mass_renormalization(spec, basis, p_grid)
        lines.append(f"{_fmt(g)},{_fmt(fit['m_ren'])},{_fmt(fit['residual'])}")
    _write(out / "mass.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_pf(cfg: dict, out: Path, seed: int) -> int:
    spec = _spec_from_config(cfg)
    x_grid = np.asarray(_value(cfg, "x_grid", [0.0, 0.5, 1.0, 2.0]), dtype=float)
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
        _check_keys(cfg)
    except (OSError, ValueError) as exc:
        print(f"specrg: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        return COMMANDS[args.command](cfg, Path(args.out), args.seed)
    except (rgflow.DomainError, rgflow.FlowStalledError, oracle.NotFoundError) as exc:
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
