"""Print one sha256 line per output of the package, for bit-identity checks.

Each line is ``<sha256>  <label>``.  A change that is meant to leave every
number as it was is checked by running this script on both trees and
diffing the two outputs:

    python tools/fingerprint.py > after.txt
    python tools/fingerprint.py --src /path/to/parent/src > before.txt
    diff before.txt after.txt

--src names the directory that holds the ``specrg`` package to import
(default: ``src`` next to this script).  BLAS runs on one thread, so that
sums come out in one order.  The whole run takes about ten seconds on a
2-vCPU machine.  Each section also prints one line for the warnings it
raised.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# imported after the pins above, which BLAS reads when it loads
import numpy as np  # noqa: E402

# the test_cli determinism configs
BASE_CONFIG = {"grid": {"n_modes": 8, "k_max": 0.5, "scheme": "geometric"},
               "model": {"particle_levels": [0.0, 1.0], "g": 5e-3, "kappa": 1.0},
               "n_max": 2}
CLI_CONFIGS = {
    "spectrum": BASE_CONFIG, "pf": BASE_CONFIG, "verify": BASE_CONFIG,
    "flow": {**BASE_CONFIG, "grid": {**BASE_CONFIG["grid"], "n_modes": 4}, "n_steps": 2},
    "mass": {"grid": {"n_modes": 8, "k_max": 1.0, "scheme": "geometric"},
             "model": {"particle_levels": [0.0], "kappa": 1.0},
             "n_max": 2, "g_values": [0.0, 2e-3, 5e-3, 1e-2],
             "p_grid": [-0.2, -0.1, 0.0, 0.1, 0.2]},
    "resonance": {"grid": {"n_modes": 48, "k_max": 2.0, "scheme": "uniform"},
                  "model": {"particle_levels": [0.0, 1.0], "g": 2e-3, "kappa": 2.0},
                  "n_max": 1},
}
# perfbench's flow-ground config at its full size, with g fixed
FLOW_GROUND = {"grid": {"n_modes": 4, "k_max": 0.5, "scheme": "geometric"},
               "model": {"particle_levels": [0.0, 1.0], "g": 5e-3, "kappa": 1.0},
               "rho": 0.5, "n_steps": 2}
# uniform nodes are not closed under k -> k / 2, so the flow refuses them
FLOW_UNIFORM = {**FLOW_GROUND, "grid": {**FLOW_GROUND["grid"], "scheme": "uniform"}}
# (n_modes, k_max, scheme, n_max) of the dense bases
DENSE_BASES = ((8, 0.5, "geometric", 2), (24, 2.0, "uniform", 2), (12, 0.25, "geometric", 3))
THETAS = (0.0, 0.2j, 0.1 + 0.15j)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _emit(label: str, *parts) -> None:
    print(f"{_digest(*parts)}  {label}", flush=True)


def _hamiltonian(label: str, H, info=None) -> None:
    from specrg import normalform, rgflow
    for key, w in H.terms.items():
        _emit(f"{label} kernel {key}", w.values, w.dr_values)
    if info is not None:
        _emit(f"{label} StepInfo", info)
    _emit(f"{label} polydisc_coordinates", rgflow.polydisc_coordinates(H))
    _emit(f"{label} norms", normalform.hamiltonian_norm(H), normalform.interaction_norm(H))


def _raised(call) -> tuple:
    """(exception class, message) of what call() raises, or ("returned",)."""
    try:
        call()
    except ValueError as exc:  # DomainError among them
        return type(exc).__name__, str(exc)
    return ("returned",)


def cli_outputs() -> None:
    from specrg import cli
    runs = [(cmd, cfg, cmd) for cmd, cfg in CLI_CONFIGS.items()]
    runs += [("flow", {**FLOW_GROUND, "s_max": s}, f"flow-ground s_max={s}") for s in (0, 1, 2)]
    runs += [("flow", FLOW_UNIFORM, "flow uniform")]
    with tempfile.TemporaryDirectory() as tmp:
        for i, (cmd, cfg, label) in enumerate(runs):
            cfg_path = Path(tmp) / f"cfg{i}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = Path(tmp) / f"out{i}"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([cmd, "--config", str(cfg_path), "--out", str(out), "--seed", "3"])
            files = sorted(out.iterdir()) if out.exists() else []
            _emit(f"cli {label} exit={code}", code, err.getvalue(),
                  *[p.name.encode() + p.read_bytes() for p in files])


def rg_steps() -> None:
    from specrg import calibration, fock, models, rgflow
    grid = fock.build_mode_grid(4, 0.5, "geometric")
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
    for s_max in (0, 1, 2):
        H = models.ground_sector_hamiltonian(spec, grid, 0.0)
        for step in (1, 2):
            H, info = rgflow.rg_step(H, 0.5, s_max=s_max)
            _hamiltonian(f"model step {step} s_max={s_max}", H, info)
    grid8 = fock.build_mode_grid(8, 0.5, "geometric")
    for s_max in (0, 1, 2):
        H0 = calibration._random_polydisc_hamiltonian(np.random.default_rng(3), grid8, 0.5,
                                                      0.5 / 16.0)
        H, info = rgflow.rg_step(H0, 0.5, s_max=s_max)
        _hamiltonian(f"random step s_max={s_max}", H, info)
    # off the rho = 1/2 grid: the s = 2 product's rows stop at the first R_GRID
    # point above rho = 0.3, which is not a point of R_GRID, on nodes rho^i / sqrt(8)
    # (each exactly rho times the one above it, so closed under k -> rho k)
    nodes = np.cumprod([0.5 / np.sqrt(2.0)] + [0.3] * 7)[::-1]
    edges = np.concatenate(([0.0], nodes / np.sqrt(0.3)))
    closed8 = fock.ModeGrid(nodes, 4.0 * np.pi / 3.0 * np.diff(edges ** 3))
    closed4 = fock.ModeGrid(nodes[4:], closed8.weights[4:])
    H = models.ground_sector_hamiltonian(spec, closed4, 0.0)
    for step in (1, 2):
        H, info = rgflow.rg_step(H, 0.3)
        _hamiltonian(f"model step {step} rho=0.3", H, info)
    H0 = calibration._random_polydisc_hamiltonian(np.random.default_rng(3), closed8, 0.3,
                                                  0.3 / 16.0)
    H, info = rgflow.rg_step(H0, 0.3)
    _hamiltonian("random step rho=0.3", H, info)
    # more modes, so more slot tuples share a shift
    grid12 = fock.build_mode_grid(12, 0.5, "geometric")
    H, info = rgflow.rg_step(models.ground_sector_hamiltonian(spec, grid12, 0.0), 0.5)
    _hamiltonian("12-mode model step s_max=2", H, info)
    # on uniform nodes rho k falls between nodes, which the rescaling refuses
    uniform = fock.build_mode_grid(6, 0.5, "uniform")
    H0 = models.ground_sector_hamiltonian(spec, uniform, 0.0)
    raised = _raised(lambda: rgflow.scale_coupling(H0.terms[(1, 1)], 0.5))
    _emit(f"uniform scale_coupling (1, 1): {raised[0]}", raised)
    raised = _raised(lambda: rgflow.rg_step(H0, 0.5))
    _emit(f"uniform model rg_step: {raised[0]}", raised)


def calibration_sweeps() -> None:
    from specrg import calibration
    for seed in (0, 3, 811):
        _emit(f"calibrate_constants({seed}, 2, 1)", calibration.calibrate_constants(seed, 2, 1))


def flow_without_builder() -> None:
    from specrg import fock, models, rgflow
    grid = fock.build_mode_grid(4, 0.5, "geometric")
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
    traj = rgflow.flow(models.ground_sector_hamiltonian(spec, grid, 0.0), 0.5, 2)
    _emit("flow(H0, 0.5, 2)", traj.to_csv(), traj.e_final, traj.budget)


def dense_models() -> None:
    from specrg import fock, models
    for n_modes, k_max, scheme, n_max in DENSE_BASES:
        basis = fock.build_fock_basis(fock.build_mode_grid(n_modes, k_max, scheme), n_max)
        label = f"{n_modes} modes n_max={n_max} ({basis.dim} states)"
        spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
        _emit(f"build_model {label}", models.build_model(spec, basis).H)
        for theta in THETAS:
            _emit(f"complex_dilate theta={theta} {label}",
                  models.complex_dilate(spec, basis, theta).H)
        _emit(f"field_operator {label}", models.field_operator(spec, basis))
        mass_spec = models.ModelSpec(particle_levels=np.array([0.0]), g=5e-3, kappa=1.0)
        _emit(f"fiber_hamiltonian {label}", models.fiber_hamiltonian(mass_spec, basis, 0.1))
        fit = models.mass_renormalization(mass_spec, basis, [-0.2, -0.1, 0.0, 0.1, 0.2])
        _emit(f"m_ren {label}", fit["m_ren"], fit["energies"])


def dense_reads() -> None:
    from specrg import fock, models, normalform, oracle
    # dense-oracle's Feshbach basis: n_max k_max = 1 keeps its field energies in [0, 1]
    basis = fock.build_fock_basis(fock.build_mode_grid(12, 1.0 / 3.0, "geometric"), 3)
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
    H = models.ground_sector_hamiltonian(spec, basis.grid, 0.0)
    _emit(f"assemble_operator ground sector 12 modes n_max=3 ({basis.dim} states)",
          np.asarray(normalform.assemble_operator(H, basis)))
    res_spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=2e-3, kappa=2.0)
    for n_modes in (24, 48):
        shifts = oracle.perturbation_oracle(res_spec, fock.build_mode_grid(n_modes, 2.0, "uniform"))
        _emit(f"perturbation_oracle {n_modes} uniform modes", shifts["ground_shift"],
              shifts["widths"])
    # reads between the R_GRID points, and clamped below 0 and above 1
    r = np.linspace(-0.2, 1.2, 57)
    rng = np.random.default_rng(5)
    shape = (len(normalform.R_GRID), basis.n_modes, basis.n_modes)
    w = normalform.CouplingFunction(1, 1, basis.grid.nodes, rng.standard_normal(shape)
                                    + 1j * rng.standard_normal(shape))
    _emit("at_r random (1,1) kernel", w.at_r(r))
    _emit("at_r model w00", H.terms[(0, 0)].at_r(r))


def dense_feshbach() -> None:
    from specrg import feshbach, fock, models, normalform, oracle
    # dense-oracle's Feshbach and mass calls on its 455-state basis
    basis = fock.build_fock_basis(fock.build_mode_grid(12, 1.0 / 3.0, "geometric"), 3)
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=3e-3, kappa=1.0)
    H = models.ground_sector_hamiltonian(spec, basis.grid, 0.0)
    Hop = normalform.assemble_operator(H, basis)
    tau = normalform.assemble_term(H.terms[(0, 0)], basis)
    spectrum = oracle.exact_spectrum(Hop)
    _emit("exact_spectrum ground sector", spectrum)
    for smooth in (False, True):
        pair = feshbach.spectral_projection(basis, 0.5, smooth=smooth)
        label = "smooth" if smooth else "sharp"
        res = feshbach.feshbach_map(Hop, tau, pair)
        for name in ("F", "Q", "Qsharp", "Hchibar_inv"):
            _emit(f"feshbach_map {label} {name}", getattr(res, name))
        _emit(f"identity_defect {label}", feshbach.identity_defect(Hop, res))
        _emit(f"isospectral_check {label} at e0",
              feshbach.isospectral_check(Hop, pair, float(spectrum[0])))
    mass_spec = models.ModelSpec(particle_levels=np.array([0.0]), g=0.05, kappa=1.0)
    fit = models.mass_renormalization(mass_spec, basis, np.linspace(-0.2, 0.2, 7))
    _emit("mass_renormalization 455 states", fit["m_ren"], fit["energies"])


def acceptance_flows() -> None:
    from specrg import fock, models, rgflow
    grid = fock.build_mode_grid(8, 0.5, "geometric")
    for g in (1e-3, 5e-3):
        spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=g, kappa=1.0)

        def builder(lam, spec=spec):
            return models.ground_sector_hamiltonian(spec, grid, lam)

        traj = rgflow.flow(builder(0.0), 0.5, 6, builder=builder)
        _emit(f"6-step flow g={g} e_final={traj.e_final.real!r}", traj.to_csv(), traj.budget)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the specrg package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    for section in (cli_outputs, rg_steps, calibration_sweeps, flow_without_builder,
                    dense_models, dense_reads, dense_feshbach, acceptance_flows):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            section()
        _emit(f"{section.__name__} warnings ({len(caught)})",
              [(w.category.__name__, str(w.message)) for w in caught])


if __name__ == "__main__":
    main()
