"""Print one sha256 line per output of the package, for bit-identity checks.

Each line is ``<sha256>  <label>``.  A change that is meant to leave every
number as it was is checked by running this script on both trees and
diffing the two outputs:

    python tools/fingerprint.py > after.txt
    python tools/fingerprint.py --src /path/to/parent/src > before.txt
    diff before.txt after.txt

--src names the directory that holds the ``specrg`` package to import
(default: ``src`` next to this script).  Arrays, StepInfo and polydisc
coordinates are hashed by value and shape, as complex128 with signed zeros
made positive: a table stored as float64 on one tree and as complex128 on the
other hashes alike when its numbers agree.  Each section therefore also
prints one line that hashes the dtypes of the arrays it hashed, in order,
labelled with how many were float64 and complex128, so that a table or a
matrix changing dtype shows there; and one line for the warnings it raised.
BLAS runs on one thread, so that sums come out in one order.  The whole run
takes about four seconds on a 2-vCPU machine.

When lines differ, --dump DIR also writes the parts each line hashed to DIR, one
.npz per line in print order, and --compare reads two such dumps and prints, for
every label whose hash differs, max|delta| / max|v| of each part (v from the first
dump), or "differs" for a part that is not a number:

    python tools/fingerprint.py --src /path/to/parent/src --dump before
    python tools/fingerprint.py --dump after
    python tools/fingerprint.py --compare before after
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import warnings
from collections import Counter
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

# the dtype of every array hashed in the running section, in order
_DTYPES: list = []

# --dump's directory (None: no dump), and the number of the next line written there
_DUMP_DIR: Path | None = None
_DUMPED = itertools.count()


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            _DTYPES.append(part.dtype.name)
            values = part.astype(complex) + 0j  # adding +0 turns -0.0 into +0.0
            h.update(f"{values.shape}".encode())
            h.update(values.tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _emit(label: str, *parts) -> None:
    digest = _digest(*parts)
    print(f"{digest}  {label}", flush=True)
    if _DUMP_DIR is not None:
        _dump(label, digest, parts)


def _dump(label: str, digest: str, parts) -> None:
    """Write one line's parts to _DUMP_DIR: arrays and numbers as arrays, bytes and
    anything else (compared only for equality) as the bytes or the repr it hashed."""
    arrays, kinds = {}, []
    for i, part in enumerate(parts):
        if isinstance(part, (np.ndarray, int, float, complex, np.number)):
            kinds.append("number")
            arrays[f"part{i}"] = np.asarray(part)
        else:
            kinds.append("bytes")
            arrays[f"part{i}"] = np.frombuffer(
                part if isinstance(part, bytes) else repr(part).encode(), dtype=np.uint8)
    np.savez(_DUMP_DIR / f"{next(_DUMPED):04d}.npz", label=label, digest=digest,
             kinds=" ".join(kinds), **arrays)


def _load(directory: str) -> dict:
    """A dump's lines by (label, how many lines of that label came before it)."""
    lines, seen = {}, Counter()
    for path in sorted(Path(directory).glob("*.npz")):
        with np.load(path) as f:
            label, kinds = str(f["label"]), str(f["kinds"]).split()
            lines[label, seen[label]] = (str(f["digest"]), kinds,
                                         [f[f"part{i}"] for i in range(len(kinds))])
        seen[label] += 1
    return lines


def _delta(before: np.ndarray, after: np.ndarray, kind: str) -> str:
    """max|after - before| / max|before| of one part (equal entries, infinities among
    them, count 0), or why no such number exists."""
    if np.array_equal(before, after):
        return "equal"
    if kind != "number":
        return "differs"
    if before.shape != after.shape:
        return f"shape {before.shape} -> {after.shape}"
    delta = np.where(before == after, 0.0, np.abs(after - before))
    scale = np.max(np.abs(before), initial=0.0)
    return f"{np.max(delta, initial=0.0) / scale:.3e}" if scale else f"|delta| {np.max(delta):.3e}"


def compare(before_dir: str, after_dir: str) -> None:
    """Print each part's _delta for every label whose hash differs between two dumps, and
    each label that only one of them holds."""
    before, after = _load(before_dir), _load(after_dir)
    for key in sorted(before.keys() - after.keys()) + sorted(after.keys() - before.keys()):
        print(f"only in {before_dir if key in before else after_dir}: {key[0]}")
    for key, (digest, kinds, parts) in before.items():
        if key in after and after[key][0] != digest:
            print(f"{key[0]}: " + ", ".join(
                f"part {i} {_delta(b, a, kind)}"
                for i, (b, a, kind) in enumerate(zip(parts, after[key][2], kinds))))


def _hamiltonian(label: str, H, info=None) -> None:
    from specrg import normalform, rgflow
    for key, w in H.terms.items():  # each kernel's full table, on every ordered tuple
        _emit(f"{label} kernel {key}", w.expanded(), w.expanded(w.dr_values))
    if info is not None:
        _emit(f"{label} StepInfo", np.array(dataclasses.astuple(info)))
    _emit(f"{label} polydisc_coordinates", np.array(rgflow.polydisc_coordinates(H)))
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
    # s_max = 2 is the default, and CLI_CONFIGS["flow"] is that run already
    runs += [("flow", {**FLOW_GROUND, "s_max": s}, f"flow-ground s_max={s}") for s in (0, 1)]
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


def bases() -> None:
    from specrg import fock
    # what every operator reads off a basis's ladder tables: the states, the
    # walks that assemble_term and field_operator take, the Schur chain's shells
    # and the ladder matrices
    for n_modes, k_max, scheme, n_max in DENSE_BASES:
        basis = fock.build_fock_basis(fock.build_mode_grid(n_modes, k_max, scheme), n_max)
        label = f"{n_modes} modes n_max={n_max} ({basis.dim} states)"
        _emit(f"states {label}", basis.states, basis.hf_diagonal())
        for kind in ("annihilate", "create"):
            for depth in (1, 2):
                _emit(f"ladder_walk {kind} depth {depth} {label}",
                      *fock.ladder_walk(basis, np.arange(basis.dim), depth, kind))
        _emit(f"shells {label}", *basis.shells)
        _emit(f"ladder_matrix {label}",
              *[fock.ladder_matrix(basis, mode) for mode in range(basis.n_modes)])


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
    # dense-oracle's resonance: z and stability on its 650-state dilation at theta = 0.2i
    res_basis = fock.build_fock_basis(fock.build_mode_grid(24, 2.0, "uniform"), 2)
    spec_15 = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=1.5e-3, kappa=2.0)
    _emit(f"resonance_eigenvalue g=1.5e-3 ({2 * res_basis.dim} states)",
          *oracle.resonance_eigenvalue(models.complex_dilate(spec_15, res_basis, 0.2j), 1.0))
    # reads between the R_GRID points, clamped below 0, and above 1 clamped
    # (the interaction kernel) or continued (w00)
    r = np.linspace(-0.2, 1.2, 57)
    rng = np.random.default_rng(5)
    shape = (len(normalform.R_GRID), basis.n_modes, basis.n_modes)
    w = normalform.CouplingFunction(1, 1, basis.grid.nodes, rng.standard_normal(shape)
                                    + 1j * rng.standard_normal(shape))
    _emit("at_r random (1,1) kernel", w.at_r(r))
    _emit("at_r model w00", H.terms[(0, 0)].at_r(r))


def ground_energies() -> None:
    from specrg import fock, models, oracle
    # the Schur chain's root, by repr: two levels on 4,290 states, and three levels
    # with Gamma_00 != 0 and three shells eliminated down to N = 0
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
    basis = fock.build_fock_basis(fock.build_mode_grid(64, 1.0, "uniform"), 2)
    _emit(f"ground_energy 64 uniform modes n_max=2 ({2 * basis.dim} states)",
          oracle.ground_energy(spec, basis))
    gamma = np.array([[0.3, 1.0, 0.5], [1.0, -0.2, 0.7], [0.5, 0.7, 0.1]], dtype=complex)
    spec = models.ModelSpec(particle_levels=np.array([0.0, 0.8, 1.5]), g=4e-3, kappa=1.0,
                            gamma=gamma)
    basis = fock.build_fock_basis(fock.build_mode_grid(8, 1.0, "geometric"), 3)
    _emit(f"ground_energy 3 levels 8 modes n_max=3 ({3 * basis.dim} states)",
          oracle.ground_energy(spec, basis))


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


def pauli_fierz() -> None:
    from specrg import models
    # every number of the transform report, and the transformed coupling it is
    # read from, past the 16 digits that cli pf prints
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
    x_grid = np.linspace(-3.0, 3.0, 13)
    rep = models.pauli_fierz_transform(spec, x_grid)
    for key, value in rep.items():
        _emit(f"pauli_fierz_transform {key}", value)
    _emit("pf_coupling on x_grid x k_grid",
          np.array([models.pf_coupling(float(x), rep["k_grid"]) for x in x_grid]))


def acceptance_flows() -> None:
    from specrg import fock, models, rgflow
    grid = fock.build_mode_grid(8, 0.5, "geometric")
    for g in (1e-3, 5e-3):
        spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=g, kappa=1.0)

        def builder(lam, spec=spec):
            return models.ground_sector_hamiltonian(spec, grid, lam)

        traj = rgflow.flow(builder(0.0), 0.5, 6, builder=builder)
        _emit(f"6-step flow g={g} e_final={traj.e_final.real!r}", traj.to_csv(), traj.budget)


def k_max_one_step() -> None:
    from specrg import fock, models, rgflow
    # measured_q's n_max = 2 basis on modes to k_max = 1 reaches field energy
    # 1.41, but the kernels are read there only at one-photon energies
    grid = fock.build_mode_grid(8, 1.0, "geometric")
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
    _, info = rgflow.rg_step(models.ground_sector_hamiltonian(spec, grid, 0.0), 0.5)
    _emit("8-mode model step to k_max=1 StepInfo", np.array(dataclasses.astuple(info)))


def sector_builder() -> None:
    from specrg import fock, models
    # three levels, and Gamma_00 != 0 gives the builder its first-order kernels too
    gamma = np.array([[0.3, 1.0, 0.5], [1.0, -0.2, 0.7], [0.5, 0.7, 0.1]], dtype=complex)
    spec = models.ModelSpec(particle_levels=np.array([0.0, 0.8, 1.5]), g=4e-3, kappa=1.0,
                            gamma=gamma)
    for k_max in (0.5, 1.0):
        H = models.ground_sector_hamiltonian(spec, fock.build_mode_grid(8, k_max, "geometric"),
                                             1.3e-3)
        _hamiltonian(f"ground_sector_hamiltonian 3 levels Gamma_00 != 0 k_max={k_max}", H)


def fourth_order_steps() -> None:
    from specrg import fock, models, normalform, rgflow
    # M_max = 4: the s = 1 orders 3 and 4 are kept, and the second step's input
    # carries kernels of every order up to 4
    grid = fock.build_mode_grid(8, 1.0, "geometric")
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
    H = normalform.NormalFormHamiltonian(
        models.ground_sector_hamiltonian(spec, grid, 0.0).terms, grid, 4)
    for step in (1, 2):
        H, info = rgflow.rg_step(H, 0.5)
        _hamiltonian(f"8-mode model step {step} to k_max=1 M_max=4", H, info)


def complex_fourth_order_step() -> None:
    from specrg import calibration, fock, normalform, rgflow
    # the calibration's complex random kernels stepped at M_max = 4: the step keeps
    # the (3,0), (2,1), (1,2) and (0,3) kernels, complex means over 3 position splits
    grid = fock.build_mode_grid(8, 0.5, "geometric")
    H0 = calibration._random_polydisc_hamiltonian(np.random.default_rng(3), grid, 0.5,
                                                  0.5 / 16.0)
    H, info = rgflow.rg_step(normalform.NormalFormHamiltonian(H0.terms, grid, 4), 0.5)
    _hamiltonian("random step M_max=4", H, info)


def decimations() -> None:
    from specrg import calibration, fock, models, rgflow
    # the decimated Hamiltonian F before its rescaling
    grid = fock.build_mode_grid(4, 0.5, "geometric")
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
    H = models.ground_sector_hamiltonian(spec, grid, 0.0)
    for s_max in (0, 1, 2):
        F, info = rgflow.decimate(H, 0.5, s_max=s_max)
        _hamiltonian(f"model decimate s_max={s_max}", F, info)
    H0 = calibration._random_polydisc_hamiltonian(
        np.random.default_rng(3), fock.build_mode_grid(8, 0.5, "geometric"), 0.5, 0.5 / 16.0)
    F, info = rgflow.decimate(H0, 0.5)
    _hamiltonian("random decimate s_max=2", F, info)


def cache_keys() -> None:
    from specrg import calibration, fock, normalform, rgflow
    # calls interleaved on keys that must not share what a step builds once:
    # two grids with equal nodes and different weights (measured_q's basis, the
    # contraction sums), two bases of one grid (assemble_term's walks), and
    # kernels on two node sets (the norms' slot weights)
    one = fock.build_mode_grid(4, 0.5, "geometric")
    grids = (one, fock.ModeGrid(one.nodes, 2.0 * one.weights))
    steps = [calibration._random_polydisc_hamiltonian(np.random.default_rng(3), grid, 0.5,
                                                      0.5 / 16.0) for grid in grids]
    for rep in (1, 2):
        for i, H in enumerate(steps):
            _hamiltonian(f"weights x{i + 1} step pass {rep}", *rgflow.rg_step(H, 0.5))
    rng = np.random.default_rng(29)
    small = fock.build_mode_grid(4, 0.25, "geometric")
    bases = [fock.build_fock_basis(small, n_max) for n_max in (2, 3)]
    for m, n in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (0, 0), (2, 1), (1, 2)):
        # a draw on every ordered tuple keeps the random stream of the kernels that
        # follow; the kernel is the draw at the sorted tuples (C order)
        shape = (len(normalform.R_GRID),) + (4,) * (m + n)
        draw = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).reshape(
            len(normalform.R_GRID), 4 ** m, 4 ** n)
        cre, ann = (normalform.multisets(4, k)[2] for k in (m, n))
        w = normalform.CouplingFunction(m, n, small.nodes, draw[:, cre][:, :, ann].reshape(
            (len(normalform.R_GRID),) + normalform.slot_shape(4, m, n)))
        for basis in bases:
            _emit(f"assemble_term ({m},{n}) n_max={basis.n_max}", normalform.assemble_term(w, basis))
        for nodes in (small.nodes, fock.build_mode_grid(4, 0.25, "uniform").nodes):
            u = normalform.CouplingFunction(m, n, nodes, w.values)
            _emit(f"({m},{n}) full norms and dr_values", u.expanded(u.dr_values), u.norm_mu1,
                  normalform.coupling_norm_mu1(u, 0.25), normalform.coupling_norm_mu(u, 0.25))


def family() -> None:
    from specrg import fock, models, rgflow
    # FLOW_GROUND's families, each member hashed as its own Hamiltonian: step 1 on the
    # builder's Hamiltonians at the Chebyshev points of e_0 -/+ rho / 8, stacked, and
    # step 2 on its images interpolated at the points around the vacuum root
    cfg, rho = FLOW_GROUND, FLOW_GROUND["rho"]
    grid = fock.build_mode_grid(**cfg["grid"])
    spec = models.ModelSpec(particle_levels=np.array(cfg["model"]["particle_levels"]),
                            g=cfg["model"]["g"], kappa=cfg["model"]["kappa"])
    x = -np.cos(np.pi * (np.arange(rgflow.DEGREE + 1) + 0.5) / (rgflow.DEGREE + 1))
    e0 = models.ground_sector_hamiltonian(spec, grid, 0.0).terms[(0, 0)].values[0]
    family = rgflow._stack([models.ground_sector_hamiltonian(spec, grid, lam)
                            for lam in e0 + rho / 8.0 * x])
    family, infos = rgflow.rg_step(family, rho)
    for i, info in enumerate(infos):
        _hamiltonian(f"family step 1 member {i}", rgflow._member(family, i), info)
    vacuum = [E.real for E in rgflow.split(family)[0]]
    root = next(r.real for r in np.roots(np.linalg.solve(np.vander(x), vacuum))
                if r.imag == 0 and abs(r.real) <= 1.0)
    family = rgflow._combine(family, rgflow._lagrange(x, root + rho * x))
    for i in range(len(x)):
        _hamiltonian(f"family step 2 input member {i}", rgflow._member(family, i))
    family, infos = rgflow.rg_step(family, rho)
    for i, info in enumerate(infos):
        _hamiltonian(f"family step 2 member {i}", rgflow._member(family, i), info)


def live_nodes() -> None:
    from specrg import fock, models, normalform, rgflow
    # a step reads 0 below the lowest node, so after n steps at rho = 1/2 the n lowest
    # geometric nodes are dead: steps 2 to 4 at M_max = 4 run on 1 to 3 dead nodes
    grid = fock.build_mode_grid(8, 1.0, "geometric")
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=5e-3, kappa=1.0)
    H = normalform.NormalFormHamiltonian(
        models.ground_sector_hamiltonian(spec, grid, 0.0).terms, grid, 4)
    for step in (1, 2, 3, 4):
        H, info = rgflow.rg_step(H, 0.5)
        _hamiltonian(f"8-mode model step {step} to k_max=1 M_max=4, {step - 1} dead", H, info)
    # on 4 modes no node is live from step 5 on, and W is 0
    grid = fock.build_mode_grid(4, 0.5, "geometric")
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=3e-3, kappa=1.0)

    def builder(lam):
        return models.ground_sector_hamiltonian(spec, grid, lam)

    traj = rgflow.flow(builder(0.0), 0.5, 10, builder=builder)
    _emit(f"10-step 4-mode flow e_final={traj.e_final.real!r}", traj.to_csv(), traj.budget)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the specrg package")
    parser.add_argument("--dump", metavar="DIR",
                        help="also write the parts of every line to DIR, one .npz per line")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two --dump directories instead of fingerprinting")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if args.dump:
        global _DUMP_DIR
        _DUMP_DIR = Path(args.dump)
        _DUMP_DIR.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, args.src)
    for section in (cli_outputs, rg_steps, calibration_sweeps, flow_without_builder,
                    bases, dense_models, dense_reads, ground_energies, dense_feshbach, pauli_fierz,
                    acceptance_flows, k_max_one_step, sector_builder, decimations,
                    fourth_order_steps, complex_fourth_order_step, cache_keys, family,
                    live_nodes):
        _DTYPES.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            section()
        _emit(f"{section.__name__} warnings ({len(caught)})",
              [(w.category.__name__, str(w.message)) for w in caught])
        count = Counter(_DTYPES)
        _emit(f"{section.__name__} dtypes ({count['float64']} float64, "
              f"{count['complex128']} complex128)", " ".join(_DTYPES))


if __name__ == "__main__":
    main()
