#!/usr/bin/env python3
"""specrg benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload flow-ground --seed 3 --seconds 20 --trace 0

The seed draws the workload's inputs; the run sets up, then repeats the solve
until --seconds have passed (at least twice), checks every solve, and prints
as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, solve_s,
peak_rss_mb), measured with no wrappers installed.  Times are reported at
the speed probe's reference speed (see make_speed_probe); the raw wall
times are printed as well.  With --trace 1 the run alternates untraced and
traced solves, wraps specrg's public functions from outside (see tracer.py)
around the traced ones, prints the per-layer metrics per traced solve and
writes the spans to .perfbench_out/.  Workloads, metrics and the layer each
one stresses are described in perfbench/README.md.

Exit codes: 0 when a result was printed (failed solves are counted in it),
2 when the specrg sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread: the steadiest timing on a shared machine, and the plain
# single-threaded baseline.  Must be set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("flow-ground", "step-sweep", "dense-oracle")
SETUP_REPEATS = 5
MIN_SOLVES = 2
# Times are reported at the machine speed where make_speed_probe() takes this
# long (its median on the machine the README's numbers come from was 0.34-0.46 s).
PROBE_REF_S = 0.45

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("rgflow.map_evals", "count"),
    ("rgflow.rg_step.calls", "count"),
    ("rgflow.rg_step.s", "s"),
    ("rgflow.rg_step.self_s", "s"),
    ("rgflow.normal_order_product.calls", "count"),
    ("rgflow.normal_order_product.s1_s", "s"),
    ("rgflow.normal_order_product.s2_s", "s"),
    ("rgflow.scale_coupling.calls", "count"),
    ("rgflow.scale_coupling.s", "s"),
    ("rgflow.measured_q.s", "s"),
    ("rgflow.flow.self_s", "s"),
    ("normalform.interaction_norm.s", "s"),
    ("normalform.from_profile.calls", "count"),
    ("normalform.from_profile.s", "s"),
    ("models.ground_sector_hamiltonian.calls", "count"),
    ("models.ground_sector_hamiltonian.s", "s"),
    ("normalform.assemble_term.calls", "count"),
    ("normalform.assemble_term.s", "s"),
    ("normalform.assemble_operator.s", "s"),
    ("fock.build_fock_basis.s", "s"),
    ("fock.ladder_matrix.calls", "count"),
    ("fock.ladder_matrix.s", "s"),
    ("models.build_model.s", "s"),
    ("models.complex_dilate.s", "s"),
    ("oracle.exact_spectrum.s", "s"),
    ("oracle.resonance_eigenvalue.s", "s"),
    ("feshbach.feshbach_map.s", "s"),
    ("feshbach.isospectral_check.s", "s"),
    ("models.mass_renormalization.s", "s"),
    ("calibration.calibrate_constants.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("flow.abs_err", "1"),
    ("flow.budget", "1"),
    ("cpu_over_wall", "ratio"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes for the benchmark's own test")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="corrupt the reference so every check must fail")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and one speed probe in this fresh "
                             "process, print both, exit")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    from importlib import metadata
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "blas": blas_name, "blas_threads": BLAS_THREADS,
            "machine": platform.machine()}


def make_speed_probe():
    """A fixed computation, independent of specrg, timed between solves.

    On a shared machine the speed of a core drifts by tens of percent over
    minutes with the neighbours' load, and every workload slows alike.  The
    probe mixes what the workloads do (einsum contractions on kernel-sized
    arrays, dict and tuple churn, one LAPACK eigensolve), so its time follows
    that drift; each solve is reported at the probe's reference speed.
    Because the probe does not call specrg, a change to the package moves
    the solve time and leaves the probe alone.
    """
    import numpy as np
    rng = np.random.default_rng(12345)
    A = rng.standard_normal((33, 64, 16)) + 1j * rng.standard_normal((33, 64, 16))
    G = rng.standard_normal((33, 16)) + 0j
    B = rng.standard_normal((33, 16, 64)) + 1j * rng.standard_normal((33, 16, 64))
    big = rng.standard_normal((280, 280)) + 1j * rng.standard_normal((280, 280))

    def probe() -> float:
        t0 = time.perf_counter()
        acc = 0j
        for i in range(10):
            acc += np.einsum("riq,rq,rqj->rij", A, G, B)[i, 0, 0]
        for i in range(12000):
            acc += sum({(k, i): k * 0.5 for k in range(40)}.values())
        acc += np.linalg.eigvals(big)[0]
        return time.perf_counter() - t0

    return probe


def layer_metrics(summary: dict, n_traced: int, extra: dict) -> dict:
    """Per-layer metrics per traced solve, from tracer.summarize()."""
    calls, total, self_s = summary["calls"], summary["s"], summary["self_s"]
    nop = "rgflow.normal_order_product"
    values = {}
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if name in extra:
            values[name] = extra[name]
        elif name == "rgflow.map_evals":
            values[name] = summary["map_evals"] / n_traced
        elif name == f"{nop}.calls":
            values[name] = (calls.get(f"{nop}.s1", 0) + calls.get(f"{nop}.s2", 0)) / n_traced
        elif layer == nop:
            values[name] = total.get(f"{nop}.{field[:-2]}", 0.0) / n_traced
        elif field == "calls":
            values[name] = calls.get(layer, 0) / n_traced
        elif field == "self_s":
            values[name] = self_s.get(layer, 0.0) / n_traced
        else:
            values[name] = total.get(layer, 0.0) / n_traced
    return values


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import workloads
    from specrg import calibration, cli, feshbach, fock, models, normalform, oracle, rgflow
    modules = {"calibration": calibration, "cli": cli, "feshbach": feshbach, "fock": fock,
               "models": models, "normalform": normalform, "oracle": oracle,
               "rgflow": rgflow}
    return tracer, workloads.WORKLOADS, modules


def measure_setup(args) -> tuple:
    """Set-up and probe seconds of SETUP_REPEATS fresh interpreters.

    The import of numpy and specrg is most of the set-up and happens once per
    process, so each repeat runs in its own process.  Each child times the
    speed probe right after its set-up, so its set-up is scaled by a probe
    taken at the same moment.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size,
           "--setup-only"]
    setups, probes = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        setup, probe = map(float, proc.stdout.split()[-2:])
        setups.append(setup)
        probes.append(probe)
    return setups, probes


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = _parse(argv)
    if not (ROOT / "src" / "specrg" / "__init__.py").is_file():
        print(f"perfbench: no specrg sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        _, workload_table, _ = _import_package()
        wl = workload_table[args.workload]
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="setup-") as tmp:
            wl.prepare(wl.make_inputs(args.seed, args.size), Path(tmp))
        setup = time.perf_counter() - t_start
        print(setup, make_speed_probe()())
        return 0

    setup_times, setup_probes = ([], []) if args.trace else measure_setup(args)
    tracer, workload_table, modules = _import_package()
    wl = workload_table[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        workdir = Path(tmp)
        inputs = wl.make_inputs(args.seed, args.size)
        refs = wl.prepare(inputs, workdir)
        if args.wrong_reference:
            wl.inject_wrong_reference(refs)

        probe = make_speed_probe()
        probe_times = [probe()]
        trc = tracer.Tracer() if args.trace else None
        walls, traced_flags = [], []
        cpu_untraced = wall_untraced = 0.0
        failures = []
        diag = {}
        first = None
        t_begin = time.perf_counter()
        while len(walls) < MIN_SOLVES or time.perf_counter() - t_begin < args.seconds:
            index = len(walls)
            traced = trc is not None and index % 2 == 1
            if traced:
                trc.install(modules)
                root = trc.begin("solve")
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = wl.solve(inputs, refs, workdir, index)
            except Exception as exc:  # a failed solve is counted, the run goes on
                traceback.print_exc()
                result = None
                bad = [f"{type(exc).__name__}: {exc}"]
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            if traced:
                trc.end(root)
                trc.uninstall()
            else:
                cpu_untraced += dc
                wall_untraced += dt
            walls.append(dt)
            traced_flags.append(traced)
            probe_times.append(probe())
            if result is not None:
                bad = wl.check(inputs, refs, result, first or result)
                if not bad:
                    first = first or result
                    diag = wl.diagnostics(refs, result)
            if bad:
                failures.append({"solve": index, "traced": traced, "errors": bad})
                print(f"perfbench: solve {index} failed: {'; '.join(bad)}", file=sys.stderr)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each solve's wall time at the probe's reference speed: scaled by the mean
    # of the probe times just before and just after it
    scaled = [dt * PROBE_REF_S / (0.5 * (probe_times[i] + probe_times[i + 1]))
              for i, dt in enumerate(walls)]
    untraced = [x for x, t in zip(scaled, traced_flags) if not t]
    traced_scaled = [x for x, t in zip(scaled, traced_flags) if t]
    solve_s = statistics.median(untraced)
    if trc is None:
        setup_s = statistics.median(t * PROBE_REF_S / p
                                    for t, p in zip(setup_times, setup_probes))
        metrics = {"setup_s": setup_s, "solve_s": solve_s, "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    else:
        summary = tracer.summarize(trc.spans)
        inside = sum(v for k, v in summary["self_s"].items() if k not in tracer.ENTRY_SPANS)
        traced_wall = sum(dt for dt, t in zip(walls, traced_flags) if t)
        extra = {"trace.coverage": inside / traced_wall,
                 "trace.overhead_ratio": statistics.median(traced_scaled) / solve_s,
                 "cpu_over_wall": cpu_untraced / wall_untraced,
                 "flow.abs_err": diag.get("flow.abs_err", 0.0),
                 "flow.budget": diag.get("flow.budget", 0.0)}
        metrics = layer_metrics(summary, len(traced_scaled), extra)
        units = dict(PER_LAYER)
        trc.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")

    print(json.dumps({"environment": environment()}))
    print(json.dumps({"inputs": inputs}, default=str))
    print(json.dumps({"samples": {"solve_wall_s": walls, "traced": traced_flags,
                                  "probe_s": probe_times, "solve_scaled_s": scaled,
                                  "setup_s": setup_times, "setup_probe_s": setup_probes,
                                  "failures": failures}}))
    raw = statistics.median(dt for dt, t in zip(walls, traced_flags) if not t)
    print(f"# raw median solve wall time {raw:.6g} s over {len(untraced)} untraced solves; "
          f"median probe {statistics.median(probe_times):.6g} s")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(json.dumps({"correct": not failures, "attempted": len(walls),
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
