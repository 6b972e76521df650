"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit, that the seed (and only the seed) sets the inputs, that a corrupted
reference is counted as a failed solve, that the tracer's counts repeat and
match the bisection flow's profile, and that the benchmark refuses to run
without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seconds", "0.1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    objs = {}
    for line in lines:
        if line.startswith("{"):
            obj = json.loads(line)
            objs[next(iter(obj)) if len(obj) == 1 else "result"] = obj
    return proc, lines, objs


def test_spec_lists_the_run_workloads():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_unit(workload, trace):
    proc, lines, objs = _run("--workload", workload, "--seed", "1", "--trace", str(trace),
                             "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    for m in expected:
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in lines), m["name"]
    env = objs["environment"]["environment"]
    assert env["blas_threads"] <= env["nproc"]
    if trace:
        # the traced solves were checked equal to the untraced first one
        assert set(objs["samples"]["samples"]["traced"]) == {False, True}
        if workload != "dense-oracle":
            assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    else:
        assert min(v["value"] for v in result["metrics"].values()) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_sets_the_inputs(workload):
    wl = workloads.WORKLOADS[workload]
    assert wl.make_inputs(1, "full") == wl.make_inputs(1, "full")
    assert wl.make_inputs(1, "full") != wl.make_inputs(2, "full")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_counts_as_failed(workload):
    proc, lines, _ = _run("--workload", workload, "--seed", "2", "--size", "smoke",
                          "--wrong-reference")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_traced_counts_repeat_across_runs():
    counts = []
    for _ in range(2):
        proc, lines, _ = _run("--workload", "flow-ground", "--seed", "3", "--trace", "1",
                              "--size", "smoke")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(lines[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    # the bisection flow: 5 monotonicity samples, 27 halvings to e_tol, 1 final
    assert counts[0]["rgflow.rg_step.calls"] == 33


def test_two_step_flow_profile():
    import numpy as np
    from specrg import calibration, cli, feshbach, fock, models, normalform, oracle, rgflow

    grid = fock.build_mode_grid(3, 0.5, "geometric")
    spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=3e-3, kappa=1.0)

    def builder(lam):
        return models.ground_sector_hamiltonian(spec, grid, lam)

    plain = rgflow.flow(builder(0.0), 0.5, 2, s_max=0, builder=builder)
    trc = tracer.Tracer()
    trc.install({"calibration": calibration, "cli": cli, "feshbach": feshbach,
                 "fock": fock, "models": models, "normalform": normalform,
                 "oracle": oracle, "rgflow": rgflow})
    try:
        traced = rgflow.flow(builder(0.0), 0.5, 2, s_max=0, builder=builder)
    finally:
        trc.uninstall()
    assert rgflow.rg_step.__name__ == "rg_step" and not hasattr(rgflow.rg_step, "__wrapped__")
    assert traced.to_csv() == plain.to_csv()
    summary = tracer.summarize(trc.spans)
    # step 1: 5 samples + 4 halvings + 1 final, one step each; step 2: 5 + 26 + 1,
    # two steps each; 42 map evaluations plus the initial builder(0) read
    assert summary["calls"]["rgflow.rg_step"] == 74
    assert summary["map_evals"] == 43


def test_sweep_profile():
    proc, lines, _ = _run("--workload", "step-sweep", "--seed", "0", "--trace", "1",
                          "--size", "smoke")
    metrics = json.loads(lines[-1])["metrics"]
    sizes = workloads.SWEEP_SIZES["smoke"]
    # four physical models plus n_random random kernels, n_steps steps each
    assert metrics["rgflow.rg_step.calls"]["value"] == (sizes["n_random"] + 4) * sizes["n_steps"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines, objs = _run("--workload", "flow-ground", "--seed", "1", cwd=tmp_path,
                             script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "result" not in objs
