"""Batch driver: subcommands, exit codes, output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specrg
from specrg.cli import EXIT_DOMAIN, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, main


def _cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE_CONFIG = {
    "grid": {"n_modes": 8, "k_max": 0.5, "scheme": "geometric"},
    "model": {"particle_levels": [0.0, 1.0], "g": 5e-3, "kappa": 1.0},
    "n_max": 2,
}


MASS_CONFIG = {"grid": {"n_modes": 8, "k_max": 1.0, "scheme": "geometric"},
               "model": {"particle_levels": [0.0], "kappa": 1.0},
               "n_max": 2, "g_values": [0.0, 2e-3, 5e-3, 1e-2],
               "p_grid": [-0.2, -0.1, 0.0, 0.1, 0.2]}

RESONANCE_CONFIG = {"grid": {"n_modes": 48, "k_max": 2.0, "scheme": "uniform"},
                    "model": {"particle_levels": [0.0, 1.0], "g": 2e-3, "kappa": 2.0},
                    "n_max": 1}


class TestVerify:
    def test_default_config_passes(self, tmp_path):
        cfg = _cfg(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "verify_report.json").read_text())
        assert report["all_passed"]
        assert all(c["passed"] for c in report["checks"])

    def test_vacuum_only_basis_is_degenerate_but_defined(self, tmp_path):
        cfg = _cfg(tmp_path, {**BASE_CONFIG, "n_max": 0})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK

    def test_failed_check_exits_with_invariant_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(specrg.fock, "pull_through_check", lambda basis, f, mode: 1.0)
        cfg = _cfg(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_INVARIANT
        report = json.loads((out / "verify_report.json").read_text())
        assert report["all_passed"] is False
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["pull_through"]

    def test_nodes_not_closed_under_rho_fail_verify(self, tmp_path):
        # flow refuses this grid (exit 3): rho k = 0.046875 lies between two nodes
        cfg = _cfg(tmp_path, {**BASE_CONFIG, "grid": {**BASE_CONFIG["grid"], "scheme": "uniform"},
                              "n_max": 1})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_INVARIANT
        report = json.loads((out / "verify_report.json").read_text())
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["nodes_closed_under_rho"]
        assert failed[0]["margin"] == -0.015625  # to the nearest node 0.03125
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "flow")]) == EXIT_DOMAIN


class TestUsageErrors:
    def test_corrupted_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_missing_config_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_unknown_command(self, tmp_path):
        cfg = _cfg(tmp_path, BASE_CONFIG)
        assert main(["renormalize", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    @pytest.mark.parametrize("command, payload, key", [
        ("flow", {**BASE_CONFIG, "n_step": 2}, "'n_step'"),
        ("spectrum", {**BASE_CONFIG, "grid": {**BASE_CONFIG["grid"], "k_mx": 1.0}},
         "'grid.k_mx'"),
        # the infrared exponent is normalform.MU, not a setting
        ("verify", {**BASE_CONFIG, "mu": 0.5}, "'mu'")], ids=["n_step", "grid.k_mx", "mu"])
    def test_unknown_config_key(self, tmp_path, capsys, command, payload, key):
        cfg = _cfg(tmp_path, payload)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command, payload, key", [
        ("spectrum", {**BASE_CONFIG, "model": {**BASE_CONFIG["model"], "g": None}}, "'model.g'"),
        ("flow", {**BASE_CONFIG, "n_steps": [1]}, "'n_steps'"),
        ("resonance", {**RESONANCE_CONFIG, "im_thetas": 0.2}, "'im_thetas'"),
        ("spectrum", {**BASE_CONFIG, "grid": {**BASE_CONFIG["grid"], "n_modes": "x"}},
         "'grid.n_modes'"),
        ("spectrum", {**BASE_CONFIG, "model": {**BASE_CONFIG["model"], "particle_levels": "ab"}},
         "'model.particle_levels'")],
        ids=["model.g-null", "n_steps-list", "im_thetas-number", "grid.n_modes-string",
             "particle_levels-string"])
    def test_wrong_value_type(self, tmp_path, capsys, command, payload, key):
        cfg = _cfg(tmp_path, payload)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("specrg: config error:") and key in err
        assert not out.exists()

    def test_unknown_option(self, tmp_path):
        cfg = _cfg(tmp_path, BASE_CONFIG)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--threads", "2"]) == EXIT_USAGE


class TestSpectrum:
    def test_uncoupled_tensor_sums(self, tmp_path):
        payload = {**BASE_CONFIG, "model": {**BASE_CONFIG["model"], "g": 0.0}}
        cfg = _cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "spectrum.csv").read_text().strip().split("\n")
        assert lines[0] == "index,eig_re,eig_im"
        vals = np.array([float(l.split(",")[1]) for l in lines[1:]])

        from specrg.fock import build_fock_basis, build_mode_grid
        basis = build_fock_basis(build_mode_grid(8, 0.5, "geometric"), 2)
        hf = basis.hf_diagonal()
        expected = np.sort(np.concatenate([hf, hf + 1.0]))
        assert np.allclose(np.sort(vals), expected, atol=1e-12)


class TestFlowCommand:
    def test_short_flow_runs_and_reports(self, tmp_path):
        payload = {**BASE_CONFIG, "n_steps": 3}
        cfg = _cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "flow.csv").read_text().strip().split("\n")
        assert lines[0] == "step,e_re,e_im,E_abs,beta,gamma,budget"
        gammas = [float(l.split(",")[5]) for l in lines[1:]]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))
        summary = json.loads((out / "flow_summary.json").read_text())
        assert summary["e_final_re"] < 0.0

    def test_excessive_coupling_exits_with_domain_code(self, tmp_path):
        payload = {**BASE_CONFIG,
                   "model": {**BASE_CONFIG["model"], "g": 2.0}, "n_steps": 2}
        cfg = _cfg(tmp_path, payload)
        out = tmp_path / "out"
        with pytest.warns(UserWarning):
            code = main(["flow", "--config", cfg, "--out", str(out)])
        assert code == EXIT_DOMAIN

    def test_nodes_not_closed_under_rho_exit_with_domain_code(self, tmp_path, capsys):
        # half of a uniform node falls between two nodes, which the rescaling
        # cannot read; the flow refuses before it writes anything
        payload = {**BASE_CONFIG, "grid": {**BASE_CONFIG["grid"], "scheme": "uniform"}}
        out = tmp_path / "out"
        assert main(["flow", "--config", _cfg(tmp_path, payload), "--out", str(out)]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "rho k = 0.046875 (k = 0.09375, rho = 0.5) lies between two nodes" in err
        assert not (out / "flow.csv").exists()


class TestMassCommand:
    def test_monotone_renormalized_mass(self, tmp_path):
        cfg = _cfg(tmp_path, MASS_CONFIG)
        out = tmp_path / "out"
        assert main(["mass", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "mass.csv").read_text().strip().split("\n")
        m = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(a <= b + 1e-12 for a, b in zip(m, m[1:]))


class TestSolverFailures:
    def test_spectrum_solver_error_exits_with_domain_code(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise specrg.oracle.SolverError("eigensolver did not converge")

        monkeypatch.setattr(specrg.oracle, "exact_spectrum", fail)
        cfg = _cfg(tmp_path, BASE_CONFIG)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "did not converge" in err

    def test_mass_fit_failure_exits_with_domain_code(self, tmp_path, monkeypatch, capsys):
        # E(P) = -P^2 gives a negative quadratic coefficient, so no mass
        monkeypatch.setattr(specrg.models, "fiber_hamiltonian",
                            lambda spec, basis, P: -P ** 2 * np.eye(basis.dim))
        cfg = _cfg(tmp_path, MASS_CONFIG)
        assert main(["mass", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "quadratic coefficient" in err

    @pytest.mark.parametrize("command, module, name, error", [
        ("flow", specrg.rgflow, "flow", specrg.rgflow.FlowStalledError("no root on the interval")),
        ("resonance", specrg.oracle, "_nearest_eigenvalue",
         specrg.oracle.NotFoundError("no eigenvalue within the radius"))],
        ids=["flow-stalled", "resonance-not-found"])
    def test_domain_failure_exits_with_domain_code(self, tmp_path, monkeypatch, capsys,
                                                   command, module, name, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, name, fail)
        payload = RESONANCE_CONFIG if command == "resonance" else {**BASE_CONFIG, "n_steps": 1}
        cfg = _cfg(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err == f"specrg: domain error: {error}\n"


class TestResonanceCommand:
    def test_stable_pole_column(self, tmp_path):
        cfg = _cfg(tmp_path, RESONANCE_CONFIG)
        out = tmp_path / "out"
        assert main(["resonance", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "resonance.csv").read_text().strip().split("\n")
        rows = [l.split(",") for l in lines[1:]]
        ims = [float(r[2]) for r in rows]
        stabs = [float(r[3]) for r in rows]
        assert all(v < 0 for v in ims)
        assert all(s < 1e-5 for s in stabs)

    def test_each_angle_is_dilated_and_solved_once(self, tmp_path, monkeypatch):
        calls = {"dilate": 0, "locate": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        dilate = counted("dilate", specrg.models.complex_dilate)
        monkeypatch.setattr(specrg.models, "complex_dilate", dilate)
        monkeypatch.setattr(specrg.oracle, "complex_dilate", dilate)
        monkeypatch.setattr(specrg.oracle, "_nearest_eigenvalue",
                            counted("locate", specrg.oracle._nearest_eigenvalue))
        cfg = _cfg(tmp_path, RESONANCE_CONFIG)
        out = tmp_path / "out"
        assert main(["resonance", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert calls == {"dilate": 3, "locate": 3}
        rows = (out / "resonance.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == [f"{t:.16e}" for t in (0.15, 0.2, 0.25)]
        assert len({r.split(",")[3] for r in rows}) == 1

    def test_level_out_of_range_exits_with_domain_code(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, {**RESONANCE_CONFIG, "level": 5})
        assert main(["resonance", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "level 5" in err

    @pytest.mark.parametrize("thetas", [[], [0.2, 0.0]])
    def test_missing_or_real_angle_exits_with_domain_code(self, tmp_path, thetas):
        cfg = _cfg(tmp_path, {**RESONANCE_CONFIG, "im_thetas": thetas})
        assert main(["resonance", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_DOMAIN


class TestDeterminism:
    CONFIGS = {"flow": {**BASE_CONFIG, "grid": {**BASE_CONFIG["grid"], "n_modes": 4},
                        "n_steps": 2},
               "mass": MASS_CONFIG, "resonance": RESONANCE_CONFIG}

    @pytest.mark.parametrize("command", ["spectrum", "pf", "verify", "flow", "mass",
                                         "resonance"])
    def test_repeat_runs_are_byte_identical(self, tmp_path, command):
        cfg = _cfg(tmp_path, self.CONFIGS.get(command, BASE_CONFIG))
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main([command, "--config", cfg, "--out", str(out),
                         "--seed", "3"]) == EXIT_OK
            files = sorted(p.name for p in out.iterdir())
            outputs.append({f: (out / f).read_bytes() for f in files})
        assert outputs[0] == outputs[1]


class TestImports:
    def test_cli_import_leaves_scipy_optimize_out(self):
        # a fresh interpreter, so that other tests' imports cannot hide one;
        # numpy is the package's only dependency, so no part of scipy loads
        src = str(Path(specrg.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, specrg, specrg.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_resonance_location_leaves_scipy_out(self):
        # the shifted inverse iteration is plain numpy; importing any part of
        # scipy would raise the dense workload's peak memory by about a fifth
        src = str(Path(specrg.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, numpy as np, specrg.cli\n"
                "from specrg import fock, models, oracle\n"
                "spec = models.ModelSpec(particle_levels=np.array([0.0, 1.0]), g=2e-3, kappa=2.0)\n"
                "basis = fock.build_fock_basis(fock.build_mode_grid(16, 2.0, 'uniform'), 1)\n"
                "z, stab = oracle.resonance_eigenvalue(models.complex_dilate(spec, basis, 0.2j), 1.0)\n"
                "assert z.imag < 0.0, z\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
