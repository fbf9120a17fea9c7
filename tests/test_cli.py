"""Artifact emission, byte-level determinism, and exit codes."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import nanospin
from nanospin import ConfigError, ConvergenceError, Trajectory, parse_config
from nanospin.cli import _write_trajectory_csv, main, run, run_sweep

from test_config import load_schema


def write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_rows(csv_path):
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("single")
    cfg = parse_config(json.dumps({"distance_m": 1e-7, "out_dir": str(out)}))
    return run(cfg)


class TestRunArtifacts:
    def test_files_exist(self, bundle):
        assert bundle.trajectory_csv.is_file()
        assert bundle.summary_json.is_file()

    def test_csv_shape(self, bundle):
        header, rows = read_rows(bundle.trajectory_csv)
        assert header == "time_s,omega2_rad_per_s,delta"
        assert len(rows) == 401  # t = 0 plus the default 400 samples
        assert rows[0][0] == 0.0

    def test_csv_line_endings(self, bundle):
        data = bundle.trajectory_csv.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_csv_roundtrips_exactly(self, bundle):
        # 17 significant digits reproduce the binary values, so the delta
        # column must satisfy its defining identity to the last bit
        _, rows = read_rows(bundle.trajectory_csv)
        omega1 = bundle.summary["inputs"]["omega1_rad_per_s"]
        for _t, w2, delta in rows:
            assert delta == (omega1 - w2) / omega1

    def test_summary_against_schema(self, bundle):
        jsonschema.validate(bundle.summary, load_schema("summary.schema.json"))
        on_disk = json.loads(bundle.summary_json.read_text(encoding="utf-8"))
        jsonschema.validate(on_disk, load_schema("summary.schema.json"))

    def test_summary_values(self, bundle):
        s = bundle.summary
        assert s["gamma_s_Nms"] == pytest.approx(1.152688e-43, rel=1e-5)
        assert s["gamma_b_Nms"] > s["gamma_s_Nms"]
        assert 0.0 < s["delta_infinity"] < 1.0
        assert s["sync_time_s"] == pytest.approx(0.030, rel=0.01)
        assert s["zero_coupling"] is False

    def test_linear_summary_has_no_solver_key(self, bundle):
        assert "solver" not in bundle.summary

    def test_repeat_is_byte_identical(self, bundle, tmp_path):
        cfg = parse_config(json.dumps({"distance_m": 1e-7, "out_dir": str(tmp_path)}))
        again = run(cfg)
        assert again.trajectory_csv.read_bytes() == bundle.trajectory_csv.read_bytes()
        assert again.summary_json.read_bytes() == bundle.summary_json.read_bytes()


def test_trajectory_csv_is_per_value_format(tmp_path):
    # the writer formats the whole file in one call; its text must be
    # format(x, ".17g") of every value, signed zero, subnormal, the largest
    # double and whole numbers past 2**53 included
    times = [-0.0, 5e-324, 1.0 / 3.0, 2.0**53 + 2.0, 2.0**60, 1e22, 1.7976931348623157e308]
    omega2 = [0.0, -0.0, 5e-324, 1.0, 2.0**53 + 2.0, 123456789012345680.0, 1.7976931348623157e308]
    traj = Trajectory(times=np.array(times), omega2=np.array(omega2), omega1=1.0)
    path = tmp_path / "trajectory.csv"
    _write_trajectory_csv(path, traj)
    expected = "time_s,omega2_rad_per_s,delta\n" + "".join(
        ",".join(format(x, ".17g") for x in row) + "\n" for row in traj.samples
    )
    assert path.read_bytes() == expected.encode("utf-8")
    assert "-0," in expected and "4.9406564584124654e-324" in expected and "9007199254740994," in expected


class TestNonlinearRun:
    def test_direct_kernel_run_repeats_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"distance_m": 1e-7, "omega1_rad_per_s": 1e10})
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["run", "--config", cfg, "--out", str(out), "--mode", "nonlinear"]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        summary = json.loads((outs[0] / "summary.json").read_text(encoding="utf-8"))
        jsonschema.validate(summary, load_schema("summary.schema.json"))
        solver = summary["solver"]
        assert solver["surrogate_nodes"] == {"mutual": 9, "vacuum": 9}
        assert 18 <= solver["direct_torque_calls"] <= 64
        assert solver["accepted_steps"] > 0

    def test_warm_run_writes_the_cold_bytes(self, tmp_path):
        # the second run reads gamma_s and the vacuum node torques from the
        # memo and must write what the first wrote
        cfg = parse_config(
            json.dumps({"distance_m": 1e-7, "omega1_rad_per_s": 1e10, "mode": "nonlinear", "out_dir": str(tmp_path)})
        )
        cold = run(cfg)
        written = [p.read_bytes() for p in (cold.trajectory_csv, cold.summary_json)]
        warm = run(cfg)
        assert [p.read_bytes() for p in (warm.trajectory_csv, warm.summary_json)] == written
        assert warm.summary == cold.summary

    def test_uncertifiable_surrogate_exits_3(self, tmp_path, capsys, monkeypatch):
        import nanospin.dynamics as dynamics_mod

        # a residual with a kink cannot certify: the run must fail, not
        # fall back to direct kernels at every stage
        real = dynamics_mod._mutual_torques

        def kinked(spins, *args, **kwargs):
            torques = real(spins, *args, **kwargs)
            return [t * (1.0 + abs(o2 - 4.4e9) / 1e10) for (_, o2), t in zip(spins, torques)]

        monkeypatch.setattr(dynamics_mod, "_mutual_torques", kinked)
        cfg = write_config(tmp_path / "c.json", {"distance_m": 1e-7, "omega1_rad_per_s": 1e10, "mode": "nonlinear"})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "not certified" in capsys.readouterr().err


    def test_failing_node_exits_3(self, tmp_path, capsys):
        # at gamma_b's sign change a node of M(omega1, omega2) runs out of
        # splits above the roundoff floor
        cfg = write_config(
            tmp_path / "c.json", {"distance_m": 2.691e-6, "omega1_rad_per_s": 1e10, "mode": "nonlinear"}
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "no convergence after 200 subdivisions" in capsys.readouterr().err


class TestSweep:
    def test_sweep_matches_run_at_every_distance(self, tmp_path):
        # the sweep's one-pass coefficients must give each distance the
        # bytes a run of that distance alone writes
        distances = [5e-8, 1e-7, 2e-7]
        doc = run_sweep(parse_config(json.dumps({"distances_m": distances, "out_dir": str(tmp_path / "sweep")})))
        for d in distances:
            alone = run(parse_config(json.dumps({"distance_m": d, "out_dir": str(tmp_path / f"run_{d:.6g}")})))
            sub = tmp_path / "sweep" / f"d_{d:.6g}"
            assert (sub / "trajectory.csv").read_bytes() == alone.trajectory_csv.read_bytes(), d
            assert (sub / "summary.json").read_bytes() == alone.summary_json.read_bytes(), d
        assert doc["failed_distances_m"] == []
        assert "failures" not in doc
        assert [r["distance_m"] for r in doc["runs"]] == distances

    def test_nonlinear_sweep_integrates_gamma_s_once(self, tmp_path, monkeypatch, integrals):
        # the solver reuses the sweep's coefficients instead of integrating
        # gamma_s again per distance, and writes the bytes of a lone run.
        # The vacuum node batch does not depend on distance either: one for
        # the sweep, next to one gamma_b batch and one gap batch per distance
        import nanospin.torque as torque_mod

        distances = [5e-8, 1e-7, 2e-7]
        base = {"omega1_rad_per_s": 1e10, "mode": "nonlinear"}
        real = torque_mod._gamma_s_result
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(torque_mod, "_gamma_s_result", counted)
        run_sweep(parse_config(json.dumps(dict(base, distances_m=distances, out_dir=str(tmp_path / "sweep")))))
        assert len(calls) == 1
        assert sorted(name for name, _ in integrals) == sorted(
            ["_integrate_gamma_s", "_gamma_b_results", "_integrate_vacuum_torques"] + ["_mutual_torques"] * 3
        )
        for d in distances:
            alone = run(parse_config(json.dumps(dict(base, distance_m=d, out_dir=str(tmp_path / f"run_{d:.6g}")))))
            sub = tmp_path / "sweep" / f"d_{d:.6g}"
            assert (sub / "trajectory.csv").read_bytes() == alone.trajectory_csv.read_bytes(), d
            assert (sub / "summary.json").read_bytes() == alone.summary_json.read_bytes(), d

    def test_same_root_rerun_is_byte_identical(self, tmp_path):
        sweep = parse_config(json.dumps({"distances_m": [5e-8, 1e-7], "out_dir": str(tmp_path)}))
        run_sweep(sweep)
        first = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        run_sweep(sweep)
        for p, data in first.items():
            assert p.read_bytes() == data, p

    def test_sweep_table(self, tmp_path):
        sweep = parse_config(json.dumps({"distances_m": [1e-7, 5e-8], "out_dir": str(tmp_path)}))
        doc = run_sweep(sweep)
        header, rows = read_rows(tmp_path / "sweep.csv")
        assert header == "distance_m,gamma_b_Nms,delta_infinity,sync_time_s"
        # rows come out sorted by distance regardless of input order
        assert [r[0] for r in rows] == [5e-8, 1e-7]
        assert rows[0][1] > rows[1][1]  # coupling falls with distance
        assert doc["gamma_s_Nms"] == pytest.approx(1.152688e-43, rel=1e-5)

    def test_partial_failure_completes_then_raises(self, tmp_path, monkeypatch):
        import nanospin.cli as cli_mod

        real_write_run = cli_mod._write_run

        def flaky(cfg, *coefficients):
            if cfg.distance == 2e-7:
                raise ConvergenceError("synthetic failure for this distance")
            return real_write_run(cfg, *coefficients)

        monkeypatch.setattr(cli_mod, "_write_run", flaky)
        sweep = parse_config(
            json.dumps({"distances_m": [5e-8, 1e-7, 2e-7], "out_dir": str(tmp_path)})
        )
        with pytest.raises(ConvergenceError, match="synthetic"):
            run_sweep(sweep)
        table = json.loads((tmp_path / "sweep_summary.json").read_text(encoding="utf-8"))
        assert table["failed_distances_m"] == [2e-7]
        assert table["failures"] == [
            {"distance_m": 2e-7, "error": "ConvergenceError", "message": "synthetic failure for this distance"}
        ]
        assert [r["distance_m"] for r in table["runs"]] == [5e-8, 1e-7]
        _, rows = read_rows(tmp_path / "sweep.csv")
        assert [r[0] for r in rows] == [5e-8, 1e-7]

    def test_sweep_refuses_a_distance_past_the_near_field_edge(self, tmp_path):
        # gamma_b < 0 at 4 um: that distance fails with ConfigError, the
        # others are written
        sweep = parse_config(json.dumps({"distances_m": [1e-7, 4e-6], "out_dir": str(tmp_path)}))
        with pytest.raises(ConfigError, match="near-field edge"):
            run_sweep(sweep)
        table = json.loads((tmp_path / "sweep_summary.json").read_text(encoding="utf-8"))
        assert table["failed_distances_m"] == [4e-6]
        assert [f["error"] for f in table["failures"]] == ["ConfigError"]
        assert [r["distance_m"] for r in table["runs"]] == [1e-7]
        assert (tmp_path / "d_1e-07" / "summary.json").is_file()
        assert not (tmp_path / "d_4e-06").exists()

    def test_distances_sharing_a_run_directory_are_refused(self, tmp_path, capsys, monkeypatch):
        # both are d_1e-07: the second run overwrote the first, and
        # sweep_summary.json pointed both at what was left
        import nanospin.cli as cli_mod

        solved = []
        monkeypatch.setattr(cli_mod, "sweep_coefficients_for", lambda *args: solved.append(args) or [])
        cfg = write_config(
            tmp_path / "c.json", {"distances_m": [1e-7, 1.0000001e-7, 1.0000002e-7], "out_dir": str(tmp_path / "o")}
        )
        assert main(["sweep", "--config", cfg]) == 2
        assert "1e-07 m and 1.0000001e-07 m would share the run directory d_1e-07" in capsys.readouterr().err
        assert solved == []
        assert not (tmp_path / "o").exists()


class TestMain:
    def test_run_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"distance_m": 1e-7, "out_dir": str(tmp_path / "o")})
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5
        assert (tmp_path / "o" / "summary.json").is_file()

    def test_out_and_mode_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"distance_m": 1e-7, "out_dir": str(tmp_path / "ignored")})
        override = tmp_path / "actual"
        assert main(["run", "--config", cfg, "--out", str(override), "--mode", "nonlinear"]) == 0
        summary = json.loads((override / "summary.json").read_text(encoding="utf-8"))
        assert summary["inputs"]["mode"] == "nonlinear"
        assert not (tmp_path / "ignored").exists()

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_bad_config_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"distance_m": 1e-7, "separation_m": 1.0})
        assert main(["run", "--config", cfg]) == 2
        assert "separation_m" in capsys.readouterr().err

    def test_infinite_spin_is_config_error(self, tmp_path, capsys):
        # exited 0 with "delta_final": NaN
        doc = {"distance_m": 1e-7, "omega1_rad_per_s": float("inf"), "out_dir": str(tmp_path / "o")}
        assert main(["run", "--config", write_config(tmp_path / "c.json", doc)]) == 2
        assert "omega1_rad_per_s" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("samples", [10**30, 10**6 + 1])
    def test_too_many_samples_is_config_error(self, tmp_path, capsys, samples):
        # 10**30 once reached np.geomspace and exited 1 with a bare ValueError
        cfg = write_config(tmp_path / "c.json", {"distance_m": 1e-7, "samples": samples, "out_dir": str(tmp_path / "o")})
        assert main(["run", "--config", cfg]) == 2
        assert "samples must be <= 1000000" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_rejects_sweep_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"distances_m": [1e-7]})
        assert main(["run", "--config", cfg]) == 2

    def test_exhausted_subdivisions_is_numerical_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {"distance_m": 1e-7, "max_subdivisions": 1, "out_dir": str(tmp_path / "o")},
        )
        assert main(["run", "--config", cfg]) == 3
        assert "numerical error" in capsys.readouterr().err

    def test_low_cutoff_is_config_error(self, tmp_path, capsys):
        # 2e14 rad/s sits inside the resonant tail, so certification must fail
        cfg = write_config(
            tmp_path / "c.json",
            {"distance_m": 1e-7, "omega_max_rad_per_s": 2e14, "out_dir": str(tmp_path / "o")},
        )
        assert main(["run", "--config", cfg]) == 2
        assert "omega_max" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"distance_m": 4e-6}], ids=["past_near_field_edge"])
    def test_negative_gamma_b_is_config_error(self, tmp_path, capsys, doc):
        # exited 0 with a summary outside the schema's delta ranges
        cfg = write_config(tmp_path / "c.json", dict(doc, out_dir=str(tmp_path / "o")))
        assert main(["run", "--config", cfg]) == 2
        assert "near-field edge" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_coeffs_refuses_coefficients_outside_the_domain(self, tmp_path, capsys):
        # exited 0 printing a negative gamma_b and delta_infinity > 1
        assert main(["coeffs", "--distance", "4e-6"]) == 2
        coeffs = capsys.readouterr()
        cfg = write_config(tmp_path / "c.json", {"distance_m": 4e-6, "out_dir": str(tmp_path / "o")})
        assert main(["run", "--config", cfg]) == 2
        assert coeffs.out == ""
        assert "near-field edge" in coeffs.err and coeffs.err == capsys.readouterr().err

    def test_coeffs_prints_three_values(self, capsys):
        assert main(["coeffs", "--distance", "1e-7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        values = dict(line.split(" ", 1) for line in lines)
        assert float(values["gamma_s_Nms"]) == pytest.approx(1.152688e-43, rel=1e-5)
        assert float(values["gamma_b_Nms"]) == pytest.approx(2.577338e-36, rel=1e-4)
        assert 0.0 < float(values["delta_infinity"]) < 1.0

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", {"distances_m": [5e-8, 1e-7], "out_dir": str(tmp_path / "o")}
        )
        assert main(["sweep", "--config", cfg]) == 0
        assert "swept 2 distances" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--jobs", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key, value", [("thermal_weight", "bose"), ("coth_half_argument", True)])
    def test_other_thermal_conventions_are_unknown_keys(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.json", {"distance_m": 1e-7, key: value, "out_dir": str(tmp_path / "o")})
        assert main(["run", "--config", cfg]) == 2
        assert f"unknown configuration keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cli_import_leaves_scipy_out(self):
        code = "import sys, nanospin.cli; print('scipy' in sys.modules)"
        src_root = str(Path(nanospin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_numpy_polynomial_out(self):
        code = "import sys, nanospin.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
        src_root = str(Path(nanospin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_console_script(tmp_path, env=None):
    """Run ``nanospin run --config`` as a separate process, as a user would."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"distance_m": 1e-7, "out_dir": str(tmp_path / "o")}), encoding="utf-8")
    return subprocess.run(
        ["nanospin", "run", "--config", str(cfg)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_console_script_entry_point(tmp_path):
    # Write the launcher that pip generates for the declared entry point, so the
    # declaration itself is what runs, installed or not.
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["nanospin"]
    module, func = target.split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "nanospin"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)
    # The child imports the same sources as this test.
    src_root = str(Path(nanospin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    proc = run_console_script(tmp_path, env)
    assert proc.returncode == 0, proc.stderr
    assert "gamma_s_Nms" in proc.stdout


@pytest.mark.skipif(shutil.which("nanospin") is None, reason="nanospin not installed")
def test_installed_console_script(tmp_path):
    proc = run_console_script(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "gamma_s_Nms" in proc.stdout


def test_tracing_targets_exist():
    # bench/tracing.py wraps these module attributes by name; a missing one
    # breaks the traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attrs in tracing.TARGETS.items():
        module = importlib.import_module(module_name)
        missing = [a for a in attrs if not hasattr(module, a)]
        assert not missing, (module_name, missing)
