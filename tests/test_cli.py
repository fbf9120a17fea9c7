"""Artifact emission, byte-level determinism, and exit codes."""

import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
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
from nanospin.cli import _trajectory_rows, main, run, run_sweep

from test_config import load_schema


def write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_rows(csv_path):
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]


SWEEP_ROW = np.dtype([("distance_m", "<f8"), ("time_s", "<f8"), ("omega2_rad_per_s", "<f8")])


def long_rows(root):
    """sweep_trajectories.npy under root as {distance_m: the uint64 bit
    patterns of its (time_s, omega2_rad_per_s) rows}, in file order; each
    distance's rows are one block and the blocks are sorted by distance."""
    table = np.load(root / "sweep_trajectories.npy", allow_pickle=False)
    assert table.dtype == SWEEP_ROW and table.ndim == 1
    distances = table["distance_m"]
    assert np.all(distances[1:] >= distances[:-1])
    return {
        d: np.stack((table["time_s"], table["omega2_rad_per_s"]), axis=1)[distances == d].view(np.uint64)
        for d in dict.fromkeys(distances.tolist())
    }


def csv_bits(path):
    """The uint64 bit patterns of a trajectory.csv's parsed rows, so that
    -0.0 and 0.0 differ."""
    _, rows = read_rows(path)
    return np.array(rows, dtype=np.float64).reshape(-1, 2).view(np.uint64)


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
        assert header == "time_s,omega2_rad_per_s"
        assert len(rows) == 401  # t = 0 plus the default 400 samples
        assert {len(r) for r in rows} == {2}
        assert rows[0] == [0.0, 0.0]

    def test_csv_line_endings(self, bundle):
        data = bundle.trajectory_csv.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_csv_roundtrips_exactly(self, bundle):
        # 17 significant digits reproduce the binary values: the parsed
        # times are the default grid's bits, and delta, which the file no
        # longer carries, comes back from omega2 as (omega1 - omega2)/omega1
        # to the last bit of the summary's delta_final
        _, rows = read_rows(bundle.trajectory_csv)
        times, omega2 = np.array(rows).T
        s = bundle.summary
        assert times.tobytes() == nanospin.default_time_grid(s["tau_s"], s["inputs"]["samples"]).tobytes()
        omega1 = s["inputs"]["omega1_rad_per_s"]
        assert (omega1 - omega2[-1]) / omega1 == s["delta_final"]

    def test_summary_against_schema(self, bundle):
        jsonschema.validate(bundle.summary, load_schema("summary.schema.json"))
        on_disk = json.loads(bundle.summary_json.read_text(encoding="utf-8"))
        jsonschema.validate(on_disk, load_schema("summary.schema.json"))

    def test_schema_refuses_a_null_tau(self, bundle):
        # _check_domain refuses gamma_s <= 0, so every summary has a finite tau_s > 0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**bundle.summary, "tau_s": None}, load_schema("summary.schema.json"))

    def test_summary_values(self, bundle):
        s = bundle.summary
        assert s["gamma_s_Nms"] == pytest.approx(1.152688e-43, rel=1e-5, abs=0)
        assert s["gamma_b_Nms"] > s["gamma_s_Nms"]
        assert 0.0 < s["delta_infinity"] < 1.0
        assert s["sync_time_s"] == pytest.approx(0.030, rel=0.01)

    def test_linear_summary_has_no_solver_key(self, bundle):
        assert "solver" not in bundle.summary

    def test_repeat_is_byte_identical(self, bundle, tmp_path):
        cfg = parse_config(json.dumps({"distance_m": 1e-7, "out_dir": str(tmp_path)}))
        again = run(cfg)
        assert again.trajectory_csv.read_bytes() == bundle.trajectory_csv.read_bytes()
        assert again.summary_json.read_bytes() == bundle.summary_json.read_bytes()


def test_trajectory_csv_is_per_value_format():
    # the rows of a run's trajectory.csv are formatted in one call; their
    # text must be format(x, ".17g") of every value, signed zero, subnormal,
    # the largest double and whole numbers past 2**53 included
    times = [-0.0, 5e-324, 1.0 / 3.0, 2.0**53 + 2.0, 2.0**60, 1e22, 1.7976931348623157e308]
    omega2 = [0.0, -0.0, 5e-324, 1.0, 2.0**53 + 2.0, 123456789012345680.0, 1.7976931348623157e308]
    traj = Trajectory(times=np.array(times), omega2=np.array(omega2), omega1=1.0)
    expected = "".join(f"{format(t, '.17g')},{format(w, '.17g')}\n" for t, w in zip(times, omega2))
    assert _trajectory_rows(traj) == expected
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
        assert 0.0 < solver["plateau_rad_per_s"] < 1e10 and solver["kappa_per_s"] > 0.0
        assert solver["piece_nodes"] and all(n >= 9 for n in solver["piece_nodes"])

    @pytest.mark.parametrize("omega1", [1e10, 2e10])
    @pytest.mark.parametrize("distance", [5e-8, 2e-6])
    def test_clausius_mossotti_direct_kernel_run_exits_0(self, tmp_path, distance, omega1):
        # this model's vacuum torque converges only from about 4e8 rad/s,
        # under the 1e9 at which the surrogates start
        doc = {"distance_m": distance, "omega1_rad_per_s": omega1, "polarizability_model": "clausius_mossotti"}
        cfg, out = write_config(tmp_path / "c.json", doc), tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out), "--mode", "nonlinear"]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        jsonschema.validate(summary, load_schema("summary.schema.json"))
        assert summary["solver"]["surrogate_nodes"] == {"mutual": 9, "vacuum": 9}

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
        # starved of splits, a node of M(omega1, omega2) at 4e12 runs out
        # above the roundoff floor, after gamma_s and the moments certify
        cfg = write_config(
            tmp_path / "c.json",
            {"distance_m": 1e-7, "omega1_rad_per_s": 4e12, "mode": "nonlinear", "max_subdivisions": 20},
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "no convergence after 20 subdivisions" in capsys.readouterr().err

    def test_sign_edge_run_exits_0(self, tmp_path):
        # at gamma_b's sign change the gap nodes run out of splits within
        # the quadrature's roundoff floor, where they are accepted (about
        # 5e-9 relative), and the run writes its summary
        cfg = write_config(
            tmp_path / "c.json", {"distance_m": 2.691e-6, "omega1_rad_per_s": 1e10, "mode": "nonlinear"}
        )
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        jsonschema.validate(summary, load_schema("summary.schema.json"))
        assert summary["solver"]["direct_torque_calls"] > 0

    def test_sign_edge_at_the_floor_spin_exits_0(self, tmp_path):
        # at omega1 = DIRECT_EVAL_FLOOR no surrogate is built and no torque
        # is direct: the gap torque at rest, which does not converge at
        # gamma_b's sign change, is never read, and the run is the closed form
        cfg = write_config(
            tmp_path / "c.json", {"distance_m": 2.691e-6, "omega1_rad_per_s": 1e9, "mode": "nonlinear"}
        )
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        jsonschema.validate(summary, load_schema("summary.schema.json"))
        assert summary["solver"]["direct_torque_calls"] == 0
        config = parse_config(Path(cfg).read_text(encoding="utf-8"))
        coeffs, _ = nanospin.friction_coefficients(config.particle, config.distance, config.thermal, config.quad)
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        lin = nanospin.solve_linear(1e9, nanospin.moment_of_inertia(config.particle), coeffs, rows[:, 0])
        assert np.all(np.abs(rows[:, 1] - lin.omega2) <= 1e-12 * np.abs(lin.omega2))


class TestSweep:
    def test_sweep_matches_run_at_every_distance(self, tmp_path):
        # the sweep's one-pass coefficients must give each distance the
        # summary a run of that distance alone writes, and the bits of its
        # trajectory.csv behind the distance
        distances = [5e-8, 1e-7, 2e-7]
        doc = run_sweep(parse_config(json.dumps({"distances_m": distances, "out_dir": str(tmp_path / "sweep")})))
        rows = long_rows(tmp_path / "sweep")
        assert list(rows) == distances
        for d in distances:
            alone = run(parse_config(json.dumps({"distance_m": d, "out_dir": str(tmp_path / f"run_{d:.6g}")})))
            sub = tmp_path / "sweep" / f"d_{d:.6g}"
            assert np.array_equal(rows[d], csv_bits(alone.trajectory_csv)), d
            assert (sub / "summary.json").read_bytes() == alone.summary_json.read_bytes(), d
            assert [p.name for p in sub.iterdir()] == ["summary.json"]
        assert doc["failed_distances_m"] == []
        assert "failures" not in doc
        assert [r["distance_m"] for r in doc["runs"]] == distances

    def test_nonlinear_sweep_integrates_gamma_s_once(self, tmp_path, integrals):
        # gamma_s, the gap moments and the vacuum node batch do not depend
        # on distance: one of each for the sweep, next to one gap node batch
        # per distance, and each distance writes the bytes of a lone run
        distances = [5e-8, 1e-7, 2e-7]
        base = {"omega1_rad_per_s": 1e10, "mode": "nonlinear"}
        run_sweep(parse_config(json.dumps(dict(base, distances_m=distances, out_dir=str(tmp_path / "sweep")))))
        assert sorted(name for name, _ in integrals) == sorted(
            ["_vacuum_slopes", "_gap_moments", "_vacuum_slopes"] + ["_mutual_torques"] * 3
        )
        rows = long_rows(tmp_path / "sweep")
        assert list(rows) == distances
        for d in distances:
            alone = run(parse_config(json.dumps(dict(base, distance_m=d, out_dir=str(tmp_path / f"run_{d:.6g}")))))
            sub = tmp_path / "sweep" / f"d_{d:.6g}"
            assert np.array_equal(rows[d], csv_bits(alone.trajectory_csv)), d
            assert (sub / "summary.json").read_bytes() == alone.summary_json.read_bytes(), d

    def test_sweep_integrates_gamma_s_and_the_moments_alone(self, tmp_path, integrals):
        # 64 distances from 50 nm to 1 um all certify on the kept moments:
        # two integral calls, four integrands, where a gamma_b integral per
        # distance made 65
        distances = np.exp(np.random.default_rng(20).uniform(np.log(5e-8), np.log(1e-6), 64)).tolist()
        doc = run_sweep(parse_config(json.dumps({"distances_m": distances, "out_dir": str(tmp_path)})))
        assert len(doc["runs"]) == 64 and doc["failed_distances_m"] == []
        assert integrals == [("_vacuum_slopes", 1), ("_gap_moments", 3)]

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
        assert doc["gamma_s_Nms"] == pytest.approx(1.152688e-43, rel=1e-5, abs=0)

    def test_partial_failure_completes_then_raises(self, tmp_path, monkeypatch):
        import nanospin.cli as cli_mod

        real_solve_run = cli_mod._solve_run

        def flaky(cfg, *coefficients):
            if cfg.distance == 2e-7:
                raise ConvergenceError("synthetic failure for this distance")
            return real_solve_run(cfg, *coefficients)

        monkeypatch.setattr(cli_mod, "_solve_run", flaky)
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
        assert list(long_rows(tmp_path)) == [5e-8, 1e-7]

    def test_every_distance_failing_in_the_coefficient_pass(self, tmp_path, capsys):
        doc = {"distances_m": [2e-7, 1e-7], "max_subdivisions": 1, "out_dir": str(tmp_path)}
        assert main(["sweep", "--config", write_config(tmp_path / "c.json", doc)]) == 3
        assert "numerical error: no convergence after 1 subdivisions" in capsys.readouterr().err
        table = json.loads((tmp_path / "sweep_summary.json").read_text(encoding="utf-8"))
        assert table["runs"] == [] and table["gamma_s_Nms"] is None
        assert table["failed_distances_m"] == [1e-7, 2e-7]
        assert [(f["distance_m"], f["error"]) for f in table["failures"]] == [
            (1e-7, "ConvergenceError"),
            (2e-7, "ConvergenceError"),
        ]
        assert (tmp_path / "sweep.csv").read_text(encoding="utf-8") == "distance_m,gamma_b_Nms,delta_infinity,sync_time_s\n"
        assert long_rows(tmp_path) == {}
        assert not list(tmp_path.glob("d_*"))

    def test_a_distance_whose_coefficients_fail_keeps_its_slot(self, tmp_path, monkeypatch):
        import nanospin.cli as cli_mod

        real = cli_mod.coefficients_for

        def flaky(cfg):
            if cfg.distance == 1e-7:
                raise ConfigError("synthetic coefficient failure")
            return real(cfg)

        monkeypatch.setattr(cli_mod, "coefficients_for", flaky)
        sweep = parse_config(json.dumps({"distances_m": [2e-7, 1e-7, 5e-8], "out_dir": str(tmp_path)}))
        with pytest.raises(ConfigError, match="synthetic"):
            run_sweep(sweep)
        table = json.loads((tmp_path / "sweep_summary.json").read_text(encoding="utf-8"))
        assert table["failures"] == [{"distance_m": 1e-7, "error": "ConfigError", "message": "synthetic coefficient failure"}]
        assert [r["distance_m"] for r in table["runs"]] == [5e-8, 2e-7]
        assert list(long_rows(tmp_path)) == [5e-8, 2e-7]

    def test_gamma_s_failure_fails_every_distance(self, tmp_path, capsys):
        # 2e14 rad/s cuts into the resonant tail of gamma_s, which every distance needs
        doc = {"distances_m": [5e-8, 1e-7], "omega_max_rad_per_s": 2e14, "out_dir": str(tmp_path)}
        assert main(["sweep", "--config", write_config(tmp_path / "c.json", doc)]) == 2
        assert "omega_max" in capsys.readouterr().err
        table = json.loads((tmp_path / "sweep_summary.json").read_text(encoding="utf-8"))
        assert table["runs"] == [] and table["failed_distances_m"] == [5e-8, 1e-7]
        assert all(f["error"] == "TailNotNegligibleError" and "omega_max" in f["message"] for f in table["failures"])

    def test_gamma_s_is_read_from_the_first_written_run(self, tmp_path, monkeypatch):
        import nanospin.cli as cli_mod

        real_solve_run = cli_mod._solve_run

        def flaky(cfg, *coefficients):
            if cfg.distance == 5e-8:
                raise ConvergenceError("synthetic failure for the smallest distance")
            return real_solve_run(cfg, *coefficients)

        monkeypatch.setattr(cli_mod, "_solve_run", flaky)
        sweep = parse_config(json.dumps({"distances_m": [2e-7, 5e-8, 1e-7], "out_dir": str(tmp_path)}))
        with pytest.raises(ConvergenceError, match="smallest"):
            run_sweep(sweep)
        table = json.loads((tmp_path / "sweep_summary.json").read_text(encoding="utf-8"))
        assert table["failed_distances_m"] == [5e-8]
        assert [r["distance_m"] for r in table["runs"]] == [1e-7, 2e-7]
        first = json.loads((tmp_path / "d_1e-07" / "summary.json").read_text(encoding="utf-8"))
        assert table["gamma_s_Nms"] == first["gamma_s_Nms"] > 0.0

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

    def test_a_failing_distance_writes_no_rows(self, tmp_path):
        # gamma_b < 0 at 3 um: the distances on both sides of it in the
        # file keep their rows, and 3 um has none
        distances = [1e-7, 3e-6, 2e-7]
        with pytest.raises(ConfigError, match="near-field edge"):
            run_sweep(parse_config(json.dumps({"distances_m": distances, "out_dir": str(tmp_path)})))
        rows = long_rows(tmp_path)
        assert list(rows) == [1e-7, 2e-7]
        for d in (1e-7, 2e-7):
            alone = run(parse_config(json.dumps({"distance_m": d, "out_dir": str(tmp_path / f"run_{d:.6g}")})))
            assert np.array_equal(rows[d], csv_bits(alone.trajectory_csv)), d

    @pytest.mark.parametrize(
        "distances, failed",
        [([5e-8, 1e-7, 2e-7], []), ([5e-8, 3e-6, 1e-7], [3e-6]), ([4e-6, 3e-6], [3e-6, 4e-6])],
        ids=["all-pass", "one-past-the-sign-edge", "all-fail"],
    )
    def test_trajectory_file_is_numpy_save_of_the_lone_runs(self, tmp_path, distances, failed):
        # the streamed file holds the bytes np.save writes for the
        # concatenated rows of the lone runs that pass, each behind its
        # distance, and loads without pickle; past gamma_b's sign edge
        # (2.69 um) a distance fails and writes no rows
        sweep = parse_config(json.dumps({"distances_m": distances, "out_dir": str(tmp_path / "sweep")}))
        if failed:
            with pytest.raises(ConfigError, match="near-field edge"):
                run_sweep(sweep)
        else:
            run_sweep(sweep)
        table = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text(encoding="utf-8"))
        assert table["failed_distances_m"] == failed
        blocks = [np.empty(0, SWEEP_ROW)]
        for d in sorted(set(distances) - set(failed)):
            alone = run(parse_config(json.dumps({"distance_m": d, "out_dir": str(tmp_path / f"run_{d:.6g}")})))
            _, values = read_rows(alone.trajectory_csv)
            block = np.empty(len(values), SWEEP_ROW)
            block["distance_m"] = d
            block["time_s"], block["omega2_rad_per_s"] = np.array(values).T
            blocks.append(block)
        expected = io.BytesIO()
        np.save(expected, np.concatenate(blocks))
        path = tmp_path / "sweep" / "sweep_trajectories.npy"
        assert path.read_bytes() == expected.getvalue()
        loaded = np.load(path, allow_pickle=False)
        assert loaded.dtype == SWEEP_ROW
        assert loaded.shape == (401 * (len(distances) - len(failed)),)

    def test_sweep_holds_one_trajectory_at_a_time(self, tmp_path):
        # 16 distances at 200,000 samples: one distance's rows take
        # 200,001 * 24 bytes (4.8 MB), and a sweep that kept every
        # trajectory would peak above 16 times that. Measured: a peak of
        # 2.84 such blocks (13.7 MB) with 16 distances and 4, 2.67 with 1
        # (the trajectory's arrays, its rows and their bytes at once).
        samples, distances = 200_000, np.geomspace(5e-8, 1e-6, 16).tolist()
        sweep = parse_config(json.dumps({"distances_m": distances, "samples": samples, "out_dir": str(tmp_path)}))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            run_sweep(sweep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = (samples + 1) * SWEEP_ROW.itemsize
        assert peak - before < 4 * block
        assert np.load(tmp_path / "sweep_trajectories.npy", mmap_mode="r").shape == (16 * (samples + 1),)

    def test_distances_sharing_a_run_directory_are_refused(self, tmp_path, capsys, monkeypatch):
        # both are d_1e-07: the second run overwrote the first, and
        # sweep_summary.json pointed both at what was left
        import nanospin.cli as cli_mod

        solved = []
        monkeypatch.setattr(cli_mod, "coefficients_for", lambda *args: solved.append(args) or [])
        cfg = write_config(
            tmp_path / "c.json", {"distances_m": [1e-7, 1.0000001e-7, 1.0000002e-7], "out_dir": str(tmp_path / "o")}
        )
        assert main(["sweep", "--config", cfg]) == 2
        assert "1e-07 m and 1.0000001e-07 m would share the run directory d_1e-07" in capsys.readouterr().err
        assert solved == []
        assert not (tmp_path / "o").exists()

    def test_shared_run_directory_exits_before_the_trajectory_file_exists(self, tmp_path, capsys):
        # the out_dir already exists: the refusal still comes before the
        # sweep opens sweep_trajectories.npy
        cfg = write_config(tmp_path / "c.json", {"distances_m": [2e-7, 2.0000001e-7], "out_dir": str(tmp_path)})
        assert main(["sweep", "--config", cfg]) == 2
        assert "would share the run directory d_2e-07" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


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

    def test_nonzero_abs_tol_is_config_error(self, tmp_path, capsys):
        # the channel prefactors (-1.9e-52 vacuum, 5.0e-11 gap) apply after
        # the stopping test, so a floor of 1e-30 N m would loosen gamma_b
        # and leave gamma_s as it is
        cfg = write_config(tmp_path / "c.json", {"distance_m": 1e-7, "abs_tol_Nm": 1e-30, "out_dir": str(tmp_path / "o")})
        assert main(["run", "--config", cfg]) == 2
        assert "abs_tol_Nm" in capsys.readouterr().err
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
        err = capsys.readouterr().err
        assert "a run needs gamma_b >= 0" in err and "near-field edge" in err
        assert "near-field edge, 2.69118e-06 m for this particle" in err  # the root of the run's own moments
        assert "gamma_s" not in err  # the message names only the coefficient that failed
        assert not (tmp_path / "o").exists()

    def test_coeffs_refuses_coefficients_outside_the_domain(self, tmp_path, capsys):
        # exited 0 printing a negative gamma_b and delta_infinity > 1
        assert main(["coeffs", "--distance", "4e-6"]) == 2
        coeffs = capsys.readouterr()
        cfg = write_config(tmp_path / "c.json", {"distance_m": 4e-6, "out_dir": str(tmp_path / "o")})
        assert main(["run", "--config", cfg]) == 2
        assert coeffs.out == ""
        assert "near-field edge" in coeffs.err and coeffs.err == capsys.readouterr().err

    def test_nonpositive_gamma_s_is_named_alone(self, tmp_path, capsys):
        # gamma_s = -0 at both temperatures 1e-300 K was blamed on gamma_b's near-field edge
        doc = {"distance_m": 1e-7, "temperature_K": 1e-300, "vacuum_temperature_K": 1e-300}
        cfg = write_config(tmp_path / "c.json", dict(doc, out_dir=str(tmp_path / "o")))
        assert main(["run", "--config", cfg]) == 2
        run_err = capsys.readouterr().err
        assert main(["coeffs", "--distance", "1e-7", "--config", cfg]) == 2
        coeffs = capsys.readouterr()
        assert coeffs.out == "" and coeffs.err == run_err
        assert "gamma_s = -0 N m s" in run_err and "a run needs gamma_s > 0" in run_err
        assert "gamma_b" not in run_err and "near-field edge" not in run_err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["temperature_K", "vacuum_temperature_K"])
    def test_zero_temperature_runs_as_its_limit(self, tmp_path, capsys, key):
        # 0 K exited 2 while 1e-300 K, already at the zero-temperature values, ran
        printed = []
        for value in (0.0, 1e-300):
            cfg = write_config(tmp_path / "c.json", {"distance_m": 1e-7, key: value, "out_dir": str(tmp_path / "o")})
            assert main(["run", "--config", cfg]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_near_zero_temperatures_fail_on_gamma_s(self, tmp_path, capsys):
        # exited 3 when gamma_b's moment A, at its roundoff floor at T = 0,
        # ran before the gamma_s sign check; gamma_s is -0 here
        doc = {
            "distance_m": 6.04e-7, "radius_m": 7.6e-9, "polarizability_model": "clausius_mossotti",
            "temperature_K": 5e-324, "vacuum_temperature_K": 2.8e-188, "omega_T_rad_per_s": 1.237e14, "rel_tol": 4.6e-4,
        }
        cfg = write_config(tmp_path / "c.json", dict(doc, out_dir=str(tmp_path / "o")))
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "gamma_s = -0 N m s" in err and "a run needs gamma_s > 0" in err
        assert not (tmp_path / "o").exists()

    def test_tight_run_between_temperatures_exits_0(self, tmp_path, capsys):
        # gamma_s ran out of subdivisions at the phonon resonance at rel_tol
        # 1e-11 with T != T0; its divided-difference kernel certifies
        doc = {"distance_m": 1e-7, "radius_m": 1e-9, "temperature_K": 122.4, "vacuum_temperature_K": 157.0, "rel_tol": 1e-11}
        cfg = write_config(tmp_path / "c.json", dict(doc, out_dir=str(tmp_path / "o")))
        assert main(["run", "--config", cfg]) == 0
        assert (tmp_path / "o" / "summary.json").is_file()

    @pytest.mark.parametrize("distance", ["nan", "inf"])
    def test_coeffs_refuses_a_non_finite_distance(self, tmp_path, capsys, distance):
        # with --config the distance skipped parse_config and exited 3 from
        # the kernels, nan as a non-finite panel and inf after a RuntimeWarning
        cfg = write_config(tmp_path / "c.json", {"distance_m": 1e-7})
        assert main(["coeffs", "--distance", distance, "--config", cfg]) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"configuration error: distance {distance} m violates the point-dipole" in out.err

    def test_coeffs_prints_three_values(self, capsys):
        assert main(["coeffs", "--distance", "1e-7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        values = dict(line.split(" ", 1) for line in lines)
        assert float(values["gamma_s_Nms"]) == pytest.approx(1.152688e-43, rel=1e-5, abs=0)
        assert float(values["gamma_b_Nms"]) == pytest.approx(2.577338e-36, rel=1e-4, abs=0)
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
