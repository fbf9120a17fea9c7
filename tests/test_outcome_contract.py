"""The outcome contract: every configuration parse_config accepts either
writes a summary that validates against docs/summary.schema.json
(exit 0) or fails with a typed error and its exit code (2 for a
configuration outside the model's domain, 3 for numerical
non-convergence). A sweep document does so at each of its distances:
every distance it writes has a schema-valid summary and its trajectory,
bit for bit, in sweep_trajectories.npy, and a failing one is named in
sweep_summary.json. Anything else, an uncaught exception or a warning
included, fails the test."""

import contextlib
import io
import json
import warnings
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import nanospin.cli as cli
from nanospin import DEFAULT_COUPLING_SCALE, parse_config
from nanospin.cli import main

from test_config import load_schema

SUMMARY_SCHEMA = load_schema("summary.schema.json")


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda x: 10.0**x)


@st.composite
def documents(draw, sweep=False):
    radius = draw(log_uniform(-9.0, -7.7))
    # 10 radii, the point-dipole limit, up to past the near-field edge
    distance = log_uniform(1.0, 3.0).map(lambda x: radius * x)
    if sweep:  # distinct run directories, so the sweep is not refused whole
        place = {"distances_m": draw(st.lists(distance, min_size=2, max_size=4, unique_by=lambda d: f"{d:.6g}"))}
    else:
        place = {"distance_m": draw(distance)}
    omega_T = draw(log_uniform(13.5, 14.5))  # other materials around SiC's 1.492e14
    return {
        "radius_m": radius,
        **place,
        "temperature_K": draw(st.floats(0.0, 600.0)),
        "vacuum_temperature_K": draw(st.floats(0.0, 600.0)),
        "omega1_rad_per_s": draw(log_uniform(0.0, 12.0)),
        "mode": draw(st.sampled_from(["linear", "nonlinear"])),
        "samples": draw(st.integers(2, 1000)),
        "rel_tol": draw(log_uniform(-11.0, -3.0)),
        "polarizability_model": draw(st.sampled_from(["bare", "clausius_mossotti"])),
        "sync_threshold": draw(st.floats(1e-4, 0.99)),
        "coupling_scale": draw(st.sampled_from([0.0, 1.0, DEFAULT_COUPLING_SCALE]) | log_uniform(18.0, 24.0)),
        "omega_min_rad_per_s": draw(log_uniform(11.0, 13.0)),
        "omega_T_rad_per_s": omega_T,
        "omega_L_rad_per_s": omega_T * draw(st.floats(1.02, 1.6)),
        "damping_rad_per_s": omega_T * draw(log_uniform(-3.0, -1.3)),
        "eps_inf": draw(st.floats(1.0, 12.0)),
    }


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=documents())
@example(  # k_B * T0 underflows to 0: this raised ZeroDivisionError
    doc={
        "radius_m": 1e-8,
        "distance_m": 1e-7,
        "temperature_K": 1.0,
        "vacuum_temperature_K": 5e-324,
        "omega1_rad_per_s": 1.0,
        "mode": "linear",
        "samples": 2,
        "rel_tol": 1e-3,
        "polarizability_model": "bare",
        "sync_threshold": 0.5,
    }
)
@example(  # each temperature at 0 K: these exited 2, refused as T > 0 checks
    doc={
        "radius_m": 5e-9,
        "distance_m": 1e-7,
        "temperature_K": 0.0,
        "vacuum_temperature_K": 300.0,
        "omega1_rad_per_s": 1e10,
        "mode": "nonlinear",
        "samples": 50,
        "rel_tol": 1e-9,
        "polarizability_model": "bare",
        "sync_threshold": 0.01,
    }
)
@example(
    doc={
        "radius_m": 5e-9,
        "distance_m": 1e-7,
        "temperature_K": 300.0,
        "vacuum_temperature_K": 0.0,
        "omega1_rad_per_s": 1e4,
        "mode": "linear",
        "samples": 400,
        "rel_tol": 1e-9,
        "polarizability_model": "clausius_mossotti",
        "sync_threshold": 0.01,
    }
)
def test_every_accepted_document_writes_a_valid_summary_or_exits_typed(tmp_path_factory, doc):
    parse_config(json.dumps(doc))  # the generated domain is one parse_config accepts
    work = tmp_path_factory.mktemp("contract")
    config = work / "c.json"
    config.write_text(json.dumps(dict(doc, out_dir=str(work / "out"))), encoding="utf-8")
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        warnings.simplefilter("error")
        code = main(["run", "--config", str(config)])
    if code == 0:
        summary = json.loads((work / "out" / "summary.json").read_text(encoding="utf-8"))
        jsonschema.validate(summary, SUMMARY_SCHEMA)
    else:
        assert code in (2, 3), err.getvalue()


def read_long_file(path):
    """sweep_trajectories.npy as {distance_m: (time_s, omega2) float64
    arrays}, in file order; each distance's rows are one block."""
    table = np.load(path, allow_pickle=False)
    assert table.dtype == np.dtype([("distance_m", "<f8"), ("time_s", "<f8"), ("omega2_rad_per_s", "<f8")])
    distances = table["distance_m"]
    assert np.all(distances[1:] >= distances[:-1])
    return {
        d: (table["time_s"][distances == d], table["omega2_rad_per_s"][distances == d])
        for d in dict.fromkeys(distances.tolist())
    }


@settings(
    max_examples=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=documents(sweep=True))
def test_every_accepted_sweep_document_writes_its_distances_or_names_their_failures(tmp_path_factory, doc):
    parse_config(json.dumps(doc))
    work = tmp_path_factory.mktemp("sweep_contract")
    out = work / "out"
    config = work / "c.json"
    config.write_text(json.dumps(dict(doc, out_dir=str(out))), encoding="utf-8")
    solved = {}
    real = cli._solve_run

    def keep(run_config, *coefficients):
        summary, traj = real(run_config, *coefficients)
        solved[run_config.distance] = traj
        return summary, traj

    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ) as err, mock.patch.object(cli, "_solve_run", keep):
        warnings.simplefilter("error")
        code = main(["sweep", "--config", str(config)])
    table = json.loads((out / "sweep_summary.json").read_text(encoding="utf-8"))
    written = [r["distance_m"] for r in table["runs"]]
    assert sorted(written + table["failed_distances_m"]) == sorted(doc["distances_m"])
    if code == 0:
        assert table["failed_distances_m"] == [] and "failures" not in table
    else:
        assert code in (2, 3), err.getvalue()
        assert [f["distance_m"] for f in table["failures"]] == table["failed_distances_m"] != []
        first = table["failures"][0]["error"]
        assert code == (3 if first == "ConvergenceError" else 2), first
    rows = read_long_file(out / "sweep_trajectories.npy")
    assert list(rows) == written
    for run in table["runs"]:
        summary = json.loads(Path(run["out_dir"], "summary.json").read_text(encoding="utf-8"))
        jsonschema.validate(summary, SUMMARY_SCHEMA)
        times, omega2 = rows[run["distance_m"]]
        traj = solved[run["distance_m"]]
        assert times.tobytes() == traj.times.tobytes() and omega2.tobytes() == traj.omega2.tobytes()
