"""The outcome contract: every configuration parse_config accepts either
writes a summary that validates against docs/summary.schema.json
(exit 0) or fails with a typed error and its exit code (2 for a
configuration outside the model's domain, 3 for numerical
non-convergence). Anything else, an uncaught exception or a warning
included, fails the test."""

import contextlib
import io
import json
import warnings

import jsonschema
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nanospin import parse_config
from nanospin.cli import main

from test_config import load_schema

SUMMARY_SCHEMA = load_schema("summary.schema.json")


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda x: 10.0**x)


@st.composite
def documents(draw):
    radius = draw(log_uniform(-9.0, -7.7))
    return {
        "radius_m": radius,
        # 10 radii, the point-dipole limit, up to past the near-field edge
        "distance_m": radius * draw(log_uniform(1.0, 3.0)),
        "temperature_K": draw(st.floats(0.0, 600.0)),
        "vacuum_temperature_K": draw(st.floats(0.0, 600.0)),
        "omega1_rad_per_s": draw(log_uniform(0.0, 12.0)),
        "mode": draw(st.sampled_from(["linear", "nonlinear"])),
        "samples": draw(st.integers(2, 1000)),
        "rel_tol": draw(log_uniform(-11.0, -3.0)),
        "polarizability_model": draw(st.sampled_from(["bare", "clausius_mossotti"])),
        "sync_threshold": draw(st.floats(1e-4, 0.99)),
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
