"""Configuration parsing, validation, and the canonical fingerprint."""

import json
import math
import re
from pathlib import Path

import jsonschema
import pytest

from nanospin import (
    DEFAULT_COUPLING_SCALE,
    ConfigError,
    ParticleSpec,
    QuadratureConfig,
    RunConfig,
    SweepConfig,
    ThermalState,
    fingerprint,
    parse_config,
)
from nanospin.config import _KNOWN_KEYS

NUMERIC_KEYS = sorted(_KNOWN_KEYS - {"polarizability_model", "mode", "out_dir"})

# The default of every optional key, as the parser resolves it
PARSER_DEFAULTS = dict(parse_config('{"distance_m": 1e-7}').canonical_dict(), out_dir=None)
del PARSER_DEFAULTS["distance_m"]


def literal(text):
    """A default as the documentation spells it: JSON, or a bare word."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def schema():
    return load_schema("config.schema.json")


class TestParseRun:
    def test_minimal_document_resolves_defaults(self):
        cfg = parse_config('{"distance_m": 1e-7}')
        assert isinstance(cfg, RunConfig)
        assert cfg.distance == 1e-7
        assert cfg.omega1 == 1e4
        assert cfg.mode == "linear"
        assert cfg.sync_threshold == 0.01
        assert cfg.samples == 400
        assert cfg.coupling_scale == DEFAULT_COUPLING_SCALE
        assert cfg.thermal_weight == "symmetrized"
        assert cfg.coth_half_argument is False
        assert cfg.out_dir is None
        assert cfg.particle.radius == 5e-9
        assert cfg.particle.mass_density == 3210.0
        assert cfg.thermal.T == 300.0
        assert cfg.thermal.T0 == 300.0
        assert cfg.quad.rel_tol == 1e-9
        assert cfg.quad.omega_min == 1e13
        assert cfg.quad.omega_max is None
        assert cfg.quad.max_subdivisions == 200

    def test_minimal_document_is_the_dataclass_defaults(self):
        cfg = parse_config('{"distance_m": 1e-7}')
        assert cfg == RunConfig(particle=ParticleSpec(), thermal=ThermalState(), quad=QuadratureConfig(), distance=1e-7)

    def test_documents_share_the_objects_they_leave_at_default(self):
        a = parse_config('{"distance_m": 1e-7}')
        b = parse_config('{"distance_m": 2e-7, "mode": "nonlinear"}')
        assert a.particle is b.particle and a.thermal is b.thermal and a.quad is b.quad
        c = parse_config('{"distance_m": 1e-7, "eps_inf": 6.5, "temperature_K": 150.0}')
        assert c.particle is not a.particle and c.particle.dielectric.eps_inf == 6.5
        assert c.thermal == ThermalState(T=150.0) and c.quad is a.quad

    def test_overrides_apply(self):
        cfg = parse_config(json.dumps({
            "distance_m": 2e-7,
            "omega1_rad_per_s": 1e8,
            "temperature_K": 150.0,
            "vacuum_temperature_K": 77.0,
            "mode": "nonlinear",
            "samples": 10,
            "rel_tol": 1e-6,
            "out_dir": "custom",
        }))
        assert cfg.omega1 == 1e8
        assert cfg.thermal.T == 150.0
        assert cfg.thermal.T0 == 77.0
        assert cfg.mode == "nonlinear"
        assert cfg.samples == 10
        assert cfg.quad.rel_tol == 1e-6
        assert cfg.out_dir == "custom"

    def test_samples_bound_is_inclusive(self, schema):
        doc = {"distance_m": 1e-7, "samples": 10**6}
        assert parse_config(json.dumps(doc)).samples == 10**6
        jsonschema.validate(doc, schema)

    def test_point_dipole_guard(self):
        with pytest.raises(ConfigError, match="point-dipole"):
            parse_config('{"distance_m": 2e-9}')

    def test_distance_scales_with_radius(self):
        # 40 nm separation is fine for the default 5 nm radius
        parse_config('{"distance_m": 5e-8}')
        # but not for a 10 nm particle
        with pytest.raises(ConfigError, match="point-dipole"):
            parse_config('{"distance_m": 5e-8, "radius_m": 1e-8}')


class TestParseSweep:
    def test_sweep_document(self):
        cfg = parse_config('{"distances_m": [5e-8, 1e-7, 2e-7, 5e-7]}')
        assert isinstance(cfg, SweepConfig)
        assert cfg.distances == (5e-8, 1e-7, 2e-7, 5e-7)
        assert cfg.base.distance == 5e-8

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            parse_config('{"distances_m": []}')

    def test_every_distance_checked(self):
        with pytest.raises(ConfigError, match="point-dipole"):
            parse_config('{"distances_m": [1e-7, 2e-9]}')


class TestRejection:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="separation_m"):
            parse_config('{"distance_m": 1e-7, "separation_m": 2e-7}')

    def test_distance_keys_are_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config('{"distance_m": 1e-7, "distances_m": [1e-7]}')
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config('{"omega1_rad_per_s": 1e4}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{")

    def test_non_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]")

    @pytest.mark.parametrize(
        "doc",
        [
            {"distance_m": "close"},
            {"distance_m": 1e-7, "samples": 2.5},
            {"distance_m": 1e-7, "samples": True},
            {"distance_m": 1e-7, "omega1_rad_per_s": True},
            {"distance_m": 1e-7, "mode": 3},
            {"distance_m": 1e-7, "polarizability_model": None},
            {"distances_m": [1e-7, "far"]},
            {"distances_m": 1e-7},
        ],
    )
    def test_type_errors(self, doc):
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("thermal_weight", "fancy"),
            ("mode", "implicit"),
            ("polarizability_model", "drude"),
            ("rel_tol", 1e-2),
            ("rel_tol", 0.0),
            ("sync_threshold", 1.5),
            ("samples", 1),
            ("samples", 10**6 + 1),
            ("samples", 10**30),
            ("omega1_rad_per_s", -1e4),
            ("eps_inf", 0.5),
            ("omega_T_rad_per_s", 2e14),
            ("max_subdivisions", 0),
        ],
    )
    def test_domain_errors(self, key, value):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"distance_m": 1e-7, key: value}))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_non_finite_numbers(self, key, value):
        # json.loads reads NaN and +-Infinity: omega1 Infinity ran to a NaN
        # delta_final, and abs_tol NaN gave a different gamma_b
        if key == "distances_m":
            doc = {"distances_m": [1e-7, value]}
        else:
            doc = {"distance_m": 1e-7, key: value}
        with pytest.raises(ConfigError, match=key):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("distance", math.nan),
            ("distance", math.inf),
            ("omega1", math.inf),
            ("coupling_scale", math.nan),
            ("coupling_scale", math.inf),
        ],
        ids=str,
    )
    def test_run_config_refuses_non_finite_values(self, field, value):
        # a NaN or infinite distance passed the point-dipole guard, an
        # infinite omega1 passed "> 0" and a NaN or infinite coupling_scale
        # passed ">= 0"; each reached the kernels or the time grid
        base = {"particle": ParticleSpec(), "thermal": ThermalState(), "quad": QuadratureConfig(), "distance": 1e-7}
        with pytest.raises(ConfigError, match="finite"):
            RunConfig(**dict(base, **{field: value}))

    def test_integer_beyond_float_range(self):
        with pytest.raises(ConfigError, match="radius_m"):
            parse_config(json.dumps({"distance_m": 1e-7, "radius_m": 10**400}))


class TestFingerprint:
    def test_independent_of_key_order(self):
        a = parse_config('{"distance_m": 1e-7, "omega1_rad_per_s": 1e4}')
        b = parse_config('{"omega1_rad_per_s": 1e4, "distance_m": 1e-7}')
        assert fingerprint(a) == fingerprint(b)

    def test_defaults_are_resolved(self):
        # spelling a default out loud changes nothing
        a = parse_config('{"distance_m": 1e-7}')
        b = parse_config('{"distance_m": 1e-7, "samples": 400}')
        assert fingerprint(a) == fingerprint(b)

    def test_sensitive_to_physics(self):
        a = parse_config('{"distance_m": 1e-7}')
        b = parse_config('{"distance_m": 1.0000001e-7}')
        assert fingerprint(a) != fingerprint(b)

    def test_ignores_out_dir(self):
        a = parse_config('{"distance_m": 1e-7, "out_dir": "x"}')
        b = parse_config('{"distance_m": 1e-7, "out_dir": "y"}')
        assert fingerprint(a) == fingerprint(b)

    def test_shape(self):
        fp = fingerprint(parse_config('{"distance_m": 1e-7}'))
        assert len(fp) == 64
        assert set(fp) <= set("0123456789abcdef")

    def test_sweep_differs_from_run(self):
        run = parse_config('{"distance_m": 1e-7}')
        sweep = parse_config('{"distances_m": [1e-7]}')
        assert fingerprint(run) != fingerprint(sweep)

    @pytest.mark.parametrize(
        "doc, expected",
        [
            ({"distance_m": 1e-7}, "10e0bd21d2037e975978bb62ac2715155946a6a3beb55a7d58b9530607c84253"),
            (
                {"distances_m": [1e-7, 2e-7], "samples": 50, "mode": "nonlinear"},
                "2696da06217ae3eb8f0e5874f29a6d30ffd471f3d545d099e9c640d4f42cd290",
            ),
            (
                {
                    "distance_m": 2e-7,
                    "temperature_K": 310,
                    "vacuum_temperature_K": 290,
                    "omega_max_rad_per_s": 1e15,
                    "max_subdivisions": 150,
                    "polarizability_model": "clausius_mossotti",
                    "out_dir": "x",
                },
                "76f1ebde5caf4373a68ad1dc3ec939ea0b6caac273f3298cd5fe78461297498b",
            ),
        ],
    )
    def test_pinned_values(self, doc, expected):
        # a run's identity must survive refactors of the parser
        assert fingerprint(parse_config(json.dumps(doc))) == expected

    def test_with_distance_matches_direct_parse(self):
        sweep = parse_config('{"distances_m": [5e-8, 1e-7]}')
        direct = parse_config('{"distance_m": 1e-7}')
        assert fingerprint(sweep.base.with_distance(1e-7)) == fingerprint(direct)


class TestCanonicalDict:
    def test_run_keys(self):
        doc = parse_config('{"distance_m": 1e-7}').canonical_dict()
        assert set(doc) == _KNOWN_KEYS - {"distances_m", "out_dir"}
        json.dumps(doc)  # must be JSON-ready

    def test_sweep_swaps_distance_key(self):
        doc = parse_config('{"distances_m": [1e-7, 2e-7]}').canonical_dict()
        assert "distance_m" not in doc
        assert doc["distances_m"] == [1e-7, 2e-7]


class TestConfigSchema:
    def test_schema_is_valid(self, schema):
        jsonschema.Draft7Validator.check_schema(schema)

    @pytest.mark.parametrize(
        "doc",
        [
            {"distance_m": 1e-7},
            {"distances_m": [5e-8, 1e-7]},
            {"distance_m": 1e-7, "omega_max_rad_per_s": None},
            {
                "distance_m": 1e-7,
                "omega1_rad_per_s": 1e4,
                "radius_m": 5e-9,
                "mass_density_kg_per_m3": 3210.0,
                "temperature_K": 300.0,
                "vacuum_temperature_K": 300.0,
                "polarizability_model": "bare",
                "eps_inf": 6.7,
                "omega_L_rad_per_s": 1.823e14,
                "omega_T_rad_per_s": 1.492e14,
                "damping_rad_per_s": 8.954e11,
                "rel_tol": 1e-9,
                "abs_tol_Nm": 0.0,
                "max_subdivisions": 200,
                "omega_min_rad_per_s": 1e13,
                "coupling_scale": 3.81e22,
                "mode": "linear",
                "sync_threshold": 0.01,
                "samples": 400,
                "out_dir": "out",
            },
        ],
    )
    def test_accepts(self, schema, doc):
        jsonschema.validate(doc, schema)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"distance_m": 1e-7, "distances_m": [1e-7]},
            {"distance_m": 1e-7, "separation_m": 1e-7},
            {"distance_m": "close"},
            {"distance_m": 1e-7, "thermal_weight": "fancy"},
            {"distance_m": 1e-7, "rel_tol": 0.5},
            {"distance_m": 1e-7, "samples": 1},
            {"distance_m": 1e-7, "samples": 10**6 + 1},
            {"distance_m": 1e-7, "abs_tol_Nm": 1e-30},
            {"distances_m": []},
        ],
    )
    def test_rejects(self, schema, doc):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)

    def test_schema_keys_match_parser(self, schema):
        assert set(schema["properties"]) == _KNOWN_KEYS
        # every key with a non-null default states it as "(default X)"
        stated = {}
        for key, prop in schema["properties"].items():
            match = re.search(r"\(default ([^)]+)\)", prop["description"])
            if match:
                stated[key] = literal(match.group(1))
        assert stated == {key: value for key, value in PARSER_DEFAULTS.items() if value is not None}

    def test_readme_table_keys_match_parser(self):
        readme = (SCHEMA_DIR.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
        keys = [key.strip().strip("`") for key, _ in rows]
        assert len(keys) == len(set(keys))
        assert set(keys) == _KNOWN_KEYS
        defaults = {key.strip().strip("`"): default.strip() for key, default in rows if default.strip() != "required"}
        assert {key: literal(value.strip("`")) for key, value in defaults.items()} == PARSER_DEFAULTS
