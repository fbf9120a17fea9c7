"""Flat-JSON run configuration.

One document drives either a single run (key distance_m) or a distance
sweep (key distances_m); exactly one of the two must be present. All
physical keys carry explicit unit suffixes, unknown keys are rejected,
and the resolved document has a canonical form whose sha256 is the run
fingerprint (output location excluded, so a relocated rerun keeps its
identity).

One table, _KEYS, names for each physics key the object and field it
sets and how its value is read; parsing and the canonical form both
read it. A key the document omits keeps its dataclass default, so every
default is stated once, on its dataclass.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Any, ClassVar

from .errors import ConfigError
from .material import SIC, ParticleSpec
from .quadrature import QuadratureConfig
from .torque import DEFAULT_COUPLING_SCALE, ThermalState, check_point_dipole

__all__ = ["RunConfig", "SweepConfig", "parse_config", "fingerprint"]

_MODES = ("linear", "nonlinear")

# Largest trajectory sample count: a million rows make about 40 MB of a
# lone run's trajectory.csv (a sweep stores 24 bytes a row, in binary)
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one synchronization run."""

    particle: ParticleSpec
    thermal: ThermalState
    quad: QuadratureConfig
    distance: float
    omega1: float = 1e4
    mode: str = "linear"
    sync_threshold: float = 0.01
    samples: int = 400
    coupling_scale: float = DEFAULT_COUPLING_SCALE
    out_dir: str | None = None

    # Kept for the benchmark harness, which passes both to
    # friction_coefficients; each channel has this one convention.
    thermal_weight: ClassVar[str] = "symmetrized"
    coth_half_argument: ClassVar[bool] = False

    def __post_init__(self) -> None:
        check_point_dipole(self.distance, self.particle)
        if not 0.0 < self.omega1 < math.inf:
            raise ConfigError("omega1_rad_per_s must be finite and > 0")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}")
        if not (0.0 < self.sync_threshold < 1.0):
            raise ConfigError("sync_threshold must lie in (0, 1)")
        if self.samples < 2:
            raise ConfigError("samples must be >= 2")
        if self.samples > MAX_SAMPLES:
            raise ConfigError(f"samples must be <= {MAX_SAMPLES}")
        if not 0.0 <= self.coupling_scale < math.inf:
            raise ConfigError("coupling_scale must be finite and >= 0")

    def canonical_dict(self) -> dict[str, Any]:
        """Resolved physics inputs as a flat, JSON-ready mapping."""
        objects = {
            "dielectric": self.particle.dielectric,
            "particle": self.particle,
            "thermal": self.thermal,
            "quad": self.quad,
            "run": self,
        }
        return {key: getattr(objects[obj], name) for key, (obj, name, _) in _KEYS.items()}

    def with_distance(self, distance: float, out_dir: str | None = None) -> "RunConfig":
        return replace(self, distance=distance, out_dir=out_dir if out_dir is not None else self.out_dir)


@dataclass(frozen=True)
class SweepConfig:
    """A base run replicated over several separations."""

    base: RunConfig
    distances: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.distances:
            raise ConfigError("distances_m must be a nonempty list")
        for d in self.distances:
            # constructing the per-distance config re-runs RunConfig checks
            self.base.with_distance(d)

    def canonical_dict(self) -> dict[str, Any]:
        doc = self.base.canonical_dict()
        del doc["distance_m"]
        doc["distances_m"] = list(self.distances)
        return doc


def fingerprint(config: RunConfig | SweepConfig) -> str:
    """sha256 of the canonical resolved document."""
    text = json.dumps(config.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expect(value, kinds, key: str, constraint: str):
    if isinstance(value, bool) and bool not in (kinds if isinstance(kinds, tuple) else (kinds,)):
        raise ConfigError(f"key '{key}': {constraint}")
    if not isinstance(value, kinds):
        raise ConfigError(f"key '{key}': {constraint}")
    return value


def _finite(value, key: str, constraint: str) -> float:
    # json.loads accepts NaN, Infinity and -Infinity, and an integer too
    # large for a float; all four are refused here
    try:
        number = float(_expect(value, (int, float), key, constraint))
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"key '{key}': must be finite")
    return number


def _number(value, key: str) -> float:
    return _finite(value, key, "must be a number")


def _number_or_null(value, key: str) -> float | None:
    return None if value is None else _finite(value, key, "must be a number or null")


def _integer(value, key: str) -> int:
    return int(_expect(value, int, key, "must be an integer"))


def _string(value, key: str) -> str:
    return _expect(value, str, key, "must be a string")


# Every physics key: the object it sets, the field on that object, and
# its reader. A key the document omits keeps the field's dataclass
# default (SIC for the dielectric).
_KEYS = {
    "distance_m": ("run", "distance", _number),
    "omega1_rad_per_s": ("run", "omega1", _number),
    "radius_m": ("particle", "radius", _number),
    "mass_density_kg_per_m3": ("particle", "mass_density", _number),
    "temperature_K": ("thermal", "T", _number),
    "vacuum_temperature_K": ("thermal", "T0", _number),
    "polarizability_model": ("particle", "polarizability_model", _string),
    "eps_inf": ("dielectric", "eps_inf", _number),
    "omega_L_rad_per_s": ("dielectric", "omega_L", _number),
    "omega_T_rad_per_s": ("dielectric", "omega_T", _number),
    "damping_rad_per_s": ("dielectric", "gamma", _number),
    "rel_tol": ("quad", "rel_tol", _number),
    "abs_tol_Nm": ("quad", "abs_tol", _number),
    "max_subdivisions": ("quad", "max_subdivisions", _integer),
    "omega_min_rad_per_s": ("quad", "omega_min", _number),
    "omega_max_rad_per_s": ("quad", "omega_max", _number_or_null),
    "coupling_scale": ("run", "coupling_scale", _number),
    "mode": ("run", "mode", _string),
    "sync_threshold": ("run", "sync_threshold", _number),
    "samples": ("run", "samples", _integer),
}

_KNOWN_KEYS = set(_KEYS) | {"distances_m", "out_dir"}

# frozen, so every configuration that sets none of an object's keys
# shares one default instance instead of holding an equal copy
_PARTICLE, _THERMAL, _QUAD = ParticleSpec(), ThermalState(), QuadratureConfig()


def _with(default, changes: dict[str, Any]):
    return replace(default, **changes) if changes else default


def parse_config(text: str) -> RunConfig | SweepConfig:
    """Parse and validate a JSON configuration document.

    Returns RunConfig when distance_m is given, SweepConfig when
    distances_m is given. Error messages name the offending key.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError("configuration nests its JSON arrays or objects too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")

    unknown = sorted(set(doc) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")

    has_sweep = "distances_m" in doc
    if has_sweep == ("distance_m" in doc):
        raise ConfigError("exactly one of 'distance_m' and 'distances_m' is required")

    fields: defaultdict[str, dict[str, Any]] = defaultdict(dict)
    for key, (obj, name, read) in _KEYS.items():
        if key in doc:
            fields[obj][name] = read(doc[key], key)
    if has_sweep:
        raw_list = _expect(doc["distances_m"], list, "distances_m", "must be a list of numbers")
        distances = tuple(_finite(d, "distances_m", "must be a list of numbers") for d in raw_list)
        fields["run"]["distance"] = distances[0] if distances else 1.0

    try:
        if fields["dielectric"]:
            fields["particle"]["dielectric"] = replace(SIC, **fields["dielectric"])
        particle = _with(_PARTICLE, fields["particle"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_dir = doc.get("out_dir", None)
    if out_dir is not None:
        out_dir = _expect(out_dir, str, "out_dir", "must be a string or null")

    base = RunConfig(
        particle=particle,
        thermal=_with(_THERMAL, fields["thermal"]),
        quad=_with(_QUAD, fields["quad"]),
        out_dir=out_dir,
        **fields["run"],
    )
    return SweepConfig(base=base, distances=distances) if has_sweep else base
