"""Flat-JSON run configuration.

One document drives either a single run (key distance_m) or a distance
sweep (key distances_m); exactly one of the two must be present. All
physical keys carry explicit unit suffixes, unknown keys are rejected,
and the resolved document has a canonical form whose sha256 is the run
fingerprint (output location excluded, so a relocated rerun keeps its
identity).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any

from .errors import ConfigError
from .material import DielectricParams, ParticleSpec
from .quadrature import QuadratureConfig
from .torque import DEFAULT_COUPLING_SCALE, THERMAL_WEIGHTS, ThermalState, check_point_dipole

__all__ = ["RunConfig", "SweepConfig", "parse_config", "fingerprint"]

_MODES = ("linear", "nonlinear")


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
    thermal_weight: str = "symmetrized"
    coth_half_argument: bool = False
    out_dir: str | None = None

    def __post_init__(self) -> None:
        check_point_dipole(self.distance, self.particle)
        if not self.omega1 > 0.0:
            raise ConfigError("omega1_rad_per_s must be > 0")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}")
        if not (0.0 < self.sync_threshold < 1.0):
            raise ConfigError("sync_threshold must lie in (0, 1)")
        if self.samples < 2:
            raise ConfigError("samples must be >= 2")
        if self.coupling_scale < 0.0:
            raise ConfigError("coupling_scale must be >= 0")
        if self.thermal_weight not in THERMAL_WEIGHTS:
            raise ConfigError(f"thermal_weight must be one of {THERMAL_WEIGHTS}")

    def canonical_dict(self) -> dict[str, Any]:
        """Resolved physics inputs as a flat, JSON-ready mapping."""
        return {
            "abs_tol_Nm": self.quad.abs_tol,
            "coth_half_argument": self.coth_half_argument,
            "coupling_scale": self.coupling_scale,
            "damping_rad_per_s": self.particle.dielectric.gamma,
            "distance_m": self.distance,
            "eps_inf": self.particle.dielectric.eps_inf,
            "mass_density_kg_per_m3": self.particle.mass_density,
            "max_subdivisions": self.quad.max_subdivisions,
            "mode": self.mode,
            "omega1_rad_per_s": self.omega1,
            "omega_L_rad_per_s": self.particle.dielectric.omega_L,
            "omega_T_rad_per_s": self.particle.dielectric.omega_T,
            "omega_max_rad_per_s": self.quad.omega_max,
            "omega_min_rad_per_s": self.quad.omega_min,
            "polarizability_model": self.particle.polarizability_model,
            "radius_m": self.particle.radius,
            "rel_tol": self.quad.rel_tol,
            "samples": self.samples,
            "sync_threshold": self.sync_threshold,
            "temperature_K": self.thermal.T,
            "thermal_weight": self.thermal_weight,
            "vacuum_temperature_K": self.thermal.T0,
        }

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


def _number(doc: dict, key: str, default: float) -> float:
    if key not in doc:
        return default
    return float(_expect(doc[key], (int, float), key, "must be a number"))


def _integer(doc: dict, key: str, default: int) -> int:
    if key not in doc:
        return default
    return int(_expect(doc[key], int, key, "must be an integer"))


def _string(doc: dict, key: str, default: str) -> str:
    if key not in doc:
        return default
    return _expect(doc[key], str, key, "must be a string")


def _boolean(doc: dict, key: str, default: bool) -> bool:
    if key not in doc:
        return default
    return _expect(doc[key], bool, key, "must be a boolean")


_KNOWN_KEYS = {
    "distance_m",
    "distances_m",
    "omega1_rad_per_s",
    "radius_m",
    "mass_density_kg_per_m3",
    "temperature_K",
    "vacuum_temperature_K",
    "polarizability_model",
    "eps_inf",
    "omega_L_rad_per_s",
    "omega_T_rad_per_s",
    "damping_rad_per_s",
    "rel_tol",
    "abs_tol_Nm",
    "max_subdivisions",
    "omega_min_rad_per_s",
    "omega_max_rad_per_s",
    "coupling_scale",
    "thermal_weight",
    "coth_half_argument",
    "mode",
    "sync_threshold",
    "samples",
    "out_dir",
}


def parse_config(text: str) -> RunConfig | SweepConfig:
    """Parse and validate a JSON configuration document.

    Returns RunConfig when distance_m is given, SweepConfig when
    distances_m is given. Error messages name the offending key.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")

    unknown = sorted(set(doc) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")

    has_single = "distance_m" in doc
    has_sweep = "distances_m" in doc
    if has_single == has_sweep:
        raise ConfigError("exactly one of 'distance_m' and 'distances_m' is required")

    try:
        dielectric = DielectricParams(
            eps_inf=_number(doc, "eps_inf", 6.7),
            omega_L=_number(doc, "omega_L_rad_per_s", 1.823e14),
            omega_T=_number(doc, "omega_T_rad_per_s", 1.492e14),
            gamma=_number(doc, "damping_rad_per_s", 8.954e11),
        )
        particle = ParticleSpec(
            radius=_number(doc, "radius_m", 5e-9),
            mass_density=_number(doc, "mass_density_kg_per_m3", 3210.0),
            temperature=_number(doc, "temperature_K", 300.0),
            polarizability_model=_string(doc, "polarizability_model", "bare"),
            dielectric=dielectric,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    thermal = ThermalState(T=particle.temperature, T0=_number(doc, "vacuum_temperature_K", 300.0))

    omega_max = doc.get("omega_max_rad_per_s", None)
    if omega_max is not None:
        omega_max = float(_expect(omega_max, (int, float), "omega_max_rad_per_s", "must be a number or null"))
    quad = QuadratureConfig(
        rel_tol=_number(doc, "rel_tol", 1e-9),
        abs_tol=_number(doc, "abs_tol_Nm", 0.0),
        max_subdivisions=_integer(doc, "max_subdivisions", 200),
        omega_min=_number(doc, "omega_min_rad_per_s", 1e13),
        omega_max=omega_max,
    )

    out_dir = doc.get("out_dir", None)
    if out_dir is not None:
        out_dir = _expect(out_dir, str, "out_dir", "must be a string or null")

    common = dict(
        particle=particle,
        thermal=thermal,
        quad=quad,
        omega1=_number(doc, "omega1_rad_per_s", 1e4),
        mode=_string(doc, "mode", "linear"),
        sync_threshold=_number(doc, "sync_threshold", 0.01),
        samples=_integer(doc, "samples", 400),
        coupling_scale=_number(doc, "coupling_scale", DEFAULT_COUPLING_SCALE),
        thermal_weight=_string(doc, "thermal_weight", "symmetrized"),
        coth_half_argument=_boolean(doc, "coth_half_argument", False),
        out_dir=out_dir,
    )

    if has_single:
        distance = float(_expect(doc["distance_m"], (int, float), "distance_m", "must be a number"))
        return RunConfig(distance=distance, **common)

    raw_list = _expect(doc["distances_m"], list, "distances_m", "must be a list of numbers")
    distances = tuple(float(_expect(d, (int, float), "distances_m", "must be a list of numbers")) for d in raw_list)
    base = RunConfig(distance=distances[0] if distances else 1.0, **common)
    return SweepConfig(base=base, distances=distances)
