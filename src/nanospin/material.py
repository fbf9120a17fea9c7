"""Oscillator-model dielectric response and nanoparticle polarizability.

Single-resonance Lorentz oscillator permittivity

    eps(w) = eps_inf * (1 + (wL^2 - wT^2) / (wT^2 - w^2 - i*G*w))

plus the particle-level quantities built on it: Im alpha(w) in volume
units (the vacuum permittivity is folded into the torque prefactors)
and its analytic frequency derivative, needed by the linearized
friction kernels where finite differences would cancel away.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "DielectricParams",
    "SIC",
    "ParticleSpec",
    "permittivity",
    "d_permittivity",
    "im_polarizability",
    "d_im_polarizability",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 values, pinned. Not user-configurable.

    Attributes
    ----------
    c : float
        Speed of light in vacuum, m/s.
    hbar : float
        Reduced Planck constant, J*s.
    k_B : float
        Boltzmann constant, J/K.
    eps0 : float
        Vacuum permittivity, F/m.
    """

    c: float = 299792458.0
    hbar: float = 1.054571817e-34
    k_B: float = 1.380649e-23
    eps0: float = 8.8541878128e-12


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class DielectricParams:
    """Parameters of the single-oscillator permittivity model."""

    eps_inf: float
    omega_L: float
    omega_T: float
    gamma: float

    def __post_init__(self) -> None:
        if not (self.omega_L > self.omega_T > 0.0):
            raise ValueError("require omega_L > omega_T > 0")
        if self.gamma <= 0.0:
            raise ValueError("require gamma > 0")
        if self.eps_inf < 1.0:
            raise ValueError("require eps_inf >= 1")


# Silicon carbide, transverse/longitudinal optical phonon resonance.
SIC = DielectricParams(eps_inf=6.7, omega_L=1.823e14, omega_T=1.492e14, gamma=8.954e11)

_MODELS = ("bare", "clausius_mossotti")


@dataclass(frozen=True)
class ParticleSpec:
    """Geometry and material of one nanoparticle.

    volume is derived from radius and kept as a field so downstream
    code never recomputes it inconsistently.
    """

    radius: float = 5e-9
    mass_density: float = 3210.0
    polarizability_model: str = "bare"
    dielectric: DielectricParams = SIC
    volume: float = field(init=False)

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError("require radius > 0")
        if self.mass_density <= 0.0:
            raise ValueError("require mass_density > 0")
        if self.polarizability_model not in _MODELS:
            raise ValueError(f"polarizability_model must be one of {_MODELS}")
        object.__setattr__(self, "volume", 4.0 * np.pi * self.radius**3 / 3.0)


def permittivity(omega, params: DielectricParams = SIC):
    """Complex permittivity of the oscillator model, any real frequency.

    Finite for all real omega (gamma > 0 keeps the denominator away from
    zero) and satisfies eps(-w) = conj(eps(w)) by construction.
    """
    w = np.asarray(omega, dtype=float)
    den = params.omega_T**2 - w * w - 1j * params.gamma * w
    out = params.eps_inf * (1.0 + (params.omega_L**2 - params.omega_T**2) / den)
    return out if out.ndim else complex(out)


def d_permittivity(omega, params: DielectricParams = SIC):
    """Analytic d(eps)/d(omega)."""
    w = np.asarray(omega, dtype=float)
    den = params.omega_T**2 - w * w - 1j * params.gamma * w
    out = params.eps_inf * (params.omega_L**2 - params.omega_T**2) * (2.0 * w + 1j * params.gamma) / (den * den)
    return out if out.ndim else complex(out)


def im_polarizability(omega, particle: ParticleSpec):
    """Im alpha(w) in m^3 for the particle's polarizability model.

    bare:              V * Im[eps - 1]
    clausius_mossotti: Im[3V (eps - 1) / (eps + 2)]

    Odd in omega under both models (reality condition of eps).
    """
    eps = permittivity(omega, particle.dielectric)
    if particle.polarizability_model == "bare":
        out = particle.volume * np.imag(eps)
    else:
        out = np.imag(3.0 * particle.volume * (eps - 1.0) / (eps + 2.0))
    return out if np.ndim(out) else float(out)


def d_im_polarizability(omega, particle: ParticleSpec):
    """Analytic d/d(omega) of im_polarizability, in m^3*s. Even in omega."""
    deps = d_permittivity(omega, particle.dielectric)
    if particle.polarizability_model == "bare":
        out = particle.volume * np.imag(deps)
    else:
        # d/dw [3V(eps-1)/(eps+2)] = 9V eps' / (eps+2)^2
        eps = permittivity(omega, particle.dielectric)
        out = np.imag(9.0 * particle.volume * deps / (eps + 2.0) ** 2)
    return out if np.ndim(out) else float(out)
