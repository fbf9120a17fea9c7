"""Oscillator-model dielectric response and nanoparticle polarizability.

Single-resonance Lorentz oscillator permittivity

    eps(w) = eps_inf * (1 + (wL^2 - wT^2) / (wT^2 - w^2 - i*G*w))

plus the particle-level quantities built on it: Im alpha(w) in volume
units (the vacuum permittivity is folded into the torque prefactors), a
real Lorentzian in closed form, and its analytic frequency derivative.

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
    "lorentzian",
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


def lorentzian(particle: ParticleSpec) -> tuple[float, float]:
    """(S, omega0) of the particle's Im alpha(w) = S*gamma*w / ((omega0^2 -
    w^2)^2 + gamma^2 w^2), with D = omega_L^2 - omega_T^2. bare, V Im[eps - 1]:
    S = V eps_inf D, omega0 = omega_T. clausius_mossotti, a sphere's
    Im[3V (eps - 1)/(eps + 2)]: S = 9V eps_inf D/(eps_inf + 2)^2 and
    omega0^2 = omega_T^2 + eps_inf D/(eps_inf + 2), the Froehlich frequency."""
    p = particle.dielectric
    eps_d = p.eps_inf * (p.omega_L**2 - p.omega_T**2)
    if particle.polarizability_model == "bare":
        return particle.volume * eps_d, p.omega_T
    return 9.0 * particle.volume * eps_d / (p.eps_inf + 2.0) ** 2, (p.omega_T**2 + eps_d / (p.eps_inf + 2.0)) ** 0.5


def im_polarizability(omega, particle: ParticleSpec):
    """Im alpha(w) in m^3 for the particle's polarizability model (see
    lorentzian). Odd in omega."""
    strength, omega0 = lorentzian(particle)
    gamma = particle.dielectric.gamma
    w = np.asarray(omega, dtype=float)
    x = omega0**2 - w * w
    out = strength * gamma * w / (x * x + (gamma * w) ** 2)
    return out if out.ndim else float(out)


def d_im_polarizability(omega, particle: ParticleSpec):  # no kernel uses it; bench/ calls and wraps it
    """Analytic d/d(omega) of im_polarizability, in m^3*s. Even in omega."""
    strength, omega0 = lorentzian(particle)
    gamma = particle.dielectric.gamma
    w = np.asarray(omega, dtype=float)
    x = omega0**2 - w * w
    gw2 = (gamma * w) ** 2
    out = strength * gamma * (x * (omega0**2 + 3.0 * w * w) - gw2) / (x * x + gw2) ** 2
    return out if out.ndim else float(out)
