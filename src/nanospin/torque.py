"""Fluctuation-induced torques on a spinning nanoparticle pair.

Two channels:

* vacuum drag: a single particle spinning at omega0 radiates into the
  fluctuating vacuum and is slowed; kernel built from the coincident-point
  field propagator, the particle's Im alpha, and coth thermal factors.
* mutual drive: particle 1's fluctuating dipole exerts a torque on
  particle 2 across the gap d, pushing it toward co-rotation; kernel built
  from 2|g_t|^2 and occupation-weighted Im alpha at spin-shifted
  frequencies.

Both integrands live on [omega_min, omega_max] (see quadrature module for
the infrared cutoff rationale). Below SPIN_DIRECT_FLOOR the spin shifts
are unresolvable in binary64 and direct evaluation is refused in favor of
the linearized coefficients gamma_s / gamma_b; structural checks may pass
allow_small_spins=True since operand-exchange antisymmetry holds exactly
at any magnitude.

The mutual channel carries an overall coupling_scale multiplier (the
absolute cross-prefactor between the two channels is calibration-grade;
DEFAULT_COUPLING_SCALE pins the 100 nm default run to a 0.030 s
synchronization time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NanospinError, PoleError, SmallSpinError
from .greens import abs2_transverse_sum, im_g_self_transverse_sum
from .material import CONSTANTS, ParticleSpec, d_im_polarizability, im_polarizability
from .quadrature import (
    IntegrationResult,
    QuadratureConfig,
    integrate,
    integrate_with_diagnostics,
    resolved,
)

__all__ = [
    "ThermalState",
    "SpinPair",
    "FrictionCoefficients",
    "QuadratureConfig",
    "integrate",
    "SPIN_DIRECT_FLOOR",
    "DEFAULT_COUPLING_SCALE",
    "THERMAL_WEIGHTS",
    "coth_factor",
    "d_coth_factor",
    "occupation",
    "d_occupation",
    "default_omega_max",
    "vacuum_torque",
    "mutual_torque",
    "gamma_s",
    "gamma_b",
    "friction_coefficients",
    "sweep_friction_coefficients",
    "check_point_dipole",
]

# Direct kernel evaluation is refused for 0 < |spin| < this (rad/s):
# the shifted-argument differences fall below binary64 resolution.
SPIN_DIRECT_FLOOR = 1e6

# Mutual-channel magnitude calibration; see module docstring.
DEFAULT_COUPLING_SCALE = 3.81e22

THERMAL_WEIGHTS = ("symmetrized", "bose", "literal")


@dataclass(frozen=True)
class ThermalState:
    """Particle temperature T and environment temperature T0, kelvin."""

    T: float = 300.0
    T0: float = 300.0

    def __post_init__(self) -> None:
        if self.T < 0.0 or self.T0 < 0.0:
            raise ConfigError("temperatures must be >= 0")


@dataclass(frozen=True)
class SpinPair:
    """Angular velocities of the two particles, rad/s, either sign."""

    omega01: float
    omega02: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.omega01) and np.isfinite(self.omega02)):
            raise ConfigError("spins must be finite")


@dataclass(frozen=True)
class FrictionCoefficients:
    """Linearized drag coefficients, N*m*s.

    gamma_s: vacuum drag per unit spin. gamma_b: mutual drag per unit
    spin difference. Both nonnegative under the default conventions.
    """

    gamma_s: float
    gamma_b: float


def _beta_scale(T: float) -> float:
    # hbar / k_B T, the inverse thermal frequency
    return CONSTANTS.hbar / (CONSTANTS.k_B * T)


def coth_factor(omega, T: float, half_argument: bool = False):
    """coth(hbar*omega/k_B T), the symmetric thermal weight.

    T = 0 degenerates to sign(omega). Evaluation at omega = 0 with T > 0
    is a pole and raises; integrators must keep 0 out of the grid.
    half_argument switches to the coth(hbar*omega/2k_B T) convention.
    """
    w = np.asarray(omega, dtype=float)
    if T == 0.0:
        out = np.sign(w)
        return out if out.ndim else float(out)
    if np.any(w == 0.0):
        raise PoleError("coth_factor pole at omega = 0")
    x = w * (_beta_scale(T) * (0.5 if half_argument else 1.0))
    small = np.abs(x) < 1e-6
    xs = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):
        out = np.where(small, 1.0 / np.where(small, x, 1.0) + x / 3.0, 1.0 / np.tanh(xs))
    return out if out.ndim else float(out)


def d_coth_factor(omega, T: float, half_argument: bool = False):
    """d/d(omega) of coth_factor: -b/sinh^2(b*omega), b = hbar/k_B T
    (times 1/2 under half_argument). Zero for T = 0."""
    w = np.asarray(omega, dtype=float)
    if T == 0.0:
        out = np.zeros_like(w)
        return out if out.ndim else float(out)
    if np.any(w == 0.0):
        raise PoleError("d_coth_factor pole at omega = 0")
    b = _beta_scale(T) * (0.5 if half_argument else 1.0)
    x = b * w
    ax = np.abs(x)
    small = ax < 1e-6
    large = ax > 350.0  # sinh overflow guard; true value underflows anyway
    xs = np.where(small | large, 1.0, x)
    out = np.where(
        small,
        -1.0 / (b * np.where(small, w, 1.0) ** 2) + b / 3.0,
        np.where(large, 0.0, -b / np.sinh(xs) ** 2),
    )
    return out if out.ndim else float(out)


def occupation(omega, T: float, literal_sign: bool = False):
    """Thermal occupation number.

    Default: 1/(e^{hbar w/k_B T} - 1), extended to negative frequencies
    (n(-w) = -(1 + n(w)) falls out of expm1 automatically). literal_sign
    evaluates 1/(e^{-hbar w/k_B T} - 1) verbatim, which is -(1 + n(w)).
    """
    if T <= 0.0:
        raise ConfigError("occupation requires T > 0")
    w = np.asarray(omega, dtype=float)
    if np.any(w == 0.0):
        raise PoleError("occupation pole at omega = 0")
    x = _beta_scale(T) * w
    if literal_sign:
        x = -x
    with np.errstate(over="ignore"):
        out = 1.0 / np.expm1(x)
    return out if out.ndim else float(out)


def d_occupation(omega, T: float):
    """d/d(omega) of the default occupation: -b/(4 sinh^2(b*omega/2))."""
    if T <= 0.0:
        raise ConfigError("d_occupation requires T > 0")
    w = np.asarray(omega, dtype=float)
    if np.any(w == 0.0):
        raise PoleError("d_occupation pole at omega = 0")
    b = _beta_scale(T)
    x = 0.5 * b * w
    ax = np.abs(x)
    small = ax < 1e-6
    large = ax > 350.0
    xs = np.where(small | large, 1.0, x)
    out = np.where(
        small,
        -1.0 / (b * np.where(small, w, 1.0) ** 2) + b / 12.0,
        np.where(large, 0.0, -0.25 * b / np.sinh(xs) ** 2),
    )
    return out if out.ndim else float(out)


def _weight(s, omega, T: float, mode: str):
    """Occupation-weighted Im alpha used by the mutual kernel, given
    s = im_polarizability(omega)."""
    if mode == "symmetrized":
        return s * (occupation(omega, T) + 0.5)
    if mode == "bose":
        return s * occupation(omega, T)
    if mode == "literal":
        return s * occupation(omega, T, literal_sign=True)
    raise ConfigError(f"thermal_weight must be one of {THERMAL_WEIGHTS}")


def _d_weight(s, ds, omega, T: float, mode: str):
    """Analytic derivative of _weight, given s = im_polarizability(omega)
    and ds = d_im_polarizability(omega)."""
    if mode == "symmetrized":
        return ds * (occupation(omega, T) + 0.5) + s * d_occupation(omega, T)
    if mode == "bose":
        return ds * occupation(omega, T) + s * d_occupation(omega, T)
    if mode == "literal":
        return -(ds * (1.0 + occupation(omega, T)) + s * d_occupation(omega, T))
    raise ConfigError(f"thermal_weight must be one of {THERMAL_WEIGHTS}")


def default_omega_max(thermal: ThermalState, particle: ParticleSpec) -> float:
    """Upper cutoff max(10 k_B T / hbar, 5 omega_L): beyond it both the
    thermal factors and the resonance tails are negligible at 1e-12."""
    t = max(thermal.T, thermal.T0)
    thermal_scale = 10.0 * CONSTANTS.k_B * t / CONSTANTS.hbar if t > 0.0 else 0.0
    return max(thermal_scale, 5.0 * particle.dielectric.omega_L)


def _thermal_breakpoints(particle: ParticleSpec, *temps: float) -> list[float]:
    pts = [particle.dielectric.omega_T, particle.dielectric.omega_L]
    for t in temps:
        if t > 0.0:
            pts.append(CONSTANTS.k_B * t / CONSTANTS.hbar)
    return pts


def check_point_dipole(d: float, particle: ParticleSpec) -> None:
    """Raise ConfigError unless d >= 10*radius, the point-dipole regime
    every kernel here assumes."""
    if d < 10.0 * particle.radius:
        raise ConfigError(
            f"distance {d:.3e} m violates the point-dipole regime "
            f"(require distance >= 10*radius = {10 * particle.radius:.3e} m)"
        )


def _check_spin_in_band(quad: QuadratureConfig, *spins: float) -> None:
    # Shifted kernel arguments omega -+ spin must stay strictly positive
    # on the grid; half the infrared cutoff leaves a safe margin.
    limit = 0.5 * quad.omega_min
    for s in spins:
        if abs(s) > limit:
            raise ConfigError(
                f"|spin| = {abs(s):.3e} exceeds half the infrared cutoff "
                f"{quad.omega_min:.3e}; shifted kernel arguments would cross zero"
            )


def _spin_results(
    spins: Sequence,
    check: Callable[..., None],
    resolve: Callable[[], QuadratureConfig],
    kernel_at: Callable[[np.ndarray], Callable],
    scale: float,
) -> list[float | NanospinError]:
    """scale times the integral at each spin tuple, or the error that spin
    raises: check(*spin), then the quadrature resolve() gives, then the
    band check, in the order a lone call makes them. The spins that pass
    are integrated in lockstep; kernel_at(columns) is the kernel whose
    row owned by pending spin i reads its spin from columns[i]."""
    results: list[float | NanospinError | None] = []
    q = None
    for spin in spins:
        try:
            check(*spin)
            if q is None:
                q = resolve()
            _check_spin_in_band(q, *spin)
        except NanospinError as exc:
            results.append(exc)
        else:
            results.append(None)
    pending = [i for i, r in enumerate(results) if r is None]
    if pending:
        columns = np.array([spins[i] for i in pending], dtype=float)
        for i, res in zip(pending, integrate_with_diagnostics(kernel_at(columns), q, len(pending))):
            results[i] = res if isinstance(res, NanospinError) else scale * res.value
    return results


def _vacuum_torques(
    spins: Sequence[float],
    particle: ParticleSpec,
    thermal: ThermalState,
    quad: QuadratureConfig,
    allow_small_spins: bool = False,
    coth_half_argument: bool = False,
) -> list[float | NanospinError]:
    """vacuum_torque at each spin: its value, bit for bit, or the error it
    raises there. One lockstep integral for all spins."""

    def check(omega0: float) -> None:
        if not np.isfinite(omega0):
            raise ConfigError("omega0 must be finite")
        if 0.0 < abs(omega0) < SPIN_DIRECT_FLOOR and not allow_small_spins:
            raise SmallSpinError(
                f"|omega0| = {abs(omega0):.3e} is below the direct-evaluation "
                f"floor {SPIN_DIRECT_FLOOR:.0e}; use gamma_s or pass allow_small_spins=True"
            )

    def resolve() -> QuadratureConfig:
        return resolved(quad, default_omega_max(thermal, particle), _thermal_breakpoints(particle, thermal.T, thermal.T0))

    T, T0 = thermal.T, thermal.T0

    def kernel_at(columns: np.ndarray):
        def kernel(w, owners):
            omega0 = columns[owners]  # (rows, 1)
            a0 = coth_factor(w, T0, coth_half_argument)
            wp = w + omega0
            wm = w - omega0
            bracket = im_polarizability(wp, particle) * (
                coth_factor(wp, T, coth_half_argument) - a0
            ) - im_polarizability(wm, particle) * (coth_factor(wm, T, coth_half_argument) - a0)
            return w * w * im_g_self_transverse_sum(w) * bracket

        return kernel

    scale = -(CONSTANTS.hbar / (2.0 * np.pi * CONSTANTS.c**2))
    return _spin_results([(s,) for s in spins], check, resolve, kernel_at, scale)


def vacuum_torque(
    omega0: float,
    particle: ParticleSpec,
    thermal: ThermalState,
    quad: QuadratureConfig,
    *,
    allow_small_spins: bool = False,
    coth_half_argument: bool = False,
) -> float:
    """Drag torque (N*m) on a particle spinning at omega0 in the vacuum.

    Positive return value opposes the rotation; odd in omega0. Exactly
    zero at omega0 = 0 with T = T0. Refuses 0 < |omega0| <
    SPIN_DIRECT_FLOOR unless allow_small_spins (use gamma_s there).
    """
    (res,) = _vacuum_torques([omega0], particle, thermal, quad, allow_small_spins, coth_half_argument)
    if isinstance(res, NanospinError):
        raise res
    return res


def _mutual_torques(
    spins: Sequence[tuple[float, float]],
    d: float,
    particle: ParticleSpec,
    T: float,
    quad: QuadratureConfig,
    coupling_scale: float = DEFAULT_COUPLING_SCALE,
    thermal_weight: str = "symmetrized",
    allow_small_spins: bool = False,
) -> list[float | NanospinError]:
    """mutual_torque at each (omega01, omega02): its value, bit for bit,
    or the error it raises there. One lockstep integral for all pairs."""

    def check(o1: float, o2: float) -> None:
        SpinPair(o1, o2)
        check_point_dipole(d, particle)
        if T <= 0.0:
            raise ConfigError("mutual_torque requires T > 0")
        if o1 != o2 and not allow_small_spins:
            scales = [abs(x) for x in (o1, o2, o1 - o2) if x != 0.0]
            if min(scales) < SPIN_DIRECT_FLOOR:
                raise SmallSpinError(
                    f"smallest nonzero spin scale {min(scales):.3e} is below the "
                    f"direct-evaluation floor {SPIN_DIRECT_FLOOR:.0e}; use gamma_b "
                    "or pass allow_small_spins=True"
                )

    def resolve() -> QuadratureConfig:
        return resolved(quad, default_omega_max(ThermalState(T, T), particle), _thermal_breakpoints(particle, T))

    def kernel_at(columns: np.ndarray):
        def kernel(w, owners):
            o1, o2 = columns[owners, 0, None], columns[owners, 1, None]  # (rows, 1) each
            wm2, wp2, wp1, wm1 = w - o2, w + o2, w + o1, w - o1
            sm2, sp2, sp1, sm1 = (im_polarizability(x, particle) for x in (wm2, wp2, wp1, wm1))
            f2 = _weight(sm2, wm2, T, thermal_weight) - _weight(sp2, wp2, T, thermal_weight)
            g1 = sp1 + sm1
            h1 = _weight(sm1, wm1, T, thermal_weight) - _weight(sp1, wp1, T, thermal_weight)
            k2 = sp2 + sm2
            return abs2_transverse_sum(d, w) * (f2 * g1 - h1 * k2)

        return kernel

    scale = coupling_scale * 4.0 * np.pi * CONSTANTS.hbar
    return _spin_results(spins, check, resolve, kernel_at, scale)


def mutual_torque(
    spins: SpinPair,
    d: float,
    particle: ParticleSpec,
    T: float,
    quad: QuadratureConfig,
    *,
    coupling_scale: float = DEFAULT_COUPLING_SCALE,
    thermal_weight: str = "symmetrized",
    allow_small_spins: bool = False,
) -> float:
    """Torque (N*m) on particle 2 mediated by the gap field.

    Positive value drives particle 2 toward particle 1's spin. Exactly
    antisymmetric under spin exchange, exactly zero at equal spins.
    Refuses unequal spins whose nonzero scales sit below
    SPIN_DIRECT_FLOOR unless allow_small_spins (use gamma_b there).
    """
    (res,) = _mutual_torques(
        [(spins.omega01, spins.omega02)], d, particle, T, quad, coupling_scale, thermal_weight, allow_small_spins
    )
    if isinstance(res, NanospinError):
        raise res
    return res


def _scaled(res: IntegrationResult, scale: float) -> IntegrationResult:
    return IntegrationResult(
        value=scale * res.value,
        error_estimate=abs(scale) * res.error_estimate,
        panels=res.panels,
        evaluations=res.evaluations,
        peak_kernel=res.peak_kernel,
    )


def _gamma_s_result(
    particle: ParticleSpec,
    thermal: ThermalState,
    quad: QuadratureConfig,
    coth_half_argument: bool = False,
) -> IntegrationResult:
    if thermal.T <= 0.0 or thermal.T0 <= 0.0:
        raise ConfigError("gamma_s requires T > 0 and T0 > 0")
    q = resolved(quad, default_omega_max(thermal, particle), _thermal_breakpoints(particle, thermal.T, thermal.T0))
    T, T0 = thermal.T, thermal.T0

    def kernel(w):
        s = im_polarizability(w, particle)
        ds = d_im_polarizability(w, particle)
        da = d_coth_factor(w, T, coth_half_argument)
        expanded = s * da
        if T != T0:
            expanded = expanded + ds * (coth_factor(w, T, coth_half_argument) - coth_factor(w, T0, coth_half_argument))
        return 2.0 * w * w * im_g_self_transverse_sum(w) * expanded

    res = integrate_with_diagnostics(kernel, q)
    return _scaled(res, -(CONSTANTS.hbar / (2.0 * np.pi * CONSTANTS.c**2)))


def gamma_s(
    particle: ParticleSpec,
    thermal: ThermalState,
    quad: QuadratureConfig,
    *,
    coth_half_argument: bool = False,
) -> float:
    """Vacuum drag per unit spin (N*m*s): d(vacuum_torque)/d(omega0) at 0.

    Uses the analytically expanded kernel, so it is exact at arbitrarily
    small spins where direct evaluation cancels away. Independent of d.
    """
    return _gamma_s_result(particle, thermal, quad, coth_half_argument).value


def _gamma_b_results(
    distances: Sequence[float],
    particle: ParticleSpec,
    T: float,
    quad: QuadratureConfig,
    coupling_scale: float = DEFAULT_COUPLING_SCALE,
    thermal_weight: str = "symmetrized",
) -> list[IntegrationResult | NanospinError]:
    """gamma_b at each distance: its IntegrationResult, or the error that
    distance raised. All integrals run in lockstep, one kernel call per
    round, each with the bits it has alone."""
    results: list[IntegrationResult | NanospinError | None] = []
    for d in distances:
        try:
            check_point_dipole(d, particle)
        except ConfigError as exc:
            results.append(exc)
        else:
            results.append(None)
    if T <= 0.0:
        raise ConfigError("gamma_b requires T > 0")
    q = resolved(quad, default_omega_max(ThermalState(T, T), particle), _thermal_breakpoints(particle, T))
    pending = [i for i, r in enumerate(results) if r is None]
    column = np.array([distances[i] for i in pending])

    def kernel(w, owners):
        s = im_polarizability(w, particle)
        ds = d_im_polarizability(w, particle)
        return 4.0 * abs2_transverse_sum(column[owners, None], w) * _d_weight(s, ds, w, T, thermal_weight) * s

    scale = coupling_scale * 4.0 * np.pi * CONSTANTS.hbar
    for i, res in zip(pending, integrate_with_diagnostics(kernel, q, len(pending))):
        results[i] = res if isinstance(res, NanospinError) else _scaled(res, scale)
    return results


def gamma_b(
    d: float,
    particle: ParticleSpec,
    T: float,
    quad: QuadratureConfig,
    *,
    coupling_scale: float = DEFAULT_COUPLING_SCALE,
    thermal_weight: str = "symmetrized",
) -> float:
    """Mutual drag per unit spin difference (N*m*s): the slope of
    mutual_torque in (omega01 - omega02) at zero spins."""
    (res,) = _gamma_b_results([d], particle, T, quad, coupling_scale, thermal_weight)
    if isinstance(res, NanospinError):
        raise res
    return res.value


def _diagnostics(res: IntegrationResult) -> dict:
    return {"error_estimate_Nms": res.error_estimate, "panels": res.panels, "evaluations": res.evaluations}


def sweep_friction_coefficients(
    particle: ParticleSpec,
    distances: Sequence[float],
    thermal: ThermalState,
    quad: QuadratureConfig,
    *,
    coupling_scale: float = DEFAULT_COUPLING_SCALE,
    thermal_weight: str = "symmetrized",
    coth_half_argument: bool = False,
) -> list[tuple[FrictionCoefficients, dict] | NanospinError]:
    """friction_coefficients at each distance in one pass.

    gamma_s, which does not depend on distance, is integrated once; the
    gamma_b integrals run in lockstep. Each entry is the pair
    friction_coefficients returns for that distance, bit for bit, or the
    NanospinError it raises there.
    """
    try:
        rs = _gamma_s_result(particle, thermal, quad, coth_half_argument)
        rbs = _gamma_b_results(distances, particle, thermal.T, quad, coupling_scale, thermal_weight)
    except NanospinError as exc:
        return [exc] * len(distances)
    return [
        rb
        if isinstance(rb, NanospinError)
        else (
            FrictionCoefficients(gamma_s=rs.value, gamma_b=rb.value),
            {"gamma_s": _diagnostics(rs), "gamma_b": _diagnostics(rb)},
        )
        for rb in rbs
    ]


def friction_coefficients(
    particle: ParticleSpec,
    d: float,
    thermal: ThermalState,
    quad: QuadratureConfig,
    *,
    coupling_scale: float = DEFAULT_COUPLING_SCALE,
    thermal_weight: str = "symmetrized",
    coth_half_argument: bool = False,
) -> tuple[FrictionCoefficients, dict]:
    """Both linearized coefficients plus quadrature diagnostics."""
    (result,) = sweep_friction_coefficients(
        particle,
        [d],
        thermal,
        quad,
        coupling_scale=coupling_scale,
        thermal_weight=thermal_weight,
        coth_half_argument=coth_half_argument,
    )
    if isinstance(result, NanospinError):
        raise result
    return result
