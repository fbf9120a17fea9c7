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

The vacuum channel does not depend on the distance, so its integrals,
gamma_s and the vacuum torque at each spin, are kept for the life of the
process in one memo keyed on every input of the integral. A kept value
is immutable and has the bits a fresh integral returns (each lockstep
integrand gets the bits it has alone). Errors are not kept, nothing that
depends on the distance is kept, and the memo holds at most MEMO_ENTRIES
values, dropping the oldest first; clear_memo empties it.
"""

from __future__ import annotations

import math
import threading
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
    "MEMO_ENTRIES",
    "clear_memo",
]

# Direct kernel evaluation is refused for 0 < |spin| < this (rad/s):
# the shifted-argument differences fall below binary64 resolution.
SPIN_DIRECT_FLOOR = 1e6

# Mutual-channel magnitude calibration; see module docstring.
DEFAULT_COUPLING_SCALE = 3.81e22

# Bound of the vacuum-channel memo: a spin-up keeps at most 65 node
# torques and one gamma_s per omega1 and setting
MEMO_ENTRIES = 4096

_memo: dict[tuple, IntegrationResult | float] = {}
_memo_lock = threading.Lock()


def _remember(key: tuple, value: IntegrationResult | float) -> None:
    with _memo_lock:
        while key not in _memo and len(_memo) >= MEMO_ENTRIES:
            del _memo[next(iter(_memo))]  # the oldest entry
        _memo[key] = value


def clear_memo() -> None:
    """Forget every kept gamma_s and vacuum torque."""
    with _memo_lock:
        _memo.clear()


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
    # hbar / k_B T, the inverse thermal frequency; inf where k_B T
    # underflows to 0 (T below about 4e-301 K), the zero-temperature limit
    kT = CONSTANTS.k_B * T
    return CONSTANTS.hbar / kT if kT > 0.0 else math.inf


def coth_factor(omega, T: float):
    """coth(hbar*omega/k_B T), the vacuum channel's thermal weight.

    T = 0 degenerates to sign(omega). Evaluation at omega = 0 with T > 0
    is a pole and raises; integrators must keep 0 out of the grid.
    """
    w = np.asarray(omega, dtype=float)
    if T == 0.0:
        out = np.sign(w)
        return out if out.ndim else float(out)
    if np.any(w == 0.0):
        raise PoleError("coth_factor pole at omega = 0")
    x = w * _beta_scale(T)
    small = np.abs(x) < 1e-6
    xs = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):
        out = np.where(small, 1.0 / np.where(small, x, 1.0) + x / 3.0, 1.0 / np.tanh(xs))
    return out if out.ndim else float(out)


def d_coth_factor(omega, T: float):
    """d/d(omega) of coth_factor: -b/sinh^2(b*omega), b = hbar/k_B T.
    Zero for T = 0."""
    w = np.asarray(omega, dtype=float)
    if T == 0.0:
        out = np.zeros_like(w)
        return out if out.ndim else float(out)
    if np.any(w == 0.0):
        raise PoleError("d_coth_factor pole at omega = 0")
    b = _beta_scale(T)
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


def occupation(omega, T: float):
    """Thermal occupation number 1/(e^{hbar w/k_B T} - 1), extended to
    negative frequencies (n(-w) = -(1 + n(w)) falls out of expm1
    automatically)."""
    if T <= 0.0:
        raise ConfigError("occupation requires T > 0")
    w = np.asarray(omega, dtype=float)
    if np.any(w == 0.0):
        raise PoleError("occupation pole at omega = 0")
    x = _beta_scale(T) * w
    with np.errstate(over="ignore"):
        out = 1.0 / np.expm1(x)
    return out if out.ndim else float(out)


def d_occupation(omega, T: float):
    """d/d(omega) of occupation: -b/(4 sinh^2(b*omega/2))."""
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


def _weight(s, omega, T: float):
    """The mutual kernel's symmetrized weight Im alpha * (n + 1/2), given
    s = im_polarizability(omega)."""
    return s * (occupation(omega, T) + 0.5)


def _d_weight(s, ds, omega, T: float):
    """Analytic derivative of _weight, given s = im_polarizability(omega)
    and ds = d_im_polarizability(omega)."""
    return ds * (occupation(omega, T) + 0.5) + s * d_occupation(omega, T)


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
) -> list[float | NanospinError]:
    """vacuum_torque at each spin: its value, bit for bit, or the error it
    raises there. Values come from the memo; one lockstep integral covers
    the spins it lacks, and their values are kept."""
    keys = [("vacuum", spin, particle, thermal, quad, allow_small_spins) for spin in spins]
    results = [_memo.get(key) for key in keys]
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:
        fresh = _integrate_vacuum_torques([spins[i] for i in missing], particle, thermal, quad, allow_small_spins)
        for i, res in zip(missing, fresh):
            results[i] = res
            if not isinstance(res, NanospinError):
                _remember(keys[i], res)
    return results


def _integrate_vacuum_torques(
    spins: Sequence[float],
    particle: ParticleSpec,
    thermal: ThermalState,
    quad: QuadratureConfig,
    allow_small_spins: bool,
) -> list[float | NanospinError]:
    """_vacuum_torques without the memo: one lockstep integral for all
    spins."""

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
            a0 = coth_factor(w, T0)
            wp = w + omega0
            wm = w - omega0
            bracket = (
                im_polarizability(wp, particle) * (coth_factor(wp, T) - a0)
                - im_polarizability(wm, particle) * (coth_factor(wm, T) - a0)
            )
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
) -> float:
    """Drag torque (N*m) on a particle spinning at omega0 in the vacuum.

    Positive return value opposes the rotation; odd in omega0. Exactly
    zero at omega0 = 0 with T = T0. Refuses 0 < |omega0| <
    SPIN_DIRECT_FLOOR unless allow_small_spins (use gamma_s there).
    """
    (res,) = _vacuum_torques([omega0], particle, thermal, quad, allow_small_spins)
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
            f2 = _weight(sm2, wm2, T) - _weight(sp2, wp2, T)
            g1 = sp1 + sm1
            h1 = _weight(sm1, wm1, T) - _weight(sp1, wp1, T)
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
    allow_small_spins: bool = False,
) -> float:
    """Torque (N*m) on particle 2 mediated by the gap field.

    Positive value drives particle 2 toward particle 1's spin. Exactly
    antisymmetric under spin exchange, exactly zero at equal spins.
    Refuses unequal spins whose nonzero scales sit below
    SPIN_DIRECT_FLOOR unless allow_small_spins (use gamma_b there).
    """
    (res,) = _mutual_torques([(spins.omega01, spins.omega02)], d, particle, T, quad, coupling_scale, allow_small_spins)
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


def _gamma_s_result(particle: ParticleSpec, thermal: ThermalState, quad: QuadratureConfig) -> IntegrationResult:
    """gamma_s with its diagnostics, from the memo when it holds them."""
    key = ("gamma_s", particle, thermal, quad)
    res = _memo.get(key)
    if res is None:
        res = _integrate_gamma_s(particle, thermal, quad)
        _remember(key, res)
    return res


def _integrate_gamma_s(particle: ParticleSpec, thermal: ThermalState, quad: QuadratureConfig) -> IntegrationResult:
    if thermal.T <= 0.0 or thermal.T0 <= 0.0:
        raise ConfigError("gamma_s requires T > 0 and T0 > 0")
    q = resolved(quad, default_omega_max(thermal, particle), _thermal_breakpoints(particle, thermal.T, thermal.T0))
    T, T0 = thermal.T, thermal.T0

    def kernel(w):
        s = im_polarizability(w, particle)
        ds = d_im_polarizability(w, particle)
        da = d_coth_factor(w, T)
        expanded = s * da
        if T != T0:
            expanded = expanded + ds * (coth_factor(w, T) - coth_factor(w, T0))
        return 2.0 * w * w * im_g_self_transverse_sum(w) * expanded

    res = integrate_with_diagnostics(kernel, q)
    return _scaled(res, -(CONSTANTS.hbar / (2.0 * np.pi * CONSTANTS.c**2)))


def gamma_s(particle: ParticleSpec, thermal: ThermalState, quad: QuadratureConfig) -> float:
    """Vacuum drag per unit spin (N*m*s): d(vacuum_torque)/d(omega0) at 0.

    Uses the analytically expanded kernel, so it is exact at arbitrarily
    small spins where direct evaluation cancels away. Independent of d.
    """
    return _gamma_s_result(particle, thermal, quad).value


def _gamma_b_results(
    distances: Sequence[float],
    particle: ParticleSpec,
    T: float,
    quad: QuadratureConfig,
    coupling_scale: float = DEFAULT_COUPLING_SCALE,
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
        return 4.0 * abs2_transverse_sum(column[owners, None], w) * _d_weight(s, ds, w, T) * s

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
) -> float:
    """Mutual drag per unit spin difference (N*m*s): the slope of
    mutual_torque in (omega01 - omega02) at zero spins."""
    (res,) = _gamma_b_results([d], particle, T, quad, coupling_scale)
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
) -> list[tuple[FrictionCoefficients, dict] | NanospinError]:
    """friction_coefficients at each distance in one pass.

    gamma_s, which does not depend on distance, is integrated once; the
    gamma_b integrals run in lockstep. Each entry is the pair
    friction_coefficients returns for that distance, bit for bit, or the
    NanospinError it raises there.
    """
    try:
        rs = _gamma_s_result(particle, thermal, quad)
        rbs = _gamma_b_results(distances, particle, thermal.T, quad, coupling_scale)
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
    """Both linearized coefficients plus quadrature diagnostics.

    thermal_weight and coth_half_argument are kept for the benchmark
    harness, which passes a RunConfig's constants of the same names; any
    value but the one convention raises ConfigError.
    """
    if thermal_weight != "symmetrized" or coth_half_argument is not False:
        raise ConfigError("the gap channel weighs by n + 1/2 and the vacuum channel by coth(hbar*omega/k_B T)")
    (result,) = sweep_friction_coefficients(particle, [d], thermal, quad, coupling_scale=coupling_scale)
    if isinstance(result, NanospinError):
        raise result
    return result
