"""Fluctuation-induced torques on a spinning nanoparticle pair.

Two channels:

* vacuum drag: a single particle spinning at omega0 radiates into the
  fluctuating vacuum and is slowed; kernel built from the coincident-point
  field propagator, the particle's Im alpha, and coth thermal factors.
* mutual drive: particle 1's fluctuating dipole exerts a torque on
  particle 2 across the gap d, pushing it toward co-rotation; kernel built
  from 2|g_t|^2 and occupation-weighted Im alpha at spin-shifted
  frequencies.

Either temperature may be 0: the thermal factors take their
zero-temperature limit through hbar/k_B T = inf, the value they also
take where k_B T underflows, so no function refuses or special-cases it.

Both integrands live on [omega_min, omega_max] (see quadrature module for
the infrared cutoff rationale). Below SPIN_DIRECT_FLOOR the spin shifts
are unresolvable in binary64 and direct evaluation is refused in favor of
the linearized coefficients gamma_s / gamma_b; structural checks may pass
allow_small_spins=True since operand-exchange antisymmetry holds exactly
at any magnitude.

The two torques, gamma_s and the gap moments run as batches through one
pipeline, a lone call being a batch of one: a batch checks its items in
order and raises at the first that fails, the items not kept share one
lockstep integral, each with the bits it has alone, each result is
scaled once, and the first item that fails raises its error. Every
integral starts from panel edges at both resonances, at k_B T / hbar for
each temperature, and graded around the model's peak (lorentzian), one
edge per octave of the damping on each side (QUADPACK's points, Piessens
et al., 1983): a first mesh that resolves the peak before any split.

2|g_t|^2 = 2(1/d^2 - 1/(k^2 d^4) + 1/(k^4 d^6)), so gamma_b(d) is
scale*(A/d^2 - B/d^4 + C/d^6), three moments free of d in one batch,
which each distance tightens until its own value certifies.

The mutual channel carries an overall coupling_scale multiplier (the
absolute cross-prefactor between the two channels is calibration-grade;
DEFAULT_COUPLING_SCALE pins the 100 nm default run to a 0.030 s
synchronization time).

gamma_s, the vacuum torque at each spin and the gap moments do not
depend on the distance, so they are kept for the life of the process in
one memo keyed on every input of the integral but coupling_scale, which
scales after; checks run before the memo is read, so a kept value never
spares a call its error. A kept value is an immutable IntegrationResult
with the bits a fresh integral returns. Errors are not kept, nothing
that depends on the distance is kept, and the memo holds at most
MEMO_ENTRIES values, dropping the oldest first; clear_memo empties it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NanospinError, PoleError, SmallSpinError
from .greens import abs2_transverse_sum, im_g_self_transverse_sum
from .material import CONSTANTS, ParticleSpec, d_im_polarizability, im_polarizability, lorentzian
from .quadrature import IntegrationResult, QuadratureConfig, integrate_with_diagnostics, resolved
from .quadrature import integrate  # noqa: F401 -- bench/tracing.py wraps nanospin.torque.integrate

__all__ = [
    "ThermalState",
    "SpinPair",
    "FrictionCoefficients",
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
    "gamma_b_sign_edge",
    "check_point_dipole",
    "MEMO_ENTRIES",
    "clear_memo",
]

# Direct kernel evaluation is refused for 0 < |spin| < this (rad/s). The
# kernels difference values at omega -+ spin, and the error estimate is
# made from the same rounded values, so at small spin scales a certified
# value can miss rel_tol: against 40-digit references, by up to 2.6x,
# wherever spin * rel_tol <= 0.56, at scales from 1e2 to 1e9. Above this
# floor that band lies below rel_tol 5.6e-7; clearing the default 1e-9
# would take 5.6e8, under 2x below the spin-up's own 1e9 nodes (README).
SPIN_DIRECT_FLOOR = 1e6

# Mutual-channel magnitude calibration; see module docstring.
DEFAULT_COUPLING_SCALE = 3.81e22

# Bound of the memo: at most 65 node torques and one gamma_s per omega1
# and setting, and three gap moments per setting and tolerance
MEMO_ENTRIES = 4096

_memo: dict[tuple, IntegrationResult] = {}
_memo_lock = threading.Lock()


def _remember(key: tuple, value: IntegrationResult) -> None:
    with _memo_lock:
        while key not in _memo and len(_memo) >= MEMO_ENTRIES:
            del _memo[next(iter(_memo))]  # the oldest entry
        _memo[key] = value


def clear_memo() -> None:
    """Forget every kept gamma_s, gap moment and vacuum torque, so the
    next integrals run as in a fresh process."""
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
    # hbar / k_B T, the inverse thermal frequency; inf at T = 0 and where
    # k_B T underflows to 0 (T below about 4e-301 K). Every thermal factor
    # takes its zero-temperature limit through this inf, with no branch
    # of its own.
    kT = CONSTANTS.k_B * T
    return CONSTANTS.hbar / kT if kT > 0.0 else math.inf


def coth_factor(omega, T: float):
    """coth(hbar*omega/k_B T) = 1 + 2 n(2 omega), the vacuum channel's
    thermal weight, read from occupation: T = 0 gives sign(omega), and
    omega = 0 raises occupation's PoleError."""
    return 1.0 + 2.0 * occupation(2.0 * np.asarray(omega, dtype=float), T)


def d_coth_factor(omega, T: float):
    """d/d(omega) of coth_factor: 4 n'(2 omega) = -b/sinh^2(b*omega),
    b = hbar/k_B T. Zero for T = 0."""
    return 4.0 * d_occupation(2.0 * np.asarray(omega, dtype=float), T)


def occupation(omega, T: float):
    """Thermal occupation number 1/(e^{hbar w/k_B T} - 1), extended to
    negative frequencies (n(-w) = -(1 + n(w)) falls out of expm1
    automatically). T = 0 gives 0 above zero frequency and -1 below."""
    w = np.asarray(omega, dtype=float)
    if np.any(w == 0.0):
        raise PoleError("occupation pole at omega = 0")
    x = _beta_scale(T) * w
    with np.errstate(over="ignore"):
        out = 1.0 / np.expm1(x)
    return out if out.ndim else float(out)


def d_occupation(omega, T: float):
    """d/d(omega) of occupation: -b/(4 sinh^2(b*omega/2)). Zero for T = 0."""
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
    thermal_scale = 10.0 * CONSTANTS.k_B * max(thermal.T, thermal.T0) / CONSTANTS.hbar
    return max(thermal_scale, 5.0 * particle.dielectric.omega_L)


def _thermal_breakpoints(particle: ParticleSpec, *temps: float) -> list[float]:
    # the graded edges omega0 -+ 2**k * gamma, k = -2 .. 7, resolve the
    # model's own peak omega0 in the first mesh; edges outside the window,
    # such as a zero temperature's 0, are dropped
    p, peak = particle.dielectric, lorentzian(particle)[1]
    graded = [peak + sign * 2.0**k * p.gamma for k in range(-2, 8) for sign in (-1.0, 1.0)]
    return [p.omega_T, p.omega_L] + graded + [CONSTANTS.k_B * t / CONSTANTS.hbar for t in temps]


def _window(quad: QuadratureConfig, particle: ParticleSpec, thermal: ThermalState) -> QuadratureConfig:
    """quad over a channel's spectral window: default_omega_max unless
    omega_max is set, with panel edges at both resonances, at k_B T /
    hbar for each temperature and graded around the model's peak. The vacuum
    channel passes its thermal state, the gap channel ThermalState(T, T)."""
    return resolved(quad, default_omega_max(thermal, particle), _thermal_breakpoints(particle, thermal.T, thermal.T0))


def check_point_dipole(d: float, particle: ParticleSpec) -> None:
    """Raise ConfigError unless d is finite and d >= 10*radius, the
    point-dipole regime every kernel here assumes."""
    if not (math.isfinite(d) and d >= 10.0 * particle.radius):
        raise ConfigError(
            f"distance {d:.3e} m violates the point-dipole regime "
            f"(require a finite distance >= 10*radius = {10 * particle.radius:.3e} m)"
        )


def _integrals(
    items: Sequence[tuple],
    kernel_at: Callable[[np.ndarray], Callable],
    scale: float,
    window: tuple[QuadratureConfig, ParticleSpec, ThermalState],
    memo: tuple | None = None,
    spins: bool = False,
) -> list[IntegrationResult]:
    """scale times the integral, with its diagnostics, for each item, whose
    own checks the caller has run. An item kept under memo + item takes
    the kept value; the others are band-checked on _window(*window) when
    the items are spins, and those that pass share one lockstep integral,
    rows of kernel_at(columns) owned by pending item i reading columns[i].
    With memo their values are kept. The first item that fails, in item
    order, raises the error a lone call raises."""
    results: list = [None if memo is None else _memo.get(memo + item) for item in items]
    pending = [i for i, r in enumerate(results) if r is None]
    if pending:
        q = _window(*window)
        for i in pending:
            # shifted kernel arguments omega -+ spin must stay strictly
            # positive on the grid; half the infrared cutoff leaves a margin
            wide = [abs(s) for s in items[i] if spins and abs(s) > 0.5 * q.omega_min]
            if wide:
                results[i] = ConfigError(
                    f"|spin| = {wide[0]:.3e} exceeds half the infrared cutoff "
                    f"{q.omega_min:.3e}; shifted kernel arguments would cross zero"
                )
        pending = [i for i in pending if results[i] is None]
    if pending:
        columns = np.array([items[i] for i in pending], dtype=float)
        for i, res in zip(pending, integrate_with_diagnostics(kernel_at(columns), q, len(pending))):
            if not isinstance(res, NanospinError):
                res = replace(res, value=scale * res.value, error_estimate=abs(scale) * res.error_estimate)
                if memo is not None:
                    _remember(memo + items[i], res)
            results[i] = res
    for res in results:
        if isinstance(res, NanospinError):
            raise res
    return results


_VACUUM_SCALE = -(CONSTANTS.hbar / (2.0 * np.pi * CONSTANTS.c**2))


def _gap_scale(coupling_scale: float) -> float:
    return coupling_scale * 4.0 * np.pi * CONSTANTS.hbar


def _vacuum_torques(
    spins: Sequence[float],
    particle: ParticleSpec,
    thermal: ThermalState,
    quad: QuadratureConfig,
    allow_small_spins: bool = False,
) -> list[float]:
    """vacuum_torque at each spin, bit for bit; the first spin that fails
    raises the error vacuum_torque raises there. Values come from the
    memo; one lockstep integral covers the spins it lacks, and their
    values are kept."""
    for omega0 in spins:
        if not np.isfinite(omega0):
            raise ConfigError("omega0 must be finite")
        if 0.0 < abs(omega0) < SPIN_DIRECT_FLOOR and not allow_small_spins:
            raise SmallSpinError(
                f"|omega0| = {abs(omega0):.3e} is below the direct-evaluation "
                f"floor {SPIN_DIRECT_FLOOR:.0e}; use gamma_s or pass allow_small_spins=True"
            )
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

    window, memo = (quad, particle, thermal), ("vacuum", particle, thermal, quad)
    return [r.value for r in _integrals([(s,) for s in spins], kernel_at, _VACUUM_SCALE, window, memo, spins=True)]


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
    return _vacuum_torques([omega0], particle, thermal, quad, allow_small_spins)[0]


def _mutual_torques(
    spins: Sequence[tuple[float, float]],
    d: float,
    particle: ParticleSpec,
    T: float,
    quad: QuadratureConfig,
    coupling_scale: float = DEFAULT_COUPLING_SCALE,
    allow_small_spins: bool = False,
) -> list[float]:
    """mutual_torque at each (omega01, omega02), bit for bit; the first
    pair that fails raises the error mutual_torque raises there. One
    lockstep integral for all pairs."""
    for o1, o2 in spins:
        SpinPair(o1, o2)
        check_point_dipole(d, particle)
        if o1 != o2 and not allow_small_spins:
            scales = [abs(x) for x in (o1, o2, o1 - o2) if x != 0.0]
            if min(scales) < SPIN_DIRECT_FLOOR:
                raise SmallSpinError(
                    f"smallest nonzero spin scale {min(scales):.3e} is below the "
                    f"direct-evaluation floor {SPIN_DIRECT_FLOOR:.0e}; use gamma_b "
                    "or pass allow_small_spins=True"
                )

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

    window = (quad, particle, ThermalState(T, T))
    return [r.value for r in _integrals(spins, kernel_at, _gap_scale(coupling_scale), window, spins=True)]


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
    pair = (spins.omega01, spins.omega02)
    return _mutual_torques([pair], d, particle, T, quad, coupling_scale, allow_small_spins)[0]


def _gamma_s_result(particle: ParticleSpec, thermal: ThermalState, quad: QuadratureConfig) -> IntegrationResult:
    """gamma_s with its diagnostics, from the memo when it holds them."""
    T, T0 = thermal.T, thermal.T0

    def kernel(w, owners):
        s = im_polarizability(w, particle)
        ds = d_im_polarizability(w, particle)
        da = d_coth_factor(w, T)
        expanded = s * da
        if T != T0:
            expanded = expanded + ds * (coth_factor(w, T) - coth_factor(w, T0))
        return 2.0 * w * w * im_g_self_transverse_sum(w) * expanded

    memo = ("gamma_s", particle, thermal, quad)
    return _integrals([()], lambda columns: kernel, _VACUUM_SCALE, (quad, particle, thermal), memo)[0]


def gamma_s(particle: ParticleSpec, thermal: ThermalState, quad: QuadratureConfig) -> float:
    """Vacuum drag per unit spin (N*m*s): d(vacuum_torque)/d(omega0) at 0.

    Uses the analytically expanded kernel, so it is exact at arbitrarily
    small spins where direct evaluation cancels away. Independent of d.
    """
    return _gamma_s_result(particle, thermal, quad).value


def _gap_moments(particle: ParticleSpec, T: float, quad: QuadratureConfig) -> list[IntegrationResult]:
    """The gap channel's distance-free moments A, B and C, the integrals
    of 8 k^(-2j) W' s for j = 0, 1, 2, in one lockstep batch, from the
    memo when it holds them; raises the first error."""

    def kernel_at(columns: np.ndarray):
        def kernel(w, owners):
            s = im_polarizability(w, particle)
            ds = d_im_polarizability(w, particle)
            return 8.0 * _d_weight(s, ds, w, T) * s * (CONSTANTS.c / w) ** (2.0 * columns[owners])

        return kernel

    memo = ("gap", particle, T, quad)
    return _integrals([(0.0,), (1.0,), (2.0,)], kernel_at, 1.0, (quad, particle, ThermalState(T, T)), memo)


def _gamma_b_result(
    d: float, particle: ParticleSpec, T: float, quad: QuadratureConfig, coupling_scale: float = DEFAULT_COUPLING_SCALE
) -> IntegrationResult:
    """gamma_b at d as scale*(A/d^2 - B/d^4 + C/d^6), with the error
    estimate |scale|*(e_A/d^2 + e_B/d^4 + e_C/d^6) and the moments'
    summed panels and evaluations. Until the estimate meets
    rel_tol*|gamma_b|, the moments are integrated again at rel_tol/10,
    /100, ...; once it stops falling, at their roundoff floor, the
    smallest estimate is returned."""
    check_point_dipole(d, particle)
    scale, powers = _gap_scale(coupling_scale), (d**-2, -(d**-4), d**-6)
    best, tol = None, quad.rel_tol
    while True:
        moments = _gap_moments(particle, T, replace(quad, rel_tol=tol))
        res = IntegrationResult(
            scale * sum(p * m.value for p, m in zip(powers, moments)),
            abs(scale) * sum(abs(p) * m.error_estimate for p, m in zip(powers, moments)),
            sum(m.panels for m in moments),
            sum(m.evaluations for m in moments),
        )
        if best is not None and res.error_estimate >= best.error_estimate:
            return best
        best = res
        if res.error_estimate <= quad.rel_tol * abs(res.value):
            return res
        tol /= 10.0


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
    return _gamma_b_result(d, particle, T, quad, coupling_scale).value


def gamma_b_sign_edge(particle: ParticleSpec, T: float, quad: QuadratureConfig) -> float | None:
    """The smallest distance (m) at which gamma_b changes sign, the
    smallest positive root of A d^4 - B d^2 + C, or None without one."""
    a, b, c = (m.value for m in _gap_moments(particle, T, quad))
    roots = [x.real for x in np.roots([a, -b, c]) if x.imag == 0.0 and x.real > 0.0]
    return math.sqrt(min(roots)) if roots else None


def _diagnostics(res: IntegrationResult) -> dict:
    return {"error_estimate_Nms": res.error_estimate, "panels": res.panels, "evaluations": res.evaluations}


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
    rs = _gamma_s_result(particle, thermal, quad)
    rb = _gamma_b_result(d, particle, thermal.T, quad, coupling_scale)
    return FrictionCoefficients(gamma_s=rs.value, gamma_b=rb.value), {"gamma_s": _diagnostics(rs), "gamma_b": _diagnostics(rb)}
