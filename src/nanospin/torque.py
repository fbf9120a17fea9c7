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
take where k_B T underflows, so no function refuses it, and only
_occupation_step gives inf a branch of its own.

Both integrands live on [omega_min, omega_max] (see quadrature module for
the infrared cutoff rationale). Each torque is its spin scale times a
divided difference: vacuum_torque(spin) = spin * P(|spin|) and
mutual_torque = (omega01 - omega02) * Q, every difference across the
spins factored by hand before it is evaluated (_lorentzian_dd,
_occupation_dd), so no kernel subtracts two nearly equal spectra and
every spin with |spin| < omega_min/2 is evaluated directly, 0 included.
gamma_s is P(0), and the gap moments integrate Q's kernel at zero spins.

The two torques, gamma_s and the gap moments run as batches through one
pipeline, a lone call being a batch of one: a batch checks its items in
order and raises at the first that fails, the items not kept share one
lockstep integral, each with the bits it has alone, each result is
scaled once, and the first item that fails raises its error. Every
integral starts from panel edges at both resonances, at k_B T / hbar for
each temperature, and graded around the model's peak (lorentzian), one
edge per octave of the damping on each side (QUADPACK's points, Piessens
et al., 1983): a first mesh that resolves the peak before any split.

The mutual channel carries an overall coupling_scale multiplier, a
calibration constant: DEFAULT_COUPLING_SCALE pins the 100 nm default
run to a 0.030 s synchronization time.

P at each |spin| (gamma_s at 0) and the gap moments do not
depend on the distance, so they are kept for the life of the process in
one memo keyed on every input of the integral but coupling_scale, which
scales after; checks run before the memo is read, so a kept value never
spares a call its error. A kept value is an immutable IntegrationResult
with the bits a fresh integral returns. Errors are not kept, nothing
that depends on the distance is kept, and the memo holds at most
MEMO_ENTRIES values, dropping the oldest first.

The gap kernel is one factor free of the distance, _gap_spectra at the
batch's spin pairs, times 2|g_t|^2 = 2(1/d^2 - 1/(k^2 d^4) +
1/(k^4 d^6)) as its last operation, so gamma_b(d) is scale*(A/d^2 -
B/d^4 + C/d^6): the moments are the factor at zero spins times
2 (c/omega)^(2j), tightened at each distance until its own value
certifies. Next to the memo each gap node batch keeps its factor's first
round, keyed on the particle, T, the resolved window and the batch's
spins, for at most _FIRST_ROUNDS batches, dropping the oldest first; a
later distance multiplies it by its own 2|g_t|^2 for the bits the kernel
returns. clear_memo empties both.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NanospinError, PoleError
from .greens import _abs2_transverse, im_g_self_transverse_sum
from .greens import abs2_transverse_sum  # noqa: F401 -- bench/tracing.py wraps nanospin.torque.abs2_transverse_sum
from .material import CONSTANTS, ParticleSpec, im_polarizability, lorentzian
from .material import d_im_polarizability  # noqa: F401 -- bench/tracing.py wraps nanospin.torque.d_im_polarizability
from .quadrature import IntegrationResult, QuadratureConfig, integrate_with_diagnostics, resolved
from .quadrature import _first_mesh, _nodes
from .quadrature import integrate  # noqa: F401 -- bench/tracing.py wraps nanospin.torque.integrate

__all__ = [
    "ThermalState",
    "SpinPair",
    "FrictionCoefficients",
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

# Mutual-channel magnitude calibration; see module docstring.
DEFAULT_COUPLING_SCALE = 3.81e22

# Bound of the memo: at most 65 node torques and one gamma_s per omega1
# and setting, and three gap moments per setting and tolerance
MEMO_ENTRIES = 4096

# Bound of _first_rounds, in gap node batches: a spin-up at one omega1
# keeps one to four
_FIRST_ROUNDS = 32

_memo: dict[tuple, IntegrationResult] = {}
_first_rounds: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_memo_lock = threading.Lock()


def _keep(store: dict, bound: int, key: tuple, value) -> None:
    """store[key] = value, the oldest entries dropped to keep at most
    bound; store is _memo or _first_rounds."""
    with _memo_lock:
        while key not in store and len(store) >= bound:
            del store[next(iter(store))]  # the oldest entry
        store[key] = value


def clear_memo() -> None:
    """Forget every kept gamma_s, gap moment, vacuum torque and gap node
    batch's first round, so the next integrals run as in a fresh
    process."""
    with _memo_lock:
        _memo.clear()
        _first_rounds.clear()


@dataclass(frozen=True)
class ThermalState:
    """Particle temperature T and environment temperature T0, kelvin."""

    T: float = 300.0
    T0: float = 300.0

    def __post_init__(self) -> None:
        if self.T < 0.0 or self.T0 < 0.0:
            raise ConfigError("temperatures must be >= 0")
        if not (math.isfinite(self.T) and math.isfinite(self.T0)):
            raise ConfigError("temperatures must be finite")


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
    # takes its zero-temperature limit through this inf.
    kT = CONSTANTS.k_B * T
    return CONSTANTS.hbar / kT if kT > 0.0 else math.inf


def coth_factor(omega, T: float):
    """coth(hbar*omega/k_B T) = 1 + 2 n(2 omega), the vacuum channel's
    thermal weight, read from occupation: T = 0 gives sign(omega), and
    omega = 0 raises occupation's PoleError."""
    return 1.0 + 2.0 * occupation(2.0 * np.asarray(omega, dtype=float), T)


def d_coth_factor(omega, T: float):  # no kernel uses it; bench/workloads.py's scipy oracle does
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
    out = _occupation(w, _beta_scale(T))
    return out if out.ndim else float(out)


def _occupation(w: np.ndarray, b: float) -> np.ndarray:
    """occupation at frequencies w > 0, given b = _beta_scale(T), with no
    pole check: the kernels' shifted frequencies are positive by the band
    check."""
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(b * w)


def d_occupation(omega, T: float):  # no kernel uses it; bench/workloads.py's scipy oracle does
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


def _lorentzian_dd(x, y, sx, sy, h2, particle: ParticleSpec):
    """s[x, y] = (s(x) - s(y))/(x - y) for s = im_polarizability, given
    sx = s(x), sy = s(y) and h2 = (x - y)^2; s'(x) at h2 = 0. The
    Lorentzian's closed form S gamma [omega0^4 + xy(2 omega0^2 - gamma^2
    - x^2 - xy - y^2)]/(D(x) D(y)), its bracket written as (omega0^2 -
    xy)(omega0^2 + 3xy) - xy(h2 + gamma^2), and S gamma/D(x) as s(x)/x:
    nothing is differenced across x - y, and omega0^2 - xy rounds as
    d_im_polarizability's omega0^2 - x^2 does."""
    strength, omega0 = lorentzian(particle)
    sg, w2, g2 = strength * particle.dielectric.gamma, omega0 * omega0, particle.dielectric.gamma ** 2
    xy = x * y  # ((omega0^2/xy + 3)(omega0^2 - xy) - h2 - gamma^2) s(x) s(y)/(S gamma)
    return ((w2 / sg / xy + 3.0 / sg) * (w2 - xy) - (h2 + g2) / sg) * sx * sy


def _occupation_step(b: float, h: float) -> float:
    """expm1(-b h)/h for h = |x - y| >= 0 and b = hbar/k_B T: the factor
    of n[x, y] that depends on h alone, one number per kernel row, with
    its limit -b at h = 0. At b = inf, where n vanishes at positive
    frequencies, it is -1/h, and -1 at h = 0: a finite stand-in for -inf,
    so that n[x, y] comes out 0 rather than 0 * inf."""
    if b == math.inf:
        return -1.0 / h if h > 0.0 else -1.0
    t = b * h
    return -b if t == 0.0 else b * (math.expm1(-t) / t)


def _occupation_dd(n_lo, n_hi, step):
    """n[x, y] = (n(x) - n(y))/(x - y) = -n(x)(1 + n(y)) expm1(b(x - y))/(x - y)
    for n = occupation at positive x and y, given n_lo and n_hi, n at the
    smaller and the larger of them, and step = _occupation_step(b, |x - y|):
    n_lo (1 + n_hi) step, written around the smaller argument so that no
    factor overflows."""
    return n_lo * (1.0 + n_hi) * step


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
    skip: Callable[[tuple], bool] | None = None,
    first_round: Callable[[QuadratureConfig, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
) -> list[IntegrationResult | None]:
    """scale times the integral, with its diagnostics, for each item, whose
    own checks the caller has run. An item kept under memo + item takes
    the kept value; the others are band-checked on _window(*window) when
    the items are spins, and those that pass share one lockstep integral,
    rows of kernel_at(columns) owned by pending item i reading columns[i],
    its first round and tails the pair first_round(q, columns) when given,
    q the resolved window. An item for which skip(item) holds is checked but
    not integrated, and its result is None. With memo the values are
    kept. The first item that fails, in item order, raises the error a
    lone call raises."""
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
        pending = [i for i in pending if results[i] is None and not (skip and skip(items[i]))]
    if pending:
        columns = np.array([items[i] for i in pending], dtype=float)
        first = first_round(q, columns) if first_round else None
        for i, res in zip(pending, integrate_with_diagnostics(kernel_at(columns), q, len(pending), first=first)):
            if not isinstance(res, NanospinError):
                res = replace(res, value=scale * res.value, error_estimate=abs(scale) * res.error_estimate)
                if memo is not None:
                    _keep(_memo, MEMO_ENTRIES, memo + items[i], res)
            results[i] = res
    for res in results:
        if isinstance(res, NanospinError):
            raise res
    return results


_VACUUM_SCALE = -(CONSTANTS.hbar / (2.0 * np.pi * CONSTANTS.c**2))


def _gap_scale(coupling_scale: float) -> float:
    return coupling_scale * 4.0 * np.pi * CONSTANTS.hbar


def _vacuum_slopes(
    spins: Sequence[float], particle: ParticleSpec, thermal: ThermalState, quad: QuadratureConfig
) -> list[IntegrationResult]:
    """P(|spin|) = vacuum_torque(spin)/spin, with its diagnostics, at each
    spin, P(0) = gamma_s; the first spin that fails raises the error
    vacuum_torque raises there. Values come from the memo, keyed on
    |spin|; one lockstep integral covers the spins it lacks, and their
    values are kept.

    With x, y = omega -+ |spin|, P is the integral of 2K (s[x, y]
    2(n_T(2x) - n_T0(2 omega)) + s(y) c_T[x, y]), K = omega^2 Im g_self,
    c_T[x, y] = 4 n_T[2x, 2y]. The batch's shifts and the per-row factor
    of n_T[2x, 2y] form one table each, and each kernel evaluation adds
    its rows' shifts to w in one C-ordered array (y, x), so it makes one
    im_polarizability call and one occupation(., T) call for both."""
    for omega0 in spins:
        if not np.isfinite(omega0):
            raise ConfigError("omega0 must be finite")
    b, b0 = _beta_scale(thermal.T), _beta_scale(thermal.T0)

    def kernel_at(columns: np.ndarray):
        spin = columns[:, 0]
        shifts, h2 = np.stack((-spin, spin)), 4.0 * spin * spin
        # c_T[x, y]/2 = 2 n_T[2x, 2y], and 2x - 2y = 4 |spin|
        steps = np.array([2.0 * _occupation_step(b, 4.0 * o) for o in spin.tolist()])

        def kernel(w, owners):
            z = np.add(w, shifts[:, owners, None], order="C")  # (2, rows, points): y, x
            s, n = im_polarizability(z, particle), _occupation(2.0 * z, b)
            sdd = _lorentzian_dd(z[1], z[0], s[1], s[0], h2[owners, None], particle)
            half_c = _occupation_dd(n[0], n[1], steps[owners, None])
            return 4.0 * w * w * im_g_self_transverse_sum(w) * (sdd * (n[1] - _occupation(2.0 * w, b0)) + s[0] * half_c)

        return kernel

    window, memo = (quad, particle, thermal), ("vacuum", particle, thermal, quad)
    return _integrals([(abs(s),) for s in spins], kernel_at, _VACUUM_SCALE, window, memo, spins=True)


def _vacuum_torques(
    spins: Sequence[float], particle: ParticleSpec, thermal: ThermalState, quad: QuadratureConfig
) -> list[float]:
    """vacuum_torque at each spin, bit for bit: spin * P(|spin|) from
    _vacuum_slopes, whose first failing spin raises."""
    return [omega0 * res.value for omega0, res in zip(spins, _vacuum_slopes(spins, particle, thermal, quad))]


def vacuum_torque(omega0: float, particle: ParticleSpec, thermal: ThermalState, quad: QuadratureConfig) -> float:
    """Drag torque (N*m) on a particle spinning at omega0 in the vacuum.

    Positive return value opposes the rotation; exactly odd in omega0 and
    exactly zero at omega0 = 0. Evaluated directly at every spin with
    |omega0| < omega_min/2: omega0 times P(|omega0|), whose value at 0 is
    gamma_s.
    """
    return _vacuum_torques([omega0], particle, thermal, quad)[0]


def _gap_spectra(columns: np.ndarray, particle: ParticleSpec, b: float) -> Callable:
    """spectra(w, owners), the gap kernel's factor free of the distance
    at the spin pairs columns[owners] and b = hbar/k_B T: times 2|g_t|^2
    it is the integrand of Q, and at zero spins it is 4 s W[omega, omega].
    Q takes the larger spin as o1, so exchanging the spins changes no bit
    of it: Q = u(o2) v[o1, o2] - v(o2) u[o1, o2], u(o) = W(omega - o) -
    W(omega + o), v(o) = s(omega + o) + s(omega - o), W = s (n + 1/2) and
    [., .] their divided differences in o, built from W[x, y] = s[x, y]
    (n(x) + 1/2) + s(y) n[x, y] on the pairs (omega + o1, omega + o2) and
    (omega - o2, omega - o1), larger argument first. Each call adds its
    rows' shifts, from one table, to w in one C-ordered array of the four
    shifted spectra, so it makes one im_polarizability call and one
    occupation call for all four."""
    hi, lo = columns.max(axis=1), columns.min(axis=1)
    # omega + lo, omega - hi, omega + hi, omega - lo: the smaller arguments, then the larger
    shifts, h = np.stack((lo, -hi, hi, -lo)), hi - lo
    h2, steps = h * h, np.array([_occupation_step(b, x) for x in h.tolist()])

    def spectra(w, owners):
        z = np.add(w, shifts[:, owners, None], order="C")  # (4, rows, points)
        s, n = im_polarizability(z, particle), _occupation(z, b)
        sdd = _lorentzian_dd(z[2:], z[:2], s[2:], s[:2], h2[owners, None], particle)
        half = n + 0.5
        # W[x, y] = s[x, y] (n(x) + 1/2) + s(y) n[x, y]
        wdd = _occupation_dd(n[:2], n[2:], steps[owners, None]) * s[:2] + sdd * half[2:]
        # u(o2) v[o1, o2] - v(o2) u[o1, o2]
        return (s[3] * half[3] - s[0] * half[0]) * (sdd[0] - sdd[1]) + (s[0] + s[3]) * (wdd[0] + wdd[1])

    return spectra


def _mutual_torques(
    spins: Sequence[tuple[float, float]],
    d: float,
    particle: ParticleSpec,
    T: float,
    quad: QuadratureConfig,
    coupling_scale: float = DEFAULT_COUPLING_SCALE,
) -> list[float]:
    """mutual_torque at each (omega01, omega02), bit for bit, from one
    lockstep integral of Q for all pairs, its kernel _gap_spectra times
    2|g_t|^2 and its first round and tails the factor kept in
    _first_rounds times 2|g_t|^2; the first pair that fails raises the
    error mutual_torque raises there. Equal spins are checked but not
    integrated: their torque is 0.0."""
    for o1, o2 in spins:
        SpinPair(o1, o2)
        check_point_dipole(d, particle)
    b = _beta_scale(T)

    def kernel_at(columns: np.ndarray):
        spectra = _gap_spectra(columns, particle, b)

        return lambda w, owners: spectra(w, owners) * _abs2_transverse(w / CONSTANTS.c, d)

    def first_round(q: QuadratureConfig, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, key = len(columns), (particle, T, q, tuple(map(tuple, columns.tolist())))
        kept = _first_rounds.get(key)
        if kept is None:  # the factor's first round
            owners, lo, hi = _first_mesh(q, n)
            w, spectra = _nodes(lo, hi), _gap_spectra(columns, particle, b)
            rows, tails = spectra(w, owners), spectra(np.full((n, 1), q.omega_max), np.arange(n))
            kept = rows.reshape(n, -1, 15), tails.reshape(-1), np.append(w[: len(w) // n], q.omega_max) / CONSTANTS.c
            for array in kept:
                array.flags.writeable = False
            _keep(_first_rounds, _FIRST_ROUNDS, key, kept)
        spectra, tails, k = kept
        g = _abs2_transverse(k, d)  # on one integrand's first mesh, then at omega_max
        return (spectra * g[:-1].reshape(-1, 15)).reshape(-1, 15), tails * g[-1]

    window = (quad, particle, ThermalState(T, T))
    results = _integrals(
        spins, kernel_at, _gap_scale(coupling_scale), window, spins=True,
        skip=lambda pair: pair[0] == pair[1], first_round=first_round,
    )
    return [0.0 if res is None else (o1 - o2) * res.value for (o1, o2), res in zip(spins, results)]


def mutual_torque(
    spins: SpinPair,
    d: float,
    particle: ParticleSpec,
    T: float,
    quad: QuadratureConfig,
    *,
    coupling_scale: float = DEFAULT_COUPLING_SCALE,
) -> float:
    """Torque (N*m) on particle 2 mediated by the gap field.

    Positive value drives particle 2 toward particle 1's spin. Exactly
    antisymmetric under spin exchange, 0.0 at equal spins with no
    integral, and evaluated directly at every pair of spins with
    |spin| < omega_min/2.
    """
    pair = (spins.omega01, spins.omega02)
    return _mutual_torques([pair], d, particle, T, quad, coupling_scale)[0]


def _gamma_s_result(particle: ParticleSpec, thermal: ThermalState, quad: QuadratureConfig) -> IntegrationResult:
    """gamma_s with its diagnostics: P(0), the vacuum memo entry at spin 0."""
    return _vacuum_slopes([0.0], particle, thermal, quad)[0]


def gamma_s(particle: ParticleSpec, thermal: ThermalState, quad: QuadratureConfig) -> float:
    """Vacuum drag per unit spin (N*m*s): d(vacuum_torque)/d(omega0) at 0,
    the vacuum kernel's divided difference at zero spin. Independent of d.
    """
    return _gamma_s_result(particle, thermal, quad).value


def _gap_moments(particle: ParticleSpec, T: float, quad: QuadratureConfig) -> list[IntegrationResult]:
    """The gap channel's distance-free moments A, B and C, the integrals
    of 8 s W[omega, omega] (c/omega)^(2j) for j = 0, 1, 2, in one lockstep
    batch, from the memo when it holds them; raises the first error.
    Bit for bit _gap_spectra at zero spins times 2 (c/omega)^(2j)."""
    b = _beta_scale(T)
    step = _occupation_step(b, 0.0)

    def kernel_at(columns: np.ndarray):
        def kernel(w, owners):
            s, n = im_polarizability(w, particle), _occupation(w, b)
            dw = _lorentzian_dd(w, w, s, s, 0.0, particle) * (n + 0.5) + s * _occupation_dd(n, n, step)
            return 8.0 * dw * s * (CONSTANTS.c / w) ** (2.0 * columns[owners])

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
