"""Rotational dynamics of particle 2 under the two friction channels.

Particle 1 spins at a held-constant omega1; particle 2 starts at rest and
obeys

    I * domega2/dt = M_mutual(omega1, omega2) - M_vacuum(omega2).

In the linearized regime this is I * domega2/dt = gamma_b*(omega1-omega2)
- gamma_s*omega2, a single decaying exponential with time constant
tau = I/(gamma_b+gamma_s) and plateau omega1*gamma_b/(gamma_b+gamma_s).
The synchronization measure is delta = (omega1-omega2)/omega1, with
long-time value delta_inf = gamma_s/(gamma_b+gamma_s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .errors import ConfigError, ConvergenceError
from .material import ParticleSpec
from .torque import FrictionCoefficients, _mutual_torques, _vacuum_torques, friction_coefficients
from .torque import mutual_torque, vacuum_torque  # noqa: F401 -- bench/tracing.py wraps both in nanospin.dynamics

if TYPE_CHECKING:
    from .config import RunConfig

__all__ = [
    "SURROGATE_MAX_DEGREE",
    "Trajectory",
    "chebyshev_interpolant",
    "coefficients_for",
    "moment_of_inertia",
    "delta_measure",
    "delta_infinity",
    "default_time_grid",
    "solve_linear",
    "solve_nonlinear",
    "sync_time",
]

# Highest Chebyshev degree a spin-up series may reach before its fit
# gives up. The drift and each piece of t(s) are numpy Chebyshev series;
# the default materials certify the drift at degree 8, 16 or 32.
SURROGATE_MAX_DEGREE = 64


@dataclass(frozen=True)
class Trajectory:
    """Time series of the follower spin while particle 1 holds omega1.

    delta, the synchronization measure, is derived from omega1 and
    omega2 on each access rather than stored. solver holds the nonlinear
    solver's work counts, plateau and relaxation rate (None for the
    closed form).
    """

    times: np.ndarray
    omega2: np.ndarray
    omega1: float
    solver: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        # float arrays, stored as given when they already are
        t = np.asarray(self.times, dtype=float)
        w2 = np.asarray(self.omega2, dtype=float)
        if t.size == 0:
            raise ConfigError("trajectory must contain at least one sample")
        if w2.ndim != 1 or w2.shape != t.shape:
            raise ConfigError(f"omega2 must be one spin per time: shape {w2.shape} for times {t.shape}")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ConfigError("trajectory times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "omega2", w2)

    @property
    def delta(self) -> np.ndarray:
        """(omega1 - omega2)/omega1 at each sample."""
        return delta_measure(self.omega1, self.omega2)


# np.fft and np.polynomial are looked up at call time: numpy loads each on
# first access, so importing nanospin loads neither
def _lobatto_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the degree-n interpolant through values
    at x_j = cos(pi*j/n), j = 0..n: a type-I discrete cosine transform,
    one real FFT of the even extension."""
    n = len(values) - 1
    coeffs = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / n
    coeffs[[0, -1]] *= 0.5
    return coeffs


def chebyshev_interpolant(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, tol: float
) -> np.polynomial.Chebyshev:
    """Interpolate f on [lo, hi] at Chebyshev-Lobatto nodes, certified
    by coefficient decay, as a numpy Chebyshev series with that domain.

    f maps an array of nodes to the array of its values there; each
    degree calls it once, on the nodes that degree adds. The degree
    starts at 8 and doubles, so every earlier node is reused, until the
    last three coefficients are at most tol in magnitude. A function
    that needs more than SURROGATE_MAX_DEGREE raises ConvergenceError.
    """

    def sample(j: np.ndarray, n: int) -> np.ndarray:
        return np.asarray(f(lo + 0.5 * (hi - lo) * (1.0 + np.cos(np.pi * j / n))), dtype=float)

    n = 8
    values = sample(np.arange(n + 1), n)
    while True:
        coeffs = _lobatto_coefficients(values)
        tail = float(np.max(np.abs(coeffs[-3:])))
        if tail <= tol:
            return np.polynomial.Chebyshev(coeffs, domain=[lo, hi])
        if 2 * n > SURROGATE_MAX_DEGREE:
            raise ConvergenceError(
                f"Chebyshev surrogate on [{lo:.6e}, {hi:.6e}] not certified at degree {n}: "
                f"tail coefficient {tail:.3e} > {tol:.3e}"
            )
        refined = np.empty(2 * n + 1)
        refined[0::2] = values
        refined[1::2] = sample(np.arange(1, 2 * n, 2), 2 * n)
        n, values = 2 * n, refined


def coefficients_for(config: "RunConfig") -> tuple[FrictionCoefficients, dict]:
    """friction_coefficients for the particle, distance, thermal state,
    quadrature and coupling scale of one run configuration."""
    return friction_coefficients(
        config.particle, config.distance, config.thermal, config.quad, coupling_scale=config.coupling_scale
    )


def moment_of_inertia(particle: ParticleSpec) -> float:
    """Solid sphere about its symmetry axis: (2/5) m a^2."""
    mass = particle.mass_density * particle.volume
    return 0.4 * mass * particle.radius**2


def delta_measure(omega1: float, omega2):
    """Synchronization measure (omega1 - omega2)/omega1."""
    if not omega1 > 0.0:
        raise ConfigError("delta_measure requires omega1 > 0")
    w2 = np.asarray(omega2, dtype=float)
    out = (omega1 - w2) / omega1
    return out if out.ndim else float(out)


def delta_infinity(coeffs: FrictionCoefficients) -> float:
    """Long-time plateau gamma_s/(gamma_s + gamma_b); 1.0 if uncoupled."""
    denom = coeffs.gamma_s + coeffs.gamma_b
    if denom == 0.0:
        return 1.0
    return coeffs.gamma_s / denom


def default_time_grid(tau: float, samples: int = 400) -> np.ndarray:
    """t = 0 plus `samples` log-spaced times over [1e-3, 1e3] * tau."""
    if not (tau > 0.0 and np.isfinite(tau)):
        raise ConfigError("default_time_grid requires finite tau > 0")
    if samples < 2:
        raise ConfigError("require samples >= 2")
    return np.concatenate([[0.0], np.geomspace(1e-3 * tau, 1e3 * tau, samples)])


def solve_linear(omega1: float, inertia: float, coeffs: FrictionCoefficients, t_grid) -> Trajectory:
    """Closed-form solution of the linearized follower equation on t_grid."""
    if inertia <= 0.0:
        raise ConfigError("inertia must be > 0")
    if not omega1 > 0.0:
        raise ConfigError("solve_linear requires omega1 > 0")
    t = np.asarray(t_grid, dtype=float)
    denom = coeffs.gamma_s + coeffs.gamma_b
    if denom == 0.0:  # no torque on the follower: it stays at rest
        return Trajectory(times=t, omega2=np.zeros_like(t), omega1=omega1)
    plateau = omega1 * coeffs.gamma_b / denom
    w2 = plateau * -np.expm1(-denom * t / inertia)
    return Trajectory(times=t, omega2=w2, omega1=omega1)


def _newton(g: Callable, dg: Callable, a: float, b: float, x, tol: float) -> np.ndarray:
    """The root in [a, b] of an increasing g, elementwise over x: Newton
    steps from x, bisecting wherever the slope dg is not positive or a
    step would leave the bracket, until every step is at most
    tol*(1 + |x|) (the safeguarded Newton of Numerical Recipes, 9.4)."""
    x = np.asarray(x, dtype=float)
    a, b = np.full_like(x, a), np.full_like(x, b)
    for _ in range(100):
        gx, slope = g(x), dg(x)
        a, b = np.where(gx < 0.0, x, a), np.where(gx > 0.0, x, b)
        with np.errstate(all="ignore"):  # a step off a flat slope is discarded below
            nxt = x - gx / slope
        nxt = np.where((slope > 0.0) & (a <= nxt) & (nxt <= b), nxt, 0.5 * (a + b))
        step, x = np.abs(nxt - x), nxt
        if np.all(step <= tol * (1.0 + np.abs(x))):
            break
    return x


def _certified_pieces(g: Callable, tol: Callable, lo: float, hi: float) -> list[np.polynomial.Chebyshev]:
    """chebyshev_interpolant of g on [lo, hi] to min(tol(lo), tol(hi)),
    bisected until every piece certifies."""
    try:
        return [chebyshev_interpolant(g, lo, hi, min(tol(lo), tol(hi)))]
    except ConvergenceError:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise
        return _certified_pieces(g, tol, lo, mid) + _certified_pieces(g, tol, mid, hi)


def solve_nonlinear(config: "RunConfig", coeffs: FrictionCoefficients | None = None) -> Trajectory:
    """The follower's spin-up on the full torque balance, as a quadrature
    of the drift (README "Library use" derives it).

    config is a nonlinear RunConfig; coeffs, when given, must be
    coefficients_for(config). Returns the Trajectory on
    default_time_grid(I/(gamma_s + gamma_b), config.samples), or at rest
    on [0, 1] when gamma_s + gamma_b = 0. Raises ConfigError when
    gamma_b < 0 (the follower would spin backwards) or omega1 exceeds half
    the infrared cutoff, ConvergenceError when the drift or a time piece
    does not certify or an integral does not converge, and
    TailNotNegligibleError when a torque's tail does not certify.

    Trajectory.solver records surrogate_nodes, the drift's nodes under
    each channel (0 when gamma_s + gamma_b = 0); direct_torque_calls,
    every node of both channels; plateau_rad_per_s; kappa_per_s, the
    relaxation rate there or None; and piece_nodes, each time piece's
    node count. The torque memo and kept first rounds hold values with
    the bits of fresh integrals, so what ran before changes no bit.
    """
    particle = config.particle
    inertia = moment_of_inertia(particle)
    if coeffs is None:
        coeffs, _ = coefficients_for(config)
    denom = coeffs.gamma_s + coeffs.gamma_b
    omega1 = config.omega1
    stats = {"direct_torque_calls": 0, "kappa_per_s": None, "piece_nodes": [], "plateau_rad_per_s": 0.0}
    stats["surrogate_nodes"] = nodes = {"mutual": 0, "vacuum": 0}
    if denom == 0.0:  # no torque on the follower: it stays at rest
        return Trajectory(times=np.array([0.0, 1.0]), omega2=np.zeros(2), omega1=omega1, solver=stats)
    if coeffs.gamma_b < 0.0:
        raise ConfigError(f"solve_nonlinear needs gamma_b >= 0, got {coeffs.gamma_b:.6g} N m s")
    grid = default_time_grid(inertia / denom, config.samples)

    def drift(ws: np.ndarray) -> np.ndarray:
        stats["direct_torque_calls"] += 2 * len(ws)
        pairs = [(omega1, w2) for w2 in ws.tolist()]
        drive = _mutual_torques(pairs, config.distance, particle, config.thermal.T, config.quad, config.coupling_scale)
        drag = _vacuum_torques(ws.tolist(), particle, config.thermal, config.quad)
        return (np.array(drive) - np.array(drag)) / inertia

    fit_tol = config.quad.rel_tol * denom * omega1 / inertia
    f = chebyshev_interpolant(drift, 0.0, omega1, fit_tol)
    nodes["mutual"] = nodes["vacuum"] = len(f.coef)
    df = f.deriv()

    # the plateau star: the first root of f, 0 if the follower cannot start
    w = np.linspace(0.0, omega1, 65)
    v = f(w)
    star, kappa = omega1, None  # f > 0 throughout: the follower reaches omega1
    if not v[0] > 0.0:
        star = 0.0
    elif np.any(v <= 0.0):
        j = int(np.argmax(v <= 0.0))
        star = float(_newton(lambda x: -f(x), lambda x: -df(x), w[j - 1], w[j], w[j], 1e-15))
        slope = float(df(star))
        kappa = -slope if slope < 0.0 else None
    stats["plateau_rad_per_s"], stats["kappa_per_s"] = star, kappa

    # t(s) on [0, s_end] (no piece at star = 0): the integral of c0 + the rest
    spin_tol, c0 = config.quad.rel_tol * omega1, 1.0 / kappa if kappa else 0.0
    u = star * 0.5 ** np.arange(40)
    u = u[u > spin_tol]
    outside = np.flatnonzero(u * np.abs(1.0 - (kappa or 0.0) * u / f(star - u)) > spin_tol)
    j = outside[-1] + 1 if outside.size else 0  # from u[j] on, the tail holds
    s_end = 0.0 if j == 0 else math.log(star / (u[j] if j < u.size else spin_tol))

    def rest(s):
        return star * np.exp(-s) / f(-star * np.expm1(-s)) - c0

    def tol(s):
        return fit_tol * star * math.exp(-s) / f(-star * math.expm1(-s)) ** 2

    times, edges = [], [0.0]  # times[k]: t(s) on piece k, from edges[k] to edges[k + 1]
    for piece in _certified_pieces(rest, tol, 0.0, s_end) if s_end > 0.0 else []:
        lo, hi = piece.domain
        stats["piece_nodes"].append(len(piece.coef))
        times.append((piece + c0).integ(lbnd=lo, k=edges[-1]))
        edges.append(float(times[-1](hi)))
    t_end = edges[-1]

    s = np.empty_like(grid)
    tail = grid >= t_end
    s[tail] = s_end + kappa * (grid[tail] - t_end) if kappa else np.inf
    which = np.searchsorted(edges, grid, side="right") - 1
    for k, time in enumerate(times):
        mine = ~tail & (which == k)
        if mine.any():
            (lo, hi), (t0, t1), targets = time.domain, edges[k : k + 2], grid[mine]
            start = lo + (targets - t0) * ((hi - lo) / (t1 - t0))
            s[mine] = _newton(lambda x: time(x) - targets, time.deriv(), lo, hi, start, 1e-12)
    out = np.stack([grid, s])  # times and spins in one block: a caller keeping many does not fragment its heap
    np.expm1(-out[1], out=out[1])
    out[1] *= -star
    return Trajectory(times=out[0], omega2=out[1], omega1=omega1, solver=stats)


def sync_time(traj: Trajectory, threshold: float = 0.01) -> float | None:
    """First time with delta <= threshold, linearly interpolated between
    the bracketing samples; None if the trajectory never reaches it."""
    if not (0.0 < threshold < 1.0):
        raise ConfigError("threshold must lie in (0, 1)")
    t = traj.times
    delta = traj.delta
    hits = np.nonzero(delta <= threshold)[0]
    if hits.size == 0:
        return None
    i = int(hits[0])
    if i == 0:
        return float(t[0])
    d0, d1 = float(delta[i - 1]), float(delta[i])
    t0, t1 = float(t[i - 1]), float(t[i])
    return t0 + (t1 - t0) * (d0 - threshold) / (d0 - d1)
