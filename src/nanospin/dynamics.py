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
    "ChebyshevInterpolant",
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

# Highest Chebyshev degree the spin-up drift may reach before its fit
# gives up; the default materials certify at degree 8, 16 or 32.
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


@dataclass(frozen=True)
class ChebyshevInterpolant:
    """Polynomial on [lo, hi] given by its Chebyshev coefficients (at
    least three)."""

    lo: float
    hi: float
    coeffs: tuple[float, ...]

    @property
    def nodes(self) -> int:
        """Chebyshev-Lobatto nodes the interpolant was built from."""
        return len(self.coeffs)

    def __call__(self, w):
        """The polynomial at w, a float or an array of spins.

        Clenshaw's recurrence, operation for operation the one
        numpy.polynomial.chebyshev.chebval runs: each element of an array
        gets the bits a float gets, and a float costs a third of chebval.
        """
        x = (2.0 * w - (self.lo + self.hi)) / (self.hi - self.lo)
        x2 = 2.0 * x
        c = self.coeffs
        c0, c1 = c[-2], c[-1]
        for ci in c[-3::-1]:
            c0, c1 = ci - c1, c0 + c1 * x2
        return c0 + c1 * x


# the type-I DCT matrix cos(pi*j*k/n) of each degree n a fit has reached,
# read-only; degrees double from 8 to SURROGATE_MAX_DEGREE, so at most four
_dct_matrices: dict[int, np.ndarray] = {}


def _dct_matrix(n: int) -> np.ndarray:
    """cos(pi*j*k/n), j, k = 0..n, built once per degree."""
    matrix = _dct_matrices.get(n)
    if matrix is None:
        jk = np.outer(np.arange(n + 1), np.arange(n + 1)) % (2 * n)  # exact cosine arguments
        matrix = np.cos(np.pi * jk / n)
        matrix.flags.writeable = False
        matrix = _dct_matrices.setdefault(n, matrix)  # a racing thread keeps the first
    return matrix


def _lobatto_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the degree-n interpolant through values
    at x_j = cos(pi*j/n), j = 0..n (a type-I discrete cosine transform)."""
    n = len(values) - 1
    halved = np.ones(n + 1)
    halved[[0, -1]] = 0.5
    coeffs = (2.0 / n) * (_dct_matrix(n) @ (halved * values))
    coeffs[[0, -1]] *= 0.5
    return coeffs


def _antiderivative(fit: ChebyshevInterpolant) -> ChebyshevInterpolant:
    """The integral of fit from fit.lo, exact, one degree higher: T_k
    integrates to T_(k+1)/(2(k+1)) - T_(k-1)/(2(k-1)), and T_0 to T_1."""
    c = np.concatenate([fit.coeffs, [0.0, 0.0]])
    c[0] *= 2.0
    k = np.arange(1, len(c) - 1)
    b = np.empty(len(c) - 1)
    b[1:] = 0.25 * (fit.hi - fit.lo) * (c[:-2] - c[2:]) / k
    b[0] = -np.dot(b[1:], (-1.0) ** k)  # zero at lo, where T_k = (-1)^k
    return ChebyshevInterpolant(fit.lo, fit.hi, tuple(b.tolist()))


def _derivative(fit: ChebyshevInterpolant) -> ChebyshevInterpolant:
    """The derivative of fit, exact, one degree lower (at least three
    coefficients, so fit needs four)."""
    c = fit.coeffs
    d = [0.0] * (len(c) + 1)
    for k in range(len(c) - 1, 0, -1):
        d[k - 1] = d[k + 1] + 2.0 * k * c[k]
    d[0] *= 0.5
    scale = 2.0 / (fit.hi - fit.lo)
    return ChebyshevInterpolant(fit.lo, fit.hi, tuple(scale * x for x in d[: len(c) - 1]))


def chebyshev_interpolant(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, tol: float
) -> ChebyshevInterpolant:
    """Interpolate f on [lo, hi] at Chebyshev-Lobatto nodes, certified
    by coefficient decay.

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
            return ChebyshevInterpolant(lo, hi, tuple(coeffs.tolist()))
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


def _certified_pieces(g: Callable, tol: Callable, lo: float, hi: float) -> list[ChebyshevInterpolant]:
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
    """The follower's spin-up on the full torque balance, as a quadrature.

    The follower obeys domega2/dt = f(omega2), the drift
    f(w) = (mutual_torque(omega1, w) - vacuum_torque(w))/I, one
    chebyshev_interpolant of direct kernel values on [0, omega1]
    certified to fit_tol = quad.rel_tol * (gamma_s + gamma_b) * omega1/I.
    Each degree integrates its new nodes' gap torques in one
    lockstep call, then their vacuum torques in another. The nodes
    include both ends: the vacuum torque at 0 is 0 times the memo's
    P(0), and the gap torque at omega1 is 0.0 with no integral.

    The follower stops at the plateau omega*, the first root of f, with
    kappa = -f'(omega*), or kappa None where f'(omega*) >= 0 or f > 0 on
    all of [0, omega1] (omega* = omega1); where f(0) <= 0 it stays at
    rest (omega* = 0, kappa None). The equation separates: with
    u = omega* - omega2 and s = -ln(u/omega*), dt/ds = u/f. Its plateau
    value 1/kappa integrates in closed form; the rest is a
    chebyshev_interpolant in s on [0, s_end], certified to the error
    that a drift error of fit_tol puts into u/f, bisected until it
    certifies, and integrated exactly. The table ends where
    u*|1 - kappa*u/f| <= rel_tol*omega1; past it
    omega2 = omega* - u_end*exp(-kappa*(t - t_end)), or omega* when
    kappa is None. Newton steps invert every sample time at once.

    nanospin.torque keeps gamma_s, the gap moments, the vacuum node
    torques and the mutual node batches' first rounds free of the
    distance, so a later run at another distance integrates only the
    mutual nodes' later rounds, for the bits a first run returns.

    coeffs, when given, must be coefficients_for(config). gamma_b < 0
    raises ConfigError: the follower would spin backwards, outside the
    drift's interval. Trajectory.solver records the drift's nodes under
    each channel, where both torques were evaluated (0 when
    gamma_s + gamma_b = 0), the direct torque calls (every node of both
    channels), the plateau, kappa and each time piece's nodes.
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
    nodes["mutual"] = nodes["vacuum"] = f.nodes
    df = _derivative(f)

    # the plateau star: the first root of f, 0 if the follower cannot start
    w = np.linspace(0.0, omega1, 65)
    v = f(w)
    star, kappa = omega1, None  # f > 0 throughout: the follower reaches omega1
    if not v[0] > 0.0:
        star = 0.0
    elif np.any(v <= 0.0):
        j = int(np.argmax(v <= 0.0))
        star = float(_newton(lambda x: -f(x), lambda x: -df(x), w[j - 1], w[j], w[j], 1e-15))
        kappa = -df(star) if df(star) < 0.0 else None
    stats["plateau_rad_per_s"], stats["kappa_per_s"] = star, kappa

    # t(s) table on [0, s_end] (empty at star = 0): t0 + c0*(s - lo) + the integral of the rest
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

    table, t_end = [], 0.0  # table: (t0, interpolant of dt/ds - c0, its antiderivative)
    for piece in _certified_pieces(rest, tol, 0.0, s_end) if s_end > 0.0 else []:
        integral = _antiderivative(piece)
        table.append((t_end, piece, integral))
        t_end += c0 * (piece.hi - piece.lo) + (integral(piece.hi) - integral(piece.lo))
    stats["piece_nodes"] = [piece.nodes for _, piece, _ in table]

    s = np.empty_like(grid)
    tail = grid >= t_end
    s[tail] = s_end + kappa * (grid[tail] - t_end) if kappa else np.inf
    which = np.searchsorted([t0 for t0, _, _ in table], grid, side="right") - 1
    for k, (t0, piece, integral) in enumerate(table):
        mine = ~tail & (which == k)
        if mine.any():
            lo, hi, targets = piece.lo, piece.hi, grid[mine]

            def time(x):  # t at x on this piece: t0 + c0*(x - lo) + the integral of piece
                return t0 + c0 * (x - lo) + (integral(x) - integral(lo))

            start = lo + (targets - t0) * ((hi - lo) / (time(hi) - t0))
            s[mine] = _newton(lambda x: time(x) - targets, lambda x: c0 + piece(x), lo, hi, start, 1e-12)
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
