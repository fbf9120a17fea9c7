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
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError, NanospinError
from .material import ParticleSpec
from .quadrature import _panel_plan
from .torque import (
    FrictionCoefficients,
    _mutual_torques,
    _vacuum_torques,
    friction_coefficients,
    sweep_friction_coefficients,
)
from .torque import mutual_torque, vacuum_torque  # noqa: F401 -- bench/tracing.py wraps both in nanospin.dynamics

if TYPE_CHECKING:
    from .config import RunConfig

__all__ = [
    "DIRECT_EVAL_FLOOR",
    "SURROGATE_MAX_DEGREE",
    "ChebyshevInterpolant",
    "Trajectory",
    "chebyshev_interpolant",
    "coefficients_for",
    "sweep_coefficients_for",
    "moment_of_inertia",
    "delta_measure",
    "delta_infinity",
    "default_time_grid",
    "solve_linear",
    "solve_nonlinear",
    "sync_time",
]

# Smallest spin scale at which the direct kernels still converge at the
# default tolerance: spectral shifts below ~1e8 rad/s move the thermal
# weights by so few ulp that adaptive refinement floors above rel_tol.
# One safety decade on top of the measured boundary.
DIRECT_EVAL_FLOOR = 1e9

# Highest Chebyshev degree a torque surrogate may reach before its build
# gives up; the default materials certify at degree 8 or 16.
SURROGATE_MAX_DEGREE = 64


@dataclass(frozen=True)
class Trajectory:
    """Time series of the follower spin while particle 1 holds omega1.

    delta, the synchronization measure, is derived from omega1 and
    omega2 on each access rather than stored. zero_coupling marks the
    degenerate gamma_b + gamma_s = 0 case where the follower never moves
    and the series is constant. solver holds the nonlinear solver's work
    counts (None for the closed form).
    """

    times: np.ndarray
    omega2: np.ndarray
    omega1: float
    zero_coupling: bool = False
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

    @property
    def samples(self):
        """Iterator of (time, omega2, delta) tuples."""
        return zip(self.times.tolist(), self.omega2.tolist(), self.delta.tolist())


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

    def __contains__(self, w: float) -> bool:
        return self.lo <= w <= self.hi

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


def _lobatto_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the degree-n interpolant through values
    at x_j = cos(pi*j/n), j = 0..n (a type-I discrete cosine transform)."""
    n = len(values) - 1
    jk = np.outer(np.arange(n + 1), np.arange(n + 1)) % (2 * n)  # exact cosine arguments
    halved = np.ones(n + 1)
    halved[[0, -1]] = 0.5
    coeffs = (2.0 / n) * (np.cos(np.pi * jk / n) @ (halved * values))
    coeffs[[0, -1]] *= 0.5
    return coeffs


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


def sweep_coefficients_for(
    config: "RunConfig", distances: Sequence[float]
) -> list[tuple[FrictionCoefficients, dict] | NanospinError]:
    """sweep_friction_coefficients for one run configuration's particle,
    thermal state, quadrature and coupling scale at each distance."""
    return sweep_friction_coefficients(
        config.particle, distances, config.thermal, config.quad, coupling_scale=config.coupling_scale
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
    if denom == 0.0:
        w2 = np.zeros_like(t)
        return Trajectory(times=t, omega2=w2, omega1=omega1, zero_coupling=True)
    plateau = omega1 * coeffs.gamma_b / denom
    w2 = plateau * -np.expm1(-denom * t / inertia)
    return Trajectory(times=t, omega2=w2, omega1=omega1)


# Taylor coefficients 1/16! .. 1/3! of phi_3, highest order first; for
# |z| < 0.5 the first omitted term is below 1e-17 of phi_3
_PHI3_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(16, 2, -1))


def _elementwise(f: Callable[[float], float], x):
    """f at x, a float, or at each element of an array of floats.

    The math module's exp and expm1 are used per element because numpy's
    vectorized forms may round differently, and a sample must get the
    bits one scalar sub-step gives it.
    """
    if isinstance(x, float):
        return f(x)
    return np.array([f(v) for v in x.tolist()])


def _phi(z):
    """phi_1, phi_2 and phi_3 at z, phi_k(z) = sum_j z^j / (j + k)!, for
    z a float or an array of floats.

    Below |z| = 0.5, phi_3 is its Taylor series summed by Horner's rule,
    and phi_2 = 1/2 + z*phi_3, phi_1 = 1 + z*phi_2. Elsewhere the expm1
    forms are used; their cancellation costs at most a few dozen ulp.
    Each element of an array gets the bits a float gets.
    """
    if isinstance(z, float):
        return _phi_taylor(z) if abs(z) < 0.5 else _phi_expm1(z)
    out = np.empty((3, z.size))
    small = np.abs(z) < 0.5
    out[:, small] = _phi_taylor(z[small])
    out[:, ~small] = _phi_expm1(z[~small])
    return out[0], out[1], out[2]


def _phi_taylor(z):
    p3 = 0.0
    for c in _PHI3_TAYLOR:
        p3 = p3 * z + c
    p2 = 0.5 + z * p3
    return 1.0 + z * p2, p2, p3


def _phi_expm1(z):
    em1 = _elementwise(math.expm1, z)
    return em1 / z, (em1 - z) / (z * z), (em1 - z - 0.5 * z * z) / (z * z * z)


def _etd_weights(lam: float, h):
    """Cox-Matthews ETD-RK4 weights for du/dt = -lam*u + N(u) over a step
    h, a float or an array of step sizes.

    With z = -lam*h: e^(z/2), (h/2)*phi_1(z/2), e^z, and h times the stage
    weights phi_1 - 3*phi_2 + 4*phi_3 (first), 2*phi_2 - 4*phi_3 (second
    and third) and 4*phi_3 - phi_2 (fourth).
    """
    z = -lam * h
    p1, p2, p3 = _phi(z)
    return (
        _elementwise(math.exp, 0.5 * z),
        0.5 * h * _phi(0.5 * z)[0],
        _elementwise(math.exp, z),
        h * (p1 - 3.0 * p2 + 4.0 * p3),
        h * (2.0 * p2 - 4.0 * p3),
        h * (4.0 * p3 - p2),
    )


def _etd_rk4_step(n: Callable, u, n0, weights: tuple):
    """One ETD-RK4 step from u, given n0 = n(u) and the step's
    _etd_weights. The linear part is exact; n is sampled at three
    stages. With arrays for u, n0 and the weights it takes one step per
    element, in three calls of n."""
    e_half, a, e, b1, b23, b4 = weights
    ua = e_half * u + a * n0
    na = n(ua)
    ub = e_half * u + a * na
    nb = n(ub)
    uc = e_half * ua + a * (2.0 * nb - n0)
    return e * u + b1 * n0 + b23 * (na + nb) + b4 * n(uc)


def _etd_rk4(
    n: Callable,
    lam: float,
    u: float,
    times: Sequence[float],
    tol: float,
    h: float,
    h_min: float,
    switches: Sequence[tuple[float, float]] = (),
) -> tuple[np.ndarray, int, int]:
    """Adaptive step-doubling ETD-RK4 for du/dt = -lam*u + n(u).

    Starts from u at times[0] with step h and returns u at every time,
    with the accepted and rejected step counts. A step is accepted when
    a fifteenth of the full-step/two-half-step difference is at most
    tol, and then advances to the locally extrapolated value. Step
    doubling cannot see a jump in n, so a step that carries u across a
    switch (u_s, jump), where n jumps by jump, is accepted only if
    h*jump <= tol. A step halved below h_min raises ConvergenceError.

    Steps do not land on the sample times: each time inside an accepted
    step [t, t + h] gets one ETD-RK4 sub-step of size time - t from
    u(t) (dense output). Stepping only records (time - t, u(t), n(u(t)))
    per sample; after the last step every sub-step is taken at once, on
    arrays, so n must accept an array of u as well as a float, and give
    each element the bits it gives that float.
    """
    start = u
    dense = []
    t, i = times[0], 1
    accepted = rejected = 0
    while i < len(times):
        n0 = n(u)  # shared by both step sizes, every attempt and the samples
        while True:
            half = _etd_weights(lam, 0.5 * h)
            y_full = _etd_rk4_step(n, u, n0, _etd_weights(lam, h))
            y_half = _etd_rk4_step(n, u, n0, half)
            y_two = _etd_rk4_step(n, y_half, n(y_half), half)
            err = abs(y_two - y_full) / 15.0
            y = y_two + (y_two - y_full) / 15.0  # local extrapolation: fifth order
            if err <= tol and all(h * jump <= tol or (u < s) == (y < s) for s, jump in switches):
                break
            rejected += 1
            h *= 0.5
            if h < h_min:
                raise ConvergenceError(f"step size underflow at t = {t:.6e} s (h = {h:.3e})")
        while i < len(times) and times[i] <= t + h:
            dense.append((times[i] - t, u, n0))
            i += 1
        t, u = t + h, y
        accepted += 1
        h *= 2.0 if err == 0.0 else min(2.0, 0.9 * (tol / err) ** 0.2)
    dt, u0, n0 = np.array(dense, dtype=float).reshape(-1, 3).T
    samples = _etd_rk4_step(n, u0, n0, _etd_weights(lam, dt))
    return np.concatenate(([start], samples)), accepted, rejected


def _values(torques: list[float | NanospinError]) -> np.ndarray:
    """The values of a batch of torques, or the first error among them."""
    for torque in torques:
        if isinstance(torque, NanospinError):
            raise torque
    return np.array(torques)


def _channel(fit: ChebyshevInterpolant | None, at_rest: float, w):
    """One channel's residual at w, a float or an array of spins: its
    interpolant on its interval, at_rest at w == 0, else zero (the
    linearized form). Each element of an array gets the bits a float
    gets."""
    if isinstance(w, float):
        if fit is not None and w in fit:
            return fit(w)
        return at_rest if w == 0.0 else 0.0
    r = np.where(w == 0.0, at_rest, 0.0)
    if fit is not None:
        inside = (fit.lo <= w) & (w <= fit.hi)
        r[inside] = fit(w[inside])
    return r


def _residual(
    drive_fit: ChebyshevInterpolant | None, drag_fit: ChebyshevInterpolant | None, rest_residual: float, inertia: float
) -> Callable:
    """N(omega2) = (R_b - R_s)/I, on a float or an array of spins, with
    the gap channel's residual at rest (the vacuum channel's is zero)."""

    def residual(w2):
        return (_channel(drive_fit, rest_residual, w2) - _channel(drag_fit, 0.0, w2)) / inertia

    return residual


@_panel_plan()
def solve_nonlinear(config: "RunConfig", coeffs: FrictionCoefficients | None = None) -> Trajectory:
    """Adaptive step-doubling ETD-RK4 on the full torque balance.

    Each channel's torque is its linearized form plus a residual,
    R_b(w) = mutual_torque(omega1, w) - gamma_b*(omega1 - w) and
    R_s(w) = vacuum_torque(w) - gamma_s*w, so with u = omega2 - p the
    follower obeys du/dt = -lam*u + N, lam = (gamma_s + gamma_b)/I,
    p = omega1*gamma_b/(gamma_s + gamma_b) and N = (R_b - R_s)/I. The
    exponential integrator treats -lam*u exactly (Cox & Matthews, J.
    Comput. Phys. 176, 430 (2002)), so the step size follows the
    accuracy of N alone, and samples come from dense output, taken in
    one array pass after the last step.

    Before stepping, each residual becomes a chebyshev_interpolant of
    direct kernel values, certified to
    quad.rel_tol * (gamma_s + gamma_b) * omega1, on its own interval:
    [F, omega1 - F] for the mutual channel and [F, omega1] for the vacuum
    channel, F = DIRECT_EVAL_FLOOR. All nodes a degree adds are
    integrated in one lockstep call per channel. An empty interval builds
    nothing, so runs with omega1 <= F build no interpolant.

    At every stage spin, each channel's residual is its interpolant on
    that interval, else zero: the linearized form, which agrees with the
    kernel to better than the integrator tolerance below F and is what a
    stage spin outside [0, omega1] gets. The one exception is the exact
    gap torque at rest, M(omega1, 0), at omega2 = 0 when omega1 >= F.
    It is integrated with the mutual channel's degree-8 nodes, in the
    same lockstep call, when an interpolant is built (omega1 > 2F), and
    as a batch of one for F <= omega1 <= 2F; either way it is read after
    both node builds, so a failing node of either channel is raised
    first.

    N jumps where a channel switches form, at omega2 = F and
    omega2 = omega1 - F; each jump is measured once per run, from N on
    either side of the switch, and bounds the steps that cross it.

    gamma_s and the vacuum node torques do not depend on the distance,
    and nanospin.torque keeps them for the life of the process: a run
    after one with the same particle, thermal state, quadrature and
    omega1 integrates only gamma_b and the mutual node batch, and
    returns the bits a first run returns.

    The run's integrals share one panel plan (nanospin.quadrature): each
    lockstep call starts from the panels the one before it on the same
    window reached, which saves refinement rounds and changes no bit.

    coeffs, when given, must be coefficients_for(config); a caller that
    already holds them saves the gamma_b integral and, on a first run,
    the gamma_s integral. Trajectory.solver counts the work: surrogate
    nodes per channel (0 where none was built), direct torque calls
    (nodes and the gap torque at rest, whether or not the memo holds a
    node), and accepted and rejected steps.
    """
    particle = config.particle
    inertia = moment_of_inertia(particle)
    if coeffs is None:
        coeffs, _ = coefficients_for(config)
    denom = coeffs.gamma_s + coeffs.gamma_b
    omega1 = config.omega1
    stats = {
        "accepted_steps": 0,
        "direct_torque_calls": 0,
        "rejected_steps": 0,
        "surrogate_nodes": {"mutual": 0, "vacuum": 0},
    }
    if denom == 0.0:
        t = np.array([0.0, 1.0])
        w2 = np.zeros_like(t)
        return Trajectory(times=t, omega2=w2, omega1=omega1, zero_coupling=True, solver=stats)
    tau = inertia / denom
    grid = default_time_grid(tau, config.samples)

    gamma_b, gamma_s = coeffs.gamma_b, coeffs.gamma_s
    rest: float | NanospinError | None = None  # M(omega1, 0), from the first mutual node batch

    def mutual_torques(spins: list[float]) -> list[float | NanospinError]:
        stats["direct_torque_calls"] += len(spins)
        pairs = [(omega1, w2) for w2 in spins]
        return _mutual_torques(pairs, config.distance, particle, config.thermal.T, config.quad, config.coupling_scale)

    def drive_residuals(ws: np.ndarray) -> np.ndarray:
        nonlocal rest
        torques = mutual_torques(ws.tolist() + ([0.0] if rest is None else []))
        if rest is None:
            rest = torques.pop()
        return _values(torques) - gamma_b * (omega1 - ws)

    def drag_residuals(ws: np.ndarray) -> np.ndarray:
        stats["direct_torque_calls"] += len(ws)
        torques = _vacuum_torques(ws.tolist(), particle, config.thermal, config.quad)
        return _values(torques) - gamma_s * ws

    fit_tol = config.quad.rel_tol * denom * omega1
    floor = DIRECT_EVAL_FLOOR
    drive_fit = drag_fit = None
    if omega1 - floor > floor:
        drive_fit = chebyshev_interpolant(drive_residuals, floor, omega1 - floor, fit_tol)
        stats["surrogate_nodes"]["mutual"] = drive_fit.nodes
    if omega1 > floor:
        drag_fit = chebyshev_interpolant(drag_residuals, floor, omega1, fit_tol)
        stats["surrogate_nodes"]["vacuum"] = drag_fit.nodes
    rest_residual = 0.0
    if omega1 >= floor:
        if rest is None:
            (rest,) = mutual_torques([0.0])
        if isinstance(rest, NanospinError):
            raise rest
        rest_residual = float(rest) - gamma_b * omega1

    residual = _residual(drive_fit, drag_fit, rest_residual, inertia)
    lam, plateau = denom / inertia, omega1 * gamma_b / denom
    tol = 1e-6 * abs(omega1)
    switches = [
        (s - plateau, abs(residual(math.nextafter(s, math.inf)) - residual(math.nextafter(s, -math.inf))))
        for s, fit in ((floor, drag_fit), (omega1 - floor, drive_fit))
        if fit is not None
    ]
    u, stats["accepted_steps"], stats["rejected_steps"] = _etd_rk4(
        lambda u: residual(plateau + u), lam, -plateau, grid.tolist(), tol, 1e-3 * tau, 1e-12 * tau, switches
    )
    w2 = plateau + u
    return Trajectory(times=grid, omega2=w2, omega1=omega1, solver=stats)


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
