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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError, NanospinError
from .material import ParticleSpec
from .torque import (
    FrictionCoefficients,
    SpinPair,
    _mutual_torques,
    _vacuum_torques,
    friction_coefficients,
    mutual_torque,
    sweep_friction_coefficients,
    vacuum_torque,
)

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
    """Time series of the follower spin and the synchronization measure.

    zero_coupling marks the degenerate gamma_b + gamma_s = 0 case where
    the follower never moves and the series is constant. solver holds
    the nonlinear solver's work counts (None for the closed form).
    """

    times: np.ndarray
    omega2: np.ndarray
    delta: np.ndarray
    meta: "RunConfig | None" = None
    zero_coupling: bool = False
    solver: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.size == 0:
            raise ConfigError("trajectory must contain at least one sample")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ConfigError("trajectory times must be strictly increasing")

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

    def __call__(self, w: float) -> float:
        # Clenshaw's recurrence on Python floats, operation for operation
        # the one numpy.polynomial.chebyshev.chebval runs, at a third of
        # its cost on a scalar
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
    quadrature and kernel conventions of one run configuration."""
    return friction_coefficients(
        config.particle,
        config.distance,
        config.thermal,
        config.quad,
        coupling_scale=config.coupling_scale,
        thermal_weight=config.thermal_weight,
        coth_half_argument=config.coth_half_argument,
    )


def sweep_coefficients_for(
    config: "RunConfig", distances: Sequence[float]
) -> list[tuple[FrictionCoefficients, dict] | NanospinError]:
    """sweep_friction_coefficients for one run configuration's particle,
    thermal state, quadrature and kernel conventions at each distance."""
    return sweep_friction_coefficients(
        config.particle,
        distances,
        config.thermal,
        config.quad,
        coupling_scale=config.coupling_scale,
        thermal_weight=config.thermal_weight,
        coth_half_argument=config.coth_half_argument,
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


def solve_linear(
    omega1: float,
    inertia: float,
    coeffs: FrictionCoefficients,
    t_grid,
    meta: "RunConfig | None" = None,
) -> Trajectory:
    """Closed-form solution of the linearized follower equation on t_grid."""
    if inertia <= 0.0:
        raise ConfigError("inertia must be > 0")
    if not omega1 > 0.0:
        raise ConfigError("solve_linear requires omega1 > 0")
    t = np.asarray(t_grid, dtype=float)
    denom = coeffs.gamma_s + coeffs.gamma_b
    if denom == 0.0:
        w2 = np.zeros_like(t)
        return Trajectory(times=t, omega2=w2, delta=delta_measure(omega1, w2), meta=meta, zero_coupling=True)
    plateau = omega1 * coeffs.gamma_b / denom
    w2 = plateau * -np.expm1(-denom * t / inertia)
    return Trajectory(times=t, omega2=w2, delta=delta_measure(omega1, w2), meta=meta)


def _rk4_step(f, t, y, h, k1):
    """One classical RK4 step of size h from (t, y), given k1 = f(t, y)."""
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _values(torques: list[float | NanospinError]) -> np.ndarray:
    """The values of a batch of torques, or the first error among them."""
    for torque in torques:
        if isinstance(torque, NanospinError):
            raise torque
    return np.array(torques)


def solve_nonlinear(config: "RunConfig", coeffs: FrictionCoefficients | None = None) -> Trajectory:
    """Adaptive step-doubling RK4 on the full torque balance.

    Each channel's torque is its linearized form plus a residual,
    R_b(w) = mutual_torque(omega1, w) - gamma_b*(omega1 - w) and
    R_s(w) = vacuum_torque(w) - gamma_s*w. Before stepping, each residual
    becomes a chebyshev_interpolant of direct kernel values, certified to
    quad.rel_tol * (gamma_s + gamma_b) * omega1, on the spins where that
    kernel is used: [F, omega1 - F] for the mutual channel and
    [F, omega1] for the vacuum channel, F = DIRECT_EVAL_FLOOR. All nodes
    a degree adds are integrated in one lockstep call per channel. An
    empty interval builds nothing, so runs with omega1 <= F build no
    interpolant.

    Per stage, a channel whose spin scales sit below F uses its
    linearized coefficient (the two agree to better than the integrator
    tolerance there), else its interpolant, else, for a spin outside the
    interpolant's interval such as the mutual channel at omega2 = 0, the
    direct kernel. The mutual channel's scales are omega1, |omega2| and
    |omega1 - omega2|, zeros excluded, the vacuum channel's is |omega2|.
    So at omega1 = F, where no interpolant exists, the gap torque at
    omega2 = 0 (scale omega1, not below F) is direct, and so is the
    vacuum torque at any stage spin that overshoots F; below F only such
    an overshoot evaluates a direct kernel.

    coeffs, when given, must be coefficients_for(config); a caller that
    already holds them saves the two integrals. Trajectory.solver counts
    the work: surrogate nodes per channel (0 where none was built),
    direct torque calls (nodes included), and accepted and rejected
    steps.
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
        return Trajectory(
            times=t, omega2=w2, delta=delta_measure(omega1, w2), meta=config, zero_coupling=True, solver=stats
        )
    tau = inertia / denom
    grid = default_time_grid(tau, config.samples)

    def drive_direct(w2: float) -> float:
        stats["direct_torque_calls"] += 1
        return mutual_torque(
            SpinPair(omega1, w2),
            config.distance,
            particle,
            config.thermal.T,
            config.quad,
            coupling_scale=config.coupling_scale,
            thermal_weight=config.thermal_weight,
        )

    def drag_direct(w2: float) -> float:
        stats["direct_torque_calls"] += 1
        return vacuum_torque(
            w2,
            particle,
            config.thermal,
            config.quad,
            coth_half_argument=config.coth_half_argument,
        )

    gamma_b, gamma_s = coeffs.gamma_b, coeffs.gamma_s

    def drive_residuals(ws: np.ndarray) -> np.ndarray:
        stats["direct_torque_calls"] += len(ws)
        torques = _mutual_torques(
            [(omega1, w2) for w2 in ws.tolist()],
            config.distance,
            particle,
            config.thermal.T,
            config.quad,
            config.coupling_scale,
            config.thermal_weight,
        )
        return _values(torques) - gamma_b * (omega1 - ws)

    def drag_residuals(ws: np.ndarray) -> np.ndarray:
        stats["direct_torque_calls"] += len(ws)
        torques = _vacuum_torques(
            ws.tolist(), particle, config.thermal, config.quad, coth_half_argument=config.coth_half_argument
        )
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

    def acc(_t: float, w2: float) -> float:
        # per channel: linearized below the floor, else the interpolant
        # on its interval, else the direct kernel (omega1 > 0, so the
        # mutual scale is below the floor iff one nonzero scale is)
        gap = omega1 - w2
        if omega1 < floor or 0.0 < abs(w2) < floor or 0.0 < abs(gap) < floor:
            drive = gamma_b * gap
        elif drive_fit is not None and w2 in drive_fit:
            drive = gamma_b * gap + drive_fit(w2)
        else:
            drive = drive_direct(w2)
        if abs(w2) < floor:
            drag = gamma_s * w2
        elif drag_fit is not None and w2 in drag_fit:
            drag = gamma_s * w2 + drag_fit(w2)
        else:
            drag = drag_direct(w2)
        return (drive - drag) / inertia

    rtol = 1e-6
    tol = rtol * abs(omega1)
    # 2.5*tau keeps h inside the real stability interval of RK4 for the
    # linearized flow, so the approach to the plateau stays monotone.
    h_max = 2.5 * tau
    h_min = 1e-12 * tau

    samples = [0.0]
    t_now, y = 0.0, 0.0
    h = min(1e-3 * tau, h_max)
    for t_target in grid[1:]:
        while t_now < t_target:
            h = min(h, t_target - t_now, h_max)
            if h < h_min:
                raise ConvergenceError(f"step size underflow at t = {t_now:.6e} s (h = {h:.3e})")
            k1 = acc(t_now, y)  # shared by the full step and the first half step
            y_full = _rk4_step(acc, t_now, y, h, k1)
            y_half = _rk4_step(acc, t_now, y, 0.5 * h, k1)
            t_half = t_now + 0.5 * h
            y_two = _rk4_step(acc, t_half, y_half, 0.5 * h, acc(t_half, y_half))
            err = abs(y_two - y_full) / 15.0
            if err <= tol:
                # local extrapolation: fifth-order combination
                y = y_two + (y_two - y_full) / 15.0
                t_now += h
                grow = 2.0 if err == 0.0 else min(2.0, 0.9 * (tol / err) ** 0.2)
                h = min(h_max, h * grow)
                stats["accepted_steps"] += 1
            else:
                h = max(h_min, 0.5 * h)
                stats["rejected_steps"] += 1
        samples.append(y)

    w2 = np.asarray(samples)
    return Trajectory(times=grid, omega2=w2, delta=delta_measure(omega1, w2), meta=config, solver=stats)


def sync_time(traj: Trajectory, threshold: float = 0.01) -> float | None:
    """First time with delta <= threshold, linearly interpolated between
    the bracketing samples; None if the trajectory never reaches it."""
    if not (0.0 < threshold < 1.0):
        raise ConfigError("threshold must lie in (0, 1)")
    t = traj.times
    delta = traj.delta
    if t.size == 0:
        raise ConfigError("empty trajectory")
    hits = np.nonzero(delta <= threshold)[0]
    if hits.size == 0:
        return None
    i = int(hits[0])
    if i == 0:
        return float(t[0])
    d0, d1 = float(delta[i - 1]), float(delta[i])
    t0, t1 = float(t[i - 1]), float(t[i])
    return t0 + (t1 - t0) * (d0 - threshold) / (d0 - d1)
