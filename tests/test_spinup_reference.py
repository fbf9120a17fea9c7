"""The spin-up quadrature against an independent ODE solve of the same model.

solve_nonlinear drives the follower with f = (M - V)/I built from two
certified surrogates, switching form at DIRECT_EVAL_FLOOR and at
omega1 - DIRECT_EVAL_FLOOR. The reference integrates that same piecewise
f with scipy's DOP853 at rtol = 1e-13, restarting at each switch, so the
comparison measures the quadrature alone.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import nanospin.dynamics as dynamics
from nanospin import DIRECT_EVAL_FLOOR, RunConfig, friction_coefficients, moment_of_inertia, solve_nonlinear, sync_time

FLOOR = DIRECT_EVAL_FLOOR


def solve_with_surrogates(config, monkeypatch):
    """The trajectory, its coefficients and the two residual surrogates
    (gap, vacuum) that solve_nonlinear built for it."""
    built = {}
    real = dynamics.chebyshev_interpolant

    def keep(f, lo, hi, tol):
        fit = real(f, lo, hi, tol)
        if lo == FLOOR:  # the residuals; the time pieces live in s, far below the floor
            built["gap" if hi == config.omega1 - FLOOR else "vacuum"] = fit
        return fit

    monkeypatch.setattr(dynamics, "chebyshev_interpolant", keep)
    coeffs, _ = friction_coefficients(config.particle, config.distance, config.thermal, config.quad)
    traj = solve_nonlinear(config, coeffs)
    return traj, coeffs, built["gap"], built["vacuum"]


def dop853_reference(config, coeffs, gap, vacuum, times):
    """omega2 at times from DOP853 on the piecewise drift, restarted at
    each switch so that no step straddles a jump."""
    omega1, inertia = config.omega1, moment_of_inertia(config.particle)
    switches = [FLOOR, omega1 - FLOOR]

    def drift(t, y, piece):
        w = y[0]
        torque = coeffs.gamma_b * (omega1 - w) - coeffs.gamma_s * w
        if piece == 1:
            torque += gap(w)
        if piece >= 1:
            torque -= vacuum(w)
        return [torque / inertia]

    out = np.full_like(times, np.nan)
    t, w, piece = 0.0, 0.0, 0
    while True:
        event = None
        if piece < len(switches):

            def event(t, y, piece, s=switches[piece]):
                return y[0] - s

            event.terminal, event.direction = True, 1.0
        sol = solve_ivp(
            drift, (t, times[-1]), [w], method="DOP853", rtol=1e-13, atol=1e-16 * omega1,
            events=event, dense_output=True, args=(piece,),
        )
        assert sol.success, sol.message
        inside = (times >= t) & (times <= sol.t[-1])
        out[inside] = sol.sol(times[inside])[0]
        if sol.status != 1:
            return out
        t, w, piece = float(sol.t_events[0][0]), switches[piece], piece + 1


@pytest.mark.parametrize("distance", [1e-7, 9.49e-7])
@pytest.mark.parametrize("omega1", [1e11, 1e12])
def test_quadrature_matches_dop853(particle, thermal, quad, monkeypatch, distance, omega1):
    config = RunConfig(particle, thermal, quad, distance=distance, omega1=omega1)
    traj, coeffs, gap, vacuum = solve_with_surrogates(config, monkeypatch)
    reference = dop853_reference(config, coeffs, gap, vacuum, traj.times)
    assert np.max(np.abs(traj.omega2 - reference)) <= 1e-7 * omega1
    assert np.all(np.diff(traj.omega2) >= 0.0)
    assert reference[-1] == pytest.approx(traj.solver["plateau_rad_per_s"], rel=1e-9)


def test_bottleneck_sync_time(particle, thermal, quad):
    # at 100 nm and 2e12 the follower crawls for hundreds of tau just
    # below the switch at omega1 - F; DOP853 on the same model gives
    # 2.4629964478 s (the earlier ETD-RK4 stepper gave 2.465249 s)
    traj = solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=2e12))
    assert sync_time(traj) == pytest.approx(2.4629964478, rel=1e-6)


def test_no_lock_side_completes_monotone(particle, thermal, quad):
    # at 100 nm and 4e12 the plateau lies far below omega1: delta ends
    # near 0.279 and the run never syncs
    traj = solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=4e12))
    assert np.all(np.diff(traj.omega2) >= 0.0)
    assert traj.omega2[-1] == pytest.approx(traj.solver["plateau_rad_per_s"], rel=1e-9)
    assert 0.27 < traj.delta[-1] < 0.29
    assert sync_time(traj) is None
