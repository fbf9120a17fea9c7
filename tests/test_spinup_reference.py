"""The spin-up quadrature against an independent ODE solve of the same model.

solve_nonlinear drives the follower with f = (M - V)/I, one certified
interpolant of the direct torque balance on [0, omega1]. The reference
integrates that same f with scipy's DOP853 at rtol = 1e-13 in one
solve, so the comparison measures the quadrature alone.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import nanospin.dynamics as dynamics
from nanospin import (
    RunConfig,
    SpinPair,
    friction_coefficients,
    mutual_torque,
    solve_nonlinear,
    sync_time,
    vacuum_torque,
)


def solve_with_surrogates(config, monkeypatch):
    """The trajectory and the one drift interpolant that solve_nonlinear
    built for it on [0, omega1]."""
    built = []
    real = dynamics.chebyshev_interpolant

    def keep(f, lo, hi, tol):
        fit = real(f, lo, hi, tol)
        if (lo, hi) == (0.0, config.omega1):  # the drift; the time pieces live in s
            built.append(fit)
        return fit

    monkeypatch.setattr(dynamics, "chebyshev_interpolant", keep)
    traj = solve_nonlinear(config)
    (drift,) = built
    return traj, drift


def dop853_reference(config, drift, times):
    """omega2 at times from one DOP853 solve of the interpolated drift."""

    def rate(t, y):
        return [drift(y[0])]

    sol = solve_ivp(
        rate, (0.0, times[-1]), [0.0], method="DOP853", rtol=1e-13, atol=1e-16 * config.omega1, dense_output=True
    )
    assert sol.success, sol.message
    return sol.sol(times)[0]


@pytest.mark.parametrize("distance", [1e-7, 9.49e-7])
@pytest.mark.parametrize("omega1", [5e8, 1e11, 1e12])
def test_quadrature_matches_dop853(particle, thermal, quad, monkeypatch, distance, omega1):
    config = RunConfig(particle, thermal, quad, distance=distance, omega1=omega1)
    traj, drift = solve_with_surrogates(config, monkeypatch)
    reference = dop853_reference(config, drift, traj.times)
    assert np.max(np.abs(traj.omega2 - reference)) <= 1e-7 * omega1
    assert np.all(np.diff(traj.omega2) >= 0.0)
    assert reference[-1] == pytest.approx(traj.solver["plateau_rad_per_s"], rel=1e-9)


def test_bottleneck_sync_time(particle, thermal, quad):
    # at 100 nm and 2e12 the drive weakens as the follower nears
    # co-rotation, where its slope falls to about 0.0055 gamma_b, so it
    # crawls for hundreds of tau before delta reaches 0.01; one DOP853
    # solve of the same drift gives 2.4630122027 s
    traj = solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=2e12))
    assert sync_time(traj) == pytest.approx(2.4630122027, rel=1e-6)


def test_no_lock_side_completes_monotone(particle, thermal, quad):
    # at 100 nm and 4e12 the plateau lies far below omega1: delta ends
    # near 0.279 and the run never syncs
    traj = solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=4e12))
    assert np.all(np.diff(traj.omega2) >= 0.0)
    assert traj.omega2[-1] == pytest.approx(traj.solver["plateau_rad_per_s"], rel=1e-9)
    assert 0.27 < traj.delta[-1] < 0.29
    assert sync_time(traj) is None


@pytest.mark.parametrize("omega1", [1e12, 2e12])
def test_plateau_balances_the_direct_torques(particle, thermal, quad, omega1):
    # at the reported plateau the direct drive and drag cancel to the
    # surrogates' certificate; a drive of gamma_b * gap near co-rotation
    # misses this by some forty times the bound
    config = RunConfig(particle, thermal, quad, distance=1e-7, omega1=omega1)
    coeffs, _ = friction_coefficients(particle, 1e-7, thermal, quad)
    star = solve_nonlinear(config, coeffs).solver["plateau_rad_per_s"]
    net = mutual_torque(SpinPair(omega1, star), 1e-7, particle, thermal.T, quad) - vacuum_torque(star, particle, thermal, quad)
    assert abs(net) <= quad.rel_tol * (coeffs.gamma_s + coeffs.gamma_b) * omega1
