"""The batched dense output against the loop it replaced: one scalar
ETD-RK4 sub-step per sample, taken as soon as its step is accepted.
The batched pass takes every sub-step after the last step, on arrays,
with the same operations in the same order, so trajectories, sample
times and solver counts must stay the same, bit for bit."""

import math

import numpy as np
import pytest

from nanospin import DIRECT_EVAL_FLOOR, ConvergenceError, RunConfig, solve_nonlinear
from nanospin import dynamics
from nanospin.dynamics import _etd_rk4_step, _etd_weights, coefficients_for


def oracle_etd_rk4(n, lam, u, times, tol, h, h_min, switches=()):
    """_etd_rk4 with each sample's sub-step taken on floats, inside the
    step loop."""
    out = [u]
    t, i = times[0], 1
    accepted = rejected = 0
    while i < len(times):
        n0 = n(u)
        while True:
            half = _etd_weights(lam, 0.5 * h)
            y_full = _etd_rk4_step(n, u, n0, _etd_weights(lam, h))
            y_half = _etd_rk4_step(n, u, n0, half)
            y_two = _etd_rk4_step(n, y_half, n(y_half), half)
            err = abs(y_two - y_full) / 15.0
            y = y_two + (y_two - y_full) / 15.0
            if err <= tol and all(h * jump <= tol or (u < s) == (y < s) for s, jump in switches):
                break
            rejected += 1
            h *= 0.5
            if h < h_min:
                raise ConvergenceError(f"step size underflow at t = {t:.6e} s (h = {h:.3e})")
        while i < len(times) and times[i] <= t + h:
            out.append(_etd_rk4_step(n, u, n0, _etd_weights(lam, times[i] - t)))
            i += 1
        t, u = t + h, y
        accepted += 1
        h *= 2.0 if err == 0.0 else min(2.0, 0.9 * (tol / err) ** 0.2)
    return np.array(out), accepted, rejected


@pytest.mark.parametrize("distance", [5e-8, 1e-7, 3e-7, 9.49e-7])
def test_trajectories_match_the_per_sample_loop(particle, thermal, quad, distance, monkeypatch):
    coeffs, _ = coefficients_for(RunConfig(particle, thermal, quad, distance=distance))
    for omega1 in (1e9, 1e10, 1e12, 4e12):
        for samples in (50, 400):
            config = RunConfig(particle, thermal, quad, distance=distance, omega1=omega1, samples=samples)
            batched = solve_nonlinear(config, coeffs)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_etd_rk4", oracle_etd_rk4)
                looped = solve_nonlinear(config, coeffs)
            assert batched.times.tobytes() == looped.times.tobytes(), (omega1, samples)
            assert batched.omega2.tobytes() == looped.omega2.tobytes(), (omega1, samples)
            assert batched.solver == looped.solver, (omega1, samples)


@pytest.mark.parametrize("omega1", [1e10, 1.5e9])
def test_array_residual_matches_the_float_residual(particle, thermal, quad, omega1, monkeypatch):
    # 1.5e9 builds no gap-channel interpolant; 1e10 builds both
    built = []
    real = dynamics._residual

    def keep(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(dynamics, "_residual", keep)
    solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=omega1, samples=50))
    (residual,) = built
    floor = DIRECT_EVAL_FLOOR
    spins = [-0.0, -1e9, 0.5 * omega1, 2.0 * omega1, math.inf]
    for s in (0.0, floor, omega1 - floor, omega1):
        spins += [math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf)]
    batch = residual(np.array(spins))
    assert batch.tobytes() == np.array([residual(w) for w in spins]).tobytes()
    assert residual(0.0) != 0.0 and residual(floor) != 0.0  # the rest torque and an interpolant
    assert residual(-1e9) == residual(2.0 * omega1) == 0.0


def test_array_weights_match_the_float_weights():
    # h*lam on both sides of the Taylor/expm1 switch of phi at |z| = 0.5,
    # and of phi_1(z/2) at |z| = 1
    lam = 2.0
    hs = [1e-9, 0.1, 0.2499, 0.25, 0.2501, 0.4999, 0.5, 0.5001, 3.0, 400.0]
    batch = _etd_weights(lam, np.array(hs))
    for k, column in enumerate(batch):
        assert column.tobytes() == np.array([_etd_weights(lam, h)[k] for h in hs]).tobytes(), k
