"""Acceptance gate: ten behavioral criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` to see the per-criterion
lines. Each test states its tolerance inline; the ones with runtime
budgets assert them with a monotonic clock.
"""

import json
import time

import numpy as np
import pytest

from nanospin import (
    ParticleSpec,
    QuadratureConfig,
    RunConfig,
    SpinPair,
    ThermalState,
    default_time_grid,
    delta_infinity,
    friction_coefficients,
    gamma_b,
    gamma_s,
    moment_of_inertia,
    mutual_torque,
    parse_config,
    solve_linear,
    solve_nonlinear,
    sync_time,
    vacuum_torque,
)
from nanospin.cli import run_sweep

from test_greens import im_g_transverse_scaled

PARTICLE = ParticleSpec()
THERMAL = ThermalState()
QUAD = QuadratureConfig()


def _linear_run(distance: float):
    coeffs, _ = friction_coefficients(PARTICLE, distance, THERMAL, QUAD)
    inertia = moment_of_inertia(PARTICLE)
    tau = inertia / (coeffs.gamma_s + coeffs.gamma_b)
    traj = solve_linear(1e4, inertia, coeffs, default_time_grid(tau))
    return coeffs, traj


def test_criterion_01_sync_time_ratio():
    # defaults (5 nm radius, 300 K everywhere, threshold 0.01):
    # t_sync(100 nm) / t_sync(50 nm) must land in [40, 90]
    start = time.monotonic()
    _, traj_50 = _linear_run(5e-8)
    _, traj_100 = _linear_run(1e-7)
    t50 = sync_time(traj_50, 0.01)
    t100 = sync_time(traj_100, 0.01)
    elapsed = time.monotonic() - start
    assert t50 is not None and t100 is not None
    ratio = t100 / t50
    assert 40.0 <= ratio <= 90.0, f"sync-time ratio {ratio:.3f} outside [40, 90]"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"


def test_criterion_02_monotone_synchronization():
    # delta(t) never rises; plateau and sync time both grow with distance
    start = time.monotonic()
    distances = (5e-8, 1e-7, 2e-7, 5e-7)
    plateaus, times = [], []
    for d in distances:
        coeffs, traj = _linear_run(d)
        assert np.all(np.diff(traj.delta) <= 0.0), f"delta rises at d = {d}"
        plateaus.append(delta_infinity(coeffs))
        ts = sync_time(traj, 0.01)
        times.append(float("inf") if ts is None else ts)
    elapsed = time.monotonic() - start
    assert np.all(np.diff(plateaus) > 0.0), f"plateaus not increasing: {plateaus}"
    assert np.all(np.diff(times) > 0.0), f"sync times not increasing: {times}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s budget"


def test_criterion_03_mutual_torque_antisymmetry():
    # swap the spins and the torque must flip sign exactly over 50 seeded
    # pairs; equal spins give exactly zero. The kernel takes the larger
    # spin first, so the swap changes no bit but the sign.
    start = time.monotonic()
    quad = QuadratureConfig(rel_tol=1e-3)
    rng = np.random.default_rng(20260816)
    mags = 10.0 ** rng.uniform(3.0, 12.0, size=(50, 2))
    signs = rng.choice([-1.0, 1.0], size=(50, 2))
    for a, b in mags * signs:
        mab = mutual_torque(SpinPair(a, b), 1e-7, PARTICLE, 300.0, quad)
        mba = mutual_torque(SpinPair(b, a), 1e-7, PARTICLE, 300.0, quad)
        assert mab == -mba and mab != 0.0, f"asymmetry at ({a:.3e}, {b:.3e})"
    for x in (0.0, 1e4, 1e8):
        m = mutual_torque(SpinPair(x, x), 1e-7, PARTICLE, 300.0, QUAD)
        assert abs(m) <= QUAD.abs_tol, f"nonzero torque {m} at equal spins {x}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s budget"


def test_criterion_04_vacuum_torque_parity():
    # no spin and no temperature contrast: exactly no torque; and the
    # torque is odd in the spin to 1e-8 relative at 1e10 rad/s
    m0 = vacuum_torque(0.0, PARTICLE, THERMAL, QUAD)
    assert abs(m0) <= QUAD.abs_tol
    m_pos = vacuum_torque(1e10, PARTICLE, THERMAL, QUAD)
    m_neg = vacuum_torque(-1e10, PARTICLE, THERMAL, QUAD)
    assert abs(m_pos + m_neg) <= 1e-8 * abs(m_pos), "parity violation"


def test_criterion_05_linearization_oracles():
    # at 1e10 rad/s the direct torques match their linearized coefficients
    # to 1 percent in both channels
    g_s = gamma_s(PARTICLE, THERMAL, QUAD)
    g_b = gamma_b(1e-7, PARTICLE, 300.0, QUAD)
    m_s = vacuum_torque(1e10, PARTICLE, THERMAL, QUAD)
    m_b = mutual_torque(SpinPair(1e10, 0.0), 1e-7, PARTICLE, 300.0, QUAD)
    rel_s = abs(m_s / 1e10 - g_s) / g_s
    rel_b = abs(m_b / 1e10 - g_b) / g_b
    assert rel_s <= 1e-2, f"vacuum channel deviates {rel_s:.3e}"
    assert rel_b <= 1e-2, f"gap channel deviates {rel_b:.3e}"


def test_criterion_06_near_field_scaling():
    # halving the separation multiplies the coupling by ~2^6, with the
    # retardation correction keeping the ratio inside [63, 65]
    ratio = gamma_b(5e-8, PARTICLE, 300.0, QUAD) / gamma_b(1e-7, PARTICLE, 300.0, QUAD)
    assert 63.0 <= ratio <= 65.0, f"distance ratio {ratio:.4f} outside [63, 65]"


def test_criterion_07_self_field_limit():
    # the transverse field-propagator component approaches its self-limit
    # 2/3 (scaled) with quadratic error decay: each decade in the argument
    # shrinks the error by 100 +- 20
    errors = [abs(im_g_transverse_scaled(x) - 2.0 / 3.0) for x in (1e-3, 1e-4, 1e-5)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    for r in ratios:
        assert 80.0 <= r <= 120.0, f"error ratios {ratios} outside 100 +- 20"


def test_criterion_08_solver_equivalence():
    # the adaptive integrator reproduces the closed-form trajectory to
    # 1e-3 pointwise at omega1 = 1e4 rad/s, d = 100 nm
    config = RunConfig(PARTICLE, THERMAL, QUAD, distance=1e-7)
    nl = solve_nonlinear(config)
    coeffs, _ = friction_coefficients(PARTICLE, 1e-7, THERMAL, QUAD)
    lin = solve_linear(config.omega1, moment_of_inertia(PARTICLE), coeffs, nl.times)
    rel = np.abs(nl.omega2 - lin.omega2) / np.maximum(np.abs(lin.omega2), 1e-9 * config.omega1)
    assert rel.max() <= 1e-3, f"max pointwise deviation {rel.max():.3e}"


def test_criterion_09_numerical_robustness():
    # halving the quadrature tolerance barely moves either coefficient,
    # and the spectral derivative matches central differences
    tight = QuadratureConfig(rel_tol=5e-10)
    gs, gb = gamma_s(PARTICLE, THERMAL, QUAD), gamma_b(1e-7, PARTICLE, 300.0, QUAD)
    gs_t, gb_t = gamma_s(PARTICLE, THERMAL, tight), gamma_b(1e-7, PARTICLE, 300.0, tight)
    assert abs(gs_t - gs) / gs < 5e-9, f"gamma_s moved {abs(gs_t - gs) / gs:.3e}"
    assert abs(gb_t - gb) / gb < 5e-9, f"gamma_b moved {abs(gb_t - gb) / gb:.3e}"

    from nanospin import d_im_polarizability, im_polarizability

    for w in np.geomspace(1e13, 1e14, 20):
        h = 1e-5 * w
        fd = (im_polarizability(w + h, PARTICLE) - im_polarizability(w - h, PARTICLE)) / (2 * h)
        exact = d_im_polarizability(w, PARTICLE)
        assert abs(fd - exact) / abs(exact) <= 1e-6, f"derivative mismatch at {w:.3e}"


def test_criterion_10_sweep_performance_determinism(tmp_path):
    # the four-distance sweep finishes inside the budget and a repeat
    # into the same location reproduces every artifact byte for byte
    doc = {"distances_m": [5e-8, 1e-7, 2e-7, 5e-7], "out_dir": str(tmp_path)}
    sweep = parse_config(json.dumps(doc))
    start = time.monotonic()
    run_sweep(sweep)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget 60s"
    first = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert len(first) == 4 + 3  # per-distance summaries, the two tables and the trajectory file
    run_sweep(sweep)
    for p, data in first.items():
        assert p.read_bytes() == data, f"{p} changed between identical sweeps"
