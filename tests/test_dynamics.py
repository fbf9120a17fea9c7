"""Follower dynamics: closed-form linear solution, adaptive ETD-RK4, sync time.

The linear trajectory is a single exponential with
tau = I/(gamma_b + gamma_s) and plateau omega1 * gamma_b/(gamma_b + gamma_s),
so most checks here compare against that closed form directly.
"""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from nanospin import (
    DIRECT_EVAL_FLOOR,
    ConfigError,
    ConvergenceError,
    FrictionCoefficients,
    ParticleSpec,
    QuadratureConfig,
    RunConfig,
    SpinPair,
    ThermalState,
    Trajectory,
    default_time_grid,
    delta_infinity,
    delta_measure,
    friction_coefficients,
    moment_of_inertia,
    mutual_torque,
    solve_linear,
    solve_nonlinear,
    sync_time,
    vacuum_torque,
)
from nanospin.dynamics import (
    ChebyshevInterpolant,
    _etd_rk4,
    _etd_rk4_step,
    _etd_weights,
    _phi,
    chebyshev_interpolant,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def coeffs(particle, thermal, quad):
    c, _ = friction_coefficients(particle, 1e-7, thermal, quad)
    return c


class TestMomentOfInertia:
    def test_frozen_value(self, particle):
        # 0.4 * (3210 kg/m^3 * 4/3 pi (5 nm)^3) * (5 nm)^2
        assert moment_of_inertia(particle) == pytest.approx(1.680752e-38, rel=1e-6)

    def test_formula(self, particle):
        mass = particle.mass_density * particle.volume
        expected = 0.4 * mass * particle.radius**2
        assert moment_of_inertia(particle) == pytest.approx(expected, rel=1e-12)

    def test_fifth_power_scaling(self):
        small = moment_of_inertia(ParticleSpec(radius=5e-9))
        big = moment_of_inertia(ParticleSpec(radius=1e-8))
        assert big / small == pytest.approx(32.0, rel=1e-12)


class TestDeltaMeasure:
    def test_values(self):
        assert delta_measure(1e4, 0.0) == 1.0
        assert delta_measure(1e4, 1e4) == 0.0
        assert delta_measure(1e4, 5e3) == 0.5

    def test_array(self):
        out = delta_measure(2.0, np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(out, [1.0, 0.5, 0.0])

    def test_requires_positive_driver(self):
        with pytest.raises(ConfigError):
            delta_measure(0.0, 1.0)
        with pytest.raises(ConfigError):
            delta_measure(-1e4, 1.0)


class TestDeltaInfinity:
    def test_plateau_value(self, coeffs):
        expected = coeffs.gamma_s / (coeffs.gamma_s + coeffs.gamma_b)
        assert delta_infinity(coeffs) == expected

    def test_limits(self):
        assert delta_infinity(FrictionCoefficients(gamma_s=0.0, gamma_b=1e-36)) == 0.0
        assert delta_infinity(FrictionCoefficients(gamma_s=1e-43, gamma_b=0.0)) == 1.0
        # uncoupled: the follower never moves, delta stays 1
        assert delta_infinity(FrictionCoefficients(gamma_s=0.0, gamma_b=0.0)) == 1.0


class TestTimeGrid:
    def test_shape_and_span(self):
        tau = 6.5e-3
        t = default_time_grid(tau, samples=400)
        assert t.shape == (401,)
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0.0)
        assert t[1] == pytest.approx(1e-3 * tau, rel=1e-12)
        assert t[-1] == pytest.approx(1e3 * tau, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            default_time_grid(0.0)
        with pytest.raises(ConfigError):
            default_time_grid(float("inf"))
        with pytest.raises(ConfigError):
            default_time_grid(1.0, samples=1)


class TestTrajectoryValidation:
    def test_times_must_increase(self):
        with pytest.raises(ConfigError):
            Trajectory(
                times=np.array([0.0, 1.0, 1.0]),
                omega2=np.zeros(3),
                omega1=1e4,
            )

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            Trajectory(times=np.array([]), omega2=np.array([]), omega1=1e4)

    def test_samples_roundtrip(self):
        traj = Trajectory(
            times=np.array([0.0, 1.0]),
            omega2=np.array([0.0, 2.0]),
            omega1=4.0,
        )
        assert list(traj.samples) == [(0.0, 0.0, 1.0), (1.0, 2.0, 0.5)]

    def test_lists_are_stored_as_float_arrays(self):
        traj = Trajectory(times=[0.0, 1.0], omega2=[0, 1], omega1=2.0)
        assert traj.times.dtype == traj.omega2.dtype == np.float64
        assert list(traj.samples) == [(0.0, 0.0, 1.0), (1.0, 1.0, 0.5)]
        assert sync_time(traj, 0.6) == 0.8

    def test_float_arrays_are_stored_without_a_copy(self):
        t, w2 = np.array([0.0, 1.0]), np.array([0.0, 1.0])
        traj = Trajectory(times=t, omega2=w2, omega1=2.0)
        assert traj.times is t and traj.omega2 is w2

    @pytest.mark.parametrize(
        "times, omega2",
        [
            ([0.0, 1.0, 2.0], [0.0, 1.0]),  # one spin short
            ([0.0, 1.0], [0.0, 1.0, 2.0]),
            ([0.0, 1.0], [[0.0, 1.0]]),  # right size, wrong shape
            ([[0.0, 1.0]], [[0.0, 1.0]]),
            ([0.0], 0.0),
        ],
    )
    def test_one_spin_per_time(self, times, omega2):
        with pytest.raises(ConfigError, match="one spin per time"):
            Trajectory(times=times, omega2=omega2, omega1=2.0)


class TestSolveLinear:
    def test_starts_at_rest(self, coeffs):
        inertia = 1.680752e-38
        tau = inertia / (coeffs.gamma_s + coeffs.gamma_b)
        traj = solve_linear(1e4, inertia, coeffs, default_time_grid(tau))
        assert traj.omega2[0] == 0.0
        assert traj.delta[0] == 1.0

    def test_reaches_plateau(self, coeffs):
        inertia = 1.680752e-38
        denom = coeffs.gamma_s + coeffs.gamma_b
        tau = inertia / denom
        traj = solve_linear(1e4, inertia, coeffs, default_time_grid(tau))
        plateau = 1e4 * coeffs.gamma_b / denom
        # at t = 1e3 tau the decaying exponential underflows entirely
        assert traj.omega2[-1] == plateau
        assert traj.delta[-1] == pytest.approx(delta_infinity(coeffs), rel=1e-6)

    def test_monotone_approach(self, coeffs):
        inertia = moment_of_inertia(ParticleSpec())
        tau = inertia / (coeffs.gamma_s + coeffs.gamma_b)
        traj = solve_linear(1e4, inertia, coeffs, default_time_grid(tau))
        assert np.all(np.diff(traj.omega2) >= 0.0)
        assert np.all(np.diff(traj.omega2[:100]) > 0.0)

    def test_delta_identity(self, coeffs):
        inertia = 1.680752e-38
        tau = inertia / (coeffs.gamma_s + coeffs.gamma_b)
        traj = solve_linear(1e4, inertia, coeffs, default_time_grid(tau))
        assert np.array_equal(traj.delta, (1e4 - traj.omega2) / 1e4)

    def test_convex_on_uniform_grid(self, coeffs):
        inertia = 1.680752e-38
        tau = inertia / (coeffs.gamma_s + coeffs.gamma_b)
        t = np.linspace(0.0, 5.0 * tau, 50)
        traj = solve_linear(1e4, inertia, coeffs, t)
        assert np.all(np.diff(traj.delta, n=2) > 0.0)

    def test_pure_drag_never_spins_up(self, coeffs):
        only_drag = FrictionCoefficients(gamma_s=coeffs.gamma_s, gamma_b=0.0)
        traj = solve_linear(1e4, 1.7e-38, only_drag, np.array([0.0, 1.0, 10.0]))
        assert np.all(traj.omega2 == 0.0)
        assert np.all(traj.delta == 1.0)
        assert not traj.zero_coupling
        assert sync_time(traj) is None

    def test_zero_coupling_flag(self):
        none = FrictionCoefficients(gamma_s=0.0, gamma_b=0.0)
        traj = solve_linear(1e4, 1.7e-38, none, np.array([0.0, 1.0]))
        assert traj.zero_coupling
        assert np.all(traj.delta == 1.0)
        assert sync_time(traj) is None

    def test_rejects_bad_inputs(self, coeffs):
        with pytest.raises(ConfigError):
            solve_linear(1e4, 0.0, coeffs, np.array([0.0, 1.0]))
        with pytest.raises(ConfigError):
            solve_linear(0.0, 1.7e-38, coeffs, np.array([0.0, 1.0]))


class TestSyncTime:
    def test_matches_closed_form(self, coeffs):
        inertia = moment_of_inertia(ParticleSpec())
        denom = coeffs.gamma_s + coeffs.gamma_b
        tau = inertia / denom
        d_inf = delta_infinity(coeffs)
        t = np.linspace(0.0, 6.0 * tau, 3001)
        traj = solve_linear(1e4, inertia, coeffs, t)
        expected = tau * np.log((1.0 - d_inf) / (0.01 - d_inf))
        assert sync_time(traj, 0.01) == pytest.approx(expected, rel=1e-6)

    def test_interpolates_linearly(self):
        traj = Trajectory(
            times=np.array([0.0, 1.0]),
            omega2=np.array([9.8e3, 1e4]),
            omega1=1e4,
        )
        assert sync_time(traj, 0.01) == 0.5

    def test_first_sample_hit(self):
        traj = Trajectory(
            times=np.array([0.0, 1.0]),
            omega2=np.array([9.95e3, 9.99e3]),
            omega1=1e4,
        )
        assert sync_time(traj, 0.01) == 0.0

    def test_none_when_plateau_above_threshold(self):
        half = FrictionCoefficients(gamma_s=1e-40, gamma_b=1e-40)
        traj = solve_linear(1e4, 1.7e-38, half, np.array([0.0, 1.0, 100.0]))
        assert sync_time(traj, 0.01) is None

    def test_threshold_domain(self, coeffs):
        traj = solve_linear(1e4, 1.7e-38, coeffs, np.array([0.0, 1.0]))
        for bad in (0.0, 1.0, 1.2, -0.1):
            with pytest.raises(ConfigError):
                sync_time(traj, bad)


class TestSolveNonlinear:
    def test_tracks_closed_form_at_low_spin(self, particle, thermal, quad, coeffs):
        config = RunConfig(particle, thermal, quad, distance=1e-7)
        traj = solve_nonlinear(config)
        assert traj.omega2[0] == 0.0
        assert not traj.zero_coupling
        assert np.all(np.diff(traj.omega2) >= 0.0)
        lin = solve_linear(config.omega1, moment_of_inertia(particle), coeffs, traj.times)
        rel = np.abs(traj.omega2 - lin.omega2) / np.maximum(
            np.abs(lin.omega2), 1e-9 * config.omega1
        )
        assert rel.max() <= 1e-6

    @pytest.mark.parametrize("omega1", [1e4, 5e8])
    def test_linear_flow_is_exact_below_the_floor(self, particle, thermal, quad, coeffs, omega1):
        # below DIRECT_EVAL_FLOOR both channels are linear (N = 0), so the
        # exponential integrator reproduces the closed form to rounding
        config = RunConfig(particle, thermal, quad, distance=1e-7, omega1=omega1)
        traj = solve_nonlinear(config, coeffs)
        assert traj.solver["direct_torque_calls"] == 0
        lin = solve_linear(omega1, moment_of_inertia(particle), coeffs, traj.times)
        rel = np.abs(traj.omega2 - lin.omega2) / np.maximum(np.abs(lin.omega2), 1e-9 * omega1)
        assert rel.max() <= 1e-12

    def test_short_grid(self, particle, thermal, quad):
        config = RunConfig(particle, thermal, quad, distance=1e-7, samples=50)
        traj = solve_nonlinear(config)
        assert traj.times.shape == (51,)
        assert traj.omega2[-1] < config.omega1


class TestNonlinearDirectKernels:
    """omega1 = 1e10 sits above DIRECT_EVAL_FLOOR, so these runs build the
    torque surrogates from the direct kernels."""

    @pytest.mark.parametrize("distance, name", [(1e-7, "100nm"), (9.49e-7, "949nm")])
    def test_matches_frozen_direct_trajectory(self, particle, thermal, quad, distance, name):
        # frozen from the solver that integrated both direct kernels at
        # every RK4 stage; 1e-6*omega1 is the stepper's own tolerance
        oracle = np.loadtxt(DATA / f"nonlinear_1e10_{name}.csv", delimiter=",", skiprows=2)
        config = RunConfig(particle, thermal, quad, distance=distance, omega1=1e10)
        traj = solve_nonlinear(config)
        assert np.array_equal(traj.times, oracle[:, 0])
        assert np.max(np.abs(traj.omega2 - oracle[:, 1])) <= 1e-6 * config.omega1
        assert np.all(np.diff(traj.omega2) >= 0.0)
        assert traj.solver["surrogate_nodes"] == {"mutual": 9, "vacuum": 9}
        assert traj.solver["direct_torque_calls"] <= 64

    def test_surrogate_matches_direct_torques_between_nodes(self, particle, thermal, quad, coeffs):
        omega1, floor = 1e10, DIRECT_EVAL_FLOOR
        tol = quad.rel_tol * (coeffs.gamma_s + coeffs.gamma_b) * omega1

        def mutual(w):
            return mutual_torque(SpinPair(omega1, w), 1e-7, particle, thermal.T, quad)

        def vacuum(w):
            return vacuum_torque(w, particle, thermal, quad)

        drive = chebyshev_interpolant(
            lambda ws: np.array([mutual(w) for w in ws]) - coeffs.gamma_b * (omega1 - ws), floor, omega1 - floor, tol
        )
        drag = chebyshev_interpolant(lambda ws: np.array([vacuum(w) for w in ws]) - coeffs.gamma_s * ws, floor, omega1, tol)
        for w in (1.7e9, 3.3e9, 5.55e9, 8.1e9, 8.95e9):
            assert abs(coeffs.gamma_b * (omega1 - w) + drive(w) - mutual(w)) <= tol
            assert abs(coeffs.gamma_s * w + drag(w) - vacuum(w)) <= tol

    def test_direct_calls_are_nodes_plus_rest_torque(self, particle, thermal, quad):
        # every node once, plus the gap torque at omega2 = 0, which the
        # full step and the first half step share
        traj = solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10))
        nodes = traj.solver["surrogate_nodes"]
        assert traj.solver["direct_torque_calls"] == nodes["mutual"] + nodes["vacuum"] + 1

    def test_stages_outside_the_spin_range_are_linear(self, particle, thermal, quad):
        # at 300 nm and 1e12 some rejected steps put stage spins outside
        # [0, omega1]; there both channels use their linearized forms, so
        # the run integrates its nodes and the gap torque at rest only
        traj = solve_nonlinear(RunConfig(particle, thermal, quad, distance=3e-7, omega1=1e12))
        nodes = traj.solver["surrogate_nodes"]
        assert traj.solver["direct_torque_calls"] == nodes["mutual"] + nodes["vacuum"] + 1

    def test_few_steps_without_a_stability_cap(self, particle, thermal, quad, coeffs):
        # the linear part is exact and samples come from dense output, so
        # neither stability nor the 400 sample times set the step count
        traj = solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10), coeffs)
        assert traj.solver["accepted_steps"] < 100

    def test_given_coefficients_change_nothing(self, particle, thermal, quad, coeffs):
        config = RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10, samples=50)
        given, computed = solve_nonlinear(config, coeffs), solve_nonlinear(config)
        assert np.array_equal(given.times, computed.times)
        assert np.array_equal(given.omega2, computed.omega2)
        assert given.solver == computed.solver

    def test_warm_run_returns_the_cold_bits(self, particle, thermal, quad):
        # the second run reads gamma_s and the vacuum node torques from the
        # memo; direct_torque_calls still counts every node it asks for
        config = RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10)
        cold, warm = solve_nonlinear(config), solve_nonlinear(config)
        assert warm.times.tobytes() == cold.times.tobytes()
        assert warm.omega2.tobytes() == cold.omega2.tobytes()
        assert warm.solver == cold.solver

    def test_another_distance_integrates_only_the_gap_channel(self, particle, thermal, quad, integrals):
        import nanospin.torque as torque_mod

        solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10))
        assert len(integrals) == 4
        config = RunConfig(particle, thermal, quad, distance=3e-7, omega1=1e10)
        warm = solve_nonlinear(config)
        assert [name for name, _ in integrals[4:]] == ["_gamma_b_results", "_mutual_torques"]
        torque_mod.clear_memo()
        cold = solve_nonlinear(config)
        assert len(integrals) == 10
        assert warm.omega2.tobytes() == cold.omega2.tobytes()
        assert warm.solver == cold.solver

    def test_switch_spin_evaluates_only_the_rest_torque(self, particle, thermal, quad):
        # at omega1 = DIRECT_EVAL_FLOOR both surrogate intervals are empty,
        # but the gap channel's scale at omega2 = 0 is omega1 itself, not
        # below the floor: that one torque is direct. The vacuum channel is
        # linear at every spin when omega1 <= the floor, so a stage spin
        # past the floor evaluates no direct vacuum torque
        for samples in (400, 50):
            config = RunConfig(particle, thermal, quad, distance=1e-7, omega1=DIRECT_EVAL_FLOOR, samples=samples)
            traj = solve_nonlinear(config)
            assert traj.solver["surrogate_nodes"] == {"mutual": 0, "vacuum": 0}
            assert traj.solver["direct_torque_calls"] == 1, samples

    def test_first_failing_node_raises(self, particle, thermal, quad, monkeypatch):
        # a batch with several failing nodes raises the error of the first
        # in node order, the one the node-by-node build met first
        import nanospin.dynamics as dynamics_mod

        def failing(spins, *args, **kwargs):
            out = [0.0] * len(spins)
            out[5], out[2] = ConvergenceError("node 5"), ConvergenceError("node 2")
            return out

        monkeypatch.setattr(dynamics_mod, "_mutual_torques", failing)
        with pytest.raises(ConvergenceError, match="node 2"):
            solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10))

    def test_rest_torque_rides_the_mutual_node_batch(self, particle, thermal, quad, coeffs, monkeypatch):
        # M(omega1, 0) is integrated with the degree-8 mutual nodes: the
        # run is one lockstep integral per channel and no lone torque
        import nanospin.dynamics as dynamics_mod
        import nanospin.torque as torque_mod

        integrals = []
        real = torque_mod.integrate_with_diagnostics

        def counting(kernel, q, n=None):
            integrals.append(n)
            return real(kernel, q, n)

        def lone(*args, **kwargs):
            raise AssertionError("scalar mutual_torque called")

        monkeypatch.setattr(torque_mod, "integrate_with_diagnostics", counting)
        monkeypatch.setattr(dynamics_mod, "mutual_torque", lone)
        traj = solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10), coeffs)
        assert integrals == [10, 9]
        assert traj.solver["direct_torque_calls"] == 19

    @staticmethod
    def _failing_rest(monkeypatch):
        # every route to mutual_torques, the lone call's included, fails at
        # the pair (omega1, 0) alone
        import nanospin.dynamics as dynamics_mod
        import nanospin.torque as torque_mod

        real = torque_mod._mutual_torques

        def failing(spins, *args, **kwargs):
            out = real(spins, *args, **kwargs)
            return [ConvergenceError("rest torque") if w2 == 0.0 else r for (_, w2), r in zip(spins, out)]

        monkeypatch.setattr(torque_mod, "_mutual_torques", failing)
        monkeypatch.setattr(dynamics_mod, "_mutual_torques", failing)

    def test_failing_rest_torque_raises(self, particle, thermal, quad, coeffs, monkeypatch):
        self._failing_rest(monkeypatch)
        with pytest.raises(ConvergenceError, match="rest torque"):
            solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10), coeffs)

    def test_failing_vacuum_node_raises_before_the_rest_torque(self, particle, thermal, quad, coeffs, monkeypatch):
        # the rest torque is read by the first step, after both node builds
        import nanospin.dynamics as dynamics_mod

        self._failing_rest(monkeypatch)
        monkeypatch.setattr(
            dynamics_mod, "_vacuum_torques", lambda spins, *args, **kwargs: [ConvergenceError("vacuum node")] * len(spins)
        )
        with pytest.raises(ConvergenceError, match="vacuum node"):
            solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10), coeffs)

    def test_low_spin_builds_no_surrogate(self, particle, thermal, quad):
        traj = solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, samples=50))
        assert traj.solver["surrogate_nodes"] == {"mutual": 0, "vacuum": 0}
        assert traj.solver["direct_torque_calls"] == 0
        assert traj.solver["accepted_steps"] > 0


class TestChebyshevInterpolant:
    def test_smooth_function_certifies_reusing_nodes(self):
        calls = []

        def f(x):
            calls.extend(x.tolist())
            return np.exp(x)

        fit = chebyshev_interpolant(f, -0.5, 0.5, 1e-13)
        assert len(calls) == fit.nodes == 17  # degree 8 fell short, 16 certified
        assert len(set(calls)) == len(calls)  # doubling reuses every earlier node
        for x in (-0.5, -0.123, 0.0, 0.377, 0.5):
            assert fit(x) == pytest.approx(np.exp(x), rel=0, abs=1e-13)
        assert 0.5 in fit and 0.51 not in fit

    def test_kink_does_not_certify(self):
        calls = []

        def kink(x):
            calls.extend(x.tolist())
            return np.abs(x - 0.3)

        with pytest.raises(ConvergenceError, match="not certified at degree 64"):
            chebyshev_interpolant(kink, -1.0, 1.0, 1e-12)
        assert len(calls) == 65

    def test_clenshaw_matches_chebval_bit_for_bit(self):
        from numpy.polynomial.chebyshev import chebval

        rng = np.random.default_rng(5)
        lo, hi = DIRECT_EVAL_FLOOR, 9e9
        points = [lo, hi] + rng.uniform(lo, hi, 1000).tolist()
        for n in (3, 9, 17, 65):
            coeffs = (rng.standard_normal(n) * 1e-20 * 0.5 ** np.arange(n)).tolist()
            fit = ChebyshevInterpolant(lo, hi, tuple(coeffs))
            for w in points:
                assert fit(w) == float(chebval((2.0 * w - (lo + hi)) / (hi - lo), np.array(coeffs))), (n, w)


class TestEtdRk4:
    @pytest.mark.parametrize("z", [1e-8, 0.49, 0.51, 50.0, -1e-8, -0.49, -0.51, -50.0])
    def test_phi_functions_match_mpmath(self, z):
        # |z| = 0.49 and 0.51 sit on either side of the Taylor/expm1 switch
        with mpmath.workdps(50):
            x = mpmath.mpf(z)
            em1 = mpmath.expm1(x)
            exact = [em1 / x, (em1 - x) / x**2, (em1 - x - x**2 / 2) / x**3]
            for got, want in zip(_phi(z), exact):
                assert abs(got - float(want)) <= 1e-14 * abs(float(want)), (z, got, want)

    def test_sample_inside_a_step_is_an_independent_sub_step(self):
        lam, u0, h = 2.0, 1.0, 0.1

        def n(u):
            # the same operations on a float and on an array, as the
            # batched dense output requires
            return (0.1 - 0.05 * u) * u * u + 0.1

        times = np.array([0.0, 0.013, 0.05, h, 3.0])
        out, accepted, rejected = _etd_rk4(n, lam, u0, times, 1e-3, h, 1e-12)
        assert rejected == 0  # the first step is [0, h] and holds three samples
        for t, u in zip(times[1:4], out[1:4]):
            assert u == _etd_rk4_step(n, u0, n(u0), _etd_weights(lam, t)), t
        # and the dense output is as accurate as a step
        exact = _etd_rk4(n, lam, u0, times[:4], 1e-14, 1e-4, 1e-12)[0]
        assert np.max(np.abs(np.subtract(out[:4], exact))) <= 1e-3
