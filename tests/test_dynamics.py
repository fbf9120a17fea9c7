"""Follower dynamics: closed-form linear solution, the nonlinear spin-up quadrature, sync time.

The linear trajectory is a single exponential with
tau = I/(gamma_b + gamma_s) and plateau omega1 * gamma_b/(gamma_b + gamma_s),
so most checks here compare against that closed form directly.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from nanospin import (
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
    parse_config,
    solve_linear,
    solve_nonlinear,
    sync_time,
    vacuum_torque,
)
from nanospin import dynamics
from nanospin.dynamics import (
    _certified_pieces,
    _lobatto_coefficients,
    _newton,
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
        assert moment_of_inertia(particle) == pytest.approx(1.680752e-38, rel=1e-6, abs=0)

    def test_formula(self, particle):
        mass = particle.mass_density * particle.volume
        expected = 0.4 * mass * particle.radius**2
        assert moment_of_inertia(particle) == pytest.approx(expected, rel=1e-12, abs=0)

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

    def test_lists_are_stored_as_float_arrays(self):
        traj = Trajectory(times=[0.0, 1.0], omega2=[0, 1], omega1=2.0)
        assert traj.times.dtype == traj.omega2.dtype == np.float64
        assert traj.omega2.tolist() == [0.0, 1.0] and traj.delta.tolist() == [1.0, 0.5]
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
        assert sync_time(traj) is None

    def test_zero_coupling_stays_at_rest(self):
        none = FrictionCoefficients(gamma_s=0.0, gamma_b=0.0)
        traj = solve_linear(1e4, 1.7e-38, none, np.array([0.0, 1.0]))
        assert np.all(traj.omega2 == 0.0)
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
        assert np.all(np.diff(traj.omega2) >= 0.0)
        lin = solve_linear(config.omega1, moment_of_inertia(particle), coeffs, traj.times)
        rel = np.abs(traj.omega2 - lin.omega2) / np.maximum(
            np.abs(lin.omega2), 1e-9 * config.omega1
        )
        assert rel.max() <= 1e-6

    @pytest.mark.parametrize("omega1", [1e4])
    def test_linear_flow_is_exact_below_the_floor(self, particle, thermal, quad, coeffs, omega1):
        # at 1e4 both residuals lie far inside fit_tol, so the surrogate
        # drift is the linearized one to their own certificate, rel_tol;
        # at higher spins the direct torques move the run by real physics
        config = RunConfig(particle, thermal, quad, distance=1e-7, omega1=omega1)
        traj = solve_nonlinear(config, coeffs)
        lin = solve_linear(omega1, moment_of_inertia(particle), coeffs, traj.times)
        rel = np.abs(traj.omega2 - lin.omega2) / np.maximum(np.abs(lin.omega2), 1e-9 * omega1)
        assert rel.max() <= quad.rel_tol

    def test_monotone_away_from_equilibrium_at_a_loose_tolerance(self):
        # at a loose rel_tol and unequal temperatures a stepper's error near
        # the plateau can move omega2 backwards (adaptive ETD-RK4 did, by
        # 1.2e-8 * omega1); inverting a monotone time table cannot
        doc = {
            "radius_m": 2.256e-9, "distance_m": 4.822e-7, "temperature_K": 555.7, "vacuum_temperature_K": 26.84,
            "omega1_rad_per_s": 6.072e11, "samples": 183, "rel_tol": 2.564e-5,
        }
        traj = solve_nonlinear(parse_config(json.dumps(doc)))
        assert np.all(np.diff(traj.omega2) >= 0.0)
        assert traj.omega2[-1] == pytest.approx(traj.solver["plateau_rad_per_s"], rel=1e-9)

    def test_short_grid(self, particle, thermal, quad):
        config = RunConfig(particle, thermal, quad, distance=1e-7, samples=50)
        traj = solve_nonlinear(config)
        assert traj.times.shape == (51,)
        assert traj.omega2[-1] < config.omega1


class TestNonlinearDirectKernels:
    """Spin-ups at omega1 = 1e10 and above, whose torque surrogates on
    [0, omega1] move the run away from the linearized flow."""

    @pytest.mark.parametrize("distance, name", [(1e-7, "100nm"), (9.49e-7, "949nm")])
    def test_matches_frozen_direct_trajectory(self, particle, thermal, quad, distance, name):
        # frozen from an independent solve: scipy's DOP853 at rtol 1e-12 on
        # both direct torques at every right-hand side, no surrogate (each
        # file's header). The grid is the run's own tau grid, and the frozen
        # one agrees with it to the coefficients' quadrature error
        oracle = np.loadtxt(DATA / f"nonlinear_1e10_{name}.csv", delimiter=",", skiprows=2)
        config = RunConfig(particle, thermal, quad, distance=distance, omega1=1e10)
        traj = solve_nonlinear(config)
        c, diag = friction_coefficients(particle, distance, thermal, quad)
        tau = moment_of_inertia(particle) / (c.gamma_s + c.gamma_b)
        assert np.array_equal(traj.times, default_time_grid(tau, config.samples))
        error = sum(diag[k]["error_estimate_Nms"] for k in ("gamma_s", "gamma_b")) / (c.gamma_s + c.gamma_b)
        assert traj.times == pytest.approx(oracle[:, 0], rel=error, abs=0)
        assert np.max(np.abs(traj.omega2 - oracle[:, 1])) <= 1e-6 * config.omega1
        assert np.all(np.diff(traj.omega2) >= 0.0)
        assert traj.solver["surrogate_nodes"] == {"mutual": 9, "vacuum": 9}
        assert traj.solver["direct_torque_calls"] <= 64

    def test_surrogate_matches_direct_torques_between_nodes(self, particle, thermal, quad, coeffs):
        omega1 = 1e10
        tol = quad.rel_tol * (coeffs.gamma_s + coeffs.gamma_b) * omega1

        def mutual(w):
            return mutual_torque(SpinPair(omega1, w), 1e-7, particle, thermal.T, quad)

        def vacuum(w):
            return vacuum_torque(w, particle, thermal, quad)

        net = chebyshev_interpolant(lambda ws: np.array([mutual(w) - vacuum(w) for w in ws]), 0.0, omega1, tol)
        for w in (4e8, 1.7e9, 3.3e9, 5.55e9, 8.1e9, 8.95e9, 9.6e9):
            assert abs(net(w) - (mutual(w) - vacuum(w))) <= tol

    def test_direct_calls_are_nodes_plus_rest_torque(self, particle, thermal, quad):
        # every node once and nothing else: the quadrature never reads the
        # gap torque at rest, which holds at the single point omega2 = 0
        traj = solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10))
        nodes = traj.solver["surrogate_nodes"]
        assert traj.solver["direct_torque_calls"] == nodes["mutual"] + nodes["vacuum"]

    def test_stages_outside_the_spin_range_are_linear(self, particle, thermal, quad):
        # the quadrature reads f on [0, omega*] only, through the
        # surrogates, so at 300 nm and 1e12 the run integrates its nodes
        # and no other torque
        traj = solve_nonlinear(RunConfig(particle, thermal, quad, distance=3e-7, omega1=1e12))
        nodes = traj.solver["surrogate_nodes"]
        assert traj.solver["direct_torque_calls"] == nodes["mutual"] + nodes["vacuum"]

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

        # of the 9 nodes, the gap torque at omega1 is 0.0 and the vacuum
        # node at 0 reads gamma_s's memo entry, so 8 of each are integrated
        solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10))
        assert integrals == [("_vacuum_slopes", 1), ("_gap_moments", 3), ("_mutual_torques", 8), ("_vacuum_slopes", 8)]
        config = RunConfig(particle, thermal, quad, distance=3e-7, omega1=1e10)
        warm = solve_nonlinear(config)
        # gamma_b is read off the kept moments: the gap node batch is the one integral
        assert integrals[4:] == [("_mutual_torques", 8)]
        torque_mod.clear_memo()
        cold = solve_nonlinear(config)
        assert len(integrals) == 9
        assert warm.omega2.tobytes() == cold.omega2.tobytes()
        assert warm.solver == cold.solver

    def test_first_failing_node_raises(self, particle, thermal, quad, monkeypatch):
        # a batch with several failing nodes raises the error of the first
        # in node order, the one the node-by-node build met first
        import nanospin.torque as torque_mod

        real = torque_mod.integrate_with_diagnostics

        def failing(kernel, q, n=None, **kwargs):
            out = real(kernel, q, n, **kwargs)
            if kernel.__qualname__.startswith("_mutual_torques"):
                out[5], out[2] = ConvergenceError("node 5"), ConvergenceError("node 2")
            return out

        monkeypatch.setattr(torque_mod, "integrate_with_diagnostics", failing)
        with pytest.raises(ConvergenceError, match="node 2"):
            solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10))

        # each degree integrates its gap nodes, then its vacuum nodes: at
        # 1e11 the drift reaches degree 16, and a vacuum node failing at
        # degree 8 raises before a gap node failing at degree 16 is met
        gap_batches = []

        def vacuum_first(kernel, q, n=None, **kwargs):
            out = real(kernel, q, n, **kwargs)
            batch = kernel.__qualname__.split(".")[0]
            if batch == "_mutual_torques":
                gap_batches.append(n)
                if len(gap_batches) == 2:
                    out[0] = ConvergenceError("gap node at degree 16")
            elif batch == "_vacuum_slopes" and n == 8:  # not gamma_s, a batch of one at spin 0
                out[0] = ConvergenceError("vacuum node at degree 8")
            return out

        monkeypatch.setattr(torque_mod, "integrate_with_diagnostics", vacuum_first)
        with pytest.raises(ConvergenceError, match="vacuum node at degree 8"):
            solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e11))
        assert gap_batches == [8]

    def test_no_drive_at_rest_keeps_the_follower_at_rest(self, particle, thermal, quad, coeffs, monkeypatch):
        # a vacuum torque lifted by a constant at every node, 0 included,
        # outweighs the drive at rest: f(0) < 0, so the follower never
        # starts, with plateau 0 and no time table
        real = dynamics._vacuum_torques
        lift = 1.2 * coeffs.gamma_b * 1e10
        monkeypatch.setattr(dynamics, "_vacuum_torques", lambda *a, **k: [v + lift for v in real(*a, **k)])
        traj = solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10), coeffs)
        assert traj.solver["plateau_rad_per_s"] == 0.0
        assert traj.solver["kappa_per_s"] is None
        assert traj.solver["piece_nodes"] == []
        assert traj.solver["surrogate_nodes"] == {"mutual": 9, "vacuum": 9}
        assert traj.omega2.tobytes() == np.zeros_like(traj.times).tobytes()

    def test_negative_gamma_b_is_refused(self, particle, thermal, quad, coeffs):
        backwards = FrictionCoefficients(gamma_s=coeffs.gamma_s, gamma_b=-0.5 * coeffs.gamma_s)
        with pytest.raises(ConfigError, match="gamma_b >= 0"):
            solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10), backwards)

    def test_zero_coupling_stays_at_rest(self, particle, thermal, quad):
        # no torque on the follower: nothing is integrated or solved
        config = RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10)
        traj = solve_nonlinear(config, FrictionCoefficients(gamma_s=0.0, gamma_b=0.0))
        assert np.array_equal(traj.times, [0.0, 1.0]) and np.array_equal(traj.omega2, [0.0, 0.0])
        assert traj.solver == {
            "direct_torque_calls": 0,
            "kappa_per_s": None,
            "piece_nodes": [],
            "plateau_rad_per_s": 0.0,
            "surrogate_nodes": {"mutual": 0, "vacuum": 0},
        }


class TestChebyshevInterpolant:
    def test_smooth_function_certifies_reusing_nodes(self):
        calls = []

        def f(x):
            calls.extend(x.tolist())
            return np.exp(x)

        fit = chebyshev_interpolant(f, -0.5, 0.5, 1e-13)
        assert len(calls) == len(fit.coef) == 17  # degree 8 fell short, 16 certified
        assert len(set(calls)) == len(calls)  # doubling reuses every earlier node
        for x in (-0.5, -0.123, 0.0, 0.377, 0.5):
            assert fit(x) == pytest.approx(np.exp(x), rel=0, abs=1e-13)
        assert tuple(fit.domain) == (-0.5, 0.5)

    def test_kink_does_not_certify(self):
        calls = []

        def kink(x):
            calls.extend(x.tolist())
            return np.abs(x - 0.3)

        with pytest.raises(ConvergenceError, match="not certified at degree 64"):
            chebyshev_interpolant(kink, -1.0, 1.0, 1e-12)
        assert len(calls) == 65

    def test_lobatto_coefficients_are_the_cosine_sums(self):
        # c_k = (2/n) sum'' v_j cos(pi*j*k/n), the end terms of the sum
        # and c_0, c_n halved; the polynomial they give meets every value
        # at its node
        rng = np.random.default_rng(29)
        for n in (8, 16, 32, 64):
            values = rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-20, 20)
            scale = np.max(np.abs(values))
            jk = np.outer(np.arange(n + 1), np.arange(n + 1)) % (2 * n)  # exact cosine arguments
            halved = np.ones(n + 1)
            halved[[0, -1]] = 0.5
            want = (2.0 / n) * (np.cos(np.pi * jk / n) @ (halved * values))
            want[[0, -1]] *= 0.5
            coeffs = _lobatto_coefficients(values)
            assert coeffs.shape == (n + 1,)
            assert np.max(np.abs(coeffs - want)) <= 1e-15 * scale, n
            fit = np.polynomial.Chebyshev(coeffs)
            nodes = np.cos(np.pi * np.arange(n + 1) / n)
            assert np.max(np.abs(fit(nodes) - values)) <= n * 1e-15 * scale, n  # a sum of n + 1 rounded terms

    def test_discontinuity_cannot_be_bisected_away(self):
        # the piece holding the jump halves until it is two adjacent
        # floats, which still do not certify
        def step(s):
            return np.where(s < 1.0 / 3.0, 1.0, 2.0)

        with pytest.raises(ConvergenceError, match="not certified"):
            _certified_pieces(step, lambda s: 1e-12, 0.0, 1.0)

    def test_bisection_certifies_what_one_fit_cannot(self):
        # Runge's function 1/(1 + a(s - 1/2)^2), a = 400, needs more than
        # degree 64 on [0, 1] at 1e-12, and certifies on the two halves at
        # 65 nodes each
        a = 400.0

        def runge(s):
            return 1.0 / (1.0 + a * (s - 0.5) ** 2)

        with pytest.raises(ConvergenceError, match="not certified at degree 64"):
            chebyshev_interpolant(runge, 0.0, 1.0, 1e-12)
        pieces = _certified_pieces(runge, lambda s: 1e-12, 0.0, 1.0)
        assert [len(piece.coef) for piece in pieces] == [65, 65]
        assert pieces[0].domain[0] == 0.0 and pieces[-1].domain[1] == 1.0
        assert all(left.domain[1] == right.domain[0] for left, right in zip(pieces, pieces[1:]))
        total = sum(piece.integ(lbnd=piece.domain[0])(piece.domain[1]) for piece in pieces)
        assert total == pytest.approx(2.0 * math.atan(math.sqrt(a) / 2.0) / math.sqrt(a), rel=0, abs=1e-15)


class TestNewton:
    def test_every_root_in_one_call(self):
        # x^3 - t on [-1, 2] from x = 0, where the slope vanishes; t = -1
        # and t = 8 put roots on the bracket ends
        targets = np.concatenate([[-1.0, 8.0], np.linspace(-1.0, 8.0, 101)])
        roots = _newton(lambda x: x**3 - targets, lambda x: 3.0 * x**2, -1.0, 2.0, np.zeros_like(targets), 1e-12)
        assert roots.shape == targets.shape
        assert np.allclose(roots, np.cbrt(targets), rtol=0, atol=1e-12)
        assert roots[0] == -1.0 and roots[1] == 2.0

    def test_bisects_off_a_falling_slope(self):
        # g = (x - 1)^3 - (x - 1) - 1e-20 on [1, 3] has its root at 2 + 5e-21;
        # at x = 1, g is -1e-20 and the slope -1, so the Newton step rounds
        # to x itself, inside the bracket, and would stop there
        def g(x):
            return (x - 1.0) ** 3 - (x - 1.0) - 1e-20

        assert _newton(g, lambda x: 3.0 * (x - 1.0) ** 2 - 1.0, 1.0, 3.0, 1.0, 1e-15) == 2.0
