"""Thermal factors, torque kernels, and linearized coefficients.

Frozen expected values for the coefficients were computed with an
independent quadrature engine (scipy.integrate.quad, epsrel 1e-11, the
resonances passed as explicit points) before this module was written:

    gamma_s(300 K)                     = 1.152688e-43 N*m*s
    gamma_b(100 nm) / coupling_scale   = 6.764665e-59 N*m*s
    gamma_b(50 nm) / gamma_b(100 nm)   = 64.0569
"""

import mpmath
import numpy as np
import pytest

from nanospin import (
    DEFAULT_COUPLING_SCALE,
    ConfigError,
    ConvergenceError,
    ParticleSpec,
    PoleError,
    QuadratureConfig,
    SmallSpinError,
    SpinPair,
    ThermalState,
    coth_factor,
    d_coth_factor,
    d_occupation,
    default_omega_max,
    friction_coefficients,
    gamma_b,
    gamma_s,
    im_polarizability,
    mutual_torque,
    occupation,
    vacuum_torque,
)
from nanospin.material import CONSTANTS, d_im_polarizability
from nanospin.quadrature import resolved
from nanospin.greens import abs2_transverse_sum, im_g_self_transverse_sum
from nanospin.torque import (
    SPIN_DIRECT_FLOOR,
    _gamma_b_results,
    _mutual_torques,
    _thermal_breakpoints,
    _vacuum_torques,
    clear_memo,
    sweep_friction_coefficients,
)

from test_quadrature import reference_integrate


def beta_omega(x, T=300.0):
    """Frequency at which hbar*w/k_B T equals x."""
    return x * CONSTANTS.k_B * T / CONSTANTS.hbar


def weight_oracle(omega, particle, T):
    """The mutual kernel's symmetrized weight Im alpha * (n + 1/2),
    evaluating its own spectrum. The kernels share each spectrum between
    the weight and the other factors; the bits they produce must be
    these."""
    return im_polarizability(omega, particle) * (occupation(omega, T) + 0.5)


def d_weight_oracle(omega, particle, T):
    """d/d(omega) of weight_oracle, evaluating its own spectra."""
    s = im_polarizability(omega, particle)
    ds = d_im_polarizability(omega, particle)
    return ds * (occupation(omega, T) + 0.5) + s * d_occupation(omega, T)


class TestCothFactor:
    def test_large_argument(self):
        assert coth_factor(beta_omega(40.0), 300.0) == pytest.approx(1.0, rel=1e-15)

    def test_odd(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(1e8, 1e15, size=100)
        assert np.allclose(coth_factor(-w, 300.0), -coth_factor(w, 300.0), rtol=1e-14, atol=0.0)

    def test_laurent_branch_against_mpmath(self):
        mpmath.mp.dps = 40
        for x in (1e-8, 1e-7, 3e-7, 9e-7):
            w = beta_omega(x)
            oracle = float(mpmath.coth(mpmath.mpf(x)))
            assert coth_factor(w, 300.0) == pytest.approx(oracle, rel=1e-13)
        # closed form at x = 1e-8: 1/x + x/3 = 1e8 + 3.33e-9
        assert coth_factor(beta_omega(1e-8), 300.0) == pytest.approx(1e8 + 1e-8 / 3.0, rel=1e-15)

    def test_branch_crossover_is_smooth(self):
        # values just inside and outside the series window must agree
        for x in (0.99e-6, 1.01e-6):
            w = beta_omega(x)
            mpmath.mp.dps = 40
            assert coth_factor(w, 300.0) == pytest.approx(float(mpmath.coth(mpmath.mpf(x))), rel=1e-12)

    def test_zero_temperature_is_sign(self):
        assert coth_factor(5e13, 0.0) == 1.0
        assert coth_factor(-5e13, 0.0) == -1.0

    def test_pole(self):
        with pytest.raises(PoleError):
            coth_factor(0.0, 300.0)

    def test_derivative_against_difference(self):
        for x in (1e-8, 1e-3, 0.5, 3.0, 20.0):
            w = beta_omega(x)
            h = 1e-6 * w
            fd = (coth_factor(w + h, 300.0) - coth_factor(w - h, 300.0)) / (2.0 * h)
            assert d_coth_factor(w, 300.0) == pytest.approx(fd, rel=1e-7)
        assert d_coth_factor(beta_omega(400.0), 300.0) == 0.0


class TestOccupation:
    def test_reflection(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(1e12, 1e15, size=100)
        lhs = occupation(-w, 300.0)
        rhs = -(1.0 + occupation(w, 300.0))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)

    def test_high_frequency_tail(self):
        w = beta_omega(30.0)
        assert occupation(w, 300.0) == pytest.approx(np.exp(-30.0), rel=1e-10)
        assert occupation(beta_omega(800.0), 300.0) == 0.0

    def test_pole_and_temperature(self):
        with pytest.raises(PoleError):
            occupation(0.0, 300.0)
        with pytest.raises(ConfigError):
            occupation(1e14, 0.0)

    def test_derivative_against_difference(self):
        for x in (1e-8, 1e-2, 1.0, 3.8, 25.0):
            w = beta_omega(x)
            h = 1e-6 * w
            fd = (occupation(w + h, 300.0) - occupation(w - h, 300.0)) / (2.0 * h)
            assert d_occupation(w, 300.0) == pytest.approx(fd, rel=1e-7)


def test_default_omega_max(particle, thermal):
    got = default_omega_max(thermal, particle)
    assert got == pytest.approx(5.0 * 1.823e14, rel=1e-12)
    hot = ThermalState(T=3000.0, T0=300.0)
    assert default_omega_max(hot, particle) == pytest.approx(10.0 * CONSTANTS.k_B * 3000.0 / CONSTANTS.hbar, rel=1e-12)


class TestVacuumTorque:
    def test_zero_spin_equal_temperatures(self, particle, thermal, quad):
        assert vacuum_torque(0.0, particle, thermal, quad) == 0.0

    def test_parity(self, particle, thermal, quad):
        m = vacuum_torque(1e10, particle, thermal, quad)
        m_neg = vacuum_torque(-1e10, particle, thermal, quad)
        assert m > 0.0  # drag opposes the spin
        assert abs(m + m_neg) <= 1e-8 * abs(m)

    def test_small_spin_refused(self, particle, thermal, quad):
        with pytest.raises(SmallSpinError):
            vacuum_torque(1e4, particle, thermal, quad)
        # override hands the value to the integrator, which then reports
        # honestly that rounding noise in the shifted weights swamps it
        with pytest.raises(ConvergenceError):
            vacuum_torque(1e4, particle, thermal, quad, allow_small_spins=True)

    def test_spin_band_guard(self, particle, thermal, quad):
        with pytest.raises(ConfigError):
            vacuum_torque(6e12, particle, thermal, quad)

    def test_doubling(self, particle, thermal, quad):
        m1 = vacuum_torque(1e10, particle, thermal, quad)
        m2 = vacuum_torque(2e10, particle, thermal, quad)
        assert m2 / m1 == pytest.approx(2.0, rel=1e-4)


class TestMutualTorque:
    def test_equal_spins_exact_zero(self, particle, quad):
        for x in (0.0, 1e4, 1e8):
            assert mutual_torque(SpinPair(x, x), 1e-7, particle, 300.0, quad) == 0.0

    def test_exchange_antisymmetry_seeded(self, particle):
        # loose tolerance: below ~1e7 rad/s the spectral shifts move the
        # weights by only a few ulp, so refinement floors near 1e-7 relative
        quad = QuadratureConfig(rel_tol=1e-3)
        rng = np.random.default_rng(101)
        mags = 10.0 ** rng.uniform(3.0, 12.0, size=(20, 2))
        signs = rng.choice([-1.0, 1.0], size=(20, 2))
        spins = mags * signs
        for a, b in spins:
            mab = mutual_torque(SpinPair(a, b), 1e-7, particle, 300.0, quad, allow_small_spins=True)
            mba = mutual_torque(SpinPair(b, a), 1e-7, particle, 300.0, quad, allow_small_spins=True)
            assert abs(mab + mba) <= 1e-10 * max(abs(mab), abs(mba), 1e-300)

    def test_small_spin_refused(self, particle, quad):
        with pytest.raises(SmallSpinError):
            mutual_torque(SpinPair(1e4, 0.0), 1e-7, particle, 300.0, quad)
        with pytest.raises(SmallSpinError):
            # difference scale below the floor even though spins are above
            mutual_torque(SpinPair(1e10, 1e10 + 10.0), 1e-7, particle, 300.0, quad)

    def test_distance_guard(self, particle, quad):
        with pytest.raises(ConfigError):
            mutual_torque(SpinPair(1e8, 0.0), 4e-8, particle, 300.0, quad)

    def test_drive_direction(self, particle, quad):
        # faster particle 1 spins particle 2 up
        assert mutual_torque(SpinPair(1e8, 0.0), 1e-7, particle, 300.0, quad) > 0.0


class TestCoefficients:
    def test_gamma_s_frozen_value(self, particle, thermal, quad):
        assert gamma_s(particle, thermal, quad) == pytest.approx(1.152688e-43, rel=1e-5)

    def test_gamma_b_frozen_value(self, particle, quad):
        raw = gamma_b(1e-7, particle, 300.0, quad) / DEFAULT_COUPLING_SCALE
        assert raw == pytest.approx(6.764665e-59, rel=1e-5)

    def test_near_field_ratio(self, particle, quad):
        ratio = gamma_b(5e-8, particle, 300.0, quad) / gamma_b(1e-7, particle, 300.0, quad)
        assert ratio == pytest.approx(64.0569, rel=1e-4)

    def test_monotone_in_distance(self, particle, quad):
        values = [gamma_b(d, particle, 300.0, quad) for d in (5e-8, 1e-7, 2e-7, 3.5e-7, 5e-7)]
        assert all(a > b > 0.0 for a, b in zip(values, values[1:]))

    def test_linearization_consistency(self, particle, thermal, quad):
        gs = gamma_s(particle, thermal, quad)
        gb = gamma_b(1e-7, particle, 300.0, quad)
        ms = vacuum_torque(1e10, particle, thermal, quad)
        mb = mutual_torque(SpinPair(1e10, 0.0), 1e-7, particle, 300.0, quad)
        assert abs(ms / 1e10 - gs) / gs <= 1e-2
        assert abs(mb / 1e10 - gb) / gb <= 1e-2

    def test_rel_tol_halving(self, particle, thermal, quad):
        tight = QuadratureConfig(rel_tol=5e-10)
        gs, gs_t = gamma_s(particle, thermal, quad), gamma_s(particle, thermal, tight)
        gb, gb_t = gamma_b(1e-7, particle, 300.0, quad), gamma_b(1e-7, particle, 300.0, tight)
        assert abs(gs - gs_t) / abs(gs) < 5e-9
        assert abs(gb - gb_t) / abs(gb) < 5e-9

    def test_weight_modes(self, particle, thermal, quad):
        # each channel has one convention; friction_coefficients keeps the
        # two keywords for the benchmark harness and refuses any other value
        plain = friction_coefficients(particle, 1e-7, thermal, quad)
        named = friction_coefficients(
            particle, 1e-7, thermal, quad, thermal_weight="symmetrized", coth_half_argument=False
        )
        assert repr(named) == repr(plain)
        for other in ({"thermal_weight": "bose"}, {"thermal_weight": "literal"}, {"coth_half_argument": True}):
            with pytest.raises(ConfigError):
                friction_coefficients(particle, 1e-7, thermal, quad, **other)

    def test_requires_positive_temperatures(self, particle, quad):
        with pytest.raises(ConfigError):
            gamma_s(particle, ThermalState(T=0.0, T0=300.0), quad)
        with pytest.raises(ConfigError):
            gamma_b(1e-7, particle, 0.0, quad)

    def test_friction_coefficients_bundle(self, particle, thermal, quad):
        coeffs, diags = friction_coefficients(particle, 1e-7, thermal, quad)
        assert coeffs.gamma_s == pytest.approx(gamma_s(particle, thermal, quad), rel=1e-14)
        assert coeffs.gamma_b == pytest.approx(gamma_b(1e-7, particle, 300.0, quad), rel=1e-14)
        for key in ("gamma_s", "gamma_b"):
            assert diags[key]["panels"] > 0
            assert diags[key]["evaluations"] > 0
            assert diags[key]["error_estimate_Nms"] >= 0.0

    def test_unequal_temperatures_supported(self, particle, quad):
        # hot particle in a cold vacuum still yields a positive drag slope
        assert gamma_s(particle, ThermalState(T=600.0, T0=300.0), quad) > 0.0


def abs2_one_distance(d, w):
    """2|g_t|^2 for one float distance, with d**6 in Python's float power."""
    k = w / CONSTANTS.c
    u = (k * d) ** 2
    return 2.0 * (u * u - u + 1.0) / (k**4 * d**6)


class TestSweepCoefficients:
    # seeded log-uniform separations plus the two frozen-trajectory ones;
    # numpy's array power rounds d**6 differently for a few percent of them
    DISTANCES = np.exp(np.random.default_rng(20).uniform(np.log(5e-8), np.log(1e-6), 62)).tolist() + [1e-7, 9.49e-7]

    def test_batched_gamma_b_is_bit_identical_to_one_distance(self, particle, quad):
        batch = _gamma_b_results(self.DISTANCES, particle, 300.0, quad)
        q = resolved(quad, default_omega_max(ThermalState(), particle), _thermal_breakpoints(particle, 300.0))
        scale = DEFAULT_COUPLING_SCALE * 4.0 * np.pi * CONSTANTS.hbar
        for d, got in zip(self.DISTANCES, batch):
            assert [got] == _gamma_b_results([d], particle, 300.0, quad), d
            # and to the one-panel-at-a-time engine on the scalar-distance kernel
            ref = reference_integrate(
                lambda w: 4.0
                * abs2_one_distance(d, w)
                * d_weight_oracle(w, particle, 300.0)
                * im_polarizability(w, particle),
                q,
            )
            assert (got.value, got.error_estimate) == (scale * ref.value, scale * ref.error_estimate), d
            assert (got.panels, got.evaluations) == (ref.panels, ref.evaluations), d

    def test_sweep_matches_friction_coefficients(self, particle, thermal, quad):
        distances = [5e-8, 1e-7, 4e-8, 9.49e-7]  # 40 nm is below 10*radius
        results = sweep_friction_coefficients(particle, distances, thermal, quad)
        assert isinstance(results[2], ConfigError) and "point-dipole" in str(results[2])
        for i in (0, 1, 3):
            assert results[i] == friction_coefficients(particle, distances[i], thermal, quad)

    def test_gamma_s_failure_fails_every_distance(self, particle, thermal):
        low_cutoff = QuadratureConfig(omega_max=2e14)
        results = sweep_friction_coefficients(particle, [5e-8, 1e-7], thermal, low_cutoff)
        assert all(isinstance(r, ConfigError) and "omega_max" in str(r) for r in results)


def lobatto_nodes(lo, hi, n=8):
    """The n + 1 Chebyshev-Lobatto spins a degree-n torque surrogate on
    [lo, hi] is built from."""
    return (lo + 0.5 * (hi - lo) * (1.0 + np.cos(np.pi * np.arange(n + 1) / n))).tolist()


class TestSpinBatches:
    """The batched torque cores give each spin the bits of a lone call,
    and those are the bits of the one-panel-at-a-time engine on a
    scalar-spin kernel whose panel edges include the spin itself (a
    breakpoint the lone calls once added; the band check keeps it below
    omega_min, so it never becomes an edge)."""

    OMEGA1 = 1e10
    FLOOR = 1e9  # nanospin.dynamics.DIRECT_EVAL_FLOOR

    def test_vacuum_batch_is_bit_identical_to_lone_calls(self, particle, thermal, quad):
        spins = lobatto_nodes(self.FLOOR, self.OMEGA1)
        batch = _vacuum_torques(spins, particle, thermal, quad)
        scale = -(CONSTANTS.hbar / (2.0 * np.pi * CONSTANTS.c**2))
        for w0, got in zip(spins, batch):
            clear_memo()  # a lone call that integrates, not one that reads the batch's value
            assert got == vacuum_torque(w0, particle, thermal, quad), w0

            def kernel(w, w0=w0):
                a0 = coth_factor(w, 300.0)
                wp, wm = w + w0, w - w0
                bracket = im_polarizability(wp, particle) * (coth_factor(wp, 300.0) - a0) - im_polarizability(
                    wm, particle
                ) * (coth_factor(wm, 300.0) - a0)
                return w * w * im_g_self_transverse_sum(w) * bracket

            q = resolved(quad, default_omega_max(thermal, particle), _thermal_breakpoints(particle, 300.0, 300.0) + [w0])
            assert got == scale * reference_integrate(kernel, q).value, w0

    def test_mutual_batch_is_bit_identical_to_lone_calls(self, particle, quad):
        o1 = self.OMEGA1
        spins = lobatto_nodes(self.FLOOR, o1 - self.FLOOR)
        batch = _mutual_torques([(o1, w2) for w2 in spins], 1e-7, particle, 300.0, quad)
        scale = DEFAULT_COUPLING_SCALE * 4.0 * np.pi * CONSTANTS.hbar
        for o2, got in zip(spins, batch):
            assert got == mutual_torque(SpinPair(o1, o2), 1e-7, particle, 300.0, quad), o2

            def weight(w):
                return weight_oracle(w, particle, 300.0)

            def kernel(w, o2=o2):
                f2 = weight(w - o2) - weight(w + o2)
                g1 = im_polarizability(w + o1, particle) + im_polarizability(w - o1, particle)
                h1 = weight(w - o1) - weight(w + o1)
                k2 = im_polarizability(w + o2, particle) + im_polarizability(w - o2, particle)
                return abs2_transverse_sum(1e-7, w) * (f2 * g1 - h1 * k2)

            q = resolved(
                quad, default_omega_max(ThermalState(), particle), _thermal_breakpoints(particle, 300.0) + [o1, o2]
            )
            assert got == scale * reference_integrate(kernel, q).value, o2

    def test_small_spin_fails_its_entry_alone(self, particle, thermal, quad):
        small = 0.5 * SPIN_DIRECT_FLOOR
        spins = [3e9, small, 7e9]
        batch = _vacuum_torques(spins, particle, thermal, quad)
        with pytest.raises(SmallSpinError) as lone:
            vacuum_torque(small, particle, thermal, quad)
        assert type(batch[1]) is SmallSpinError and str(batch[1]) == str(lone.value)
        clear_memo()
        assert [batch[0], batch[2]] == [vacuum_torque(w, particle, thermal, quad) for w in (3e9, 7e9)]

        o1 = self.OMEGA1
        pairs = [(o1, 3e9), (o1, o1 - small), (o1, 7e9)]
        batch = _mutual_torques(pairs, 1e-7, particle, 300.0, quad)
        with pytest.raises(SmallSpinError) as lone:
            mutual_torque(SpinPair(*pairs[1]), 1e-7, particle, 300.0, quad)
        assert type(batch[1]) is SmallSpinError and str(batch[1]) == str(lone.value)
        assert [batch[0], batch[2]] == [mutual_torque(SpinPair(*p), 1e-7, particle, 300.0, quad) for p in pairs[::2]]

    def test_each_entry_keeps_the_lone_error(self, particle, quad):
        # non-finite spin, spin beyond the band: each fails as a lone call
        # would, the valid pair still integrates
        pairs = [(1e10, float("nan")), (1e10, 6e12), (1e10, 2e9)]
        batch = _mutual_torques(pairs, 1e-7, particle, 300.0, quad)
        for pair, got in zip(pairs[:2], batch):
            with pytest.raises(ConfigError) as lone:
                mutual_torque(SpinPair(*pair), 1e-7, particle, 300.0, quad)
            assert type(got) is ConfigError and str(got) == str(lone.value)
        assert batch[2] == mutual_torque(SpinPair(*pairs[2]), 1e-7, particle, 300.0, quad)
        # the point-dipole guard fails every entry
        too_close = _mutual_torques(pairs[2:], 4e-8, particle, 300.0, quad)
        assert isinstance(too_close[0], ConfigError) and "point-dipole" in str(too_close[0])


class TestMemo:
    """gamma_s and the vacuum torques are kept for the life of the
    process, keyed on every input of their integrals; a kept value has
    the bits of a fresh integral, and errors are not kept."""

    def test_warm_calls_return_the_cold_bits(self, particle, thermal, quad, integrals):
        def calls():
            return [
                gamma_s(particle, thermal, quad),
                friction_coefficients(particle, 1e-7, thermal, quad)[1]["gamma_s"],
                vacuum_torque(5e9, particle, thermal, quad),
                _vacuum_torques([3e9, 5e9, 7e9], particle, thermal, quad),
            ]

        cold = calls()
        # one gamma_s; the batch integrates only the two spins not yet kept
        assert integrals == [
            ("_integrate_gamma_s", None),
            ("_gamma_b_results", 1),
            ("_integrate_vacuum_torques", 1),
            ("_integrate_vacuum_torques", 2),
        ]
        warm = calls()
        assert integrals[4:] == [("_gamma_b_results", 1)]
        assert repr(warm) == repr(cold)
        clear_memo()
        assert repr(calls()) == repr(cold)
        assert len(integrals) == 9

    @pytest.mark.parametrize(
        "field, value",
        [
            ("thermal", ThermalState(T=310.0)),
            ("thermal", ThermalState(T0=310.0)),
            ("quad", QuadratureConfig(rel_tol=2e-9)),
            ("quad", QuadratureConfig(max_subdivisions=150)),
            ("particle", ParticleSpec(radius=6e-9)),
        ],
    )
    def test_every_key_field_is_keyed(self, particle, thermal, quad, integrals, field, value):
        base = {"particle": particle, "thermal": thermal, "quad": quad}
        for args in (base, dict(base, **{field: value})) * 2:
            inputs = (args["particle"], args["thermal"], args["quad"])
            gamma_s(*inputs)
            vacuum_torque(5e9, *inputs)
        assert integrals == [("_integrate_gamma_s", None), ("_integrate_vacuum_torques", 1)] * 2

    def test_allow_small_spins_is_keyed(self, particle, thermal, quad, integrals):
        for allow in (False, True, False, True):
            vacuum_torque(5e9, particle, thermal, quad, allow_small_spins=allow)
        assert integrals == [("_integrate_vacuum_torques", 1)] * 2

    def test_failures_are_not_kept(self, particle, thermal, integrals):
        import nanospin.torque as torque_mod

        starved = QuadratureConfig(max_subdivisions=1)
        errors = []
        for _ in range(2):
            with pytest.raises(ConvergenceError) as exc:
                gamma_s(particle, thermal, starved)
            errors.append(exc.value)
            (res,) = _vacuum_torques([5e9], particle, thermal, starved)
            assert isinstance(res, ConvergenceError)
            errors.append(res)
        assert integrals == [("_integrate_gamma_s", None), ("_integrate_vacuum_torques", 1)] * 2
        assert len({id(e) for e in errors}) == 4  # each call raised a fresh error
        assert torque_mod._memo == {}

        # a spin refused before integration fails again; its batch mate is kept
        small = 0.5 * SPIN_DIRECT_FLOOR
        first = _vacuum_torques([5e9, small], particle, thermal, QuadratureConfig())
        second = _vacuum_torques([5e9, small], particle, thermal, QuadratureConfig())
        assert isinstance(second[1], SmallSpinError) and second[1] is not first[1]
        assert second[0] == first[0] and len(torque_mod._memo) == 1

    def test_memo_never_grows_past_its_bound(self, particle, thermal, quad, monkeypatch):
        import nanospin.torque as torque_mod

        spins = [1e9 * k for k in range(2, 8)]
        cold = _vacuum_torques(spins, particle, thermal, quad)
        clear_memo()
        monkeypatch.setattr(torque_mod, "MEMO_ENTRIES", 4)
        assert _vacuum_torques(spins, particle, thermal, quad) == cold
        assert [key[1] for key in torque_mod._memo] == spins[-4:]  # the oldest went first
        gamma_s(particle, thermal, quad)
        assert len(torque_mod._memo) == 4
        assert [key[1] for key in torque_mod._memo if key[0] == "vacuum"] == spins[-3:]
        assert _vacuum_torques(spins, particle, thermal, quad) == cold
        assert len(torque_mod._memo) == 4

    def test_concurrent_inserts_keep_the_bound(self, monkeypatch):
        # eviction reads the oldest key and deletes it; without the lock two
        # threads can pick the same key and one raises KeyError
        import sys
        import threading

        import nanospin.torque as torque_mod

        monkeypatch.setattr(torque_mod, "MEMO_ENTRIES", 8)
        errors = []

        def insert(worker):
            try:
                for k in range(2000):
                    torque_mod._remember(("stress", worker, k), float(k))
            except Exception as exc:  # any lost race fails the test below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=insert, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(torque_mod._memo) == 8
