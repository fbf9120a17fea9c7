"""Thermal factors, torque kernels, and linearized coefficients.

Frozen expected values for the coefficients were computed with an
independent quadrature engine (scipy.integrate.quad, epsrel 1e-11, the
resonances passed as explicit points) before this module was written:

    gamma_s(300 K)                     = 1.152688e-43 N*m*s
    gamma_b(100 nm) / coupling_scale   = 6.764665e-59 N*m*s
    gamma_b(50 nm) / gamma_b(100 nm)   = 64.0569
"""

import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as quadpack

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
import nanospin.torque as torque_mod
from nanospin.torque import (
    SPIN_DIRECT_FLOOR,
    _gamma_b_result,
    _mutual_torques,
    _thermal_breakpoints,
    _vacuum_torques,
    clear_memo,
    gamma_b_sign_edge,
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
        assert d_coth_factor(5e13, 0.0) == 0.0

    def test_pole(self):
        with pytest.raises(PoleError):
            coth_factor(0.0, 300.0)

    def test_derivative_against_difference(self):
        for x in (1e-8, 1e-3, 0.5, 3.0, 20.0):
            w = beta_omega(x)
            h = 1e-6 * w
            fd = (coth_factor(w + h, 300.0) - coth_factor(w - h, 300.0)) / (2.0 * h)
            # at x = 20 the quotient's rounding error, eps*|coth|/h, is 6e5
            # times the derivative (-4.3e-31), and the quotient reads 0.0
            rounding = np.finfo(float).eps * abs(coth_factor(w, 300.0)) / h
            assert d_coth_factor(w, 300.0) == pytest.approx(fd, rel=1e-7, abs=rounding)
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
        assert occupation(w, 300.0) == pytest.approx(np.exp(-30.0), rel=1e-10, abs=0)
        assert occupation(beta_omega(800.0), 300.0) == 0.0

    def test_pole_and_temperature(self):
        with pytest.raises(PoleError):
            occupation(0.0, 300.0)
        # at 1e-300 K (hbar/k_B T about 8e288) both already sit at their T = 0 values
        w = np.array([-1e15, -1e14, -1e13, 1e13, 1e14, 1e15])
        for f in (occupation, d_occupation):
            assert f(w, 0.0).tobytes() == f(w, 1e-300).tobytes()
        assert occupation(w, 0.0).tolist() == [-1.0, -1.0, -1.0, 0.0, 0.0, 0.0]

    def test_derivative_against_difference(self):
        for x in (1e-8, 1e-2, 1.0, 3.8, 25.0):
            w = beta_omega(x)
            h = 1e-6 * w
            fd = (occupation(w + h, 300.0) - occupation(w - h, 300.0)) / (2.0 * h)
            assert d_occupation(w, 300.0) == pytest.approx(fd, rel=1e-7, abs=0)


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


def quadpack_vacuum(kernel, particle, thermal, quad, epsrel):
    """The vacuum prefactor times QUADPACK's integral of kernel(w) over
    the channel's window, with points at both resonances and at k_B T /
    hbar for each nonzero temperature. An IntegrationWarning fails."""
    hi = default_omega_max(thermal, particle)
    points = [particle.dielectric.omega_T, particle.dielectric.omega_L]
    points += [CONSTANTS.k_B * t / CONSTANTS.hbar for t in (thermal.T, thermal.T0) if t > 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        value = quadpack(kernel, quad.omega_min, hi, points=points, epsrel=epsrel, epsabs=0.0, limit=400)[0]
    return -(CONSTANTS.hbar / (2.0 * np.pi * CONSTANTS.c**2)) * value


def coth_reference(w, T):
    """coth(hbar w / k_B T) for w > 0, written with tanh; 1 at T = 0."""
    return 1.0 / np.tanh(CONSTANTS.hbar * w / (CONSTANTS.k_B * T)) if T > 0.0 else 1.0


def d_coth_reference(w, T):
    """d/dw of coth_reference at T > 0, written with sinh."""
    b = CONSTANTS.hbar / (CONSTANTS.k_B * T)
    return -b / np.sinh(b * w) ** 2


class TestVacuumChannelReference:
    """The vacuum channel against kernels whose thermal weights use numpy's
    tanh and sinh instead of nanospin's occupation functions, integrated
    by QUADPACK instead of nanospin's quadrature."""

    @pytest.mark.parametrize("omega0", [1e9, 1e10, 1e11, 1e12])
    def test_vacuum_torque(self, particle, thermal, quad, omega0):
        def kernel(w):
            wp, wm = np.array([w + omega0]), np.array([w - omega0])
            a0 = coth_reference(w, thermal.T0)
            up = im_polarizability(wp, particle) * (coth_reference(wp, thermal.T) - a0)
            down = im_polarizability(wm, particle) * (coth_reference(wm, thermal.T) - a0)
            return float((w * w * im_g_self_transverse_sum(np.array([w])) * (up - down))[0])

        # at epsrel 1e-11 QUADPACK reports roundoff on these kernels
        expected = quadpack_vacuum(kernel, particle, thermal, quad, epsrel=1e-10)
        assert vacuum_torque(omega0, particle, thermal, quad) == pytest.approx(expected, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("T, T0", [(320.0, 300.0), (300.0, 0.0)])
    def test_gamma_s_between_temperatures(self, particle, quad, T, T0):
        def kernel(w):
            x = np.array([w])
            s, ds = im_polarizability(x, particle), d_im_polarizability(x, particle)
            expanded = s * d_coth_reference(w, T) + ds * (coth_reference(w, T) - coth_reference(w, T0))
            return float((2.0 * w * w * im_g_self_transverse_sum(x) * expanded)[0])

        thermal = ThermalState(T=T, T0=T0)
        expected = quadpack_vacuum(kernel, particle, thermal, quad, epsrel=1e-11)
        assert gamma_s(particle, thermal, quad) == pytest.approx(expected, rel=1e-8, abs=0.0)


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


class TestMutualTorqueReference:
    """mutual_torque against its kernel built from public functions, the
    weights with numpy's expm1 instead of nanospin's occupation, and
    integrated by QUADPACK over the gap window, with points at both
    resonances, at k_B T / hbar and at omega_T -+ each spin. An
    IntegrationWarning fails."""

    @pytest.mark.parametrize(
        "o1, o2", [(1e10, 5e9), (1e10, 2e9), (1e11, 3e10), (1e12, 5e11), (4e12, 1e12)]
    )
    def test_at_100_nm(self, particle, quad, o1, o2):
        d, T = 1e-7, 300.0

        def weight(x):
            return im_polarizability(x, particle) * (1.0 / np.expm1(CONSTANTS.hbar * x / (CONSTANTS.k_B * T)) + 0.5)

        def kernel(w):
            x = np.array([w])
            s1 = im_polarizability(x + o1, particle) + im_polarizability(x - o1, particle)
            s2 = im_polarizability(x + o2, particle) + im_polarizability(x - o2, particle)
            f2 = weight(x - o2) - weight(x + o2)
            h1 = weight(x - o1) - weight(x + o1)
            return float((abs2_transverse_sum(d, x) * (f2 * s1 - h1 * s2))[0])

        omega_T = particle.dielectric.omega_T
        points = [omega_T, particle.dielectric.omega_L, CONSTANTS.k_B * T / CONSTANTS.hbar]
        points += [omega_T + sign * o for o in (o1, o2) for sign in (-1.0, 1.0)]
        hi = default_omega_max(ThermalState(T, T), particle)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            value = quadpack(kernel, quad.omega_min, hi, points=points, epsrel=1e-11, epsabs=0.0, limit=400)[0]
        expected = DEFAULT_COUPLING_SCALE * 4.0 * np.pi * CONSTANTS.hbar * value
        assert mutual_torque(SpinPair(o1, o2), d, particle, T, quad) == pytest.approx(expected, rel=1e-10, abs=0.0)


TIGHT = QuadratureConfig(rel_tol=1e-12)


def corotation_slope(particle, T, m):
    """d(mutual_torque)/d(omega1 - omega2) at omega1 = omega2 = m, at 100 nm:
    the integral of the kernel's exact derivative |g_t|^2 (F G' - F' G),
    F = W(w - m) - W(w + m) and G = s(w + m) + s(w - m), which takes no
    difference across the gap."""

    def kernel(w):
        F = weight_oracle(w - m, particle, T) - weight_oracle(w + m, particle, T)
        dF = -d_weight_oracle(w - m, particle, T) - d_weight_oracle(w + m, particle, T)
        G = im_polarizability(w + m, particle) + im_polarizability(w - m, particle)
        dG = d_im_polarizability(w + m, particle) - d_im_polarizability(w - m, particle)
        return abs2_transverse_sum(1e-7, w) * (F * dG - dF * G)

    q = resolved(TIGHT, default_omega_max(ThermalState(T, T), particle), _thermal_breakpoints(particle, T))
    return DEFAULT_COUPLING_SCALE * 4.0 * np.pi * CONSTANTS.hbar * reference_integrate(kernel, q).value


def test_small_spins_are_refused_or_certified_within_rel_tol():
    # Seeded draws over spins 1e0..1e9 of both signs, both models, T = T0
    # and T != T0, and rel_tol from 1e-6 to 1e-3, where the floor keeps out
    # the band spin * rel_tol <= 0.56 in which a certificate can be fooled:
    # the vacuum torque at w, the gap torque at (w, 0) and small gaps g at
    # mean spins m in 1e9..1e11. Each call is refused, fails its
    # certificate, or lies within rel_tol plus the curvature allowance of
    # its linear form: gamma_s*w (relative k w^2 measured at most 9.4e-29),
    # gamma_b*w (1.25e-24) and corotation_slope(m)*g (7.1e-26 g^2), each
    # allowed twice its measured size.
    rng = np.random.default_rng(2610)
    outcomes = {"refused": 0, "not certified": 0, "certified": 0}
    for _ in range(50):
        particle = ParticleSpec(polarizability_model=rng.choice(["bare", "clausius_mossotti"]))
        thermal = ThermalState(T=rng.choice([300.0, 320.0]), T0=300.0)
        quad = QuadratureConfig(rel_tol=10.0 ** rng.uniform(-6.0, -3.0))
        axis, sign = rng.integers(3), rng.choice([-1.0, 1.0])
        if axis == 0:
            w = sign * 10.0 ** rng.uniform(0.0, 9.0)
            scale, expected, allowance = abs(w), gamma_s(particle, thermal, TIGHT) * w, 1.9e-28 * w * w
            call = lambda: vacuum_torque(w, particle, thermal, quad)  # noqa: E731
        elif axis == 1:
            w = sign * 10.0 ** rng.uniform(0.0, 9.0)
            scale, expected, allowance = abs(w), gamma_b(1e-7, particle, thermal.T, TIGHT) * w, 2.5e-24 * w * w
            call = lambda: mutual_torque(SpinPair(w, 0.0), 1e-7, particle, thermal.T, quad)  # noqa: E731
        else:
            m, g = 10.0 ** rng.uniform(9.0, 11.0), sign * 10.0 ** rng.uniform(0.0, 8.0)
            spins = SpinPair(m + 0.5 * g, m - 0.5 * g)
            gap = spins.omega01 - spins.omega02
            scale = abs(gap)
            if scale >= SPIN_DIRECT_FLOOR:
                expected, allowance = corotation_slope(particle, thermal.T, m) * gap, 1.5e-25 * gap * gap
            call = lambda: mutual_torque(spins, 1e-7, particle, thermal.T, quad)  # noqa: E731
        if scale < SPIN_DIRECT_FLOOR:
            with pytest.raises(SmallSpinError):
                call()
            outcomes["refused"] += 1
            continue
        try:
            value = call()
        except ConvergenceError:
            outcomes["not certified"] += 1
            continue
        outcomes["certified"] += 1
        assert abs(value / expected - 1.0) <= quad.rel_tol + allowance, (particle, thermal, quad, axis, scale)
    assert outcomes["refused"] >= 5 and outcomes["certified"] >= 5, outcomes


class TestCoefficients:
    def test_gamma_s_frozen_value(self, particle, thermal, quad):
        assert gamma_s(particle, thermal, quad) == pytest.approx(1.152688e-43, rel=1e-5, abs=0)

    def test_gamma_b_frozen_value(self, particle, quad):
        raw = gamma_b(1e-7, particle, 300.0, quad) / DEFAULT_COUPLING_SCALE
        assert raw == pytest.approx(6.764665e-59, rel=1e-5, abs=0)

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

    @pytest.mark.parametrize("T, T0", [(0.0, 300.0), (300.0, 0.0), (0.0, 0.0)])
    def test_zero_temperature_is_its_limit(self, particle, quad, T, T0):
        # T = 0 and T0 = 0 were refused; they give, bit for bit, what
        # 1e-300 K gives
        tiny = {0.0: 1e-300, 300.0: 300.0}
        got = gamma_s(particle, ThermalState(T=T, T0=T0), quad)
        assert got.hex() == gamma_s(particle, ThermalState(T=tiny[T], T0=tiny[T0]), quad).hex()
        assert gamma_b(1e-7, particle, T, quad).hex() == gamma_b(1e-7, particle, tiny[T], quad).hex()

    def test_friction_coefficients_bundle(self, particle, thermal, quad):
        coeffs, diags = friction_coefficients(particle, 1e-7, thermal, quad)
        assert coeffs.gamma_s == pytest.approx(gamma_s(particle, thermal, quad), rel=1e-14, abs=0)
        assert coeffs.gamma_b == pytest.approx(gamma_b(1e-7, particle, 300.0, quad), rel=1e-14, abs=0)
        for key in ("gamma_s", "gamma_b"):
            assert diags[key]["panels"] > 0
            assert diags[key]["evaluations"] > 0
            assert diags[key]["error_estimate_Nms"] >= 0.0

    def test_unequal_temperatures_supported(self, particle, quad):
        # hot particle in a cold vacuum still yields a positive drag slope
        assert gamma_s(particle, ThermalState(T=600.0, T0=300.0), quad) > 0.0


def quadpack_gap(d, particle, quad, T=300.0, warn="error"):
    """gamma_b at d from the direct per-distance kernel 4 * 2|g_t|^2 * W' * s,
    built from public functions and integrated by QUADPACK at epsrel 1e-11
    over the gap window, with points at both resonances and at k_B T /
    hbar: the value and QUADPACK's error estimate, both scaled. An
    IntegrationWarning fails unless warn is "ignore"."""

    def kernel(w):
        x = np.array([w])
        return float((4.0 * abs2_transverse_sum(d, x) * d_weight_oracle(x, particle, T) * im_polarizability(x, particle))[0])

    hi = default_omega_max(ThermalState(T, T), particle)
    points = [particle.dielectric.omega_T, particle.dielectric.omega_L, CONSTANTS.k_B * T / CONSTANTS.hbar]
    with warnings.catch_warnings():
        warnings.simplefilter(warn, IntegrationWarning)
        value, error = quadpack(kernel, quad.omega_min, hi, points=points, epsrel=1e-11, epsabs=0.0, limit=400)
    scale = DEFAULT_COUPLING_SCALE * 4.0 * np.pi * CONSTANTS.hbar
    return scale * value, scale * error


class TestGapChannelReference:
    """gamma_b in its moment form, scale*(A/d^2 - B/d^4 + C/d^6), against
    the direct per-distance kernel integrated by QUADPACK."""

    # 3.5 um lies past the sign edge, where QUADPACK still converges at 1e-11
    @pytest.mark.parametrize("d", [5e-8, 1e-7, 9.49e-7, 2e-6, 3.5e-6])
    def test_certified_distances(self, particle, quad, d):
        expected, _ = quadpack_gap(d, particle, quad)
        res = _gamma_b_result(d, particle, 300.0, quad)
        assert res.value == pytest.approx(expected, rel=1e-8, abs=0.0)
        assert res.error_estimate <= quad.rel_tol * abs(res.value)

    def test_at_the_sign_edge(self, particle, quad):
        # at 2.691 um both quadratures end at their roundoff floors:
        # QUADPACK warns and reports about 1.7e-8 relative, the moments
        # about 1.1e-8, and the two values lie about 2.4e-8 apart
        expected, error = quadpack_gap(2.691e-6, particle, quad, warn="ignore")
        res = _gamma_b_result(2.691e-6, particle, 300.0, quad)
        assert res.value > 0.0 and expected > 0.0
        assert res.error_estimate > quad.rel_tol * abs(res.value)  # reported, not certified
        assert abs(res.value - expected) <= res.error_estimate + error

    def test_sign_edge_is_a_sign_change(self, particle, quad):
        edge = gamma_b_sign_edge(particle, 300.0, quad)
        assert edge == pytest.approx(2.69118e-6, rel=1e-5, abs=0.0)
        assert gamma_b(edge * (1.0 - 1e-3), particle, 300.0, quad) > 0.0 > gamma_b(edge * (1.0 + 1e-3), particle, 300.0, quad)

    def test_strictly_decreasing_over_seeded_distances(self, particle, quad):
        distances = np.sort(np.exp(np.random.default_rng(20).uniform(np.log(5e-8), np.log(1e-6), 64)))
        values = [_gamma_b_result(d, particle, 300.0, quad) for d in distances.tolist()]
        assert all(a.value > b.value > 0.0 for a, b in zip(values, values[1:]))
        assert all(r.error_estimate <= quad.rel_tol * r.value for r in values)


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

    def test_small_spin_raises_the_lone_error(self, particle, thermal, quad, integrals):
        # the checks of every entry run before any integral
        small = 0.5 * SPIN_DIRECT_FLOOR
        with pytest.raises(SmallSpinError) as batch:
            _vacuum_torques([3e9, small, 7e9], particle, thermal, quad)
        with pytest.raises(SmallSpinError) as lone:
            vacuum_torque(small, particle, thermal, quad)
        assert str(batch.value) == str(lone.value)

        o1 = self.OMEGA1
        pairs = [(o1, 3e9), (o1, o1 - small), (o1, 7e9)]
        with pytest.raises(SmallSpinError) as batch:
            _mutual_torques(pairs, 1e-7, particle, 300.0, quad)
        with pytest.raises(SmallSpinError) as lone:
            mutual_torque(SpinPair(*pairs[1]), 1e-7, particle, 300.0, quad)
        assert str(batch.value) == str(lone.value)
        assert integrals == []

    def test_each_entry_keeps_the_lone_error(self, particle, thermal, quad, integrals):
        # non-finite spin, spin beyond the band, distance inside the
        # point-dipole regime: a batch whose first failing entry it is
        # raises the error of its lone call
        valid = (1e10, 2e9)
        for pair, d in [((1e10, float("nan")), 1e-7), ((1e10, 6e12), 1e-7), (valid, 4e-8)]:
            with pytest.raises(ConfigError) as batch:
                _mutual_torques([valid, pair, (1e10, 6e12)], d, particle, 300.0, quad)
            with pytest.raises(ConfigError) as lone:
                mutual_torque(SpinPair(*pair), d, particle, 300.0, quad)
            assert type(batch.value) is ConfigError and str(batch.value) == str(lone.value)
        with pytest.raises(ConfigError, match="half the infrared cutoff") as batch:
            _vacuum_torques([5e9, 6e12], particle, thermal, quad)
        with pytest.raises(ConfigError) as lone:
            vacuum_torque(6e12, particle, thermal, quad)
        assert str(batch.value) == str(lone.value)
        # a spin beyond the band fails after the checks: its batch mates integrate
        assert integrals == [("_mutual_torques", 1), ("_vacuum_torques", 1)]


class _Captured(Exception):
    pass


class TestStackedKernels:
    """The direct kernels evaluate their spin-shifted spectra as one
    stacked array, one im_polarizability call for all shifts; every value
    must carry the bits of the per-shift form, one call per shift."""

    W = np.geomspace(1.2e13, 9e14, 4 * 15).reshape(4, 15)  # four panel rows
    TAIL = np.full((4, 1), 9e14)  # the shape of the tail check

    @staticmethod
    def kernel_of(monkeypatch, batch, *args):
        """The kernel batch(*args) hands to the lockstep integral."""

        def capture(kernel, q, n=None):
            raise _Captured(kernel)

        monkeypatch.setattr(torque_mod, "integrate_with_diagnostics", capture)
        with pytest.raises(_Captured) as seen:
            batch(*args)
        return seen.value.args[0]

    def assert_same_bits(self, kernel, per_shift, items):
        # in order, and unsorted with repeats: each row must read its own
        # owner's shifts from the batch table, whatever the order
        for order in ([0, 1, 2, 3], [2, 0, 2, 1]):
            owners = np.array(order) % len(items)
            for w in (self.W, self.TAIL):
                got = kernel(w, owners)
                want = per_shift(w, np.array(items, dtype=float)[owners])
                assert got.shape == want.shape == w.shape
                assert (got.view(np.uint64) == want.view(np.uint64)).all()

    @pytest.mark.parametrize("model", ["bare", "clausius_mossotti"])
    @pytest.mark.parametrize("T, T0", [(300.0, 300.0), (320.0, 300.0), (0.0, 300.0)])
    @pytest.mark.parametrize("spins", [[-3e9], [2e10, -5e11, 1e9]])
    def test_vacuum_kernel(self, monkeypatch, quad, model, T, T0, spins):
        particle = ParticleSpec(polarizability_model=model)
        kernel = self.kernel_of(monkeypatch, _vacuum_torques, spins, particle, ThermalState(T, T0), quad)

        def per_shift(w, spin):  # spin: (rows, 1)
            a0 = coth_factor(w, T0)
            wp, wm = w + spin, w - spin
            bracket = im_polarizability(wp, particle) * (coth_factor(wp, T) - a0) - im_polarizability(
                wm, particle
            ) * (coth_factor(wm, T) - a0)
            return w * w * im_g_self_transverse_sum(w) * bracket

        self.assert_same_bits(kernel, per_shift, [[s] for s in spins])

    @pytest.mark.parametrize("model", ["bare", "clausius_mossotti"])
    @pytest.mark.parametrize("T", [300.0, 320.0, 0.0])
    @pytest.mark.parametrize("pairs", [[(1e10, 2e9)], [(-3e9, 5e9), (7e11, -4e10), (2e10, 2e10)]])
    def test_mutual_kernel(self, monkeypatch, quad, model, T, pairs):
        particle = ParticleSpec(polarizability_model=model)
        kernel = self.kernel_of(monkeypatch, _mutual_torques, pairs, 1e-7, particle, T, quad)

        def per_shift(w, spins):
            o1, o2 = spins[:, 0, None], spins[:, 1, None]
            f2 = weight_oracle(w - o2, particle, T) - weight_oracle(w + o2, particle, T)
            g1 = im_polarizability(w + o1, particle) + im_polarizability(w - o1, particle)
            h1 = weight_oracle(w - o1, particle, T) - weight_oracle(w + o1, particle, T)
            k2 = im_polarizability(w + o2, particle) + im_polarizability(w - o2, particle)
            return abs2_transverse_sum(1e-7, w) * (f2 * g1 - h1 * k2)

        self.assert_same_bits(kernel, per_shift, pairs)


class TestMemo:
    """gamma_s, the gap moments and the vacuum torques are kept for the
    life of the process, keyed on every input of their integrals; a kept
    value has the bits of a fresh integral, and errors are not kept."""

    def test_warm_calls_return_the_cold_bits(self, particle, thermal, quad, integrals):
        def calls():
            return [
                gamma_s(particle, thermal, quad),
                friction_coefficients(particle, 1e-7, thermal, quad)[1]["gamma_s"],
                vacuum_torque(5e9, particle, thermal, quad),
                _vacuum_torques([3e9, 5e9, 7e9], particle, thermal, quad),
            ]

        cold = calls()
        # one gamma_s and one moment batch; the spin batch integrates only
        # the two spins not yet kept
        assert integrals == [
            ("_gamma_s_result", 1),
            ("_gap_moments", 3),
            ("_vacuum_torques", 1),
            ("_vacuum_torques", 2),
        ]
        warm = calls()
        assert len(integrals) == 4
        assert repr(warm) == repr(cold)
        clear_memo()
        assert repr(calls()) == repr(cold)
        assert len(integrals) == 8

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
        assert integrals == [("_gamma_s_result", 1), ("_vacuum_torques", 1)] * 2

    def test_gap_moments_serve_every_distance_and_coupling_scale(self, particle, quad, integrals):
        # one moment batch per particle, temperature and quadrature; a
        # distance that needs tighter moments adds a batch at rel_tol/10
        values = [gamma_b(d, particle, 300.0, quad, coupling_scale=k) for d in (5e-8, 1e-7, 9.49e-7) for k in (1.0, 2.0)]
        assert integrals == [("_gap_moments", 3)]
        assert values[1] == 2.0 * values[0] and values[3] == 2.0 * values[2]
        gamma_b(2e-6, particle, 300.0, quad)
        gamma_b(1e-7, particle, 310.0, quad)
        gamma_b(1e-7, ParticleSpec(radius=6e-9), 300.0, quad)
        assert integrals == [("_gap_moments", 3)] * 4

    def test_allow_small_spins_is_not_keyed(self, particle, thermal, integrals):
        # the flag is no input of the integral: a value kept under it does
        # not spare a later call without it its refusal
        loose = QuadratureConfig(rel_tol=1e-6)  # 5e5 rad/s converges here, not at 1e-9
        kept = vacuum_torque(5e5, particle, thermal, loose, allow_small_spins=True)
        with pytest.raises(SmallSpinError):
            vacuum_torque(5e5, particle, thermal, loose)
        assert vacuum_torque(5e5, particle, thermal, loose, allow_small_spins=True) == kept
        assert integrals == [("_vacuum_torques", 1)]
        for allow in (False, True, False, True):
            vacuum_torque(5e9, particle, thermal, loose, allow_small_spins=allow)
        assert integrals == [("_vacuum_torques", 1)] * 2

    def test_failures_are_not_kept(self, particle, thermal, integrals):
        import nanospin.torque as torque_mod

        starved = QuadratureConfig(max_subdivisions=1)
        errors = []
        for _ in range(2):
            with pytest.raises(ConvergenceError) as exc:
                gamma_s(particle, thermal, starved)
            errors.append(exc.value)
            with pytest.raises(ConvergenceError) as exc:
                _vacuum_torques([5e9], particle, thermal, starved)
            errors.append(exc.value)
        assert integrals == [("_gamma_s_result", 1), ("_vacuum_torques", 1)] * 2
        assert len({id(e) for e in errors}) == 4  # each call raised a fresh error
        assert torque_mod._memo == {}

        # a spin refused before integration fails again, and its batch
        # mate is not integrated; a spin beyond the band fails again,
        # and its batch mate is kept
        small = 0.5 * SPIN_DIRECT_FLOOR
        for spins, error, kept in (([5e9, small], SmallSpinError, 0), ([5e9, 6e12], ConfigError, 1)):
            raised = []
            for _ in range(2):
                with pytest.raises(error) as exc:
                    _vacuum_torques(spins, particle, thermal, QuadratureConfig())
                raised.append(exc.value)
            assert raised[0] is not raised[1] and len(torque_mod._memo) == kept

    def test_memo_never_grows_past_its_bound(self, particle, thermal, quad, monkeypatch):
        import nanospin.torque as torque_mod

        spins = [1e9 * k for k in range(2, 8)]
        cold = _vacuum_torques(spins, particle, thermal, quad)
        clear_memo()
        monkeypatch.setattr(torque_mod, "MEMO_ENTRIES", 4)
        assert _vacuum_torques(spins, particle, thermal, quad) == cold
        assert [key[-1] for key in torque_mod._memo] == spins[-4:]  # the oldest went first
        gamma_s(particle, thermal, quad)
        assert len(torque_mod._memo) == 4
        assert [key[-1] for key in torque_mod._memo if key[0] == "vacuum"] == spins[-3:]
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
