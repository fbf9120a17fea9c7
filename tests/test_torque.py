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
from nanospin.quadrature import IntegrationResult, integrate_with_diagnostics, resolved
from nanospin.greens import abs2_transverse_sum, im_g_self_transverse_sum
import nanospin.torque as torque_mod
from nanospin.torque import (
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


def vacuum_per_shift(w, spin, particle, T, T0):
    """The vacuum kernel P at spin >= 0 (a float or a (rows, 1) column),
    one im_polarizability and one occupation call per shifted spectrum:
    the bits the stacked kernel must give each row."""
    b = torque_mod._beta_scale(T)
    steps = np.vectorize(lambda o: 2.0 * torque_mod._occupation_step(b, 4.0 * o))(spin)
    x, y = w + spin, w - spin
    sx, sy = im_polarizability(x, particle), im_polarizability(y, particle)
    nx, ny = occupation(2.0 * x, T), occupation(2.0 * y, T)
    sdd = torque_mod._lorentzian_dd(x, y, sx, sy, 4.0 * spin * spin, particle)
    bracket = sdd * (nx - occupation(2.0 * w, T0)) + sy * torque_mod._occupation_dd(ny, nx, steps)
    return 4.0 * w * w * im_g_self_transverse_sum(w) * bracket


def mutual_per_shift(w, o1, o2, particle, T, d=1e-7):
    """The gap kernel Q at (o1, o2) (floats or (rows, 1) columns), one
    im_polarizability and one occupation call per shifted spectrum: the
    bits the stacked kernel must give each row."""
    b = torque_mod._beta_scale(T)
    hi, lo = np.maximum(o1, o2), np.minimum(o1, o2)
    steps = np.vectorize(lambda h: torque_mod._occupation_step(b, h))(hi - lo)
    spectra = [w + lo, w - hi, w + hi, w - lo]  # each pair's smaller argument, then the larger
    s = [im_polarizability(z, particle) for z in spectra]
    n = [occupation(z, T) for z in spectra]
    h2 = (hi - lo) * (hi - lo)
    sdd = [torque_mod._lorentzian_dd(spectra[k + 2], spectra[k], s[k + 2], s[k], h2, particle) for k in (0, 1)]
    wdd = [sdd[k] * (n[k + 2] + 0.5) + s[k] * torque_mod._occupation_dd(n[k], n[k + 2], steps) for k in (0, 1)]
    u2, v2 = s[3] * (n[3] + 0.5) - s[0] * (n[0] + 0.5), s[0] + s[3]
    return abs2_transverse_sum(d, w) * (u2 * (sdd[0] - sdd[1]) + v2 * (wdd[0] + wdd[1]))


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

    def test_derivative_pole(self):
        with pytest.raises(PoleError, match="d_occupation pole"):
            d_occupation(np.array([1e13, 0.0]), 300.0)


@pytest.mark.parametrize("temps", [{"T": -1.0}, {"T0": -1e-300}])
def test_negative_temperature_rejected(temps):
    with pytest.raises(ConfigError, match="temperatures must be >= 0"):
        ThermalState(**temps)


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

    @pytest.mark.parametrize("spin", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_spin_rejected(self, particle, thermal, quad, spin):
        with pytest.raises(ConfigError, match="omega0 must be finite"):
            vacuum_torque(spin, particle, thermal, quad)

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

    def test_equal_spins_are_checked_but_not_integrated(self, particle, quad, monkeypatch):
        # the torque is (omega01 - omega02) Q, so at equal spins it is
        # +0.0 without an integral of Q; the spin, band and dipole checks
        # still run, and in a batch an equal pair keeps its place in the
        # order the errors are raised in
        import nanospin.quadrature as quadrature_mod

        batches, engine = [], quadrature_mod._lockstep
        monkeypatch.setattr(quadrature_mod, "_lockstep", lambda kernel, q, n, first=None: batches.append(n) or engine(kernel, q, n, first))
        for x in (1e8, 4e12, -3e9, 0.0):
            assert repr(mutual_torque(SpinPair(x, x), 1e-7, particle, 300.0, quad)) == "0.0"
        assert batches == []
        for pair, d, match in [
            ((float("nan"),) * 2, 1e-7, "finite"),
            ((6e12, 6e12), 1e-7, "half the infrared cutoff"),
            ((1e10, 1e10), 4e-8, "point-dipole"),
        ]:
            with pytest.raises(ConfigError, match=match):
                _mutual_torques([pair], d, particle, 300.0, quad)
        assert batches == []
        with pytest.raises(ConfigError, match="half the infrared cutoff"):
            _mutual_torques([(6e12, 6e12), (1e10, 6e12)], 1e-7, particle, 300.0, quad)
        lone = mutual_torque(SpinPair(1e10, 2e9), 1e-7, particle, 300.0, quad)
        assert _mutual_torques([(1e10, 1e10), (1e10, 2e9), (5e9, 5e9)], 1e-7, particle, 300.0, quad) == [0.0, lone, 0.0]
        assert batches == [1, 1]

    def test_exchange_antisymmetry_seeded(self, particle):
        # Q is evaluated with the larger spin first, so exchanging the
        # spins flips the sign of omega01 - omega02 and no other bit
        quad = QuadratureConfig(rel_tol=1e-3)
        rng = np.random.default_rng(101)
        mags = 10.0 ** rng.uniform(3.0, 12.0, size=(20, 2))
        signs = rng.choice([-1.0, 1.0], size=(20, 2))
        spins = mags * signs
        for a, b in spins:
            mab = mutual_torque(SpinPair(a, b), 1e-7, particle, 300.0, quad)
            mba = mutual_torque(SpinPair(b, a), 1e-7, particle, 300.0, quad)
            assert mab == -mba and mab != 0.0

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



def occupation_reference(x, T):
    """1/(e^{hbar x/k_B T} - 1) for x > 0 and T > 0 with numpy's expm1;
    0 where the exponential overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(CONSTANTS.hbar * x / (CONSTANTS.k_B * T))


def quadpack_window(kernel, particle, T, spins, quad):
    """QUADPACK's integral of kernel over the window at T = T0, with
    points at both resonances, at k_B T / hbar and at omega_T -+ each
    spin; an IntegrationWarning fails."""
    hi = default_omega_max(ThermalState(T, T), particle)
    omega_T = particle.dielectric.omega_T
    points = [omega_T, particle.dielectric.omega_L, CONSTANTS.k_B * T / CONSTANTS.hbar]
    points += [omega_T + sign * o for o in spins for sign in (-1.0, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        points = [x for x in points if quad.omega_min < x < hi]
        return quadpack(kernel, quad.omega_min, hi, points=points, epsrel=1e-11, epsabs=0.0, limit=400)[0]


@pytest.mark.parametrize("T", [30.0, 3.0])
class TestLowTemperatureReference:
    """Both torques at nonzero spins at 30 K and 3 K (T = T0) against the
    per-shift form, each thermal weight written with numpy's expm1 and
    each shifted spectrum evaluated on its own, integrated by QUADPACK.
    That form subtracts spectra across the spins, so the spins are those
    where it loses under 4 digits: the vacuum bracket n(2(w + o)) -
    n(2w) about log10(1/(2 b o)), 2.3 digits at 30 K and 1e10 rad/s
    (b = hbar/k_B T), and the gap's W(w - o2) - W(w + o2), W about s/2
    at these temperatures, about log10(damping/(2 o2)), 2 digits at 5e9."""

    @pytest.mark.parametrize("omega0", [1e10, 1e11, 1e12])
    def test_vacuum_torque(self, particle, quad, T, omega0):
        def kernel(w):
            x = np.array([w])
            c0 = 2.0 * occupation_reference(2.0 * x, T)  # coth(y) - 1 = 2 n(2y)
            up = im_polarizability(x + omega0, particle) * (2.0 * occupation_reference(2.0 * (x + omega0), T) - c0)
            down = im_polarizability(x - omega0, particle) * (2.0 * occupation_reference(2.0 * (x - omega0), T) - c0)
            return float((x * x * im_g_self_transverse_sum(x) * (up - down))[0])

        expected = -(CONSTANTS.hbar / (2.0 * np.pi * CONSTANTS.c**2)) * quadpack_window(kernel, particle, T, [omega0], quad)
        got = vacuum_torque(omega0, particle, ThermalState(T, T), quad)
        assert got == pytest.approx(expected, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("o1, o2", [(1e10, 5e9), (1e11, 3e10), (1e12, 5e11)])
    def test_mutual_torque(self, particle, quad, T, o1, o2):
        d = 1e-7

        def weight(x):
            return im_polarizability(x, particle) * (occupation_reference(x, T) + 0.5)

        def kernel(w):
            x = np.array([w])
            s1 = im_polarizability(x + o1, particle) + im_polarizability(x - o1, particle)
            s2 = im_polarizability(x + o2, particle) + im_polarizability(x - o2, particle)
            f2, h1 = weight(x - o2) - weight(x + o2), weight(x - o1) - weight(x + o1)
            return float((abs2_transverse_sum(d, x) * (f2 * s1 - h1 * s2))[0])

        expected = DEFAULT_COUPLING_SCALE * 4.0 * np.pi * CONSTANTS.hbar * quadpack_window(kernel, particle, T, [o1, o2], quad)
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


def test_small_spins_are_certified_within_rel_tol():
    # Seeded draws over spin 0 and spins 1e0..1e9 of both signs, both
    # models, T = T0 and T != T0, and rel_tol from 1e-9 to 1e-3: the vacuum
    # torque at w, the gap torque at (w, 0) and small gaps g at mean spins
    # m in 1e9..1e11. Each call certifies, within rel_tol plus the
    # curvature allowance of its linear form: gamma_s*w (relative k w^2
    # measured at most 9.4e-29), gamma_b*w (1.25e-24) and
    # corotation_slope(m)*g (7.1e-26 g^2), each allowed twice its measured
    # size, with the coefficients at rel_tol 1e-12. At spin 0 each torque
    # is exactly 0, and gamma_s, the vacuum kernel there, meets rel_tol.
    rng = np.random.default_rng(2610)
    drawn = {"zero": 0, "small": 0}
    for _ in range(100):
        particle = ParticleSpec(polarizability_model=rng.choice(["bare", "clausius_mossotti"]))
        thermal = ThermalState(T=rng.choice([300.0, 320.0]), T0=300.0)
        quad = QuadratureConfig(rel_tol=10.0 ** rng.uniform(-9.0, -3.0))
        axis, sign = rng.integers(3), rng.choice([-1.0, 1.0])
        w = 0.0 if rng.random() < 0.1 else sign * 10.0 ** rng.uniform(0.0, 9.0)
        if w == 0.0:
            drawn["zero"] += 1
            assert vacuum_torque(w, particle, thermal, quad) == 0.0
            assert mutual_torque(SpinPair(w, w), 1e-7, particle, thermal.T, quad) == 0.0
            expected = gamma_s(particle, thermal, TIGHT)
            assert abs(gamma_s(particle, thermal, quad) / expected - 1.0) <= quad.rel_tol, (particle, thermal, quad)
            continue
        drawn["small"] += 1
        if axis == 0:
            value, expected = vacuum_torque(w, particle, thermal, quad), gamma_s(particle, thermal, TIGHT) * w
            allowance = 1.9e-28 * w * w
        elif axis == 1:
            value = mutual_torque(SpinPair(w, 0.0), 1e-7, particle, thermal.T, quad)
            expected, allowance = gamma_b(1e-7, particle, thermal.T, TIGHT) * w, 2.5e-24 * w * w
        else:
            m = 10.0 ** rng.uniform(9.0, 11.0)
            spins = SpinPair(m + 0.5 * w, m - 0.5 * w)
            gap = spins.omega01 - spins.omega02
            value = mutual_torque(spins, 1e-7, particle, thermal.T, quad)
            expected, allowance = corotation_slope(particle, thermal.T, m) * gap, 1.5e-25 * gap * gap
        assert abs(value / expected - 1.0) <= quad.rel_tol + allowance, (particle, thermal, quad, axis, w)
    assert drawn["zero"] >= 5 and drawn["small"] >= 80, drawn


class TestNearZeroSpin:
    """The divided-difference kernels at small spins: each torque over its
    spin scale is its coefficient, with no cancellation to drown it."""

    @pytest.mark.parametrize("model", ["bare", "clausius_mossotti"])
    @pytest.mark.parametrize("T", [300.0, 320.0])
    def test_torques_over_spin_are_the_coefficients(self, quad, model, T):
        particle, thermal = ParticleSpec(polarizability_model=model), ThermalState(T=T, T0=300.0)
        gs, gb = gamma_s(particle, thermal, quad), gamma_b(1e-7, particle, T, quad)
        for omega in (1e2, 1e4, 1e6):
            assert abs(vacuum_torque(omega, particle, thermal, quad) / (omega * gs) - 1.0) <= quad.rel_tol, omega
            mutual = mutual_torque(SpinPair(omega, 0.0), 1e-7, particle, T, quad)
            assert abs(mutual / (omega * gb) - 1.0) <= quad.rel_tol, omega

    def test_small_gaps_give_the_corotation_slope(self, particle, quad):
        # M(1e10, 1e10 - g)/g is the slope at the mean spin 1e10 - g/2,
        # 0.99948 gamma_b at 100 nm, for gaps from 1 to 1e6 rad/s
        gb = gamma_b(1e-7, particle, 300.0, quad)
        for g in (1.0, 1e3, 1e6):
            ratio = mutual_torque(SpinPair(1e10, 1e10 - g), 1e-7, particle, 300.0, quad) / g
            assert abs(ratio / corotation_slope(particle, 300.0, 1e10 - 0.5 * g) - 1.0) <= quad.rel_tol, g
            assert round(ratio / gb, 5) == 0.99948, g

    def test_vacuum_torque_has_no_coth_rounding_bias(self, particle):
        # the bracket coth_T(w + spin) - coth_T0(w), each coth rounded at 1,
        # carried a bias its error estimate did not see: at T != T0 and
        # rel_tol 1e-8 vacuum_torque(1e7) came out 1.6e-8 off (estimate
        # 8.8e-9); 2(n_T(2x) - n_T0(2w)) rounds no occupation at 1
        thermal, quad = ThermalState(T=320.0, T0=300.0), QuadratureConfig(rel_tol=1e-8)
        expected = gamma_s(particle, thermal, TIGHT) * 1e7
        assert abs(vacuum_torque(1e7, particle, thermal, quad) / expected - 1.0) <= quad.rel_tol

    def test_spin_up_node_scale_certifies_below_rel_tol_1e_9(self):
        # at the spin-up's 1e9 node scale a clausius_mossotti vacuum torque
        # at 320 K against 300 K certified 1.43x outside rel_tol 3.16e-10,
        # and the gap torque at (1e9, 0) 1.6x outside 3.16e-11
        particle, thermal = ParticleSpec(polarizability_model="clausius_mossotti"), ThermalState(T=320.0, T0=300.0)
        cases = [(lambda q: vacuum_torque(1e9, particle, thermal, q), 3.16e-10)]
        cases += [(lambda q, T=T: mutual_torque(SpinPair(1e9, 0.0), 1e-7, particle, T, q), 3.16e-11) for T in (300.0, 320.0)]
        for torque, rel_tol in cases:
            assert abs(torque(QuadratureConfig(rel_tol=rel_tol)) / torque(TIGHT) - 1.0) <= rel_tol


@pytest.mark.parametrize(
    "T, T0", [(T, T0) for T in (0.0, 5e-324, 300.0) for T0 in (0.0, 5e-324, 300.0) if 300.0 not in (T, T0) or T != T0]
)
def test_zero_and_underflowing_temperatures_give_finite_torques(particle, quad, T, T0):
    # at 0 K, and at 5e-324 K, where k_B T underflows, hbar/k_B T is inf:
    # n[x, y] is 0 there, and no 0 * inf makes a torque NaN or warns
    thermal = ThermalState(T=T, T0=T0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [gamma_s(particle, thermal, quad), gamma_b(1e-7, particle, T, quad)]
        values += [vacuum_torque(w, particle, thermal, quad) for w in (0.0, 1e2, -1e6, 1e10)]
        pairs = [(0.0, 0.0), (1e2, 0.0), (1e10, 1e10 - 1.0), (1e10, 3e9), (-1e6, 5e9)]
        values += [mutual_torque(SpinPair(*pair), 1e-7, particle, T, quad) for pair in pairs]
    assert all(np.isfinite(values)), values


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


def gap_factor_moment_kernel(particle, T):
    """The gap moments' kernel read off the gap factor: _gap_spectra at
    zero spins, four equal shifted spectra, times 2 (c/omega)^(2j) for
    the moment j = owners."""
    spectra = torque_mod._gap_spectra(np.zeros((3, 2)), particle, torque_mod._beta_scale(T))
    return lambda w, owners: spectra(w, owners) * 2.0 * (CONSTANTS.c / w) ** (2.0 * owners[:, None])


@pytest.mark.parametrize("model", ["bare", "clausius_mossotti"])
@pytest.mark.parametrize("T", [0.0, 30.0, 300.0, 320.0])
def test_gap_moments_are_the_gap_factor_at_zero_spins(quad, model, T):
    # the moments' kernel, 8 (s'(n + 1/2) + s n') s (c/omega)^(2j) from
    # one spectrum, is the gap factor at zero spins times 2 (c/omega)^(2j):
    # integrated by the same engine call, both give the same results, bit
    # for bit
    particle = ParticleSpec(polarizability_model=model)
    window = torque_mod._window(quad, particle, ThermalState(T, T))
    expected = integrate_with_diagnostics(gap_factor_moment_kernel(particle, T), window, 3)
    assert all(isinstance(r, IntegrationResult) for r in expected)
    assert torque_mod._gap_moments(particle, T, quad) == expected


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

    def test_vacuum_batch_is_bit_identical_to_lone_calls(self, particle, thermal, quad):
        spins = lobatto_nodes(1e9, self.OMEGA1)
        batch = _vacuum_torques(spins, particle, thermal, quad)
        scale = -(CONSTANTS.hbar / (2.0 * np.pi * CONSTANTS.c**2))
        for w0, got in zip(spins, batch):
            clear_memo()  # a lone call that integrates, not one that reads the batch's value
            assert got == vacuum_torque(w0, particle, thermal, quad), w0

            def kernel(w, w0=w0):
                return vacuum_per_shift(w, w0, particle, 300.0, 300.0)

            q = resolved(quad, default_omega_max(thermal, particle), _thermal_breakpoints(particle, 300.0, 300.0) + [w0])
            assert got == w0 * (scale * reference_integrate(kernel, q).value), w0

    def test_mutual_batch_is_bit_identical_to_lone_calls(self, particle, quad):
        o1 = self.OMEGA1
        spins = lobatto_nodes(1e9, o1 - 1e9)
        batch = _mutual_torques([(o1, w2) for w2 in spins], 1e-7, particle, 300.0, quad)
        scale = DEFAULT_COUPLING_SCALE * 4.0 * np.pi * CONSTANTS.hbar
        for o2, got in zip(spins, batch):
            assert got == mutual_torque(SpinPair(o1, o2), 1e-7, particle, 300.0, quad), o2

            def kernel(w, o2=o2):
                return mutual_per_shift(w, o1, o2, particle, 300.0)

            q = resolved(
                quad, default_omega_max(ThermalState(), particle), _thermal_breakpoints(particle, 300.0) + [o1, o2]
            )
            assert got == (o1 - o2) * (scale * reference_integrate(kernel, q).value), o2

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
        assert integrals == [("_mutual_torques", 1), ("_vacuum_slopes", 1)]


class _Captured(Exception):
    pass


class TestStackedKernels:
    """The direct kernels evaluate their spin-shifted spectra as one
    stacked array, one im_polarizability call for all shifts; every value
    must carry the bits of the per-shift form, one call per shift
    (vacuum_per_shift, mutual_per_shift)."""

    W = np.geomspace(1.2e13, 9e14, 4 * 15).reshape(4, 15)  # four panel rows
    TAIL = np.full((4, 1), 9e14)  # the shape of the tail check

    @staticmethod
    def kernel_of(monkeypatch, batch, *args):
        """The kernel batch(*args) hands to the lockstep integral."""

        def capture(kernel, q, n=None, **kwargs):
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

        def per_shift(w, spin):  # spin: (rows, 1); the kernel reads |spin|
            return vacuum_per_shift(w, np.abs(spin), particle, T, T0)

        self.assert_same_bits(kernel, per_shift, [[s] for s in spins])

    @pytest.mark.parametrize("model", ["bare", "clausius_mossotti"])
    @pytest.mark.parametrize("T", [300.0, 320.0, 0.0])
    # equal spins are not integrated; 2e10 and 2e10 - 1 are 1 rad/s apart
    @pytest.mark.parametrize("pairs", [[(1e10, 2e9)], [(-3e9, 5e9), (7e11, -4e10), (2e10, 2e10 - 1.0)]])
    def test_mutual_kernel(self, monkeypatch, quad, model, T, pairs):
        particle = ParticleSpec(polarizability_model=model)
        kernel = self.kernel_of(monkeypatch, _mutual_torques, pairs, 1e-7, particle, T, quad)

        def per_shift(w, spins):
            return mutual_per_shift(w, spins[:, 0, None], spins[:, 1, None], particle, T)

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
        # one gamma_s, the vacuum kernel at spin 0, and one moment batch;
        # the spin batch integrates only the two spins not yet kept
        assert integrals == [
            ("_vacuum_slopes", 1),
            ("_gap_moments", 3),
            ("_vacuum_slopes", 1),
            ("_vacuum_slopes", 2),
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
        assert integrals == [("_vacuum_slopes", 1), ("_vacuum_slopes", 1)] * 2

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
        assert integrals == [("_vacuum_slopes", 1), ("_vacuum_slopes", 1)] * 2
        assert len({id(e) for e in errors}) == 4  # each call raised a fresh error
        assert torque_mod._memo == {}

        # a spin beyond the band fails again, and its batch mate is kept
        raised = []
        for _ in range(2):
            with pytest.raises(ConfigError) as exc:
                _vacuum_torques([5e9, 6e12], particle, thermal, QuadratureConfig())
            raised.append(exc.value)
        assert raised[0] is not raised[1] and len(torque_mod._memo) == 1

    def test_memo_never_grows_past_its_bound(self, particle, thermal, quad, monkeypatch):
        import nanospin.torque as torque_mod

        spins = [1e9 * k for k in range(2, 8)]
        cold = _vacuum_torques(spins, particle, thermal, quad)
        clear_memo()
        monkeypatch.setattr(torque_mod, "MEMO_ENTRIES", 4)
        assert _vacuum_torques(spins, particle, thermal, quad) == cold
        assert [key[-1] for key in torque_mod._memo] == spins[-4:]  # the oldest went first
        gamma_s(particle, thermal, quad)  # the vacuum entry at spin 0
        assert [key[-1] for key in torque_mod._memo] == spins[-3:] + [0.0]
        assert _vacuum_torques(spins, particle, thermal, quad) == cold
        assert len(torque_mod._memo) == 4

    def test_kept_first_rounds_keep_their_bound(self, particle, quad, monkeypatch):
        # a gap node batch keeps its distance-free factor on its first
        # mesh, 15 values per panel, and at omega_max, and the wavenumbers
        # of the window's 24 first panels and of omega_max, read-only; the
        # oldest batch goes first, and one that was dropped integrates its
        # first round again
        batches = [[(1e10, w), (1e10, w + 1e9)] for w in (2e9, 4e9, 6e9)]
        cold = [_mutual_torques(spins, 2e-7, particle, 300.0, quad) for spins in batches]
        shapes = ((2, 24, 15), (2,), (24 * 15 + 1,))  # two nodes
        assert [tuple(a.shape for a in kept) for kept in torque_mod._first_rounds.values()] == [shapes] * 3
        assert not any(a.flags.writeable for kept in torque_mod._first_rounds.values() for a in kept)
        clear_memo()
        assert torque_mod._first_rounds == {}
        monkeypatch.setattr(torque_mod, "_FIRST_ROUNDS", 2)
        for _ in range(2):
            assert [_mutual_torques(spins, 2e-7, particle, 300.0, quad) for spins in batches] == cold
            assert [key[-1] for key in torque_mod._first_rounds] == [tuple(spins) for spins in batches[1:]]

    def test_a_kept_first_round_serves_only_its_own_particle(self, quad):
        # a larger radius scales Im alpha but moves no panel edge of the window
        spins, large = [(1e10, 2e9), (1e10, 5e9)], ParticleSpec(radius=6e-9)
        cold = _mutual_torques(spins, 2e-7, large, 300.0, quad)
        clear_memo()
        _mutual_torques(spins, 1e-7, ParticleSpec(), 300.0, quad)
        assert _mutual_torques(spins, 2e-7, large, 300.0, quad) == cold

    def test_a_spin_up_keeps_its_node_batches_first_rounds(self, particle, thermal, quad):
        # at 4e12 the gap surrogate reaches degree 32: batches of 9, 8 and
        # 16 nodes, of which the co-rotating one is not integrated, so first
        # rounds of 192, 192 and 384 rows span two, two and three blocks;
        # the degree-8 one keeps 26 KB
        from nanospin.config import RunConfig
        from nanospin.dynamics import solve_nonlinear

        solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=4e12, mode="nonlinear"))
        kept = list(torque_mod._first_rounds.values())
        assert [spectra.size // 15 for spectra, _, _ in kept] == [192, 192, 384]
        assert sum(a.nbytes for a in kept[0]) == 23040 + 64 + 2888
        assert len(kept) <= torque_mod._FIRST_ROUNDS

    def test_concurrent_inserts_keep_the_bound(self, monkeypatch):
        # eviction reads the oldest key and deletes it; without the lock two
        # threads can pick the same key and one raises KeyError. The memo
        # and the kept first rounds share the insert and its lock
        import sys
        import threading

        monkeypatch.setattr(torque_mod, "MEMO_ENTRIES", 8)
        monkeypatch.setattr(torque_mod, "_FIRST_ROUNDS", 8)
        errors = []

        def insert(worker):
            try:
                for k in range(2000):
                    torque_mod._keep(torque_mod._memo, torque_mod.MEMO_ENTRIES, ("stress", worker, k), float(k))
                    torque_mod._keep(torque_mod._first_rounds, torque_mod._FIRST_ROUNDS, ("stress", worker, k), float(k))
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
        assert len(torque_mod._memo) == len(torque_mod._first_rounds) == 8
