"""Propagator component checks: closed-form moduli, asymptotic limits,
and the coincident-point limit with its quadratic convergence law."""

import mpmath
import numpy as np
import pytest

from nanospin import CONSTANTS, abs2_transverse_sum, im_g_self_transverse_sum


def _wavenumber(omega):
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("require omega > 0")
    return w / CONSTANTS.c


def g_transverse(d, omega):
    """Oracle: complex transverse component g_t (equal for xx and yy)."""
    if d <= 0.0:
        raise ValueError("require d > 0")
    k = _wavenumber(omega)
    kd = k * d
    return np.exp(1j * kd) * (kd * kd + 1j * kd - 1.0) / (d**3 * k * k)


def g_longitudinal(d, omega):
    """Oracle: complex longitudinal (zz) component g_z."""
    if d <= 0.0:
        raise ValueError("require d > 0")
    k = _wavenumber(omega)
    kd = k * d
    return 2.0 * np.exp(1j * kd) * (1.0 - 1j * kd) / (d**3 * k * k)


def im_g_transverse_scaled(x):
    """Oracle: Im g_t at kd = x in units of k, i.e. Im[g_t]/k, cancellation-safe.

    Algebraically Im[e^{ix}(x^2 + ix - 1)]/x^3 = sin(x)/x - (sin(x)/x^2
    - cos(x)/x)/x = sinc(x) - j1(x)/x. That closed form loses about
    eps/x^2 to cancellation, so below |x| = 0.1 the Taylor series
    sum_k (-1)^k 2(k+1) x^2k / ((2k+3)(2k+1)!) takes over, through x^8
    (the next term is below 1e-17 there). Limit 2/3 as x -> 0,
    approached like (2/3) - (2/15)x^2.
    """
    x = np.asarray(x, dtype=float)
    t = x * x
    series = 2.0 / 3.0 + t * (-2.0 / 15.0 + t * (1.0 / 140.0 + t * (-1.0 / 5670.0 + t / 399168.0)))
    small = np.abs(x) < 0.1
    xs = np.where(small, 1.0, x)
    sinc = np.sin(xs) / xs
    closed = sinc - (sinc - np.cos(xs)) / (xs * xs)
    out = np.where(small, series, closed)
    return out if out.ndim else float(out)


def test_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        g_transverse(1e-7, 0.0)
    with pytest.raises(ValueError):
        g_longitudinal(1e-7, -1e14)
    with pytest.raises(ValueError):
        abs2_transverse_sum(1e-7, np.array([1e14, -1.0]))


@pytest.mark.parametrize("d", [0.0, -1e-7])
def test_rejects_nonpositive_distance(d):
    with pytest.raises(ValueError, match="d > 0"):
        abs2_transverse_sum(d, 1e14)


@pytest.mark.parametrize("omega", [0.0, np.array([1e14, -1.0])])
def test_self_limit_rejects_nonpositive_frequency(omega):
    with pytest.raises(ValueError, match="omega > 0"):
        im_g_self_transverse_sum(omega)


def test_abs2_matches_complex_arithmetic():
    rng = np.random.default_rng(11)
    d = rng.uniform(2e-8, 2e-6, size=60)
    w = rng.uniform(1e12, 5e15, size=60)
    for di, wi in zip(d, w):
        direct = 2.0 * abs(g_transverse(di, wi)) ** 2
        assert abs2_transverse_sum(di, wi) == pytest.approx(direct, rel=1e-12)


def test_longitudinal_modulus():
    rng = np.random.default_rng(12)
    for di, wi in zip(rng.uniform(2e-8, 2e-6, size=30), rng.uniform(1e12, 5e15, size=30)):
        k = wi / CONSTANTS.c
        expected = 4.0 * (1.0 + (k * di) ** 2) / (k**4 * di**6)
        assert abs(g_longitudinal(di, wi)) ** 2 == pytest.approx(expected, rel=1e-12)


def test_near_field_limits():
    # kd = 1e-3: transverse tends to -1/(k^2 d^3), zz/xx ratio tends to 2
    d = 1e-7
    w = 1e-3 * CONSTANTS.c / d
    k = w / CONSTANTS.c
    gt = g_transverse(d, w)
    assert gt.real == pytest.approx(-1.0 / (k * k * d**3), rel=5e-6)
    assert abs(g_longitudinal(d, w)) / abs(gt) == pytest.approx(2.0, rel=5e-6)


def test_far_field_limit():
    d = 1e-7
    w = 1e3 * CONSTANTS.c / d
    assert abs(g_transverse(d, w)) * d == pytest.approx(1.0, rel=1e-6)


def test_abs2_positive_and_near_field_scaling():
    w = np.geomspace(1e10, 1e16, 200)
    assert np.all(abs2_transverse_sum(1e-7, w) > 0.0)
    # 1/d^6 dominance: doubling d divides the near-field value by 64
    w_small = 1e-3 * CONSTANTS.c / 1e-7
    ratio = abs2_transverse_sum(1e-7, w_small) / abs2_transverse_sum(2e-7, w_small)
    assert ratio == pytest.approx(64.0, rel=1e-4)


def test_self_limit_value_and_linearity():
    assert im_g_self_transverse_sum(1e14) == pytest.approx(4e14 / (3.0 * CONSTANTS.c), rel=1e-14)
    assert im_g_self_transverse_sum(1e14) == pytest.approx(4.448e5, rel=1e-3)
    assert im_g_self_transverse_sum(2e14) / im_g_self_transverse_sum(1e14) == 2.0


def test_scaled_transverse_against_mpmath():
    # high-precision oracle for Im[e^{ix}(x^2+ix-1)/x^3] at moderate x
    mpmath.mp.dps = 50
    for x in (1e-3, 1e-2, 0.5, 2.0):
        mx = mpmath.mpf(x)
        oracle = mpmath.im(mpmath.exp(mpmath.mpc(0, mx)) * (mx**2 + mpmath.mpc(0, mx) - 1) / mx**3)
        assert im_g_transverse_scaled(x) == pytest.approx(float(oracle), rel=1e-12)


def test_self_limit_quadratic_convergence():
    # error against 2/3 must fall by ~100x per decade of kR
    errs = [abs(im_g_transverse_scaled(x) - 2.0 / 3.0) for x in (1e-3, 1e-4, 1e-5)]
    assert errs[0] / errs[1] == pytest.approx(100.0, abs=20.0)
    assert errs[1] / errs[2] == pytest.approx(100.0, abs=20.0)
    # and the deviation itself follows the series coefficient 2/15
    assert errs[0] == pytest.approx(2.0 / 15.0 * 1e-6, rel=1e-3)


def test_scaled_form_matches_naive_complex_where_stable():
    # at x = 1e-3 the direct complex evaluation still has ~1e-11 headroom
    x = 1e-3
    naive = (np.exp(1j * x) * (x * x + 1j * x - 1.0) / x**3).imag
    assert im_g_transverse_scaled(x) == pytest.approx(naive, rel=1e-9)
    assert im_g_transverse_scaled(0.0) == 2.0 / 3.0
