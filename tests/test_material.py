"""Dielectric model and polarizability checks.

Expected numbers come from closed-form limits of the oscillator
expression (static value, resonance peak, high-frequency tail), not from
the implementation under test.
"""

import numpy as np
import pytest

from nanospin import SIC, DielectricParams, ParticleSpec, d_im_polarizability, im_polarizability, permittivity
from nanospin.material import d_permittivity


def test_static_limit():
    # w=0: eps = eps_inf * omega_L^2 / omega_T^2, purely real
    expected = SIC.eps_inf * SIC.omega_L**2 / SIC.omega_T**2
    got = permittivity(0.0)
    assert got.imag == 0.0
    assert got.real == pytest.approx(expected, rel=1e-14)
    assert got.real == pytest.approx(10.0025, abs=2e-4)


def test_high_frequency_limit():
    got = permittivity(1e18)
    assert abs(got - SIC.eps_inf) < 1e-6


def test_resonance_peak():
    # at w = omega_T the denominator is purely imaginary
    expected = SIC.eps_inf * (SIC.omega_L**2 - SIC.omega_T**2) / (SIC.gamma * SIC.omega_T)
    assert permittivity(SIC.omega_T).imag == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(550.3, abs=0.1)


def test_conjugate_symmetry():
    rng = np.random.default_rng(42)
    w = rng.uniform(1e10, 1e16, size=200)
    ep = permittivity(w)
    em = permittivity(-w)
    assert np.allclose(em.real, ep.real, rtol=1e-12, atol=0.0)
    assert np.allclose(em.imag, -ep.imag, rtol=1e-12, atol=0.0)


def test_passivity():
    w = np.geomspace(1e6, 1e18, 500)
    assert np.all(permittivity(w).imag > 0.0)
    assert permittivity(0.0).imag == 0.0


def test_param_validation():
    with pytest.raises(ValueError):
        DielectricParams(eps_inf=6.7, omega_L=1e14, omega_T=2e14, gamma=1e11)
    with pytest.raises(ValueError):
        DielectricParams(eps_inf=6.7, omega_L=2e14, omega_T=1e14, gamma=0.0)
    with pytest.raises(ValueError):
        DielectricParams(eps_inf=0.5, omega_L=2e14, omega_T=1e14, gamma=1e11)


def test_particle_volume():
    p = ParticleSpec(radius=5e-9)
    assert p.volume == pytest.approx(4.0 * np.pi * (5e-9) ** 3 / 3.0, rel=1e-12, abs=0)
    assert p.volume == pytest.approx(5.23599e-25, rel=1e-5, abs=0)
    with pytest.raises(ValueError):
        ParticleSpec(radius=-1e-9)
    with pytest.raises(ValueError):
        ParticleSpec(polarizability_model="dipole")


@pytest.mark.parametrize("model", ["bare", "clausius_mossotti"])
def test_im_polarizability_odd(model):
    p = ParticleSpec(polarizability_model=model)
    rng = np.random.default_rng(7)
    w = rng.uniform(1e10, 5e15, size=100)
    assert np.allclose(im_polarizability(-w, p), -im_polarizability(w, p), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("model", ["bare", "clausius_mossotti"])
def test_im_polarizability_positive(model):
    p = ParticleSpec(polarizability_model=model)
    w = np.geomspace(1e8, 1e16, 300)
    assert np.all(im_polarizability(w, p) > 0.0)


def test_bare_value_at_resonance():
    p = ParticleSpec()
    expected = p.volume * SIC.eps_inf * (SIC.omega_L**2 - SIC.omega_T**2) / (SIC.gamma * SIC.omega_T)
    assert im_polarizability(SIC.omega_T, p) == pytest.approx(expected, rel=1e-12, abs=0)
    assert expected == pytest.approx(2.88e-22, rel=2e-3, abs=0)


def test_derivative_against_central_difference_single():
    p = ParticleSpec()
    w, h = 1e14, 1e8
    fd = (im_polarizability(w + h, p) - im_polarizability(w - h, p)) / (2.0 * h)
    assert d_im_polarizability(w, p) == pytest.approx(fd, rel=1e-6, abs=0)


@pytest.mark.parametrize("model", ["bare", "clausius_mossotti"])
def test_derivative_on_log_grid(model):
    # 20 log-spaced points over [1e10, 1e16]; relative step 1e-5 keeps the
    # truncation O(h^2) ~ 1e-10 and the rounding ~1e-11, both below 1e-6
    p = ParticleSpec(polarizability_model=model)
    for w in np.geomspace(1e10, 1e16, 20):
        h = 1e-5 * w
        fd = (im_polarizability(w + h, p) - im_polarizability(w - h, p)) / (2.0 * h)
        assert d_im_polarizability(w, p) == pytest.approx(fd, rel=1e-6, abs=0)


def test_derivative_even_and_positive_at_zero():
    p = ParticleSpec()
    rng = np.random.default_rng(3)
    w = rng.uniform(1e10, 5e15, size=50)
    assert np.allclose(d_im_polarizability(-w, p), d_im_polarizability(w, p), rtol=1e-12, atol=0.0)
    assert d_im_polarizability(0.0, p) > 0.0


def test_d_permittivity_matches_difference():
    # the quotient's rounding error, eps*|eps(w)|/h (1.2e-21 here), is 1.3e-7
    # of the real part; its O(h^2) truncation is some 1e-12 relative
    w, h = 3e14, 1e6
    fd = (permittivity(w + h) - permittivity(w - h)) / (2.0 * h)
    rounding = np.finfo(float).eps * abs(permittivity(w)) / h
    got = d_permittivity(w)
    assert got.real == pytest.approx(fd.real, rel=1e-8, abs=rounding)
    assert got.imag == pytest.approx(fd.imag, rel=1e-8, abs=rounding)
