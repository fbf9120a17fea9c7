"""Dielectric model and polarizability checks.

Expected numbers come from closed-form limits of the oscillator
expression (static value, resonance peak, high-frequency tail), not from
the implementation under test.
"""

import numpy as np
import pytest

from nanospin import SIC, DielectricParams, ParticleSpec, d_im_polarizability, im_polarizability, permittivity
from nanospin.material import lorentzian


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


@pytest.mark.parametrize("density", [0.0, -3210.0])
def test_nonpositive_mass_density_rejected(density):
    with pytest.raises(ValueError, match="mass_density > 0"):
        ParticleSpec(mass_density=density)


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


@pytest.mark.parametrize("model", ["bare", "clausius_mossotti"])
def test_closed_forms_match_the_complex_expressions(model):
    # the references are Im of the complex model expressions built from
    # permittivity, and their derivative from eps' = eps_inf*D*(2w + i*G)/den^2
    p = ParticleSpec(polarizability_model=model)
    w = np.geomspace(1e12, 1e15, 400)
    eps = permittivity(w)
    den = SIC.omega_T**2 - w * w - 1j * SIC.gamma * w
    d_eps = SIC.eps_inf * (SIC.omega_L**2 - SIC.omega_T**2) * (2.0 * w + 1j * SIC.gamma) / den**2
    if model == "bare":
        alpha, d_alpha = p.volume * (eps - 1.0), p.volume * d_eps
    else:
        alpha, d_alpha = 3.0 * p.volume * (eps - 1.0) / (eps + 2.0), 9.0 * p.volume * d_eps / (eps + 2.0) ** 2
    assert np.max(np.abs(im_polarizability(w, p) / alpha.imag - 1.0)) <= 1e-12
    assert np.max(np.abs(d_im_polarizability(w, p) - d_alpha.imag)) <= 1e-12 * np.max(np.abs(d_alpha.imag))


def test_clausius_mossotti_peaks_at_the_froehlich_frequency():
    # omega0^2 = omega_T^2 + eps_inf*(omega_L^2 - omega_T^2)/(eps_inf + 2),
    # where the sphere's Re eps = -2 up to the damping
    omega0 = lorentzian(ParticleSpec(polarizability_model="clausius_mossotti"))[1]
    assert omega0 == pytest.approx(1.7525e14, rel=1e-4, abs=0)
    assert permittivity(omega0).real == pytest.approx(-2.0, abs=0.01)
    assert lorentzian(ParticleSpec())[1] == SIC.omega_T
