import pytest

import nanospin.torque as torque_mod
from nanospin import ParticleSpec, QuadratureConfig, ThermalState


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts with no kept gamma_s or vacuum torque, so the
    integrals a test counts do not depend on the tests run before it."""
    torque_mod.clear_memo()


@pytest.fixture
def integrals(monkeypatch):
    """The (integrand, lockstep batch size or None) of every integral
    nanospin.torque runs during the test; the integrand is named by the
    function that builds its kernel."""
    seen = []
    real = torque_mod.integrate_with_diagnostics

    def counting(kernel, q, n=None):
        seen.append((kernel.__qualname__.split(".")[0], n))
        return real(kernel, q, n)

    monkeypatch.setattr(torque_mod, "integrate_with_diagnostics", counting)
    return seen


@pytest.fixture(scope="session")
def particle():
    return ParticleSpec()


@pytest.fixture(scope="session")
def thermal():
    return ThermalState()


@pytest.fixture(scope="session")
def quad():
    return QuadratureConfig()
