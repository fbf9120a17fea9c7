import numpy as np
import pytest

import nanospin.torque as torque_mod
from nanospin import ParticleSpec, QuadratureConfig, ThermalState

# Below this magnitude pytest.approx's default abs of 1e-12 is what decides,
# so an expected value there must state its own abs.
APPROX_ABS_REQUIRED_BELOW = 1e-9

_approx = pytest.approx


def approx_stating_abs(expected, rel=None, abs=None, nan_ok=False):
    """pytest.approx that refuses a numeric expected value with an element
    under APPROX_ABS_REQUIRED_BELOW in magnitude and no abs: with pytest's
    default abs of 1e-12, `0.0 == pytest.approx(1.15e-43, rel=1e-5)` holds."""
    if abs is None:
        magnitudes = np.abs(np.asarray(expected, dtype=float))
        if np.any(magnitudes < APPROX_ABS_REQUIRED_BELOW):
            pytest.fail(
                f"pytest.approx({expected!r}, rel={rel!r}) compares a value under "
                f"{APPROX_ABS_REQUIRED_BELOW:g} with no abs: pass abs=0 or one from the quantity's scale"
            )
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


@pytest.fixture(autouse=True)
def approx_needs_abs_for_small_values(monkeypatch):
    monkeypatch.setattr(pytest, "approx", approx_stating_abs)


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts with no kept gamma_s or vacuum torque, so the
    integrals a test counts do not depend on the tests run before it."""
    torque_mod.clear_memo()


@pytest.fixture
def integrals(monkeypatch):
    """The (integrand, lockstep batch size) of every integral
    nanospin.torque runs during the test; the integrand is named by the
    batch function that defines its kernel: _vacuum_slopes (gamma_s is
    its batch of one at spin 0), _gap_moments or _mutual_torques."""
    seen = []
    real = torque_mod.integrate_with_diagnostics

    def counting(kernel, q, n=None, **kwargs):
        seen.append((kernel.__qualname__.split(".")[0], n))
        return real(kernel, q, n, **kwargs)

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
