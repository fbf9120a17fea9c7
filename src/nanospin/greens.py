"""Field propagator components for two sites on the z axis, plus the
coincident-point (self) imaginary part that drives vacuum drag.

Conventions: k = omega/c, x = k*d. The transverse (xx = yy) component is

    g_t(d, w) = e^{ikd} (k^2 d^2 + i k d - 1) / (d^3 k^2)

and the longitudinal one

    g_z(d, w) = 2 e^{ikd} (1 - i k d) / (d^3 k^2).

Torque integrands only ever need 2|g_t|^2, which has the closed form
2 (x^4 - x^2 + 1) / (k^4 d^6); that path avoids the complex exponential
and the small-x cancellation entirely, so the complex components
themselves are not part of the library.
"""

from __future__ import annotations

import numpy as np

from .material import CONSTANTS

__all__ = [
    "abs2_transverse_sum",
    "im_g_self_transverse_sum",
]


def _wavenumber(omega):
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("require omega > 0 (k^2 division)")
    return w / CONSTANTS.c


def abs2_transverse_sum(d: float, omega):
    """2|g_t|^2 via the closed-form modulus (no complex arithmetic).

    |e^{ikd}(k^2d^2 + ikd - 1)|^2 = (kd)^4 - (kd)^2 + 1; the quadratic in
    (kd)^2 has negative discriminant, so the value is strictly positive,
    and it is strictly decreasing in d at every frequency.
    """
    if not d > 0.0:
        raise ValueError("require d > 0")
    u = (_wavenumber(omega) * d) ** 2
    return 2.0 * (u * u - u + 1.0) / (u * u * (d * d))  # k^4 d^6 = u^2 d^2


def im_g_self_transverse_sum(omega):
    """Coincident-point Im[g_xx + g_yy] = 4 w / (3 c): Im[g_t]/k tends to
    2/3 as kd -> 0."""
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("require omega > 0")
    out = 4.0 * w / (3.0 * CONSTANTS.c)
    return out if out.ndim else float(out)
