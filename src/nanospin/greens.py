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

from dataclasses import dataclass

import numpy as np

from .material import CONSTANTS

__all__ = [
    "Geometry",
    "abs2_transverse_sum",
    "im_g_transverse_scaled",
    "im_g_self_transverse_sum",
]


@dataclass(frozen=True)
class Geometry:
    """Separation d > 0 of the two particles along the z axis."""

    distance: float

    def __post_init__(self) -> None:
        if not self.distance > 0.0:
            raise ValueError("require distance > 0")


def _wavenumber(omega):
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("require omega > 0 (k^2 division)")
    return w / CONSTANTS.c


def abs2_transverse_sum(d, omega):
    """2|g_t|^2 via the closed-form modulus (no complex arithmetic).

    |e^{ikd}(k^2d^2 + ikd - 1)|^2 = (kd)^4 - (kd)^2 + 1; the quadratic in
    (kd)^2 has negative discriminant, so the value is strictly positive,
    and it is strictly decreasing in d at every frequency. d may be an
    array that broadcasts against omega, such as one distance per row.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("require d > 0")
    k = _wavenumber(omega)
    u = (k * d) ** 2
    # Python's float power, one distance at a time: numpy's array power
    # can differ in the last bit, and a row of a batch must reproduce the
    # value for its distance alone
    d6 = np.reshape([x**6 for x in d.ravel().tolist()], d.shape)
    return 2.0 * (u * u - u + 1.0) / (k**4 * d6)


def im_g_transverse_scaled(x):
    """Im g_t at kd = x in units of k, i.e. Im[g_t]/k, cancellation-safe.

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


def im_g_self_transverse_sum(omega):
    """Coincident-point Im[g_xx + g_yy] = 4 w / (3 c), the x -> 0 limit
    of 2 k * im_g_transverse_scaled(x)."""
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("require omega > 0")
    out = 4.0 * w / (3.0 * CONSTANTS.c)
    return out if out.ndim else float(out)
