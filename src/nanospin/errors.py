"""Exception types shared across the package.

cli.main maps these onto exit codes: ConfigError (TailNotNegligibleError
included) -> 2, ConvergenceError -> 3, any other NanospinError
(PoleError, SmallSpinError) -> 2, and an OSError while reading or
writing files -> 4.
"""

from __future__ import annotations


class NanospinError(Exception):
    """Base class for all package errors."""


class ConfigError(NanospinError):
    """Invalid configuration: bad key, bad value, or violated constraint."""


class TailNotNegligibleError(ConfigError):
    """The integrand has not decayed at the upper cutoff.

    Raised when the kernel at omega_max exceeds 1e-12 of the peak kernel
    magnitude seen during integration. A configuration problem (the cutoff
    is too low for this kernel), hence a ConfigError subclass.
    """


class ConvergenceError(NanospinError):
    """Adaptive quadrature failed to reach tolerance, or a spin-up
    surrogate or time piece could not be certified."""

    def __init__(self, message: str, *, worst_panel: tuple[float, float] | None = None):
        super().__init__(message)
        self.worst_panel = worst_panel


class PoleError(NanospinError):
    """A thermal factor was evaluated at its omega = 0 pole."""


class SmallSpinError(NanospinError):
    """Direct torque evaluation requested in the cancellation-dominated regime.

    Below ~1e6 rad/s the frequency shifts are so small that binary64
    rounding in the shifted-argument differences exceeds the physical
    result. Callers should use the linearized coefficients instead, or
    pass the explicit override if they know the cancellation is benign
    (e.g. structural antisymmetry checks).
    """
