"""nanospin: non-contact friction torques and rotational synchronization
of a nanoparticle pair.

Library layout:
    material    oscillator permittivity, polarizability, particle specs
    greens      field propagator components between and at the sites
    quadrature  adaptive panel integration engine
    torque      vacuum drag, mutual drive, linearized coefficients
    dynamics    follower spin-up, synchronization measure and timing
    config      flat-JSON run configuration
    cli         run/sweep/coeffs commands and artifact writers
"""

from .config import RunConfig, SweepConfig, fingerprint, parse_config
from .dynamics import (
    Trajectory,
    coefficients_for,
    default_time_grid,
    delta_infinity,
    delta_measure,
    moment_of_inertia,
    solve_linear,
    solve_nonlinear,
    sync_time,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    NanospinError,
    PoleError,
    TailNotNegligibleError,
)
from .greens import abs2_transverse_sum, im_g_self_transverse_sum
from .material import (
    CONSTANTS,
    SIC,
    DielectricParams,
    ParticleSpec,
    PhysicalConstants,
    d_im_polarizability,
    im_polarizability,
    permittivity,
)
from .quadrature import IntegrationResult, QuadratureConfig, integrate, integrate_with_diagnostics
from .torque import (
    DEFAULT_COUPLING_SCALE,
    FrictionCoefficients,
    SpinPair,
    ThermalState,
    coth_factor,
    d_coth_factor,
    d_occupation,
    default_omega_max,
    friction_coefficients,
    gamma_b,
    gamma_s,
    mutual_torque,
    occupation,
    vacuum_torque,
)

__version__ = "0.1.0"
