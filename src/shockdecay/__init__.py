"""Decay of weak planar, cylindrical and spherical gasdynamic shocks.

Four approximation routes to the same decay laws — singular-surface
transport of ([p], [p_x]), weakly nonlinear wavefront fitting, simple
waves via Riemann invariants / relatively undistorted waves, and
characteristic-rule (CCW-type) shock dynamics — plus a CLI that
cross-validates them.
"""

from .ccw import CcwHistory, CcwVariant, g_classic, g_generalized, integrate_ccw
from .core import (
    GasParams,
    Geometry,
    JumpSet,
    jumps_from_mach,
    mach_from_p_jump,
    mu_nu,
    psi,
    ray_integral,
    ray_integral_inverse,
    ray_integral_leading,
)
from .errors import (
    BreakdownError,
    ConfigError,
    DomainError,
    FittingError,
    ShockError,
    SingularCoefficientError,
    SolverError,
    VacuumError,
)
from .transport import (
    AsymptoteConvention,
    FirstOrderCoefficients,
    Scenario,
    SecondOrderCoefficients,
    ShockHistory,
    TMatrix,
    asymptotic_law,
    breakdown_distance,
    closed_form,
    decay_slope,
    first_order_coefficients,
    integrate_truncated,
    leading_order_reference,
    second_order_coefficients,
    t_matrix,
    t_matrix_derivatives,
)
from .wavefront import (
    BoundaryPulse,
    FittedShock,
    fit_shock,
    formation_distance,
    ruw_state,
    simple_wave_u,
    wavelet_time,
    wngo_decay,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryPulse",
    "BreakdownError",
    "CcwHistory",
    "CcwVariant",
    "ConfigError",
    "DomainError",
    "FirstOrderCoefficients",
    "FittedShock",
    "FittingError",
    "GasParams",
    "Geometry",
    "JumpSet",
    "Scenario",
    "SecondOrderCoefficients",
    "ShockError",
    "ShockHistory",
    "SingularCoefficientError",
    "SolverError",
    "TMatrix",
    "VacuumError",
    "AsymptoteConvention",
    "asymptotic_law",
    "breakdown_distance",
    "closed_form",
    "decay_slope",
    "first_order_coefficients",
    "fit_shock",
    "formation_distance",
    "g_classic",
    "g_generalized",
    "integrate_ccw",
    "integrate_truncated",
    "jumps_from_mach",
    "leading_order_reference",
    "mach_from_p_jump",
    "mu_nu",
    "psi",
    "ray_integral",
    "ray_integral_inverse",
    "ray_integral_leading",
    "ruw_state",
    "second_order_coefficients",
    "simple_wave_u",
    "t_matrix",
    "t_matrix_derivatives",
    "wavelet_time",
    "wngo_decay",
]
