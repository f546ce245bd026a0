"""Singular-surface transport of shock strength and gradient jumps.

A shock of Mach number U at position x carries the pressure jump [p] and,
immediately behind it, a jump [p_x] in the pressure gradient.  Compatibility
of the governing equations across the moving surface yields two coupled
transport equations: one for [p] (coefficients k11, k12), and one for [p_x]
(coefficients k21..k24) whose source terms need the 2x2 matrix T that
reconstructs ([u_x], [rho_x]) from ([p_x], 1).

For a weak shock the pair ([p], [p_x]) obeys the truncated system

    d[p]/dx  = -(gamma+1)/4 * [p][p_x] - (j/2x) [p],
    d[p_x]/dx = -(gamma+1)/2 * [p_x]^2 - (j/2x) [p_x],

which integrates in closed form: with J(x) the ray integral and
I(x) = 1 + (gamma+1) k J(x) / 2,

    [p]   = h * I(x)**-0.5 * psi(x),
    [p_x] = k * I(x)**-1   * psi(x).

For k > 0 these decay; for k < 0 the gradient jump blows up at the finite
breakdown position x* where I(x*) = 0.
"""

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_X_END,
    GasParams,
    Geometry,
    _positions,
    as_scalar,
    check_x_end,
    far_field_gradient,
    mu_nu,
    psi,
    ray_integral,
    ray_integral_inverse,
    ray_integral_leading,
    write_csv,
)
from .errors import BreakdownError, DomainError


@dataclass(frozen=True)
class FirstOrderCoefficients:
    """Coefficients of d[p]/dx = k11*[p_x] + k12."""

    k11: float
    k12: float


@dataclass(frozen=True)
class TMatrix:
    """Entries of the matrix mapping ([p_x], 1) to ([u_x], [rho_x])."""

    t11: float
    t12: float
    t21: float
    t22: float


@dataclass(frozen=True)
class SecondOrderCoefficients:
    """Coefficients of d[p_x]/dx + k21*[p_xx] + k22*[p_x]^2 + k23*[p_x] + k24 = 0."""

    k21: float
    k22: float
    k23: float
    k24: float
    eta: float


def _front_state(U, gas, j, x=1.0):
    """Validated (omega, mu, nu, D, k11, k12) of a front of Mach number U.

    omega = j/x is the front curvature; first_order_coefficients, which is
    given omega itself, passes it as j with x = 1.  k12 takes the reduced
    form k11 * 2 nu omega/(gamma+1)^2.
    """
    _positions(x)
    omega = j / x
    if not 0.0 <= omega < math.inf:
        raise DomainError("curvature j/x must be finite and >= 0")
    mu, nu = mu_nu(U, gas)  # checks U
    D = U * U * (2.0 * mu + nu) + nu
    k11 = -2.0 * (U * U - 1.0) * mu / D
    return omega, mu, nu, D, k11, k11 * 2.0 * nu * omega / (gas.gamma + 1.0) ** 2


def first_order_coefficients(U, gas=GasParams(), omega=0.0):
    """Transport coefficients for the shock-strength equation.

    U: shock Mach number (>= 1); omega: front curvature j/x (>= 0).
    """
    *_, k11, k12 = _front_state(U, gas, omega)
    return FirstOrderCoefficients(k11, k12)


def _gradient_map(U, gas, geom, x):
    """Front state, T, and (dT11/dU, dT12/dU at fixed x, dT12/dx at fixed U)."""
    state = _front_state(U, gas, geom.j, x)
    if U == 1.0 and geom.j == 0:  # exact weak limits, which the general forms miss by an ulp
        return state, TMatrix(1.0, 0.0, 1.0, 0.0), (-2.0, 0.0, 0.0)
    omega, mu, nu, D, k11, k12 = state
    g = gas.gamma
    dmu = 2.0 * (g - 1.0) * U
    dnu = 4.0 * g * U
    dD = 2.0 * U * (2.0 * mu + nu) + U * U * (2.0 * dmu + dnu) + dnu
    dk11 = (
        -2.0
        * ((2.0 * U * mu + (U * U - 1.0) * dmu) * D - (U * U - 1.0) * mu * dD)
        / D**2
    )
    # t11 = N/M with N = mu - (g+1) k11 U^2 and M = nu U
    N = mu - (g + 1.0) * k11 * U * U
    M = nu * U
    dN = dmu - (g + 1.0) * (dk11 * U * U + 2.0 * U * k11)
    dM = dnu * U + nu
    # t12 = f(U) * omega with f = -2 (U^4 - 1) nu / ((g+1) U D)
    f = -2.0 * (U**4 - 1.0) * nu / ((g + 1.0) * U * D)
    df = (
        -2.0
        * (
            (4.0 * U**3 * nu + (U**4 - 1.0) * dnu) * (U * D)
            - (U**4 - 1.0) * nu * (D + U * dD)
        )
        / ((g + 1.0) * (U * D) ** 2)
    )
    t21 = (
        (g + 1.0) ** 2
        * U
        * U
        * (mu * mu - (g + 1.0) * (mu * U * U - nu) * k11)
        / (nu * mu**3)
    )
    t22 = (
        U
        * U
        * (g + 1.0)
        * ((g + 1.0) ** 2 * (U * U + 3.0) * k12 + 4.0 * mu * (U * U - 1.0) * omega)
        / (2.0 * mu**3)
    )
    T = TMatrix(N / M, f * omega, t21, t22)
    return state, T, ((dN * M - N * dM) / M**2, df * omega, f * (-geom.j / x**2))


def t_matrix(U, gas=GasParams(), geom=Geometry(0), x=1.0):
    """Gradient-reconstruction matrix at shock state (U, x).

    The entries are the unique ones for which ([u_x], [rho_x]) built from
    ([p_x], 1) closes the three governing jump equations; the test suite
    checks that residual directly.  t12 is evaluated in the reduced form
    -2*nu*(U^4-1)*Omega / ((gamma+1)*U*D), which removes the spurious
    0/0 of the raw k12/k11 quotient as U -> 1.
    """
    return _gradient_map(U, gas, geom, x)[1]


def t_matrix_derivatives(U, gas=GasParams(), geom=Geometry(0), x=1.0):
    """Analytic (dT11/dU, dT12/dU at fixed x, dT12/dx at fixed U)."""
    return _gradient_map(U, gas, geom, x)[2]


def second_order_coefficients(U, gas=GasParams(), geom=Geometry(0), x=1.0):
    """Transport coefficients for the gradient-jump equation.

    The derivative terms inside k22..k24 use the analytic expressions of
    t_matrix_derivatives; the k12/k11 quotient is evaluated in the reduced
    form 2*nu*Omega/(gamma+1)^2 which stays finite as U -> 1.
    """
    (omega, mu, nu, _, k11, k12), tm, (dt11, dt12_dU, dt12_dx) = _gradient_map(U, gas, geom, x)
    g = gas.gamma
    if U == 1.0 and geom.j == 0:
        return SecondOrderCoefficients(0.0, 0.5 * (g + 1.0), 0.0, 0.0, 0.5)
    omega_prime = -geom.j / x**2
    ratio = 2.0 * nu * omega / (g + 1.0) ** 2  # k12/k11, reduced
    eta = mu / (2.0 * mu - (g + 1.0) * U * k11)
    k21 = (U * U - 1.0) * eta / (U * U)
    k22 = ((g + 1.0) * eta / (U * mu)) * (
        tm.t11 * (mu + nu * U * tm.t11 / (g + 1.0)) + (nu * k11 / 4.0) * dt11
    ) - mu * nu * eta * tm.t21 / ((g + 1.0) ** 2 * U**4)
    k23 = (
        (tm.t12 * eta / mu) * (mu * (g + 1.0) + 2.0 * nu * U * tm.t11) / U
        + eta * omega * (g + 1.0) / U * (nu * tm.t11 + (2.0 * g / U) * (U * U - 1.0))
        - mu * nu * eta * tm.t22 / (U**4 * (g + 1.0) ** 2)
        + (eta * nu * k11 / (4.0 * mu))
        * ((g + 1.0) / U)
        * (ratio * dt11 + dt12_dU)
    )
    k24 = (
        2.0 * eta * (nu / (U * U)) * (U * U - 1.0) * omega_prime / (g + 1.0) ** 2
        + eta * nu * tm.t12 * omega / (U * (g + 1.0))
        + (nu * eta / mu)
        * (tm.t12**2 + U * dt12_dx + (g + 1.0) * (k12 / (4.0 * U)) * dt12_dU)
    )
    return SecondOrderCoefficients(k21, k22, k23, k24, eta)


class AsymptoteConvention(enum.Enum):
    """How the reference columns of a ShockHistory are evaluated.

    LEADING keeps the closed form but replaces the ray integral J(x) by its
    large-x leading part (x, 2*sqrt(x), log x); POWER_LAW uses the bare
    power-law limits of asymptotic_law.  LEADING is the default because it
    reproduces the bundled reference-error table far more closely.
    """

    LEADING = "leading"
    POWER_LAW = "power-law"


@dataclass(frozen=True)
class Scenario:
    """Initial data and integration window for the truncated weak system.

    h, k: pressure jump and gradient jump at x = 1; x_end: final position.
    """

    gas: GasParams = GasParams()
    geom: Geometry = Geometry(0)
    h: float = 0.1
    k: float = 1.0
    x_end: float = 100.0

    def __post_init__(self):
        check_x_end(self.x_end)
        _finite_jumps(self.h, self.k)
        if self.h < 0.0:
            raise DomainError("initial pressure jump h must be >= 0 (compressive)")
        growth = 0.5 * (self.gas.gamma + 1.0) * self.k * ray_integral(self.x_end, self.geom)
        if not math.isfinite(growth):  # I(x) of the closed form would overflow
            raise DomainError(
                f"(gamma+1) k J(x_end)/2 overflows for gamma = {self.gas.gamma}, k = {self.k}"
            )
        if self.h > 0.5:
            warnings.warn(
                f"initial jump h = {self.h} is outside the weak-shock regime",
                stacklevel=2,
            )


CSV_HEADER = "x,p_jump,px_jump,p_asym,px_asym,p_err,px_err"


@dataclass(frozen=True)
class ShockHistory:
    """Sampled decay history of ([p], [p_x]) with attached reference values.

    breakdown is the blow-up position recorded when the gradient jump
    diverged before x_end (possible only for k < 0), else None.
    """

    x: np.ndarray
    p_jump: np.ndarray
    px_jump: np.ndarray
    p_asym: np.ndarray
    px_asym: np.ndarray
    p_err: np.ndarray
    px_err: np.ndarray
    breakdown: float = None

    def to_csv(self, path):
        """Write the history as CSV with 17-significant-digit floats."""
        write_csv(path, CSV_HEADER, [getattr(self, name) for name in CSV_HEADER.split(",")])

    @classmethod
    def from_csv(cls, path):
        data = np.genfromtxt(path, delimiter=",", names=True)
        data = np.atleast_1d(data)
        cols = [data[name] for name in data.dtype.names]
        return cls(*[np.asarray(c, dtype=float) for c in cols])


def _finite_jumps(h, k):
    """Raise DomainError unless the initial jumps h and k are finite."""
    if not math.isfinite(h):
        raise DomainError(f"initial pressure jump h must be finite, got {h}")
    if not math.isfinite(k):
        raise DomainError(f"initial gradient jump k must be finite, got {k}")


def _closed_form(x, h, k, gas, geom, ray):
    """([p], [p_x]) of the truncated system for the ray integral ``ray``,
    or None once 1 + (gamma+1) k ray(x)/2 reaches zero."""
    _finite_jumps(h, k)
    x = np.asarray(x, dtype=float)
    I = 1.0 + 0.5 * (gas.gamma + 1.0) * k * ray(x, geom)
    if np.any(I <= 0.0):
        return None
    shape = psi(x, geom)
    return as_scalar(h / np.sqrt(I) * shape, k / I * shape)


def closed_form(x, h, k, gas=GasParams(), geom=Geometry(0)):
    """Exact ([p], [p_x]) of the truncated weak system at position x.

    Raises BreakdownError once 1 + (gamma+1) k J(x)/2 reaches zero.
    """
    out = _closed_form(x, h, k, gas, geom, ray_integral)
    if out is None:
        raise BreakdownError(
            f"gradient jump blew up before x = {np.max(x)}; "
            f"breakdown at x* = {breakdown_distance(h, k, gas, geom)}"
        )
    return out


def leading_order_reference(x, h, k, gas=GasParams(), geom=Geometry(0)):
    """Closed form with the ray integral replaced by its leading part."""
    out = _closed_form(x, h, k, gas, geom, ray_integral_leading)
    if out is None:
        raise BreakdownError("leading-order reference ceased to exist")
    return out


def asymptotic_law(x, h, k, gas=GasParams(), geom=Geometry(0)):
    """Pure large-x decay laws of ([p], [p_x]) for k > 0.

    With J_lead the leading part of the ray integral (x, 2 sqrt(x), log x):
    [p]   ~ h sqrt(2/((gamma+1)k)) * psi / sqrt(J_lead),
    [p_x] ~ 2/(gamma+1) * psi / J_lead  -- no h dependence.
    """
    _finite_jumps(h, k)
    if not k > 0.0:
        raise DomainError("decay asymptotes require a positive gradient jump k")
    x = np.asarray(x, dtype=float)
    # Python floats: an overflow gives inf quietly, caught just below.
    amp = float(h) * math.sqrt(2.0 / ((float(gas.gamma) + 1.0) * float(k)))
    if not math.isfinite(amp):
        raise DomainError(f"decay amplitude h*sqrt(2/((gamma+1)k)) overflows for k = {k}")
    with np.errstate(divide="ignore"):
        p = amp * psi(x, geom) / np.sqrt(ray_integral_leading(x, geom))
        px = far_field_gradient(x, gas, geom)
    return as_scalar(p, px)


def breakdown_distance(h, k, gas=GasParams(), geom=Geometry(0)):
    """Blow-up position x* with I(x*) = 0, or None when k >= 0; DomainError past MAX_X_END."""
    _finite_jumps(h, k)
    if k >= 0.0:
        return None
    J_star = -2.0 / ((gas.gamma + 1.0) * k)
    if not J_star <= ray_integral(MAX_X_END, geom):
        raise DomainError(f"the gradient jump blows up beyond x = {MAX_X_END:g}")
    return ray_integral_inverse(J_star, geom)


# Abscissae and reference absolute errors for the two standard parameter
# sets (gamma = 1.4, planar): set A is (h, k) = (0.32, 10), set B is
# (0.32, 0.28).  Used by the table1 command and the regression tests.
REFERENCE_X = np.array(
    [1.476, 4.565, 7.668, 9.563, 13.3, 27.95, 45.57, 65.31, 76.04, 86.34, 96.35, 99.95, 100.0]
)


@dataclass(frozen=True)
class ReferenceCase:
    h: float
    k: float
    p_err: tuple
    px_err: tuple


REFERENCE_CASES = (
    ReferenceCase(
        h=0.32,
        k=10.0,
        p_err=(
            4.332e-2, 4.827e-3, 2.076e-3, 1.464e-3, 8.752e-4, 2.798e-4,
            1.332e-4, 7.732e-5, 6.145e-5, 5.075e-5, 4.301e-5, 4.07e-5, 4.067e-5,
        ),
        px_err=(
            9.545e-1, 4.914e-2, 1.593e-2, 9.990e-3, 5.032e-3, 1.100e-3,
            4.088e-4, 1.979e-4, 1.457e-4, 1.129e-4, 9.054e-5, 8.411e-5, 8.403e-5,
        ),
    ),
    ReferenceCase(
        h=0.32,
        k=0.28,
        p_err=(
            3.374e-2, 1.317e-2, 7.448e-3, 5.675e-3, 3.711e-3, 1.373e-3,
            6.879e-4, 4.078e-4, 3.271e-4, 2.716e-4, 2.311e-4, 2.205e-4, 2.190e-4,
        ),
        px_err=(
            6.752e-2, 1.885e-2, 8.723e-3, 6.133e-3, 3.482e-3, 9.242e-4,
            3.678e-4, 1.832e-4, 1.366e-4, 1.065e-4, 8.591e-5, 8.072e-5, 7.994e-5,
        ),
    ),
)


def _sample_grid(x_end, n_samples):
    """Log-spaced samples on [1, x_end] merged with the reference abscissae."""
    xs = np.geomspace(1.0, x_end, n_samples)
    marks = REFERENCE_X[REFERENCE_X <= x_end]
    return np.unique(np.concatenate(([1.0], xs, marks, [x_end])))


def integrate_truncated(scen, convention=AsymptoteConvention.LEADING, n_samples=200):
    """Sample the truncated weak system over [1, x_end] from its closed form.

    Reference (asymptote) and error columns are attached per `convention`
    when k > 0 and are NaN otherwise.  For k < 0 the history stops at the
    last sample where I(x) > 0; when that drops any sample, the breakdown
    position x* with I(x*) = 0 is recorded as breakdown.
    """
    xs = _sample_grid(scen.x_end, n_samples)
    # I(x) exactly as _closed_form evaluates it, so no kept sample raises.
    I = 1.0 + 0.5 * (scen.gas.gamma + 1.0) * scen.k * ray_integral(xs, scen.geom)
    x = xs[I > 0.0]
    p, px = closed_form(x, scen.h, scen.k, scen.gas, scen.geom)
    breakdown = None
    if x.size < xs.size:  # I reached zero at or before x_end
        breakdown = breakdown_distance(scen.h, scen.k, scen.gas, scen.geom)
    if scen.k > 0.0:
        if convention is AsymptoteConvention.LEADING:
            p_ref, px_ref = leading_order_reference(x, scen.h, scen.k, scen.gas, scen.geom)
        else:
            p_ref, px_ref = asymptotic_law(x, scen.h, scen.k, scen.gas, scen.geom)
    else:
        p_ref = np.full_like(x, np.nan)
        px_ref = np.full_like(x, np.nan)
    return ShockHistory(
        x=x,
        p_jump=p,
        px_jump=px,
        p_asym=p_ref,
        px_asym=px_ref,
        p_err=np.abs(p - p_ref),
        px_err=np.abs(px - px_ref),
        breakdown=breakdown,
    )


def decay_slope(x, y):
    """Least-squares slope of log y against log x at positions x >= 1.

    Samples where y is not positive and finite are skipped.
    """
    x = _positions(x)
    y = np.asarray(y, dtype=float)
    keep = (y > 0.0) & np.isfinite(y)
    if keep.sum() < 2:
        raise DomainError("need at least two positive samples to fit a slope")
    X, Y = np.log(x[keep]), np.log(y[keep])
    X -= X.mean()
    return float(np.dot(X, Y - Y.mean()) / np.dot(X, X))
