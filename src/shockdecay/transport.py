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
    _RAYS,
    MAX_X_END,  # unused here, but kept importable from transport
    GasParams,
    Geometry,
    _breaking_position,
    _floats,
    _is_real,
    _machs,
    _positions,
    _psi,
    as_scalar,
    check_samples,
    check_x_end,
    log_grid,
    write_csv,
)
from .errors import BreakdownError, DomainError


@dataclass(frozen=True)
class FirstOrderCoefficients:
    """Coefficients of d[p]/dx = k11*[p_x] + k12."""

    k11: float
    k12: float


@dataclass(frozen=True)
class SecondOrderCoefficients:
    """Coefficients of d[p_x]/dx + k21*[p_xx] + k22*[p_x]^2 + k23*[p_x] + k24 = 0."""

    k21: float
    k22: float
    k23: float
    k24: float
    eta: float


# Largest Mach number the coefficient functions accept.  The kernel's
# largest products, (U D)^2 and the numerator of dT12/dU, grow like U^10
# times a power of gamma.  Against a 50-digit evaluation the first wrong
# output lies near 4.9e30 as gamma -> 1, 3.7e30 at gamma = 3 and 2.1e30 at
# gamma = 20; at 1e30 every output is right for gamma up to about 210.
MAX_COEFFICIENT_MACH = 1e30


def _coefficients(m, g, j, x):
    """Coefficients of the transport pair for a front with U^2 - 1 = m.

    Plain floats, unchecked: m >= 0, gamma g, curvature omega = j/x at
    position x.  Returns k11, k12, T = (t11, t12, t21, t22), the matrix
    mapping ([p_x], 1) to ([u_x], [rho_x]), dT = (dT11/dU, dT12/dU at fixed
    x, dT12/dx at fixed U), and (k21, k22, k23, k24, eta).  With
    mu = (g+1) + (g-1) m, nu = (g+1) + 2 g m and D = U^2 (2 mu + nu) + nu,
    k11 = -2 m mu / D and k12/k11 = 2 nu omega/(g+1)^2; t12 takes the reduced
    form -2 nu (U^4 - 1) omega / ((g+1) U D), U^4 - 1 = m (2 + m), which has
    no 0/0 as m -> 0.  Powers are written as products: a float product
    overflows to inf, where ** raises OverflowError.
    """
    gp = g + 1.0
    if m == 0.0 and j == 0:  # the exact planar weak limits, which the general forms miss by ulps
        return 0.0, 0.0, (1.0, 0.0, 1.0, 0.0), (-2.0, 0.0, 0.0), (0.0, 0.5 * gp, 0.0, 0.0, 0.5)
    w, U = 1.0 + m, math.sqrt(1.0 + m)  # U^2, U
    omega, omega_prime = j / x, -j / (x * x)
    mu, nu = gp + (g - 1.0) * m, gp + 2.0 * g * m
    D = w * (2.0 * mu + nu) + nu
    k11 = -2.0 * m * mu / D
    ratio = 2.0 * nu * omega / (gp * gp)  # k12/k11, reduced
    k12 = k11 * ratio
    dmu, dnu = 2.0 * (g - 1.0) * U, 4.0 * g * U
    dD = 2.0 * U * (2.0 * mu + nu) + w * (2.0 * dmu + dnu) + dnu
    dk11 = -2.0 * ((2.0 * U * mu + m * dmu) * D - m * mu * dD) / (D * D)
    # t11 = N/M with N = mu - (g+1) k11 U^2 and M = nu U
    N, M = mu - gp * k11 * w, nu * U
    dN = dmu - gp * (dk11 * w + 2.0 * U * k11)
    dM = dnu * U + nu
    # t12 = f(U) omega
    q, UD = m * (2.0 + m), U * D
    f = -2.0 * q * nu / (gp * UD)
    df = -2.0 * ((4.0 * U * w * nu + q * dnu) * UD - q * nu * (D + U * dD)) / (gp * UD * UD)
    t11, t12 = N / M, f * omega
    mu3 = mu * mu * mu
    t21 = gp * gp * w * (mu * mu - gp * (mu * w - nu) * k11) / (nu * mu3)
    t22 = w * gp * (gp * gp * (w + 3.0) * k12 + 4.0 * mu * m * omega) / (2.0 * mu3)
    dt11, dt12_dU, dt12_dx = (dN * M - N * dM) / (M * M), df * omega, f * omega_prime
    eta = mu / (2.0 * mu - gp * U * k11)
    k21 = m * eta / w
    k22 = (gp * eta / (U * mu)) * (
        t11 * (mu + nu * U * t11 / gp) + (nu * k11 / 4.0) * dt11
    ) - mu * nu * eta * t21 / (gp * gp * w * w)
    k23 = (
        (t12 * eta / mu) * (mu * gp + 2.0 * nu * U * t11) / U
        + eta * omega * gp / U * (nu * t11 + (2.0 * g / U) * m)
        - mu * nu * eta * t22 / (w * w * gp * gp)
        + (eta * nu * k11 / (4.0 * mu)) * (gp / U) * (ratio * dt11 + dt12_dU)
    )
    k24 = (
        2.0 * eta * (nu / w) * m * omega_prime / (gp * gp)
        + eta * nu * t12 * omega / (U * gp)
        + (nu * eta / mu) * (t12 * t12 + U * dt12_dx + gp * (k12 / (4.0 * U)) * dt12_dU)
    )
    return k11, k12, (t11, t12, t21, t22), (dt11, dt12_dU, dt12_dx), (k21, k22, k23, k24, eta)


def _checked_coefficients(U, gas, j, x, part):
    """_coefficients(...)[part] at U in [1, MAX_COEFFICIENT_MACH], x >= 1, j/x >= 0, all finite."""
    x = float(_positions(x))
    if not 0.0 <= j / x < math.inf:
        raise DomainError("curvature j/x must be finite and >= 0")
    U = float(_machs(U, MAX_COEFFICIENT_MACH))
    out = _coefficients(U * U - 1.0, float(gas.gamma), j, x)[part]
    if not all(map(math.isfinite, out)):
        raise DomainError(f"a coefficient overflows a float at U = {U}, j/x = {j / x}")
    return out


def first_order_coefficients(U, gas=GasParams(), omega=0.0):
    """Transport coefficients for the shock-strength equation.

    U: shock Mach number in [1, MAX_COEFFICIENT_MACH]; omega: front
    curvature j/x (>= 0).
    """
    return FirstOrderCoefficients(*_checked_coefficients(U, gas, omega, 1.0, slice(2)))


def second_order_coefficients(U, gas=GasParams(), geom=Geometry(0), x=1.0):
    """Transport coefficients for the gradient-jump equation.

    The derivative terms inside k22..k24 use the analytic derivatives of T;
    the k12/k11 quotient is evaluated in the reduced form 2 nu Omega/(gamma+1)^2,
    which stays finite as U -> 1.  k23 is the printed one (README, "Known
    deviations").
    """
    return SecondOrderCoefficients(*_checked_coefficients(U, gas, geom.j, x, 4))


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
        # x_end is checked above; in Python floats an overflow gives inf quietly.
        J_end = float(_RAYS[self.geom.j][0](float(self.x_end)))
        growth = 0.5 * (self.gas.gamma + 1.0) * self.k * J_end
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
    """Raise DomainError unless the initial jumps h and k are finite real numbers."""
    for name, v in (("pressure jump h", h), ("gradient jump k", k)):
        if not (_is_real(v) and math.isfinite(v)):
            raise DomainError(f"initial {name} must be finite, got {v}")


def _closed_form_jumps(x, h, k, gas, geom, leading=False):
    """([p], [p_x]) of the truncated system at a checked position array x, with
    the full (or leading) ray integral; None once 1 + (gamma+1) k J(x)/2 reaches zero."""
    I = 1.0 + 0.5 * (gas.gamma + 1.0) * k * _RAYS[geom.j][leading](x)
    if np.any(I <= 0.0):
        return None
    shape = _psi(x, geom.j)
    return h / np.sqrt(I) * shape, k / I * shape


def _checked_jumps(x, h, k, gas, geom, leading):
    """_closed_form_jumps of positions x and jumps (h, k), checked; DomainError where
    (gamma+1) k J(x)/2 or [p] overflows.  [p_x] = k psi/I cannot: I nears 0 only where
    (gamma+1) |k| J/2 ~ 1, and J >= 2e-16 wherever it is not 0 bounds |k| there."""
    _finite_jumps(h, k)
    x = _positions(x)
    # J grows with x, so the largest term sits at the largest x; Python floats overflow quietly.
    J_max = float(_RAYS[geom.j][leading](float(x.max()))) if x.size else 0.0
    if not math.isfinite(0.5 * (float(gas.gamma) + 1.0) * float(k) * J_max):
        raise DomainError(f"(gamma+1) k J(x)/2 overflows for gamma = {gas.gamma}, k = {k}")
    with np.errstate(over="ignore"):  # h/sqrt(I) overflows as I(x) nears 0, refused below
        out = _closed_form_jumps(x, h, k, gas, geom, leading)
    if out is not None and not np.isfinite(out[0]).all():
        raise DomainError(f"[p] overflows a float for h = {h}, k = {k}")
    return out


def closed_form(x, h, k, gas=GasParams(), geom=Geometry(0)):
    """Exact ([p], [p_x]) of the truncated weak system at position x.

    Raises BreakdownError once 1 + (gamma+1) k J(x)/2 reaches zero.
    """
    out = _checked_jumps(x, h, k, gas, geom, leading=False)
    if out is None:
        raise BreakdownError(
            f"gradient jump blew up before x = {np.max(x)}; "
            f"breakdown at x* = {breakdown_distance(h, k, gas, geom)}"
        )
    return as_scalar(*out)


def leading_order_reference(x, h, k, gas=GasParams(), geom=Geometry(0)):
    """Closed form with the ray integral replaced by its leading part."""
    out = _checked_jumps(x, h, k, gas, geom, leading=True)
    if out is None:
        raise BreakdownError("leading-order reference ceased to exist")
    return as_scalar(*out)


def asymptotic_law(x, h, k, gas=GasParams(), geom=Geometry(0)):
    """Pure large-x decay laws of ([p], [p_x]) for k > 0.

    With J_lead the leading part of the ray integral (x, 2 sqrt(x), log x):
    [p]   ~ h sqrt(2/((gamma+1)k)) * psi / sqrt(J_lead),
    [p_x] ~ 2/(gamma+1) * psi / J_lead  -- no h dependence.
    """
    _finite_jumps(h, k)
    if not k > 0.0:
        raise DomainError("decay asymptotes require a positive gradient jump k")
    # Python floats: an overflow gives inf quietly, caught just below.
    amp = float(h) * math.sqrt(2.0 / ((float(gas.gamma) + 1.0) * float(k)))
    if not math.isfinite(amp):
        raise DomainError(f"decay amplitude h*sqrt(2/((gamma+1)k)) overflows for k = {k}")
    x = _positions(x)
    psi_x, J_lead = _psi(x, geom.j), _RAYS[geom.j][1](x)
    with np.errstate(divide="ignore"):  # a spherical J_lead is 0 at x = 1
        p = amp * psi_x / np.sqrt(J_lead)
        px = 2.0 / (gas.gamma + 1.0) * (psi_x / J_lead)  # the far-field gradient, as wngo_decay's
    return as_scalar(p, px)


def breakdown_distance(h, k, gas=GasParams(), geom=Geometry(0)):
    """Blow-up position x* with I(x*) = 0, or None when k >= 0; DomainError past MAX_X_END."""
    _finite_jumps(h, k)
    if k >= 0.0:
        return None
    return _breaking_position(-k, gas, geom.j, "the gradient jump blows up")


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


def integrate_truncated(scen, convention=AsymptoteConvention.LEADING, n_samples=200):
    """Sample the truncated weak system over [1, x_end] from its closed form.

    Reference (asymptote) and error columns are attached per `convention`
    when k > 0 and are NaN otherwise.  For k < 0 the history stops at the
    last sample where I(x) > 0; when that drops any sample, the breakdown
    position x* with I(x*) = 0 is recorded as breakdown.
    """
    if not isinstance(convention, AsymptoteConvention):
        raise DomainError(f"unknown asymptote convention {convention!r}")
    check_samples(n_samples)
    # Checked by construction, as is scen; np.unique drops the repeats of a tiny x_end - 1.
    xs = np.unique(log_grid(1.0, scen.x_end, n_samples))
    h, k, gas, geom = scen.h, scen.k, scen.gas, scen.geom
    # I(x) exactly as _closed_form_jumps evaluates it, so every kept sample has I > 0;
    # a dropped sample means I reached zero at or before x_end.
    x = xs[1.0 + 0.5 * (gas.gamma + 1.0) * k * _RAYS[geom.j][0](xs) > 0.0]
    p, px = _closed_form_jumps(x, h, k, gas, geom)
    breakdown = breakdown_distance(h, k, gas, geom) if x.size < xs.size else None
    if k > 0.0:
        if convention is AsymptoteConvention.LEADING:
            p_ref, px_ref = _closed_form_jumps(x, h, k, gas, geom, leading=True)
        else:
            p_ref, px_ref = asymptotic_law(x, h, k, gas, geom)
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
    x, y = _positions(x), _floats(y)
    if x.shape != y.shape:
        raise DomainError(f"x and y must be numbers of one shape, got {x.shape} and {y.shape}")
    keep = (y > 0.0) & np.isfinite(y)
    return _slope(_centred(np.log(x[keep])), y[keep])


def _slope(X, y):
    """decay_slope of y against centred log positions X; unchecked: y > 0, finite."""
    return float(np.dot(X, _centred(np.log(y))) / np.dot(X, X))


def _centred(v):
    """v - v.mean() of a slope fit's samples, bit for bit (v.sum() / v.size skips
    np.mean's dispatch); DomainError below the two samples a slope needs."""
    if v.size < 2:
        raise DomainError("need at least two positive samples to fit a slope")
    return v - v.sum() / v.size
