"""Characteristic-based front methods sharing one boundary pulse.

A velocity pulse v(tau) on the boundary x = 1 launches wavelets
tau = const whose arrival time at x is

    t = tau + (x - 1) - (gamma+1)/2 * v(tau) * J(x).

The lead shock is fitted by locating, at each x, the wavelet tau_-(x)
that satisfies the equal-area rule

    F(tau) = (gamma+1)/4 * v(tau)^2 * J(x) - int_0^tau v = 0,

giving the velocity jump [u] = v(tau_-) psi(x), the shock arrival time
s(x), and the gradient jump [u_x] behind the shock.  The same pulse also
drives the simple-wave / relatively-undistorted-wave description, in which
u solves u (1 + (gamma-1)u/2)^(2/(gamma-1)) = v(tau) psi(x) and the full
state (rho, p, a) follows algebraically from u.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .core import (
    GasParams,
    Geometry,
    as_scalar,
    far_field_gradient,
    psi,
    ray_integral,
    ray_integral_inverse,
    write_csv,
)
from .errors import DomainError, FittingError, VacuumError

ROOT_RESIDUAL_TOL = 1e-13
# Fraction of the pulse grid used for the cumulative quadrature cache.
_CACHE_PANELS = 512


class BoundaryPulse:
    """Boundary velocity pulse v(tau) on [0, tau0], with cached integral.

    v: callable tau -> velocity; tau0: duration with v(tau0) = 0;
    vdot0: slope at the head (estimated if not supplied);
    integral: exact antiderivative with integral(0) = 0 (optional; a
    cumulative adaptive-quadrature cache is built when absent).
    """

    def __init__(self, v, tau0, vdot0=None, integral=None, label="custom"):
        if not 0.0 < tau0 < math.inf:
            raise DomainError("pulse duration tau0 must be finite and positive")
        self.v = v
        self.tau0 = float(tau0)
        self.label = label
        if abs(v(self.tau0)) > 1e-9 * max(1.0, abs(v(0.5 * self.tau0))):
            raise DomainError("pulse must vanish at tau0 (limiting characteristic)")
        if vdot0 is None:
            step = 1e-6 * self.tau0
            vdot0 = (-3.0 * v(0.0) + 4.0 * v(step) - v(2.0 * step)) / (2.0 * step)
        self.vdot0 = float(vdot0)
        self._integral = integral
        if integral is None:
            self._grid = np.linspace(0.0, self.tau0, _CACHE_PANELS + 1)
            panels = [
                quad(v, lo, hi, epsabs=1e-12, limit=200)[0]
                for lo, hi in zip(self._grid[:-1], self._grid[1:])
            ]
            self._cumulative = np.concatenate(([0.0], np.cumsum(panels)))
        self.b = self.v_integral(self.tau0)
        if not (math.isfinite(self.vdot0) and math.isfinite(self.b)):
            raise DomainError("pulse head slope and pulse integral must be finite")

    def v_integral(self, tau):
        """Cumulative integral of v from 0 to tau (tau in [0, tau0])."""
        if tau < 0.0 or tau > self.tau0 * (1.0 + 1e-12):
            raise DomainError("tau outside the pulse support [0, tau0]")
        tau = min(tau, self.tau0)
        if self._integral is not None:
            return self._integral(tau) - self._integral(0.0)
        i = min(np.searchsorted(self._grid, tau, side="right") - 1, _CACHE_PANELS - 1)
        tail = quad(self.v, self._grid[i], tau, epsabs=1e-12, limit=200)[0]
        return float(self._cumulative[i] + tail)

    @classmethod
    def half_sine(cls, v0, tau0):
        """v(tau) = v0 sin(pi tau / tau0)."""
        if not 0.0 < tau0 < math.inf:
            raise DomainError("pulse duration tau0 must be finite and positive")
        w = np.pi / tau0

        def v(tau):
            return v0 * np.sin(w * tau)

        def integral(tau):
            return v0 / w * (1.0 - np.cos(w * tau))

        return cls(v, tau0, vdot0=v0 * w, integral=integral, label="half-sine")

    @classmethod
    def linear_ramp(cls, m, tau0):
        """v(tau) = m tau (1 - tau/tau0): linear head, ramp back to zero."""

        def v(tau):
            return m * tau * (1.0 - tau / tau0)

        def integral(tau):
            return m * (0.5 * tau**2 - tau**3 / (3.0 * tau0))

        return cls(v, tau0, vdot0=m, integral=integral, label="ramp")

    @classmethod
    def from_table(cls, taus, values):
        """Monotone-cubic interpolation through sampled (tau, v) pairs."""
        taus = np.asarray(taus, dtype=float)
        values = np.asarray(values, dtype=float)
        if taus.ndim != 1 or taus.size < 3 or taus.shape != values.shape:
            raise DomainError("pulse table needs >= 3 matching (tau, v) samples")
        if taus[0] != 0.0 or np.any(np.diff(taus) <= 0.0):
            raise DomainError("pulse table must start at tau = 0 and increase")
        scale = np.max(np.abs(values))
        if scale == 0.0:
            raise DomainError("pulse table is identically zero")
        if abs(values[0]) > 1e-9 * scale or abs(values[-1]) > 1e-9 * scale:
            raise DomainError("pulse table must vanish at both ends")
        interp = PchipInterpolator(taus, values)
        return cls(
            interp,
            taus[-1],
            vdot0=float(interp.derivative()(0.0)),
            label="table",
        )

    @classmethod
    def from_csv(cls, path):
        """Load a table pulse from two-column CSV (tau, v), optional header."""
        data = np.genfromtxt(path, delimiter=",", skip_header=0)
        if data.ndim != 2:
            raise DomainError(f"{path}: expected two CSV columns (tau, v)")
        if np.isnan(data[0]).any():  # header row
            data = data[1:]
        if data.shape[1] != 2 or np.isnan(data).any():
            raise DomainError(f"{path}: expected two numeric CSV columns (tau, v)")
        return cls.from_table(data[:, 0], data[:, 1])


def wavelet_time(x, tau, pulse, gas=GasParams(), geom=Geometry(0)):
    """Arrival time t of wavelet tau at position x."""
    if tau < 0.0 or tau > pulse.tau0:
        raise DomainError("tau outside the pulse support [0, tau0]")
    J = ray_integral(x, geom)
    return tau + (x - 1.0) - 0.5 * (gas.gamma + 1.0) * pulse.v(tau) * J


def formation_distance(pulse, gas=GasParams(), geom=Geometry(0)):
    """Position where the lead shock first forms from the pulse head."""
    if pulse.vdot0 <= 0.0:
        raise FittingError(
            "pulse head is not compressive (v'(0) <= 0); no lead shock forms"
        )
    return ray_integral_inverse(2.0 / ((gas.gamma + 1.0) * pulse.vdot0), geom)


FITTED_CSV_HEADER = "x,tau_minus,u_jump,ux_jump,shock_time"


@dataclass(frozen=True)
class FittedShock:
    """Lead-shock fit along a position grid.

    ux_jump holds NaN below 10 * x_formation, where the expression behind
    it is not yet meaningful.  tau0 and x_formation are carried so callers
    can judge how close tau_minus has come to the limiting wavelet.
    """

    x: np.ndarray
    tau_minus: np.ndarray
    u_jump: np.ndarray
    ux_jump: np.ndarray
    shock_time: np.ndarray
    tau0: float
    x_formation: float

    def to_csv(self, path, reference=None):
        """Write the fit as CSV; append (u_asym, ux_asym) when given."""
        header = FITTED_CSV_HEADER
        columns = [self.x, self.tau_minus, self.u_jump, self.ux_jump, self.shock_time]
        if reference is not None:
            header += ",u_asym,ux_asym"
            columns += [reference[0], reference[1]]
        write_csv(path, header, columns)


def _gradient_shape(x, s, tau0, geom):
    """K(x) + (x - s + tau0) K'(x) of the gradient-jump expression."""
    if geom.j == 0:
        K, dK = 1.0 / x, -1.0 / x**2
    elif geom.j == 1:
        K, dK = 0.5 / x, -0.5 / x**2
    else:
        lx = np.log(x)
        K, dK = 1.0 / (x * lx), -(1.0 + lx) / (x * lx) ** 2
    return K + (x - s + tau0) * dK


def fit_shock(pulse, gas=GasParams(), geom=Geometry(0), x_grid=None):
    """Fit the lead shock at each grid position.

    x_grid must be strictly increasing with x_grid[0] > 1.  At each x the
    smallest positive root tau_-(x) of the equal-area rule is located by a
    sign-change scan (first point) or continued from the previous root
    (warm-started bracket), then polished to |F| < 1e-13 or until the
    bracket closes to adjacent doubles.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or x_grid.size == 0:
        raise DomainError("x_grid must be a one-dimensional, nonempty array")
    if x_grid[0] <= 1.0 or np.any(np.diff(x_grid) <= 0.0):
        raise DomainError("x_grid must be strictly increasing with x_grid[0] > 1")
    x_form = formation_distance(pulse, gas, geom)  # rejects non-compressive heads
    g = gas.gamma
    tau0 = pulse.tau0

    taus = np.empty_like(x_grid)
    tau_prev = 0.0
    for i, x in enumerate(x_grid):
        J = ray_integral(x, geom)

        def F(tau):
            return 0.25 * (g + 1.0) * pulse.v(tau) ** 2 * J - pulse.v_integral(tau)

        if i == 0:
            lo, hi = _first_bracket(F, tau0, x, x_form)
            flo = F(lo)
        else:
            lo, hi = tau_prev, tau0
            # F at the previous root is >= 0 up to the polish residual; a
            # tiny negative value means the root has not moved resolvably.
            flo = F(lo)
            if flo <= 0.0 and abs(flo) >= ROOT_RESIDUAL_TOL:
                raise FittingError(f"no root in ({lo}, {tau0}] at x = {x}")
        if flo <= 0.0:
            root = lo
        else:
            root = brentq(F, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
            root = _polish_bisect(F, lo, hi, root)
        if root < tau_prev:
            raise FittingError(
                f"fitted wavelet went backwards at x = {x}: {root} < {tau_prev}"
            )
        taus[i] = tau_prev = root

    v_tau = np.array([pulse.v(t) for t in taus])
    shape = psi(x_grid, geom)
    u_jump = v_tau * shape
    J_grid = ray_integral(x_grid, geom)
    s = taus + (x_grid - 1.0) - 0.5 * (g + 1.0) * v_tau * J_grid
    ux = 2.0 / (g + 1.0) * _gradient_shape(x_grid, s, tau0, geom)
    ux = np.where(x_grid >= 10.0 * x_form, ux, np.nan)
    return FittedShock(
        x=x_grid,
        tau_minus=taus,
        u_jump=u_jump,
        ux_jump=ux,
        shock_time=s,
        tau0=tau0,
        x_formation=x_form,
    )


def _first_bracket(F, tau0, x, x_form):
    """Bracket the smallest positive root of F on (0, tau0]."""
    if x <= x_form:
        raise FittingError(
            f"no overtaking wavelet at x = {x}; the lead shock only forms "
            f"at x = {x_form}"
        )
    scan = np.linspace(0.0, tau0, 400)[1:]
    values = np.array([F(t) for t in scan])
    pos = values > 0.0
    if not pos[0]:
        # The root sits below the scan resolution: walk down geometrically.
        t = scan[0]
        while t > 1e-300:
            t *= 0.5
            if F(t) > 0.0:
                return t, scan[0]
        raise FittingError(
            f"no overtaking wavelet at x = {x}; the lead shock only forms "
            f"at x = {x_form}"
        )
    first_neg = np.argmin(pos)  # first index where F <= 0
    if pos[first_neg]:  # F never returned to zero: no root below tau0
        raise FittingError(f"no root in (0, {tau0}] at x = {x}")
    return scan[first_neg - 1], scan[first_neg]


def _polish_bisect(F, lo, hi, root):
    """Bisect until the equal-area residual is below ROOT_RESIDUAL_TOL or
    the bracket [lo, hi] cannot be split further."""
    if abs(F(root)) < ROOT_RESIDUAL_TOL:
        return root
    flo = F(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles
            return mid
        fmid = F(mid)
        if abs(fmid) < ROOT_RESIDUAL_TOL:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wngo_decay(b, gas=GasParams(), geom=Geometry(0), x=10.0):
    """Asymptotic ([u], [u_x]) of the fitted lead shock at position x.

    b is the (bounded) integral of the boundary pulse.
    """
    if b <= 0.0:
        raise DomainError("pulse integral b must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 1.0):
        raise DomainError("asymptotes need x > 1")
    J = ray_integral(x, geom)
    u = np.sqrt(4.0 * b / ((gas.gamma + 1.0) * J)) * psi(x, geom)
    return as_scalar(u, far_field_gradient(x, gas, geom))


def ruw_state(u, gas=GasParams()):
    """Full state (rho, p, a) carried by the outgoing wavelet at velocity u."""
    u = np.asarray(u, dtype=float)
    g = gas.gamma
    a = 1.0 + 0.5 * (g - 1.0) * u
    if np.any(a <= 0.0):
        raise VacuumError("velocity at or below -2/(gamma-1): state reaches vacuum")
    rho = a ** (2.0 / (g - 1.0))
    p = a ** (2.0 * g / (g - 1.0)) / g
    return as_scalar(rho, p, a)


def simple_wave_u(rhs, gas=GasParams()):
    """Invert u (1 + (gamma-1)u/2)^(2/(gamma-1)) = rhs for u >= 0.

    Safeguarded Newton iteration, converged to |residual| < 1e-13.
    """
    if rhs < 0.0:
        raise DomainError("expansive branch (rhs < 0) is out of scope")
    if rhs == 0.0:
        return 0.0
    g = gas.gamma
    e = 2.0 / (g - 1.0)

    def f(u):
        return u * (1.0 + 0.5 * (g - 1.0) * u) ** e - rhs

    lo, hi = 0.0, rhs  # the map grows at least linearly, so the root is <= rhs
    u = rhs
    for _ in range(100):
        res = f(u)
        if abs(res) < ROOT_RESIDUAL_TOL:
            return u
        if res > 0.0:
            hi = u
        else:
            lo = u
        a = 1.0 + 0.5 * (g - 1.0) * u
        step = res / (a ** (e - 1.0) * (1.0 + 0.5 * (g + 1.0) * u))
        u_new = u - step
        if not lo < u_new < hi:
            u_new = 0.5 * (lo + hi)
        u = u_new
    raise FittingError(f"inversion failed to reach residual {ROOT_RESIDUAL_TOL}")
