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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _RAYS,
    GasParams,
    Geometry,
    _breaking_position,
    _floats,
    _is_real,
    _psi,
    as_scalar,
    gauss_legendre,
    psi,  # unused here, but bench/tracing.py wraps wavefront.psi
    ray_integral,
    write_csv,
)
from .errors import DomainError, FittingError, VacuumError

ROOT_RESIDUAL_TOL = 1e-13


def _horner(coeffs, s):
    """coeffs[0] s^n + ... + coeffs[n] by Horner's rule, elementwise."""
    return functools.reduce(lambda out, c: out * s + c, coeffs)


def _pchip(x, y):
    """scipy's PCHIP through (x, y) (Fritsch & Carlson 1980), in numpy.

    Returns v (knots kept as v.x), its exact piecewise-quartic antiderivative B
    from x[0], v'(x[0]), and (v, v', B) as quartics in s (5 x 3 x segments).
    Interior slopes: weighted harmonic means of adjacent secants, zero where they
    differ in sign or one vanishes; end slopes: the three-point shape-preserving rule.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):  # masked just below
        d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d[1:-1][(np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)] = 0.0
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    e[np.sign(e) != np.sign(m0)] = 0.0
    flip = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
    d[[0, -1]] = np.where(flip, 3.0 * m0, e)
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    cubic = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])  # in s = tau - x[k]
    quartic = tuple(c / p for c, p in zip(cubic, (4.0, 3.0, 2.0, 1.0)))
    segments = h * (((quartic[0] * h + quartic[1]) * h + quartic[2]) * h + quartic[3])
    base = np.concatenate(([0.0], np.cumsum(segments[:-1])))
    inner = x[1:-1]

    def horner(coeffs, tau):
        k = np.searchsorted(inner, tau, side="right")  # segment, clamped to the ends
        return _horner((c.take(k) for c in coeffs), tau - x.take(k))  # one take at a time

    v = functools.partial(horner, cubic)
    v.x = x
    zero, slopes = 0.0 * h, (3.0 * cubic[0], 2.0 * cubic[1], cubic[2])
    stack = np.array([*zip((zero, *cubic), (zero, zero, *slopes), (*quartic, base))])
    return v, functools.partial(horner, quartic + (base,)), d[0], stack


def _panel_integral(v, tau0):
    """Antiderivative of v from 0 on adaptive 8-point Gauss-Legendre panels.

    Every panel whose value differs from the sum over its halves by more than
    1e-13 of int |v| is halved, all at once, until none is; a lookup adds the
    panels below tau to one partial panel.
    """
    edges = np.linspace(0.0, tau0, 9)
    for _ in range(60):
        a, b = edges[:-1], edges[1:]
        mid = 0.5 * (a + b)
        whole = gauss_legendre(v, a, b)
        halves = gauss_legendre(v, a, mid) + gauss_legendre(v, mid, b)
        if not np.isfinite(halves).all():  # a NaN tolerance passes every panel; inf - inf warns
            raise DomainError("pulse v is NaN inside (0, tau0), or its integral overflows")
        bad = np.abs(whole - halves) > 1e-13 * np.sum(np.abs(halves))
        if not bad.any() or edges.size > 4096:
            break
        edges = np.insert(edges, np.flatnonzero(bad) + 1, mid[bad])
    if bad.any():
        raise DomainError("pulse integral unconverged in 4096 panels")
    base = np.concatenate(([0.0], np.cumsum(whole[:-1])))
    inner = edges[1:-1]

    def integral(tau):
        k = np.searchsorted(inner, tau, side="right")  # panel, clamped to the ends
        return base.take(k) + gauss_legendre(v, edges.take(k), tau)

    return integral


def _float_or_nan(field):
    """A CSV field as a float; NaN where it is not a number (a header)."""
    try:
        return float(field)
    except ValueError:
        return math.nan


class BoundaryPulse:
    """Boundary velocity pulse v(tau) on [0, tau0], with its integral.

    v: callable tau -> velocity; tau0: duration with v(tau0) = 0;
    vdot0: slope at the head (estimated if not supplied);
    integral: exact antiderivative (optional; tabulated once on adaptive
    Gauss-Legendre panels when absent).  v and integral are called with
    scalars and with numpy arrays of tau, so both must be vectorized.  knots
    holds the samples of a table pulse, where the extrema of its interpolant sit.
    """

    knots = ()
    _root = None  # smallest root tau_-(c J) of the area rule, closed form or estimate

    def __init__(self, v, tau0, vdot0=None, integral=None, label="custom"):
        if not (_is_real(tau0) and 0.0 < tau0 < math.inf):
            raise DomainError("pulse duration tau0 must be finite and positive")
        self.v = v
        self.tau0 = float(tau0)
        self.label = label
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN slope or b is refused
            if abs(v(self.tau0)) > 1e-9 * max(1.0, abs(v(0.5 * self.tau0))):
                raise DomainError("pulse must vanish at tau0 (limiting characteristic)")
            if vdot0 is None:
                step = 1e-6 * self.tau0
                vdot0 = (-3.0 * v(0.0) + 4.0 * v(step) - v(2.0 * step)) / (2.0 * step)
            if not (_is_real(vdot0) and math.isfinite(vdot0)):  # before building the integral
                raise DomainError("pulse head slope and pulse integral must be finite")
            self.vdot0 = float(vdot0)
            self._integral = _panel_integral(v, self.tau0) if integral is None else integral
            self._b0 = self._integral(0.0)
            self.b = self.v_integral(self.tau0)
        if not math.isfinite(self.b):
            raise DomainError("pulse head slope and pulse integral must be finite")

    def v_integral(self, tau):
        """Cumulative integral of v from 0 to tau (scalar or array in [0, tau0])."""
        tau = _floats(tau)
        if not np.all((tau >= 0.0) & (tau <= self.tau0 * (1.0 + 1e-12))):  # a NaN fails
            raise DomainError("tau outside the pulse support [0, tau0]")
        tau = np.minimum(tau, self.tau0)
        return as_scalar(self._integral(tau) - self._b0)

    @classmethod
    def half_sine(cls, v0, tau0):
        """v(tau) = v0 sin(pi tau / tau0)."""
        if not (_is_real(tau0) and 0.0 < tau0 < math.inf):
            raise DomainError("pulse duration tau0 must be finite and positive")
        if not (_is_real(v0) and math.isfinite(v0)):
            raise DomainError("pulse amplitude v0 must be finite")
        w = np.pi / tau0

        def v(tau):
            return v0 * np.sin(w * tau)

        def integral(tau):
            return v0 / w * (1.0 - np.cos(w * tau))

        def root(cJ):  # F = (1 - cos w tau)(c v0^2 J (1 + cos w tau) - v0/w)
            return (np.pi - 2.0 * np.arcsin(np.sqrt(0.5 / (cJ * w * v0)))) / w

        pulse = cls(v, tau0, vdot0=v0 * w, integral=integral, label="half-sine")
        pulse._root = root
        return pulse

    @classmethod
    def linear_ramp(cls, m, tau0):
        """v(tau) = m tau (1 - tau/tau0): linear head, ramp back to zero."""
        if not (_is_real(m) and math.isfinite(m)):
            raise DomainError("ramp slope m must be finite")

        def v(tau):
            return m * tau * (1.0 - tau / tau0)

        def integral(tau):
            return m * (0.5 * tau**2 - tau**3 / (3.0 * tau0))

        def root(cJ):  # F = m tau^2 (A (1 - s)^2 - 1/2 + s/3), A = c m J = a/6, s = tau/tau0
            a = 6.0 * m * cJ
            return tau0 * (a - 3.0) / (a - 1.0 + np.sqrt(1.0 + a))

        pulse = cls(v, tau0, vdot0=m, integral=integral, label="ramp")
        pulse._root = root
        return pulse

    @classmethod
    def from_table(cls, taus, values):
        """Monotone-cubic interpolation through sampled (tau, v) pairs."""
        taus, values = _floats(taus), _floats(values)  # not numbers: a NaN, refused below
        if taus.ndim != 1 or taus.size < 3 or taus.shape != values.shape:
            raise DomainError("pulse table needs >= 3 matching (tau, v) samples")
        if not (np.isfinite(taus).all() and np.isfinite(values).all()):
            raise DomainError("pulse table samples must be finite")
        if taus[0] != 0.0 or np.any(np.diff(taus) <= 0.0):
            raise DomainError("pulse table must start at tau = 0 and increase")
        scale = np.max(np.abs(values))
        if scale == 0.0:
            raise DomainError("pulse table is identically zero")
        if abs(values[0]) > 1e-9 * scale or abs(values[-1]) > 1e-9 * scale:
            raise DomainError("pulse table must vanish at both ends")
        v, integral, vdot0, coeffs = _pchip(taus, values)
        pulse = cls(v, taus[-1], vdot0=vdot0, integral=integral, label="table")
        pulse.knots = taus
        pulse._root = functools.partial(_pchip_root, pulse, coeffs)
        return pulse

    @classmethod
    def from_csv(cls, path):
        """Load a table pulse from two-column CSV (tau, v), optional header.

        Blank lines and text after '#' are skipped; a parse failure raises DomainError.
        """
        try:
            with open(path) as fh:
                rows = [row for row in fh if row.partition("#")[0].strip()]
            if not rows:
                raise ValueError("no CSV rows")
            data = np.loadtxt(rows, delimiter=",", ndmin=2, converters=_float_or_nan)
        except ValueError as exc:
            raise DomainError(f"{path}: {exc}") from None
        if np.isnan(data[0]).any():  # header row
            data = data[1:]
        if data.shape[1] != 2 or np.isnan(data).any():
            raise DomainError(f"{path}: expected two numeric CSV columns (tau, v)")
        return cls.from_table(data[:, 0], data[:, 1])


def wavelet_time(x, tau, pulse, gas=GasParams(), geom=Geometry(0)):
    """Arrival time t of wavelet tau at position x (scalars or arrays that broadcast)."""
    x, tau = _floats(x), _floats(tau)  # ray_integral checks x
    if not np.all((tau >= 0.0) & (tau <= pulse.tau0)):  # a NaN fails
        raise DomainError("tau outside the pulse support [0, tau0]")
    try:
        np.broadcast_shapes(x.shape, tau.shape)
    except ValueError:
        raise DomainError(f"x and tau shapes {x.shape} and {tau.shape} do not broadcast") from None
    J = ray_integral(x, geom)
    return as_scalar(tau + (x - 1.0) - 0.5 * (gas.gamma + 1.0) * pulse.v(tau) * J)


def formation_distance(pulse, gas=GasParams(), geom=Geometry(0)):
    """Where the lead shock forms from the pulse head; DomainError past MAX_X_END."""
    if pulse.vdot0 <= 0.0:
        raise FittingError(
            "pulse head is not compressive (v'(0) <= 0); no lead shock forms"
        )
    return _breaking_position(pulse.vdot0, gas, geom.j, "the lead shock forms")


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
    """K(x) + (x - s + tau0) K'(x) of the gradient-jump expression at checked x.

    K = psi/J_lead is the far-field shape; J_lead' = psi gives
    K' = -K (j/(2x) + K).
    """
    K = _psi(x, geom.j) / _RAYS[geom.j][1](x)
    dK = -K * (0.5 * geom.j / x + K)
    return K + (x - s + tau0) * dK


def fit_shock(pulse, gas=GasParams(), geom=Geometry(0), x_grid=None):
    """Fit the lead shock at each grid position.

    x_grid must be finite and strictly increasing with x_grid[0] > 1.  With
    B(tau) = int_0^tau v, the equal-area rule is F = (gamma+1)/4 v^2 J - B = 0;
    tau_-(x) is its smallest root to adjacent doubles, F(tau_-) <= 0 < F at the
    double below.  A half-sine or ramp pulse reads it off the 9, then the 257,
    doubles nearest its closed-form root, a table pulse off those nearest 3-8
    Newton passes on its PCHIP: the first with F <= 0 where F > 0 on every one
    below.  Rows left (near formation, where the root is nearly double; 3 in
    56,000 seeded table rows from 1.1 x_form) and custom pulses take as bracket
    the first cell of a tau scan where the running maximum of
    R(tau) := 4 B/((gamma+1) v^2) reaches J(x), as F <= 0 exactly when J <= R.
    Illinois false position (Dowell & Jarratt 1971) narrows all brackets
    together, each step at least four ulps inside, so a one-sided approach
    crosses the root; it is the midpoint where F(lo) = 0, where it is not
    finite, where the bracket spans at most two margins, and after 40 passes.
    A closed bracket drops out of later passes.  The scan is uniform with
    spacing tau0/399 and holds the pulse knots, where a table pulse puts its
    sharp features; a peak of R narrower than the spacing and away from every
    knot can still be missed.
    """
    x_grid = _floats(x_grid)  # not numbers: a NaN, refused below
    if x_grid.ndim != 1 or x_grid.size == 0:
        raise DomainError("x_grid must be a one-dimensional, nonempty array")
    if not (1.0 < x_grid[0] and x_grid[-1] < math.inf and np.all(np.diff(x_grid) > 0.0)):
        raise DomainError("x_grid must be finite, strictly increasing, with x_grid[0] > 1")
    x_form = formation_distance(pulse, gas, geom)  # rejects non-compressive heads
    if x_grid[0] <= x_form:
        raise FittingError(
            f"no overtaking wavelet at x = {x_grid[0]}; the lead shock only forms "
            f"at x = {x_form}"
        )
    return _fit_checked(pulse, gas, {geom: (x_grid, x_form)})[geom]


def _fit_checked(pulse, gas, checked):
    """fit_shock of each {Geometry: (x_grid, x_form)} entry, its grid checked as there.

    Geometry enters the root search only through J(x), so one root search
    serves every geometry.  Each fit is fit_shock's to the last bit.
    """
    if not checked:
        return {}
    g, tau0 = gas.gamma, pulse.tau0
    Js = [_RAYS[geom.j][0](x_grid) for geom, (x_grid, _) in checked.items()]  # x_grid > 1
    x = np.concatenate([x_grid for x_grid, _ in checked.values()])
    taus = _equal_area_roots(pulse, 0.25 * (g + 1.0), x, np.concatenate(Js))
    if np.any(taus == tau0):  # the limiting wavelet, where v = 0: [u] would read 0
        raise FittingError(f"pulse too strong for tau_minus to be resolved below tau0 = {tau0}")
    out, stop = {}, 0
    for (geom, (x_grid, x_form)), J in zip(checked.items(), Js):
        tau, stop = taus[stop : stop + x_grid.size], stop + x_grid.size
        v_tau = pulse.v(tau)
        s = tau + (x_grid - 1.0) - 0.5 * (g + 1.0) * v_tau * J  # wavelet_time, reusing J, v
        ux = 2.0 / (g + 1.0) * _gradient_shape(x_grid, s, tau0, geom)
        out[geom] = FittedShock(
            x=x_grid,
            tau_minus=tau,
            u_jump=v_tau * _psi(x_grid, geom.j),
            ux_jump=np.where(x_grid >= 10.0 * x_form, ux, np.nan),
            shock_time=s,
            tau0=tau0,
            x_formation=x_form,
        )
    return out


def _scan_cells(pulse, c, J, x=None):
    """Whether a tau scan finds the smallest root per J, and its bracket (lo, hi, F(lo), F(hi));
    given the positions x, a J with no root raises FittingError."""
    scan = np.union1d(np.linspace(0.0, pulse.tau0, 400), pulse.knots)
    cv2 = c * pulse.v(scan[1:]) ** 2
    if np.isnan(cv2).any():  # a NaN v^2 reads as R = +inf; a +inf v^2 keeps F's sign
        raise DomainError("pulse v is NaN inside (0, tau0]")
    B = pulse._integral(scan[1:]) - pulse._b0  # the scan lies in [0, tau0], as in F below
    R = np.where(cv2 > 0.0, B / cv2, np.where(B >= 0.0, np.inf, -np.inf))
    cell = np.searchsorted(np.maximum.accumulate(R), J)
    found, cell = cell < R.size, np.minimum(cell, R.size - 1)
    if x is not None and not found.all():
        raise FittingError(f"no root in (0, {pulse.tau0}] at x = {x[np.argmin(found)]}")
    f_lo = np.where(cell > 0, cv2[cell - 1] * J - B[cell - 1], 0.0)
    return found, scan[cell], scan[cell + 1], f_lo, cv2[cell] * J - B[cell]  # F > 0 just above lo


def _pchip_root(pulse, coeffs, cJ):
    """A table pulse's tau_-(cJ) to within rounding, for the windows of _equal_area_roots:
    Newton on G = sqrt(cJ) v - sqrt(B), F's root but near linear where F ~ tau^2, on the
    PCHIP segment of each row's scan cell from F's false-position point, held in the cell.
    A row stops on its own (a batch keeps its bits) once a step is at most 16 ulps, or
    after 8 steps.  It is NaN where the scan finds no root or B < 0."""
    live, lo, hi, f_lo, f_hi = _scan_cells(pulse, 1.0, cJ)
    k = np.searchsorted(pulse.knots[1:-1], lo, side="right")  # the scan holds the knots
    P, x0, r = coeffs[..., k].copy(), pulse.knots[k], np.sqrt(cJ)  # copied: contiguous
    t = np.where(live, lo - f_lo * (hi - lo) / (f_hi - f_lo), np.nan)
    for _ in range(8):
        v, dv, B = _horner(P, t - x0)  # B(0) = 0 for a table
        root_B = np.sqrt(B)
        step = (r * v - root_B) / (r * dv - 0.5 * v / root_B)
        t = np.where(live, np.minimum(np.maximum(t - step, lo), hi), t)
        live &= np.abs(step) > 16.0 * np.spacing(t)
        if not live.any():
            break
    return t


# For a strong pulse v^2 and F may overflow to +inf, which keeps F's sign; a
# false-position step that is then not finite is replaced by the midpoint, and
# a root estimate that is not finite reads 0 or tau0, where no window closes.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _equal_area_roots(pulse, c, x, J):
    """Smallest root tau_- of F = c v^2 J - B for each pair of x and J = J(x)."""

    def F(t, J):  # t lies in [0, tau0], so the unchecked integral stands in for v_integral
        return c * pulse.v(t) ** 2 * J - (pulse._integral(t) - pulse._b0)

    taus, live = np.empty_like(J), np.arange(J.size)  # the roots, and the entries still open
    if pulse._root is not None:
        tau = pulse._root(c * J)
        # The 2K+1 doubles nearest the estimate, by steps on the bit pattern (it orders
        # doubles >= 0); tau_- is the first with F <= 0 where F > 0 on every one below.
        bits = np.fmin(np.fmax(tau, 0.0), pulse.tau0).view(np.int64)  # NaN reads 0
        top = np.array(pulse.tau0).view(np.int64)
        for K in (4, 128):
            t = np.clip(bits[live, None] + np.arange(-K, K + 1), 0, top).view(float)
            f = F(t, J[live, None])
            first = np.argmin(f > 0.0, axis=1)
            closed = (first > 0) & (f[np.arange(live.size), first] <= 0.0)
            taus[live[closed]] = t[closed, first[closed]]
            live = live[~closed]
            if not live.size:
                return taus
    x, Jl = x[live], J[live]  # the rows still open, and their J
    _, lo, hi, f_lo, f_hi = _scan_cells(pulse, c, Jl, x)
    above = below = np.zeros(live.size, dtype=bool)  # which end moved last pass
    for n in itertools.count():
        mid = 0.5 * (lo + hi)
        split = (lo < mid) & (mid < hi)
        if not split.all():  # closed to adjacent doubles: tau_- = hi, done
            taus[live[~split]] = hi[~split]
            if not split.any():
                return taus
            live, Jl, lo, hi, mid, f_lo, f_hi, above, below = (
                z[split] for z in (live, Jl, lo, hi, mid, f_lo, f_hi, above, below)
            )
        step, width = 4.0 * np.spacing(hi), hi - lo
        t = np.minimum(np.maximum(lo - f_lo * width / (f_hi - f_lo), lo + step), hi - step)
        bisect = (f_lo == 0.0) | ~np.isfinite(t) | (width <= 2.0 * step) | (n >= 40)
        t = np.where(bisect, mid, t)
        f = F(t, Jl)
        up = f > 0.0
        f_hi = np.where(above & up, 0.5 * f_hi, f_hi)  # Illinois: same end twice
        f_lo = np.where(below & ~up, 0.5 * f_lo, f_lo)
        above, below = up, ~up
        lo, f_lo = np.where(above, t, lo), np.where(above, f, f_lo)
        hi, f_hi = np.where(below, t, hi), np.where(below, f, f_hi)


def wngo_decay(b, gas=GasParams(), geom=Geometry(0), x=10.0):
    """Asymptotic ([u], [u_x]) of the fitted lead shock at position x.

    b is the (bounded) integral of the boundary pulse.
    """
    if not (_is_real(b) and 0.0 < b < math.inf):
        raise DomainError("pulse integral b must be finite and positive")
    x = _floats(x)
    if x.size and not (x.min() > 1.0 and x.max() < math.inf):  # a NaN fails min() > 1
        raise DomainError("asymptotes need finite x > 1")
    g, rays, psi_x = gas.gamma, _RAYS[geom.j], _psi(x, geom.j)
    with np.errstate(over="ignore", divide="ignore"):  # J rounds to 0 just above x = 1
        u = np.sqrt(4.0 * b / ((g + 1.0) * rays[0](x))) * psi_x
    if not np.isfinite(u).all():
        raise DomainError(f"the shock velocity jump overflows for b = {b}")
    return as_scalar(u, 2.0 / (g + 1.0) * (psi_x / rays[1](x)))  # asymptotic_law's [p_x]


def ruw_state(u, gas=GasParams()):
    """Full state (rho, p, a) carried by the outgoing wavelet at velocity u."""
    u = _floats(u)
    if not np.isfinite(u).all():
        raise DomainError("velocity u must be finite")
    g = gas.gamma
    a = 1.0 + 0.5 * (g - 1.0) * u
    if np.any(a <= 0.0):
        raise VacuumError("velocity at or below -2/(gamma-1): state reaches vacuum")
    with np.errstate(over="ignore"):  # checked just below
        rho = a ** (2.0 / (g - 1.0))
        p = a ** (2.0 * g / (g - 1.0)) / g
    if not np.isfinite(p).all():  # p = rho**gamma / gamma, so rho is finite too
        raise DomainError("velocity u gives a state that overflows")
    return as_scalar(rho, p, a)


def simple_wave_u(rhs, gas=GasParams()):
    """Invert u (1 + (gamma-1)u/2)^(2/(gamma-1)) = rhs for u >= 0.

    Below rhs = 1: Newton iteration from the inverse series
    u = r - r^2 + (3+a)/2 r^3, a = (gamma-1)/2, or where that leaves (0, r] from
    the root of u (1 + u) = r, to |residual| < 1e-13.  From rhs = 1 on: Newton in
    log u on G = log(map(u)/rhs), convex in log u, from u = rhs, with one more step
    once |G| < 8 eps (1 + log rhs).  G rounds to ~eps log rhs, so the relative
    residual is only held below 4 eps (1 + log rhs), 6.3e-13 at the largest double.
    """
    # A float or np.float64 skips np.ndim, which costs more than the arithmetic below.
    if not (isinstance(rhs, float) or _is_real(rhs)) or not 0.0 <= rhs < math.inf:
        raise DomainError(
            "rhs must be a finite scalar >= 0 (the expansive branch is out of scope)"
        )
    r = float(rhs)
    if r == 0.0:
        return 0.0
    g = float(gas.gamma)  # a float overflows to inf quietly; a numpy scalar warns
    a = 0.5 * (g - 1.0)
    if r >= 1.0:
        tol = 8.0 * math.ulp(1.0) * (1.0 + math.log(r))
        u = r  # map(u) >= u, so the root is <= rhs
        for _ in range(100):
            au = a * u  # where a u overflows, log(1 + a u) = log(a u) to the last bit
            L = math.log1p(au) if au < math.inf else math.log(a) + math.log(u)
            G = math.log(u / r) + L / a
            u *= math.exp(-G / (1.0 + 1.0 / (a + 1.0 / u)))  # d G / d log u = 1 + u/(1 + a u)
            if abs(G) < tol:
                return u
        raise FittingError(f"inversion failed to reach relative residual {tol:.3g}")
    # No safeguard is needed: phi(u) = u (1 + a u)^(1/a) has phi' >= 1, phi(0) = 0 < r and
    # phi''/phi = (2/u + 1 + a)/(1 + a u)^2 > 0, so every iterate is positive, and each after
    # the first lies right of the root and falls; from u0 <= r a first step from the left ends
    # at most at u0 + r - phi(u0) <= r.  And phi(u) < 2 r (res < r): phi(r) <= r e^r under the
    # series (r < 2/3); from u (1 + u) = r at gamma <= 3, u0 is right of the root and
    # phi(u0) <= u0 e^u0 < 1.15 r; at gamma > 3, phi(u) <= u (1 + u) < 2 r.
    e1 = (3.0 - g) / (g - 1.0)  # 2/(gamma-1) - 1
    tol = 0.5 * ROOT_RESIDUAL_TOL  # half: room for a caller's residual in another rounding
    u = r - r * r + 0.5 * (3.0 + a) * r**3  # > r from r = 2/(3 + a) on
    if not 0.0 < u <= r:
        u = 2.0 * r / (1.0 + math.sqrt(1.0 + 4.0 * r))
    for _ in range(100):
        s = 1.0 + a * u
        p = math.exp(e1 * math.log1p(a * u))  # s^(e1), without the rounding of s; <= e for u < 1
        res = u * s * p - r
        if abs(res) < tol:
            return u
        u -= res / (p * (s + u))
    raise FittingError(f"inversion failed to reach residual {ROOT_RESIDUAL_TOL}")
