"""Gas model, shock-jump algebra and geometric ray factors.

Everything is nondimensional: the quiescent gas ahead of the shock has
unit density and unit sound speed, so its pressure is 1/gamma.  A shock
at position x >= 1 moving into that gas with Mach number U >= 1 carries
jumps [q] = q_behind - q_ahead of the flow variables.  Geometry enters
only through the index j (0 plane, 1 cylinder, 2 sphere) via the area
factor psi(x) = x**(-j/2) and the accumulated ray integral
J(x) = integral_1^x psi(s) ds evaluated in closed form below.  An input
that is NaN, infinite or outside its range raises DomainError.
"""

import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

GEOMETRY_NAMES = {"planar": 0, "cylindrical": 1, "spherical": 2}
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
# Largest accepted x_end (inclusive): the transport and CCW routes are
# checked against their oracles up to this range, and not beyond it.
MAX_X_END = 1e18
# Largest accepted shock Mach number (inclusive): the largest CCW start that
# is checked, and U^2 and 2 gamma U^2 stay finite there for gamma < 89.
MAX_MACH = 1e153
# Largest accepted gamma (inclusive): 2 gamma MAX_MACH^2 stays finite below
# gamma = 89, and the coefficient kernel is right at its ceiling to about 210.
MAX_GAMMA = 50.0
# Largest accepted sample count: a grid and its columns must fit in memory.
MAX_SAMPLES = 1_000_000


def check_x_end(x_end):
    """Raise DomainError unless 1 < x_end <= MAX_X_END."""
    if not (_is_real(x_end) and 1.0 < x_end <= MAX_X_END):
        raise DomainError(f"x_end must lie in (1, {MAX_X_END:g}], got {x_end}")


def check_samples(n_samples):
    """Raise DomainError unless n_samples is an integer in [2, MAX_SAMPLES]."""
    if not (isinstance(n_samples, numbers.Integral) and 2 <= n_samples <= MAX_SAMPLES):
        raise DomainError(f"n_samples must be an integer in [2, {MAX_SAMPLES}], got {n_samples}")


def _is_real(v):
    """True for one real number: a Python or numpy real scalar but a bool, or a 0-d real array."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            or isinstance(v, np.ndarray) and v.ndim == 0 and v.dtype.kind in "fiu")


def _floats(values):
    """values as a float array, or NaN, which every range check refuses, if not numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        return np.array(np.nan)


@dataclass(frozen=True)
class GasParams:
    """Ideal-gas description; gamma is the ratio of specific heats."""

    gamma: float = 1.4

    def __post_init__(self):
        if not (_is_real(self.gamma) and 1.0 < self.gamma <= MAX_GAMMA):
            raise DomainError(f"gamma must lie in (1, {MAX_GAMMA:g}], got {self.gamma}")


@dataclass(frozen=True)
class Geometry:
    """Wavefront geometry index j: 0 planar, 1 cylindrical, 2 spherical."""

    j: int = 0

    def __post_init__(self):
        j = self.j  # a bool is an Integral, but not a geometry index
        if isinstance(j, bool) or not (isinstance(j, numbers.Integral) and j in (0, 1, 2)):
            raise DomainError(f"geometry index must be 0, 1 or 2, got {j!r}")

    @classmethod
    def from_name(cls, name):
        try:
            return cls(GEOMETRY_NAMES[name])
        except KeyError:
            raise DomainError(
                f"unknown geometry {name!r}; expected one of {sorted(GEOMETRY_NAMES)}"
            ) from None

    @property
    def name(self):
        return {v: k for k, v in GEOMETRY_NAMES.items()}[self.j]


@dataclass(frozen=True)
class JumpSet:
    """Jumps across a shock of Mach number ``mach``.

    u_jump, p_jump and rho_jump are the velocity, pressure and density
    jumps in upstream-sound-speed / upstream-density units.
    """

    mach: float
    u_jump: float
    p_jump: float
    rho_jump: float


def as_scalar(*values):
    """Each 0-d value as a Python float, arrays unchanged; one value unpacked."""
    out = tuple(float(v) if np.ndim(v) == 0 else v for v in values)
    return out[0] if len(out) == 1 else out


def gauss_legendre(f, a, b):
    """8-point Gauss-Legendre value of int_a^b f, elementwise over numpy a, b.

    Each row's weighted sum is taken on its own (einsum; a BLAS product
    rounds a row by its place in the array), so no value depends on the
    other rows.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    values = f(mid[..., None] + half[..., None] * GL_NODES)
    return half * np.einsum("...j,j->...", values, GL_WEIGHTS)


def write_csv(dest, header, columns):
    """Write columns as CSV rows of 17-significant-digit floats, LF endings.

    dest is a file path or an open text stream.
    """
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", newline="\n") as fh:
            write_csv(fh, header, columns)
        return
    dest.write(header + "\n")
    for row in zip(*columns):
        dest.write(",".join(f"{v:.17g}" for v in row) + "\n")


def log_grid(a, b, n):
    """np.geomspace(a, b, n) for 0 < a, b, bit for bit, without its dtype and sign handling."""
    x = 10.0 ** np.linspace(np.log10(a), np.log10(b), n)
    x[:1], x[1:][-1:] = a, b  # both ends exact, as np.geomspace sets them for every n
    return x


def _finite_from(values, lo, name, hi=np.finfo(float).max):
    """values as a float array; DomainError unless each is finite and in [lo, hi]."""
    values = _floats(values)
    # A NaN fails min() >= lo; two reductions cost less than np.all of a comparison.
    if values.size and not (values.min() >= lo and values.max() <= hi):
        upper = f" and <= {hi:g}" if hi < np.finfo(float).max else ""
        raise DomainError(f"{name} must be finite and >= {lo:g}{upper}")
    return values


def _positions(x):
    """Positions as a float array: finite and >= 1, the initial wavefront radius."""
    return _finite_from(x, 1.0, "position")


def _machs(mach, hi=MAX_MACH):
    """Shock Mach numbers as a float array: in [1, hi]."""
    return _finite_from(mach, 1.0, "shock Mach number", hi)


def jumps_from_mach(mach, gas=GasParams()):
    """Rankine-Hugoniot jumps for a shock of Mach number ``mach`` in [1, MAX_MACH]."""
    mach = _machs(mach)
    u, p = _u_p_jumps(mach, gas.gamma)
    rho = np.divide(u, mach - u, out=np.zeros_like(u), where=mach - u != 0.0)
    return JumpSet(*as_scalar(mach, u, p, rho))


def _u_p_jumps(mach, g):
    """jumps_from_mach's [u] and [p] of a checked Mach-number array at gamma = g, unchecked."""
    u = 2.0 * (mach**2 - 1.0) / ((g + 1.0) * mach)
    return u, mach * u


def mach_from_p_jump(p_jump, gas=GasParams()):
    """Shock Mach number carrying pressure jump ``p_jump`` >= 0 (compressive)."""
    p_jump = _finite_from(p_jump, 0.0, "pressure jump")
    with np.errstate(over="ignore"):  # refused just below
        mach = np.sqrt(1.0 + 0.5 * (gas.gamma + 1.0) * p_jump)
    if not np.isfinite(mach).all():
        raise DomainError("the shock Mach number of this pressure jump overflows a float")
    return as_scalar(mach)


def mu_nu(mach, gas=GasParams()):
    """Auxiliary strength polynomials mu = 2 + (g-1)U^2, nu = 2g U^2 + 1 - g."""
    return as_scalar(*_mu_nu(_machs(mach), gas.gamma))


def _mu_nu(mach, g):
    """mu_nu of a checked Mach-number array at gamma = g, unchecked."""
    return 2.0 + (g - 1.0) * mach**2, 2.0 * g * mach**2 + 1.0 - g


# Per geometry index j: the ray integral J(x) = int_1^x s**(-j/2) ds in
# closed form, its large-x leading part, and the inverse of J.
_RAYS = (
    (lambda x: x - 1.0, lambda x: x * 1.0, lambda J: 1.0 + J),
    (
        lambda x: 2.0 * (np.sqrt(x) - 1.0),
        lambda x: 2.0 * np.sqrt(x),
        lambda J: (1.0 + 0.5 * J) ** 2,
    ),
    (np.log, np.log, np.exp),
)
MAX_RAY_INTEGRAL = tuple(float(ray[0](MAX_X_END)) for ray in _RAYS)


def psi(x, geom=Geometry(0)):
    """Geometric decay factor x**(-j/2) of a weak wavelet at position x >= 1."""
    return as_scalar(_psi(_positions(x), geom.j))


def _psi(x, j):
    """psi of a checked position array x for j = geom.j, unchecked."""
    return x ** (-0.5 * j)


def ray_integral(x, geom=Geometry(0)):
    """Accumulated ray integral J(x) = int_1^x s**(-j/2) ds, closed form."""
    return as_scalar(_RAYS[geom.j][0](_positions(x)))


def ray_integral_leading(x, geom=Geometry(0)):
    """Large-x leading part of ray_integral: x, 2*sqrt(x) or log(x)."""
    return as_scalar(_RAYS[geom.j][1](_positions(x)))


def ray_integral_inverse(value, geom=Geometry(0)):
    """Position x >= 1 at which ray_integral(x) equals ``value`` >= 0.

    Raises DomainError where that position overflows a float.
    """
    value = _finite_from(value, 0.0, "ray integral")
    with np.errstate(over="ignore"):  # an overflow fails the position check
        return as_scalar(_positions(_RAYS[geom.j][2](value)))


def _breaking_position(slope, gas, j, what):
    """Where an acceleration wave of compressive slope > 0 (unchecked) breaks: at J(x) =
    2/((gamma+1) slope); DomainError '{what} beyond x = 1e18' past MAX_X_END."""
    J = 2.0 / ((gas.gamma + 1.0) * slope)
    if not J <= MAX_RAY_INTEGRAL[j]:
        raise DomainError(f"{what} beyond x = {MAX_X_END:g}")
    return float(_RAYS[j][2](np.array(J, dtype=float)))  # x in [1, MAX_X_END]: no check fires

