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

import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

GEOMETRY_NAMES = {"planar": 0, "cylindrical": 1, "spherical": 2}
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
# Largest accepted x_end (inclusive): the transport and CCW routes are
# checked against their oracles up to this range, and not beyond it.
MAX_X_END = 1e18


def check_x_end(x_end):
    """Raise DomainError unless 1 < x_end <= MAX_X_END."""
    if not 1.0 < x_end <= MAX_X_END:
        raise DomainError(f"x_end must lie in (1, {MAX_X_END:g}], got {x_end}")


@dataclass(frozen=True)
class GasParams:
    """Ideal-gas description; gamma is the ratio of specific heats."""

    gamma: float = 1.4

    def __post_init__(self):
        if not 1.0 < self.gamma < np.inf:
            raise DomainError(f"gamma must be finite and exceed 1, got {self.gamma}")


@dataclass(frozen=True)
class Geometry:
    """Wavefront geometry index j: 0 planar, 1 cylindrical, 2 spherical."""

    j: int = 0

    def __post_init__(self):
        if self.j not in (0, 1, 2):
            raise DomainError(f"geometry index must be 0, 1 or 2, got {self.j}")

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


def _finite_from(values, lo, name):
    """values as a float array; DomainError unless each is finite and >= lo."""
    values = np.asarray(values, dtype=float)
    # A NaN fails min() >= lo; two reductions cost less than np.all of a comparison.
    if values.size and not (values.min() >= lo and values.max() < np.inf):
        raise DomainError(f"{name} must be finite and >= {lo:g}")
    return values


def _positions(x):
    """Positions as a float array: finite and >= 1, the initial wavefront radius."""
    return _finite_from(x, 1.0, "position")


def _machs(mach):
    """Shock Mach numbers as a float array: finite and >= 1."""
    return _finite_from(mach, 1.0, "shock Mach number")


def jumps_from_mach(mach, gas=GasParams()):
    """Rankine-Hugoniot jumps for a shock of Mach number ``mach`` >= 1."""
    mach = _machs(mach)
    g = gas.gamma
    u = 2.0 * (mach**2 - 1.0) / ((g + 1.0) * mach)
    p = mach * u
    rho = np.divide(u, mach - u, out=np.zeros_like(u), where=mach - u != 0.0)
    return JumpSet(*as_scalar(mach, u, p, rho))


def mach_from_p_jump(p_jump, gas=GasParams()):
    """Shock Mach number carrying pressure jump ``p_jump`` >= 0 (compressive)."""
    p_jump = _finite_from(p_jump, 0.0, "pressure jump")
    mach = np.sqrt(1.0 + 0.5 * (gas.gamma + 1.0) * p_jump)
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


def psi(x, geom=Geometry(0)):
    """Geometric decay factor x**(-j/2) of a weak wavelet at position x >= 1."""
    return as_scalar(_positions(x) ** (-0.5 * geom.j))


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


def far_field_gradient(x, gas=GasParams(), geom=Geometry(0)):
    """Far-field gradient jump 2/(gamma+1) * psi(x) / J_lead(x).

    That is 2/(gamma+1) * {1/x; 1/(2x); 1/(x log x)}.  The law is the same
    for the transport and the wavefront routes and carries no memory of the
    initial strength.
    """
    return 2.0 / (gas.gamma + 1.0) * np.divide(psi(x, geom), ray_integral_leading(x, geom))
