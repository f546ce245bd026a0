"""Gas model, shock-jump algebra and geometric ray factors.

Everything is nondimensional: the quiescent gas ahead of the shock has
unit density and unit sound speed, so its pressure is 1/gamma.  A shock
at position x >= 1 moving into that gas with Mach number U >= 1 carries
jumps [q] = q_behind - q_ahead of the flow variables.  Geometry enters
only through the index j (0 plane, 1 cylinder, 2 sphere) via the area
factor psi(x) = x**(-j/2) and the accumulated ray integral
J(x) = integral_1^x psi(s) ds evaluated in closed form below.
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


def jumps_from_mach(mach, gas=GasParams()):
    """Rankine-Hugoniot jumps for a shock of Mach number ``mach`` >= 1."""
    mach = np.asarray(mach, dtype=float)
    if not np.all(mach >= 1.0):
        raise DomainError("shock Mach number must be >= 1")
    g = gas.gamma
    u = 2.0 * (mach**2 - 1.0) / ((g + 1.0) * mach)
    p = mach * u
    rho = np.divide(u, mach - u, out=np.zeros_like(u), where=mach - u != 0.0)
    return JumpSet(*as_scalar(mach, u, p, rho))


def mach_from_p_jump(p_jump, gas=GasParams()):
    """Shock Mach number carrying pressure jump ``p_jump`` >= 0."""
    p_jump = np.asarray(p_jump, dtype=float)
    if not np.all(p_jump >= 0.0):
        raise DomainError("pressure jump must be >= 0 for a compressive shock")
    mach = np.sqrt(1.0 + 0.5 * (gas.gamma + 1.0) * p_jump)
    return as_scalar(mach)


def mu_nu(mach, gas=GasParams()):
    """Auxiliary strength polynomials mu = 2 + (g-1)U^2, nu = 2g U^2 + 1 - g."""
    mach = np.asarray(mach, dtype=float)
    if not np.all(mach >= 1.0):
        raise DomainError("shock Mach number must be >= 1")
    g = gas.gamma
    mu = 2.0 + (g - 1.0) * mach**2
    nu = 2.0 * g * mach**2 + 1.0 - g
    return as_scalar(mu, nu)


def psi(x, geom=Geometry(0)):
    """Geometric decay factor x**(-j/2) of a weak wavelet at position x >= 1."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 1.0):
        raise DomainError("position must be >= 1 (the initial wavefront radius)")
    out = x ** (-0.5 * geom.j)
    return as_scalar(out)


def ray_integral(x, geom=Geometry(0)):
    """Accumulated ray integral J(x) = int_1^x s**(-j/2) ds, closed form."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 1.0):
        raise DomainError("position must be >= 1 (the initial wavefront radius)")
    if geom.j == 0:
        out = x - 1.0
    elif geom.j == 1:
        out = 2.0 * (np.sqrt(x) - 1.0)
    else:
        out = np.log(x)
    return as_scalar(out)


def ray_integral_leading(x, geom=Geometry(0)):
    """Large-x leading part of ray_integral: x, 2*sqrt(x) or log(x)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 1.0):
        raise DomainError("position must be >= 1 (the initial wavefront radius)")
    if geom.j == 0:
        out = x * 1.0
    elif geom.j == 1:
        out = 2.0 * np.sqrt(x)
    else:
        out = np.log(x)
    return as_scalar(out)


def ray_integral_inverse(value, geom=Geometry(0)):
    """Position x >= 1 at which ray_integral(x) equals ``value`` >= 0."""
    value = np.asarray(value, dtype=float)
    if not np.all(value >= 0.0):
        raise DomainError("ray integral is nonnegative for x >= 1")
    if geom.j == 0:
        out = 1.0 + value
    elif geom.j == 1:
        out = (1.0 + 0.5 * value) ** 2
    else:
        out = np.exp(value)
    return as_scalar(out)


def far_field_gradient(x, gas=GasParams(), geom=Geometry(0)):
    """Far-field gradient jump 2/(gamma+1) * psi(x) / J_lead(x).

    That is 2/(gamma+1) * {1/x; 1/(2x); 1/(x log x)}.  The law is the same
    for the transport and the wavefront routes and carries no memory of the
    initial strength.
    """
    return 2.0 / (gas.gamma + 1.0) * np.divide(psi(x, geom), ray_integral_leading(x, geom))
