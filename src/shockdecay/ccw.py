"""Shock-dynamics decay rules of characteristic type.

Applying the shock-jump relations along the forward characteristic yields
an ODE for the Mach number alone,

    U g(U) / (U^2 - 1) * dU/dx + j/x = 0,

with the classic area-rule coefficient g(U).  The same structure arises
from the strength-transport equation when the rearward gradient jump is
neglected, with a different coefficient G(U).  Both coefficients tend to 4
as U -> 1, so the two rules coincide for weak shocks; at finite strength
they differ by a few percent.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (GasParams, Geometry, _machs, _mu_nu, as_scalar, check_x_end,
                   gauss_legendre, jumps_from_mach, write_csv)
from .errors import DomainError, SolverError

# A history ends once U - 1 falls below this floor (the shock has
# effectively degenerated into a sound wave).
WEAK_LIMIT_FLOOR = 1e-10
_NEWTON_CAP = 50  # 3-4 steps suffice from the linear guess; more means a cycle
# Newton runs over slices of at most this many samples: each step evaluates f
# on eight nodes per sample, so memory stays bounded at any sample count.
_NEWTON_SLICE = 65536


class CcwVariant(enum.Enum):
    CLASSIC = "classic"
    GENERALIZED = "generalized"


def g_classic(U, gas=GasParams()):
    """Area-rule coefficient g(U); g(1) = 4."""
    return as_scalar(_g_classic(_machs(U), gas.gamma))


def _g_classic(U, g):
    mu, nu = _mu_nu(U, g)
    return (1.0 + 2.0 * np.sqrt(mu / nu) + U**-2.0) * (
        1.0 + (U * U - 1.0) / (np.sqrt(mu) * np.sqrt(nu))  # mu*nu ~ U^4 overflows
    )


def g_generalized(U, gas=GasParams()):
    """Transport-rule coefficient G(U) (gradient jump neglected); G(1) = 4."""
    return as_scalar(_g_generalized(_machs(U), gas.gamma))


def _g_generalized(U, g):
    mu, nu = _mu_nu(U, g)
    return (g + 1.0) * (2.0 * U * U / nu + (U * U + 1.0) / mu)


# Unchecked kernels: the integrand's Mach numbers 1 + exp(s) need no check.
_COEFFICIENTS = {CcwVariant.CLASSIC: _g_classic, CcwVariant.GENERALIZED: _g_generalized}


@dataclass(frozen=True)
class CcwHistory:
    """Sampled Mach-number decay along the ray, with the pressure jump."""

    x: np.ndarray
    U: np.ndarray
    p_jump: np.ndarray
    variant: CcwVariant

    def to_csv(self, path):
        write_csv(path, "x,U,p_jump", (self.x, self.U, self.p_jump))


def integrate_ccw(
    U0,
    gas=GasParams(),
    geom=Geometry(0),
    x_end=100.0,
    variant=CcwVariant.GENERALIZED,
    n_samples=200,
):
    """Evaluate the decay rule from (x=1, U=U0) at geomspace(1, x_end, n_samples).

    With s = log(U - 1) the rule reads j log x = Phi(s) = int_s^s0 f, where
    f = U g(U)/(U + 1) is smooth and bounded.  Phi is tabulated at the edges
    of panels no wider than 1/2 in s, from s0 down to the weak-limit floor,
    by 8-point Gauss-Legendre; each sample's s is then found by Newton's
    method inside its panel (Phi' = -f).  The history ends at the last
    sample with U - 1 at or above WEAK_LIMIT_FLOOR.
    """
    return integrate_ccw_geometries(U0, gas, [geom], x_end, variant, n_samples)[geom]


def integrate_ccw_geometries(
    U0, gas, geoms, x_end=100.0, variant=CcwVariant.GENERALIZED, n_samples=200
):
    """integrate_ccw for each geometry of ``geoms``: {Geometry: CcwHistory}.

    Phi depends on U0, gas and variant only: one table and one Newton
    iteration over the samples of every curved front (a planar one keeps
    U = U0).  Each sample stops on its own step test and no sum depends on
    its neighbours, so each history is integrate_ccw's.
    """
    if not 1.0 + WEAK_LIMIT_FLOOR < U0 < math.inf:
        raise DomainError(
            f"initial Mach number must be finite and exceed 1 + {WEAK_LIMIT_FLOOR:g}"
        )
    check_x_end(x_end)
    if not isinstance(variant, CcwVariant):
        raise DomainError(f"unknown decay-rule variant {variant!r}")
    f, edges, phi = _phi_table(U0, gas, variant)
    xs = np.geomspace(1.0, x_end, n_samples)
    log_x = np.log(xs)
    targets = [t[t <= phi[-1]] for t in (geom.j * log_x for geom in geoms)]
    target = np.concatenate(targets)
    panel = np.minimum(np.searchsorted(phi, target, side="right") - 1, edges.size - 2)
    s = np.interp(target, phi, edges)
    for start in range(0, target.size, _NEWTON_SLICE):
        # A zero target (x = 1, a planar front) keeps U = U0.
        live = start + np.flatnonzero(target[start : start + _NEWTON_SLICE])
        for _ in range(_NEWTON_CAP):
            if not live.size:
                break
            a, t, k = s[live], target[live], panel[live]
            step = (phi[k] + gauss_legendre(f, a, edges[k]) - t) / f(a)
            s[live] = a + step
            # Phi(s) carries rounding of order eps * target, and s its own.
            live = live[~(np.abs(step) <= 8.0 * np.finfo(float).eps * (np.abs(s[live]) + t))]
        if live.size:
            raise SolverError(f"Newton iteration for U(x) did not converge in {_NEWTON_CAP} steps")
    out, pieces = {}, np.split(s, np.cumsum([t.size for t in targets])[:-1])
    for geom, t, s_geom in zip(geoms, targets, pieces):
        U = np.where(t == 0.0, U0, 1.0 + np.exp(s_geom))
        p = jumps_from_mach(U, gas).p_jump
        out[geom] = CcwHistory(x=xs[: U.size], U=U, p_jump=np.asarray(p), variant=variant)
    return out


def _phi_table(U0, gas, variant):
    """The integrand f(s), the panel edges in s and Phi at those edges."""
    coeff, g = _COEFFICIENTS[variant], gas.gamma

    def f(s):
        U = 1.0 + np.exp(s)
        return U * coeff(U, g) / (U + 1.0)

    s0, s_floor = math.log(U0 - 1.0), math.log(WEAK_LIMIT_FLOOR)
    edges = np.linspace(s0, s_floor, math.ceil(2.0 * (s0 - s_floor)) + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        phi = np.concatenate(([0.0], np.cumsum(gauss_legendre(f, edges[1:], edges[:-1]))))
    if not np.isfinite(phi[-1]):
        raise DomainError(f"the decay coefficient overflows for U0 = {U0}")
    return f, edges, phi
