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

from .core import (MAX_MACH, GasParams, Geometry, _is_real, _machs, _mu_nu, _u_p_jumps,
                   as_scalar, check_samples, check_x_end, log_grid, write_csv)
from .errors import DomainError, SolverError

# A history ends once U - 1 falls below this floor (the shock has
# effectively degenerated into a sound wave).
WEAK_LIMIT_FLOOR = 1e-10
_NEWTON_CAP = 50  # 3-4 steps suffice from the linear guess; more means a cycle
# Newton runs over slices of at most this many samples: each step evaluates
# f and Phi elementwise, so memory stays bounded at any sample count.
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


def _phi_generalized(s, g):
    """Phi for G: with w = U^2, f ds = G dw / (2(w - 1)) in partial fractions."""
    e = np.exp(s)
    m = e * (2.0 + e)  # U^2 - 1
    return (2.0 * (s + np.log(2.0 + e)) - (g - 1.0) / (2.0 * g) * np.log1p(2.0 * g * m / (g + 1.0))
            + (3.0 - g) / (2.0 * (g - 1.0)) * np.log1p((g - 1.0) * m / (g + 1.0)))


def _phi_classic(s, g):
    """Phi for g_classic: t = sqrt(mu/nu) makes f ds rational in t."""
    e = np.exp(s)
    m = e * (2.0 + e)
    t = np.sqrt((g + 1.0 + (g - 1.0) * m) / (g + 1.0 + 2.0 * g * m))
    c3 = (2.0 * g - 1.0) / (2.0 * math.sqrt(2.0 * g * (g - 1.0)))
    return (2.0 * (s + np.log(2.0 + e)) - np.log1p(e) - 2.0 * np.log1p(t)
            + ((g + 1.0) / (2.0 * g) - 1.5 + c3) * np.log1p(2.0 * g * m / (g + 1.0))
            + 2.0 * c3 * np.log(math.sqrt(2.0 * g) * t + math.sqrt(g - 1.0))
            - np.arctan(t * math.sqrt(0.5 * (g - 1.0))) / math.sqrt(2.0 * (g - 1.0)))


# Unchecked kernels: the integrand's Mach numbers 1 + exp(s) need no check.
_COEFFICIENTS = {CcwVariant.CLASSIC: _g_classic, CcwVariant.GENERALIZED: _g_generalized}
_PHI = {CcwVariant.CLASSIC: _phi_classic, CcwVariant.GENERALIZED: _phi_generalized}


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

    With s = log(U - 1) the rule reads j log x = Phi(s0) - Phi(s), where
    Phi' = f = U g(U)/(U + 1) is smooth and bounded and Phi is elementary
    (_phi_classic, _phi_generalized).  Each sample's s is found by Newton's
    method, started on the chord of Phi between edges 1/2 apart in s.  The
    history ends at the last sample with U - 1 at or above WEAK_LIMIT_FLOOR.
    A U0 above MAX_MACH, or at which Phi or f overflows a float, raises
    DomainError.
    """
    return integrate_ccw_geometries(U0, gas, [geom], x_end, variant, n_samples)[geom]


def integrate_ccw_geometries(
    U0, gas, geoms, x_end=100.0, variant=CcwVariant.GENERALIZED, n_samples=200
):
    """integrate_ccw for each geometry of ``geoms``: {Geometry: CcwHistory}.

    Phi depends on U0, gas and variant only: one Newton iteration over the
    samples of every curved front (a planar one keeps U = U0).  Each sample
    is an elementwise closed form with its own step test, so each history
    is integrate_ccw's.
    """
    if not (_is_real(U0) and 1.0 + WEAK_LIMIT_FLOOR < U0 <= MAX_MACH):
        raise DomainError(
            f"initial Mach number must exceed 1 + {WEAK_LIMIT_FLOOR:g} and be <= {MAX_MACH:g}"
        )
    check_x_end(x_end)
    check_samples(n_samples)
    if not isinstance(variant, CcwVariant):
        raise DomainError(f"unknown decay-rule variant {variant!r}")
    coeff, phi_of, g = _COEFFICIENTS[variant], _PHI[variant], gas.gamma

    def f(s):
        U = 1.0 + np.exp(s)
        return U * coeff(U, g) / (U + 1.0)

    # The float ceiling: refuse a U0 whose Phi or f is not finite; no Newton
    # iterate lies above s0, so nothing below it overflows.
    s0, s_floor = math.log(U0 - 1.0), math.log(WEAK_LIMIT_FLOOR)
    with np.errstate(over="ignore", invalid="ignore"):
        phi0, f0 = phi_of(s0, g), f(s0)
    if not np.isfinite([phi0, f0]).all():
        raise DomainError(f"the decay rule overflows a float at U0 = {U0}, gamma = {g}")
    edges = np.linspace(s0, s_floor, math.ceil(2.0 * (s0 - s_floor)) + 1)
    phi = phi0 - phi_of(edges, g)  # int_edge^s0 f, rising from 0
    xs = log_grid(1.0, x_end, n_samples)
    log_xs = np.log(xs)
    targets = [t[t <= phi[-1]] for t in (geom.j * log_xs for geom in geoms)]
    target = np.concatenate(targets)
    s = np.interp(target, phi, edges)
    for start in range(0, target.size, _NEWTON_SLICE):
        # A zero target (x = 1, a planar front) keeps U = U0.
        live = start + np.flatnonzero(target[start : start + _NEWTON_SLICE])
        for _ in range(_NEWTON_CAP):
            if not live.size:
                break
            a, t = s[live], target[live]
            step = (phi0 - phi_of(a, g) - t) / f(a)
            s[live] = np.minimum(a + step, s0)
            # Phi(s0) - Phi(s) rounds at eps * (|Phi(s0)| + target), s at its own.
            live = live[~(abs(step) <= 8 * np.finfo(float).eps * (abs(s[live]) + t + abs(phi0)))]
        if live.size:
            raise SolverError(f"Newton iteration for U(x) did not converge in {_NEWTON_CAP} steps")
    U = np.where(target == 0.0, U0, 1.0 + np.exp(s))
    p = _u_p_jumps(U, g)[1]  # jumps_from_mach's [p]: every U lies in [1, U0]
    stops = np.cumsum([t.size for t in targets])
    return {geom: CcwHistory(x=xs[: t.size], U=U[stop - t.size : stop],
                             p_jump=p[stop - t.size : stop], variant=variant)
            for geom, t, stop in zip(geoms, targets, stops)}

