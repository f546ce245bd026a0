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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (MAX_MACH, GasParams, Geometry, _machs, _mu_nu, _real, _u_p_jumps,
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
    U = _machs(U)
    mu, nu = _mu_nu(U, gas.gamma)
    return as_scalar((1.0 + 2.0 * np.sqrt(mu / nu) + U**-2.0) * (
        1.0 + (U * U - 1.0) / (np.sqrt(mu) * np.sqrt(nu))))  # mu*nu ~ U^4 overflows


def g_generalized(U, gas=GasParams()):
    """Transport-rule coefficient G(U) (gradient jump neglected); G(1) = 4."""
    U, g = _machs(U), gas.gamma
    mu, nu = _mu_nu(U, g)
    return as_scalar((g + 1.0) * (2.0 * U * U / nu + (U * U + 1.0) / mu))


def _phi_f(s, n_gen, g):
    """Phi and f = U g(U)/(U + 1) at s = log(U - 1), unchecked: the generalized rule's
    on the first n_gen rows, the classic rule's on the rest.  f is built from Phi's
    terms m = U^2 - 1, mu, nu and t, so it is g_generalized's and g_classic's to 4 eps."""
    e = np.exp(s)
    e2, U = 2.0 + e, 1.0 + e
    m = e * e2
    gm, gm1 = 2.0 * g * m, (g - 1.0) * m
    mu, nu, w = g + 1.0 + gm1, g + 1.0 + gm, 1.0 + m  # w = U^2
    lead, log_nu = 2.0 * (s + np.log(e2)), np.log1p(gm / (g + 1.0))
    phi, coeff, G, C = np.empty_like(s), np.empty_like(s), slice(n_gen), slice(n_gen, None)
    # G: with w = U^2, f ds = G dw / (2(w - 1)) in partial fractions.
    phi[G] = (lead[G] - (g - 1.0) / (2.0 * g) * log_nu[G]
              + (3.0 - g) / (2.0 * (g - 1.0)) * np.log1p(gm1[G] / (g + 1.0)))
    coeff[G] = (g + 1.0) * (2.0 * w[G] / nu[G] + (w[G] + 1.0) / mu[G])
    # g_classic: t = sqrt(mu/nu) makes f ds rational in t; sqrt(mu nu) = t nu.
    t = np.sqrt(mu[C] / nu[C])
    c3 = (2.0 * g - 1.0) / (2.0 * math.sqrt(2.0 * g * (g - 1.0)))
    phi[C] = (lead[C] - np.log1p(e[C]) - 2.0 * np.log1p(t)
              + ((g + 1.0) / (2.0 * g) - 1.5 + c3) * log_nu[C]
              + 2.0 * c3 * np.log(math.sqrt(2.0 * g) * t + math.sqrt(g - 1.0))
              - np.arctan(t * math.sqrt(0.5 * (g - 1.0))) / math.sqrt(2.0 * (g - 1.0)))
    coeff[C] = (1.0 + 2.0 * t + 1.0 / w[C]) * (1.0 + m[C] / (t * nu[C]))
    return phi, U * coeff / (U + 1.0)


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
    Phi' = f = U g(U)/(U + 1) is smooth and bounded and Phi is elementary.
    Each sample's s is found by Newton's method, started on the chord of Phi
    between edges 1/2 apart in s.  The history ends at the last sample with
    U - 1 at or above WEAK_LIMIT_FLOOR.  A U0 above MAX_MACH, or at which Phi
    or f overflows a float, raises DomainError.
    """
    if not isinstance(variant, CcwVariant):
        raise DomainError(f"unknown decay-rule variant {variant!r}")
    if not 1.0 + WEAK_LIMIT_FLOOR < _real(U0) <= MAX_MACH:
        raise DomainError(
            f"initial Mach number must exceed 1 + {WEAK_LIMIT_FLOOR:g} and be <= {MAX_MACH:g}"
        )
    check_x_end(x_end)
    check_samples(n_samples)
    xs = log_grid(1.0, x_end, n_samples)
    return _integrate_rules(U0, gas, [geom], xs, (variant,))[variant][geom]


def _integrate_rules(U0, gas, geoms, xs, rules):
    """{rule: {geom: integrate_ccw history}} for the rules given, GENERALIZED first,
    at a checked U0 and checked positions xs from x = 1.

    One Newton iteration over the samples of every curved front of every rule
    (a planar one keeps U = U0), one _phi_f call per step.  Each sample is an
    elementwise closed form with its own Phi(s0) and step test, so each history
    is integrate_ccw's."""
    s0, s_floor, g = math.log(U0 - 1.0), math.log(WEAK_LIMIT_FLOOR), gas.gamma
    edges = np.linspace(s0, s_floor, math.ceil(2.0 * (s0 - s_floor)) + 1)
    generalized = rules[0] is CcwVariant.GENERALIZED
    with np.errstate(over="ignore", invalid="ignore"):
        table, f = _phi_f(np.tile(edges, len(rules)), edges.size * generalized, g)
    # The float ceiling: refuse a U0 whose Phi or f is not finite (edges[0] is
    # s0); no Newton iterate lies above s0, so nothing below it overflows.
    phi0 = table[:: edges.size]
    if not (np.isfinite(phi0).all() and np.isfinite(f[:: edges.size]).all()):
        raise DomainError(f"the decay rule overflows a float at U0 = {U0}, gamma = {g}")
    log_xs = np.log(xs)
    targets, starts = [], []  # targets: one array per (rule, geometry)
    for p0, row in zip(phi0, table.reshape(len(rules), -1)):
        phi = p0 - row  # int_edge^s0 f, rising from 0
        targets += [t[t <= phi[-1]] for t in (geom.j * log_xs for geom in geoms)]
        starts.append(np.interp(np.concatenate(targets[-len(geoms) :]), phi, edges))
    s, target = np.concatenate(starts), np.concatenate(targets)
    phi0 = np.repeat(phi0, [start.size for start in starts])
    n_gen = starts[0].size * generalized  # rows of the generalized rule
    for start in range(0, target.size, _NEWTON_SLICE):
        # A zero target (x = 1, a planar front) keeps U = U0.
        live = start + np.flatnonzero(target[start : start + _NEWTON_SLICE])
        for _ in range(_NEWTON_CAP):
            if not live.size:
                break
            a, t, p0 = s[live], target[live], phi0[live]
            phi, f = _phi_f(a, np.searchsorted(live, n_gen), g)
            step = (p0 - phi - t) / f
            s[live] = a = np.minimum(a + step, s0)
            # Phi(s0) - Phi(s) rounds at eps * (|Phi(s0)| + target), s at its own.
            live = live[~(abs(step) <= 8 * np.finfo(float).eps * (abs(a) + t + abs(p0)))]
        if live.size:
            raise SolverError(f"Newton iteration for U(x) did not converge in {_NEWTON_CAP} steps")
    U = np.where(target == 0.0, U0, 1.0 + np.exp(s))
    p = _u_p_jumps(U, g)[1]  # jumps_from_mach's [p]: every U lies in [1, U0]
    out, stops = {rule: {} for rule in rules}, np.cumsum([t.size for t in targets])
    for (rule, geom), t, stop in zip(itertools.product(rules, geoms), targets, stops):
        out[rule][geom] = CcwHistory(x=xs[: t.size], U=U[stop - t.size : stop],
                                     p_jump=p[stop - t.size : stop], variant=rule)
    return out
