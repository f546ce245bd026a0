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
from scipy.integrate import solve_ivp

from .core import GasParams, Geometry, as_scalar, jumps_from_mach, mu_nu, write_csv
from .errors import DomainError, SolverError

# Integration stops once U - 1 falls below this floor (the shock has
# effectively degenerated into a sound wave).
WEAK_LIMIT_FLOOR = 1e-10


class CcwVariant(enum.Enum):
    CLASSIC = "classic"
    GENERALIZED = "generalized"


def g_classic(U, gas=GasParams()):
    """Area-rule coefficient g(U); g(1) = 4."""
    U = np.asarray(U, dtype=float)
    mu, nu = mu_nu(U, gas)
    out = (1.0 + 2.0 * np.sqrt(mu / nu) + U**-2.0) * (
        1.0 + (U * U - 1.0) / np.sqrt(mu * nu)
    )
    return as_scalar(out)


def g_generalized(U, gas=GasParams()):
    """Transport-rule coefficient G(U) (gradient jump neglected); G(1) = 4."""
    U = np.asarray(U, dtype=float)
    mu, nu = mu_nu(U, gas)
    g = gas.gamma
    out = (g + 1.0) * (2.0 * U * U / nu + (U * U + 1.0) / mu)
    return as_scalar(out)


_COEFFICIENTS = {
    CcwVariant.CLASSIC: g_classic,
    CcwVariant.GENERALIZED: g_generalized,
}


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
    rtol=1e-10,
    atol=1e-12,
    n_samples=200,
):
    """Integrate the decay rule from (x=1, U=U0) out to x_end.

    Stops early if U decays to within WEAK_LIMIT_FLOOR of 1.  The integrated
    variable is the Mach excess U - 1, and the solver's absolute floor is
    tightened to rtol * WEAK_LIMIT_FLOOR, so the excess keeps full relative
    resolution all the way down to the termination floor.
    """
    if not 1.0 < U0 < math.inf:
        raise DomainError("initial Mach number must be finite and exceed 1")
    if not 1.0 < x_end < math.inf:
        raise DomainError("x_end must be finite and exceed the initial position x = 1")
    if not 0.0 < rtol < math.inf:
        raise DomainError("solver tolerance rtol must be finite and positive")
    if not isinstance(variant, CcwVariant):
        raise DomainError(f"unknown decay-rule variant {variant!r}")
    coeff = _COEFFICIENTS[variant]
    j = geom.j

    def rhs(x, y):
        d = y[0]
        U = 1.0 + d
        return (-(j / x) * d * (d + 2.0) / (U * coeff(U, gas)),)

    def sonic(x, y):
        return y[0] - WEAK_LIMIT_FLOOR

    sonic.terminal = True
    sonic.direction = -1

    xs = np.geomspace(1.0, x_end, n_samples)
    sol = solve_ivp(
        rhs,
        (1.0, x_end),
        (U0 - 1.0,),
        method="RK45",
        t_eval=xs,
        rtol=rtol,
        atol=min(atol, rtol * WEAK_LIMIT_FLOOR),
        events=sonic,
    )
    if sol.status == -1:
        raise SolverError(f"integration failed near x = {sol.t[-1]}: {sol.message}")
    x = sol.t
    U = 1.0 + np.maximum(sol.y[0], 0.0)  # clip tolerance-level undershoot
    p = jumps_from_mach(U, gas).p_jump
    return CcwHistory(x=x, U=U, p_jump=np.asarray(p), variant=variant)
