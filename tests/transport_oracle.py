"""Shared test oracle: the truncated transport equations integrated by DOP853.

Importable from the test modules, which pytest runs with this directory on
sys.path.
"""

from scipy.integrate import solve_ivp


def ode_oracle(scen, xs):
    """DOP853 on the truncated system, stopped where x [p_x] falls to -1e10."""
    c = 0.25 * (scen.gas.gamma + 1.0)
    j = scen.geom.j

    def rhs(x, y):
        p, px = y
        om = 0.5 * j / x
        return (-c * p * px - om * p, -2.0 * c * px * px - om * px)

    def blowup(x, y):
        return x * y[1] + 1e10

    blowup.terminal = True
    blowup.direction = -1
    return solve_ivp(
        rhs, (1.0, scen.x_end), (scen.h, scen.k), method="DOP853", t_eval=xs,
        rtol=1e-13, atol=1e-300, events=blowup,
    )
