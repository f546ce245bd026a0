"""Every public numeric entry point refuses NaN and infinity with DomainError.

One table: an entry point and one of its numeric arguments, set to the bad
value with every other argument valid.  pytest turns warnings into errors,
so a raw RuntimeWarning on the way fails a case as well.  decay_slope's y is
absent: it skips samples that are not positive and finite, by design.
"""

import math

import numpy as np
import pytest

import shockdecay as sd

GAS, CYL = sd.GasParams(1.4), sd.Geometry(1)
PULSE = sd.BoundaryPulse.half_sine(0.05, 1.0)

CALLS = {
    "GasParams.gamma": lambda v: sd.GasParams(v),
    "jumps_from_mach.mach": lambda v: sd.jumps_from_mach(v),
    "mach_from_p_jump.p_jump": lambda v: sd.mach_from_p_jump(v),
    "mu_nu.mach": lambda v: sd.mu_nu(np.array([1.5, v])),
    "g_classic.U": lambda v: sd.g_classic(v),
    "g_generalized.U": lambda v: sd.g_generalized(v),
    "integrate_ccw.U0": lambda v: sd.integrate_ccw(v, GAS, CYL),
    "integrate_ccw.x_end": lambda v: sd.integrate_ccw(1.5, GAS, CYL, v),
    "first_order_coefficients.U": lambda v: sd.first_order_coefficients(v, GAS, 0.5),
    "first_order_coefficients.omega": lambda v: sd.first_order_coefficients(1.2, GAS, v),
    "t_matrix.U": lambda v: sd.t_matrix(v, GAS, CYL, 2.0),
    "t_matrix.x": lambda v: sd.t_matrix(1.2, GAS, CYL, v),
    "t_matrix_derivatives.U": lambda v: sd.t_matrix_derivatives(v, GAS, CYL, 2.0),
    "t_matrix_derivatives.x": lambda v: sd.t_matrix_derivatives(1.2, GAS, CYL, v),
    "second_order_coefficients.U": lambda v: sd.second_order_coefficients(v, GAS, CYL, 2.0),
    "second_order_coefficients.x": lambda v: sd.second_order_coefficients(1.2, GAS, CYL, v),
    "Scenario.h": lambda v: sd.Scenario(GAS, CYL, h=v),
    "Scenario.k": lambda v: sd.Scenario(GAS, CYL, k=v),
    "Scenario.x_end": lambda v: sd.Scenario(GAS, CYL, x_end=v),
    "closed_form.x": lambda v: sd.closed_form([2.0, v], 0.1, 1.0, GAS, CYL),
    "closed_form.h": lambda v: sd.closed_form(2.0, v, 1.0, GAS, CYL),
    "closed_form.k": lambda v: sd.closed_form(2.0, 0.1, v, GAS, CYL),
    "leading_order_reference.x": lambda v: sd.leading_order_reference(v, 0.1, 1.0, GAS, CYL),
    "leading_order_reference.h": lambda v: sd.leading_order_reference(2.0, v, 1.0, GAS, CYL),
    "leading_order_reference.k": lambda v: sd.leading_order_reference(2.0, 0.1, v, GAS, CYL),
    "asymptotic_law.x": lambda v: sd.asymptotic_law(v, 0.1, 1.0, GAS, CYL),
    "asymptotic_law.h": lambda v: sd.asymptotic_law(2.0, v, 1.0, GAS, CYL),
    "asymptotic_law.k": lambda v: sd.asymptotic_law(2.0, 0.1, v, GAS, CYL),
    "breakdown_distance.h": lambda v: sd.breakdown_distance(v, -1.0, GAS, CYL),
    "breakdown_distance.k": lambda v: sd.breakdown_distance(0.1, v, GAS, CYL),
    "decay_slope.x": lambda v: sd.decay_slope([2.0, 3.0, v], [1.0, 2.0, 3.0]),
    "BoundaryPulse.tau0": lambda v: sd.BoundaryPulse(np.sin, v),
    "BoundaryPulse.half_sine.v0": lambda v: sd.BoundaryPulse.half_sine(v, 1.0),
    "BoundaryPulse.half_sine.tau0": lambda v: sd.BoundaryPulse.half_sine(0.05, v),
    "BoundaryPulse.linear_ramp.m": lambda v: sd.BoundaryPulse.linear_ramp(v, 1.0),
    "BoundaryPulse.linear_ramp.tau0": lambda v: sd.BoundaryPulse.linear_ramp(0.05, v),
    "BoundaryPulse.from_table.taus": lambda v: sd.BoundaryPulse.from_table(
        [0.0, 0.5, v], [0.0, 1.0, 0.0]
    ),
    "BoundaryPulse.from_table.values": lambda v: sd.BoundaryPulse.from_table(
        [0.0, 0.5, 1.0], [0.0, v, 0.0]
    ),
    "BoundaryPulse.v_integral.tau": lambda v: PULSE.v_integral(v),
    "wavelet_time.x": lambda v: sd.wavelet_time(v, 0.5, PULSE, GAS, CYL),
    "wavelet_time.tau": lambda v: sd.wavelet_time(2.0, v, PULSE, GAS, CYL),
    "fit_shock.x_grid": lambda v: sd.fit_shock(PULSE, GAS, CYL, [300.0, v]),
    "wngo_decay.b": lambda v: sd.wngo_decay(v, GAS, CYL, 10.0),
    "wngo_decay.x": lambda v: sd.wngo_decay(0.1, GAS, CYL, v),
    "ruw_state.u": lambda v: sd.ruw_state(v),
    "simple_wave_u.rhs": lambda v: sd.simple_wave_u(v),
}
for j in (0, 1, 2):  # psi and J are checked in every geometry, also where x is unused
    geom = sd.Geometry(j)
    CALLS[f"psi.x[{j}]"] = lambda v, g=geom: sd.psi(v, g)
    CALLS[f"ray_integral.x[{j}]"] = lambda v, g=geom: sd.ray_integral([2.0, v], g)
    CALLS[f"ray_integral_leading.x[{j}]"] = lambda v, g=geom: sd.ray_integral_leading(v, g)
    CALLS[f"ray_integral_inverse.value[{j}]"] = lambda v, g=geom: sd.ray_integral_inverse(v, g)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(CALLS))
def test_non_finite_input_raises_domain_error(name, value):
    with pytest.raises(sd.DomainError):
        CALLS[name](value)


# Large but finite inputs whose answer overflows a float: DomainError, and
# no overflow warning on the way.
LARGE_FINITE = {
    "asymptotic_law.h_over_k": lambda: sd.asymptotic_law(2.0, 1e300, 1e-300),
    "wngo_decay.b": lambda: sd.wngo_decay(1e308, x=1.0000001),
    "ruw_state.u": lambda: sd.ruw_state(1e300),
}


@pytest.mark.parametrize("name", list(LARGE_FINITE))
def test_large_finite_input_raises_domain_error(name):
    with pytest.raises(sd.DomainError):
        LARGE_FINITE[name]()
