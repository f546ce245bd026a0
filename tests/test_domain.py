"""Every public numeric entry point refuses NaN and infinity with DomainError.

One table: an entry point and one of its numeric arguments, set to the bad
value with every other argument valid.  pytest turns warnings into errors,
so a raw RuntimeWarning on the way fails a case as well.  decay_slope's y is
absent: it skips samples that are not positive and finite, by design.
"""

import dataclasses
import functools
import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import shockdecay as sd
from shockdecay.core import MAX_GAMMA, MAX_MACH, MAX_SAMPLES
from shockdecay.transport import MAX_COEFFICIENT_MACH

GAS, CYL, SPH = sd.GasParams(1.4), sd.Geometry(1), sd.Geometry(2)
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
    "BoundaryPulse.vdot0": lambda v: sd.BoundaryPulse(lambda t: np.sin(np.pi * t), 1.0, v),
    "BoundaryPulse.integral": lambda v: sd.BoundaryPulse(
        lambda t: np.sin(np.pi * t), 1.0, np.pi, lambda t: np.where(t > 0.0, v, 0.0)
    ),
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
    "compare_methods.h": lambda v: sd.compare_methods(GAS, [CYL], v, 1.0, 1e4),
    "compare_methods.k": lambda v: sd.compare_methods(GAS, [CYL], 0.05, v, 1e4),
    "compare_methods.x_end": lambda v: sd.compare_methods(GAS, [CYL], 0.05, 1.0, v),
}
for j in (0, 2):  # wngo_decay checks x itself, in every geometry (cylindrical above)
    CALLS[f"wngo_decay.x[{j}]"] = lambda v, g=sd.Geometry(j): sd.wngo_decay(0.1, GAS, g, v)
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


# A Python integer past the float range reads as +-inf where a scalar is
# expected, and as NaN in an array, so the check that refuses infinity refuses
# it too, with no OverflowError on the way.  The integral row is absent: its
# value is what a caller's integral returns, not an argument.  Nor are the
# arguments whose range check compared the integer itself, and so refused it.
HUGE = 10**400
COMPARED_EXACTLY = ("GasParams.gamma", "integrate_ccw.U0", "integrate_ccw.x_end",
                    "Scenario.x_end", "compare_methods.h", "compare_methods.x_end")
HUGE_INTEGERS = {name: functools.partial(call, HUGE) for name, call in CALLS.items()
                 if name != "BoundaryPulse.integral" and name not in COMPARED_EXACTLY}
HUGE_INTEGERS["breakdown_distance.k<0"] = lambda: sd.breakdown_distance(0.1, -HUGE, GAS, CYL)


@pytest.mark.parametrize("name", list(HUGE_INTEGERS))
def test_huge_integer_input_raises_domain_error(name):
    with pytest.raises(sd.DomainError):
        HUGE_INTEGERS[name]()


# Large but finite inputs whose answer overflows a float, or which lie above
# a Mach ceiling (core.MAX_MACH, transport.MAX_COEFFICIENT_MACH): DomainError,
# and no overflow warning on the way.  compare_methods also refuses, next to the
# compare-methods defaults, the finite data that command exits 2 on.  Sample
# counts are checked like --samples: an integer in [2, MAX_SAMPLES].  A
# geometry index must be an integer, and decay_slope's x and y one shape.
# simple_wave_u takes a scalar rhs, not an array or a list.  A pulse table
# must start at tau = 0, increase, and not vanish everywhere.  A custom pulse
# must vanish at tau0, which a NaN v(tau0) does not.
# wngo_decay refuses x = 1, where J = 0, in every geometry, and x just above 1
# where the cylindrical J = 2(sqrt(x) - 1) rounds to 0.
COMPARE = dict(gas=GAS, geometries=list(map(sd.Geometry, (0, 1, 2))), h=0.05, k=1.0, x_end=1e12)
SCEN = sd.Scenario(GAS, CYL)
LARGE_FINITE = {
    "asymptotic_law.h_over_k": lambda: sd.asymptotic_law(2.0, 1e300, 1e-300),
    "wngo_decay.b": lambda: sd.wngo_decay(1e308, x=1.0000001),
    "wngo_decay.b_array": lambda: sd.wngo_decay(1e300, x=[1.0 + 1e-12, 2.0]),
    "wngo_decay.x=1[0]": lambda: sd.wngo_decay(0.1, GAS, sd.Geometry(0), 1.0),
    "wngo_decay.x=1[1]": lambda: sd.wngo_decay(0.1, GAS, CYL, [2.0, 1.0]),
    "wngo_decay.x=1[2]": lambda: sd.wngo_decay(0.1, GAS, SPH, 1.0),
    "wngo_decay.x_above_1[1]": lambda: sd.wngo_decay(0.1, GAS, CYL, np.nextafter(1.0, 2.0)),
    "ruw_state.u": lambda: sd.ruw_state(1e300),
    "ruw_state.u_gamma": lambda: sd.ruw_state(1e308, sd.GasParams(40.0)),  # (gamma-1) u overflows
    "jumps_from_mach.mach": lambda: sd.jumps_from_mach(1e200),
    "mu_nu.mach": lambda: sd.mu_nu(1e200),
    "g_classic.U": lambda: sd.g_classic(1e200),
    "g_generalized.U": lambda: sd.g_generalized(1e200),
    "jumps_from_mach.above_max_mach": lambda: sd.jumps_from_mach([1.5, 1.01 * MAX_MACH]),
    "first_order_coefficients.U": lambda: sd.first_order_coefficients(1e77, GAS, 0.5),
    "first_order_coefficients.above_ceiling": lambda: sd.first_order_coefficients(
        1.01 * MAX_COEFFICIENT_MACH
    ),
    "second_order_coefficients.U": lambda: sd.second_order_coefficients(1e38, GAS, CYL, 2.0),
    "second_order_coefficients.above_ceiling": lambda: sd.second_order_coefficients(
        1.01 * MAX_COEFFICIENT_MACH, GAS, CYL, 2.0
    ),
    "first_order_coefficients.omega_k12": lambda: sd.first_order_coefficients(1.2, GAS, 1e308),
    "second_order_coefficients.gamma_k23": lambda: sd.second_order_coefficients(
        1e30, sd.GasParams(1e4), CYL, 2.0
    ),
    "GasParams.gamma": lambda: sd.GasParams(1.7e308),
    "GasParams.above_max_gamma": lambda: sd.GasParams(np.nextafter(MAX_GAMMA, math.inf)),
    "mu_nu.gamma": lambda: sd.mu_nu(1.5, sd.GasParams(1.7e308)),
    "compare_methods.h=0.2": lambda: sd.compare_methods(**COMPARE | {"h": 0.2}),
    "compare_methods.h=1e300": lambda: sd.compare_methods(**COMPARE | {"h": 1e300}),
    "compare_methods.k=0": lambda: sd.compare_methods(**COMPARE | {"k": 0.0}),
    "compare_methods.k=1e300": lambda: sd.compare_methods(**COMPARE | {"k": 1e300}),
    "compare_methods.x_end=1e300": lambda: sd.compare_methods(**COMPARE | {"x_end": 1e300}),
    "compare_methods.no_geometries": lambda: sd.compare_methods(**COMPARE | {"geometries": []}),
    "compare_methods.repeated_geometry": lambda: sd.compare_methods(
        **COMPARE | {"geometries": [CYL, CYL]}
    ),
    "integrate_ccw.n_samples=1": lambda: sd.integrate_ccw(1.5, GAS, SPH, 1e4, n_samples=1),
    "integrate_ccw.n_samples=0": lambda: sd.integrate_ccw(1.5, GAS, SPH, 1e4, n_samples=0),
    "integrate_ccw.n_samples=-1": lambda: sd.integrate_ccw(1.5, GAS, SPH, 1e4, n_samples=-1),
    "integrate_ccw.n_samples=2.5": lambda: sd.integrate_ccw(1.5, GAS, SPH, 1e4, n_samples=2.5),
    "integrate_ccw.above_max_samples": lambda: sd.integrate_ccw(
        1.5, GAS, SPH, 1e4, n_samples=MAX_SAMPLES + 1
    ),
    "integrate_truncated.n_samples=1": lambda: sd.integrate_truncated(SCEN, n_samples=1),
    "integrate_truncated.n_samples=-1": lambda: sd.integrate_truncated(SCEN, n_samples=-1),
    "integrate_truncated.n_samples=2.5": lambda: sd.integrate_truncated(SCEN, n_samples=2.5),
    "integrate_truncated.above_max_samples": lambda: sd.integrate_truncated(
        SCEN, n_samples=MAX_SAMPLES + 1
    ),
    "Geometry.j=1.0": lambda: sd.Geometry(1.0),
    "decay_slope.shapes": lambda: sd.decay_slope([1.0, 2.0, 3.0], [1.0, 2.0]),
    "simple_wave_u.rhs_array": lambda: sd.simple_wave_u(np.array([0.1, 0.2])),
    "simple_wave_u.rhs_list": lambda: sd.simple_wave_u([0.1]),
    "from_table.first_knot_above_0": lambda: sd.BoundaryPulse.from_table(
        [0.1, 0.5, 1.0], [0.0, 0.1, 0.0]
    ),
    "from_table.repeated_knot": lambda: sd.BoundaryPulse.from_table(
        [0.0, 0.5, 0.5, 1.0], [0.0, 0.1, 0.1, 0.0]
    ),
    "from_table.all_zero": lambda: sd.BoundaryPulse.from_table([0.0, 0.5, 1.0], [0.0] * 3),
    # (gamma+1) k J(x)/2 overflows, for either sign of k, or [p] = h psi/sqrt(I) does.
    "closed_form.growth": lambda: sd.closed_form(1e18, 0.1, 1e300),
    "closed_form.growth_k<0": lambda: sd.closed_form([2.0, 1e18], 0.1, -1e300),
    "closed_form.p_jump": lambda: sd.closed_form(2.0, 1.7e308, -0.1),
    "leading_order_reference.growth": lambda: sd.leading_order_reference(1e18, 0.1, 1e300),
    "leading_order_reference.growth_k<0": lambda: sd.leading_order_reference(1e18, 0.1, -1e300),
    "leading_order_reference.p_jump": lambda: sd.leading_order_reference(2.0, 1.7e308, -0.1),
    "mach_from_p_jump.p_jump": lambda: sd.mach_from_p_jump(1.7e308),
    # The ramp integral's tau0^3 overflows; pi/tau0 is inf, so v is NaN.
    "linear_ramp.tau0": lambda: sd.BoundaryPulse.linear_ramp(0.1, 1e153),
    "half_sine.tau0": lambda: sd.BoundaryPulse.half_sine(0.1, 1e-320),
    "BoundaryPulse.v(tau0)=nan": lambda: sd.BoundaryPulse(
        lambda t: np.where(t == 1.0, np.nan, np.sin(np.pi * t)), 1.0, np.pi,
        lambda t: (1.0 - np.cos(np.pi * t)) / np.pi,
    ),
}


@pytest.mark.parametrize("name", list(LARGE_FINITE))
def test_large_finite_input_raises_domain_error(name):
    with pytest.raises(sd.DomainError):
        LARGE_FINITE[name]()


# Scalar arguments that are not one real number: a string, None, a complex
# number, or an array of any shape but 0-d (a 0-d real array is a number).
# Array arguments that numpy cannot turn into floats.
PAIR = np.array([1.4, 1.5])
NON_NUMBERS = {
    "GasParams.gamma=str": lambda: sd.GasParams("1.4"),
    "GasParams.gamma=array": lambda: sd.GasParams(PAIR),
    "GasParams.gamma=1-element array": lambda: sd.GasParams(np.array([1.4])),
    "closed_form.h=array": lambda: sd.closed_form(2.0, PAIR / 10.0, 1.0),
    "closed_form.k=array": lambda: sd.closed_form(2.0, 0.1, PAIR),
    "closed_form.h=str": lambda: sd.closed_form(2.0, "0.1", 1.0),
    "Scenario.h=array": lambda: sd.Scenario(GAS, CYL, h=PAIR / 10.0),
    "Scenario.k=array": lambda: sd.Scenario(GAS, CYL, k=PAIR),
    "Scenario.x_end=array": lambda: sd.Scenario(GAS, CYL, x_end=PAIR * 10.0),
    "Scenario.x_end=str": lambda: sd.Scenario(GAS, CYL, x_end="10"),
    "asymptotic_law.k=array": lambda: sd.asymptotic_law(2.0, 0.1, PAIR),
    "breakdown_distance.k=array": lambda: sd.breakdown_distance(0.1, -PAIR),
    "half_sine.v0=array": lambda: sd.BoundaryPulse.half_sine(PAIR / 10.0, 1.0),
    "half_sine.tau0=str": lambda: sd.BoundaryPulse.half_sine(0.1, "1.0"),
    "linear_ramp.m=array": lambda: sd.BoundaryPulse.linear_ramp(PAIR / 10.0, 1.0),
    "linear_ramp.tau0=str": lambda: sd.BoundaryPulse.linear_ramp(0.1, "1.0"),
    "BoundaryPulse.vdot0=array": lambda: sd.BoundaryPulse(np.sin, np.pi, vdot0=PAIR),
    "integrate_ccw.U0=array": lambda: sd.integrate_ccw(PAIR, GAS, CYL),
    "wngo_decay.b=array": lambda: sd.wngo_decay(PAIR, GAS, CYL, 10.0),
    "compare_methods.h=array": lambda: sd.compare_methods(**COMPARE | {"h": PAIR / 20.0}),
    "simple_wave_u.rhs=str": lambda: sd.simple_wave_u("0.1"),
    "simple_wave_u.rhs=None": lambda: sd.simple_wave_u(None),
    "simple_wave_u.rhs=complex": lambda: sd.simple_wave_u(1 + 0j),
    "psi.x=str": lambda: sd.psi("abc"),
    "psi.x=complex": lambda: sd.psi(2 + 1j),
    "jumps_from_mach.mach=str": lambda: sd.jumps_from_mach("x"),
    "closed_form.x=str": lambda: sd.closed_form("a", 0.1, 1.0),
    "integrate_truncated.convention=str": lambda: sd.integrate_truncated(SCEN, "leading"),
    "integrate_truncated.convention=None": lambda: sd.integrate_truncated(SCEN, None),
    "integrate_truncated.convention=3": lambda: sd.integrate_truncated(SCEN, 3),
}


@pytest.mark.parametrize("name", list(NON_NUMBERS))
def test_non_number_input_raises_domain_error(name):
    with pytest.raises(sd.DomainError):
        NON_NUMBERS[name]()


def test_zero_dimensional_real_arrays_pass():
    # A 0-d real array is one number: the same answer as the float it holds.
    assert sd.GasParams(np.array(1.4)).gamma == 1.4
    assert sd.closed_form(2.0, np.array(0.1), np.array(1.0)) == sd.closed_form(2.0, 0.1, 1.0)
    pulse = sd.BoundaryPulse.half_sine(np.array(0.1), 1.0)
    assert pulse.b == sd.BoundaryPulse.half_sine(0.1, 1.0).b
    assert sd.simple_wave_u(np.array(0.1)) == sd.simple_wave_u(0.1)


def test_numpy_integer_sample_counts_pass():
    # A numpy integer count is an integer: the same history as a Python int.
    for n in (2, 3, 1000):
        ccw = sd.integrate_ccw(1.5, GAS, SPH, 1e4, n_samples=np.int64(n))
        np.testing.assert_array_equal(ccw.U, sd.integrate_ccw(1.5, GAS, SPH, 1e4, n_samples=n).U)
        hist = sd.integrate_truncated(SCEN, n_samples=np.int32(n))
        np.testing.assert_array_equal(hist.p_jump, sd.integrate_truncated(SCEN, n_samples=n).p_jump)


# Large finite inputs with a finite answer: that answer, and no warning on the way.
@pytest.mark.parametrize("rhs", [1e200, 1e300])
def test_simple_wave_u_answers_large_rhs(rhs):
    # The root of u (1 + a u)^5 = rhs, a = (gamma-1)/2 at gamma = 1.4, by
    # Newton's method in 50 digits from the returned u.
    u = sd.simple_wave_u(rhs, GAS)
    with localcontext() as ctx:
        ctx.prec = 50
        a, root = Decimal(0.5 * (GAS.gamma - 1.0)), Decimal(u)
        for _ in range(5):
            s = 1 + a * root
            root -= (root * s**5 - Decimal(rhs)) / (s**4 * (1 + 6 * a * root))
    assert abs(u - float(root)) <= 1e-13 * float(root)


@pytest.mark.parametrize("gamma", [1.0001, 1.4, 5.0 / 3.0, MAX_GAMMA])
def test_simple_wave_u_meets_its_residual_bound_at_every_magnitude(gamma):
    # Every finite rhs gets a root, checked against Newton's method in 50
    # digits on log map(u) = log rhs: |map(u) - rhs| < 1e-13 below rhs = 1,
    # and a relative residual below 4 eps (1 + log rhs) from there on, where
    # the float residual itself rounds to ~eps log rhs.
    gas, eps = sd.GasParams(gamma), np.finfo(float).eps
    rhs = np.concatenate((np.geomspace(1e-300, 1.7e308, 121), [1.0, np.finfo(float).max]))
    with localcontext() as ctx:
        ctx.prec = 50
        a = (Decimal(gamma) - 1) / 2

        def log_map(u):
            return u.ln() + (1 + a * u).ln() / a

        for r in map(float, rhs):
            u, log_r = Decimal(sd.simple_wave_u(r, gas)), Decimal(r).ln()
            root = u
            for _ in range(8):
                root *= (-(log_map(root) - log_r) / (1 + root / (1 + a * root))).exp()
            if r < 1.0:
                assert abs(log_map(u).exp() - Decimal(r)) < Decimal(1e-13), r
            else:
                bound = Decimal(4 * eps * (1.0 + math.log(r)))
                assert abs(log_map(u) - log_r) < bound and abs(u / root - 1) < bound, r


@pytest.mark.parametrize("gamma", [1.01, 1.4, 5.0 / 3.0, 3.0, 20.0, MAX_GAMMA])
def test_coefficients_at_the_mach_ceiling(gamma):
    # At the ceiling every coefficient is finite, and k11 has reached its
    # large-U limit -(gamma-1)/(2 gamma-1); the correction is O(U^-2).
    gas = sd.GasParams(gamma)
    k11 = sd.first_order_coefficients(MAX_COEFFICIENT_MACH, gas, 0.5).k11
    assert k11 == pytest.approx(-(gamma - 1.0) / (2.0 * gamma - 1.0), rel=1e-14)
    for j in (0, 1, 2):
        c = sd.second_order_coefficients(MAX_COEFFICIENT_MACH, gas, sd.Geometry(j), 2.0)
        assert all(math.isfinite(v) for v in dataclasses.astuple(c))
    assert all(math.isfinite(v) for v in dataclasses.astuple(sd.jumps_from_mach(MAX_MACH, gas)))
    for f in (sd.mu_nu, sd.g_classic, sd.g_generalized):
        assert np.all(np.isfinite(f(MAX_MACH, gas)))


# Characteristic-rule starts near the float ceiling: a finite history or
# DomainError, never a warning.  Every start up to MAX_MACH = 1e153 is accepted.
CCW_CEILING = [
    (gamma, U0, variant)
    for gamma in (1.01, 1.4, 33.0, MAX_GAMMA)
    for U0 in (1e150, 1e153, 5e153, 8e153, 1e154, 1.3e154, 1e200, 1e300)
    for variant in sd.CcwVariant
]


@pytest.mark.parametrize(
    "gamma, U0, variant", CCW_CEILING, ids=[f"{v.value}-{g}-{u:g}" for g, u, v in CCW_CEILING]
)
def test_large_ccw_start_gives_finite_history_or_domain_error(gamma, U0, variant):
    try:
        hist = sd.integrate_ccw(U0, sd.GasParams(gamma), CYL, 1e6, variant)
    except sd.DomainError:
        assert U0 > MAX_MACH
        return
    assert np.all(np.isfinite(hist.U)) and np.all(np.isfinite(hist.p_jump))


# A Python bool is not a real number here (True is no gamma, rhs or geometry
# index), nor is a ragged nested list.  Array arguments that numpy cannot turn
# into floats, and x and tau that do not broadcast, are refused too.
RAGGED = [[1.4], [1.4, 1.5]]
NOT_REAL = {
    "GasParams.gamma=ragged": lambda: sd.GasParams(RAGGED),
    "closed_form.h=ragged": lambda: sd.closed_form(2.0, RAGGED, 1.0),
    "integrate_ccw.U0=ragged": lambda: sd.integrate_ccw(RAGGED, GAS, CYL),
    "simple_wave_u.rhs=ragged": lambda: sd.simple_wave_u(RAGGED),
    "simple_wave_u.rhs=True": lambda: sd.simple_wave_u(True),
    "closed_form.k=True": lambda: sd.closed_form(2.0, 0.1, True),
    "half_sine.tau0=True": lambda: sd.BoundaryPulse.half_sine(0.05, True),
    "wngo_decay.b=True": lambda: sd.wngo_decay(True, GAS, CYL, 10.0),
    "compare_methods.k=True": lambda: sd.compare_methods(**COMPARE | {"k": True}),
    "Geometry.j=True": lambda: sd.Geometry(True),
    "Geometry.j=False": lambda: sd.Geometry(False),
    "wngo_decay.x=str": lambda: sd.wngo_decay(0.1, GAS, CYL, "a"),
    "asymptotic_law.x=str": lambda: sd.asymptotic_law("a", 0.1, 1.0, GAS, CYL),
    "ruw_state.u=str": lambda: sd.ruw_state("a"),
    "decay_slope.y=str": lambda: sd.decay_slope([1, 2], ["a", "b"]),
    "wavelet_time.shapes": lambda: sd.wavelet_time(
        np.array([2.0, 3.0, 4.0]), np.array([0.1, 0.2]), PULSE, GAS, CYL
    ),
    "v_integral.tau=str": lambda: PULSE.v_integral("a"),
    "from_table.taus=str": lambda: sd.BoundaryPulse.from_table(["a", "b", "c"], [0, 1, 0]),
    "from_table.values=str": lambda: sd.BoundaryPulse.from_table([0, 1, 2], ["a", "b", "c"]),
    "from_table.taus=ragged": lambda: sd.BoundaryPulse.from_table([[0], [1, 2]], [0, 1, 0]),
    "from_table.values=ragged": lambda: sd.BoundaryPulse.from_table([0, 1, 2], [[0], [1, 0]]),
    "fit_shock.x_grid=str": lambda: sd.fit_shock(PULSE, x_grid=["a", "b"]),
    "fit_shock.x_grid=ragged": lambda: sd.fit_shock(PULSE, x_grid=[[2.0], [3.0, 4.0]]),
}


@pytest.mark.parametrize("name", list(NOT_REAL))
def test_bool_ragged_or_unconvertible_input_raises_domain_error(name):
    with pytest.raises(sd.DomainError):
        NOT_REAL[name]()


def test_wavelet_time_takes_lists_that_broadcast():
    # Lists are numbers too, and a scalar x or tau broadcasts against an array.
    taus = np.array([0.0, 0.25, 0.5])
    expected = sd.wavelet_time(np.full(3, 2.0), taus, PULSE, GAS, CYL)
    listed = sd.wavelet_time([2.0] * 3, list(taus), PULSE, GAS, CYL)
    np.testing.assert_array_equal(listed, expected)
    np.testing.assert_array_equal(sd.wavelet_time(2.0, taus, PULSE, GAS, CYL), expected)


def test_gas_params_stores_a_python_float():
    # gamma is converted once, where it enters: a numpy or 0-d gamma gives a
    # hashable GasParams and a report that serializes like a float's.
    assert type(sd.GasParams(np.float64(1.4)).gamma) is float
    gas = sd.GasParams(np.array(1.4))
    assert hash(gas) == hash(sd.GasParams(1.4))
    report = sd.compare_methods(gas, [CYL], 0.05, 1.0, 1e4)
    assert json.dumps(report) == json.dumps(sd.compare_methods(GAS, [CYL], 0.05, 1.0, 1e4))


def _bits(value):
    """An output as comparable bits: float hex, array bytes, fields of a record."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _bits(dataclasses.astuple(value))
    if isinstance(value, np.ndarray) and value.ndim:
        return value.dtype.str, value.tobytes()
    return float(value).hex() if isinstance(value, (float, np.ndarray)) else value


def _outcome(call):
    """What a call gives: its output's bits, or its exception's type and message."""
    try:
        out = call()
    except Exception as exc:  # a warning is an error here, and so an outcome
        return type(exc).__name__, str(exc)
    return _bits(out)


# Arguments (gas, geom, a, b, c, p, q, u): a and b of either sign, c >= 1, p = |a|,
# q = |b| and u = 1 + |a|, each made before the scalar type is applied.
TYPED_CALLS = {
    "Scenario": lambda g, geom, a, b, c, p, q, u: sd.Scenario(g, geom, p, b, c),
    "closed_form": lambda g, geom, a, b, c, p, q, u: sd.closed_form(c, a, b, g, geom),
    "leading_order_reference": lambda g, geom, a, b, c, p, q, u: sd.leading_order_reference(
        c, a, b, g, geom
    ),
    "asymptotic_law": lambda g, geom, a, b, c, p, q, u: sd.asymptotic_law(c, a, b, g, geom),
    "breakdown_distance": lambda g, geom, a, b, c, p, q, u: sd.breakdown_distance(a, b, g, geom),
    "formation_distance.ramp": lambda g, geom, a, b, c, p, q, u: sd.formation_distance(
        sd.BoundaryPulse.linear_ramp(a, c), g, geom
    ),
    "formation_distance.half_sine": lambda g, geom, a, b, c, p, q, u: sd.formation_distance(
        sd.BoundaryPulse.half_sine(a, c), g, geom
    ),
    "simple_wave_u": lambda g, geom, a, b, c, p, q, u: sd.simple_wave_u(p, g),
    "ruw_state": lambda g, geom, a, b, c, p, q, u: sd.ruw_state(a, g),
    "wngo_decay": lambda g, geom, a, b, c, p, q, u: sd.wngo_decay(p, g, geom, c),
    "mach_from_p_jump": lambda g, geom, a, b, c, p, q, u: sd.mach_from_p_jump(p, g),
    "integrate_ccw": lambda g, geom, a, b, c, p, q, u: sd.integrate_ccw(u, g, geom, c, n_samples=4),
    "first_order_coefficients": lambda g, geom, a, b, c, p, q, u: sd.first_order_coefficients(
        u, g, q
    ),
    "second_order_coefficients": lambda g, geom, a, b, c, p, q, u: sd.second_order_coefficients(
        u, g, geom, c
    ),
}
SCALAR_TYPES = {"float": float, "float64": np.float64, "0-d": np.array}


def test_scalar_type_does_not_change_the_outcome():
    # Each scalar argument as a Python float, an np.float64 and a 0-d float64
    # array: the same output bits, or the same exception and message, with
    # warnings as errors.  Half the magnitudes span 1e-320 to 1e308, where a
    # numpy scalar warns on an overflow that a Python float takes quietly.
    rng = np.random.default_rng(32)
    for _ in range(300):
        gamma = 1.0 + 49.0 * (1.0 - rng.random()) ** 3
        geom = sd.Geometry(int(rng.integers(3)))
        wide = rng.random(3) < 0.5
        exponents = np.where(wide, rng.uniform(-320, 308.25, 3), rng.uniform(-2, 2, 3))
        a, b, c = 10.0**exponents * rng.choice([-1.0, 1.0], 3)
        c = 1.0 + abs(c)  # a position, an x_end or a pulse duration
        values = (a, b, c, abs(a), abs(b), 1.0 + abs(a))
        for name, call in TYPED_CALLS.items():
            outcomes = {
                kind: _outcome(lambda: call(sd.GasParams(to(gamma)), geom, *map(to, values)))
                for kind, to in SCALAR_TYPES.items()
            }
            assert outcomes["float64"] == outcomes["0-d"] == outcomes["float"], (name, values)
