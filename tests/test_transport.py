"""Tests for the strength/gradient transport coefficients and the decay ODE.

The central oracle: the coefficient matrix that maps the gradient jump to
the rearward velocity and density gradients must make the interior balance
laws (mass, momentum, pressure) close exactly just behind the front.  The
residuals of those balance laws are recomputed here from primitive
quantities, independently of the coefficient formulas under test.
"""

import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from shockdecay import (
    AsymptoteConvention,
    BoundaryPulse,
    BreakdownError,
    DomainError,
    GasParams,
    Geometry,
    Scenario,
    breakdown_distance,
    closed_form,
    decay_slope,
    first_order_coefficients,
    formation_distance,
    integrate_truncated,
    jumps_from_mach,
    leading_order_reference,
    mu_nu,
    psi,
    ray_integral,
    ray_integral_inverse,
    ray_integral_leading,
    second_order_coefficients,
)
from shockdecay.core import MAX_X_END, log_grid
from shockdecay.transport import (
    MAX_COEFFICIENT_MACH,
    REFERENCE_CASES,
    REFERENCE_X,
    ShockHistory,
    _coefficients,
    asymptotic_law,
)
from transport_oracle import ode_oracle

GAS = GasParams(1.4)
PLANAR, CYL, SPH = Geometry(0), Geometry(1), Geometry(2)
GAMMAS = (1.01, 1.1, 1.3, 1.4, 5.0 / 3.0)


def t_matrix(U, gas, geom, x=1.0):
    """The gradient map T = (t11, t12, t21, t22) at the Mach number U."""
    return _coefficients(U * U - 1.0, gas.gamma, geom.j, x)[2]


def interior_residuals(U, gas, geom, x, px):
    """Residuals of the three interior balance laws just behind the front.

    Given the front state (U, geometry, position) and the rearward pressure
    gradient px, the strength transport equation supplies the front-frame
    time derivative of the pressure, the jump relations chain it to the
    velocity and density derivatives, and the gradient map supplies the
    rearward velocity/density gradients.  All three interior equations must
    then vanish identically.
    """
    g = gas.gamma
    om = 0.5 * geom.j / x
    jumps = jumps_from_mach(U, gas)
    u, p, rho = jumps.u_jump, jumps.p_jump, jumps.rho_jump
    mu, _ = mu_nu(U, gas)

    first = first_order_coefficients(U, gas, omega=2.0 * om)
    dpdt = U * (first.k11 * px + first.k12)
    dudt = (U * U + 1.0) / (2.0 * U**3) * dpdt
    drdt = ((g + 1.0) / mu) ** 2 * dpdt

    t11, t12, t21, t22 = t_matrix(U, gas, geom, x)
    ux = t11 * px + t12
    rx = t21 * px + t22

    r_mass = drdt + (u - U) * rx + (1.0 + rho) * ux + 2.0 * om * u * (1.0 + rho)
    r_mom = dudt + (u - U) * ux + px / (1.0 + rho)
    r_pres = dpdt + (1.0 + g * p) * ux + (u - U) * px + 2.0 * om * u * (1.0 + g * p)
    return r_mass, r_mom, r_pres


def test_gradient_map_closes_interior_equations():
    rng = np.random.default_rng(7)
    for _ in range(50):
        U = 1.0 + 2.5 * rng.random()
        gamma = 1.2 + 0.5 * rng.random()
        j = rng.integers(0, 3)
        x = 1.0 + 9.0 * rng.random()
        px = -2.0 + 4.0 * rng.random()
        res = interior_residuals(U, GasParams(gamma), Geometry(int(j)), x, px)
        for r in res:
            assert abs(r) < 1e-10


def test_first_order_coefficients_reduced_form():
    # k11 = -2 (U^2-1) mu / D and k12 / k11 = 2 nu Omega / (gamma+1)^2,
    # with D = U^2 (2 mu + nu) + nu; recomputed here from scratch.
    rng = np.random.default_rng(21)
    for _ in range(30):
        U = 1.0 + 2.0 * rng.random()
        gamma = 1.2 + 0.5 * rng.random()
        om = 2.0 * rng.random()
        gas = GasParams(gamma)
        mu, nu = mu_nu(U, gas)
        D = U * U * (2.0 * mu + nu) + nu
        c = first_order_coefficients(U, gas, omega=om)
        assert c.k11 == pytest.approx(-2.0 * (U * U - 1.0) * mu / D, rel=1e-13)
        assert c.k12 == pytest.approx(
            c.k11 * 2.0 * nu * om / (gamma + 1.0) ** 2, rel=1e-13, abs=1e-300
        )


def test_first_order_frozen_values():
    c = first_order_coefficients(1.3, GAS, omega=0.7)
    assert c.k11 == pytest.approx(-0.17841758318211073, rel=1e-14)
    assert c.k12 == pytest.approx(-0.1878588469588307, rel=1e-14)
    for gamma in GAMMAS:
        weak = first_order_coefficients(1.0, GasParams(gamma), omega=0.7)
        assert weak.k11 == 0.0
        assert weak.k12 == 0.0


def test_t_matrix_frozen_values():
    t11, t12, t21, t22 = t_matrix(1.3, GAS, CYL, x=2.0)
    assert t11 == pytest.approx(0.6036759921490592, rel=1e-14)
    assert t12 == pytest.approx(-0.12451098859686953, rel=1e-14)
    assert t21 == pytest.approx(0.8492827155254205, rel=1e-14)
    assert t22 == pytest.approx(0.007191764274504212, rel=1e-14)


def test_t_matrix_weak_limit():
    for gamma in GAMMAS:
        assert t_matrix(1.0, GasParams(gamma), PLANAR) == (1.0, 0.0, 1.0, 0.0)
    # Approach along U -> 1 stays consistent with the exact limit.
    t11, _, t21, _ = t_matrix(1.0 + 1e-9, GAS, PLANAR)
    assert t11 == pytest.approx(1.0, abs=1e-8)
    assert t21 == pytest.approx(1.0, abs=1e-7)
    # A curved front has no singularity at U = 1: T, its derivatives and the
    # coefficients are finite there and continuous as U -> 1.
    for geom in (CYL, SPH):
        at, near = (_coefficients(U * U - 1.0, GAS.gamma, geom.j, 2.0) for U in (1.0, 1.0 + 1e-9))
        for a, b in zip(at, near):
            assert np.all(np.isfinite(a))
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-6)
    with pytest.raises(DomainError):
        second_order_coefficients(0.9, GAS, PLANAR)


NAN, INF, ABOVE = float("nan"), float("inf"), 1.01 * MAX_COEFFICIENT_MACH


@pytest.mark.parametrize(
    "f, U, where",
    [
        (first_order_coefficients, U, {"omega": omega})
        for U, omega in [(0.9, 0.5), (NAN, 0.5), (1.2, NAN), (INF, 0.5), (ABOVE, 0.5),
                         (1.2, -0.5), (1.2, INF)]
    ]
    + [
        (second_order_coefficients, U, {"geom": CYL, "x": x})
        for U, x in [(INF, 2.0), (ABOVE, 2.0), (1.2, INF), (1.2, -1.0),
                     (0.9, 2.0), (NAN, 2.0), (1.2, 0.5), (1.2, NAN)]
    ],
)
def test_coefficients_reject_outside_domain(f, U, where):
    # Each check tests the accepted range, so NaN is refused like U < 1 or x < 1,
    # and a Mach number above MAX_COEFFICIENT_MACH like one below 1.
    with pytest.raises(DomainError):
        f(U, GAS, **where)


def test_t_matrix_derivatives_match_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(20):
        U = 1.05 + 2.0 * rng.random()
        gamma = 1.2 + 0.5 * rng.random()
        j = int(rng.integers(0, 3))
        x = 1.5 + 8.0 * rng.random()
        gas, geom = GasParams(gamma), Geometry(j)
        dt11, dt12_du, dt12_dx = _coefficients(U * U - 1.0, gamma, j, x)[3]
        h = 1e-5
        plus, minus = t_matrix(U + h, gas, geom, x), t_matrix(U - h, gas, geom, x)
        fd11 = (plus[0] - minus[0]) / (2.0 * h)
        fd12u = (plus[1] - minus[1]) / (2.0 * h)
        xp, xm = t_matrix(U, gas, geom, x + h), t_matrix(U, gas, geom, x - h)
        fd12x = (xp[1] - xm[1]) / (2.0 * h)
        assert dt11 == pytest.approx(fd11, rel=1e-6)
        assert dt12_du == pytest.approx(fd12u, rel=1e-6, abs=1e-12)
        assert dt12_dx == pytest.approx(fd12x, rel=1e-6, abs=1e-12)
    for gamma in GAMMAS:
        assert _coefficients(0.0, gamma, 0, 1.0)[3] == (-2.0, 0.0, 0.0)


def test_public_coefficients_equal_the_kernel():
    # Each wrapper checks its inputs once and returns the kernel's floats at
    # m = U*U - 1, bit for bit, from the weak limit to the Mach ceiling.
    rng = np.random.default_rng(18)
    Us = [1.0, 1.0 + 1e-12, MAX_COEFFICIENT_MACH] + list(1.0 + 10.0 ** rng.uniform(-9, 3, 40))
    for U in Us:
        gamma = float(1.0 + 10.0 ** rng.uniform(-2, 1))
        j, x = int(rng.integers(0, 3)), float(1.0 + 10.0 ** rng.uniform(-3, 3))
        gas, m = GasParams(gamma), U * U - 1.0
        first = first_order_coefficients(U, gas, omega=j / x)
        assert astuple(first) == _coefficients(m, gamma, j / x, 1.0)[:2]
        second = second_order_coefficients(U, gas, Geometry(j), x)
        assert astuple(second) == _coefficients(m, gamma, j, x)[4]


def _exact_weak(m, gamma):
    """k11, k21 and eta at U^2 - 1 = m in exact rational arithmetic.

    U itself is irrational; it enters eta only, as a 200-bit rational.
    """
    m, g = Fraction(m), Fraction(gamma)
    mu, nu = g + 1 + (g - 1) * m, g + 1 + 2 * g * m
    k11 = -2 * m * mu / ((1 + m) * (2 * mu + nu) + nu)
    w = 1 + m
    U = Fraction(math.isqrt(w.numerator * 4**200 // w.denominator), 2**200)
    eta = mu / (2 * mu - (g + 1) * U * k11)
    return k11, m * eta / (1 + m), eta


def test_weak_coefficients_match_exact_rational_forms():
    # Given m = (gamma+1)[p]/2 exactly, nothing cancels as [p] -> 0: k11, k21
    # and eta stay within 4 ulps.  Formed from U instead, U^2 - 1 loses the
    # digits of U - 1 (k11 was off by 5.9e-5 relative at [p] = 1e-12).
    for gamma in GAMMAS:
        for p in (1e-3, 1e-6, 1e-9, 1e-12):
            m = 0.5 * (gamma + 1.0) * p
            k11, _, _, _, (k21, _, _, _, eta) = _coefficients(m, gamma, 1, 2.0)
            for got, exact in zip((k11, k21, eta), _exact_weak(m, gamma)):
                assert abs(got - float(exact)) <= 4 * math.ulp(float(exact))


def test_second_order_coefficients_frozen_values():
    c = second_order_coefficients(1.3, GAS, CYL, x=2.0)
    assert c.k21 == pytest.approx(0.18490952577797296, rel=1e-13)
    assert c.k22 == pytest.approx(0.5529321568622454, rel=1e-13)
    assert c.k23 == pytest.approx(1.562000627102034, rel=1e-13)
    assert c.k24 == pytest.approx(-0.01924619538196229, rel=1e-13)
    assert c.eta == pytest.approx(0.4528943457460496, rel=1e-13)
    c = second_order_coefficients(1.8, GAS, SPH, x=3.0)
    assert c.k21 == pytest.approx(0.2963447728732533, rel=1e-13)
    assert c.k22 == pytest.approx(0.20512891608411035, rel=1e-13)
    assert c.k23 == pytest.approx(1.9431452034723184, rel=1e-13)
    assert c.k24 == pytest.approx(0.16489621707514934, rel=1e-13)
    assert c.eta == pytest.approx(0.4286415464773842, rel=1e-13)


def test_second_order_planar_curvature_terms_vanish():
    # With no front curvature the two geometric source coefficients are
    # identically zero at any strength.
    rng = np.random.default_rng(23)
    for U in 1.0 + 2.5 * rng.random(20):
        c = second_order_coefficients(U, GAS, PLANAR, x=1.0)
        assert c.k23 == 0.0
        assert c.k24 == 0.0


def test_second_order_weak_limit():
    c = second_order_coefficients(1.0, GAS, PLANAR)
    assert (c.k21, c.k22, c.k23, c.k24, c.eta) == (0.0, 1.2, 0.0, 0.0, 0.5)
    for gamma in GAMMAS:
        c = second_order_coefficients(1.0, GasParams(gamma), PLANAR)
        assert astuple(c) == (0.0, 0.5 * (gamma + 1.0), 0.0, 0.0, 0.5)
    near = second_order_coefficients(1.0 + 1e-9, GAS, PLANAR)
    assert near.k21 == pytest.approx(1e-9, rel=1e-5)
    assert near.k22 == pytest.approx(1.2, abs=1e-7)
    assert near.eta == pytest.approx(0.5, abs=1e-9)


def test_second_order_curved_weak_limit_is_finite():
    # The curvature source k23 tends to Omega (gamma+1)^2 / 2 as the front
    # weakens (it does not vanish); frozen against the implementation.
    om = 0.7
    c = second_order_coefficients(1.0 + 1e-9, GAS, SPH, x=2.0 / om)
    assert c.k23 == pytest.approx(om * (GAS.gamma + 1.0) ** 2 / 2.0, rel=1e-5)


def closed_form_reference(x, h, k, gas, geom):
    """Strength/gradient decay laws recomputed from scratch."""
    g = gas.gamma
    J = ray_integral(x, geom)
    shape = psi(x, geom)
    I = 1.0 + 0.5 * (g + 1.0) * k * J
    return h * shape / np.sqrt(I), k * shape / I


def test_closed_form_matches_independent_recomputation():
    rng = np.random.default_rng(31)
    for _ in range(40):
        x = 1.0 + 99.0 * rng.random()
        h = 0.4 * rng.random()
        k = -0.01 + 10.0 * rng.random()
        gamma = 1.2 + 0.5 * rng.random()
        j = int(rng.integers(0, 3))
        gas, geom = GasParams(gamma), Geometry(j)
        if k < 0.0 and x >= breakdown_distance(h, k, gas, geom):
            continue
        p, px = closed_form(x, h, k, gas, geom)
        p_ref, px_ref = closed_form_reference(x, h, k, gas, geom)
        assert p == pytest.approx(p_ref, rel=1e-13)
        assert px == pytest.approx(px_ref, rel=1e-13)


def test_closed_form_satisfies_decay_system():
    # The closed form is the exact solution of the truncated system, so its
    # finite-difference x-derivative must satisfy both equations.
    rng = np.random.default_rng(32)
    for _ in range(25):
        x = 1.5 + 50.0 * rng.random()
        h = 0.4 * rng.random()
        k = 0.1 + 5.0 * rng.random()
        j = int(rng.integers(0, 3))
        geom = Geometry(j)
        g = GAS.gamma
        d = 1e-6 * x
        p, px = closed_form(x, h, k, GAS, geom)
        pp, pxp = closed_form(x + d, h, k, GAS, geom)
        pm, pxm = closed_form(x - d, h, k, GAS, geom)
        dp = (pp - pm) / (2.0 * d)
        dpx = (pxp - pxm) / (2.0 * d)
        om = 0.5 * j / x
        assert dp == pytest.approx(-0.25 * (g + 1.0) * p * px - om * p, rel=2e-7, abs=1e-12)
        assert dpx == pytest.approx(-0.5 * (g + 1.0) * px * px - om * px, rel=2e-7, abs=1e-12)


def test_closed_form_frozen_values():
    p, px = closed_form(100.0, 0.32, 10.0, GAS, PLANAR)
    assert p == pytest.approx(0.009280236649051865, rel=1e-14)
    assert px == pytest.approx(0.008410428931875526, rel=1e-14)
    p, _ = closed_form(np.e**2, 0.1, 1.0, GAS, SPH)
    assert p == pytest.approx(0.007339586237883975, rel=1e-14)


def test_closed_form_initial_data():
    for j in (0, 1, 2):
        p, px = closed_form(1.0, 0.21, -3.0, GAS, Geometry(j))
        assert p == 0.21
        assert px == -3.0


def test_closed_form_past_breakdown_raises():
    xs = breakdown_distance(0.1, -1.0, GAS, PLANAR)
    with pytest.raises(BreakdownError):
        closed_form(xs + 0.1, 0.1, -1.0, GAS, PLANAR)


def test_leading_order_reference_past_breakdown_raises():
    # Planar J = x - 1: 1 + (gamma+1) k J/2 is 1 - 1.2 * 999 < 0 at x = 1e3.
    with pytest.raises(BreakdownError):
        leading_order_reference(1e3, 0.1, -1.0)


def test_asymptotic_law_structure():
    x = np.geomspace(10.0, 1e4, 7)
    for j, power in ((0, -0.5), (1, -0.75)):
        p, px = asymptotic_law(x, 0.32, 10.0, GAS, Geometry(j))
        ratio = p / x**power
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
        # The gradient law carries no memory of the initial strength h.
        _, px_other = asymptotic_law(x, 0.05, 10.0, GAS, Geometry(j))
        np.testing.assert_allclose(px, px_other, rtol=1e-15)
    p, px = asymptotic_law(100.0, 0.32, 10.0, GAS, PLANAR)
    assert p == pytest.approx(0.009237604307034011, rel=1e-14)
    assert px == pytest.approx(0.008333333333333333, rel=1e-14)
    with pytest.raises(DomainError):
        asymptotic_law(10.0, 0.32, -1.0, GAS, PLANAR)
    with pytest.raises(DomainError):  # sqrt(2/((gamma+1)k)) overflows
        asymptotic_law(10.0, 0.32, 1e-320, GAS, PLANAR)


def test_asymptotic_law_is_the_public_composition():
    # asymptotic_law checks x once, then calls the kernels: its answer is the
    # checked public psi and ray_integral_leading bit for bit, on a seeded
    # grid in every geometry, for arrays and for scalars.
    rng = np.random.default_rng(66)
    x = np.sort(1.0 + 10.0 ** rng.uniform(-12.0, 17.0, 400))
    for geom in (PLANAR, CYL, SPH):
        gas, h = GasParams(rng.uniform(1.01, 5.0)), rng.uniform(0.0, 0.5)
        k = 10.0 ** rng.uniform(-6.0, 6.0)
        p, px = asymptotic_law(x, h, k, gas, geom)
        amp = h * math.sqrt(2.0 / ((gas.gamma + 1.0) * k))
        J = ray_integral_leading(x, geom)
        np.testing.assert_array_equal(p, amp * psi(x, geom) / np.sqrt(J))
        np.testing.assert_array_equal(px, 2.0 / (gas.gamma + 1.0) * (psi(x, geom) / J))
        for i in range(0, x.size, 40):
            scalar = asymptotic_law(float(x[i]), h, k, gas, geom)
            assert scalar == (p[i], px[i]) and all(type(v) is float for v in scalar)


def test_leading_order_reference_properties():
    x = np.geomspace(2.0, 1e5, 12)
    # Spherical: the leading ray integral is the full one, so the reference
    # coincides with the exact closed form.
    p_ref, px_ref = leading_order_reference(x, 0.32, 10.0, GAS, SPH)
    p, px = closed_form(x, 0.32, 10.0, GAS, SPH)
    np.testing.assert_allclose(p_ref, p, rtol=1e-15)
    np.testing.assert_allclose(px_ref, px, rtol=1e-15)
    # All geometries: the reference approaches the pure power law.  The
    # relative gap closes like 2/((gamma+1) k J), which at x = 1e8 is far
    # below 1e-3 for the algebraic ray integrals but only ~0.5% for the
    # logarithmic one.
    for j, rel in ((0, 1e-3), (1, 1e-3), (2, 6e-3)):
        p_ref, px_ref = leading_order_reference(1e8, 0.32, 10.0, GAS, Geometry(j))
        p_a, px_a = asymptotic_law(1e8, 0.32, 10.0, GAS, Geometry(j))
        assert p_ref == pytest.approx(p_a, rel=rel)
        assert px_ref == pytest.approx(px_a, rel=rel)


def test_breakdown_distance_inverts_ray_integral():
    rng = np.random.default_rng(41)
    for k in -(0.05 + 5.0 * rng.random(15)):
        for j in (0, 1, 2):
            xs = breakdown_distance(0.1, k, GAS, Geometry(j))
            target = -2.0 / ((GAS.gamma + 1.0) * k)
            assert ray_integral(xs, Geometry(j)) == pytest.approx(target, rel=1e-12)
    assert breakdown_distance(0.1, 0.0, GAS, PLANAR) is None
    assert breakdown_distance(0.1, 2.0, GAS, PLANAR) is None
    # Past MAX_X_END, where a spherical exp(J) would overflow: refused, no warning.
    for j, k in ((2, -1e-12), (2, -1e-320), (0, -1e-19)):
        with pytest.raises(DomainError, match="beyond x = 1e\\+18"):
            breakdown_distance(0.1, k, GAS, Geometry(j))
    at_limit = -2.0 / ((GAS.gamma + 1.0) * ray_integral(MAX_X_END, SPH))
    assert breakdown_distance(0.1, at_limit, GAS, SPH) == pytest.approx(MAX_X_END)


def test_breakdown_distance_is_the_public_inverse():
    # breakdown_distance reads x* off the unchecked inverse: the checked
    # public ray_integral_inverse of -2/((gamma+1) k), bit for bit, on a
    # seeded set of k < 0 in every geometry, up to the MAX_X_END edge.
    rng = np.random.default_rng(67)
    for geom in (PLANAR, CYL, SPH):
        gas, J_max = GasParams(rng.uniform(1.01, 5.0)), ray_integral(MAX_X_END, geom)
        limit = -2.0 / ((gas.gamma + 1.0) * J_max)
        for k in (*-(10.0 ** rng.uniform(-18.0, 6.0, 200)), limit):
            target = -2.0 / ((gas.gamma + 1.0) * k)
            if target > J_max:
                with pytest.raises(DomainError, match="beyond x = 1e\\+18"):
                    breakdown_distance(0.1, k, gas, geom)
                continue
            x_star = breakdown_distance(0.1, k, gas, geom)
            assert x_star == ray_integral_inverse(target, geom) and type(x_star) is float


def test_formation_and_breakdown_are_one_breaking_law():
    # An acceleration wave of compressive slope s breaks where J(x) = 2/((gamma+1) s):
    # the lead shock of a pulse with head slope s forms where a gradient jump k = -s
    # blows up, bit for bit, and past x = 1e18 each route refuses in its own words.
    rng = np.random.default_rng(97)
    refused = 0
    for gamma, s in zip(50.0 - 49.0 * rng.random(300), 10.0 ** rng.uniform(-300.0, 300.0, 300)):
        gas, pulse = GasParams(gamma), BoundaryPulse.linear_ramp(s, 1.0)
        for geom in (PLANAR, CYL, SPH):
            try:
                x_form = formation_distance(pulse, gas, geom)
            except DomainError as exc:
                assert str(exc) == "the lead shock forms beyond x = 1e+18"
                with pytest.raises(DomainError, match="^the gradient jump blows up beyond x = 1e"):
                    breakdown_distance(0.1, -s, gas, geom)
                refused += 1
                continue
            x_star = breakdown_distance(0.1, -s, gas, geom)
            assert x_form == x_star and type(x_form) is float and 1.0 <= x_form <= MAX_X_END
    assert 300 < refused < 600


def test_closed_form_refuses_an_overflowing_growth_term_or_strength():
    # Where (gamma+1) k J(x)/2 or [p] = h psi/sqrt(I) overflows a float, both closed
    # forms refuse with DomainError, in Scenario's words for the growth term.  Just
    # below, [p_x] reads its large-k limit 2/((gamma+1) J(x)) = 8.3e-19 at x = 1e18.
    for f in (closed_form, leading_order_reference):
        for k in (1e300, -1e300):
            with pytest.raises(DomainError, match=r"^\(gamma\+1\) k J\(x\)/2 overflows"):
                f(1e18, 0.1, k, GAS)
        with pytest.raises(DomainError, match=r"^\[p\] overflows"):
            f(2.0, 1.7e308, -0.1, GAS)
    px = closed_form(1e18, 0.1, 1e280, GAS)[1]
    assert px == pytest.approx(2.0 / ((GAS.gamma + 1.0) * ray_integral(1e18)), rel=1e-15)


def test_breakdown_known_values():
    assert breakdown_distance(0.1, -1.0, GAS, PLANAR) == pytest.approx(
        11.0 / 6.0, rel=1e-15
    )
    assert breakdown_distance(0.1, -1.0, GAS, SPH) == pytest.approx(
        2.300975890892825, rel=1e-14
    )


# (h, k, x_end): steep, gentle, zero and expansive gradients at h = 0.1, the
# standard pairs to x = 100, and 18 decades of decay far below any absolute
# tolerance.  Ids keep "k-x_end" for h = 0.1 and append the other strengths.
TRANSPORT_CASES = [
    (0.1, 10.0, 1e18), (0.1, 0.28, 1e18), (0.1, 0.0, 1e18), (0.1, -1.0, 100.0),
    (0.1, -0.05, 1e8), (0.32, 10.0, 100.0), (0.32, 0.28, 100.0), (0.05, 1.0, 100.0),
    (0.05, 1.0, 1e18),
]


@pytest.mark.parametrize("j", [0, 1, 2])
@pytest.mark.parametrize(
    "h, k, x_end",
    [
        pytest.param(h, k, x_end, id=f"{k}-{x_end}" + ("" if h == 0.1 else f"-h{h}"))
        for h, k, x_end in TRANSPORT_CASES
    ],
)
def test_history_matches_integrated_transport_equations(j, h, k, x_end):
    # The history is evaluated from the closed form; integrating the
    # transport equations themselves checks that closed form end to end.
    scen = Scenario(gas=GAS, geom=Geometry(j), h=h, k=k, x_end=x_end)
    hist = integrate_truncated(scen)
    sol = ode_oracle(scen, hist.x)
    assert sol.success
    np.testing.assert_array_equal(sol.t, hist.x)  # same samples before any blow-up
    np.testing.assert_allclose(hist.p_jump, sol.y[0], rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(hist.px_jump, sol.y[1], rtol=1e-8, atol=0.0)
    if sol.status == 1:
        assert hist.breakdown == breakdown_distance(h, k, GAS, Geometry(j))
        assert hist.breakdown == pytest.approx(sol.t_events[0][0], rel=1e-8)
    else:
        assert hist.breakdown is None


def test_integration_records_breakdown():
    rng = np.random.default_rng(43)
    for k in (-0.5, -1.0, -4.0):
        j = int(rng.integers(0, 3))
        scen = Scenario(gas=GAS, geom=Geometry(j), h=0.1, k=k, x_end=100.0)
        hist = integrate_truncated(scen)
        xs = breakdown_distance(0.1, k, GAS, Geometry(j))
        assert hist.breakdown is not None
        assert abs(hist.breakdown - xs) < 1e-8
        assert hist.x[-1] <= xs + 1e-8
    scen = Scenario(gas=GAS, geom=PLANAR, h=0.1, k=1.0, x_end=50.0)
    assert integrate_truncated(scen).breakdown is None


def test_integration_constant_branches():
    # Zero gradient: the gradient stays zero and the strength follows the
    # pure geometric factor; zero strength stays zero.
    scen = Scenario(gas=GAS, geom=CYL, h=0.2, k=0.0, x_end=100.0)
    hist = integrate_truncated(scen)
    np.testing.assert_array_equal(hist.px_jump, 0.0)
    np.testing.assert_allclose(hist.p_jump, 0.2 * psi(hist.x, CYL), rtol=1e-8)
    scen = Scenario(gas=GAS, geom=CYL, h=0.0, k=2.0, x_end=100.0)
    hist = integrate_truncated(scen)
    np.testing.assert_array_equal(hist.p_jump, 0.0)
    assert np.all(hist.px_jump[1:] > 0.0)


def test_integration_first_sample_is_exact():
    scen = Scenario(gas=GAS, geom=PLANAR, h=0.32, k=10.0, x_end=100.0)
    hist = integrate_truncated(scen)
    assert hist.x[0] == 1.0
    assert hist.p_jump[0] == 0.32
    assert hist.px_jump[0] == 10.0


@pytest.mark.parametrize("k, n", [(10.0, 200), (10.0, 7), (0.0, 20), (-3.0, 300), (-0.05, 50)])
def test_history_is_the_log_grid_cut_at_breakdown(k, n):
    # The history holds the n_samples points asked for, and no others; a
    # breakdown drops exactly the samples at and past x*.
    scen = Scenario(gas=GAS, geom=CYL, h=0.32, k=k, x_end=1e4)
    hist = integrate_truncated(scen, n_samples=n)
    grid = np.unique(log_grid(1.0, scen.x_end, n))
    assert grid.size == n
    if hist.breakdown is None:
        assert np.array_equal(hist.x, grid)
    else:
        assert np.array_equal(hist.x, grid[: hist.x.size])
        assert hist.x[-1] < hist.breakdown <= grid[hist.x.size]


def test_history_grid_drops_repeats_of_a_tiny_window():
    # A window of a few ulps repeats log_grid's points; the history keeps each once.
    x_end = np.nextafter(np.nextafter(1.0, 2.0), 2.0)
    hist = integrate_truncated(Scenario(gas=GAS, x_end=x_end), n_samples=50)
    assert hist.x.tolist() == [1.0, np.nextafter(1.0, 2.0), x_end]


def test_error_columns_follow_convention():
    scen = Scenario(gas=GAS, geom=PLANAR, h=0.32, k=10.0, x_end=100.0)
    hist = integrate_truncated(scen, convention=AsymptoteConvention.LEADING)
    p_ref, _ = leading_order_reference(hist.x, 0.32, 10.0, GAS, PLANAR)
    np.testing.assert_allclose(hist.p_asym, p_ref, rtol=1e-15)
    np.testing.assert_allclose(hist.p_err, np.abs(hist.p_jump - p_ref), rtol=1e-12)
    hist = integrate_truncated(scen, convention=AsymptoteConvention.POWER_LAW)
    p_ref, _ = asymptotic_law(hist.x, 0.32, 10.0, GAS, PLANAR)
    np.testing.assert_allclose(hist.p_asym, p_ref, rtol=1e-15)
    # No asymptote exists for non-positive gradient data.
    scen = Scenario(gas=GAS, geom=PLANAR, h=0.32, k=0.0, x_end=100.0)
    hist = integrate_truncated(scen)
    assert np.all(np.isnan(hist.p_asym))


def test_history_csv_roundtrip(tmp_path):
    scen = Scenario(gas=GAS, geom=SPH, h=0.32, k=0.28, x_end=50.0)
    hist = integrate_truncated(scen, n_samples=40)
    path = tmp_path / "hist.csv"
    hist.to_csv(path)
    text = path.read_text()
    assert text.startswith("x,p_jump,px_jump,p_asym,px_asym,p_err,px_err\n")
    assert "\r" not in text
    back = ShockHistory.from_csv(path)
    np.testing.assert_array_equal(back.x, hist.x)
    np.testing.assert_array_equal(back.p_jump, hist.p_jump)
    np.testing.assert_array_equal(back.px_jump, hist.px_jump)
    np.testing.assert_array_equal(back.p_err, hist.p_err)


def test_scenario_validation():
    with pytest.raises(DomainError):
        Scenario(gas=GAS, geom=PLANAR, h=0.1, k=1.0, x_end=0.5)
    Scenario(gas=GAS, geom=PLANAR, x_end=MAX_X_END)  # the bound is inclusive
    with pytest.raises(DomainError):
        Scenario(gas=GAS, geom=PLANAR, x_end=np.nextafter(MAX_X_END, np.inf))
    with pytest.raises(DomainError):
        Scenario(gas=GAS, geom=PLANAR, h=-0.1, k=1.0, x_end=10.0)
    with pytest.warns(UserWarning):
        Scenario(gas=GAS, geom=PLANAR, h=0.9, k=1.0, x_end=10.0)


def test_decay_slope_recovers_power_law():
    x = np.geomspace(10.0, 1e4, 30)
    assert decay_slope(x, 3.2 * x**-0.75) == pytest.approx(-0.75, abs=1e-12)
    with pytest.raises(DomainError):
        decay_slope(x, -np.ones_like(x))


def test_reference_cases_shape():
    assert len(REFERENCE_CASES) == 2
    assert REFERENCE_X.shape == (13,)
    assert np.all(np.diff(REFERENCE_X) > 0)
    for case in REFERENCE_CASES:
        assert case.h == 0.32
        assert len(case.p_err) == 13
        assert len(case.px_err) == 13
