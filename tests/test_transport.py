"""Tests for the strength/gradient transport coefficients and the decay ODE.

The central oracle: the coefficient matrix that maps the gradient jump to
the rearward velocity and density gradients must make the interior balance
laws (mass, momentum, pressure) close exactly just behind the front.  The
residuals of those balance laws are recomputed here from primitive
quantities, independently of the coefficient formulas under test.
"""

import numpy as np
import pytest

from shockdecay import (
    AsymptoteConvention,
    BreakdownError,
    DomainError,
    GasParams,
    Geometry,
    Scenario,
    SingularCoefficientError,
    breakdown_distance,
    closed_form,
    decay_slope,
    first_order_coefficients,
    integrate_truncated,
    jumps_from_mach,
    leading_order_reference,
    mu_nu,
    psi,
    ray_integral,
    second_order_coefficients,
    t_matrix,
    t_matrix_derivatives,
)
from shockdecay.transport import (
    REFERENCE_CASES,
    REFERENCE_X,
    ShockHistory,
    asymptotic_law,
)

GAS = GasParams(1.4)
PLANAR, CYL, SPH = Geometry(0), Geometry(1), Geometry(2)


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

    T = t_matrix(U, gas, geom, x)
    ux = T.t11 * px + T.t12
    rx = T.t21 * px + T.t22

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
    weak = first_order_coefficients(1.0, GAS, omega=0.7)
    assert weak.k11 == 0.0
    assert weak.k12 == 0.0


def test_t_matrix_frozen_values():
    T = t_matrix(1.3, GAS, CYL, x=2.0)
    assert T.t11 == pytest.approx(0.6036759921490592, rel=1e-14)
    assert T.t12 == pytest.approx(-0.12451098859686953, rel=1e-14)
    assert T.t21 == pytest.approx(0.8492827155254205, rel=1e-14)
    assert T.t22 == pytest.approx(0.007191764274504212, rel=1e-14)


def test_t_matrix_weak_limit():
    T = t_matrix(1.0, GAS, PLANAR)
    assert (T.t11, T.t12, T.t21, T.t22) == (1.0, 0.0, 1.0, 0.0)
    # Approach along U -> 1 stays consistent with the exact limit.
    T = t_matrix(1.0 + 1e-9, GAS, PLANAR)
    assert T.t11 == pytest.approx(1.0, abs=1e-8)
    assert T.t21 == pytest.approx(1.0, abs=1e-7)
    with pytest.raises(SingularCoefficientError):
        t_matrix(1.0, GAS, SPH, x=2.0)
    with pytest.raises(DomainError):
        t_matrix(0.9, GAS, PLANAR)


def test_t_matrix_derivatives_match_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(20):
        U = 1.05 + 2.0 * rng.random()
        gamma = 1.2 + 0.5 * rng.random()
        j = int(rng.integers(0, 3))
        x = 1.5 + 8.0 * rng.random()
        gas, geom = GasParams(gamma), Geometry(j)
        dt11, dt12_du, dt12_dx = t_matrix_derivatives(U, gas, geom, x)
        h = 1e-5
        plus, minus = t_matrix(U + h, gas, geom, x), t_matrix(U - h, gas, geom, x)
        fd11 = (plus.t11 - minus.t11) / (2.0 * h)
        fd12u = (plus.t12 - minus.t12) / (2.0 * h)
        xp, xm = t_matrix(U, gas, geom, x + h), t_matrix(U, gas, geom, x - h)
        fd12x = (xp.t12 - xm.t12) / (2.0 * h)
        assert dt11 == pytest.approx(fd11, rel=1e-6)
        assert dt12_du == pytest.approx(fd12u, rel=1e-6, abs=1e-12)
        assert dt12_dx == pytest.approx(fd12x, rel=1e-6, abs=1e-12)
    assert t_matrix_derivatives(1.0, GAS, PLANAR) == (-2.0, 0.0, 0.0)


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


def test_breakdown_known_values():
    assert breakdown_distance(0.1, -1.0, GAS, PLANAR) == pytest.approx(
        11.0 / 6.0, rel=1e-15
    )
    assert breakdown_distance(0.1, -1.0, GAS, SPH) == pytest.approx(
        2.300975890892825, rel=1e-14
    )


def test_integration_matches_closed_form():
    for j in (0, 1, 2):
        for h, k in ((0.32, 10.0), (0.32, 0.28), (0.05, 1.0)):
            scen = Scenario(gas=GAS, geom=Geometry(j), h=h, k=k, x_end=100.0)
            hist = integrate_truncated(scen)
            p, px = closed_form(hist.x, h, k, GAS, Geometry(j))
            assert np.max(np.abs(hist.p_jump - p) / p) < 1e-8
            assert np.max(np.abs(hist.px_jump - px) / px) < 1e-8


def test_integration_very_long_range():
    # The decaying solution must stay under relative error control far
    # below the nominal absolute tolerance (18 decades of decay).
    for j in (0, 1, 2):
        scen = Scenario(gas=GAS, geom=Geometry(j), h=0.05, k=1.0, x_end=1e18)
        hist = integrate_truncated(scen, n_samples=120)
        p, px = closed_form(hist.x, 0.05, 1.0, GAS, Geometry(j))
        assert np.max(np.abs(hist.p_jump - p) / p) < 1e-8
        assert np.max(np.abs(hist.px_jump - px) / px) < 1e-8


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


def test_reference_abscissae_in_grid():
    scen = Scenario(gas=GAS, geom=PLANAR, h=0.32, k=10.0, x_end=100.0)
    hist = integrate_truncated(scen)
    for mark in REFERENCE_X:
        assert np.any(hist.x == mark)


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
    with pytest.raises(DomainError):
        Scenario(gas=GAS, geom=PLANAR, h=-0.1, k=1.0, x_end=10.0)
    with pytest.raises(DomainError):
        Scenario(gas=GAS, geom=PLANAR, h=0.1, k=1.0, x_end=10.0, rtol=0.0)
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
