"""Tests for the characteristic-rule decay laws and their weak limits.

Cross-module oracle: the generalized rule coefficient must reproduce the
geometric part of the strength transport equation, i.e.
(gamma+1) k12 / (4U) = -Omega (U^2 - 1) / (U G(U)); both sides are computed
by independent code paths.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from shockdecay import (
    CcwVariant,
    DomainError,
    GasParams,
    Geometry,
    SolverError,
    first_order_coefficients,
    g_classic,
    g_generalized,
    integrate_ccw,
    jumps_from_mach,
    mach_from_p_jump,
    mu_nu,
)
from shockdecay import ccw, core
from shockdecay.ccw import WEAK_LIMIT_FLOOR, CcwHistory, integrate_ccw_geometries
from shockdecay.core import MAX_X_END

GAS = GasParams(1.4)
COEFFICIENT = {CcwVariant.CLASSIC: g_classic, CcwVariant.GENERALIZED: g_generalized}


def test_weak_limits_approach_four():
    for gamma in (1.4, 5.0 / 3.0):
        gas = GasParams(gamma)
        for U in (1.0, 1.0 + 1e-8, 1.0 + 1e-6):
            assert g_classic(U, gas) == pytest.approx(4.0, abs=3e-5)
            assert g_generalized(U, gas) == pytest.approx(4.0, abs=3e-5)
    assert g_classic(1.0, GAS) == 4.0
    assert g_generalized(1.0, GAS) == 4.0


def test_coefficient_frozen_values():
    assert g_generalized(1.5, GAS) == pytest.approx(4.520163646990064, rel=1e-14)
    assert g_classic(1.5, GAS) == pytest.approx(3.706852352597355, rel=1e-14)
    gas = GasParams(5.0 / 3.0)
    assert g_classic(2.0, gas) == pytest.approx(3.425387525717401, rel=1e-14)
    assert g_generalized(2.0, gas) == pytest.approx(4.541353383458647, rel=1e-14)


def test_coefficients_accept_arrays():
    U = np.array([1.0, 1.5, 2.0])
    out = g_generalized(U, GAS)
    assert out.shape == U.shape
    assert out[1] == pytest.approx(4.520163646990064, rel=1e-14)


def test_generalized_rule_matches_transport_geometry_term():
    rng = np.random.default_rng(71)
    Us = 1.0 + 3.0 * rng.random(10)
    for gamma in (1.2, 1.4, 5.0 / 3.0):
        gas = GasParams(gamma)
        for om in (0.3, 1.0, 2.0):
            for U in Us:
                k12 = first_order_coefficients(U, gas, omega=om).k12
                lhs = (gamma + 1.0) * k12 / (4.0 * U)
                rhs = -om * (U * U - 1.0) / (U * g_generalized(U, gas))
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_planar_front_keeps_its_strength():
    hist = integrate_ccw(1.8, GAS, Geometry(0), x_end=1e4)
    np.testing.assert_allclose(hist.U, 1.8, rtol=1e-12)
    np.testing.assert_allclose(
        hist.p_jump, jumps_from_mach(1.8, GAS).p_jump, rtol=1e-12
    )


def test_weak_decay_exponents():
    # A weak front under either rule decays with the pure geometric
    # exponent -j/2 in U - 1 (and hence in the pressure jump).
    u0 = mach_from_p_jump(0.01, GAS)
    for j, slope in ((1, -0.5), (2, -1.0)):
        hist = integrate_ccw(u0, GAS, Geometry(j), x_end=1e6, n_samples=150)
        window = hist.x >= hist.x[-1] / 100.0
        fit = np.polyfit(np.log(hist.x[window]), np.log(hist.U[window] - 1.0), 1)[0]
        assert fit == pytest.approx(slope, abs=0.02)


def test_strong_front_decays_monotonically():
    hist = integrate_ccw(3.0, GAS, Geometry(2), x_end=100.0)
    assert np.all(np.diff(hist.U) < 0.0)
    assert hist.U[0] == 3.0
    np.testing.assert_allclose(
        hist.p_jump, jumps_from_mach(hist.U, GAS).p_jump, rtol=1e-13
    )


def test_sonic_termination():
    # A strongly converging weak front reaches the weak-limit floor long
    # before x_end; the run must stop there cleanly, resolved to the floor.
    hist = integrate_ccw(1.02, GAS, Geometry(2), x_end=1e12, n_samples=200)
    assert hist.x[-1] < 1e9
    assert np.all(hist.U >= 1.0)
    assert hist.U[-1] - 1.0 <= 5.0 * WEAK_LIMIT_FLOOR
    assert hist.U[-1] - 1.0 > 0.0


def test_variant_gap_small_for_weak_fronts():
    # The two rules coincide in the weak limit; the relative gap in U - 1
    # stays below 0.5% for U0 = 1.01 in the least favorable geometry.
    for u0, bound in ((1.01, 0.005), (1.05, 0.025)):
        gen = integrate_ccw(u0, GAS, Geometry(2), 100.0, CcwVariant.GENERALIZED)
        cla = integrate_ccw(u0, GAS, Geometry(2), 100.0, CcwVariant.CLASSIC)
        gap = np.max(np.abs(cla.U - gen.U) / (gen.U - 1.0))
        assert gap < bound


def _log_x(U, U0, gas, j, variant):
    """log x at each U: j log x = int f over s = log(U - 1), f = U g(U)/(U + 1)."""

    def f(s):
        u = 1.0 + math.exp(s)
        return u * COEFFICIENT[variant](u, gas) / (u + 1.0)

    s = np.log(np.concatenate(([U0], U)) - 1.0)
    parts = [quad(f, b, a, epsabs=1e-14, epsrel=1e-13, limit=200)[0] for a, b in zip(s, s[1:])]
    return np.cumsum(parts) / j


@pytest.mark.parametrize("variant", list(CcwVariant))
@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0])
def test_history_matches_separable_quadrature(variant, j, gamma):
    gas = GasParams(gamma)
    for U0 in (1.0001, 1.5, 10.0, 1e3):
        for n_samples, x_end in ((2, 1e3), (7, 1e18), (200, 1e18)):
            hist = integrate_ccw(U0, gas, Geometry(j), x_end, variant, n_samples)
            xs = np.geomspace(1.0, x_end, n_samples)
            np.testing.assert_array_equal(hist.x, xs[: hist.x.size])
            assert hist.U[0] == U0
            U = hist.U[1:]
            # Rounding U to a double moves log x by |d log x/dU| * ulp(U)/2.
            slope = U * COEFFICIENT[variant](U, gas) / (j * (U * U - 1.0))
            allowance = slope * 0.5 * np.spacing(U)
            err = np.abs(_log_x(U, U0, gas, j, variant) - np.log(hist.x[1:])) - allowance
            assert np.all(err <= 1e-12)


def test_classic_coefficient_is_finite_and_monotone_at_large_mach():
    # mu*nu ~ U^4 overflows near U = 4e76; g must keep falling to its limit
    # (1 + 2 sqrt((g-1)/(2g))) (1 + 1/sqrt(2g(g-1))) instead of dropping.
    U = np.geomspace(1.0, 1e150, 2001)
    g = g_classic(U, GAS)
    assert np.all(np.isfinite(g))
    assert np.all(np.diff(g) <= 4.0 * np.finfo(float).eps * g[1:])
    gamma = GAS.gamma
    limit = (1.0 + 2.0 * math.sqrt((gamma - 1.0) / (2.0 * gamma))) * (
        1.0 + 1.0 / math.sqrt(2.0 * gamma * (gamma - 1.0))
    )
    assert g[-1] == pytest.approx(limit, rel=1e-14)


@pytest.mark.parametrize("gamma", [1.1, 1.4, 5.0 / 3.0])
def test_public_coefficients_equal_their_unchecked_kernels(gamma):
    # The public entry points check U and call the kernels the CCW integrand
    # uses: the same bits, arrays and scalars, over the tested Mach range.
    U, gas = np.geomspace(1.0, 1e150, 2001), GasParams(gamma)
    pairs = [(mu_nu, core._mu_nu), (g_classic, ccw._g_classic),
             (g_generalized, ccw._g_generalized)]
    for public, kernel in pairs:
        expected = np.asarray(kernel(U, gamma))
        assert np.array_equal(np.asarray(public(U, gas)), expected)
        for i in (0, 1000, 2000):
            assert np.array_equal(np.asarray(public(float(U[i]), gas)), expected[..., i])


def test_classic_history_from_huge_mach_matches_quadrature():
    # The oracle writes g in powers of 1/U^2, so nothing in it overflows.
    gamma = GAS.gamma

    def g_scaled(u):
        w = u**-2.0
        mu, nu = gamma - 1.0 + 2.0 * w, 2.0 * gamma + (1.0 - gamma) * w
        return (1.0 + 2.0 * math.sqrt(mu / nu) + w) * (1.0 + (1.0 - w) / math.sqrt(mu * nu))

    def f(s):
        u = 1.0 + math.exp(s)
        return u * g_scaled(u) / (u + 1.0)

    U0, j = 1e80, 2
    hist = integrate_ccw(U0, GAS, Geometry(j), 1e18, CcwVariant.CLASSIC, 60)
    assert hist.U[-1] < 1e76  # the run crosses U ~ 4e76, where mu*nu overflowed
    s = np.log(np.concatenate(([U0], hist.U[1:])) - 1.0)
    parts = [quad(f, b, a, epsabs=1e-14, epsrel=1e-13, limit=200)[0] for a, b in zip(s, s[1:])]
    log_x = np.cumsum(parts) / j
    np.testing.assert_allclose(log_x, np.log(hist.x[1:]), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("U0, j", [(1.0001, 1), (1.0001, 2), (1.02, 2), (10.0, 2)])
def test_history_stops_at_weak_limit_floor(U0, j):
    # The last row is above the floor and the next sample lies past it.
    xs = np.geomspace(1.0, 1e18, 200)
    hist = integrate_ccw(U0, GAS, Geometry(j), 1e18, CcwVariant.GENERALIZED, 200)
    n = hist.x.size
    assert n < xs.size
    assert hist.U[-1] - 1.0 >= WEAK_LIMIT_FLOOR
    floor = _log_x(np.array([1.0 + WEAK_LIMIT_FLOOR]), U0, GAS, j, CcwVariant.GENERALIZED)
    assert np.log(xs[n]) > floor[0]


def test_newton_cap_is_a_solver_error(monkeypatch):
    monkeypatch.setattr(ccw, "_NEWTON_CAP", 1)
    with pytest.raises(SolverError):
        integrate_ccw(1.5, GAS, Geometry(2), x_end=100.0)


@pytest.mark.parametrize("U0, gamma", [(1.0001, 1.4), (1.02, 1.1), (1.5, 5.0 / 3.0), (10.0, 3.0)])
def test_geometries_in_one_call_match_single_calls(U0, gamma):
    # One Phi table and one Newton iteration for all geometries give each
    # geometry's integrate_ccw history bit for bit, in either order, also where
    # the spherical run stops at the weak-limit floor and the cylindrical one
    # does not.
    gas, order = GasParams(gamma), [Geometry(2), Geometry(0), Geometry(1)]
    for variant, geoms in itertools.product(CcwVariant, (order, order[::-1])):
        batch = integrate_ccw_geometries(U0, gas, geoms, 1e12, variant, 237)
        assert list(batch) == geoms
        for geom in geoms:
            single = integrate_ccw(U0, gas, geom, 1e12, variant, 237)
            for field in ("x", "U", "p_jump"):
                np.testing.assert_array_equal(getattr(batch[geom], field), getattr(single, field))


def test_newton_slices_bound_memory():
    # Each Newton step evaluates f on eight nodes per live sample; in slices
    # of _NEWTON_SLICE samples 300,000 of them stay below 64 MiB (144 unsliced).
    tracemalloc.start()
    try:
        hist = integrate_ccw(1.5, GAS, Geometry(1), x_end=100.0, n_samples=300_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist.U.size == 300_000
    assert peak < 64 << 20


def test_newton_slices_change_no_bit(monkeypatch):
    # Each sample stops on its own step test, so slice edges (here inside
    # every geometry's samples, with the planar zeros among them) change nothing.
    geoms = [Geometry(2), Geometry(0), Geometry(1)]
    whole = integrate_ccw_geometries(1.02, GAS, geoms, 1e12, CcwVariant.CLASSIC, 237)
    monkeypatch.setattr(ccw, "_NEWTON_SLICE", 7)
    sliced = integrate_ccw_geometries(1.02, GAS, geoms, 1e12, CcwVariant.CLASSIC, 237)
    for geom in geoms:
        np.testing.assert_array_equal(sliced[geom].U, whole[geom].U)


def test_integrate_ccw_validation():
    with pytest.raises(DomainError):
        integrate_ccw(1.0, GAS, Geometry(1))
    with pytest.raises(DomainError):  # at the weak-limit floor already
        integrate_ccw(1.0 + 1e-12, GAS, Geometry(2))
    with pytest.raises(DomainError):  # g(U) overflows at U^2 > 1.8e308
        integrate_ccw(1e200, GAS, Geometry(2))
    for x_end in (0.5, np.nextafter(MAX_X_END, np.inf), 1e300):  # (1, MAX_X_END] only
        with pytest.raises(DomainError):
            integrate_ccw(1.5, GAS, Geometry(1), x_end=x_end)
    with pytest.raises(DomainError):
        integrate_ccw(1.5, GAS, Geometry(1), variant="classic")


def test_history_csv(tmp_path):
    hist = integrate_ccw(1.5, GAS, Geometry(1), x_end=50.0, n_samples=20)
    path = tmp_path / "ccw.csv"
    hist.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,U,p_jump"
    assert len(lines) == 21
    data = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_array_equal(data["U"], hist.U)
    assert isinstance(hist, CcwHistory)
