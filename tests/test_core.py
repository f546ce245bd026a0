"""Tests for the gas model, jump algebra and geometric ray factors.

The jump relations are checked against the conservation laws written in
primitive form (mass, momentum, enthalpy flux across the front), not
against the formulas that produced them, so the two sides are independent.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from shockdecay import (
    DomainError,
    GasParams,
    Geometry,
    jumps_from_mach,
    mach_from_p_jump,
    mu_nu,
    psi,
    ray_integral,
    ray_integral_inverse,
    ray_integral_leading,
)
from shockdecay.core import log_grid
from shockdecay.wavefront import BoundaryPulse, formation_distance

GAS = GasParams(1.4)


def conservation_residuals(mach, jumps, gas):
    """Mass/momentum/enthalpy residuals across the front, primitive form.

    Upstream state: rho = 1, u = 0, p = 1/gamma (unit sound speed).  In
    the frame of the front the fluxes of mass, momentum and total
    enthalpy must balance.
    """
    g = gas.gamma
    rho2 = 1.0 + jumps.rho_jump
    u2 = jumps.u_jump
    p2 = 1.0 / g + jumps.p_jump
    m1 = mach  # upstream mass flux rho1 * (U - u1)
    m2 = rho2 * (mach - u2)
    r_mass = m2 - m1
    r_mom = (p2 + m2 * (mach - u2)) - (1.0 / g + m1 * mach)
    h1 = 1.0 / (g - 1.0)  # gamma p / ((gamma-1) rho) upstream
    h2 = g * p2 / ((g - 1.0) * rho2)
    r_energy = (h2 + 0.5 * (mach - u2) ** 2) - (h1 + 0.5 * mach**2)
    return r_mass, r_mom, r_energy


def test_jumps_satisfy_conservation_laws():
    rng = np.random.default_rng(11)
    machs = 1.0 + 4.0 * rng.random(50)
    for gamma in (1.4, 5.0 / 3.0):
        gas = GasParams(gamma)
        for mach in machs:
            jumps = jumps_from_mach(mach, gas)
            for res in conservation_residuals(mach, jumps, gas):
                assert abs(res) < 1e-12


def test_jumps_known_values():
    jumps = jumps_from_mach(1.2, GAS)
    assert jumps.u_jump == pytest.approx(11.0 / 36.0, rel=1e-15)
    assert jumps.p_jump == pytest.approx(1.2 * 11.0 / 36.0, rel=1e-15)
    assert jumps.rho_jump == pytest.approx(55.0 / 161.0, rel=1e-15)


def test_jumps_vanish_at_sonic():
    jumps = jumps_from_mach(1.0, GAS)
    assert jumps.u_jump == 0.0
    assert jumps.p_jump == 0.0
    assert jumps.rho_jump == 0.0


def test_jumps_array_input():
    machs = np.array([1.0, 1.2, 2.0])
    jumps = jumps_from_mach(machs, GAS)
    assert jumps.u_jump.shape == machs.shape
    single = jumps_from_mach(2.0, GAS)
    assert jumps.p_jump[2] == single.p_jump


def test_jumps_reject_subsonic():
    with pytest.raises(DomainError):
        jumps_from_mach(0.5)
    for bad in (float("nan"), [1.5, float("nan")]):
        with pytest.raises(DomainError):
            jumps_from_mach(bad)
        with pytest.raises(DomainError):
            mach_from_p_jump(bad)


def test_mach_from_p_jump_roundtrip():
    rng = np.random.default_rng(12)
    machs = 1.0 + 3.0 * rng.random(40)
    for gamma in (1.4, 5.0 / 3.0):
        gas = GasParams(gamma)
        p = jumps_from_mach(machs, gas).p_jump
        np.testing.assert_allclose(mach_from_p_jump(p, gas), machs, rtol=1e-13)
    with pytest.raises(DomainError):
        mach_from_p_jump(-0.1)


def test_mu_nu_values():
    assert mu_nu(1.0, GAS) == (2.4, 2.4)
    mu, nu = mu_nu(1.3, GAS)
    assert mu == pytest.approx(2.0 + 0.4 * 1.69, rel=1e-15)
    assert nu == pytest.approx(2.8 * 1.69 - 0.4, rel=1e-15)
    gas = GasParams(5.0 / 3.0)
    assert mu_nu(1.0, gas)[0] == pytest.approx(8.0 / 3.0, rel=1e-15)
    with pytest.raises(DomainError):
        mu_nu(0.99)
    with pytest.raises(DomainError):
        mu_nu(float("nan"))


def test_geometry_names():
    assert Geometry.from_name("planar").j == 0
    assert Geometry.from_name("cylindrical").j == 1
    assert Geometry.from_name("spherical").j == 2
    assert Geometry(1).name == "cylindrical"
    with pytest.raises(DomainError):
        Geometry.from_name("toroidal")
    with pytest.raises(DomainError):
        Geometry(3)


def test_gas_params_validation():
    with pytest.raises(DomainError):
        GasParams(1.0)
    with pytest.raises(DomainError):
        GasParams(0.9)


def test_psi_decay_factor():
    assert psi(4.0, Geometry(0)) == 1.0
    assert psi(4.0, Geometry(1)) == 0.5
    assert psi(4.0, Geometry(2)) == 0.25
    with pytest.raises(DomainError):
        psi(0.5, Geometry(1))
    for j in (0, 1, 2):  # NaN is out of range even where psi does not use x
        with pytest.raises(DomainError):
            psi(float("nan"), Geometry(j))
        for ray in (ray_integral, ray_integral_leading):
            with pytest.raises(DomainError):
                ray(np.array([2.0, np.nan]), Geometry(j))


def test_ray_integral_matches_quadrature():
    rng = np.random.default_rng(13)
    xs = 1.0 + 99.0 * rng.random(12)
    for j in (0, 1, 2):
        geom = Geometry(j)
        for x in xs:
            ref, _ = quad(lambda s: psi(s, geom), 1.0, x, epsabs=1e-13)
            assert ray_integral(x, geom) == pytest.approx(ref, abs=1e-10)


def test_ray_integral_inverse_roundtrip():
    rng = np.random.default_rng(14)
    xs = 1.0 + 999.0 * rng.random(20)
    for j in (0, 1, 2):
        geom = Geometry(j)
        vals = ray_integral(xs, geom)
        np.testing.assert_allclose(ray_integral_inverse(vals, geom), xs, rtol=1e-12)
    with pytest.raises(DomainError):
        ray_integral_inverse(-1.0)
    with pytest.raises(DomainError):
        ray_integral_inverse(float("nan"))
    for j, value in ((1, 1e160), (2, 710.0)):  # the position overflows a float
        with pytest.raises(DomainError):
            ray_integral_inverse(value, Geometry(j))


def test_ray_integral_leading_offsets():
    # The leading part differs from the full integral by the constant
    # contribution of the lower limit: 1, 2 and 0 respectively.
    x = np.array([1.0, 2.5, 40.0])
    np.testing.assert_allclose(
        ray_integral_leading(x, Geometry(0)) - ray_integral(x, Geometry(0)), 1.0
    )
    np.testing.assert_allclose(
        ray_integral_leading(x, Geometry(1)) - ray_integral(x, Geometry(1)), 2.0
    )
    np.testing.assert_allclose(
        ray_integral_leading(x, Geometry(2)), ray_integral(x, Geometry(2))
    )


def test_log_grid_is_geomspace_bit_for_bit():
    # numpy's geomspace may change between releases; the grid helper must
    # follow it to the last bit, on seeded draws and on the exact grids
    # that compare-methods builds: the transport and CCW sample grids
    # (1, x_end, 240) and the equal-area fit's (max(10 x_form, x_end/100), x_end, 120).
    rng = np.random.default_rng(2024)
    cases = [(start, start * 10.0 ** rng.uniform(0.0, 12.0), int(n))
             for start, n in zip(10.0 ** rng.uniform(0.0, 6.0, 400), rng.integers(2, 2001, 400))]
    cases += [(1.0, 2.0 ** rng.uniform(0.0, 40.0), n) for n in (2, 3, 2000)]
    for x_end in (30.0, 1e3, 1e4, 1e12, 1e18):
        cases.append((1.0, x_end, 240))
        for gamma in (1.1, 1.4, 3.0):
            for h in (1e-4, 0.03, 0.05, 0.07, 0.1):
                for j in (0, 1, 2):
                    try:
                        x_form = formation_distance(BoundaryPulse.half_sine(h, 1.0),
                                                    GasParams(gamma), Geometry(j))
                    except DomainError:  # forms beyond MAX_X_END: no grid
                        continue
                    cases.append((max(10.0 * x_form, x_end / 100.0), x_end, 120))
    for start, stop, n in cases:
        assert log_grid(start, stop, n).tobytes() == np.geomspace(start, stop, n).tobytes(), (
            start, stop, n)
