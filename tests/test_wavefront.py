"""Tests for boundary pulses, lead-shock fitting and the wavelet-field laws.

Oracles used here, all recomputed from scratch:
  - pulse integrals against adaptive quadrature;
  - the fitted shock position: the area rule (the integral of the pulse up
    to the overtaken wavelet balances the quadratic fan term) and the
    kinematic speed law ds/dx = 1 - (gamma+1)/4 * v(tau-) * psi(x);
  - the carried state: exact isentropy and a conserved rearward invariant.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from shockdecay import (
    BoundaryPulse,
    DomainError,
    FittingError,
    GasParams,
    Geometry,
    VacuumError,
    fit_shock,
    formation_distance,
    psi,
    ray_integral,
    ruw_state,
    simple_wave_u,
    wavelet_time,
    wngo_decay,
)
from shockdecay.wavefront import FITTED_CSV_HEADER, FittedShock

GAS = GasParams(1.4)
PLANAR, CYL, SPH = Geometry(0), Geometry(1), Geometry(2)


def test_half_sine_pulse_integral_matches_quadrature():
    pulse = BoundaryPulse.half_sine(0.1, 2.0)
    rng = np.random.default_rng(51)
    for tau in 2.0 * rng.random(10):
        ref, _ = quad(pulse.v, 0.0, tau, epsabs=1e-13)
        assert pulse.v_integral(tau) == pytest.approx(ref, abs=1e-11)
    assert pulse.b == pytest.approx(2.0 * 0.1 * 2.0 / np.pi, rel=1e-13)
    assert pulse.vdot0 == pytest.approx(np.pi * 0.1 / 2.0, rel=1e-12)
    assert pulse.v(0.0) == 0.0
    assert abs(pulse.v(2.0)) < 1e-15


def test_linear_ramp_pulse():
    pulse = BoundaryPulse.linear_ramp(0.3, 1.5)
    rng = np.random.default_rng(52)
    for tau in 1.5 * rng.random(8):
        ref, _ = quad(pulse.v, 0.0, tau, epsabs=1e-13)
        assert pulse.v_integral(tau) == pytest.approx(ref, abs=1e-11)
    assert pulse.vdot0 == pytest.approx(0.3, rel=1e-12)
    assert pulse.v(1.5) == pytest.approx(0.0, abs=1e-15)


def test_custom_pulse_uses_cached_quadrature():
    pulse = BoundaryPulse(lambda t: np.sin(np.pi * t) ** 2 * np.sin(np.pi * t), 1.0)
    ref, _ = quad(pulse.v, 0.0, 0.63, epsabs=1e-13)
    assert pulse.v_integral(0.63) == pytest.approx(ref, abs=1e-9)
    refb, _ = quad(pulse.v, 0.0, 1.0, epsabs=1e-13)
    assert pulse.b == pytest.approx(refb, abs=1e-9)


def test_pulse_requires_vanishing_endpoint():
    with pytest.raises(DomainError):
        BoundaryPulse(lambda t: 0.1, 1.0)
    with pytest.raises(DomainError):
        BoundaryPulse.half_sine(0.1, 0.0)


def test_pulse_from_table():
    exact = BoundaryPulse.half_sine(0.1, 1.0)
    taus = np.linspace(0.0, 1.0, 41)
    table = BoundaryPulse.from_table(taus, exact.v(taus))
    assert table.b == pytest.approx(exact.b, rel=1e-5)
    assert table.vdot0 == pytest.approx(exact.vdot0, rel=1e-2)
    for tau in (0.2, 0.5, 0.9):
        assert table.v(tau) == pytest.approx(exact.v(tau), abs=1e-4)
    with pytest.raises(DomainError):
        BoundaryPulse.from_table([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        BoundaryPulse.from_table([0.0, 0.5, 1.0], [0.0, 0.1, 0.2])


def test_pulse_from_csv(tmp_path):
    exact = BoundaryPulse.half_sine(0.05, 1.0)
    taus = np.linspace(0.0, 1.0, 81)
    path = tmp_path / "pulse.csv"
    with open(path, "w") as fh:
        fh.write("tau,v\n")
        for t in taus:
            fh.write(f"{t:.17g},{exact.v(t):.17g}\n")
    pulse = BoundaryPulse.from_csv(path)
    assert pulse.b == pytest.approx(exact.b, rel=1e-6)


def test_wavelet_time_formula():
    pulse = BoundaryPulse.half_sine(0.1, 1.0)
    rng = np.random.default_rng(53)
    for _ in range(10):
        x = 1.0 + 20.0 * rng.random()
        tau = rng.random()
        t = wavelet_time(x, tau, pulse, GAS, CYL)
        expected = tau + (x - 1.0) - 1.2 * pulse.v(tau) * ray_integral(x, CYL)
        assert t == pytest.approx(expected, rel=1e-14)
    with pytest.raises(DomainError):
        wavelet_time(2.0, 1.5, pulse)


def test_formation_distance():
    pulse = BoundaryPulse.half_sine(0.1, 1.0)
    x_form = formation_distance(pulse, GAS, PLANAR)
    # 1 + 2 / ((gamma+1) * pi * v0) for the planar half-sine head.
    assert x_form == pytest.approx(1.0 + 2.0 / (2.4 * np.pi * 0.1), rel=1e-12)
    assert formation_distance(
        BoundaryPulse.half_sine(0.01, 1.0), GAS, PLANAR
    ) == pytest.approx(27.525823848649225, rel=1e-12)
    # At the formation position the head of the pulse focuses: the arrival
    # time becomes stationary in tau at the head.
    d = 1e-6
    t0 = wavelet_time(x_form, 0.0, pulse, GAS, PLANAR)
    t1 = wavelet_time(x_form, d, pulse, GAS, PLANAR)
    assert (t1 - t0) / d == pytest.approx(0.0, abs=1e-4)
    # An expansive head never focuses.
    expansive = BoundaryPulse(
        lambda t: -np.sin(np.pi * t), 1.0, vdot0=-np.pi, integral=None
    )
    with pytest.raises(FittingError):
        formation_distance(expansive, GAS, PLANAR)


def area_rule_residual(pulse, gas, geom, x, tau):
    """Equal-area balance at the fitted wavelet, recomputed from scratch."""
    J = ray_integral(x, geom)
    return 0.25 * (gas.gamma + 1.0) * pulse.v(tau) ** 2 * J - pulse.v_integral(tau)


def test_fit_shock_satisfies_area_rule():
    pulse = BoundaryPulse.half_sine(0.1, 1.0)
    for geom in (PLANAR, CYL, SPH):
        x_form = formation_distance(pulse, GAS, geom)
        grid = np.geomspace(1.2 * x_form, 1e3 * x_form, 60)
        fitted = fit_shock(pulse, GAS, geom, grid)
        for x, tau in zip(fitted.x, fitted.tau_minus):
            assert abs(area_rule_residual(pulse, GAS, geom, x, tau)) < 1e-12
        # The overtaken wavelet moves monotonically into the pulse.  The
        # strength first grows while the shock swallows ever-larger
        # wavelets, then decays once the overtaken wavelet passes the
        # pulse peak; far from formation it decays monotonically.
        assert np.all(np.diff(fitted.tau_minus) > 0.0)
        assert np.all(fitted.tau_minus < pulse.tau0)
        far = (fitted.tau_minus > 0.6 * pulse.tau0) & (
            fitted.x > 10.0 * fitted.x_formation
        )
        assert np.all(np.diff(fitted.u_jump[far]) < 0.0)
        np.testing.assert_allclose(
            fitted.u_jump, pulse.v(fitted.tau_minus) * psi(fitted.x, geom), rtol=1e-13
        )


def test_fit_shock_far_range_is_exact_and_cheap():
    # For a half-sine pulse the equal-area rule has the closed-form root
    # tau = arccos(r - 1)/w with r = 4/((gamma+1) w v0 J), written here as
    # (pi - 2 arcsin(sqrt(r/2)))/w to avoid the cancellation in r - 1 as
    # tau approaches tau0.  At x ~ 1e12 the bisection polish must stop once
    # its bracket closes to adjacent doubles, not run to its iteration cap.
    v0, w = 0.05, np.pi
    pulse = BoundaryPulse.half_sine(v0, 1.0)
    calls = 0
    v_integral = pulse.v_integral

    def counted(tau):
        nonlocal calls
        calls += 1
        return v_integral(tau)

    pulse.v_integral = counted
    x = np.geomspace(1e10, 1e12, 120)
    fitted = fit_shock(pulse, GAS, PLANAR, x)
    assert calls < 60 * x.size
    r = 4.0 / ((GAS.gamma + 1.0) * w * v0 * ray_integral(x, PLANAR))
    tau = (np.pi - 2.0 * np.arcsin(np.sqrt(0.5 * r))) / w
    np.testing.assert_allclose(fitted.tau_minus, tau, rtol=1e-12)


def test_fit_shock_speed_law():
    # The fitted arrival time s(x) must obey the front kinematics
    # ds/dx = 1 - (gamma+1)/4 * v(tau-) * psi(x).
    pulse = BoundaryPulse.half_sine(0.1, 1.0)
    grid = np.geomspace(40.0, 4000.0, 400)
    fitted = fit_shock(pulse, GAS, PLANAR, grid)
    ds = np.gradient(fitted.shock_time, fitted.x)
    model = 1.0 - 0.25 * (GAS.gamma + 1.0) * pulse.v(fitted.tau_minus) * psi(
        fitted.x, PLANAR
    )
    assert np.max(np.abs(ds - model)) < 1e-4


def test_fit_shock_reaches_asymptote():
    pulse = BoundaryPulse.half_sine(0.1, 1.0)
    grid = np.geomspace(300.0, 1e4, 80)
    fitted = fit_shock(pulse, GAS, PLANAR, grid)
    u_ref, ux_ref = wngo_decay(pulse.b, GAS, PLANAR, fitted.x[-1])
    assert fitted.u_jump[-1] == pytest.approx(u_ref, rel=0.02)
    assert fitted.ux_jump[-1] == pytest.approx(ux_ref, rel=0.02)
    # Scale-free forms: strength * sqrt(J) and gradient * x.
    vj = fitted.u_jump[-1] * np.sqrt(ray_integral(fitted.x[-1], PLANAR))
    assert vj == pytest.approx(np.sqrt(4.0 * pulse.b / (GAS.gamma + 1.0)), rel=0.02)
    assert fitted.ux_jump[-1] * fitted.x[-1] == pytest.approx(
        2.0 / (GAS.gamma + 1.0), rel=0.02
    )


def test_fit_shock_cylindrical_asymptote():
    pulse = BoundaryPulse.half_sine(0.1, 1.0)
    grid = np.geomspace(1e4, 1e6, 40)
    fitted = fit_shock(pulse, GAS, CYL, grid)
    u_ref, _ = wngo_decay(pulse.b, GAS, CYL, fitted.x[-1])
    assert fitted.u_jump[-1] == pytest.approx(u_ref, rel=0.01)


def test_fit_shock_gradient_masking():
    pulse = BoundaryPulse.half_sine(0.1, 1.0)
    x_form = formation_distance(pulse, GAS, PLANAR)
    grid = np.geomspace(2.0 * x_form, 50.0 * x_form, 30)
    fitted = fit_shock(pulse, GAS, PLANAR, grid)
    young = fitted.x < 10.0 * x_form
    assert np.all(np.isnan(fitted.ux_jump[young]))
    assert np.all(np.isfinite(fitted.ux_jump[~young]))
    assert fitted.x_formation == pytest.approx(x_form, rel=1e-12)
    assert fitted.tau0 == 1.0


def test_fit_shock_rejects_bad_input():
    pulse = BoundaryPulse.half_sine(0.1, 1.0)
    with pytest.raises(FittingError):
        fit_shock(pulse, GAS, PLANAR, np.array([1.01, 1.02]))  # below formation
    with pytest.raises(DomainError):
        fit_shock(pulse, GAS, PLANAR, np.array([100.0, 50.0]))  # not increasing
    with pytest.raises(DomainError):
        fit_shock(pulse, GAS, PLANAR, np.array([]))
    zero = BoundaryPulse(lambda t: 0.0 * t, 1.0, vdot0=0.0)
    with pytest.raises(FittingError):
        fit_shock(zero, GAS, PLANAR, np.array([10.0, 20.0]))


def test_fitted_csv(tmp_path):
    pulse = BoundaryPulse.half_sine(0.1, 1.0)
    grid = np.geomspace(300.0, 3000.0, 12)
    fitted = fit_shock(pulse, GAS, PLANAR, grid)
    path = tmp_path / "fit.csv"
    fitted.to_csv(path, reference=wngo_decay(pulse.b, GAS, PLANAR, fitted.x))
    lines = path.read_text().splitlines()
    assert lines[0] == FITTED_CSV_HEADER + ",u_asym,ux_asym"
    assert len(lines) == 13
    data = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_array_equal(data["x"], fitted.x)
    np.testing.assert_array_equal(data["u_jump"], fitted.u_jump)
    assert isinstance(fitted, FittedShock)


def test_wngo_decay_laws():
    b = 0.05
    x = np.geomspace(10.0, 1e4, 9)
    u0, ux0 = wngo_decay(b, GAS, PLANAR, x)
    np.testing.assert_allclose(u0, np.sqrt(4.0 * b / (2.4 * (x - 1.0))), rtol=1e-14)
    np.testing.assert_allclose(ux0, 2.0 / (2.4 * x), rtol=1e-14)
    u2, ux2 = wngo_decay(b, GAS, SPH, x)
    np.testing.assert_allclose(
        u2, np.sqrt(4.0 * b / (2.4 * np.log(x))) / x, rtol=1e-14
    )
    np.testing.assert_allclose(ux2, 2.0 / (2.4 * x * np.log(x)), rtol=1e-14)
    with pytest.raises(DomainError):
        wngo_decay(0.0, GAS, PLANAR, 10.0)
    with pytest.raises(DomainError):
        wngo_decay(b, GAS, PLANAR, 0.5)


def test_ruw_state_invariants():
    # Isentropy (p rho^-gamma fixed at its upstream value 1/gamma) and the
    # rearward invariant 2a/(gamma-1) - u fixed at 2/(gamma-1): both exact.
    rng = np.random.default_rng(61)
    us = -0.4 + 1.4 * rng.random(30)
    for gamma in (1.4, 5.0 / 3.0):
        gas = GasParams(gamma)
        rho, p, a = ruw_state(us, gas)
        np.testing.assert_allclose(p / rho**gamma, 1.0 / gamma, rtol=1e-12)
        np.testing.assert_allclose(
            2.0 * a / (gamma - 1.0) - us, 2.0 / (gamma - 1.0), rtol=1e-12
        )
    rho, p, a = ruw_state(0.1, GAS)
    assert a == pytest.approx(1.02, rel=1e-15)
    assert rho == pytest.approx(1.02**5.0, rel=1e-13)
    assert p == pytest.approx(1.02**7.0 / 1.4, rel=1e-13)
    with pytest.raises(VacuumError):
        ruw_state(-5.1, GAS)


def test_simple_wave_inversion_roundtrip():
    rng = np.random.default_rng(62)
    for u in 0.5 * rng.random(40):
        rhs = u * (1.0 + 0.2 * u) ** 5
        assert simple_wave_u(rhs, GAS) == pytest.approx(u, rel=1e-12, abs=1e-14)
    assert simple_wave_u(0.0, GAS) == 0.0
    with pytest.raises(DomainError):
        simple_wave_u(-0.1, GAS)


def test_simple_wave_linear_deviation_is_quadratic():
    # |inverted - linear| should drop by ~100x when the amplitude drops 10x.
    taus = np.linspace(0.0, 1.0, 15)
    deviations = []
    for eps in (1e-2, 1e-3):
        pulse = BoundaryPulse.half_sine(eps, 1.0)
        dev = max(
            abs(simple_wave_u(pulse.v(t) * psi(x, CYL), GAS) - pulse.v(t) * psi(x, CYL))
            for t in taus
            for x in (1.0, 2.0, 8.0)
        )
        deviations.append(dev)
    ratio = deviations[0] / deviations[1]
    assert 70.0 < ratio < 130.0
