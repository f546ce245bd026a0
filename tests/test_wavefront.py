"""Tests for boundary pulses, lead-shock fitting and the wavelet-field laws.

Oracles used here, all recomputed from scratch:
  - pulse integrals against adaptive quadrature and exact antiderivatives,
    table pulses against scipy's PCHIP;
  - the fitted shock position: the area rule (the integral of the pulse up
    to the overtaken wavelet balances the quadratic fan term), its smallest
    root by a test-side scan and brentq on scipy's PCHIP antiderivative,
    and the kinematic speed law ds/dx = 1 - (gamma+1)/4 * v(tau-) * psi(x);
  - the carried state: exact isentropy and a conserved rearward invariant.
"""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

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
from shockdecay import wavefront
from shockdecay.core import MAX_X_END
from shockdecay.transport import asymptotic_law
from shockdecay.wavefront import (
    FITTED_CSV_HEADER,
    ROOT_RESIDUAL_TOL,
    FittedShock,
    _fit_checked,
    _gradient_shape,
)

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
    for tau in (-0.1, 2.1, np.nan, [0.5, np.nan]):
        with pytest.raises(DomainError):
            pulse.v_integral(tau)


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


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("shape", [BoundaryPulse.half_sine, BoundaryPulse.linear_ramp])
def test_pulse_rejects_non_finite_amplitude(shape, value):
    # Rejected before any arithmetic: inf * 0 would warn first.
    with pytest.raises(DomainError, match="must be finite"):
        shape(value, 1.0)


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
    # Blank lines, comments and no header read the same samples.
    with open(path) as fh:
        body = fh.read().splitlines()[1:]
    bare = tmp_path / "bare.csv"
    bare.write_text("# tau, v\n\n" + "\n".join(body) + "  # last\n")
    assert BoundaryPulse.from_csv(bare).b == pulse.b
    bad = {
        "ragged": "tau,v\n0,0\n0.5,0.1,3\n1,0\n",
        "empty": "",
        "header-only": "tau,v\n",
        "three-columns": "0,0,0\n0.5,0.1,0\n1,0,0\n",
        "text-in-body": "tau,v\n0,0\n0.5,high\n1,0\n",
        "empty-field": "0,0\n0.5,\n1,0\n",
    }
    for name, text in bad.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with pytest.raises(DomainError):
            BoundaryPulse.from_csv(path)


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
    # Arrays are taken elementwise, and one tau outside the support is refused.
    xs, taus = 1.0 + 20.0 * rng.random(7), rng.random(7)
    t = wavelet_time(xs, taus, pulse, GAS, SPH)
    assert np.array_equal(t, [wavelet_time(x, tau, pulse, GAS, SPH) for x, tau in zip(xs, taus)])
    with pytest.raises(DomainError):
        wavelet_time(xs, np.append(taus[:-1], 1.5), pulse)
    with pytest.raises(DomainError):
        wavelet_time(2.0, np.nan, pulse)
    with pytest.raises(DomainError):
        wavelet_time(xs, np.append(taus[:-1], np.nan), pulse)


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


def test_formation_beyond_the_checked_range_is_a_domain_error():
    # The spherical formation distance exp(2/((gamma+1) v'(0))) overflows at
    # v0 = 1e-4; a formation past MAX_X_END is refused in every geometry.
    weak = BoundaryPulse.half_sine(1e-4, 1.0)
    assert formation_distance(weak, GAS, PLANAR) == pytest.approx(1.0 + 2.0 / (2.4e-4 * np.pi))
    with pytest.raises(DomainError, match="forms beyond"):
        formation_distance(weak, GAS, SPH)
    with pytest.raises(DomainError, match="forms beyond"):
        formation_distance(BoundaryPulse.half_sine(1e-20, 1.0), GAS, PLANAR)
    at_limit = BoundaryPulse.linear_ramp(2.0 / (2.4 * np.log(MAX_X_END)), 1.0)
    assert formation_distance(at_limit, GAS, SPH) == pytest.approx(MAX_X_END)


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


def _half_sine_root(x, v0, tau0, gas, geom):
    """Closed-form smallest root of the area rule for a half-sine pulse.

    tau = arccos(r - 1)/w with r = 4/((gamma+1) w v0 J), written as
    (pi - 2 arcsin(sqrt(r/2)))/w to avoid the cancellation in r - 1 as tau
    approaches tau0.
    """
    w = np.pi / tau0
    r = 4.0 / ((gas.gamma + 1.0) * w * v0 * ray_integral(x, geom))
    return (np.pi - 2.0 * np.arcsin(np.sqrt(0.5 * r))) / w


def test_fit_shock_far_range_is_exact_and_cheap():
    # At x ~ 1e12 the root finder must stop once its bracket closes to
    # adjacent doubles, not run to an iteration cap.
    pulse = BoundaryPulse.half_sine(0.05, 1.0)
    calls = _counted_pulse_calls(pulse)
    x = np.geomspace(1e10, 1e12, 120)
    fitted = fit_shock(pulse, GAS, PLANAR, x)
    assert calls[0] <= ANALYTIC_FIT_CALL_BUDGET
    np.testing.assert_allclose(
        fitted.tau_minus, _half_sine_root(x, 0.05, 1.0, GAS, PLANAR), rtol=1e-12
    )


def test_fit_shock_matches_half_sine_closed_form():
    # Seeded draws of gamma, geometry and amplitude; the grid ends at 1e12,
    # or at 1e3 x_form where the shock forms beyond that.  Nearer formation
    # than 1.1 x_form the root becomes a near-double root of F, so tau is
    # fixed only to the rounding of F there; check the area rule instead.
    rng = np.random.default_rng(59)
    for _ in range(60):
        gas = GasParams(3.0 - 2.0 * rng.random())
        geom = Geometry(int(rng.integers(3)))
        v0, tau0 = rng.uniform(0.01, 0.2), 1.0
        pulse = BoundaryPulse.half_sine(v0, tau0)
        x_form = formation_distance(pulse, gas, geom)
        x = np.geomspace(1.001 * x_form, max(1e12, 1e3 * x_form), 80)
        tau = fit_shock(pulse, gas, geom, x).tau_minus
        far = x >= 1.1 * x_form
        np.testing.assert_allclose(
            tau[far], _half_sine_root(x[far], v0, tau0, gas, geom), rtol=1e-12
        )
        residual = area_rule_residual(pulse, gas, geom, x[~far], tau[~far])
        assert np.all(np.abs(residual) < 1e-15 * pulse.b)


def _table_pulse():
    taus = np.linspace(0.0, 1.0, 41)
    return taus, 0.05 * np.sin(np.pi * taus) * (1.0 + 0.5 * taus)


def test_table_pulse_is_scipy_pchip():
    # Uneven knots, flat runs, sign changes and steep steps exercise every
    # branch of the slope rules: the zeroed interior slopes and both end rules.
    rng = np.random.default_rng(54)
    for _ in range(40):
        taus = np.concatenate(([0.0], np.cumsum(rng.random(int(rng.integers(2, 40))))))
        values = rng.standard_normal(taus.size) * (rng.random(taus.size) < 0.7)
        values[0] = values[-1] = 0.0
        if not values.any():
            continue
        pulse = BoundaryPulse.from_table(taus, values)
        v = PchipInterpolator(taus, values)
        B = v.antiderivative()
        t = np.linspace(0.0, taus[-1], 997)
        scale = np.max(np.abs(values))
        np.testing.assert_allclose(pulse.v(t), v(t), rtol=0.0, atol=1e-15 * scale)
        np.testing.assert_allclose(
            pulse.v_integral(t), B(t), rtol=0.0, atol=1e-14 * scale * taus[-1]
        )
        assert pulse.vdot0 == v.derivative()(0.0)


@pytest.mark.parametrize("geom", [PLANAR, CYL, SPH], ids=lambda g: g.name)
def test_table_pulse_fit_is_exact_pchip_root(geom):
    # Oracle: the smallest root of F built on scipy's own PCHIP
    # antiderivative, bracketed by a test-side scan and found by brentq.
    taus, values = _table_pulse()
    pulse = BoundaryPulse.from_table(taus, values)
    v = PchipInterpolator(taus, values)
    B = v.antiderivative()
    assert pulse.b == pytest.approx(B(1.0), rel=1e-15)
    x = np.geomspace(1.1 * formation_distance(pulse, GAS, geom), 1e12, 100)
    fitted = fit_shock(pulse, GAS, geom, x)
    scan = np.linspace(0.0, 1.0, 4001)
    for xi, tau in zip(x, fitted.tau_minus):
        J = ray_integral(xi, geom)

        def F(t):
            return 0.25 * (GAS.gamma + 1.0) * v(t) ** 2 * J - B(t)

        i = np.argmax(F(scan[1:]) <= 0.0)
        assert i > 0  # F(scan[i]) > 0 >= F(scan[i + 1]) brackets the root
        ref = brentq(F, scan[i], scan[i + 1], xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert tau == pytest.approx(ref, rel=1e-13)


# Pulse calls per fit: two for the scan (v and the integral), two a pass of
# the root finder (v and the integral), one for the fitted state.  The custom
# pulse takes the most here: 43 calls, 20 Illinois passes to adjacent doubles.
FIT_CALL_BUDGET = 64
# A half-sine or ramp pulse reads its root off the doubles nearest its closed
# form instead of scanning: two calls over the 9 nearest, two over the 257
# nearest for the rows left, one for the fitted state.  On planar grids from
# 1.1 x_form to 1e12 no row goes on to the scan (which took 43 calls).
ANALYTIC_FIT_CALL_BUDGET = 5
# A table pulse reads its root off the same windows around a Newton estimate
# on each row's PCHIP segment.  Counted in passes over the PCHIP polynomials
# (Horner evaluations): two for the scan that finds the segments, at most
# eight Newton passes, two per window, one for the fitted state.  A row that
# went on to the scan would add two, and two per Illinois pass.
TABLE_FIT_PASS_BUDGET = 2 + 8 + 2 * 2 + 1


def _counted_pulse_calls(pulse):
    calls = [0]

    def counted(f):
        def call(tau):
            calls[0] += 1
            return f(tau)

        return call

    pulse.v = counted(pulse.v)
    pulse.v_integral = counted(pulse.v_integral)
    pulse._integral = counted(pulse._integral)
    return calls


def _pulse(kind, v0=0.05, tau0=1.0):
    if kind == "half-sine":
        return BoundaryPulse.half_sine(v0, tau0)
    if kind == "ramp":
        return BoundaryPulse.linear_ramp(v0, tau0)
    if kind == "table":
        return BoundaryPulse.from_table(*_table_pulse())
    # No integral: each lookup adds one Gauss-Legendre partial panel.
    return BoundaryPulse(_tent(0.05, 1.0 / 3.0)[0], 1.0)


@pytest.mark.parametrize("n", [120, 1200])
@pytest.mark.parametrize("kind", ["half-sine", "ramp", "table", "custom"])
def test_fit_shock_cost_is_independent_of_grid_size(kind, n, monkeypatch):
    pulse = _pulse(kind)
    calls, passes, horner = _counted_pulse_calls(pulse), [0], wavefront._horner

    def counted(coeffs, s):
        passes[0] += 1
        return horner(coeffs, s)

    monkeypatch.setattr(wavefront, "_horner", counted)
    x = np.geomspace(1.1 * formation_distance(pulse, GAS, PLANAR), 1e12, n)
    fit_shock(pulse, GAS, PLANAR, x)
    assert calls[0] < FIT_CALL_BUDGET
    if kind in ("half-sine", "ramp"):
        assert calls[0] <= ANALYTIC_FIT_CALL_BUDGET
    if kind == "table":
        assert passes[0] <= TABLE_FIT_PASS_BUDGET


@pytest.mark.parametrize("geom", [PLANAR, CYL, SPH], ids=lambda g: g.name)
@pytest.mark.parametrize("kind", ["half-sine", "ramp", "table", "custom"])
def test_fit_shock_closes_brackets_to_adjacent_doubles(kind, geom):
    # tau_- is the upper end of a closed bracket: F(tau_-) <= 0 < F at the
    # double below.  F is evaluated over the whole grid at once, as in
    # fit_shock, so that it rounds the same way.
    pulse = _pulse(kind)
    calls = _counted_pulse_calls(pulse)
    x = np.geomspace(1.0001 * formation_distance(pulse, GAS, geom), 1e12, 200)
    tau = fit_shock(pulse, GAS, geom, x).tau_minus
    # Near formation the root is a near-double root, where each pass gains
    # less: the spherical half-sine takes the most, 78 calls, 35 Illinois
    # passes after the two windows and the scan.
    assert calls[0] < 2 * 55 + 4
    assert np.all(area_rule_residual(pulse, GAS, geom, x, tau) <= 0.0)
    assert np.all(area_rule_residual(pulse, GAS, geom, x, np.nextafter(tau, 0.0)) > 0.0)


def _recorded_scans(monkeypatch):
    """The J arrays that fits hand to the tau scan, recorded per call.  A table
    pulse's root estimate scans too, to find each row's PCHIP segment; it
    passes no positions, as it refuses no row, and is not recorded."""
    scans, scan_cells = [], wavefront._scan_cells

    def recorded(pulse, c, J, x=None):
        if x is not None:
            scans.append(J)
        return scan_cells(pulse, c, J, x)

    monkeypatch.setattr(wavefront, "_scan_cells", recorded)
    return scans


def _closed_form_oracle(shape, v0, tau0, cJ):
    """brentq root of F divided by its positive factor, one sign change on [0, tau0].

    The half-sine F is (1 - cos w tau) v0 (c v0 J (1 + cos w tau) - 1/w), with
    1 + cos w tau taken as 2 cos^2(w tau/2), free of cancellation near tau0;
    the ramp F is m tau^2 (c m J (1 - s)^2 - 1/2 + s/3), s = tau/tau0, m = v0.
    """
    w = math.pi / tau0
    if shape == "half-sine":
        def G(t):
            return 2.0 * cJ * v0 * math.cos(0.5 * w * t) ** 2 - 1.0 / w
    else:
        def G(t):
            return cJ * v0 * (1.0 - t / tau0) ** 2 - 0.5 + t / (3.0 * tau0)
    return brentq(G, 0.0, tau0, xtol=1e-300, rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("tau0", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("shape", ["half-sine", "ramp"])
def test_analytic_pulse_fit_is_the_closed_form_root(shape, tau0, monkeypatch):
    # Seeded gamma in (1, 3] and amplitudes in every geometry (v0 >= 0.03
    # keeps the spherical formation distance in range): tau_- is the brentq
    # root, every row closes to adjacent doubles, and the tau scan gets
    # exactly the rows that neither closed-form window closes.
    scans = _recorded_scans(monkeypatch)
    rng = np.random.default_rng(int(40 * tau0) + len(shape))
    for geom in (PLANAR, CYL, SPH):
        for _ in range(3):
            gas = GasParams(3.0 - 2.0 * rng.random())
            v0 = rng.uniform(0.03, 0.2)
            pulse = _pulse(shape, v0, tau0)
            x_form = formation_distance(pulse, gas, geom)
            x = np.geomspace(1.1 * x_form, max(1e12, 1e3 * x_form), 50)
            tau = fit_shock(pulse, gas, geom, x).tau_minus
            c, J = 0.25 * (gas.gamma + 1.0), ray_integral(x, geom)
            cJ = c * J
            ref = [_closed_form_oracle(shape, v0, tau0, cJi) for cJi in cJ]
            np.testing.assert_allclose(tau, ref, rtol=1e-12)
            assert np.all(area_rule_residual(pulse, gas, geom, x, tau) <= 0.0)
            assert np.all(area_rule_residual(pulse, gas, geom, x, np.nextafter(tau, 0.0)) > 0.0)
            open_ = np.ones(x.size, dtype=bool)
            for K in (4, 128):
                t = _closed_form_window(pulse, c, J, K)
                f = area_rule_residual(pulse, gas, geom, x[:, None], t)
                first = np.argmin(f > 0.0, axis=1)
                open_ &= ~((first > 0) & (f[np.arange(x.size), first] <= 0.0))
            np.testing.assert_array_equal(np.concatenate(scans or [[]]), J[open_])
            scans.clear()


@pytest.mark.parametrize("shape", ["half-sine", "ramp"])
def test_near_formation_brackets_fall_back_to_the_scan(shape, monkeypatch):
    # At 1.0001 x_form the root is nearly double and F rounds coarsely around
    # it, so some rows close in neither closed-form window; those entries
    # take the scan's bracket and still close to adjacent doubles.
    scans = _recorded_scans(monkeypatch)
    scanned = 0
    for geom in (PLANAR, CYL, SPH):
        pulse = _pulse(shape)
        x = np.geomspace(1.0001 * formation_distance(pulse, GAS, geom), 1e12, 200)
        tau = fit_shock(pulse, GAS, geom, x).tau_minus
        fell_back = np.isin(ray_integral(x, geom), np.concatenate(scans or [[]]))
        scans.clear()
        scanned += np.count_nonzero(fell_back)
        residual = area_rule_residual(pulse, GAS, geom, x, tau)
        below = area_rule_residual(pulse, GAS, geom, x, np.nextafter(tau, 0.0))
        assert np.all(residual[fell_back] <= 0.0) and np.all(below[fell_back] > 0.0)
    assert 0 < scanned < 3 * 200


def _closed_form_window(pulse, c, J, K):
    """The 2K+1 doubles nearest the pulse's root estimate per J (its closed
    form, or for a table its PCHIP-segment Newton estimate), within [0, tau0]."""
    with np.errstate(divide="ignore"):  # as in fit_shock: R = B/v^2 at v(tau0) = 0
        bits = np.fmin(np.fmax(pulse._root(c * J), 0.0), pulse.tau0).view(np.int64)
    top = np.array(pulse.tau0).view(np.int64)
    return np.clip(bits[:, None] + np.arange(-K, K + 1), 0, top).view(float)


@pytest.mark.parametrize("shape", ["half-sine", "ramp"])
def test_window_root_is_the_first_sign_change(shape):
    # Each row closed off the closed form takes the first double of its
    # window with F <= 0, where F > 0 on every double below it: the 9-double
    # window first, the 257-double one for the rows it leaves.  F is
    # evaluated over all windows at once, as in fit_shock.
    rng = np.random.default_rng(7 + len(shape))
    for geom in (PLANAR, CYL, SPH):
        gas, v0 = GasParams(3.0 - 2.0 * rng.random()), rng.uniform(0.03, 0.2)
        pulse = _pulse(shape, v0)
        x = np.geomspace(1.1 * formation_distance(pulse, gas, geom), 1e12, 200)
        tau = fit_shock(pulse, gas, geom, x).tau_minus
        c, open_ = 0.25 * (gas.gamma + 1.0), np.ones(x.size, dtype=bool)
        for K in (4, 128):
            t = _closed_form_window(pulse, c, ray_integral(x, geom), K)
            f = area_rule_residual(pulse, gas, geom, x[:, None], t)
            first = np.argmin(f > 0.0, axis=1)
            rows = open_ & (first > 0) & (f[np.arange(x.size), first] <= 0.0)
            np.testing.assert_array_equal(tau[rows], t[rows, first[rows]])
            open_ &= ~rows
        assert not open_.any()  # from 1.1 x_form every row closes in a window


def _sweep_table(rng):
    """A table pulse v0 sin(pi s)(1 + a sin pi s + b sin 2 pi s) on 50 knots, in
    the fit_sweep benchmark's shape and parameter ranges, with its samples."""
    s = np.linspace(0.0, 1.0, 50)
    v0, a, b = rng.uniform(0.03, 0.2), rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)
    values = v0 * np.sin(np.pi * s) * (1.0 + a * np.sin(np.pi * s) + b * np.sin(2.0 * np.pi * s))
    values[0] = values[-1] = 0.0
    return BoundaryPulse.from_table(s, values), s, values


def _pchip_oracle(taus, values, cJ):
    """Smallest root of c v^2 J - B per cJ, with v and B scipy's PCHIP and its
    antiderivative: bracketed by a test-side scan, found by brentq."""
    v = PchipInterpolator(taus, values)
    B = v.antiderivative()
    scan, roots = np.linspace(0.0, taus[-1], 4001), []
    for cJi in cJ:

        def F(t):
            return cJi * v(t) ** 2 - B(t)

        i = np.argmax(F(scan[1:]) <= 0.0)
        assert i > 0  # F(scan[i]) > 0 >= F(scan[i + 1]) brackets the root
        roots.append(brentq(F, scan[i], scan[i + 1], xtol=1e-300, rtol=4 * np.finfo(float).eps))
    return roots


@pytest.mark.parametrize("geom", [PLANAR, CYL, SPH], ids=lambda g: g.name)
def test_table_pulse_fit_reads_its_root_off_the_windows(geom, monkeypatch):
    # Seeded fit_sweep-shaped tables and gamma, from 1.1 x_form: tau_- is the
    # brentq root on scipy's PCHIP, every row closes to adjacent doubles, and
    # the tau scan gets exactly the rows that neither window around the
    # PCHIP-segment estimate closes, which are few.  Each row's estimate has
    # the same bits in a batch as alone, so a batch fit is the single fits.
    scans = _recorded_scans(monkeypatch)
    rng = np.random.default_rng(230 + geom.j)
    scanned = rows = 0
    for _ in range(3):
        gas = GasParams(rng.uniform(1.1, 5.0 / 3.0))
        pulse, taus, values = _sweep_table(rng)
        x_form = formation_distance(pulse, gas, geom)
        x = np.geomspace(1.1 * x_form, max(1e12, 1e3 * x_form), 40)
        tau = fit_shock(pulse, gas, geom, x).tau_minus
        c, J = 0.25 * (gas.gamma + 1.0), ray_integral(x, geom)
        np.testing.assert_allclose(tau, _pchip_oracle(taus, values, c * J), rtol=1e-13)
        assert np.all(area_rule_residual(pulse, gas, geom, x, tau) <= 0.0)
        assert np.all(area_rule_residual(pulse, gas, geom, x, np.nextafter(tau, 0.0)) > 0.0)
        open_ = np.ones(x.size, dtype=bool)
        for K in (4, 128):
            t = _closed_form_window(pulse, c, J, K)
            f = area_rule_residual(pulse, gas, geom, x[:, None], t)
            first = np.argmin(f > 0.0, axis=1)
            open_ &= ~((first > 0) & (f[np.arange(x.size), first] <= 0.0))
        np.testing.assert_array_equal(np.concatenate(scans or [[]]), J[open_])
        scans.clear()
        scanned, rows = scanned + np.count_nonzero(open_), rows + x.size
        with np.errstate(divide="ignore"):  # as in fit_shock: R = B/v^2 at v(tau0) = 0
            estimate = pulse._root(c * J)
            alone = [pulse._root(c * J[i : i + 1])[0] for i in range(x.size)]
        np.testing.assert_array_equal(estimate.view(np.int64), np.array(alone).view(np.int64))
    assert scanned <= 0.02 * rows


def _stage_counts(pulse, scans):
    """Rows that enter each stage of the root finder, from the tau arrays
    handed to the pulse integral (n x 9 and m x 257 windows) and the scan's
    record."""
    shapes, integral = [], pulse._integral

    def recorded(t):
        shapes.append(np.shape(t))
        return integral(t)

    pulse._integral = recorded

    def counts():
        windows = dict(s[::-1] for s in shapes if len(s) == 2)
        return windows.get(9, 0), windows.get(257, 0), sum(map(len, scans))

    return counts


@pytest.mark.parametrize("shape", ["half-sine", "ramp"])
@pytest.mark.parametrize("stage", [0, 1, 2], ids=["K4", "K128", "scan"])
def test_each_root_stage_closes_to_adjacent_doubles(shape, stage, monkeypatch):
    # Moving the closed form by 0 or 40 doubles (or dropping it: NaN) sends
    # the rows to the 9-double window, the 257-double window, or the tau scan
    # and Illinois.  Every row closes in the stage driven, but at shift 0,
    # where a few rows (11% of one spherical ramp grid) need the wider window;
    # and every row closes to adjacent doubles.
    scans = _recorded_scans(monkeypatch)
    shift = (0, 40, None)[stage]
    rng = np.random.default_rng((0, 11, 33)[stage] + len(shape))
    for geom in (PLANAR, CYL, SPH):
        gas, v0 = GasParams(3.0 - 2.0 * rng.random()), rng.uniform(0.03, 0.2)
        pulse = _pulse(shape, v0)
        x = np.geomspace(2.0 * formation_distance(pulse, gas, geom), 1e12, 200)
        root = pulse._root
        if shift is None:
            pulse._root = lambda cJ: np.full_like(cJ, np.nan)
        else:
            pulse._root = lambda cJ: (root(cJ).view(np.int64) + shift).view(float)
        counts = _stage_counts(pulse, scans)
        tau = fit_shock(pulse, gas, geom, x).tau_minus
        entered = counts() + (0,)  # the scan's rows all close in Illinois
        closed = [a - b for a, b in zip(entered, entered[1:])]
        assert closed[stage] >= (0.8 if stage == 0 else 1.0) * x.size, closed
        assert entered[0] == x.size and entered[2] == (x.size if stage == 2 else 0)
        assert np.all(area_rule_residual(pulse, gas, geom, x, tau) <= 0.0)
        assert np.all(area_rule_residual(pulse, gas, geom, x, np.nextafter(tau, 0.0)) > 0.0)
        scans.clear()


def test_quadrature_fallback_pulse_fits_like_exact_integral():
    # v = v0 (sin + sin^3)(pi tau): compressive head, and an antiderivative
    # that the fallback replaces by adaptive quadrature.
    v0, w = 0.05, np.pi

    def v(tau):
        return v0 * (np.sin(w * tau) + np.sin(w * tau) ** 3)

    def integral(tau):
        c = np.cos(w * tau)
        return v0 / w * (2.0 * (1.0 - c) - (1.0 - c**3) / 3.0)

    exact = BoundaryPulse(v, 1.0, vdot0=v0 * w, integral=integral)
    fallback = BoundaryPulse(v, 1.0, vdot0=v0 * w)
    assert fallback.b == pytest.approx(exact.b, rel=1e-13)
    for geom in (PLANAR, SPH):
        x = np.geomspace(1.1 * formation_distance(exact, GAS, geom), 1e8, 40)
        np.testing.assert_allclose(
            fit_shock(fallback, GAS, geom, x).tau_minus,
            fit_shock(exact, GAS, geom, x).tau_minus,
            rtol=0.0,
            atol=1e-12,
        )


def _tent(v0, apex):
    """Tent pulse with a corner at apex, and its exact antiderivative."""

    def v(tau):
        return v0 * np.minimum(tau / apex, (1.0 - tau) / (1.0 - apex))

    def integral(tau):
        fall = 0.5 * apex + (tau - apex - 0.5 * (tau**2 - apex**2)) / (1.0 - apex)
        return v0 * np.where(tau < apex, 0.5 * tau**2 / apex, fall)

    return v, integral


def test_quadrature_fallback_resolves_a_kink():
    # The corner at tau = 1/3 never falls on a panel edge, so the panels
    # around it must be refined until they resolve it.
    v, integral = _tent(0.05, 1.0 / 3.0)
    exact = BoundaryPulse(v, 1.0, vdot0=0.15, integral=integral)
    fallback = BoundaryPulse(v, 1.0, vdot0=0.15)
    assert fallback.b == pytest.approx(exact.b, rel=1e-12)
    taus = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_allclose(
        fallback.v_integral(taus), exact.v_integral(taus), rtol=0.0, atol=1e-12 * exact.b
    )
    for geom in (PLANAR, SPH):
        x = np.geomspace(1.1 * formation_distance(exact, GAS, geom), 1e8, 40)
        np.testing.assert_allclose(
            fit_shock(fallback, GAS, geom, x).tau_minus,
            fit_shock(exact, GAS, geom, x).tau_minus,
            rtol=0.0,
            atol=1e-12,
        )


def test_quadrature_fallback_refuses_an_unresolvable_pulse():
    # ~1.6e7 oscillations on [0, 1] need far more panels than the cap allows;
    # the pulse is refused rather than integrated with unchecked error.
    def v(tau):
        return 0.05 * np.sin(np.pi * tau) * (1.0 + 0.5 * np.sin(1e8 * tau))

    with pytest.raises(DomainError, match="panels"):
        BoundaryPulse(v, 1.0, vdot0=0.05 * np.pi)


def _half_sine_nan_on(inside):
    """v = 0.05 sin(pi tau), NaN where inside(tau)."""

    def v(tau):
        return np.where(inside(tau), np.nan, 0.05 * np.sin(np.pi * tau))

    return v


def test_quadrature_refuses_a_pulse_that_is_nan_inside():
    # A NaN in the half-panel sums would make the tolerance NaN, so that no
    # panel reads as bad and the integral is taken after one pass.
    v = _half_sine_nan_on(lambda tau: np.abs(tau - 0.4) < 1e-3)
    with pytest.raises(DomainError, match="NaN"):
        BoundaryPulse(v, 1.0)


def test_pulse_refuses_a_head_slope_estimate_that_overflows():
    # The one-sided difference of 1e308 sin(pi tau) overflows a float; it is
    # refused before the integral is built, with no overflow warning.
    with pytest.raises(DomainError, match="head slope"):
        BoundaryPulse(lambda tau: 1e308 * np.sin(np.pi * tau), 1.0)
    assert BoundaryPulse(lambda tau: 5e307 * np.sin(np.pi * tau), 1.0).vdot0 < math.inf


def test_quadrature_refuses_a_pulse_whose_half_panel_sums_overflow():
    # The half-panel sums of 1.5e308 sin(pi tau) overflow to inf, and
    # whole - halves would be inf - inf; 5e307 is integrated as before.
    with pytest.raises(DomainError, match="NaN"):
        BoundaryPulse(lambda tau: 1.5e308 * np.sin(np.pi * tau), 1.0, vdot0=1.0)
    pulse = BoundaryPulse(lambda tau: 5e307 * np.sin(np.pi * tau), 1.0, vdot0=1.0)
    assert pulse.b == pytest.approx(2.0 * 5e307 / np.pi, rel=1e-12)


def test_fit_refuses_a_pulse_that_is_nan_inside_the_scan():
    # With its exact integral the pulse skips the quadrature.  A NaN v^2 would
    # read as R = +inf, and the scan would bracket the NaN region: tau_- up to
    # 55% off on 197 of these 200 rows.
    def integral(tau):
        return 0.05 / np.pi * (1.0 - np.cos(np.pi * tau))

    v = _half_sine_nan_on(lambda tau: (tau > 0.45) & (tau < 0.46))
    pulse = BoundaryPulse(v, 1.0, vdot0=0.05 * np.pi, integral=integral)
    x = np.geomspace(1.1 * formation_distance(pulse, GAS, PLANAR), 1e12, 200)
    with pytest.raises(DomainError, match="NaN"):
        fit_shock(pulse, GAS, PLANAR, x)


def test_two_hump_pulse_takes_smallest_root():
    # A dip between two humps makes R(tau) = 4B/((gamma+1)v^2) peak there,
    # so F has several roots at the same x; tau_- must be the smallest.
    taus = np.linspace(0.0, 1.0, 81)
    sine = np.sin(np.pi * taus)
    values = 0.05 * sine * (1.0 - 0.8 * sine**2)
    pulse = BoundaryPulse.from_table(taus, values)
    x = np.geomspace(1.1 * formation_distance(pulse, GAS, PLANAR), 1e6, 200)
    fitted = fit_shock(pulse, GAS, PLANAR, x)
    later_roots = False
    for xi, tau in zip(x, fitted.tau_minus):
        below = tau * np.linspace(0.0, 1.0, 2001)[1:-1]
        assert np.all(area_rule_residual(pulse, GAS, PLANAR, xi, below) > 0.0)
        above = np.linspace(tau, 1.0, 2001)[1:-1]
        later_roots |= np.any(area_rule_residual(pulse, GAS, PLANAR, xi, above) > 0.0)
    assert later_roots
    assert np.all(np.diff(fitted.tau_minus) >= 0.0)
    assert fitted.tau_minus[0] < 0.5 < fitted.tau_minus[-1]  # crosses the dip


def test_narrow_peak_at_a_knot_takes_smallest_root():
    # |sin 2 pi tau| has a corner at the knot tau = 0.5, so R peaks there
    # (R ~ 1170) in a spike far narrower than the uniform scan spacing.
    taus = np.linspace(0.0, 1.0, 81)
    values = 0.05 * (np.abs(np.sin(2.0 * np.pi * taus)) + 0.1 * np.sin(np.pi * taus))
    pulse = BoundaryPulse.from_table(taus, values)
    x = np.geomspace(1.1 * formation_distance(pulse, GAS, PLANAR), 1e6, 200)
    fitted = fit_shock(pulse, GAS, PLANAR, x)
    for xi, tau in zip(x, fitted.tau_minus):
        below = np.union1d(tau * np.linspace(0.0, 1.0, 2001)[1:-1], taus[taus < tau][1:])
        assert np.all(area_rule_residual(pulse, GAS, PLANAR, xi, below) > 0.0), xi
    assert np.all(np.diff(fitted.tau_minus) >= 0.0)


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


def test_fit_shock_geometries_match_single_fits():
    # compare's path, one root search and one Illinois iteration for all
    # geometries: every fit is fit_shock's bit for bit, from the scan (table,
    # custom) or from closed-form windows checked elementwise, also where the
    # pulse integral comes from panel quadrature.
    taus = np.linspace(0.0, 1.0, 30)
    pulse = BoundaryPulse.from_table(taus, 0.05 * np.sin(np.pi * taus) * (1.0 + 0.3 * taus))
    custom = BoundaryPulse(lambda t: 0.05 * np.sin(np.pi * t) * (1.0 + 0.3 * t), 1.0)
    starts_and_sizes = ((1.5, (57, 120, 3)), (1.1, (240, 240, 240)), (10.0, (200, 200, 200)))
    for each, (start, sizes) in itertools.product(
        (pulse, custom, _pulse("half-sine"), _pulse("ramp")), starts_and_sizes
    ):
        checked = {}
        for geom, n in zip((SPH, PLANAR, CYL), sizes):
            x_form = formation_distance(each, GAS, geom)
            checked[geom] = (np.geomspace(start * x_form, 1e10, n), x_form)
        batch = _fit_checked(each, GAS, checked)
        assert list(batch) == [SPH, PLANAR, CYL]
        for geom, (grid, _) in checked.items():
            single = fit_shock(each, GAS, geom, grid)
            for field in ("x", "tau_minus", "u_jump", "ux_jump", "shock_time", "x_formation"):
                np.testing.assert_array_equal(getattr(batch[geom], field), getattr(single, field))
    assert _fit_checked(pulse, GAS, {}) == {}


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


@pytest.mark.parametrize("geom", [PLANAR, CYL, SPH], ids=lambda g: g.name)
@pytest.mark.parametrize("v0", [1e50, 1e99, 1e150, 1e154, 1e155])
def test_too_strong_pulse_is_a_fitting_error(v0, geom):
    # tau_- would round to tau0, where v = 0 and [u] would read 0; v^2
    # overflowing on the scan must not warn.
    ramp = BoundaryPulse.linear_ramp(v0, 1.0)
    grid = np.geomspace(1.1 * formation_distance(ramp, GAS, geom), 1e4, 20)
    with pytest.raises(FittingError, match="too strong"):
        fit_shock(ramp, GAS, geom, grid)
    with pytest.raises(FittingError, match="no root"):
        fit_shock(BoundaryPulse.half_sine(v0, 1.0), GAS, geom, grid)


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


def test_far_field_laws_match_explicit_forms():
    # The shared laws, written as psi/J_lead, against each geometry's own form.
    x = np.geomspace(1.5, 1e12, 40)
    lx = np.log(x)
    G = 2.0 / (GAS.gamma + 1.0)
    amp = 0.32 * np.sqrt(2.0 / ((GAS.gamma + 1.0) * 10.0))
    explicit = {
        0: (1.0 / x, -1.0 / x**2, amp / np.sqrt(x)),
        1: (0.5 / x, -0.5 / x**2, amp / np.sqrt(2.0) * x**-0.75),
        2: (1.0 / (x * lx), -(1.0 + lx) / (x * lx) ** 2, amp / (x * np.sqrt(lx))),
    }
    tau0 = 1.0
    s = x - 1.0 + tau0 * np.random.default_rng(71).random(x.size)
    for j, (K, dK, p) in explicit.items():
        geom = Geometry(j)
        p_law, px_law = asymptotic_law(x, 0.32, 10.0, GAS, geom)
        np.testing.assert_allclose(p_law, p, rtol=1e-15, atol=0)
        np.testing.assert_allclose(px_law, G * K, rtol=1e-15, atol=0)
        # The shape sums two terms that can cancel; bound its error by their sizes.
        m = x - s + tau0
        gap = np.abs(_gradient_shape(x, s, tau0, geom) - (K + m * dK))
        assert np.all(gap <= 1e-15 * (np.abs(K) + np.abs(m * dK)))
        # K' = -K (j/(2x) + K) against a central difference of K itself: the
        # shape is K when x - s + tau0 = 0 and K + K' when it is 1.  K'/K ~ 1/x,
        # so the difference keeps its digits only at moderate x.
        xm = x[x < 1e3]
        dK_law = _gradient_shape(xm, xm + tau0 - 1.0, tau0, geom) - _gradient_shape(
            xm, xm + tau0, tau0, geom
        )
        d = 1e-6 * xm
        fd = (_gradient_shape(xm + d, xm + d + tau0, tau0, geom)
              - _gradient_shape(xm - d, xm - d + tau0, tau0, geom)) / (2.0 * d)
        np.testing.assert_allclose(dK_law, fd, rtol=1e-6)


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


def test_wngo_decay_is_the_public_composition():
    # wngo_decay checks b and x once, then calls the kernels: its answer is
    # the checked public ray_integral and psi bit for bit, on a seeded grid in
    # every geometry, for arrays and for scalars.  Its [u_x] is the transport
    # asymptotic_law's [p_x] for any h and k > 0: one far-field law, the paper's
    # claim, with no memory of the initial data.
    rng = np.random.default_rng(64)
    x = np.sort(1.0 + 10.0 ** rng.uniform(-12.0, 17.0, 400))
    for geom in (PLANAR, CYL, SPH):
        gas, b = GasParams(rng.uniform(1.01, 5.0)), 10.0 ** rng.uniform(-8.0, 2.0)
        u, ux = wngo_decay(b, gas, geom, x)
        J = ray_integral(x, geom)
        np.testing.assert_array_equal(u, np.sqrt(4.0 * b / ((gas.gamma + 1.0) * J)) * psi(x, geom))
        for h, k in zip(rng.uniform(0.0, 0.5, 3), 10.0 ** rng.uniform(-6.0, 6.0, 3)):
            np.testing.assert_array_equal(ux, asymptotic_law(x, h, k, gas, geom)[1])
        for i in range(0, x.size, 40):
            scalar = wngo_decay(b, gas, geom, float(x[i]))
            assert scalar == (u[i], ux[i]) and all(type(v) is float for v in scalar)


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
    for rhs in (-0.1, np.nan, np.inf):
        with pytest.raises(DomainError):
            simple_wave_u(rhs, GAS)


def _exact_riemann_residual(u, rhs, gamma):
    """u (1 + (gamma-1)u/2)^(2/(gamma-1)) - rhs in 40-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 40
        a = (Decimal(gamma) - 1) / 2
        u = Decimal(u)
        return float(u * ((1 + a * u).ln() / a).exp() - Decimal(rhs))


def test_simple_wave_inversion_sweep():
    # gamma in (1, 3] and rhs log-uniform over [1e-14, 1e12], plus corners
    # near gamma = 1, where (1 + (gamma-1)u/2) rounds before a large power,
    # and where that power overflows a double at the u (1 + u) = rhs start.
    # Above rhs ~ 0.5 the series start leaves (0, rhs] and that bound is
    # used; above 1 the tolerance is relative.
    rng = np.random.default_rng(63)
    n = 400
    gammas = np.append(
        3.0 - 2.0 * rng.random(n),
        [1.0 + 1e-9, 1.001, 1.001, 3.0, 1.01, 1.01, 1.01, 1.1, 1.0 + 1e-9, 1.001],
    )
    rhss = np.append(
        10.0 ** rng.uniform(-14.0, 12.0, n), [1e3, 1.0, 10.0, 1e3, 1e6, 1e8, 1e12, 1e8, 1e12, 1e12]
    )
    series = rhss - rhss**2 + 0.5 * (3.0 + 0.5 * (gammas - 1.0)) * rhss**3
    assert np.sum(series > rhss) > n // 10  # the draws that use the bound start
    for gamma, rhs in zip(gammas, rhss):
        u = simple_wave_u(rhs, GasParams(gamma))
        assert 0.0 < u <= rhs
        residual = _exact_riemann_residual(u, rhs, gamma)
        assert abs(residual) < ROOT_RESIDUAL_TOL * max(1.0, rhs), (gamma, rhs)


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
