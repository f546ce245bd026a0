"""The four routes run on one set of weak data, and the pairs that check they agree."""

import math
import os

import numpy as np

from .ccw import WEAK_LIMIT_FLOOR, CcwVariant, _integrate_rules
from .core import _is_real, log_grid, mach_from_p_jump
from .errors import DomainError, ShockError
from .transport import Scenario, _centred, _closed_form_jumps, _slope, integrate_truncated
from .wavefront import (
    BoundaryPulse,
    _fit_checked,
    formation_distance,
    simple_wave_u,
    wngo_decay,
)


def _attempt(pipeline, *args):
    """pipeline(*args), or the ShockError it raised."""
    try:
        return pipeline(*args)
    except ShockError as exc:
        return exc


def _fit_window(x):
    """Mask of the last two decades of increasing positions x, and their centred log: a
    CCW front that hits the weak-limit floor early is fitted over the decades it reached."""
    window = x >= x[-1] / 100.0
    return window, _centred(np.log(x[window]))


def _pipeline_transport(gas, geometries, h, k, xs, out_dir):
    """Precursor (k) and acoustic (k = 0) exponents over the fit window of xs: closed_form's
    [p] on the window alone, which cannot fail (I(x) >= 1; x_end > 100 leaves >= 27 samples)."""
    window, X = _fit_window(xs)
    x = xs[window]
    out = {}
    for geom in geometries:
        if out_dir:
            for branch, kb in (("precursor", k), ("acoustic", 0.0)):
                scen = Scenario(gas=gas, geom=geom, h=h, k=kb, x_end=xs[-1])
                hist = integrate_truncated(scen, n_samples=240)
                hist.to_csv(f"{out_dir}/transport_{branch}_{geom.name}.csv")
        p, p_acoustic = (_closed_form_jumps(x, h, kb, gas, geom)[0] for kb in (k, 0.0))
        # A spherical [p] sqrt(log x) drops the log factor; x > 1 in the window, so it is > 0.
        precursor = _slope(X, p if geom.j < 2 else p * np.sqrt(np.log(x)))
        out[geom] = {"precursor_exponent": precursor, "acoustic_exponent": _slope(X, p_acoustic)}
    return out


def _wngo_grid(pulse, gas, geom, x_end):
    """The fit's grid in geometry geom, with the formation distance it starts above."""
    x_form = formation_distance(pulse, gas, geom)
    lo = max(10.0 * x_form, x_end / 100.0)
    if lo >= x_end / 2.0:
        raise DomainError(
            f"x_end = {x_end} leaves no asymptotic window above 10 * formation "
            f"distance {x_form:.6g}"
        )
    return log_grid(lo, x_end, 120), x_form


def _pipeline_wngo(gas, geometries, h, x_end, out_dir):
    """The half-sine pulse fitted in every geometry by one equal-area solve."""
    pulse = BoundaryPulse.half_sine(h, 1.0)
    out = {geom: _attempt(_wngo_grid, pulse, gas, geom, x_end) for geom in geometries}
    grids = {geom: grid for geom, grid in out.items() if not isinstance(grid, ShockError)}
    for geom, fitted in _fit_checked(pulse, gas, grids).items():  # increasing, above 10 x_form
        if out_dir:
            fitted.to_csv(
                f"{out_dir}/wngo_{geom.name}.csv",
                reference=wngo_decay(pulse.b, gas, geom, fitted.x),
            )
        log_x = np.log(fitted.x)  # x > 1: a spherical [u] sqrt(log x) is positive too
        u = fitted.u_jump * np.sqrt(log_x) if geom.j == 2 else fitted.u_jump
        out[geom] = {
            "exponent": _slope(_centred(log_x), u),
            "formation_distance": fitted.x_formation,
            "pulse_integral": pulse.b,
        }
    return out


def _pipeline_simple_wave(gas):
    """Max |inverted - linear| deviation for two half-sine pulse amplitudes.

    The inversion u(r) of u (1 + (gamma-1)u/2)^(2/(gamma-1)) = r has
    du/dr < 1, so r - u(r) grows with r: over every x >= 1 and tau the
    largest deviation |u - v psi| sits at the pulse peak at x = 1, where
    v psi equals the amplitude eps.  The result is the same for every geometry.
    """
    high, low = (abs(simple_wave_u(eps, gas) - eps) for eps in (1e-2, 1e-3))
    return {"deviation_0.01": high, "deviation_0.001": low, "quadratic_ratio": high / low}


def _pipeline_ccw(gas, geometries, u0, xs, out_dir):
    """Both decay rules from Mach number u0 at positions xs, in one Newton iteration."""
    runs = _integrate_rules(u0, gas, geometries, xs, (CcwVariant.GENERALIZED, CcwVariant.CLASSIC))
    return {geom: _attempt(_ccw_entry, u0, geom, runs, out_dir) for geom in geometries}


def _ccw_entry(u0, geom, runs, out_dir):
    out, windows = {"U0": u0}, {}
    for variant, by_geom in runs.items():
        run = by_geom[geom]
        if out_dir:
            run.to_csv(f"{out_dir}/ccw_{variant.value}_{geom.name}.csv")
        if run.x.size not in windows:  # both rules often stop at one sample: centre once
            windows[run.x.size] = _fit_window(run.x)  # x = 1 alone if U hit the floor before x_1
        window, X = windows[run.x.size]
        out[f"{variant.value}_exponent"] = _slope(X, run.p_jump[window])
    gen, cla = (by_geom[geom] for by_geom in runs.values())
    n = min(gen.x.size, cla.x.size)
    gap = np.max(np.abs((cla.U[:n] - gen.U[:n]) / np.maximum(gen.U[:n] - 1.0, 1e-300)))
    out["variant_gap"] = float(gap)
    return out


# Each pair compares two routes' exponents of the same decay branch:
# (name, (route, key), (route, key)).
_PAIRS = (
    ("precursor_gap", ("transport", "precursor_exponent"), ("wngo", "exponent")),
    ("acoustic_gap", ("transport", "acoustic_exponent"), ("ccw", "generalized_exponent")),
)


def compare_methods(gas, geometries, h, k, x_end, out_dir=None):
    """The report of the four routes on weak data (h, k) up to x_end, per geometry.

    Each geometry gets every route's block, or {"status": "failed", "error": ...}
    (status "partial"), and the gap of each pair in _PAIRS whose two exponents
    exist.  Given out_dir, creates it and writes each route's CSVs there.  Bad
    data, and an x_end <= 100, where the two-decade fit windows reach x = 1,
    raise DomainError; the geometries iterable is read after h and k are checked.
    """
    if not (_is_real(h) and 0.0 < h <= 0.1):
        raise DomainError(f"compare-methods needs 0 < h <= 0.1 (weak data), got {h}")
    if not (_is_real(k) and 0.0 < k < math.inf):
        raise DomainError("compare-methods needs a finite k > 0 for the precursor branch")
    geometries = list(geometries)
    if not geometries or len(set(geometries)) < len(geometries):
        raise DomainError("compare-methods needs a nonempty list of distinct geometries")
    for geom in geometries:
        Scenario(gas=gas, geom=geom, h=h, k=k, x_end=x_end)
    if not x_end > 100.0:  # after Scenario, whose x_end messages come first
        raise DomainError(f"compare-methods needs x_end > 100 for its two-decade fits, got {x_end}")
    u0 = mach_from_p_jump(h, gas)
    if not u0 > 1.0 + WEAK_LIMIT_FLOOR:
        raise DomainError(f"h = {h} puts the CCW start within {WEAK_LIMIT_FLOOR:g} of U = 1")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    report = {"gamma": gas.gamma, "h": h, "k": k, "x_end": x_end, "geometries": {}}
    xs = log_grid(1.0, x_end, 240)  # the transport and CCW routes' one sample grid
    # Each route runs once for all geometries and answers every geometry with its
    # entry, or (wngo and ccw, which can fail) with the ShockError that failed it.
    routes = {
        "transport": _pipeline_transport(gas, geometries, h, k, xs, out_dir),
        "wngo": _attempt(_pipeline_wngo, gas, geometries, h, x_end, out_dir),
        "simple_wave": dict.fromkeys(geometries, _pipeline_simple_wave(gas)),
        "ccw": _attempt(_pipeline_ccw, gas, geometries, u0, xs, out_dir),
    }
    any_failed = False
    for geom in geometries:
        entry = report["geometries"][geom.name] = {}
        for name, results in routes.items():
            result = results if isinstance(results, ShockError) else results[geom]
            if isinstance(result, ShockError):
                result = {"status": "failed", "error": str(result)}
                any_failed = True
            entry[name] = result
        entry["pairs"] = {
            pair: abs(entry[route_a][key_a] - entry[route_b][key_b])
            for pair, (route_a, key_a), (route_b, key_b) in _PAIRS
            if key_a in entry[route_a] and key_b in entry[route_b]
        }
    report["status"] = "partial" if any_failed else "ok"
    return report
