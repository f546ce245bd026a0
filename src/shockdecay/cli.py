"""Command-line front end.

Commands: evolve, asymptote, table1, compare-methods, fit-shock, ccw.
Settings come from flags, optionally backed by an INI-style config file
(--config PATH) whose values the flags override.  Data outputs are CSV
(17-significant-digit floats, LF endings); the comparison report is a
single deterministic JSON document.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 partial comparison report.
"""

import argparse
import configparser
import json
import math
import os
import sys

import numpy as np

from .ccw import CcwVariant, integrate_ccw
from .core import GasParams, Geometry, mach_from_p_jump, psi, write_csv
from .errors import ConfigError, DomainError, ShockError, SolverError
from .transport import (
    REFERENCE_CASES,
    REFERENCE_X,
    AsymptoteConvention,
    Scenario,
    asymptotic_law,
    decay_slope,
    integrate_truncated,
)
from .wavefront import (
    BoundaryPulse,
    fit_shock,
    formation_distance,
    simple_wave_u,
    wngo_decay,
)


def _load_config(path):
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path}: not found or unreadable")
    return parser


def _setting(flag_value, config, section, key, default, cast):
    """Merge one setting: flag wins, then config file, then default."""
    if flag_value is not None:
        return flag_value
    if config is not None and config.has_option(section, key):
        raw = config.get(section, key)
        try:
            return cast(raw)
        except (ValueError, DomainError) as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return default


def _positive_int(raw):
    value = int(raw)
    if value < 2:
        raise ValueError("need at least 2 samples")
    return value


class _Common:
    """Settings shared by every command, merged from flags and config."""

    def __init__(self, args, config):
        self.gamma = _setting(args.gamma, config, "run", "gamma", 1.4, float)
        geom = _setting(args.geometry, config, "run", "geometry", None, str)
        self.geom_name = geom  # None means command default (usually planar)
        self.h = _setting(args.h, config, "run", "h", None, float)
        self.k = _setting(args.k, config, "run", "k", None, float)
        self.x_end = _setting(args.x_end, config, "run", "x_end", None, float)
        if self.x_end is not None and not math.isfinite(self.x_end):
            raise ConfigError(f"x_end must be finite, got {self.x_end}")
        self.rtol = _setting(args.rtol, config, "run", "rtol", 1e-10, float)
        self.samples = _setting(
            getattr(args, "samples", None), config, "run", "samples", 200, _positive_int
        )
        if self.samples < 2:
            raise ConfigError("--samples must be at least 2")
        self.out = args.out or (
            config.get("run", "out") if config and config.has_option("run", "out") else None
        )
        self.gas = GasParams(self.gamma)

    def geometry(self, default="planar"):
        return Geometry.from_name(self.geom_name or default)


def _build_scenario(common, geom, h_default=0.1, k_default=1.0, x_end_default=100.0):
    return Scenario(
        gas=common.gas,
        geom=geom,
        h=common.h if common.h is not None else h_default,
        k=common.k if common.k is not None else k_default,
        x_end=common.x_end if common.x_end is not None else x_end_default,
        rtol=common.rtol,
    )


def cmd_evolve(args, config):
    common = _Common(args, config)
    geom = common.geometry()
    scen = _build_scenario(common, geom)
    convention = AsymptoteConvention(args.asymptote)
    hist = integrate_truncated(scen, convention, n_samples=common.samples)
    if common.out:
        hist.to_csv(common.out)
    print(
        f"evolve: {geom.name}, gamma={scen.gas.gamma}, h={scen.h}, k={scen.k}, "
        f"x_end={scen.x_end}"
    )
    print(
        f"  final x = {hist.x[-1]:.6g}: [p] = {hist.p_jump[-1]:.6e}, "
        f"[p_x] = {hist.px_jump[-1]:.6e}"
    )
    if hist.breakdown is not None:
        print(f"  gradient jump blew up: breakdown at x* = {hist.breakdown:.9g}")
    elif scen.k > 0:
        lo = hist.x[-1] / 10.0
        window = hist.x >= lo
        slope = decay_slope(hist.x[window], hist.p_jump[window])
        print(f"  decay slope of [p] over [{lo:.6g}, {hist.x[-1]:.6g}]: {slope:.4f}")
    if common.out:
        print(f"  wrote {common.out}")
    return 0


def cmd_asymptote(args, config):
    common = _Common(args, config)
    geom = common.geometry()
    h = common.h if common.h is not None else 0.1
    k = common.k if common.k is not None else 1.0
    x_end = common.x_end if common.x_end is not None else 100.0
    x_start = args.x_start if args.x_start is not None else 2.0
    if not 1.0 < x_start < x_end:
        raise ConfigError("need 1 < x_start < x_end")
    xs = np.geomspace(x_start, x_end, common.samples)
    p_asym, px_asym = asymptotic_law(xs, h, k, common.gas, geom)
    write_csv(common.out or sys.stdout, "x,p_asym,px_asym", (xs, p_asym, px_asym))
    if common.out:
        print(f"wrote {common.out}")
    return 0


def cmd_table1(args, config):
    common = _Common(args, config)
    rows = []
    for case in REFERENCE_CASES:
        scen = Scenario(
            gas=common.gas,
            geom=Geometry(0),
            h=case.h,
            k=case.k,
            x_end=100.0,
            rtol=common.rtol,
        )
        hist = integrate_truncated(scen, n_samples=common.samples)
        idx = np.searchsorted(hist.x, REFERENCE_X)
        if not np.array_equal(hist.x[idx], REFERENCE_X):
            raise SolverError("the history does not sample every reference abscissa")
        for i, x in enumerate(REFERENCE_X):
            p_c, px_c = hist.p_err[idx[i]], hist.px_err[idx[i]]
            p_r, px_r = case.p_err[i], case.px_err[i]
            rows.append(
                (
                    case.h,
                    case.k,
                    x,
                    p_c,
                    p_r,
                    (p_c - p_r) / p_r,
                    px_c,
                    px_r,
                    (px_c - px_r) / px_r,
                )
            )
        print(f"parameter set h = {case.h}, k = {case.k} (gamma = {common.gamma}, planar)")
        print(
            f"  {'x':>8}  {'p_err':>12} {'p_err_ref':>12} {'dev':>8}"
            f"  {'px_err':>12} {'px_err_ref':>12} {'dev':>8}"
        )
        for h, k, x, p_c, p_r, p_d, px_c, px_r, px_d in rows[-len(REFERENCE_X):]:
            print(
                f"  {x:>8.4g}  {p_c:>12.4e} {p_r:>12.4e} {p_d:>+8.2%}"
                f"  {px_c:>12.4e} {px_r:>12.4e} {px_d:>+8.2%}"
            )
    if common.out:
        write_csv(
            common.out,
            "h,k,x,p_err,p_err_ref,p_err_dev,px_err,px_err_ref,px_err_dev",
            tuple(np.array(col) for col in zip(*rows)),
        )
        print(f"wrote {common.out}")
    return 0


def _make_pulse(args, config):
    shape = _setting(args.pulse, config, "pulse", "shape", "half-sine", str)
    v0 = _setting(args.v0, config, "pulse", "v0", 0.01, float)
    tau0 = _setting(args.tau0, config, "pulse", "tau0", 1.0, float)
    pulse_file = args.pulse_file or (
        config.get("pulse", "file")
        if config and config.has_option("pulse", "file")
        else None
    )
    if shape == "half-sine":
        return BoundaryPulse.half_sine(v0, tau0)
    if shape == "ramp":
        return BoundaryPulse.linear_ramp(v0, tau0)
    if shape == "table":
        if not pulse_file:
            raise ConfigError("table pulse needs --pulse-file")
        return BoundaryPulse.from_csv(pulse_file)
    raise ConfigError(f"unknown pulse shape {shape!r}")


def cmd_fit_shock(args, config):
    common = _Common(args, config)
    geom = common.geometry()
    pulse = _make_pulse(args, config)
    x_end = common.x_end if common.x_end is not None else 1e4
    fitted_grid = None
    if args.x_start is not None:
        if not 1.0 < args.x_start < x_end:
            raise ConfigError("need 1 < x_start < x_end")
        fitted_grid = np.geomspace(args.x_start, x_end, common.samples)
    # The grid defaults to [1.1 * formation distance, x_end]; fit_shock
    # itself raises a fitting error for grids that reach below formation.
    if fitted_grid is None:
        x_form = formation_distance(pulse, common.gas, geom)
        if 1.1 * x_form >= x_end:
            raise ConfigError(
                f"x_end = {x_end} is below the shock formation range "
                f"(forms at x = {x_form:.6g})"
            )
        fitted_grid = np.geomspace(1.1 * x_form, x_end, common.samples)
    fitted = fit_shock(pulse, common.gas, geom, fitted_grid)
    reference = wngo_decay(pulse.b, common.gas, geom, fitted.x)
    if common.out:
        fitted.to_csv(common.out, reference=reference)
    print(
        f"fit-shock: {geom.name}, {pulse.label} pulse, v0 slope {pulse.vdot0:.6g}, "
        f"b = {pulse.b:.6g}"
    )
    print(f"  shock forms at x = {fitted.x_formation:.6g}")
    print(
        f"  final x = {fitted.x[-1]:.6g}: tau_minus/tau0 = "
        f"{fitted.tau_minus[-1] / fitted.tau0:.6f}, [u] = {fitted.u_jump[-1]:.6e}"
    )
    if common.out:
        print(f"  wrote {common.out}")
    return 0


def cmd_ccw(args, config):
    common = _Common(args, config)
    geom = common.geometry()
    if args.u0 is not None:
        u0 = args.u0
    elif common.h is not None:
        u0 = mach_from_p_jump(common.h, common.gas)
    else:
        u0 = 1.5
    variant = CcwVariant(args.variant)
    x_end = common.x_end if common.x_end is not None else 100.0
    hist = integrate_ccw(
        u0, common.gas, geom, x_end, variant, rtol=common.rtol, n_samples=common.samples
    )
    if common.out:
        hist.to_csv(common.out)
    print(f"ccw: {geom.name}, {variant.value} rule, U0 = {u0}")
    print(f"  final x = {hist.x[-1]:.6g}: U = {hist.U[-1]:.12g}, [p] = {hist.p_jump[-1]:.6e}")
    if common.out:
        print(f"  wrote {common.out}")
    return 0


def _corrected_slope(x, y, geom):
    """Decay exponent; for spherical fronts the log factor is removed first."""
    y = np.asarray(y, dtype=float)
    if geom.j == 2:
        y = y * np.sqrt(np.log(x))
    return decay_slope(x, y)


def _pipeline_transport(gas, geom, h, k, x_end, rtol, out_dir):
    scen = Scenario(gas=gas, geom=geom, h=h, k=k, x_end=x_end, rtol=rtol)
    hist = integrate_truncated(scen, n_samples=240)
    window = hist.x >= x_end / 100.0
    precursor = _corrected_slope(hist.x[window], hist.p_jump[window], geom)
    acoustic_scen = Scenario(gas=gas, geom=geom, h=h, k=0.0, x_end=x_end, rtol=rtol)
    acoustic_hist = integrate_truncated(acoustic_scen, n_samples=240)
    acoustic = decay_slope(acoustic_hist.x[window], acoustic_hist.p_jump[window])
    if out_dir:
        hist.to_csv(f"{out_dir}/transport_precursor_{geom.name}.csv")
        acoustic_hist.to_csv(f"{out_dir}/transport_acoustic_{geom.name}.csv")
    return {"precursor_exponent": precursor, "acoustic_exponent": acoustic}


def _pipeline_wngo(gas, geom, h, x_end, out_dir):
    pulse = BoundaryPulse.half_sine(h, 1.0)
    x_form = formation_distance(pulse, gas, geom)
    lo = max(10.0 * x_form, x_end / 100.0)
    if lo >= x_end / 2.0:
        raise DomainError(
            f"x_end = {x_end} leaves no asymptotic window above 10 * formation "
            f"distance {x_form:.6g}"
        )
    fitted = fit_shock(pulse, gas, geom, np.geomspace(lo, x_end, 120))
    exponent = _corrected_slope(fitted.x, fitted.u_jump, geom)
    if out_dir:
        fitted.to_csv(
            f"{out_dir}/wngo_{geom.name}.csv",
            reference=wngo_decay(pulse.b, gas, geom, fitted.x),
        )
    return {
        "exponent": exponent,
        "formation_distance": x_form,
        "pulse_integral": pulse.b,
    }


def _pipeline_simple_wave(gas, geom, x_end):
    """Max |inverted - linear| deviation for two pulse amplitudes."""
    taus = np.linspace(0.0, 1.0, 21)
    xs = np.geomspace(1.0, x_end, 25)
    out = {}
    deviations = []
    for eps in (1e-2, 1e-3):
        pulse = BoundaryPulse.half_sine(eps, 1.0)
        dev = 0.0
        for x in xs:
            shape = psi(x, geom)
            for tau in taus:
                rhs = pulse.v(tau) * shape
                dev = max(dev, abs(simple_wave_u(rhs, gas) - rhs))
        deviations.append(dev)
        out[f"deviation_{eps:g}"] = dev
    out["quadratic_ratio"] = deviations[0] / deviations[1]
    return out


def _pipeline_ccw(gas, geom, h, x_end, rtol, out_dir):
    u0 = mach_from_p_jump(h, gas)
    out = {"U0": u0}
    runs = []
    for variant in (CcwVariant.GENERALIZED, CcwVariant.CLASSIC):
        run = integrate_ccw(u0, gas, geom, x_end, variant, rtol=rtol, n_samples=240)
        if out_dir:
            run.to_csv(f"{out_dir}/ccw_{variant.value}_{geom.name}.csv")
        # Fit over the last two decades each run actually reached; a strongly
        # converging front hits the weak-limit floor well before a large x_end.
        window = run.x >= run.x[-1] / 100.0
        out[f"{variant.value}_exponent"] = decay_slope(run.x[window], run.p_jump[window])
        runs.append(run)
    gen, cla = runs
    n = min(gen.x.size, cla.x.size)
    gap = np.max(np.abs((cla.U[:n] - gen.U[:n]) / np.maximum(gen.U[:n] - 1.0, 1e-300)))
    out["variant_gap"] = float(gap)
    return out


def cmd_compare_methods(args, config):
    common = _Common(args, config)
    h = common.h if common.h is not None else 0.05
    if not 0.0 < h <= 0.1:
        raise ConfigError(f"compare-methods needs 0 < h <= 0.1 (weak data), got {h}")
    k = common.k if common.k is not None else 1.0
    if not 0.0 < k < math.inf:
        raise ConfigError("compare-methods needs a finite k > 0 for the precursor branch")
    # The default range is long because the spherical asymptote switches on
    # only logarithmically: the fitted exponents approach their limits like
    # 1/log(x), so two fitting decades ending at 1e12 are needed to place
    # every method's spherical exponent within a couple of percent of -1.
    x_end = common.x_end if common.x_end is not None else 1e12
    geom_arg = common.geom_name or "all"
    if geom_arg == "all":
        geometries = [Geometry(0), Geometry(1), Geometry(2)]
    else:
        geometries = [common.geometry()]
    out_dir = args.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    report = {
        "gamma": common.gamma,
        "h": h,
        "k": k,
        "x_end": x_end,
        "geometries": {},
    }
    any_failed = False
    for geom in geometries:
        pipelines = {
            "transport": (_pipeline_transport, h, k, x_end, common.rtol, out_dir),
            "wngo": (_pipeline_wngo, h, x_end, out_dir),
            "simple_wave": (_pipeline_simple_wave, x_end),
            "ccw": (_pipeline_ccw, h, x_end, common.rtol, out_dir),
        }
        entry = {}
        for name, (pipeline, *rest) in pipelines.items():
            try:
                entry[name] = pipeline(common.gas, geom, *rest)
            except ShockError as exc:
                entry[name] = {"status": "failed", "error": str(exc)}
                any_failed = True
        pairs = {}
        if "exponent" in entry.get("wngo", {}) and "precursor_exponent" in entry.get(
            "transport", {}
        ):
            pairs["precursor_gap"] = abs(
                entry["transport"]["precursor_exponent"] - entry["wngo"]["exponent"]
            )
        if "generalized_exponent" in entry.get("ccw", {}) and "acoustic_exponent" in entry.get(
            "transport", {}
        ):
            pairs["acoustic_gap"] = abs(
                entry["transport"]["acoustic_exponent"]
                - entry["ccw"]["generalized_exponent"]
            )
        entry["pairs"] = pairs
        report["geometries"][geom.name] = entry
    report["status"] = "partial" if any_failed else "ok"
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.report}")
    else:
        print(text)
    return 4 if any_failed else 0


def _parser():
    parser = argparse.ArgumentParser(
        prog="shockdecay",
        description="Cross-validated decay laws for weak gasdynamic shocks.",
    )
    sub = parser.add_subparsers(dest="command")

    def common_flags(p, samples_default=None):
        p.add_argument("--gamma", type=float, default=None, help="specific-heat ratio")
        p.add_argument(
            "--geometry",
            default=None,
            help="planar | cylindrical | spherical (compare-methods also: all)",
        )
        p.add_argument("--h", type=float, default=None, help="initial pressure jump")
        p.add_argument("--k", type=float, default=None, help="initial gradient jump")
        p.add_argument("--x-end", type=float, default=None, help="final position")
        p.add_argument("--rtol", type=float, default=None, help="solver rtol")
        p.add_argument("--samples", type=int, default=None, help="output sample count")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--config", default=None, help="INI config file")

    p = sub.add_parser("evolve", help="integrate the weak-shock decay system")
    common_flags(p)
    p.add_argument(
        "--asymptote",
        choices=["leading", "power-law"],
        default="leading",
        help="reference convention for the error columns",
    )
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("asymptote", help="evaluate the closed decay laws")
    common_flags(p)
    p.add_argument("--x-start", type=float, default=None)
    p.set_defaults(func=cmd_asymptote)

    p = sub.add_parser("table1", help="reference-error regression table")
    common_flags(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("compare-methods", help="cross-validate the four methods")
    common_flags(p)
    p.add_argument("--report", default=None, help="JSON report path (default stdout)")
    p.add_argument("--out-dir", default=None, help="directory for per-pipeline CSVs")
    p.set_defaults(func=cmd_compare_methods)

    p = sub.add_parser("fit-shock", help="fit the lead shock from a boundary pulse")
    common_flags(p)
    p.add_argument("--pulse", choices=["half-sine", "ramp", "table"], default=None)
    p.add_argument("--v0", type=float, default=None, help="pulse amplitude (or ramp slope)")
    p.add_argument("--tau0", type=float, default=None, help="pulse duration")
    p.add_argument("--pulse-file", default=None, help="CSV with (tau, v) samples")
    p.add_argument("--x-start", type=float, default=None)
    p.set_defaults(func=cmd_fit_shock)

    p = sub.add_parser("ccw", help="integrate a characteristic-rule decay law")
    common_flags(p)
    p.add_argument("--u0", type=float, default=None, help="initial Mach number")
    p.add_argument(
        "--variant", choices=["classic", "generalized"], default="generalized"
    )
    p.set_defaults(func=cmd_ccw)

    return parser


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "func", None) is None:
        parser.print_usage(file=sys.stderr)
        return 2
    try:
        config = _load_config(args.config) if args.config else None
        return args.func(args, config)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
