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
import functools
import json
import re
import sys

import numpy as np

from .ccw import CcwVariant, integrate_ccw
from .compare import compare_methods
from .core import (MAX_SAMPLES, GasParams, Geometry, check_x_end, log_grid, mach_from_p_jump,
                   write_csv)
from .errors import ConfigError, DomainError, ShockError
from .transport import (
    REFERENCE_CASES,
    REFERENCE_X,
    AsymptoteConvention,
    Scenario,
    asymptotic_law,
    closed_form,
    decay_slope,
    integrate_truncated,
    leading_order_reference,
)
from .wavefront import (
    BoundaryPulse,
    fit_shock,
    formation_distance,
    wngo_decay,
)

# The config keys read, by section, and the flag dest each one backs.
_CONFIG_KEYS = {
    "run": {key: key for key in ("gamma", "geometry", "h", "k", "x_end", "samples", "out")},
    "pulse": {"shape": "pulse", "v0": "v0", "tau0": "tau0", "file": "pulse_file"},
}


def _config_values(path, dests):
    """The config file's values for the flags in ``dests``, as raw strings."""
    config = configparser.ConfigParser(interpolation=None)
    try:
        read = config.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path}: not found or unreadable")
    return {
        dest: config.get(section, key)
        for section, keys in _CONFIG_KEYS.items()
        for key, dest in keys.items()
        if dest in dests and config.has_option(section, key)
    }


def cmd_evolve(args):
    gas = GasParams(args.gamma)
    geom = Geometry.from_name(args.geometry)
    scen = Scenario(gas=gas, geom=geom, h=args.h, k=args.k, x_end=args.x_end)
    convention = AsymptoteConvention(args.asymptote)
    hist = integrate_truncated(scen, convention, n_samples=args.samples)
    if args.out:
        hist.to_csv(args.out)
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
    elif scen.k > 0:  # the slope of the trailing decade's positive [p], where it has two
        lo = hist.x[-1] / 10.0
        window = (hist.x >= lo) & (hist.p_jump > 0.0)  # h = 0 or an underflow leaves [p] = 0
        if np.count_nonzero(window) >= 2:  # a grid coarser than a decade leaves one sample
            slope = decay_slope(hist.x[window], hist.p_jump[window])
            print(f"  decay slope of [p] over [{lo:.6g}, {hist.x[-1]:.6g}]: {slope:.4f}")
    if args.out:
        print(f"  wrote {args.out}")
    return 0


def cmd_asymptote(args):
    gas = GasParams(args.gamma)
    geom = Geometry.from_name(args.geometry)
    if not 1.0 < args.x_start < args.x_end:
        raise ConfigError("need 1 < x_start < x_end")
    xs = log_grid(args.x_start, args.x_end, args.samples)
    p_asym, px_asym = asymptotic_law(xs, args.h, args.k, gas, geom)
    write_csv(args.out or sys.stdout, "x,p_asym,px_asym", (xs, p_asym, px_asym))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_table1(args):
    gas = GasParams(args.gamma)
    cases = []  # per reference case, the CSV columns h, k, x and the six error columns
    for case in REFERENCE_CASES:
        p, px = closed_form(REFERENCE_X, case.h, case.k, gas)
        p_ref, px_ref = leading_order_reference(REFERENCE_X, case.h, case.k, gas)
        p_err, px_err = np.abs(p - p_ref), np.abs(px - px_ref)
        p_tab, px_tab = np.array(case.p_err), np.array(case.px_err)  # the bundled errors
        errs = (p_err, p_tab, (p_err - p_tab) / p_tab, px_err, px_tab, (px_err - px_tab) / px_tab)
        cases.append((np.full_like(REFERENCE_X, case.h), np.full_like(REFERENCE_X, case.k),
                      REFERENCE_X, *errs))
        print(f"parameter set h = {case.h}, k = {case.k} (gamma = {args.gamma}, planar)")
        print(
            f"  {'x':>8}  {'p_err':>12} {'p_err_ref':>12} {'dev':>8}"
            f"  {'px_err':>12} {'px_err_ref':>12} {'dev':>8}"
        )
        for x, p_c, p_r, p_d, px_c, px_r, px_d in zip(REFERENCE_X, *errs):
            print(
                f"  {x:>8.4g}  {p_c:>12.4e} {p_r:>12.4e} {p_d:>+8.2%}"
                f"  {px_c:>12.4e} {px_r:>12.4e} {px_d:>+8.2%}"
            )
    if args.out:
        write_csv(
            args.out,
            "h,k,x,p_err,p_err_ref,p_err_dev,px_err,px_err_ref,px_err_dev",
            [np.concatenate(col) for col in zip(*cases)],
        )
        print(f"wrote {args.out}")
    return 0


def _make_pulse(shape, v0, tau0, pulse_file):
    if shape == "half-sine":
        return BoundaryPulse.half_sine(v0, tau0)
    if shape == "ramp":
        return BoundaryPulse.linear_ramp(v0, tau0)
    if shape == "table":
        if not pulse_file:
            raise ConfigError("table pulse needs --pulse-file")
        return BoundaryPulse.from_csv(pulse_file)


def cmd_fit_shock(args):
    gas = GasParams(args.gamma)
    geom = Geometry.from_name(args.geometry)
    pulse = _make_pulse(args.pulse, args.v0, args.tau0, args.pulse_file)
    x_form = formation_distance(pulse, gas, geom)
    x_start = 1.1 * x_form if args.x_start is None else args.x_start
    if not x_form < x_start < args.x_end:
        raise ConfigError(
            f"the grid start {x_start:.6g} must lie above the formation distance "
            f"{x_form:.6g} and below x_end = {args.x_end:g}"
        )
    fitted = fit_shock(pulse, gas, geom, log_grid(x_start, args.x_end, args.samples))
    reference = wngo_decay(pulse.b, gas, geom, fitted.x)
    if args.out:
        fitted.to_csv(args.out, reference=reference)
    print(
        f"fit-shock: {geom.name}, {pulse.label} pulse, v0 slope {pulse.vdot0:.6g}, "
        f"b = {pulse.b:.6g}"
    )
    print(f"  shock forms at x = {fitted.x_formation:.6g}")
    print(
        f"  final x = {fitted.x[-1]:.6g}: tau_minus/tau0 = "
        f"{fitted.tau_minus[-1] / fitted.tau0:.6f}, [u] = {fitted.u_jump[-1]:.6e}"
    )
    if args.out:
        print(f"  wrote {args.out}")
    return 0


def cmd_ccw(args):
    gas = GasParams(args.gamma)
    geom = Geometry.from_name(args.geometry)
    if args.u0 is not None:
        u0 = args.u0
    elif args.h is not None:
        u0 = mach_from_p_jump(args.h, gas)
    else:
        u0 = 1.5
    variant = CcwVariant(args.variant)
    hist = integrate_ccw(u0, gas, geom, args.x_end, variant, n_samples=args.samples)
    if args.out:
        hist.to_csv(args.out)
    print(f"ccw: {geom.name}, {variant.value} rule, U0 = {u0}")
    print(f"  final x = {hist.x[-1]:.6g}: U = {hist.U[-1]:.12g}, [p] = {hist.p_jump[-1]:.6e}")
    if args.out:
        print(f"  wrote {args.out}")
    return 0


def cmd_compare_methods(args):
    names = ("planar", "cylindrical", "spherical") if args.geometry == "all" else (args.geometry,)
    # map is lazy: compare_methods checks h and k before a geometry name is parsed.
    gas, geometries = GasParams(args.gamma), map(Geometry.from_name, names)
    report = compare_methods(gas, geometries, args.h, args.k, args.x_end, args.out_dir)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.report}")
    else:
        print(text)
    return 4 if report["status"] == "partial" else 0


# Help text of the flags several subcommands share, in --help order.
_SHARED_FLAGS = {
    "geometry": (str, "planar | cylindrical | spherical (compare-methods also: all)"),
    "h": (float, "initial pressure jump"),
    "k": (float, "initial gradient jump"),
    "x_end": (float, "final position"),
    "samples": (int, "output sample count"),
    "out": (str, "output CSV path"),
}

# What float() reads as a negative number, so that a flag value such as -1e-3
# or -inf is taken as a value; argparse's own pattern has no exponent or inf.
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.I)


@functools.cache
def _parser():
    """The argument parser and its subparsers by name, built once per process.

    Each subcommand has --gamma, --config and those shared flags it reads,
    with its own defaults; abbreviated flags are refused.
    """
    parser = argparse.ArgumentParser(
        prog="shockdecay",
        description="Cross-validated decay laws for weak gasdynamic shocks.",
    )
    sub = parser.add_subparsers(dest="command")

    def command(name, func, help, **defaults):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--gamma", type=float, default=1.4, help="specific-heat ratio")
        for dest, (cast, text) in _SHARED_FLAGS.items():
            if dest in defaults:
                flag = "--" + dest.replace("_", "-")
                p.add_argument(flag, type=cast, default=defaults[dest], help=text)
        p.add_argument("--config", default=None, help="INI config file")
        p.set_defaults(func=func)
        return p

    run = dict(geometry="planar", h=0.1, k=1.0, x_end=100.0, samples=200, out=None)
    p = command("evolve", cmd_evolve, "sample the weak-shock decay laws", **run)
    p.add_argument(
        "--asymptote",
        choices=["leading", "power-law"],
        default="leading",
        help="reference convention for the error columns",
    )

    p = command("asymptote", cmd_asymptote, "evaluate the closed decay laws", **run)
    p.add_argument("--x-start", type=float, default=2.0)

    p = command("table1", cmd_table1, "reference-error regression table", out=None)
    # Accepted and ignored: the table reads the closed form at fixed abscissae.
    p.add_argument("--samples", type=int, default=argparse.SUPPRESS, help="no effect")

    # The default range is long because the spherical asymptote switches on
    # only logarithmically: the fitted exponents approach their limits like
    # 1/log(x), so two fitting decades ending at 1e12 are needed to place
    # every method's spherical exponent within a couple of percent of -1.
    p = command("compare-methods", cmd_compare_methods, "cross-validate the four methods",
                geometry="all", h=0.05, k=1.0, x_end=1e12)
    p.add_argument("--report", default=None, help="JSON report path (default stdout)")
    p.add_argument("--out-dir", default=None, help="directory for per-pipeline CSVs")

    p = command("fit-shock", cmd_fit_shock, "fit the lead shock from a boundary pulse",
                geometry="planar", x_end=1e4, samples=200, out=None)
    p.add_argument("--pulse", choices=["half-sine", "ramp", "table"], default="half-sine")
    p.add_argument("--v0", type=float, default=0.01, help="pulse amplitude (or ramp slope)")
    p.add_argument("--tau0", type=float, default=1.0, help="pulse duration")
    p.add_argument("--pulse-file", default=None, help="CSV with (tau, v) samples")
    p.add_argument("--x-start", type=float, default=None, help="default: 1.1 x formation")

    # Without --u0 the start is the Mach number of --h, else U0 = 1.5.
    p = command("ccw", cmd_ccw, "evaluate a characteristic-rule decay law",
                geometry="planar", h=None, x_end=100.0, samples=200, out=None)
    p.add_argument("--u0", type=float, default=None, help="initial Mach number")
    p.add_argument("--variant", choices=["classic", "generalized"], default="generalized")

    return parser, sub.choices


def main(argv=None):
    """Run one command and return its exit code; every call shares one parser."""
    parser = _parser()[0]
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(file=sys.stderr)
            return 2
        if args.config:
            # Config values enter as --flag=value words right after the command
            # word, so later flags win and argparse checks them like any flag.
            values = _config_values(args.config, vars(args))
            words = [f"--{dest.replace('_', '-')}={value}" for dest, value in values.items()]
            at = argv.index(args.command) + 1
            try:
                args = parser.parse_args(argv[:at] + words + argv[at:])
            except SystemExit:  # the first parse passed, so a config value failed
                print(f"error: the value above comes from config file {args.config}",
                      file=sys.stderr)
                raise
        if "x_end" in vars(args):
            check_x_end(args.x_end)
        if "samples" in vars(args) and not 2 <= args.samples <= MAX_SAMPLES:
            raise ConfigError(f"--samples must lie in [2, {MAX_SAMPLES}], got {args.samples}")
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
