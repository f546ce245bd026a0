"""End-to-end tests of the command-line front end.

Commands are driven through main() directly; file outputs land in pytest
tmp_path.  Exit-code contract: 0 success, 2 configuration error, 3
numerical failure, 4 partial comparison report.
"""

import argparse
import json
import sys
import time
import tracemalloc

import numpy as np
import pytest

from shockdecay import (
    BoundaryPulse,
    CcwVariant,
    GasParams,
    Geometry,
    asymptotic_law,
    ccw,
    cli,
    closed_form,
    fit_shock,
    formation_distance,
    integrate_ccw,
    mach_from_p_jump,
    psi,
    simple_wave_u,
    wngo_decay,
)
from shockdecay.cli import main
from shockdecay.transport import (CSV_HEADER, Scenario, breakdown_distance, decay_slope,
                                  integrate_truncated)


def test_no_command_prints_usage():
    assert main([]) == 2


def test_unknown_command_is_config_error():
    assert main(["frobnicate"]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("evolve", "asymptote", "table1", "compare-methods", "fit-shock", "ccw"):
        assert name in out


def test_evolve_writes_history(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    code = main(
        ["evolve", "--h", "0.32", "--k", "10", "--x-end", "100", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[1]) == 0.32
    assert float(first[2]) == 10.0
    # The reported strength error at x = 100 for this standard data set.
    data = np.genfromtxt(out, delimiter=",", names=True)
    row = data[data["x"] == 100.0]
    assert row["p_err"][0] == pytest.approx(4.6478939499635177e-05, rel=1e-10)
    assert "decay" in capsys.readouterr().out


def test_evolve_acceleration_wave_alone(tmp_path, capsys):
    # h = 0 carries no shock: [p] stays zero and only the gradient jump decays.
    out = tmp_path / "wave.csv"
    assert main(["evolve", "--h", "0", "--geometry", "cylindrical", "--out", str(out)]) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert np.all(data["p_jump"] == 0.0)
    _, px = closed_form(data["x"], 0.0, 1.0, GasParams(1.4), Geometry(1))
    assert np.array_equal(data["px_jump"], px)
    assert "decay slope" not in capsys.readouterr().out


def test_evolve_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["evolve", "--geometry", "spherical", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_evolve_breakdown_note(capsys):
    assert main(["evolve", "--h", "0.1", "--k", "-1"]) == 0
    out = capsys.readouterr().out
    assert "breakdown" in out
    assert "1.8333333" in out


@pytest.mark.parametrize(
    "geometry, k, x_end",
    [
        ("spherical", -0.05, 1e8),
        ("spherical", -0.08, 1e8),
        ("spherical", -0.12, 1e8),
        ("cylindrical", -0.003, 1e12),
        ("cylindrical", -0.005, 1e12),
    ],
)
def test_evolve_reports_far_out_breakdown(geometry, k, x_end, capsys):
    # The blow-up lies far out (x* ~ 1e3 to 2e7), where an absolute
    # threshold on [p_x] is met only closer to x* than one ulp of x.
    argv = ["evolve", "--geometry", geometry, "--k", str(k), "--x-end", str(x_end)]
    assert main(argv) == 0
    line = [s for s in capsys.readouterr().out.splitlines() if "breakdown at x* =" in s]
    x_star = breakdown_distance(0.1, k, GasParams(1.4), Geometry.from_name(geometry))
    assert float(line[0].split("=")[-1]) == pytest.approx(x_star, rel=1e-6)


def test_evolve_rejects_bad_flags(tmp_path):
    assert main(["evolve", "--x-end", "-5"]) == 2
    assert main(["evolve", "--geometry", "toroidal"]) == 2
    assert main(["evolve", "--gamma", "0.8"]) == 2
    assert main(["evolve", "--samples", "1"]) == 2
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["evolve", "--out", str(missing_dir)]) == 2


def test_asymptote_requires_growth_data(tmp_path):
    assert main(["asymptote", "--k", "-1"]) == 2
    out = tmp_path / "asym.csv"
    assert main(["asymptote", "--k", "2", "--out", str(out)]) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data["x"][0] >= 2.0


def test_asymptote_x_start_is_the_first_row(tmp_path):
    out = tmp_path / "asym.csv"
    assert main(["asymptote", "--x-start", "5", "--out", str(out)]) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data["x"][0] == 5.0 and data["x"][-1] == 100.0


def test_asymptote_stdout_matches_file_and_law(tmp_path, capsys):
    argv = ["asymptote", "--geometry", "spherical", "--h", "0.05", "--k", "2",
            "--x-end", "1e6", "--samples", "40"]
    out = tmp_path / "law.csv"
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    assert printed.encode() == out.read_bytes()
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data.dtype.names == ("x", "p_asym", "px_asym")
    p, px = asymptotic_law(data["x"], 0.05, 2.0, GasParams(1.4), Geometry(2))
    np.testing.assert_allclose(data["p_asym"], p, rtol=1e-15)
    np.testing.assert_allclose(data["px_asym"], px, rtol=1e-15)


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--h", "nan"],
        ["evolve", "--k", "nan"],
        ["evolve", "--k", "inf"],
        ["evolve", "--x-end", "inf"],
        ["ccw", "--u0", "nan"],
        ["ccw", "--x-end", "inf"],
        ["compare-methods", "--h", "nan"],
        ["fit-shock", "--x-end", "inf"],
        ["fit-shock", "--v0", "nan"],
        ["asymptote", "--h", "nan"],
        ["asymptote", "--k", "inf"],
        ["evolve", "--gamma", "inf"],
        ["evolve", "--h", "inf"],
        ["ccw", "--gamma", "nan"],
        ["fit-shock", "--tau0", "inf"],
        # Finite but out of range: a subnormal k overflows the decay
        # amplitude, and x_end above MAX_X_END is outside the checked range.
        ["asymptote", "--k", "1e-320"],
        ["evolve", "--x-end", "1e300"],
        ["ccw", "--x-end", "1e300"],
        ["compare-methods", "--k", "inf", "--geometry", "planar"],
        ["asymptote", "--x-end", "nan"],
        ["fit-shock", "--x-end", "nan"],
        # A start at the weak-limit floor, and one whose coefficient overflows.
        ["ccw", "--u0", "1.000000000001", "--geometry", "spherical"],
        ["ccw", "--u0", "1e200", "--geometry", "spherical"],
        # (gamma+1) k J(x_end)/2 overflows, so I(x) of the closed form would too.
        ["evolve", "--gamma", "1e300", "--k", "1e300"],
        ["evolve", "--k", "1e300", "--x-end", "1e12"],
    ],
)
def test_non_finite_input_is_config_error(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, columns",
    [
        (["evolve", "--k", "1e300"], ("x", "p_jump", "px_jump")),
        (["evolve", "--k=-1e300"], ("x", "p_jump", "px_jump")),
        (["evolve", "--gamma", "1e300"], ("x", "p_jump", "px_jump")),
        (["compare-methods", "--k", "1e300", "--geometry", "planar"], ()),
        (["ccw", "--u0", "1e80", "--variant", "classic"], ("x", "U", "p_jump")),
        (["compare-methods", "--h", "1e-12", "--geometry", "planar"], ()),
    ],
)
def test_extreme_finite_input_is_answered_or_rejected(argv, columns, tmp_path, capsys):
    # Either a finite answer (exit 0) or a bad-input error (exit 2), promptly.
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    code = main(argv + (["--out", str(out)] if columns else []))
    assert time.perf_counter() - start < 5.0
    assert code in (0, 2)
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")
    elif columns:
        data = np.genfromtxt(out, delimiter=",", names=True)
        for name in columns:
            assert np.all(np.isfinite(data[name]))


@pytest.mark.parametrize("value", ["-1e-3", "-2.5e1", "-.5E+1"])
def test_negative_flag_value_with_exponent(value, tmp_path, capsys):
    # argparse alone reads "-1e-3" as an unknown option and exits 2 with
    # "expected one argument"; it must be the same value as "--k=-1e-3".
    out = tmp_path / "k.csv"
    runs = []
    for argv in (["--k", value], [f"--k={value}"]):
        assert main(["evolve", *argv, "--out", str(out)]) == 0
        runs.append((capsys.readouterr(), out.read_bytes()))
    assert runs[0] == runs[1]
    assert f"k={float(value)}" in runs[0][0].out


def test_every_float_flag_takes_minus_inf_as_a_value(capsys):
    # -inf reaches the command's own domain check, which refuses it with
    # one error line, not argparse's usage message.
    _, commands = cli._parser()
    for command, parser in commands.items():
        for action in parser._actions:
            if action.type is float:
                assert main([command, action.option_strings[0], "-inf"]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
    assert main(["evolve", "--k", "-inf"]) == 2
    assert capsys.readouterr().err == "error: initial gradient jump k must be finite, got -inf\n"


def test_rtol_flag_is_refused():
    # The transport route is evaluated in closed form; there is no solver
    # tolerance to set.
    assert main(["evolve", "--rtol", "1e-10"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compare-methods", "--out", "f.csv"],
        ["compare-methods", "--samples", "3"],
        ["table1", "--geometry", "spherical"],
        ["table1", "--h", "0.1"],
        ["table1", "--k", "1"],
        ["table1", "--x-end", "1e4"],
        ["fit-shock", "--h", "0.1"],
        ["fit-shock", "--k", "1"],
        ["ccw", "--k", "1"],
    ],
)
def test_flags_a_command_does_not_read_are_refused(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_abbreviated_flag_is_refused(tmp_path, monkeypatch):
    # Abbreviations would turn compare-methods --out into --out-dir.
    monkeypatch.chdir(tmp_path)
    argv = ["compare-methods", "--geometry", "planar", "--x-end", "1e4", "--out", "f.csv"]
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == []
    assert main(["evolve", "--geom", "planar"]) == 2


class _ReadRecorder(argparse.Namespace):
    """Namespace that records which public attributes are read."""

    def __init__(self):
        super().__init__()
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize(
    "command", ["evolve", "asymptote", "table1", "compare-methods", "fit-shock", "ccw"]
)
def test_every_flag_is_read(command, capsys):
    # A flag that its command never reads changes no output; keep none.
    parser, _ = cli._parser()
    args = parser.parse_args([command], namespace=_ReadRecorder())
    args._read.clear()
    assert args.func(args) == 0
    dests = {name for name in vars(args) if not name.startswith("_")}
    assert dests - {"func", "command", "config"} <= args._read


def test_table1_reports_both_sets(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["table1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "h = 0.32, k = 10.0" in printed
    assert "h = 0.32, k = 0.28" in printed
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data.shape == (26,)
    assert set(data["k"]) == {10.0, 0.28}


def test_fit_shock_csv(tmp_path):
    out = tmp_path / "fit.csv"
    code = main(
        ["fit-shock", "--v0", "0.1", "--x-end", "1e4", "--samples", "50", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,tau_minus,u_jump,ux_jump,shock_time,u_asym,ux_asym"
    assert len(lines) == 51
    data = np.genfromtxt(out, delimiter=",", names=True)
    # Late samples sit close to the reference decay law.
    assert data["u_jump"][-1] == pytest.approx(data["u_asym"][-1], rel=0.02)


def test_fit_shock_far_spherical_formation_is_config_error(tmp_path, capsys):
    # A sin^2 head has v'(0) ~ 0, so the spherical shock forms past any
    # representable position: bad input (exit 2), without an overflow warning.
    taus = np.linspace(0.0, 1.0, 41)
    values = 0.05 * np.sin(np.pi * taus) ** 2
    values[-1] = 0.0
    table = tmp_path / "pulse.csv"
    np.savetxt(table, np.column_stack((taus, values)), delimiter=",")
    argv = ["fit-shock", "--geometry", "spherical", "--pulse", "table", "--pulse-file", str(table)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: the lead shock forms beyond x = 1e+18\n"


def test_fit_shock_grid_start_lies_above_formation(tmp_path, capsys):
    # The default pulse forms its shock at x = 27.5258.  A grid start at or
    # below that, typed or the default 1.1 x_form, or one at or above x_end,
    # is bad input (exit 2) with one message naming both ends.
    for argv in (["--x-start", "2"], ["--x-end", "20"], ["--x-start", "1e5"]):
        assert main(["fit-shock", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the grid start ") and err.count("\n") == 1
        assert "the formation distance 27.5258 and below x_end = " in err
    out = tmp_path / "fit.csv"
    assert main(["fit-shock", "--x-start", "30", "--out", str(out)]) == 0
    assert np.genfromtxt(out, delimiter=",", names=True)["x"][0] == 30.0


def test_fit_shock_zero_pulse_is_numerical_failure():
    assert main(["fit-shock", "--v0", "0"]) == 3


def test_fit_shock_ramp_pulse(tmp_path):
    out = tmp_path / "ramp.csv"
    assert main(["fit-shock", "--pulse", "ramp", "--v0", "0.2", "--out", str(out)]) == 0


def test_fit_shock_table_pulse(tmp_path):
    taus = np.linspace(0.0, 1.0, 60)
    pulse_file = tmp_path / "pulse.csv"
    with open(pulse_file, "w") as fh:
        fh.write("tau,v\n")
        for t in taus:
            fh.write(f"{t},{0.05 * np.sin(np.pi * t)}\n")
    out = tmp_path / "fit.csv"
    code = main(
        ["fit-shock", "--pulse", "table", "--pulse-file", str(pulse_file), "--out", str(out)]
    )
    assert code == 0
    assert main(["fit-shock", "--pulse", "table"]) == 2  # no file given
    pulse_file.write_text("tau,v\n0,0\n0.5,0.1,3\n1,0\n")  # ragged row
    assert main(["fit-shock", "--pulse", "table", "--pulse-file", str(pulse_file)]) == 2


def test_ccw_command(tmp_path):
    out = tmp_path / "ccw.csv"
    code = main(
        ["ccw", "--u0", "1.5", "--geometry", "spherical", "--variant", "classic",
         "--out", str(out)]
    )
    assert code == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data["U"][0] == 1.5
    assert np.all(np.diff(data["U"]) < 0.0)
    assert main(["ccw", "--u0", "0.9"]) == 2


def test_compare_methods_report(tmp_path):
    report_path = tmp_path / "report.json"
    out_dir = tmp_path / "csv"
    code = main(
        [
            "compare-methods",
            "--geometry",
            "planar",
            "--x-end",
            "1e4",
            "--report",
            str(report_path),
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["status"] == "ok"
    entry = report["geometries"]["planar"]
    assert entry["pairs"]["precursor_gap"] < 0.02
    assert entry["pairs"]["acoustic_gap"] < 0.02
    assert 70.0 < entry["simple_wave"]["quadratic_ratio"] < 130.0
    for name in (
        "transport_precursor_planar.csv",
        "transport_acoustic_planar.csv",
        "wngo_planar.csv",
        "ccw_generalized_planar.csv",
        "ccw_classic_planar.csv",
    ):
        assert (out_dir / name).exists()


@pytest.mark.parametrize("gamma, j, x_end", [(1.4, 0, 1e12), (5.0 / 3.0, 1, 10.0), (3.0, 2, 1.5)])
def test_simple_wave_deviation_is_the_grid_maximum(gamma, j, x_end):
    # The pipeline reports |u - v psi| at the pulse peak; it must equal the
    # maximum over a (tau, x) grid of both half-sine pulses.
    gas, geom = GasParams(gamma), Geometry(j)
    expected = {}
    for eps in (1e-2, 1e-3):
        pulse = BoundaryPulse.half_sine(eps, 1.0)
        dev = 0.0
        for x in np.geomspace(1.0, x_end, 25):
            for tau in np.linspace(0.0, 1.0, 21):
                rhs = pulse.v(tau) * psi(x, geom)
                dev = max(dev, abs(simple_wave_u(rhs, gas) - rhs))
        expected[f"deviation_{eps:g}"] = dev
    out = cli._pipeline_simple_wave(gas)
    assert {k: out[k] for k in expected} == expected
    assert out["quadratic_ratio"] == expected["deviation_0.01"] / expected["deviation_0.001"]


def test_compare_methods_rejects_strong_data():
    assert main(["compare-methods", "--h", "0.5"]) == 2
    assert main(["compare-methods", "--h", "-0.01"]) == 2
    assert main(["compare-methods", "--k", "-1"]) == 2


def test_compare_methods_partial_failure(tmp_path, capsys):
    # An x_end too small for any asymptotic window sinks the wavelet-fit
    # pipeline; the command must still emit a report and flag it partial.
    report_path = tmp_path / "partial.json"
    code = main(
        ["compare-methods", "--geometry", "planar", "--x-end", "30",
         "--report", str(report_path)]
    )
    assert code == 4
    report = json.loads(report_path.read_text())
    assert report["status"] == "partial"
    assert report["geometries"]["planar"]["wngo"]["status"] == "failed"
    assert "precursor_gap" not in report["geometries"]["planar"]["pairs"]


@pytest.mark.parametrize("gamma", [1.1, 1.4, 5.0 / 3.0])
def test_compare_methods_csvs_match_single_geometry_calls(gamma, tmp_path):
    # Each route runs once for all geometries; its CSVs must be, byte for
    # byte, those of the single-geometry library calls on the same inputs.
    out_dir, ref = tmp_path / "csv", tmp_path / "ref.csv"
    assert main(["compare-methods", "--gamma", repr(gamma), "--out-dir", str(out_dir),
                 "--report", str(tmp_path / "report.json")]) == 0
    gas, h, x_end = GasParams(gamma), 0.05, 1e12
    pulse, U0 = BoundaryPulse.half_sine(h, 1.0), mach_from_p_jump(h, gas)
    for geom in map(Geometry, (0, 1, 2)):
        lo = max(10.0 * formation_distance(pulse, gas, geom), x_end / 100.0)
        fitted = fit_shock(pulse, gas, geom, np.geomspace(lo, x_end, 120))
        fitted.to_csv(ref, reference=wngo_decay(pulse.b, gas, geom, fitted.x))
        assert (out_dir / f"wngo_{geom.name}.csv").read_bytes() == ref.read_bytes()
        for variant in CcwVariant:
            integrate_ccw(U0, gas, geom, x_end, variant, n_samples=240).to_csv(ref)
            name = f"ccw_{variant.value}_{geom.name}.csv"
            assert (out_dir / name).read_bytes() == ref.read_bytes(), name
        for branch, k in (("precursor", 1.0), ("acoustic", 0.0)):
            scen = Scenario(gas=gas, geom=geom, h=h, k=k, x_end=x_end)
            integrate_truncated(scen, n_samples=240).to_csv(ref)
            name = f"transport_{branch}_{geom.name}.csv"
            assert (out_dir / name).read_bytes() == ref.read_bytes(), name
    assert len(list(out_dir.iterdir())) == 15


@pytest.mark.parametrize("h, k", [(0.05, 1.0), (1e-3, 10.0), (0.1, 1e-3)])
@pytest.mark.parametrize("gamma", [1.1, 1.4, 5.0 / 3.0])
def test_compare_methods_transport_exponents_match_histories(gamma, h, k, tmp_path):
    # The report reads [p] from the closed form on one shared grid; its
    # exponents must equal, bit for bit, the fits over integrate_truncated's
    # histories of both branches.
    path, gas, x_end = tmp_path / "report.json", GasParams(gamma), 1e12
    assert main(["compare-methods", "--gamma", repr(gamma), "--h", repr(h), "--k", repr(k),
                 "--report", str(path)]) in (0, 4)
    report = json.loads(path.read_text())
    for geom in map(Geometry, (0, 1, 2)):
        hist, acoustic = (
            integrate_truncated(Scenario(gas=gas, geom=geom, h=h, k=kb, x_end=x_end),
                                n_samples=240)
            for kb in (k, 0.0)
        )
        window = hist.x >= x_end / 100.0
        assert report["geometries"][geom.name]["transport"] == {
            "precursor_exponent": cli._corrected_slope(hist.x[window], hist.p_jump[window], geom),
            "acoustic_exponent": decay_slope(acoustic.x[window], acoustic.p_jump[window]),
        }


@pytest.mark.parametrize("out_dir", [False, True])
def test_compare_methods_builds_one_transport_grid(monkeypatch, tmp_path, out_dir):
    # One sample grid serves every geometry and branch; integrate_truncated
    # runs only to write the transport CSVs, one per geometry and branch.
    grids, histories = [], []
    sample_grid, integrate = cli._sample_grid, cli.integrate_truncated
    monkeypatch.setattr(cli, "_sample_grid", lambda *a: grids.append(a) or sample_grid(*a))
    monkeypatch.setattr(
        cli, "integrate_truncated", lambda *a, **kw: histories.append(a) or integrate(*a, **kw))
    argv = ["compare-methods", "--report", str(tmp_path / "report.json")]
    assert main(argv + ["--out-dir", str(tmp_path / "csv")] * out_dir) == 0
    assert len(grids) == 1
    assert len(histories) == (6 if out_dir else 0)


def test_compare_methods_failures_stay_per_geometry(tmp_path):
    # At x_end = 1e3 only the spherical front forms too late for a fitting
    # window; the batched fit must still answer the other two geometries.
    path = tmp_path / "report.json"
    assert main(["compare-methods", "--x-end", "1e3", "--report", str(path)]) == 4
    report = json.loads(path.read_text())
    assert report["status"] == "partial"
    ccw_keys = {"U0", "generalized_exponent", "classic_exponent", "variant_gap"}
    for name, entry in report["geometries"].items():
        failed = sorted(route for route, block in entry.items() if "status" in block)
        assert failed == (["wngo"] if name == "spherical" else []), name
        assert set(entry["ccw"]) == ccw_keys
    for name in ("planar", "cylindrical"):
        assert "exponent" in report["geometries"][name]["wngo"]
        assert "precursor_gap" in report["geometries"][name]["pairs"]


def test_compare_methods_runs_each_route_once(monkeypatch, capsys):
    # One default run does no equal-area scan (the pulse on the tau scan
    # grid): every bracket comes from the half-sine's closed-form root.  It
    # builds one Phi table per CCW rule, for all three geometries.
    scan, scans, tables = np.linspace(0.0, 1.0, 400)[1:], [], []
    half_sine, phi_table = BoundaryPulse.half_sine, ccw._phi_table

    def counting_half_sine(v0, tau0):
        pulse = half_sine(v0, tau0)
        v = pulse.v

        def counted(tau):
            if np.shape(tau) == scan.shape and np.array_equal(tau, scan):
                scans.append(tau)
            return v(tau)

        pulse.v = counted
        return pulse

    def counting_phi_table(*args):
        tables.append(args)
        return phi_table(*args)

    monkeypatch.setattr(BoundaryPulse, "half_sine", staticmethod(counting_half_sine))
    monkeypatch.setattr(ccw, "_phi_table", counting_phi_table)
    assert main(["compare-methods"]) == 0
    assert len(scans) == 0
    assert sorted(variant.value for *_, variant in tables) == ["classic", "generalized"]


def test_compare_methods_far_spherical_formation_is_a_failed_route(tmp_path, capsys):
    # At h = 1e-4 the spherical formation distance exp(2/(2.4e-4 pi)) is out
    # of range: that route fails, quietly, and the others are reported.
    path = tmp_path / "report.json"
    assert main(["compare-methods", "--h", "1e-4", "--report", str(path)]) == 4
    assert capsys.readouterr().err == ""
    report = json.loads(path.read_text())
    assert report["geometries"]["spherical"]["wngo"] == {
        "status": "failed", "error": "the lead shock forms beyond x = 1e+18"}
    assert "exponent" in report["geometries"]["cylindrical"]["wngo"]


def test_compare_methods_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(
            ["compare-methods", "--geometry", "cylindrical", "--x-end", "1e4",
             "--report", str(path)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_merging(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\nh = 0.2\nk = 5\ngeometry = cylindrical\n")
    out = tmp_path / "from_config.csv"
    assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data["p_jump"][0] == 0.2
    assert data["px_jump"][0] == 5.0
    # Flags win over file values.
    out2 = tmp_path / "flag_wins.csv"
    assert main(
        ["evolve", "--config", str(config), "--h", "0.3", "--out", str(out2)]
    ) == 0
    data2 = np.genfromtxt(out2, delimiter=",", names=True)
    assert data2["p_jump"][0] == 0.3
    assert data2["px_jump"][0] == 5.0
    # Values are taken literally: no % interpolation.
    out3 = tmp_path / "run%1.csv"
    config.write_text(f"[run]\nout = {out3}\n")
    assert main(["evolve", "--config", str(config)]) == 0
    assert out3.exists()
    # Keys the command has no flag for are ignored.
    config.write_text("[run]\nk = 5\n")
    assert main(["ccw", "--config", str(config)]) == 0
    assert main(["fit-shock", "--config", str(config)]) == 0
    out4 = tmp_path / "ignored.csv"
    config.write_text(f"[run]\nout = {out4}\n")
    argv = ["compare-methods", "--geometry", "planar", "--x-end", "1e4"]
    assert main(argv + ["--config", str(config)]) == 0
    assert not out4.exists()


def test_config_file_pulse_section(tmp_path, capsys):
    config = tmp_path / "pulse.ini"
    config.write_text("[pulse]\nshape = half-sine\nv0 = 0.08\ntau0 = 2.0\n")
    out = tmp_path / "fit.csv"
    assert main(["fit-shock", "--config", str(config), "--out", str(out)]) == 0
    # A config value meets the flag's choices like a flag value; the error
    # names the file, as the user may have typed no --pulse.
    config.write_text("[pulse]\nshape = triangle\n")
    capsys.readouterr()
    assert main(["fit-shock", "--config", str(config)]) == 2
    *_, flag_line, file_line = capsys.readouterr().err.splitlines()
    assert "argument --pulse: invalid choice: 'triangle'" in flag_line
    assert file_line == f"error: the value above comes from config file {config}"


def test_main_without_argv_reads_sys_argv_with_a_config(tmp_path, monkeypatch, capsys):
    # The config words go in after the command word of sys.argv[1:] too.
    config, out = tmp_path / "run.ini", tmp_path / "run.csv"
    config.write_text("[run]\nh = 0.2\nk = 5\ngeometry = cylindrical\n")
    argv = ["evolve", "--config", str(config), "--k", "3", "--out", str(out)]
    assert main(argv) == 0
    expected = capsys.readouterr(), out.read_bytes()
    out.unlink()
    monkeypatch.setattr(sys, "argv", ["shockdecay", *argv])
    assert main() == 0
    assert (capsys.readouterr(), out.read_bytes()) == expected
    assert expected[0].out.startswith("evolve: cylindrical, gamma=1.4, h=0.2, k=3.0,")


@pytest.mark.parametrize("command", ["evolve", "asymptote", "table1", "fit-shock", "ccw"])
def test_huge_sample_count_is_refused_before_any_grid(command, capsys):
    # 1e12 samples would ask numpy for 8 TB a column: exit 2, nothing allocated.
    tracemalloc.start()
    try:
        for samples in (cli.MAX_SAMPLES + 1, 10**12):
            assert main([command, "--samples", str(samples)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: --samples must lie in [2, {cli.MAX_SAMPLES}], got {samples}\n"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_config_file_errors(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path / "absent.ini")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[run\nh = oops")
    assert main(["evolve", "--config", str(bad)]) == 2
    nonnumeric = tmp_path / "nonnumeric.ini"
    nonnumeric.write_text("[run]\nh = abc\n")
    capsys.readouterr()
    assert main(["evolve", "--config", str(nonnumeric)]) == 2
    *_, flag_line, file_line = capsys.readouterr().err.splitlines()
    assert "argument --h: invalid float value: 'abc'" in flag_line
    assert file_line == f"error: the value above comes from config file {nonnumeric}"


@pytest.mark.parametrize("v0", ["1e50", "1e99", "1e150", "1e154", "1e155"])
@pytest.mark.parametrize("shape", ["ramp", "half-sine"])
def test_fit_shock_too_strong_pulse_is_numerical_failure(shape, v0, capsys):
    # tau_- would round to tau0, where [u] reads 0: refused, without warnings.
    assert main(["fit-shock", "--pulse", shape, "--v0", v0]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("too strong" if shape == "ramp" else "no root") in err


@pytest.mark.parametrize("shape", ["ramp", "half-sine"])
def test_fit_shock_infinite_amplitude_is_config_error(shape, capsys):
    assert main(["fit-shock", "--pulse", shape, "--v0", "inf"]) == 2
    name = "ramp slope m" if shape == "ramp" else "pulse amplitude v0"
    assert capsys.readouterr().err == f"error: {name} must be finite\n"


def _defaults(parser, commands):
    """Every subparser's default for each dest its namespace holds."""
    return {
        name: {dest: sub.get_default(dest) for dest in vars(parser.parse_args([name]))}
        for name, sub in commands.items()
    }


def test_parser_is_built_once_and_config_leaves_no_trace(tmp_path, capsys):
    cli._parser.cache_clear()
    runs = [
        ["evolve", "--samples", "3"],
        ["asymptote", "--samples", "3"],
        ["ccw", "--samples", "3"],
        ["fit-shock", "--samples", "3"],
    ]
    for i in range(20):
        assert main(runs[i % len(runs)]) == 0
    assert cli._parser.cache_info().misses == 1
    parser, commands = cli._parser()
    before = _defaults(parser, commands)
    capsys.readouterr()

    def plain(command):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--out", str(out)]) == 0
        return capsys.readouterr().out, out.read_bytes()

    reference = {command: plain(command) for command in ("evolve", "fit-shock")}
    run_ini, pulse_ini, bad_ini = (tmp_path / n for n in ("run.ini", "pulse.ini", "bad.ini"))
    run_ini.write_text("[run]\nh = 0.2\nk = 5\ngeometry = cylindrical\n")
    pulse_ini.write_text("[pulse]\nshape = ramp\nv0 = 0.08\ntau0 = 2.0\n")
    bad_ini.write_text("[run]\nh = abc\n")
    for command, config in (("evolve", run_ini), ("fit-shock", pulse_ini)):
        assert main([command, "--config", str(config)]) == 0
        capsys.readouterr()
        assert plain(command) == reference[command]
        assert _defaults(parser, commands) == before
    stdout, csv = reference["evolve"]
    assert stdout.startswith("evolve: planar, gamma=1.4, h=0.1, k=1.0,")
    first = np.genfromtxt(csv.splitlines(), delimiter=",", names=True)[0]
    assert (first["x"], first["p_jump"], first["px_jump"]) == (1.0, 0.1, 1.0)
    assert "half-sine pulse" in reference["fit-shock"][0]
    assert main(["evolve", "--config", str(bad_ini)]) == 2
    assert _defaults(parser, commands) == before
    assert cli._parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "command", ["evolve", "asymptote", "table1", "compare-methods", "fit-shock", "ccw"]
)
def test_repeated_calls_give_identical_bytes(command, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[run]\nh = 0.2\nk = 5\ngeometry = cylindrical\nsamples = 3\n")
    other = "ccw" if command == "evolve" else "evolve"

    def capture():
        outcomes = []
        for flag in ("--help", "--frobnicate"):
            code = main([command, flag])
            outcomes.append((code, *capsys.readouterr()))
        return outcomes

    first = capture()
    assert main([other, "--config", str(config)]) == 0
    capsys.readouterr()
    assert capture() == first
