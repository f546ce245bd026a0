"""Self-tests of the benchmark: generator determinism, oracle sensitivity,
scoring and tracing.  Run with ``python3 -m pytest bench``."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import shockdecay as sd  # noqa: E402
import shockdecay.cli  # noqa: E402,F401

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import Scorer  # noqa: E402


def _signature(ops):
    """Everything an op hands to the program, minus arrays."""
    return [(op.kind, op.argv, {k: v for k, v in op.params.items() if k != "table"}) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload, tmp_path):
    def ops(seed):
        gen = workloads.Generator(workload, seed, str(tmp_path))
        return gen.next_round() + gen.next_round()

    first, again, other = ops(7), ops(7), ops(8)
    assert _signature(first) == _signature(again)
    assert _signature(first) != _signature(other)


def _first(workload, kind, tmp_path):
    """First op of ``kind`` from seed 1 (on a curved front, for ccw)."""
    gen = workloads.Generator(workload, 1, str(tmp_path))
    while True:
        for op in gen.next_round():
            if op.kind == kind and not (kind == "ccw" and op.params["j"] == 0):
                return op


def _rewrite_csv(path, column, factor):
    with open(path) as fh:
        header = fh.readline()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    data[:, column] *= factor
    with open(path, "w") as fh:
        fh.write(header)
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.mark.parametrize(
    "kind, column, factor",
    [("evolve", 1, 1.0 + 1e-6), ("ccw", 1, 1.0 + 1e-6), ("asymptote", 1, 1.0 + 1e-6),
     ("table1", 3, 1.0 + 1e-5)],
)
def test_cli_oracles_reject_perturbed_output(kind, column, factor, tmp_path):
    op = _first("cli_sweep", kind, tmp_path)
    outcome = workloads.run_op(op, sd)
    assert oracles.check(op.kind, op.params, outcome)[0] == []
    _rewrite_csv(op.params["out"], column, factor)
    assert oracles.check(op.kind, op.params, outcome)[0] != []


@pytest.mark.parametrize("pulse", ["half-sine", "ramp", "table"])
def test_fit_oracle_rejects_shifted_tau(pulse, tmp_path):
    op = _first("fit_sweep", "fit:" + pulse, tmp_path)
    outcome = workloads.run_op(op, sd)
    assert oracles.check_fit(op.params, outcome)[0] == []
    outcome.value["tau"] = outcome.value["tau"] + 1e-8
    assert oracles.check_fit(op.params, outcome)[0] != []


def test_fit_oracle_rejects_inexact_simple_wave(tmp_path):
    op = _first("fit_sweep", "fit:half-sine", tmp_path)
    outcome = workloads.run_op(op, sd)
    outcome.value["u_simple"] = outcome.value["u_simple"] * (1.0 + 1e-9)
    assert oracles.check_fit(op.params, outcome)[0] != []


def _report(h, k):
    """A compare-methods report that meets every criterion-08 gate."""
    gamma = 1.4
    exps = {"planar": (-0.5, 0.0), "cylindrical": (-0.75, -0.5), "spherical": (-1.0, -1.0)}
    geometries = {}
    for j, (name, (pre, aco)) in enumerate(exps.items()):
        geometries[name] = {
            "transport": {"precursor_exponent": pre, "acoustic_exponent": aco},
            "wngo": {"exponent": pre, "pulse_integral": 2.0 * h / np.pi,
                     "formation_distance": oracles.ray_integral_inverse(
                         2.0 / ((gamma + 1.0) * h * np.pi), j)},
            "simple_wave": {"quadratic_ratio": 100.0},
            "ccw": {"U0": oracles.mach_from_p_jump(h, gamma), "generalized_exponent": aco,
                    "classic_exponent": aco},
            "pairs": {"precursor_gap": 0.0, "acoustic_gap": 0.0},
        }
    return {"gamma": gamma, "h": h, "k": k, "x_end": 1e12, "status": "ok", "geometries": geometries}


def test_compare_oracle_applies_the_gates(tmp_path):
    params = {"h": 0.05, "k": 1.0, "out": str(tmp_path / "report.json")}
    report = _report(0.05, 1.0)
    ok = workloads.Outcome(code=0)
    Path(params["out"]).write_text(json.dumps(report))
    assert oracles.check_compare(params, ok)[0] == []
    report["geometries"]["spherical"]["wngo"]["exponent"] = -1.03
    Path(params["out"]).write_text(json.dumps(report))
    assert oracles.check_compare(params, ok)[0] != []
    assert oracles.check_compare(params, workloads.Outcome(code=4))[0] != []


def _malformed(defect):
    return workloads.Op(0, "malformed", {"defect": defect}, ["evolve"])


@pytest.mark.parametrize(
    "defect, outcome, verdict",
    [
        ("gamma<=1", workloads.Outcome(code=2), "ok"),
        ("gamma<=1", workloads.Outcome(code=3), "failed"),
        ("gamma<=1", workloads.Outcome(code=0), "failed"),
        ("nan-h", workloads.Outcome(exc=ValueError("y0")), "known"),
        ("nan-h", workloads.Outcome(code=3), "failed"),
        ("nan-h", workloads.Outcome(code=2), "ok"),
        ("nan-v0", workloads.Outcome(code=3), "known"),
        ("nan-v0", workloads.Outcome(exc=ValueError("x")), "failed"),
    ],
)
def test_malformed_scoring(defect, outcome, verdict):
    scorer = Scorer()
    scorer.score(_malformed(defect), outcome)
    counts = {"ok": scorer.ok, "known": sum(scorer.known.values()), "failed": scorer.failed}
    assert counts == {key: int(key == verdict) for key in counts}


def test_tracer_reports_absent_names_and_self_time():
    tracer = tracing.Tracer()
    module = types.ModuleType("fake")
    module.present = lambda: tracer.call("core", "inner", lambda: None, (), {})
    tracer.wrap(module, "present", "transport")
    tracer.wrap(module, "removed", "transport")
    module.present()
    tracer.uninstall()
    assert tracer.absent == ["fake.removed"]
    summary, _ = tracing.layer_summary(tracer.spans)
    assert summary["transport"]["calls"] == 1 and summary["core"]["calls"] == 1
    outer = next(s for s in tracer.spans if s.layer == "transport")
    inner = next(s for s in tracer.spans if s.layer == "core")
    assert inner.parent == outer.id
    assert summary["transport"]["self_s"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))
