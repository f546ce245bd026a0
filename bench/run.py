"""shockdecay benchmark: seeded, oracle-checked workloads, timed end to end.

    python3 bench/run.py --workload {compare_default,fit_sweep,cli_sweep}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
BENCHMARK.json gates compare_default and fit_sweep.  cli_sweep runs the same
way but is not gated: on a shared 2-vCPU host its medians spread past the
25% bound between sets of ten runs (its ops are ~6 ms to ~0.5 s, and the
host's speed drifts by a third over minutes), so it is kept for measuring
CSV writer and CLI changes by hand, over many paired runs.
The workloads and why each was chosen are described in ``workloads.py``,
the oracles in ``oracles.py`` and the traced layers in ``tracing.py``.
Self-tests: ``python3 -m pytest bench``.

``--trace 0`` runs the workload as a closed loop with one caller for S
seconds, after one untimed warm-up round, and reports:

    latency_p50_s     median wall time per op
    latency_tail_s    highest percentile with at least 10 ops beyond it;
                      printed, not gated: compare_default completes too few
                      ops in one run for it to lie above the median
    throughput_ops_s  ops completed per second of op wall time
    failed_frac       ops that missed (any reason) / ops attempted; printed
    ok_frac           1 - failed_frac, gated instead because it is never 0
    setup_s           median over 3 fresh interpreters of the wall time of
                      ``import shockdecay.cli``
    peak_rss_mb       peak resident set size of this process

``--trace 1`` runs a fixed number of rounds (set by S, not by the speed of
the program, so that counts compare exactly between commits), each op once
untraced and once traced, and reports the per-layer metrics and
trace.overhead_s, the traced minus the untraced wall time.

An op misses when it raises, returns another exit code than the documented
one, or fails its oracle.  Misses that ``oracles.known_defect`` attributes to
a defect of the seed commit (NaN input, ROADMAP item 5; a far-out breakdown
ending in a solver failure) are counted and listed as known defects: they
lower ok_frac, but ``failed`` in the result line counts only the others.

The last line of stdout is the JSON result; the lines before it are the
human-readable report.  The spans of a traced run are written to
``bench/_out/trace-<workload>-<seed>.json``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import oracles
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

SETUP_REPEATS = 3
SETUP_CODE = (
    "import time; t = time.perf_counter(); import shockdecay.cli; "
    "print(repr(time.perf_counter() - t))"
)
# Untraced seconds per round at the seed commit; a traced run of S seconds
# does round(S / (2 * this)) rounds, each op untraced and traced.
ROUND_SECONDS = {"compare_default": 1.5, "fit_sweep": 0.7, "cli_sweep": 1.6}
TAIL_BEYOND = 10


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0.0:
        p.error("--seconds must be positive")
    return args


def _import_program():
    """Import shockdecay from this checkout's src/, or return None."""
    if not (SRC / "shockdecay" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import shockdecay
    import shockdecay.cli  # noqa: F401  (the workloads call sd.cli.main)

    if Path(shockdecay.__file__).resolve().parent != (SRC / "shockdecay").resolve():
        return None
    return shockdecay


def measure_setup():
    """Wall times of ``import shockdecay.cli`` in fresh interpreters.

    One unmeasured import first fills the bytecode and file caches.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def provenance(sd, args):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: ") and (ROOT / ".git" / commit[5:]).is_file():
            commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "shockdecay": getattr(sd, "__version__", "?"),
        "commit": commit,
    }


class Scorer:
    """Tallies each op as passed, a known defect of the seed, or failed."""

    def __init__(self):
        self.attempted = self.ok = self.failed = 0
        self.known = Counter()
        self.messages = []
        self.stats = {}

    def add_stats(self, stats):
        for key, value in stats.items():
            self.stats[key] = max(self.stats.get(key, 0.0), value)

    def score(self, op, outcome):
        failures, stats = oracles.check(op.kind, op.params, outcome)
        self.attempted += 1
        self.add_stats(stats)
        if not failures:
            self.ok += 1
            return
        defect = oracles.known_defect(op.kind, op.params, outcome, failures, stats)
        if defect:
            self.known[defect] += 1
            return
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"op {op.index} {op.kind} {op.argv or ''}: {'; '.join(failures)}")


def percentile_tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND values
    beyond it; the median when that would not lie above it."""
    v = sorted(values)
    n = len(v)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(v), 50.0
    return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_untraced(args, sd, scorer, workdir):
    """The closed loop: whole rounds until S seconds have passed."""
    gen = workloads.Generator(args.workload, args.seed, workdir)
    latencies = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for op in gen.next_round():
            t0 = time.perf_counter()
            outcome = workloads.run_op(op, sd)
            latencies.append(time.perf_counter() - t0)
            scorer.score(op, outcome)
        workloads.clear(workdir)
    setup = measure_setup()
    n = len(latencies)
    busy = sum(latencies)
    tail, pct = percentile_tail(latencies)
    return {
        "latency_p50_s": (statistics.median(latencies), f"n={n}"),
        "latency_tail_s": (tail, f"p{pct:.1f} of n={n}, {TAIL_BEYOND} beyond"),
        "throughput_ops_s": (n / busy, f"{n} ops in {busy:.3f} s of op time, {gen.rounds} rounds"),
        "failed_frac": (1.0 - scorer.ok / scorer.attempted,
                        f"{scorer.attempted - scorer.ok}/{scorer.attempted}"),
        "ok_frac": (scorer.ok / scorer.attempted, f"{scorer.ok}/{scorer.attempted}"),
        "setup_s": (statistics.median(setup), "median of " + ", ".join(f"{t:.4f}" for t in setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "ru_maxrss"),
    }


def run_traced(args, sd, scorer, workdir, info):
    """Fixed rounds, each op untraced and traced; per-layer metrics."""
    rounds = max(1, round(args.seconds / (2.0 * ROUND_SECONDS[args.workload])))
    gen = workloads.Generator(args.workload, args.seed, workdir)
    tracer = tracing.Tracer()
    kinds = {}
    plain = traced = 0.0
    for _ in range(rounds):
        for op in gen.next_round():
            kinds[op.index] = op.kind
            # Alternate which pass goes first so neither gains from order.
            for with_trace in ((False, True) if op.index % 2 else (True, False)):
                if with_trace:
                    tracer.op = op.index
                    tracing.instrument(tracer, sd)
                t0 = time.perf_counter()
                try:
                    outcome = workloads.run_op(op, sd)
                finally:
                    elapsed = time.perf_counter() - t0
                    tracer.uninstall()
                if with_trace:
                    traced += elapsed
                else:
                    plain += elapsed
                scorer.score(op, outcome)
            for kind, bound, result in tracer.captures:
                scorer.add_stats(headroom(kind, bound, result))
            tracer.captures.clear()
        workloads.clear(workdir)
    tracer.dump(str(OUT / f"trace-{args.workload}-{args.seed}.json"), info)

    summary, children = tracing.layer_summary(tracer.spans)
    print(f"# traced {gen.count} ops in {gen.rounds} rounds, each run untraced and traced")
    print(f"# {'layer':<34} {'calls':>9} {'busy_cpu_s':>11} {'self_wall_s':>11}")
    for key in sorted(summary):
        row = summary[key]
        print(f"# {key:<34} {row['calls']:>9} {row['busy_s']:>11.4f} {row['self_s']:>11.4f}")
    if tracer.absent:
        print("# absent (no longer in the program): " + ", ".join(tracer.absent))
    return layer_metrics(tracer, summary, children, kinds, traced - plain, scorer.stats)


def headroom(kind, a, r):
    """Accuracy of one captured layer call against its oracle."""
    try:
        if kind == "transport":
            s = a["scen"]
            err = oracles.transport_history_error(
                r.x, r.p_jump, r.px_jump, s.h, s.k, s.gas.gamma, s.geom.j)
            return {"transport.max_rel_err": err}
        if kind == "ccw":
            err, _ = oracles.ccw_history_error(
                r.x, r.U, a["U0"], a["gas"].gamma, a["geom"].j, a["variant"].value)
            return {"ccw.max_rel_err": err}
        pulse = a["pulse"]
        if pulse.label == "half-sine":
            ref = oracles.ReferencePulse("half-sine", pulse.vdot0 * pulse.tau0 / math.pi, pulse.tau0)
        elif pulse.label == "ramp":
            ref = oracles.ReferencePulse("ramp", pulse.vdot0, pulse.tau0)
        else:
            v = getattr(pulse.v, "__wrapped__", pulse.v)  # the PCHIP interpolant
            ref = oracles.ReferencePulse("table", None, pulse.tau0, (v.x, v(v.x)))
        tau_err, area = oracles.fit_errors(ref, r.x, r.tau_minus, a["gas"].gamma, a["geom"].j)
        return {"wavefront.max_tau_rel_err": tau_err, "wavefront.max_area_residual": area}
    except (KeyError, AttributeError, TypeError):
        return {}  # the layer's signature changed: no headroom to report


def layer_metrics(tracer, summary, children, kinds, overhead, stats):
    def get(key, field):
        return summary.get(key, {}).get(field, 0)

    compare_wall = compare_child_cpu = 0.0
    for s in tracer.spans:
        if s.layer == "cli" and kinds.get(s.op) == "compare":
            compare_wall += s.end - s.start
            compare_child_cpu += sum(c.cpu for c in children.get(s.id, ()))
    c = tracer.counts
    values = {
        "transport.calls": get("transport", "calls"),
        "transport.busy_s": get("transport", "busy_s"),
        "transport.nfev": c["transport.nfev"],
        "transport.max_rel_err": stats.get("transport.max_rel_err", 0.0),
        "ccw.calls": get("ccw", "calls"),
        "ccw.busy_s": get("ccw", "busy_s"),
        "ccw.nfev": c["ccw.nfev"],
        "ccw.max_rel_err": stats.get("ccw.max_rel_err", 0.0),
        "wavefront.pulse_build_s": get("wavefront:pulse_build", "busy_s"),
        "wavefront.fit_calls": get("wavefront:fit_shock", "calls"),
        "wavefront.fit_busy_s": get("wavefront:fit_shock", "busy_s"),
        "wavefront.pulse_evals": c["wavefront.pulse_evals"],
        "wavefront.simple_wave_calls": get("wavefront:simple_wave_u", "calls"),
        "wavefront.simple_wave_busy_s": get("wavefront:simple_wave_u", "busy_s"),
        "wavefront.max_tau_rel_err": stats.get("wavefront.max_tau_rel_err", 0.0),
        "wavefront.max_area_residual": stats.get("wavefront.max_area_residual", 0.0),
        "io.csv_write_calls": get("io:csv_write", "calls"),
        "io.csv_write_s": get("io:csv_write", "self_s"),
        "io.csv_bytes": c["io.csv_bytes"],
        "io.csv_read_s": get("io:csv_read", "self_s"),
        "io.json_write_s": get("io:json_write", "self_s"),
        "cli.calls": get("cli", "calls"),
        "cli.self_s": get("cli", "self_s"),
        "cli.overlap_ratio": compare_child_cpu / compare_wall if compare_wall else 0.0,
        "core.calls": get("core", "calls"),
        "core.busy_s": get("core", "busy_s"),
        "trace.overhead_s": overhead,
    }
    return {name: (value, "") for name, value in values.items()}


def _unit(name):
    """Unit of a printed metric that BENCHMARK.json does not list."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_err", "_residual", "_ratio", "_frac")) else "count"


def main(argv=None):
    args = _parse(argv)
    sd = _import_program()
    if sd is None:
        print(f"error: no shockdecay sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        info = provenance(sd, args)
        print("# shockdecay benchmark  " + "  ".join(f"{k}={v}" for k, v in info.items()))
        # Warm-up: one untimed round from a separate stream, checked like the rest.
        warm = Scorer()
        for op in workloads.Generator(args.workload, args.seed, workdir, stream=1).next_round():
            warm.score(op, workloads.run_op(op, sd))
        workloads.clear(workdir)
        scorer = Scorer()
        if args.trace:
            metrics = run_traced(args, sd, scorer, workdir, info)
            reported = spec["per_layer"]
        else:
            metrics = run_untraced(args, sd, scorer, workdir)
            reported = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (value, note) in metrics.items():
        print(f"{name:<30} {value:>14.6g} {units.get(name) or _unit(name):<6} {note}")
    print(f"# ops: attempted={scorer.attempted} ok={scorer.ok} "
          f"known_defects={sum(scorer.known.values())} failed={scorer.failed} "
          f"warm_up={warm.attempted}")
    for label, n in sorted(scorer.known.items()):
        print(f"# known defect x{n}: {label}")
    for line in warm.messages + scorer.messages:
        print("# FAILED " + line)
    result = {
        "correct": scorer.failed == 0 and warm.failed == 0,
        "attempted": scorer.attempted,
        "failed": scorer.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
