"""Seeded operation generators for the three benchmark workloads.

Every workload is a closed loop with one caller: the next operation starts
only when the previous one has returned.  Operations come in rounds.  A
round fixes the mix of operation kinds, and the inputs of each kind follow
a low-discrepancy design (see ``Design``), so that every run, whatever its
seed, sees the same spread of inputs and the per-run medians compare across
seeds.  Input files (config INI, table-pulse CSV) are written while a round
is generated, before any of its operations is timed.

compare_default
    ``shockdecay compare-methods --report``: op 0 at the documented
    defaults, later ops with h in [0.03, 0.1] and k in [0.3, 10] (log).
    Chosen because it is the headline end-to-end path: the transport and
    characteristic-rule ODEs do most of the work, the planar wavefront fit
    about a tenth, I/O nothing.  Solver and thread-pool changes show here.
fit_sweep
    The README library path: build a pulse (half-sine, ramp, or a 50-sample
    table read from CSV), formation_distance, fit_shock on 200 points over
    1-10 decades above 1.1 x_form, wngo_decay, simple_wave_u and ruw_state
    behind the fitted shock.  gamma in [1.1, 5/3], j, v0 in [0.03, 0.2].
    Chosen because the wavefront layer does almost all the work and the
    ODE layers none: the table ops (one in seven) set throughput and the
    tail, the analytic ops the median.
cli_sweep
    ``evolve``, ``ccw``, ``asymptote`` and ``table1`` with ``--out`` CSV,
    every third of them configured through ``--config`` INI.  samples in
    [200, 20000] (log), k in [-10, 10] so the breakdown path runs, x_end in
    [10, 1e12] (log), U0 in (1.01, 3].  One op in twenty is malformed input
    that the documented contract says must exit 2.  Chosen because it runs
    the solver layers on short ranges and through breakdown, and because CSV
    formatting and per-invocation CLI overhead dominate here and nowhere
    else.  Not gated by BENCHMARK.json: its run-to-run spread on a shared
    host is wider than the bound (see run.py); run it by hand.

Left out on purpose: ``--x-end inf`` and ``--x-end 1e300`` do not finish in
the in-process loop at the seed commit (ROADMAP item 5); a hang cannot be
scored inside a timed closed loop, so they wait for that fix.
"""

import contextlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("compare_default", "fit_sweep", "cli_sweep")
GEOMETRIES = ("planar", "cylindrical", "spherical")

# Malformed inputs of ROADMAP item 5; the documented contract is exit 2.
MALFORMED = ("nan-h", "nan-u0", "nan-v0", "gamma<=1", "unknown-geometry", "x_end<1")


@dataclass
class Op:
    """One operation: a CLI invocation (argv) or a library call (params)."""

    index: int
    kind: str
    params: dict
    argv: list = None


@dataclass
class Outcome:
    """What one operation returned: exit code or exception, output, value."""

    code: int = None
    exc: BaseException = None
    stdout: str = ""
    stderr: str = ""
    value: dict = field(default_factory=dict)

    def describe(self):
        if self.exc is not None:
            return f"raised {type(self.exc).__name__}"
        return f"exit {self.code}"


class Design:
    """Inputs of one op kind, spread evenly over any prefix of a run.

    The geometry index cycles through its levels from a seeded start, and
    for each level the continuous factors are the next point of a Halton
    sequence under a seeded random shift (mod 1), so that a run of any
    length, whatever its seed, covers every factor almost uniformly.  This
    keeps per-run medians comparable between seeds.
    """

    PRIMES = (2, 3, 5, 7, 11, 13)

    def __init__(self, rng, n, levels=1):
        self.shifts = rng.random((levels, n))
        self.counts = [0] * levels
        self.level = int(rng.integers(levels))

    def draw(self):
        """(level, point in [0, 1)^n)."""
        level = self.level
        self.level = (level + 1) % len(self.counts)
        self.counts[level] += 1
        point = [_radical_inverse(self.counts[level], b) for b in self.PRIMES[: self.shifts.shape[1]]]
        return level, (np.array(point) + self.shifts[level]) % 1.0


def _radical_inverse(i, base):
    """i-th element of the van der Corput sequence in ``base``."""
    out, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        out += digit * scale
        scale /= base
    return out


def _lin(u, a, b):
    return a + u * (b - a)


def _log(u, a, b):
    return a * (b / a) ** u


def _f(value):
    """Full-precision decimal for argv and INI files."""
    return repr(float(value))


class Generator:
    """Deterministic stream of rounds for one workload and seed."""

    def __init__(self, workload, seed, workdir, stream=0):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.workdir = workdir
        wid = WORKLOADS.index(workload)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed % 2**64, wid, stream]))
        self.count = 0
        self.rounds = 0
        self._per_kind = {}
        r = self.rng
        self.designs = {
            "compare": Design(r, 2),
            "half-sine": Design(r, 3, levels=3),
            "ramp": Design(r, 3, levels=3),
            "table": Design(r, 5, levels=3),
            "evolve": Design(r, 6, levels=3),
            "ccw": Design(r, 5, levels=3),
            "asymptote": Design(r, 5, levels=3),
            "table1": Design(r, 1),
            "malformed": Design(r, 1, levels=len(MALFORMED)),
        }

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def next_round(self):
        """The next round of ops; writes the input files they need."""
        if self.workload == "compare_default":
            kinds = ["compare"]
        elif self.workload == "fit_sweep":
            kinds = ["table"] + ["half-sine", "ramp"] * 3
        else:
            kinds = ["evolve"] * 6 + ["ccw"] * 6 + ["asymptote"] * 4 + ["table1"] * 3
            kinds.append("malformed")
        order = self.rng.permutation(len(kinds))
        ops = [self._make(kinds[i]) for i in order]
        self.rounds += 1
        return ops

    def _make(self, kind):
        index = self.count
        self.count += 1
        nth = self._per_kind.get(kind, 0)
        self._per_kind[kind] = nth + 1
        level, u = self.designs[kind].draw()
        if kind == "compare":
            return self._compare(index, u)
        if kind in ("half-sine", "ramp", "table"):
            return self._fit(index, kind, level, u)
        if kind == "malformed":
            return self._malformed(index, MALFORMED[level])
        return getattr(self, "_" + kind)(index, level, u, use_config=nth % 3 == 2)

    # compare_default ------------------------------------------------------

    def _compare(self, index, u):
        out = self._path("report.json")
        if index == 0:  # the documented defaults
            h, k, extra = 0.05, 1.0, []
        else:
            h, k = _lin(u[0], 0.03, 0.1), _log(u[1], 0.3, 10.0)
            extra = ["--h", _f(h), "--k", _f(k)]
        argv = ["compare-methods", "--report", out] + extra
        return Op(index, "compare", {"h": h, "k": k, "out": out}, argv)

    # fit_sweep ------------------------------------------------------------

    def _fit(self, index, kind, j, u):
        params = {
            "pulse": kind,
            "gamma": _lin(u[0], 1.1, 5.0 / 3.0),
            "j": j,
            "v0": _lin(u[1], 0.03, 0.2),
            "decades": _lin(u[2], 1.0, 10.0),
        }
        if kind == "ramp":
            params["v0"] *= 4.0  # slope m, so the peak m tau0 / 4 is in [0.03, 0.2]
        if kind == "table":
            s = np.linspace(0.0, 1.0, 50)
            a, b = _lin(u[3], -0.3, 0.3), _lin(u[4], -0.2, 0.2)
            v = params["v0"] * np.sin(np.pi * s) * (1.0 + a * np.sin(np.pi * s) + b * np.sin(2 * np.pi * s))
            v[0] = v[-1] = 0.0
            path = self._path(f"pulse-{index}.csv")
            with open(path, "w", newline="\n") as fh:
                fh.write("tau,v\n")
                fh.writelines(f"{_f(t)},{_f(w)}\n" for t, w in zip(s, v))
            params["table"] = (s, v)
            params["file"] = path
        return Op(index, "fit:" + kind, params)

    # cli_sweep ------------------------------------------------------------

    def _common(self, index, kind, use_config, settings, extra):
        """argv for one CLI op; with use_config the [run] settings go to an
        INI file and only x_end stays a flag, over a different INI value."""
        out = self._path(f"{kind}-{index}.csv")
        settings = dict(settings, out=out)
        if not use_config:
            argv = [kind]
            for key, value in settings.items():
                argv += ["--" + key.replace("_", "-"), str(value)]
            return argv + extra, out
        path = self._path(f"{kind}-{index}.ini")
        flag_x_end = settings.pop("x_end", None)
        lines = ["[run]"] + [f"{key} = {value}" for key, value in settings.items()]
        argv = [kind, "--config", path]
        if flag_x_end is not None:
            lines.append("x_end = 3.0")  # overridden by the flag
            argv += ["--x-end", flag_x_end]
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        return argv + extra, out

    def _evolve(self, index, j, u, use_config):
        p = {
            "j": j,
            "gamma": _lin(u[0], 1.1, 5.0 / 3.0),
            "h": _lin(u[1], 0.01, 0.5),
            "k": _lin(u[2], -10.0, 10.0),
            "x_end": _log(u[3], 10.0, 1e12),
            "samples": int(_log(u[4], 200, 20000)),
            "asymptote": "power-law" if u[5] < 1.0 / 3.0 else "leading",
        }
        settings = {"geometry": GEOMETRIES[p["j"]], "gamma": _f(p["gamma"]), "h": _f(p["h"]),
                    "k": _f(p["k"]), "samples": p["samples"], "x_end": _f(p["x_end"])}
        argv, p["out"] = self._common(index, "evolve", use_config, settings,
                                      ["--asymptote", p["asymptote"]])
        return Op(index, "evolve", p, argv)

    def _ccw(self, index, j, u, use_config):
        p = {
            "j": j,
            "gamma": _lin(u[0], 1.1, 5.0 / 3.0),
            "x_end": _log(u[2], 10.0, 1e12),
            "samples": int(_log(u[3], 200, 20000)),
            "variant": "classic" if u[4] < 0.5 else "generalized",
        }
        U0 = _lin(u[1], 1.01, 3.0)
        settings = {"geometry": GEOMETRIES[p["j"]], "gamma": _f(p["gamma"]),
                    "samples": p["samples"], "x_end": _f(p["x_end"])}
        extra = ["--variant", p["variant"]]
        if use_config:
            # The INI has no U0 key: the run starts from the Mach number
            # carrying the pressure jump h.
            h = 2.0 * (U0 * U0 - 1.0) / (p["gamma"] + 1.0)
            settings["h"] = _f(h)
            U0 = math.sqrt(1.0 + 0.5 * (p["gamma"] + 1.0) * h)
        else:
            extra += ["--u0", _f(U0)]
        p["U0"] = U0
        argv, p["out"] = self._common(index, "ccw", use_config, settings, extra)
        return Op(index, "ccw", p, argv)

    def _asymptote(self, index, j, u, use_config):
        p = {
            "j": j,
            "gamma": _lin(u[0], 1.1, 5.0 / 3.0),
            "h": _lin(u[1], 0.01, 0.5),
            "k": _log(u[2], 0.1, 10.0),
            "x_end": _log(u[3], 10.0, 1e12),
            "samples": int(_log(u[4], 200, 20000)),
        }
        settings = {"geometry": GEOMETRIES[p["j"]], "gamma": _f(p["gamma"]), "h": _f(p["h"]),
                    "k": _f(p["k"]), "samples": p["samples"], "x_end": _f(p["x_end"])}
        argv, p["out"] = self._common(index, "asymptote", use_config, settings, [])
        return Op(index, "asymptote", p, argv)

    def _table1(self, index, level, u, use_config):
        p = {"samples": int(_log(u[0], 200, 20000))}
        argv, p["out"] = self._common(index, "table1", use_config, {"samples": p["samples"]}, [])
        return Op(index, "table1", p, argv)

    def _malformed(self, index, defect):
        r = self.rng
        command = ["evolve", "ccw", "asymptote"][int(r.integers(3))]
        out = ["--out", self._path(f"bad-{index}.csv")]
        if defect == "nan-h":
            argv = ["evolve", "--h", "nan"] + out
        elif defect == "nan-u0":
            argv = ["ccw", "--u0", "nan"] + out
        elif defect == "nan-v0":
            argv = ["fit-shock", "--v0", "nan"] + out
        elif defect == "gamma<=1":
            argv = [command, "--gamma", _f(_lin(r.random(), 0.5, 1.0))] + out
        elif defect == "unknown-geometry":
            argv = [command, "--geometry", str(r.choice(["toroidal", "conical", "Planar", "all"]))] + out
        else:
            argv = [command, "--x-end", _f(_lin(r.random(), 0.1, 1.0))] + out
        return Op(index, "malformed", {"defect": defect}, argv)


def clear(workdir):
    """Delete the files of finished ops, so that a run's CSV output does not
    pile up on disk (nor its write-back disturb later timings)."""
    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))


# --- running one op -----------------------------------------------------------


def run_op(op, sd):
    """Run one op against the ``shockdecay`` package ``sd``; this is the part
    that is timed.  Library results are returned as plain arrays."""
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        outcome = Outcome()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                outcome.code = sd.cli.main(op.argv)
        except Exception as exc:  # scored by the oracle, never fatal
            outcome.exc = exc
        outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
        return outcome
    try:
        return Outcome(code=0, value=_library_fit(op.params, sd))
    except Exception as exc:
        return Outcome(exc=exc)


def _library_fit(p, sd):
    """The README library path for one boundary pulse."""
    if p["pulse"] == "half-sine":
        pulse = sd.BoundaryPulse.half_sine(p["v0"], 1.0)
    elif p["pulse"] == "ramp":
        pulse = sd.BoundaryPulse.linear_ramp(p["v0"], 1.0)
    else:
        pulse = sd.BoundaryPulse.from_csv(p["file"])
    gas, geom = sd.GasParams(p["gamma"]), sd.Geometry(p["j"])
    x_form = sd.formation_distance(pulse, gas, geom)
    lo = 1.1 * x_form
    grid = np.geomspace(lo, min(lo * 10.0 ** p["decades"], 1e12), 200)
    fitted = sd.fit_shock(pulse, gas, geom, grid)
    u_wngo, _ = sd.wngo_decay(pulse.b, gas, geom, fitted.x)
    u_simple = np.array([sd.simple_wave_u(float(r), gas) for r in fitted.u_jump])
    state = sd.ruw_state(u_simple, gas)
    return {
        "b": pulse.b, "x_form": x_form, "grid": grid, "x": fitted.x,
        "tau": fitted.tau_minus, "u_jump": fitted.u_jump, "u_wngo": u_wngo,
        "u_simple": u_simple, "state": state,
    }
