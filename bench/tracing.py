"""Spans and counters recorded around the calls into each layer.

The program is not edited: the tracer replaces, for the duration of a
traced op, the public names that one ``shockdecay`` module imports from
another (and the CSV/JSON writers), with wrappers that record a span per
call.  Layers are named after the modules:

    cli        shockdecay.cli.main (argparse, config merging, pipelines)
    transport  integrate_truncated and the references it attaches
    ccw        integrate_ccw
    wavefront  pulse construction, fit_shock, simple waves
    core       jump algebra, mu_nu, psi and the ray integrals
    io         CSV writers and readers, the JSON report

A span holds (id, parent, layer, name, op, thread, wall start/end, thread
CPU time).  Spans stay in memory; ``dump`` writes them when the run ends.
A name that the program no longer has is listed in ``absent`` and its
metrics read zero, rather than failing the run.
"""

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter, namedtuple

Span = namedtuple("Span", "id parent layer name op thread start end cpu")

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.captures = []
        self.absent = []
        self.op = -1
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    # --- recording ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    def call(self, layer, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        stack = self._stack()
        # A worker thread started by the program has an empty stack; its
        # spans belong to whatever the main thread is inside (cli.main).
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            self.spans.append(
                Span(sid, parent, layer, name, self.op, threading.get_ident(), t0, t1, c1 - c0)
            )

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    # --- installing wrappers ----------------------------------------------------

    def _missing(self, label):
        if label not in self.absent:
            self.absent.append(label)

    def lookup(self, owner, attr):
        """owner.attr, or None (listed as absent) if the program dropped it."""
        value = getattr(owner, attr, None)
        if value is None:
            self._missing(f"{owner.__name__}.{attr}")
        return value

    def wrap(self, owner, attr, layer, name=None, span=True, after=None):
        """Replace owner.attr (a module function, or a plain, class or static
        method of a class) by a recording wrapper.  owner None is skipped:
        lookup already listed it as absent."""
        if owner is None:
            return
        label = f"{owner.__name__}.{attr}"
        raw = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr, _MISSING)
        if raw is _MISSING:
            self._missing(label)
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self
        name = name or attr
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                result = tracer.call(layer, name, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            if after:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attr, raw))

    def wrap_attribute(self, owner, attr, replacement):
        """Swap a non-callable name (such as a module the program imports)."""
        raw = getattr(owner, attr, _MISSING)
        if raw is _MISSING:
            self._missing(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, replacement(raw))
        self._patches.append((owner, attr, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def counting(self, key, fn):
        """A callable that counts its calls under ``key``, then calls fn."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return counted

    # --- output -------------------------------------------------------------------

    def dump(self, path, extra):
        """Write every span and counter as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(extra, absent=self.absent, counts=dict(self.counts),
                   fields=list(Span._fields), spans=[list(s) for s in self.spans])
        with open(path, "w", newline="\n") as fh:
            json.dump(doc, fh)


# --- analysis -------------------------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_summary(spans):
    """Per layer: calls (entries from another layer), busy CPU seconds of
    those entries, and self wall seconds (each span's duration minus the
    part of it that its child spans cover).  Also per (layer, name)."""
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}

    def bump(key, field, value):
        out.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})[field] += value

    for s in spans:
        kids = [(c.start, c.end) for c in children.get(s.id, ())]
        own = (s.end - s.start) - _covered(kids, s.start, s.end)
        parent = by_id.get(s.parent)
        entry = parent is None or parent.layer != s.layer
        for key in (s.layer, f"{s.layer}:{s.name}"):
            bump(key, "self_s", own)
            if entry or key != s.layer:
                bump(key, "calls", 1)
                bump(key, "busy_s", s.cpu)
    return out, children


# --- what is wrapped ------------------------------------------------------------

# Core names as each other module imports them.
CORE_IMPORTS = {
    "cli": ("mach_from_p_jump", "psi"),
    "transport": ("psi", "ray_integral", "ray_integral_inverse", "ray_integral_leading"),
    "ccw": ("jumps_from_mach", "mu_nu"),
    "wavefront": ("psi", "ray_integral", "ray_integral_inverse"),
}
# Wavefront names as the CLI and library callers reach them.
WAVEFRONT_NAMES = ("fit_shock", "formation_distance", "simple_wave_u", "wngo_decay", "ruw_state")


class _JsonProxy:
    """Stand-in for the json module inside shockdecay.cli; times dumps."""

    def __init__(self, module, tracer):
        self._module, self._tracer = module, tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def dumps(self, *args, **kwargs):
        return self._tracer.call("io", "json_write", self._module.dumps, args, kwargs)


def instrument(tracer, sd):
    """Install every wrapper on the package ``sd`` (undo with uninstall)."""
    cli = sd.cli
    modules = {"cli": cli, "transport": sd.transport, "ccw": sd.ccw, "wavefront": sd.wavefront}
    for module_name, names in CORE_IMPORTS.items():
        for name in names:
            tracer.wrap(modules[module_name], name, "core")

    def capture(kind):
        return lambda args, result: tracer.captures.append((kind, args, result))

    def nfev(key):
        return lambda args, result: tracer.count(key, int(result.nfev))

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(cli, "integrate_truncated", "transport", after=capture("transport"))
    tracer.wrap(cli, "asymptotic_law", "transport")
    tracer.wrap(cli, "decay_slope", "transport")
    tracer.wrap(sd.transport, "leading_order_reference", "transport")
    tracer.wrap(sd.transport, "asymptotic_law", "transport")
    tracer.wrap(sd.transport, "solve_ivp", "transport", span=False, after=nfev("transport.nfev"))
    tracer.wrap(cli, "integrate_ccw", "ccw", after=capture("ccw"))
    tracer.wrap(sd.ccw, "solve_ivp", "ccw", span=False, after=nfev("ccw.nfev"))

    def shadow_pulse(args, result):
        pulse = args["self"]
        pulse.v = tracer.counting("wavefront.pulse_evals", pulse.v)
        pulse.v_integral = tracer.counting("wavefront.pulse_evals", pulse.v_integral)

    pulse_cls = tracer.lookup(sd.wavefront, "BoundaryPulse")
    tracer.wrap(pulse_cls, "__init__", "wavefront", "pulse_build", after=shadow_pulse)
    for owner in (cli, sd):
        for name in WAVEFRONT_NAMES:
            if owner is cli and name == "ruw_state":
                continue  # the CLI does not use it
            after = capture("fit") if name == "fit_shock" else None
            tracer.wrap(owner, name, "wavefront", after=after)

    def csv_bytes(args, result):
        path = args.get("path")
        if path and os.path.exists(path):
            tracer.count("io.csv_bytes", os.path.getsize(path))

    history = tracer.lookup(sd.transport, "ShockHistory")
    for cls in (history, tracer.lookup(sd.ccw, "CcwHistory"), tracer.lookup(sd.wavefront, "FittedShock")):
        tracer.wrap(cls, "to_csv", "io", "csv_write", after=csv_bytes)
    tracer.wrap(cli, "_write_rows", "io", "csv_write", after=csv_bytes)
    tracer.wrap(history, "from_csv", "io", "csv_read")
    tracer.wrap(pulse_cls, "from_csv", "io", "csv_read")
    tracer.wrap_attribute(cli, "json", lambda module: _JsonProxy(module, tracer))
