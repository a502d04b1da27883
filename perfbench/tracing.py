"""Span tracing of fsindep's layers, installed from outside the package.

The tracer replaces public functions and methods with wrappers at run
time.  A function is replaced in every ``fsindep`` module namespace that
binds it (``run`` lives in ``automata`` but is also bound in
``compression`` and in the package), a method on its class.  Nothing in
``src/`` knows about it, and :meth:`Tracer.uninstall` puts every original
back.

Two modes, never mixed in one pass:

* ``time``: every call records a span ``[name, parent, op, t0, t1, syms,
  err]`` in memory.  ``WordSource.pop`` runs once per symbol, so it only
  bumps a counter; its time stays in the caller's self time.
* ``memory``: ``tracemalloc`` peaks of the spans that report
  ``*.peak_b_per_sym`` and of ``cli.main``, plus the byte count each CLI
  command passes to ``cli._check_memory``.  Allocation hooks slow every
  call, so this pass never feeds a timing.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import math
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np


def _arg(fn, name):
    """Extractor reading argument ``name`` of ``fn`` from a call."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        return sig.bind(*args, **kwargs).arguments[name]

    return get


# (module, attribute path, span name).  Each entry is one layer boundary.
TARGETS = (
    ("words", "Alphabet.parse", "words.parse"),
    ("words", "Alphabet.render", "words.render"),
    ("sources", "WordSource.take_available", "sources.take"),
    ("perfect", "SelfSimilarSource._produce", "perfect.selfsim"),
    ("perfect", "build_sequence", "perfect.build_sequence"),
    ("automata", "run", "automata.run"),
    ("automata", "check_l_deterministic", "automata.check_l_deterministic"),
    ("automata", "load_automaton", "automata.load_automaton"),
    ("compression", "TransducerOutputSource._produce", "compression.transducer_output"),
    ("compression", "match_run_compress", "compression.match_run"),
    ("compression", "PrefixCode.codebook", "compression.codebook"),
    ("compression", "train_model", "compression.train_model"),
    ("compression", "cond_encode", "compression.cond_encode"),
    ("compression", "cond_decode", "compression.cond_decode"),
    ("compression", "conditional_ratio_estimate", "compression.ratio_estimate"),
    ("compression", "independence_report", "compression.independence_report"),
    ("normality", "normality_report", "normality.normality_report"),
    ("normality", "block_counts", "normality.block_counts"),
    ("cli", "main", "cli.main"),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)
POP_TARGET = ("sources", "WordSource.pop")

# spans whose memory pass reports peak bytes per symbol
PEAK_SPANS = (
    "words.parse",
    "perfect.selfsim",
    "compression.match_run",
    "compression.independence_report",
)

# CLI operations of every workload, for cli.mem_estimate_ratio.<op>
CLI_OPS = (
    "compress",
    "join-dependence",
    "generate-selfsim",
    "generate-join",
    "stats-selfsim",
    "stats-join",
    "condcompress",
    "independence",
    "join-normal",
    "perfect-sequence",
)


def _resolve(module, path):
    owner = importlib.import_module("fsindep." + module)
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def _symbol_counters():
    """span name -> f(args, kwargs, result, popped) giving symbols processed.

    ``popped`` is the number of ``WordSource.pop`` calls inside the span,
    i.e. the input symbols a transducer consumed.
    """
    import fsindep.compression as C

    n_of = {
        "compression.match_run": _arg(C.match_run_compress, "n"),
        "compression.cond_encode": _arg(C.cond_encode, "n"),
        "compression.cond_decode": _arg(C.cond_decode, "n"),
        "compression.ratio_estimate": _arg(C.conditional_ratio_estimate, "n"),
        "compression.independence_report": _arg(C.independence_report, "n"),
    }
    counters = {
        "words.parse": lambda a, kw, r, p: len(a[1]),
        "words.render": lambda a, kw, r, p: len(a[1]),
        "sources.take": lambda a, kw, r, p: int(r.size),
        "perfect.selfsim": lambda a, kw, r, p: int(r.size),
        "automata.run": lambda a, kw, r, p: int(r.consumed[0]),
        "compression.transducer_output": lambda a, kw, r, p: p,
        "normality.normality_report": lambda a, kw, r, p: len(a[0]),
    }
    for name, get_n in n_of.items():
        counters[name] = lambda a, kw, r, p, get_n=get_n: int(get_n(a, kw))
    return counters


def _tallies():
    """span name -> f(counts, args, kwargs, result, syms) adding to counts."""
    import fsindep.compression as C

    get_k = _arg(C.match_run_compress, "k")

    def run_steps(counts, args, kwargs, trace, syms):
        counts["automata.run.steps"] += trace.steps

    def useful_windows(counts, args, kwargs, result, syms):
        # predicted symbols in the whole windows before the first 1 flag
        nz = np.flatnonzero(result[0].data)
        counts["match_run.predicted"] += syms
        counts["match_run.useful"] += syms if nz.size == 0 else get_k(args, kwargs) * int(nz[0])

    return {"automata.run": run_steps, "compression.match_run": useful_windows}


class Tracer:
    """Installs wrappers on the fsindep layers and keeps what they record.

    ``op`` is the id of the operation now running; the harness sets it
    before each one, so every span carries the operation that caused it.
    """

    def __init__(self, mode="time"):
        if mode not in ("time", "memory"):
            raise ValueError(f"unknown tracing mode {mode!r}")
        self.mode = mode
        self.op = -1
        self.spans = []  # time mode: [name, parent, op, t0, t1, syms, err]
        self.stack = []
        self.pops = 0
        self.counts = Counter()  # run steps, match-run useful/predicted symbols
        self.peaks = []  # memory mode: (name, op, peak bytes, syms)
        self.estimates = {}  # memory mode: op -> bytes given to _check_memory
        self._carry = []  # memory mode: highest peak seen by finished children
        self._patched = []  # (owner, attribute, original)

    # ---------------------------------------------------------------- install

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        syms = _symbol_counters()
        if self.mode == "time":
            tallies = _tallies()
            for module, path, name in TARGETS:
                self._wrap(module, path, self._timed(name, syms.get(name), tallies.get(name)))
            self._wrap(*POP_TARGET, self._popcount)
        else:
            for module, path, name in TARGETS:
                if name in PEAK_SPANS or name == "cli.main":
                    self._wrap(module, path, self._peaked(name, syms.get(name)))
            self._wrap("cli", "_check_memory", self._estimate)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _wrap(self, module, path, make):
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapper = make(original)
        if inspect.isclass(owner):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fsindep" and not mod_name.startswith("fsindep."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # --------------------------------------------------------------- wrappers

    def _timed(self, name, count_syms=None, tally=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = len(spans)
                span = [name, stack[-1] if stack else -1, self.op, 0, 0, 0, 0]
                spans.append(span)
                stack.append(sid)
                pops0 = self.pops
                span[3] = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    span[4] = clock()
                    span[6] = 1
                    stack.pop()
                    raise
                span[4] = clock()
                stack.pop()
                if count_syms is not None:
                    span[5] = count_syms(args, kwargs, result, self.pops - pops0)
                if tally is not None:
                    tally(self.counts, args, kwargs, result, span[5])
                return result

            return wrapper

        return make

    def _popcount(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.pops += 1
            return fn(*args, **kwargs)

        return wrapper

    def _peaked(self, name, count_syms):
        # tracemalloc has one peak; a span resets it, so each frame carries
        # the highest peak its finished children saw back to its parent.
        carry = self._carry

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cur0, peak0 = tracemalloc.get_traced_memory()
                if carry:
                    carry[-1] = max(carry[-1], peak0)
                carry.append(0)
                tracemalloc.reset_peak()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    peak = max(tracemalloc.get_traced_memory()[1], carry.pop())
                    if carry:
                        carry[-1] = max(carry[-1], peak)
                syms = count_syms(args, kwargs, result, 0) if count_syms else 0
                self.peaks.append((name, self.op, peak - cur0, syms))
                return result

            return wrapper

        return make

    def _estimate(self, fn):
        @functools.wraps(fn)
        def wrapper(n_bytes):
            self.estimates[self.op] = int(n_bytes)
            return fn(n_bytes)

        return wrapper

    def run_op(self, op_id, fn):
        """Run one operation as the root span ``op`` of its span tree."""
        self.op = op_id
        if self.mode == "time":
            fn = self._timed("op")(fn)
        return fn()

    # ---------------------------------------------------------------- results

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        child = [0] * len(self.spans)
        for name, parent, op, t0, t1, syms, err in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, cycles):
        """Per-layer metrics of a time pass.

        Times and counts are per workload cycle, plus the set-up (spans
        outside any operation) once: what one run of the cycle costs a
        fresh process.  ``ns_per_sym`` is self time over symbols.
        """
        selfs = self.self_times()
        self_ns, syms = defaultdict(int), defaultdict(int)
        cycle_ns, calls, errors = (defaultdict(float) for _ in range(3))
        for span, st in zip(self.spans, selfs):
            name = span[0]
            if name not in SPAN_NAMES:
                continue  # the harness's own operation spans
            weight = 1.0 if span[2] < 0 else 1.0 / cycles
            self_ns[name] += st
            syms[name] += span[5]
            cycle_ns[name] += st * weight
            calls[name] += weight
            errors[name] += span[6] * weight
        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        def ns_per_sym(name):
            put(f"{name}.ns_per_sym", self_ns[name] / syms[name] if syms[name] else 0.0, "ns/sym")

        def self_ms(name):
            put(f"{name}.self_ms", cycle_ns[name] / 1e6, "ms/cycle")

        def calls_of(name):
            put(f"{name}.calls", calls[name], "count/cycle")

        for name in ("words.parse", "words.render", "sources.take", "perfect.selfsim"):
            ns_per_sym(name)
        put("sources.pop.calls", self.pops / cycles, "count/cycle")
        self_ms("perfect.build_sequence")
        ns_per_sym("automata.run")
        calls_of("automata.run")
        put("automata.run.steps", self.counts["automata.run.steps"] / cycles, "count/cycle")
        calls_of("automata.check_l_deterministic")
        self_ms("automata.check_l_deterministic")
        self_ms("automata.load_automaton")
        ns_per_sym("compression.transducer_output")
        self_ms("compression.match_run")
        predicted = self.counts["match_run.predicted"]
        put(
            "compression.match_run.useful_ratio",
            self.counts["match_run.useful"] / predicted if predicted else 0.0,
            "ratio",
        )
        calls_of("compression.codebook")
        self_ms("compression.codebook")
        self_ms("compression.train_model")
        for name in (
            "compression.cond_encode",
            "compression.cond_decode",
            "compression.ratio_estimate",
            "compression.independence_report",
            "normality.normality_report",
        ):
            ns_per_sym(name)
        calls_of("normality.block_counts")
        self_ms("cli.main")
        for name in SPAN_NAMES:
            put(f"{name}.errors", errors[name], "count/cycle")
        return m

    def memory_metrics(self, op_names):
        """Peak bytes per symbol, and each CLI command's memory estimate
        divided by its measured peak.  ``op_names`` maps op id -> name."""
        m = {}
        for name in PEAK_SPANS:
            calls = [(syms, peak) for n, op, peak, syms in self.peaks if n == name and syms]
            value = 0.0
            if calls:
                syms, peak = max(calls)  # the largest call sets the process peak
                value = peak / syms
            m[f"{name}.peak_b_per_sym"] = {"value": value, "unit": "B/sym"}
        ratios = {}
        for name, op, peak, _ in self.peaks:
            if name == "cli.main" and op in self.estimates and peak > 0:
                ratio = self.estimates[op] / peak
                key = op_names[op]
                ratios[key] = min(ratio, ratios.get(key, math.inf))
        for op in CLI_OPS:
            m[f"cli.mem_estimate_ratio.{op}"] = {"value": ratios.get(op, 0.0), "unit": "ratio"}
        return m, ratios

    def write_spans(self, path, op_names):
        selfs = self.self_times()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("span", "name", "parent", "op", "op_name", "t0_ns", "t1_ns", "self_ns", "syms", "error"))
            for sid, (span, st) in enumerate(zip(self.spans, selfs)):
                name, parent, op, t0, t1, syms, err = span
                w.writerow((sid, name, parent, op, op_names.get(op, "setup"), t0, t1, st, syms, err))
