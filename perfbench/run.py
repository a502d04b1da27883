"""Benchmark of fsindep: four closed-loop workloads driven through its public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload transduce --seed 1 --seconds 20 --trace 0

One client in this process runs the workload's operations in a fixed
cycle; each operation starts when the previous one ends, and only whole
cycles run.  ``--trace 0`` prints the end-to-end metrics, with times
scaled to a reference speed measured next to each operation (the raw
wall-clock values follow as ``wall.*`` lines); ``--trace 1`` prints the
per-layer metrics of a traced run.  See README.md.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed operation (it raised, ``cli.main``
returned nonzero, or its output check or pinned digest failed) is
counted and reported on standard error; the run still exits 0.  So is
an operation after which the process has a second thread, a child process
or a profile or trace hook, since those would slow the reference loop and
read as a speed-up.  The program is imported from ``src/`` of this
checkout and nowhere else.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
REF_LOOP = 60_000  # iterations of the reference loop's first half
REF_NS = 9_000_000  # its time at the reference speed: 9 ms on the baseline machine
SETUP_PROBES = 8  # fresh processes that repeat the set-up after the timed cycles
WORKLOAD_NAMES = ("transduce", "scalar-runs", "codec", "pipeline")


class SetupError(Exception):
    pass


def import_program():
    """Import fsindep from this checkout's ``src/`` and the workload scripts."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import fsindep
    except ImportError as e:
        raise SetupError(f"cannot import fsindep from {SRC}: {e}") from None
    if os.path.dirname(os.path.dirname(os.path.abspath(fsindep.__file__))) != SRC:
        raise SetupError(f"fsindep was imported from {fsindep.__file__}, not {SRC}")
    import workloads

    return workloads


# the reference loop's second half steps through this table the way the
# transducer engine steps through its transitions
_REF_TABLE = {(q, a): ((5 * q + a) % 64, (a,)) for q in range(64) for a in range(2)}


def reference_ns():
    """Wall time of a fixed pure-Python loop that touches no fsindep code.

    The benchmark host is a shared VM whose speed drifts by up to 2x over
    seconds; this loop, timed next to each operation, measures that drift.
    Integer arithmetic plus dict and list work tracked the drift of the
    workloads' operations better than either alone.
    """
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(REF_LOOP):
        s += i
    q, out = 0, []
    for i in range(REF_LOOP // 2):
        q, label = _REF_TABLE[q, i & 1]
        out.extend(label)
    return time.perf_counter_ns() - t0


def yardstick_disturbances():
    """What this process runs besides the client that would slow the reference loop.

    A second Python thread contends for the GIL, a child process for the
    two cores, and a profile or trace hook taxes every call; each one slows
    ``reference_ns`` and so would shrink every scaled time.
    """
    found = []
    if threading.active_count() > 1:
        found.append(f"{threading.active_count()} threads")
    if sys.getprofile() is not None or sys.gettrace() is not None:
        found.append("a profile or trace hook")
    try:
        # WNOWAIT leaves any exited child unreaped; None means a child still runs
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        found.append("a child process")
    except ChildProcessError:
        pass
    return found


class Runner:
    """Runs operations, times them, checks them and tallies the outcome."""

    def __init__(self, workloads, name, seed, fixtures, fixture_paths, workdir, digests):
        self.w = workloads
        self.name = name
        self.ops = workloads.WORKLOADS[name]
        self.seed = seed
        self.fixtures = fixtures
        self.fixture_paths = fixture_paths
        self.workdir = workdir
        self.digests = digests  # op name -> [sha256 hex]
        self.attempted = 0
        self.failed = 0
        self.op_names = {}

    def _check_digests(self, op, cycle, blobs):
        if op.seeded and (self.seed != DEFAULT_SEED or cycle != 0):
            return
        got = [hashlib.sha256(b).hexdigest() for b in blobs]
        want = self.digests.get(op.name)
        if want is None:
            raise self.w.CheckFailed(f"no pinned digest for {op.name}")
        if got != want:
            raise self.w.CheckFailed(f"output digest {got} != pinned {want}")

    def run_op(self, cycle, pos, tracer=None):
        """Run operation ``pos`` of cycle ``cycle``; return its wall time in ns."""
        op = self.ops[pos]
        op_id = cycle * len(self.ops) + pos
        self.op_names[op_id] = op.name
        ctx = self.w.Context(
            self.w.F.derive_seed(self.seed, op_id), self.fixtures, self.fixture_paths, self.workdir
        )
        self.attempted += 1
        result = error = None
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                result = op.run(ctx)
            else:
                result = tracer.run_op(op_id, lambda: op.run(ctx))
        except Exception:
            error = traceback.format_exc()
        elapsed = time.perf_counter_ns() - t0
        if error is None:
            try:
                self._check_digests(op, cycle, op.check(ctx, result))
            except Exception:
                error = traceback.format_exc()
        disturbances = yardstick_disturbances()
        if error is None and disturbances:
            error = f"left running after the operation: {', '.join(disturbances)}\n"
        if error is not None:
            self.failed += 1
            print(f"FAILED {self.name}/{op.name} (op {op_id}):\n{error}", file=sys.stderr)
        return elapsed

    def cycle(self, index, tracer=None):
        """Run cycle ``index`` once; return (per-op wall times in ns, symbols)."""
        times = [self.run_op(index, pos, tracer) for pos in range(len(self.ops))]
        return times, sum(op.symbols for op in self.ops)

    def cycles(self, seconds):
        """Run whole cycles while the mean cycle so far still fits in ``seconds``.

        The reference loop runs before the first operation and after each
        one.  Returns (per-op wall times in ns, the same scaled to the
        reference speed by the mean of the loops on either side, the
        loops' times in ns, symbols requested, cycles run).
        """
        wall, scaled, symbols, done = [], [], 0, 0
        start = time.perf_counter()
        refs = [reference_ns()]
        while not done or (time.perf_counter() - start) * (done + 1) / done <= seconds:
            for pos, op in enumerate(self.ops):
                t = self.run_op(done, pos)
                refs.append(reference_ns())
                wall.append(t)
                scaled.append(t * 2 * REF_NS / (refs[-2] + refs[-1]))
                symbols += op.symbols
            done += 1
        return wall, scaled, refs, symbols, done


def probe_setups(workload, n):
    """Repeat this process's set-up in ``n`` fresh processes, one at a time;
    return their (set-up s, reference loop ns) pairs."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        setup_s, ref_ns = proc.stdout.split()
        out.append((float(setup_s), int(ref_ns)))
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def timing_metrics(setups, times, symbols):
    """setup_s, msym_per_s, op_ms.p50 and op_ms.p90 from set-up times in s
    and per-op times in ns."""
    ms = [t / 1e6 for t in times]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "msym_per_s": metric(symbols / (sum(times) / 1e9) / 1e6, "Msym/s"),
        "op_ms.p50": metric(statistics.median(ms), "ms"),
        "op_ms.p90": metric(statistics.quantiles(ms, n=10)[8], "ms"),  # every cycle has >= 2 ops
    }


def end_to_end(runner, seconds, setup):
    """End-to-end metrics, time scaled to the reference speed; the raw
    wall-clock values are returned apart, for the human-readable lines."""
    wall, scaled, refs, symbols, done = runner.cycles(seconds)
    setups = [setup] + probe_setups(runner.name, SETUP_PROBES)
    metrics = timing_metrics([s * REF_NS / ref for s, ref in setups], scaled, symbols)
    metrics["maxrss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
    )
    raw = timing_metrics([s for s, _ in setups], wall, symbols)
    raw["ref_loop_ms.p50"] = metric(statistics.median(refs) / 1e6, "ms")
    return done, metrics, raw


def traced(runner, seconds, tracer):
    """Each cycle untraced and traced, in alternating order, then one
    memory-pass cycle.  The untraced twin gives the tracing overhead."""
    import tracemalloc

    import tracing

    plain = with_trace = 0
    done = 0
    start = time.perf_counter()
    while not done or (time.perf_counter() - start) * (done + 1) / done <= seconds:
        for traced_run in ((False, True) if done % 2 == 0 else (True, False)):
            if traced_run:
                tracer.install()
                try:
                    with_trace += sum(runner.cycle(done, tracer)[0])
                finally:
                    tracer.uninstall()
            else:
                plain += sum(runner.cycle(done)[0])
        done += 1
    metrics = tracer.layer_metrics(done)
    overhead = (with_trace - plain) / 1e6
    metrics["trace.overhead_ms"] = metric(overhead / done, "ms/cycle")
    metrics["trace.overhead_pct"] = metric(100 * overhead / (plain / 1e6), "%")

    mem = tracing.Tracer("memory").install()
    tracemalloc.start()
    try:
        runner.cycle(0, mem)
    finally:
        tracemalloc.stop()
        mem.uninstall()
    peaks, ratios = mem.memory_metrics(runner.op_names)
    metrics.update(peaks)
    for op, ratio in sorted(ratios.items()):
        if ratio < 1:
            print(f"finding: cli.mem_estimate_ratio.{op} = {ratio:.3f} < 1: "
                  "the memory cap under-estimates this command")
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    tracer.write_spans(
        os.path.join(out, f"spans-{runner.name}-seed{runner.seed}.csv"), runner.op_names
    )
    return done, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        w = import_program()
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer("time").install()  # catches the fixture loads
        try:
            fixtures, fixture_paths = w.load_fixtures(ROOT)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup = (time.perf_counter() - _T0, reference_ns())
        with open(DIGESTS) as fh:
            digests = json.load(fh)
    except (SetupError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(*setup)
        return 0

    workdir = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(
            w, args.workload, args.seed, fixtures, fixture_paths, workdir,
            digests.get(args.workload, {}),
        )
        raw = {}
        if args.trace:
            done, metrics = traced(runner, args.seconds, tracer)
        else:
            done, metrics, raw = end_to_end(runner, args.seconds, setup)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} cycles={done} "
          f"ops={runner.attempted} (op_ms samples)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, m in raw.items():
        print(f"wall.{name} {m['value']:.6g} {m['unit']} (not scaled)")
    print(f"fail_ratio {runner.failed / runner.attempted:.6g} ({runner.failed}/{runner.attempted})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
