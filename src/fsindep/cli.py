"""Command line interface.

Exit codes: 0 success, 2 invalid usage or malformed input, 3 domain
error (the machine rejects the input, a stream cannot be decoded), 4
resource cap exceeded.  FSINDEP_MAX_MEM_MB caps a command's estimated
working set, checked before any symbol is read: a fixed part plus, per
worker and per generator spec read (word files are ``file`` specs), the
n symbols taken and what the spec's atoms hold to produce them.

Generator specs are a tiny composable language shared by several
subcommands::

    selfsim:b=2            the self-similar stream over base b
    rand:seed=42,b=2       seeded i.i.d. uniform symbols
    periodic:word=0110     endless repetition of a word
    file:path=x.word,b=2   symbols read from a word file
    odd(SPEC) even(SPEC)   position subsequences
    join(SPEC,SPEC)        interleaving

Omitting rand's seed is allowed in multi-trial commands, where a
per-trial seed is derived from --seed; elsewhere it is an error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from dataclasses import dataclass

from .words import Alphabet, word, read_word_file, write_word_file
from .sources import (
    DecodeDeadEnd,
    EvenSource,
    JoinSource,
    NotDeterministicError,
    OddSource,
    PeriodicSource,
    RandomSource,
    SourceExhausted,
    TransducerHalted,
    derive_seed,
    file_source,
)

# Each command imports the machines, towers, statistics and codecs it runs
# in its own body, so a command loads only the modules its work needs.


class MemoryCapExceeded(RuntimeError):
    pass


class DomainFailure(RuntimeError):
    """Raised by command bodies for machine-rejects-input style failures."""


# _estimate's constants: tracemalloc peaks of the commands plus a margin
_BASE_BYTES = 1 << 20  # argument parsing, compiled tables, engine windows
# per symbol a command takes from a source, a rand or periodic atom
# produces or a tower holds (its stages, and the build of the last), and
# per byte of a word file, read whole
_SYMBOL_BYTES = 3


def _estimate(n: int, specs, workers: int = 1, extra: int = 0) -> int:
    """Bytes for n symbols of each of specs on each of workers, plus extra;
    a worker holds one tower per base, as long as the most specs read of it."""
    reads = {}
    per_worker = sum(_SYMBOL_BYTES * n + spec.atom_bytes(n, reads) for spec in specs)
    for b, m in reads.items():
        tower = b  # whole stages: the first b**j >= m symbols
        while tower < m:
            tower *= b
        per_worker += _SYMBOL_BYTES * tower
    return _BASE_BYTES + workers * per_worker + extra


def _check_memory(n_bytes: int):
    cap = os.environ.get("FSINDEP_MAX_MEM_MB")
    if not cap:
        return
    try:
        cap_mb = int(cap)
    except ValueError:
        raise MemoryCapExceeded(f"FSINDEP_MAX_MEM_MB is not an integer: {cap!r}")
    if n_bytes > cap_mb * 1024 * 1024:
        raise MemoryCapExceeded(
            f"estimated working set {-(-n_bytes // (1024 * 1024))} MiB exceeds "
            f"FSINDEP_MAX_MEM_MB={cap_mb}"
        )


# ---------------------------------------------------------------------------
# generator specs


# atom kind -> (its parameters in canonical order, the one it cannot omit)
_ATOMS = {
    "selfsim": (("b",), None),
    "rand": (("seed", "b"), None),
    "periodic": (("word", "b"), "word"),
    "file": (("path", "b"), "path"),
}
# wrapper kind -> the number of specs it takes
_WRAPPERS = {"odd": 1, "even": 1, "join": 2}


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    params: tuple  # ((key, value), ...) in canonical order
    children: tuple = ()

    def canonical(self) -> str:
        if self.kind in _WRAPPERS:
            inner = ",".join(c.canonical() for c in self.children)
            return f"{self.kind}({inner})"
        if not self.params:
            return self.kind
        return self.kind + ":" + ",".join(f"{k}={v}" for k, v in self.params)

    def get(self, key, default=None):
        return dict(self.params).get(key, default)

    def atom_bytes(self, n: int, reads: dict) -> int:
        """Bytes the atoms under this spec hold while it produces n symbols;
        a selfsim atom holds none, but raises reads[b] to what it reads."""
        if self.kind in ("odd", "even"):
            return self.children[0].atom_bytes(2 * n, reads)
        if self.kind == "join":
            x, y = self.children
            return x.atom_bytes((n + 1) // 2, reads) + y.atom_bytes(n // 2, reads)
        if self.kind == "selfsim":
            b = int(self.get("b", "2"))
            reads[b] = max(reads.get(b, 0), n)
            return 0
        if self.kind == "file":
            return _SYMBOL_BYTES * os.path.getsize(self.get("path"))
        return _SYMBOL_BYTES * n

    def build(self, default_seed=None):
        b = int(self.get("b", "2"))
        if self.kind == "selfsim":
            from .perfect import SelfSimilarSource

            return SelfSimilarSource(b)
        if self.kind == "rand":
            seed = self.get("seed")
            if seed is None:
                if default_seed is None:
                    raise ValueError("rand needs seed=... here (no trial seed available)")
                seed = default_seed
            return RandomSource(Alphabet(b), int(seed))
        if self.kind == "periodic":
            return PeriodicSource(word(self.get("word"), base=b))
        if self.kind == "file":
            return file_source(self.get("path"), b)
        if self.kind in ("odd", "even"):
            half = OddSource if self.kind == "odd" else EvenSource
            return half(self.children[0].build(default_seed))
        if self.kind == "join":
            seeds = (default_seed, None if default_seed is None else derive_seed(default_seed, 1))
            return JoinSource(
                self.children[0].build(seeds[0]), self.children[1].build(seeds[1])
            )
        raise ValueError(f"unknown generator kind {self.kind!r}")


def _split_top(s: str):
    """Split on commas outside parentheses, re-attaching key=value overflow."""
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {s!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {s!r}")
    parts.append("".join(cur))
    # a chunk like "b=2" continues the previous atomic spec's parameters
    merged = []
    for p in parts:
        p = p.strip()
        if (
            merged
            and "=" in p.split("(", 1)[0]
            and ":" not in p.split("=", 1)[0]
            and not merged[-1].endswith(")")
        ):
            merged[-1] += "," + p
        else:
            merged.append(p)
    return merged


def parse_generator(s: str) -> GeneratorSpec:
    s = s.strip()
    if not s:
        raise ValueError("empty generator spec")
    for kind, want in _WRAPPERS.items():
        if s.startswith(kind + "(") and s.endswith(")"):
            inner = s[len(kind) + 1 : -1]
            args = [parse_generator(a) for a in _split_top(inner)]
            if len(args) != want:
                raise ValueError(f"{kind} takes {want} argument(s), got {len(args)}")
            return GeneratorSpec(kind, (), tuple(args))
    head, _, tail = s.partition(":")
    head = head.strip()
    if head not in _ATOMS:
        raise ValueError(f"unknown generator kind {head!r}")
    order, need = _ATOMS[head]
    params = {}
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key.strip():
                raise ValueError(f"bad parameter {item!r} in generator spec")
            params[key.strip()] = value.strip()
    for k in params:
        if k not in order:
            raise ValueError(f"unknown parameter {k!r} for {head}")
    if need and not params.get(need):
        raise ValueError(f"{head} needs {need}=...")
    for key in ("seed", "b"):
        try:
            int(params.get(key, "0"))
        except ValueError:
            bad = f"{key}={params[key]} is not an integer"
            raise ValueError(f"generator spec {s!r}: {bad}") from None
    try:
        b = Alphabet(int(params.get("b", "2"))).size
    except ValueError as e:
        raise ValueError(f"generator spec {s!r}: b={params['b']}: {e}") from None
    if head == "periodic":
        try:
            word(params["word"], base=b)
        except ValueError as e:
            raise ValueError(f"generator spec {s!r}: word={params['word']}: {e}") from None
    canon = tuple((k, params[k]) for k in order if k in params)
    return GeneratorSpec(head, canon)


def _file_spec(path, base: int) -> GeneratorSpec:
    return GeneratorSpec("file", (("path", path), ("b", str(base))))


# ---------------------------------------------------------------------------
# output helpers


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_csv(rows, header, path, summary=()):
    """Rows of values -> RFC-4180 style text (LF endings), written in one call but not
    atomically; if to a file, prints summary's (key, value) pairs, read only then, as a line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if path:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        if summary:
            print(" ".join(f"{k}={_fmt(v)}" for k, v in summary))
    else:
        sys.stdout.write(text)


def _emit_ratios(est, path):
    rows = [(c, m, m / c if c else 0.0) for c, m in est.checkpoints]
    summary = (("ratio", est.final_ratio), ("min_ratio", est.min_ratio))
    _emit_csv(rows, ("n_in", "n_out", "ratio"), path, summary)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    spec = parse_generator(args.gen)
    _check_memory(_estimate(args.n, [spec]))
    w = spec.build().prefix(args.n)
    if args.out:
        write_word_file(args.out, w)
    else:
        print(w.to_text())
    return 0


def _table_bytes(b: int, max_block: int, n: int) -> int:
    """Bytes of a normality report's block tables, as 16 B per entry of the
    largest, which is live with the next length's.  Traced over 1-2 random
    symbols per entry, a report peaks at 13.4 B/entry at most (b = 2, even
    top length; 12.8 at b = 16, top length 5): a 19 % margin."""
    from .normality import _TABLE_CAP

    ell = max(0, min(max_block, n, _TABLE_CAP.bit_length()))
    return 16 * min(b**ell, _TABLE_CAP)


def _cmd_stats(args) -> int:
    from .normality import normality_report

    # the file holds one byte per symbol, plus at most a line terminator
    size = os.path.getsize(args.word)
    tables = _table_bytes(args.base, args.max_block, size)
    _check_memory(_estimate(size, [_file_spec(args.word, args.base)], extra=tables))
    w = read_word_file(args.word, args.base)
    report = normality_report(w, args.max_block, threshold=args.threshold)
    rows = []
    for ell, disc in report.discrepancies.items():
        rows.append(
            (ell, len(w) // ell, disc, report.limits[ell], int(ell in report.flagged))
        )
    verdict = "plausibly-normal" if report.plausibly_normal else "deviant"
    summary = (("n", len(w)), ("max_block", report.max_block), ("verdict", verdict))
    _emit_csv(rows, ("ell", "blocks", "discrepancy", "limit", "flagged"), args.csv, summary)
    return 0


def _cmd_check_automaton(args) -> int:
    from .automata import check_l_deterministic, load_automaton

    M = load_automaton(args.automaton)
    report = check_l_deterministic(M, args.ell)
    print(f"deterministic: {'yes' if report.deterministic else 'no'}")
    for v in report.violations:
        where = f" at {v.state}" if v.state is not None else ""
        if v.kind in ("read-pattern", "same-input", "long-input-label"):
            labels = " | ".join(
                f"{t.source} {t.label_text(M.alphabet)} {t.target}" for t in v.pair
            )
            print(f"violation {v.kind}{where}: {labels}")
        else:  # initial-not-singleton, the states as the text format writes them
            print(f"violation {v.kind}{where}: {','.join(v.pair)}")
    return 0


def _input_spec(args, gen_opt="--gen", file_opt="--input") -> GeneratorSpec:
    """The spec a generator-spec option names, else a word-file option's."""
    spec, path = (getattr(args, opt[2:].replace("-", "_")) for opt in (gen_opt, file_opt))
    if spec:
        return parse_generator(spec)
    if not path:
        raise ValueError(f"need {gen_opt} or {file_opt}")
    return _file_spec(path, args.base)


def _cmd_compress(args) -> int:
    from .automata import load_automaton
    from .compression import plain_ratio

    M = load_automaton(args.automaton)
    spec = _input_spec(args)
    _check_memory(_estimate(args.n, [spec]))
    est = plain_ratio(M, spec.build(), args.n)
    _emit_ratios(est, args.csv)
    if est.halted:
        raise DomainFailure(f"run halted ({est.halt_reason}) after {est.n} symbols")
    return 0


def _cmd_condcompress(args) -> int:
    from .compression import conditional_ratio_estimate

    specs = [_input_spec(args), _input_spec(args, "--ref-gen", "--ref")]
    _check_memory(_estimate(args.n, specs))
    x, y = (spec.build() for spec in specs)
    _emit_ratios(conditional_ratio_estimate(x, y, args.n, args.k), args.csv)
    return 0


def _run_trials(args, fn, specs, *fixed):
    """fn((specs, *fixed, seed, t)) for t = 1 .. --trials, on --jobs workers."""
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    workers = min(args.jobs, args.trials)
    _check_memory(_estimate(args.n, specs, workers))
    work = [(specs, *fixed, args.seed, t) for t in range(1, args.trials + 1)]
    if workers == 1:
        return [fn(item) for item in work]
    from concurrent.futures import ProcessPoolExecutor  # slow to import; pools only
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, work))


def _independence_trial(packed):
    from .compression import independence_report

    (x, y), n, k, seed, trial = packed
    sx, sy = x.build(derive_seed(seed, trial, 0)), y.build(derive_seed(seed, trial, 1))
    rep = independence_report(sx, sy, n, k)
    return (trial, n, k, rep.rho_x, rep.rho_y, rep.rho_x_given_y, rep.rho_y_given_x)


_IND_HEADER = ("trial", "n", "k", "rho_x", "rho_y", "rho_x_given_y", "rho_y_given_x")


def _cmd_independence(args) -> int:
    specs = (parse_generator(args.x_gen), parse_generator(args.y_gen))
    rows = _run_trials(args, _independence_trial, specs, args.n, args.k)
    _emit_csv(rows, _IND_HEADER, args.csv, _gap_summary(rows))
    return 0


def _gap_summary(rows):
    import statistics  # slow to import; summaries only
    yield "trials", len(rows)
    yield "median_gap_x", statistics.median(abs(r[5] - r[3]) for r in rows)
    yield "median_gap_y", statistics.median(abs(r[6] - r[4]) for r in rows)


def _cmd_join_dependence(args) -> int:
    from .automata import odd_projection_transducer
    from .compression import independence_report, match_run_compress

    x = f"selfsim:b={args.base}"
    odd, even = (parse_generator(f"{half}({x})") for half in ("odd", "even"))
    # the match run predicts odd(x) as odd(even(x)), which reads 4n symbols
    # of x; off base 2, where x[2n] = x[n] fails, its first window mismatches
    matched = f"odd(even({x}))" if args.base == 2 else f"even({x})"
    _check_memory(_estimate(args.n, [odd, parse_generator(matched)]))
    # odd(x) alone looks incompressible, but even(x) predicts it exactly
    # (the stream satisfies x[2n] = x[n]), so the match-run compressor
    # conditioned on even(x) drives the ratio down to 1/k.
    rep = independence_report(odd.build(), even.build(), args.n, args.k)
    T = odd_projection_transducer(Alphabet(args.base))
    _, mr = match_run_compress(T, args.k, odd.build(), even.build(), args.n)
    rows = [
        ("n", args.n),
        ("k", args.k),
        ("rho_odd", rep.rho_x),
        ("rho_even", rep.rho_y),
        ("rho_odd_given_even_blocks", rep.rho_x_given_y),
        ("rho_even_given_odd_blocks", rep.rho_y_given_x),
        ("rho_odd_given_even_matchrun", mr.final_ratio),
    ]
    _emit_csv(rows, ("metric", "value"), args.csv, (rows[2], rows[6]))
    return 0


def _measure_one_trial(packed):
    from .compression import unconditional_ratio_estimate

    (gen,), n, k, seed, trial = packed
    src = gen.build(derive_seed(seed, trial, 0))
    return (trial, n, k, unconditional_ratio_estimate(src, n, k).final_ratio)


def _cmd_measure_one(args) -> int:
    import statistics  # slow to import; summaries only
    specs = (parse_generator(args.gen),)
    rows = _run_trials(args, _measure_one_trial, specs, args.n, args.k)
    ratios = [r[3] for r in rows]
    median = statistics.median(ratios)
    rows += [("min", args.n, args.k, min(ratios)), ("median", args.n, args.k, median)]
    summary = (("trials", args.trials), ("median_rho", median))
    _emit_csv(rows, ("trial", "n", "k", "rho"), args.csv, summary)
    return 0


def _cmd_join_normal(args) -> int:
    from .normality import _table_guard, normality_report

    x = f"selfsim:b={args.base}"
    _table_guard(args.base, min(args.max_block, args.n))  # before any source is built
    specs = [parse_generator(s) for s in (x, f"join(odd({x}),even({x}))")]
    tables = _table_bytes(args.base, args.max_block, args.n)
    _check_memory(_estimate(args.n, specs, extra=tables))
    xw, rejoined = (spec.build().prefix(args.n) for spec in specs)
    report = normality_report(xw, args.max_block)
    rows = [("join_roundtrip", int(rejoined == xw))]
    for ell, disc in report.discrepancies.items():
        rows.append((f"discrepancy_{ell}", disc))
    rows.append(("flagged", len(report.flagged)))
    _emit_csv(rows, ("metric", "value"), args.csv, (rows[0], rows[-1]))
    return 0


def _cmd_perfect_sequence(args) -> int:
    from .perfect import build_sequence, is_perfect

    tower = args.base ** (args.stages + 1)  # stages 1 .. s fill b**(s + 1) symbols
    _check_memory(_estimate(tower, [parse_generator(f"selfsim:b={args.base}")]))
    stages = build_sequence(args.stages, base=args.base)
    rows = []
    for st in stages:
        text = st.word.to_text() if len(st.word) <= 64 else ""
        rows.append(
            (st.n, st.ell, len(st.word), st.rule, int(is_perfect(st.word, st.ell)), text)
        )
    _emit_csv(rows, ("n", "ell", "length", "rule", "perfect", "word"), args.csv)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _base(text: str) -> int:
    """A --base value: an alphabet size, as Alphabet checks it."""
    try:
        return Alphabet(int(text)).size
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _add_csv(p):
    p.add_argument("--csv", metavar="PATH", help="write CSV here instead of stdout")


def _add_trials(p):
    """The options of block-coder trials: what _run_trials reads, and -k."""
    p.add_argument("-n", type=int, default=1 << 18)
    p.add_argument("-k", type=int, default=8)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=20240823)
    p.add_argument("--jobs", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fsindep",
        description="finite-state compression and independence experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a prefix of a generated stream")
    p.add_argument("--gen", required=True, help="generator spec")
    p.add_argument("-n", type=int, required=True, help="prefix length")
    p.add_argument("--out", help="output word file (default: stdout)")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("stats", help="block statistics of a word file")
    p.add_argument("--word", required=True)
    p.add_argument("--base", type=_base, default=2)
    p.add_argument("--max-block", type=int, default=8)
    p.add_argument("--threshold", type=float, default=3.0)
    _add_csv(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("check-automaton", help="determinism report for an automaton file")
    p.add_argument("--automaton", required=True)
    p.add_argument("--ell", type=int, required=True, help="number of input tapes")
    p.set_defaults(fn=_cmd_check_automaton)

    p = sub.add_parser("compress", help="transducer output/input ratio on a stream")
    p.add_argument("--automaton", required=True, help="2-tape transducer file")
    p.add_argument("--input", help="word file input")
    p.add_argument("--gen", help="generator spec input")
    p.add_argument("--base", type=_base, default=2)
    p.add_argument("-n", type=int, required=True)
    _add_csv(p)
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser(
        "condcompress", help="block-coding ratio of an input given a reference"
    )
    p.add_argument("--input", help="primary word file")
    p.add_argument("--gen", help="primary generator spec")
    p.add_argument("--ref", help="reference word file")
    p.add_argument("--ref-gen", help="reference generator spec")
    p.add_argument("--base", type=_base, default=2)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, default=8, help="block length")
    _add_csv(p)
    p.set_defaults(fn=_cmd_condcompress)

    p = sub.add_parser("independence", help="two-sided conditional ratio trials")
    p.add_argument("--x-gen", required=True)
    p.add_argument("--y-gen", required=True)
    _add_trials(p)
    _add_csv(p)
    p.set_defaults(fn=_cmd_independence)

    p = sub.add_parser("experiment", help="canned experiments")
    experiments = p.add_subparsers(dest="name", required=True)

    p = experiments.add_parser("join-dependence", help="odd(x) given even(x), x self-similar")
    p.add_argument("-n", type=int, default=1 << 18)
    p.add_argument("-k", type=int, default=8)
    p.add_argument("--base", type=_base, default=2)
    _add_csv(p)
    p.set_defaults(fn=_cmd_join_dependence)

    p = experiments.add_parser("measure-one", help="block-coder ratio trials of one source")
    p.add_argument("--gen", default="rand", help="source under test")
    _add_trials(p)
    _add_csv(p)
    p.set_defaults(fn=_cmd_measure_one)

    p = experiments.add_parser("join-normal", help="x self-similar: join(odd(x), even(x)) = x")
    p.add_argument("-n", type=int, default=1 << 18)
    p.add_argument("--base", type=_base, default=2)
    p.add_argument("--max-block", type=int, default=8)
    _add_csv(p)
    p.set_defaults(fn=_cmd_join_normal)

    p = sub.add_parser("perfect-sequence", help="stages of the perfect-word tower")
    p.add_argument("--stages", type=int, default=12)
    p.add_argument("--base", type=_base, default=2)
    _add_csv(p)
    p.set_defaults(fn=_cmd_perfect_sequence)

    return ap


# parsing leaves no state in the parser, so one serves every main() call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except MemoryCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (DomainFailure, TransducerHalted, DecodeDeadEnd, NotDeterministicError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, SourceExhausted, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
