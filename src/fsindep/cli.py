"""Command line interface.

Exit codes: 0 success, 2 invalid usage or malformed input, 3 domain
error (the machine rejects the input, a stream cannot be decoded), 4
resource cap exceeded.  Set FSINDEP_MAX_MEM_MB to bound the working-set
estimate of a command.

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
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .words import Alphabet, word, read_word_file, write_word_file
from .sources import (
    EvenSource,
    JoinSource,
    LiteralSource,
    OddSource,
    PeriodicSource,
    RandomSource,
    SourceExhausted,
    constant_source,
    derive_seed,
    file_source,
)
from .automata import (
    NotDeterministicError,
    check_l_deterministic,
    load_automaton,
    odd_projection_transducer,
)
from .perfect import SelfSimilarSource, build_sequence, is_perfect
from .normality import _TABLE_CAP, normality_report
from .compression import (
    DecodeDeadEnd,
    TransducerHalted,
    conditional_ratio_estimate,
    independence_report,
    match_run_compress,
    plain_ratio,
)


class MemoryCapExceeded(RuntimeError):
    pass


class DomainFailure(RuntimeError):
    """Raised by command bodies for machine-rejects-input style failures."""


# Working-set estimates are tracemalloc peaks measured on the commands:
# a fixed part (argument parsing, compiled tables, the run engine's input
# windows) plus bytes per requested symbol.
_BASE_BYTES = 1 << 20


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
            f"estimated working set {n_bytes // (1024 * 1024)} MiB exceeds "
            f"FSINDEP_MAX_MEM_MB={cap_mb}"
        )


# ---------------------------------------------------------------------------
# generator specs


_ATOM_KINDS = ("selfsim", "rand", "periodic", "file")
_WRAP_KINDS = ("odd", "even", "join")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    params: tuple  # ((key, value), ...) in canonical order
    children: tuple = ()

    def canonical(self) -> str:
        if self.kind in _WRAP_KINDS:
            inner = ",".join(c.canonical() for c in self.children)
            return f"{self.kind}({inner})"
        if not self.params:
            return self.kind
        return self.kind + ":" + ",".join(f"{k}={v}" for k, v in self.params)

    def get(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def build(self, default_seed=None):
        b = int(self.get("b", "2"))
        if self.kind == "selfsim":
            return SelfSimilarSource(b)
        if self.kind == "rand":
            seed = self.get("seed")
            if seed is None:
                if default_seed is None:
                    raise ValueError("rand needs seed=... here (no trial seed available)")
                seed = default_seed
            return RandomSource(Alphabet(b), int(seed))
        if self.kind == "periodic":
            w = self.get("word")
            if not w:
                raise ValueError("periodic needs word=...")
            return PeriodicSource(word(w, base=b))
        if self.kind == "file":
            path = self.get("path")
            if not path:
                raise ValueError("file needs path=...")
            return file_source(path, b)
        if self.kind == "odd":
            return OddSource(self.children[0].build(default_seed))
        if self.kind == "even":
            return EvenSource(self.children[0].build(default_seed))
        if self.kind == "join":
            seeds = (default_seed, None if default_seed is None else derive_seed(default_seed, 1))
            return JoinSource(
                self.children[0].build(seeds[0]), self.children[1].build(seeds[1])
            )
        raise ValueError(f"unknown generator kind {self.kind!r}")


_PARAM_ORDER = {
    "selfsim": ("b",),
    "rand": ("seed", "b"),
    "periodic": ("word", "b"),
    "file": ("path", "b"),
}


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
    for kind in _WRAP_KINDS:
        if s.startswith(kind + "(") and s.endswith(")"):
            inner = s[len(kind) + 1 : -1]
            args = [parse_generator(a) for a in _split_top(inner)]
            want = 2 if kind == "join" else 1
            if len(args) != want:
                raise ValueError(f"{kind} takes {want} argument(s), got {len(args)}")
            return GeneratorSpec(kind, (), tuple(args))
    head, _, tail = s.partition(":")
    head = head.strip()
    if head not in _ATOM_KINDS:
        raise ValueError(f"unknown generator kind {head!r}")
    params = {}
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key.strip():
                raise ValueError(f"bad parameter {item!r} in generator spec")
            params[key.strip()] = value.strip()
    order = _PARAM_ORDER[head]
    for k in params:
        if k not in order:
            raise ValueError(f"unknown parameter {k!r} for {head}")
    canon = tuple((k, params[k]) for k in order if k in params)
    return GeneratorSpec(head, canon)


# ---------------------------------------------------------------------------
# output helpers


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_csv(rows, header, path):
    """Rows of values -> RFC-4180 style text (LF endings), atomically written."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if path:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _ratio_rows(est):
    return [(c, m, m / c if c else 0.0) for c, m in est.checkpoints]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    spec = parse_generator(args.gen)
    _check_memory(_BASE_BYTES + 32 * args.n)
    src = spec.build()
    w = src.prefix(args.n)
    if args.out:
        write_word_file(args.out, w)
    else:
        print(w.to_text())
    return 0


def _cmd_stats(args) -> int:
    # checked before reading: the file holds one byte per symbol, plus at
    # most a line terminator.  Counting peaks at 13 B/symbol: the symbols,
    # their int64 copy and the ids of the length-2 blocks.  The block table
    # of length ell holds b**ell int64 counts, and max_deviation makes three
    # float64 arrays of that size; only the largest table counts, as each
    # is freed before the next is built.
    size = os.path.getsize(args.word)
    ell = max(0, min(args.max_block, size, _TABLE_CAP.bit_length()))
    _check_memory(_BASE_BYTES + 14 * size + 32 * min(args.base**ell, _TABLE_CAP))
    w = read_word_file(args.word, args.base)
    report = normality_report(w, args.max_block, threshold=args.threshold)
    rows = []
    for ell, disc in report.discrepancies.items():
        rows.append(
            (ell, len(w) // ell, disc, report.limits[ell], int(ell in report.flagged))
        )
    _emit_csv(rows, ("ell", "blocks", "discrepancy", "limit", "flagged"), args.csv)
    if args.csv:
        verdict = "plausibly-normal" if report.plausibly_normal else "deviant"
        print(f"n={len(w)} max_block={report.max_block} verdict={verdict}")
    return 0


def _cmd_check_automaton(args) -> int:
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
        else:
            print(f"violation {v.kind}{where}: {v.pair}")
    return 0


def _build_input_source(args, gen_opt="--gen", file_opt="--input"):
    """The source a generator-spec option names, else a word-file option."""
    spec, path = (getattr(args, opt[2:].replace("-", "_")) for opt in (gen_opt, file_opt))
    if spec:
        return parse_generator(spec).build()
    if not path:
        raise ValueError(f"need {gen_opt} or {file_opt}")
    return file_source(path, args.base)


def _cmd_compress(args) -> int:
    M = load_automaton(args.automaton)
    src = _build_input_source(args)
    _check_memory(_BASE_BYTES + 48 * args.n)
    est = plain_ratio(M, src, args.n)
    _emit_csv(_ratio_rows(est), ("n_in", "n_out", "ratio"), args.csv)
    if args.csv:
        print(f"ratio={_fmt(est.final_ratio)} min_ratio={_fmt(est.min_ratio)}")
    if est.halted:
        raise DomainFailure(f"run halted ({est.halt_reason}) after {est.n} symbols")
    return 0


def _cmd_condcompress(args) -> int:
    x = _build_input_source(args)
    y = _build_input_source(args, "--ref-gen", "--ref")
    _check_memory(64 * args.n)
    est = conditional_ratio_estimate(x, y, args.n, args.k)
    _emit_csv(_ratio_rows(est), ("n_in", "n_out", "ratio"), args.csv)
    if args.csv:
        print(f"ratio={_fmt(est.final_ratio)} min_ratio={_fmt(est.min_ratio)}")
    return 0


def _independence_trial(packed):
    x_spec, y_spec, n, k, seed, trial = packed
    sx = parse_generator(x_spec).build(derive_seed(seed, trial, 0))
    sy = parse_generator(y_spec).build(derive_seed(seed, trial, 1))
    rep = independence_report(sx, sy, n, k)
    return (trial, n, k, rep.rho_x, rep.rho_y, rep.rho_x_given_y, rep.rho_y_given_x)


def _run_trials(fn, work, jobs):
    if jobs <= 1:
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, work))


_IND_HEADER = ("trial", "n", "k", "rho_x", "rho_y", "rho_x_given_y", "rho_y_given_x")


def _cmd_independence(args) -> int:
    parse_generator(args.x_gen)
    parse_generator(args.y_gen)  # validate before spawning workers
    # each worker holds one trial at a time
    _check_memory(64 * args.n * max(1, min(args.jobs, args.trials)))
    work = [
        (args.x_gen, args.y_gen, args.n, args.k, args.seed, t)
        for t in range(1, args.trials + 1)
    ]
    rows = _run_trials(_independence_trial, work, args.jobs)
    _emit_csv(rows, _IND_HEADER, args.csv)
    if args.csv:
        gx = statistics.median(abs(r[5] - r[3]) for r in rows)
        gy = statistics.median(abs(r[6] - r[4]) for r in rows)
        print(f"trials={args.trials} median_gap_x={_fmt(gx)} median_gap_y={_fmt(gy)}")
    return 0


def _measure_one_trial(packed):
    gen, n, k, seed, trial = packed
    src = parse_generator(gen).build(derive_seed(seed, trial, 0))
    est = conditional_ratio_estimate(src, constant_source(0, src.alphabet), n, k)
    return (trial, n, k, est.final_ratio)


def _cmd_experiment(args) -> int:
    # join-dependence peaks just past a power of two, where the self-similar
    # tower grows by a whole stage: 1 MiB + 67.0 B/symbol measured at
    # n = 2**20 + 32 with no stage built yet (66.1 at 2**19 + 32); 96
    # B/symbol leaves a 43 % margin
    _check_memory(
        _BASE_BYTES + 96 * args.n if args.name == "join-dependence" else 64 * args.n
    )
    if args.name == "join-dependence":
        # odd(x) alone looks incompressible, but even(x) predicts it exactly
        # (the stream satisfies x[2n] = x[n]), so the match-run compressor
        # conditioned on even(x) drives the ratio down to 1/k.
        x = SelfSimilarSource(args.base)
        rep = independence_report(OddSource(x), EvenSource(x.clone()), args.n, args.k)
        T = odd_projection_transducer(Alphabet(args.base))
        _, mr = match_run_compress(
            T, args.k, OddSource(x.clone()), EvenSource(x.clone()), args.n
        )
        rows = [
            ("n", args.n),
            ("k", args.k),
            ("rho_odd", rep.rho_x),
            ("rho_even", rep.rho_y),
            ("rho_odd_given_even_blocks", rep.rho_x_given_y),
            ("rho_even_given_odd_blocks", rep.rho_y_given_x),
            ("rho_odd_given_even_matchrun", mr.final_ratio),
        ]
        _emit_csv(rows, ("metric", "value"), args.csv)
        if args.csv:
            print(
                f"rho_odd={_fmt(rep.rho_x)} "
                f"rho_odd_given_even_matchrun={_fmt(mr.final_ratio)}"
            )
        return 0
    if args.name == "measure-one":
        work = [
            (args.gen, args.n, args.k, args.seed, t)
            for t in range(1, args.trials + 1)
        ]
        rows = _run_trials(_measure_one_trial, work, args.jobs)
        ratios = [r[3] for r in rows]
        rows.append(("min", args.n, args.k, min(ratios)))
        rows.append(("median", args.n, args.k, statistics.median(ratios)))
        _emit_csv(rows, ("trial", "n", "k", "rho"), args.csv)
        if args.csv:
            print(f"trials={args.trials} median_rho={_fmt(statistics.median(ratios))}")
        return 0
    if args.name == "join-normal":
        x = SelfSimilarSource(args.base)
        xw = x.prefix(args.n)
        rejoined = JoinSource(OddSource(x.clone()), EvenSource(x.clone())).prefix(args.n)
        report = normality_report(xw, args.max_block)
        rows = [("join_roundtrip", int(rejoined == xw))]
        for ell, disc in report.discrepancies.items():
            rows.append((f"discrepancy_{ell}", disc))
        rows.append(("flagged", len(report.flagged)))
        _emit_csv(rows, ("metric", "value"), args.csv)
        if args.csv:
            print(
                f"join_roundtrip={int(rejoined == xw)} flagged={len(report.flagged)}"
            )
        return 0
    raise ValueError(f"unknown experiment {args.name!r}")


def _cmd_perfect_sequence(args) -> int:
    _check_memory(64 * (args.base**args.stages))
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


def _add_csv(p):
    p.add_argument("--csv", metavar="PATH", help="write CSV here instead of stdout")


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
    p.add_argument("--base", type=int, default=2)
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
    p.add_argument("--base", type=int, default=2)
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
    p.add_argument("--base", type=int, default=2)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, default=8, help="block length")
    _add_csv(p)
    p.set_defaults(fn=_cmd_condcompress)

    p = sub.add_parser("independence", help="two-sided conditional ratio trials")
    p.add_argument("--x-gen", required=True)
    p.add_argument("--y-gen", required=True)
    p.add_argument("-n", type=int, default=1 << 18)
    p.add_argument("-k", type=int, default=8)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=20240823)
    p.add_argument("--jobs", type=int, default=1)
    _add_csv(p)
    p.set_defaults(fn=_cmd_independence)

    p = sub.add_parser("experiment", help="canned experiments")
    p.add_argument("name", choices=["join-dependence", "measure-one", "join-normal"])
    p.add_argument("-n", type=int, default=1 << 18)
    p.add_argument("-k", type=int, default=8)
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--gen", default="rand", help="measure-one: source under test")
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=20240823)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-block", type=int, default=8)
    _add_csv(p)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("perfect-sequence", help="stages of the perfect-word tower")
    p.add_argument("--stages", type=int, default=12)
    p.add_argument("--base", type=int, default=2)
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
