"""The four workloads: fixed scripts of calls into fsindep's public API.

Each operation rebuilds its own sources, automata and codes from its
arguments, as a fresh command would; only the fixture automata loaded
at set-up (immutable) and, in ``pipeline``, the word files an earlier
``generate`` wrote are shared.  Random inputs come from
``derive_seed(workload seed, operation index, ...)``.

An operation has a timed part (``run``) and an untimed part (``check``)
that raises :class:`CheckFailed` on a wrong output and returns the
outputs whose byte digests are pinned in ``digests.json``.  ``seeded``
says whether those outputs depend on the seed; digests of unseeded
outputs hold on every seed, those of seeded ones only on the default
seed, in the first cycle.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fsindep as F
import fsindep.cli as cli

A2 = F.Alphabet(2)


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@dataclass(frozen=True)
class Op:
    name: str
    symbols: int  # input symbols the operation's calls request, summed
    seeded: bool
    run: Callable  # (ctx) -> result, timed
    check: Callable  # (ctx, result) -> [bytes] to digest, untimed


@dataclass
class Context:
    """What one operation may use: its seed, the fixtures and a work dir."""

    seed: int
    fixtures: dict
    fixture_paths: dict
    workdir: str


def load_fixtures(root):
    paths = {
        name: os.path.join(root, "fixtures", f"{name}.aut") for name in ("copy", "join")
    }
    return {name: F.load_automaton(p) for name, p in paths.items()}, paths


# ---------------------------------------------------------------- helpers


def cli_call(argv):
    """Run ``fsindep <argv>`` in-process; return (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def csv_rows(text):
    lines = text.splitlines()
    return [line.split(",") for line in lines[1:]]


def metric_value(text, key):
    for row in csv_rows(text):
        if row[0] == key:
            return row[1]
    raise CheckFailed(f"CSV has no {key} row")


def cli_check(extra):
    """Check of a CLI op: exit code 0, then ``extra(ctx, stdout)``."""

    def check(ctx, result):
        rc, text = result
        require(rc == 0, f"exit code {rc}")
        extra(ctx, text)
        return [text.encode()]

    return check


def symbols_bytes(word):
    """Digestable form of a word: one byte per symbol, whatever the dtype."""
    return np.asarray(word.data).astype(np.uint8).tobytes()


def read_word_bytes(path, n):
    with open(path, "rb") as fh:
        data = fh.read()
    require(len(data) == n + 1 and data.endswith(b"\n"), f"{path}: wrong length")
    return data


# ---------------------------------------------------------------- transduce

N_TRANSDUCE = 1 << 16
K_MATCH = 16


def _odd_matchrun_roundtrip(ctx):
    T = F.odd_projection_transducer(A2)
    y = F.OddSource(F.self_similar_source())
    comp, est = F.match_run_compress(T, K_MATCH, y, F.self_similar_source(), N_TRANSDUCE)
    back = F.match_run_decompress(T, K_MATCH, comp, F.self_similar_source())
    return comp, est, back


def _check_roundtrip(ctx, result):
    comp, est, back = result
    n = N_TRANSDUCE
    require(est.output_symbols == math.ceil(n / K_MATCH), "match-run ratio is not ceil(n/k)/n")
    require(back == F.OddSource(F.self_similar_source()).prefix(n), "round trip differs")
    return [symbols_bytes(comp)]


def _unrelated_matchrun(ctx):
    T = F.odd_projection_transducer(A2)
    y = F.RandomSource(A2, ctx.seed)
    return F.match_run_compress(T, K_MATCH, y, F.self_similar_source(), N_TRANSDUCE)


def _check_unrelated(ctx, result):
    comp, est = result
    T = F.odd_projection_transducer(A2)
    back = F.match_run_decompress(T, K_MATCH, comp, F.self_similar_source())
    require(back == F.RandomSource(A2, ctx.seed).prefix(N_TRANSDUCE), "round trip differs")
    return [symbols_bytes(comp)]


def _check_copy_ratio(ctx, text):
    last = csv_rows(text)[-1]
    require(int(last[0]) == N_TRANSDUCE and float(last[2]) == 1.0, "copy.aut ratio is not 1.0")


def _check_join_dependence(ctx, text):
    got = float(metric_value(text, "rho_odd_given_even_matchrun"))
    want = math.ceil(N_TRANSDUCE / K_MATCH) / N_TRANSDUCE
    require(got == want, f"match-run ratio {got} != ceil(n/k)/n = {want}")


TRANSDUCE = (
    Op(
        "compress",
        N_TRANSDUCE,
        True,
        lambda ctx: cli_call(
            ["compress", "--automaton", ctx.fixture_paths["copy"],
             "--gen", f"rand:seed={ctx.seed}", "-n", N_TRANSDUCE]
        ),
        cli_check(_check_copy_ratio),
    ),
    Op(
        "join-dependence",
        N_TRANSDUCE,
        False,
        lambda ctx: cli_call(
            ["experiment", "join-dependence", "-n", N_TRANSDUCE, "-k", K_MATCH]
        ),
        cli_check(_check_join_dependence),
    ),
    Op("matchrun-roundtrip", 2 * N_TRANSDUCE, False, _odd_matchrun_roundtrip, _check_roundtrip),
    Op("matchrun-unrelated", N_TRANSDUCE, True, _unrelated_matchrun, _check_unrelated),
)


# ---------------------------------------------------------------- scalar-runs

N_SCALAR = 1 << 15
LOSSLESS_LEN = 11


def _two_tape(ctx):
    x = F.RandomSource(A2, F.derive_seed(ctx.seed, 0))
    y = F.RandomSource(A2, F.derive_seed(ctx.seed, 1))
    return F.conditional_ratio(ctx.fixtures["join"], x, y, N_SCALAR)


def _check_two_tape(ctx, est):
    # join.aut writes one x and one y symbol per x symbol read
    require(not est.halted, f"run halted: {est.halt_reason}")
    require(est.n == N_SCALAR and est.output_symbols == 2 * N_SCALAR, "join.aut ratio is not 2")
    return []


def _record_path(ctx):
    return F.run(ctx.fixtures["copy"], 1, [F.RandomSource(A2, ctx.seed)], N_SCALAR, record_path=True)


def _check_record_path(ctx, trace):
    require(not trace.halted, f"run halted: {trace.halt_reason}")
    require(trace.output == F.RandomSource(A2, ctx.seed).prefix(N_SCALAR), "copy output differs")
    require(len(trace.path) == N_SCALAR + 1, "path length is not n + 1")
    return []


def _check_lossless(ctx, report):
    require(report.lossless, "copy.aut reported lossy")
    require(report.words_checked == 2 ** (LOSSLESS_LEN + 1) - 2, "wrong number of words checked")
    return []


SCALAR_RUNS = (
    Op("conditional-ratio-join", N_SCALAR, True, _two_tape, _check_two_tape),
    Op("run-record-path", N_SCALAR, True, _record_path, _check_record_path),
    Op(
        "bounded-losslessness",
        sum(L * 2**L for L in range(1, LOSSLESS_LEN + 1)),
        False,
        lambda ctx: F.bounded_losslessness_check(ctx.fixtures["copy"], LOSSLESS_LEN),
        _check_lossless,
    ),
)


# ---------------------------------------------------------------- codec

CODEC_BLOCKS = 4096


def _codec_case(base, k, flip):
    """One conditional-coder round trip of CODEC_BLOCKS blocks of length k.

    The reference is an independent stream, or with ``flip`` the primary
    with that share of its symbols changed.
    """
    alphabet = F.Alphabet(base)
    n = CODEC_BLOCKS * k

    def pair(seed):
        x = F.RandomSource(alphabet, F.derive_seed(seed, 0))
        if not flip:
            return x, F.RandomSource(alphabet, F.derive_seed(seed, 1))
        xs = x.prefix(n).data
        rng = np.random.default_rng(F.derive_seed(seed, 1))
        flips = rng.random(n) < flip
        ys = np.where(flips, (xs + 1) % base, xs)
        return x, F.LiteralSource(F.FiniteWord(alphabet, ys))

    def run(ctx):
        x, y = pair(ctx.seed)
        model = F.train_model(x.prefix(n), y.prefix(n), k)
        code = F.build_prefix_code(model)
        comp, _ = F.cond_encode(x.clone(), y.clone(), code, n)
        back = F.cond_decode(comp, y.clone(), code, n)
        return comp, back

    def check(ctx, result):
        comp, back = result
        x, _ = pair(ctx.seed)
        require(back == x.prefix(n), "cond_decode(cond_encode(x)) != x")
        return [symbols_bytes(comp)]

    return Op(f"codec-b{base}-k{k}" + ("-dep" if flip else ""), 3 * n, True, run, check)


CODEC = (_codec_case(2, 8, 0.0), _codec_case(2, 8, 0.1), _codec_case(3, 5, 0.0))


# ---------------------------------------------------------------- pipeline

N_GENERATE = 1 << 21
N_COND = 1 << 20
N_INDEP = 1 << 18
INDEP_TRIALS = 8
N_JOIN_NORMAL = 1 << 20
STAGES = 18


def _word_path(ctx, name):
    return os.path.join(ctx.workdir, f"{name}.word")


def _generate(name, spec):
    def run(ctx):
        return cli_call(["generate", "--gen", spec(ctx), "-n", N_GENERATE, "--out", _word_path(ctx, name)])

    def check(ctx, result):
        rc, _ = result
        require(rc == 0, f"exit code {rc}")
        data = read_word_bytes(_word_path(ctx, name), N_GENERATE)
        sym = np.frombuffer(data, dtype=np.uint8, count=N_GENERATE)
        if name == "selfsim":
            # x[2n] = x[n] (1-based) on the whole prefix
            require(np.array_equal(sym[1::2], sym[: N_GENERATE // 2]), "x[2n] != x[n]")
        else:
            ref = F.OddSource(F.self_similar_source()).take(N_GENERATE // 2) + ord("0")
            require(np.array_equal(sym[0::2], ref), "join: odd positions are not odd(selfsim)")
        return [data]

    return Op(f"generate-{name}", N_GENERATE, name != "selfsim", run, check)


def _stats(name):
    def check_rows(ctx, text):
        rows = csv_rows(text)
        require([int(r[0]) for r in rows] == list(range(1, 9)), "stats: wrong block lengths")

    return Op(
        f"stats-{name}",
        N_GENERATE,
        name != "selfsim",
        lambda ctx: cli_call(["stats", "--word", _word_path(ctx, name), "--max-block", 8]),
        cli_check(check_rows),
    )


def _check_condcompress(ctx, text):
    last = csv_rows(text)[-1]
    require(int(last[0]) == N_COND // 2, "condcompress: wrong measured length")


def _check_independence(ctx, text):
    rows = csv_rows(text)
    require([int(r[0]) for r in rows] == list(range(1, INDEP_TRIALS + 1)), "wrong trial rows")


def _check_join_normal(ctx, text):
    require(metric_value(text, "join_roundtrip") == "1", "join_roundtrip != 1")


def _check_perfect(ctx, text):
    rows = csv_rows(text)
    require(len(rows) == STAGES, "wrong number of stages")
    require(all(r[4] == "1" for r in rows), "a stage is not perfect")


PIPELINE = (
    _generate("selfsim", lambda ctx: "selfsim"),
    _generate("join", lambda ctx: f"join(odd(selfsim),rand:seed={ctx.seed})"),
    _stats("selfsim"),
    _stats("join"),
    Op(
        "condcompress",
        N_COND,
        False,
        lambda ctx: cli_call(
            ["condcompress", "--input", _word_path(ctx, "selfsim"),
             "--ref-gen", "odd(selfsim)", "-n", N_COND]
        ),
        cli_check(_check_condcompress),
    ),
    Op(
        "independence",
        INDEP_TRIALS * N_INDEP,
        True,
        lambda ctx: cli_call(
            ["independence", "--x-gen", "rand", "--y-gen", "rand", "-n", N_INDEP,
             "--trials", INDEP_TRIALS, "--seed", ctx.seed, "--jobs", 1]
        ),
        cli_check(_check_independence),
    ),
    Op(
        "join-normal",
        N_JOIN_NORMAL,
        False,
        lambda ctx: cli_call(["experiment", "join-normal", "-n", N_JOIN_NORMAL]),
        cli_check(_check_join_normal),
    ),
    Op(
        "perfect-sequence",
        2 ** (STAGES + 1) - 2,  # stage s has 2**s symbols
        False,
        lambda ctx: cli_call(["perfect-sequence", "--stages", STAGES]),
        cli_check(_check_perfect),
    ),
)


WORKLOADS = {
    "transduce": TRANSDUCE,
    "scalar-runs": SCALAR_RUNS,
    "codec": CODEC,
    "pipeline": PIPELINE,
}
