"""Transducer compression ratios, the match-run conditional compressor,
and the block-entropy conditional coder."""

import hashlib
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fsindep import (
    Alphabet,
    ConditionalModel,
    DecodeDeadEnd,
    EvenSource,
    FiniteWord,
    KAutomaton,
    LiteralSource,
    NotDeterministicError,
    OddSource,
    PrefixCode,
    RandomSource,
    RatioEstimate,
    SelfSimilarSource,
    SourceExhausted,
    TransducerHalted,
    TransducerOutputSource,
    WordSource,
    bounded_losslessness_check,
    build_prefix_code,
    check_l_deterministic,
    cond_decode,
    cond_encode,
    conditional_ratio,
    conditional_ratio_estimate,
    copy_automaton,
    even_projection_transducer,
    independence_report,
    match_run_automaton,
    match_run_compress,
    match_run_decompress,
    odd,
    odd_projection_transducer,
    parse_automaton,
    plain_ratio,
    train_model,
    unconditional_ratio_estimate,
    word,
)
from fsindep.blocks import aligned_ids

from conftest import (
    _naive_digits,
    float_code_rows,
    naive_codebook,
    naive_cond_decode,
    naive_cond_encode,
    naive_independence_report,
)

A2 = Alphabet(2)
A3 = Alphabet(3)


def lit(text: str, b: int = 2) -> LiteralSource:
    return LiteralSource(word(text, base=b))


# ---------------------------------------------------------------------------
# ratio estimates and plain transducer compression


def test_ratio_estimate_properties():
    est = RatioEstimate(
        n=100,
        output_symbols=90,
        checkpoints=[(1, 1), (2, 2), (4, 4), (64, 32), (100, 90)],
    )
    assert est.final_ratio == 0.9
    assert est.min_ratio == 0.5  # burn-in 6 drops the early checkpoints
    assert RatioEstimate(n=0, output_symbols=0, checkpoints=[]).final_ratio == 0.0


def test_plain_ratio_copy_is_exactly_one(copy_aut):
    est = plain_ratio(copy_aut, RandomSource(A2, seed=1), 10_000)
    assert est.final_ratio == 1.0
    assert est.min_ratio == 1.0
    assert all(m == c for c, m in est.checkpoints)
    assert not est.halted


def test_plain_ratio_odd_projection_is_half():
    est = plain_ratio(odd_projection_transducer(A2), RandomSource(A2, seed=2), 4096)
    assert est.final_ratio == 0.5


def test_plain_ratio_flags_halted_runs():
    M = parse_automaton("automaton k=2 alphabet=2 initial=s\ns 0,0 s\n")
    est = plain_ratio(M, lit("0001000"), 7)
    assert est.halted and est.halt_reason == "no-transition"
    assert est.n == 3  # consumption stops at the first 1


def test_plain_ratio_rejects_nondeterministic_machines():
    M = KAutomaton(
        2, A2, ["s"], "s", [("s", ((0,), (0,)), "s"), ("s", ((), (1,)), "s")]
    )
    with pytest.raises(NotDeterministicError):
        plain_ratio(M, RandomSource(A2, seed=0), 16)


def pair_collapse_transducer() -> KAutomaton:
    """Reads symbol pairs; emits one symbol for aa, both symbols otherwise."""
    trans = []
    for a in range(2):
        trans.append(("s", ((a,), ()), f"h{a}"))
        trans.append((f"h{a}", ((a,), (a,)), "s"))
        other = 1 - a
        trans.append((f"h{a}", ((other,), (a, other)), "s"))
    return KAutomaton(2, A2, ["s", "h0", "h1"], "s", trans)


def test_plain_ratio_pair_collapse_extremes():
    T = pair_collapse_transducer()
    assert check_l_deterministic(T, 1).deterministic
    best = plain_ratio(T, lit("0" * 256), 256)
    assert best.final_ratio == 0.5
    worst = plain_ratio(T, lit("01" * 128), 256)
    assert worst.final_ratio == 1.0


def test_transducer_output_source_matches_projection():
    x = RandomSource(A2, seed=5)
    out = TransducerOutputSource(odd_projection_transducer(A2), x.clone())
    assert out.prefix(100) == odd(x.clone()).prefix(100)


def test_transducer_output_source_ends_when_stuck():
    M = parse_automaton("automaton k=2 alphabet=2 initial=s\ns 0,0 s\n")
    out = TransducerOutputSource(M, lit("00100"))
    assert out.take_available(10).tolist() == [0, 0]


# ---------------------------------------------------------------------------
# match-run conditional compression


def test_match_run_all_match_has_exact_ratio():
    x = RandomSource(A2, seed=9)
    y = OddSource(x.clone())
    n = 1 << 14
    comp, est = match_run_compress(
        odd_projection_transducer(A2), 16, y, x.clone(), n
    )
    assert len(comp) == n // 16
    assert int(np.sum(comp.data)) == 0  # all zeros
    assert est.final_ratio == 1 / 16
    assert est.output_symbols == n // 16


def test_match_run_round_trip_all_match():
    x = RandomSource(A2, seed=9)
    n = 1 << 12
    T = odd_projection_transducer(A2)
    comp, _ = match_run_compress(T, 16, OddSource(x.clone()), x.clone(), n)
    back = match_run_decompress(T, 16, comp, x.clone())
    assert back == OddSource(x.clone()).prefix(n)


def test_match_run_mismatch_structure():
    """First disagreement at m = k*p + r: p zeros, flag, verbatim tail."""
    k, n, m0 = 8, 512, 137  # 0-based mismatch position
    x = RandomSource(A2, seed=31)
    good = OddSource(x.clone()).take(n)
    bad = good.copy()
    bad[m0] ^= 1
    T = odd_projection_transducer(A2)
    comp, est = match_run_compress(
        T, k, LiteralSource(word(bad)), x.clone(), n
    )
    p = m0 // k
    assert comp.data[:p].tolist() == [0] * p
    assert comp.data[p] == 1
    assert comp.data[p + 1 :].tolist() == bad[k * p :].tolist()
    assert est.output_symbols == p + 1 + (n - k * p)
    back = match_run_decompress(T, k, comp, x.clone())
    assert back == word(bad)


def test_match_run_decompress_refuses_a_flag_other_than_1():
    A3 = Alphabet(3)
    T = odd_projection_transducer(A3)
    comp = word("0020", base=3)
    with pytest.raises(DecodeDeadEnd, match="expected a 1 flag at position 3, found 2"):
        match_run_decompress(T, 4, comp, RandomSource(A3, seed=1))


def test_match_run_round_trip_exhaustive_small():
    """All 256 possible targets of length 8 survive the round trip."""
    k = 4
    x = lit("0110100110010110")
    T = odd_projection_transducer(A2)
    for val in range(256):
        bits = [(val >> i) & 1 for i in range(8)]
        comp, _ = match_run_compress(
            T, k, LiteralSource(word(bits)), x.clone(), 8
        )
        assert match_run_decompress(T, k, comp, x.clone()) == word(bits)


def test_match_run_checkpoints_are_consistent():
    x = RandomSource(A2, seed=12)
    _, est = match_run_compress(
        odd_projection_transducer(A2), 4, OddSource(x.clone()), x.clone(), 1024
    )
    assert est.checkpoints[-1] == (1024, 256)
    for (c1, m1), (c2, m2) in zip(est.checkpoints, est.checkpoints[1:]):
        assert c1 < c2 and m1 <= m2


def test_match_run_raises_when_prediction_dries_up():
    T = odd_projection_transducer(A2)
    x = lit("0000")  # only 2 predicted symbols
    y = lit("000000")
    with pytest.raises(TransducerHalted):
        match_run_compress(T, 2, y, x, 6)


class CountingSource(RandomSource):
    """Random source that counts the symbols it has produced."""

    produced = 0

    def _produce(self, n):
        out = super()._produce(n)
        self.produced += out.size
        return out

    def clone(self):
        return CountingSource(self.alphabet, self.seed)


def test_match_run_stops_predicting_at_the_first_mismatch():
    from fsindep.engine import _WINDOW

    T = odd_projection_transducer(A2)
    n, k = 1 << 16, 16
    for m0 in (1, _WINDOW + 37):  # in the first window and in a later one
        x = CountingSource(A2, seed=8)
        y = OddSource(x.clone()).take(n)
        y[m0] ^= 1
        comp, est = match_run_compress(T, k, LiteralSource(word(y)), x, n)
        # not the 2n reference symbols behind all n predictions
        assert x.produced <= 2 * m0 + 4 * _WINDOW
        p = m0 // k
        assert comp.data[: p + 1].tolist() == [0] * p + [1]
        assert comp.data[p + 1 :].tolist() == y[k * p :].tolist()
        assert est.output_symbols == p + 1 + n - k * p
    x = CountingSource(A2, seed=8)
    match_run_compress(T, k, OddSource(x.clone()), x, n)
    assert x.produced >= 2 * n  # no mismatch: every prediction is needed


def test_match_run_zero_budget():
    T = odd_projection_transducer(A2)
    comp, est = match_run_compress(T, 4, lit("0"), lit("00"), 0)
    assert len(comp) == 0 and est.final_ratio == 0.0


def test_match_run_automaton_agrees_with_streaming():
    rng = random.Random(77)
    T = odd_projection_transducer(A2)
    for k in (1, 2, 3):
        A = match_run_automaton(T, k)
        assert check_l_deterministic(A, 2).deterministic
        for trial in range(25):
            n = k * rng.randint(1, 12)
            x_text = "".join(rng.choice("01") for _ in range(4 * n + 8))
            if trial % 2:
                y_arr = OddSource(lit(x_text)).take(n)  # full agreement
                if trial % 4 == 1 and n:
                    y_arr[rng.randrange(n)] ^= 1  # forced mismatch
                y_text = "".join(str(s) for s in y_arr.tolist())
            else:
                y_text = "".join(rng.choice("01") for _ in range(n))
            comp, est = match_run_compress(
                T, k, lit(y_text), lit(x_text), n
            )
            tr = conditional_ratio(A, lit(y_text), lit(x_text), n)
            assert tr.output_symbols == est.output_symbols, (k, x_text, y_text)
            assert not tr.halted


def test_match_run_automaton_output_stream_matches():
    T = odd_projection_transducer(A2)
    A = match_run_automaton(T, 2)
    from fsindep import run

    x, y = RandomSource(A2, seed=3), OddSource(RandomSource(A2, seed=3))
    n = 64
    comp, _ = match_run_compress(T, 2, y.clone(), x.clone(), n)
    tr = run(A, 2, [y.clone(), x.clone()], n)
    assert tr.outputs[0] == comp


def test_match_run_automaton_oracle_consumption_is_bounded():
    """The materialized compressor reads at most 2 oracle symbols per target
    symbol (plus the lookahead in flight)."""
    T = odd_projection_transducer(A2)
    A = match_run_automaton(T, 3)
    x = RandomSource(A2, seed=41)
    tr = conditional_ratio(A, OddSource(x.clone()), x.clone(), 300)
    assert tr.oracle_symbols is not None
    assert tr.oracle_symbols <= 2 * 300 + 2 * 3


def test_match_run_automaton_rejects_large_windows():
    with pytest.raises(ValueError):
        match_run_automaton(odd_projection_transducer(A2), 4)


def test_match_run_automaton_text_is_pinned():
    """State names, state order and transitions, byte for byte: SHA-256
    prefixes of ``to_text()`` for k = 1..3."""
    silent = parse_automaton(
        """
        automaton k=2 alphabet=2 initial=a
        a 0,0 s
        a 1,- s
        s -,1 a
        """
    )  # s moves without reading
    pinned = {
        "odd": ("d11ba1683505a0eb", "217537c9e3fb9f7e", "6db29e216d9fa660"),
        "even": ("3fed5905cdc3f25b", "86045fa2ee993d28", "6b4675372ed00a34"),
        "copy": ("a365153394416e79", "4ec433797c4731cb", "452cd51dd8dea0eb"),
        "silent": ("d911ade5f259b90d", "c4967d01c7f549d1", "46ad24636d9f5605"),
    }
    machines = {
        "odd": odd_projection_transducer(A2),
        "even": even_projection_transducer(A2),
        "copy": copy_automaton(A2),
        "silent": silent,
    }
    for name, T in machines.items():
        for k, want in zip((1, 2, 3), pinned[name]):
            text = match_run_automaton(T, k).to_text()
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == want, (name, k)


# ---------------------------------------------------------------------------
# conditional models and prefix codes


def test_train_model_add_one_counts():
    model = train_model(word("0000"), word("0101"), 1)
    # pairs: (0,0) twice, (0,1) twice; add-one smoothing over b=2
    assert model.nu[0, 0] == pytest.approx(3 / 4)
    assert model.nu[1, 0] == pytest.approx(1 / 4)
    assert model.nu[0, 1] == pytest.approx(3 / 4)


def test_model_validation():
    with pytest.raises(ValueError):
        ConditionalModel(A2, 0, np.eye(2))
    with pytest.raises(ValueError):
        ConditionalModel(A2, 2, np.ones((2, 2)))  # columns sum to 2
    with pytest.raises(ValueError):
        ConditionalModel(A2, 2, np.array([[0.5, 0.5]]))  # wrong shape


def test_uniform_model_gives_flat_code():
    model = ConditionalModel(A2, 3, np.full((2, 2), 0.5))
    code = build_prefix_code(model)
    lengths, codewords = code.codebook(0)
    assert lengths.tolist() == [3] * 8
    assert sorted(codewords) == [
        tuple((v >> i) & 1 for i in (2, 1, 0)) for v in range(8)
    ]


def test_code_lengths_match_ceil_formula():
    rng = np.random.default_rng(5)
    for b, k in ((2, 3), (3, 2), (2, 5)):
        alpha = Alphabet(b)
        raw = rng.random((b, b)) + 0.05
        nu = raw / raw.sum(axis=0, keepdims=True)
        model = ConditionalModel(alpha, k, nu)
        code = build_prefix_code(model)
        for v_id in range(b**k):
            lengths, _ = code.codebook(v_id)
            dv = _naive_digits(v_id, b, k)
            for u_id in range(b**k):
                du = _naive_digits(u_id, b, k)
                p = 1.0
                for i in range(k):
                    p *= nu[du[i], dv[i]]
                expect = max(math.ceil(-math.log(p) / math.log(b)), 1)
                assert lengths[u_id] in (expect, expect - 1, expect + 1), (
                    "ceil boundary",
                    b,
                    k,
                )
                # exact agreement via the model's own accumulated exponent
                s = sum(model.neglog[du[i], dv[i]] for i in range(k))
                assert lengths[u_id] == max(math.ceil(s), 1) or s == 0.0


def test_fast_length_path_agrees_with_codebook():
    # from k = 8 terms on, numpy's sum(axis=1) in symbol_code_lengths adds
    # pairwise, while the codebook's table sums each block left to right
    for b, k in ((3, 3), (2, 8), (2, 9)):
        rng = np.random.default_rng(9)
        raw = rng.random((b, b)) + 0.02
        nu = raw / raw.sum(axis=0, keepdims=True)
        model = ConditionalModel(Alphabet(b), k, nu)
        code = build_prefix_code(model)
        n = 20 * k
        x = rng.integers(0, b, n)
        y = rng.integers(0, b, n)
        fast = model.symbol_code_lengths(x, y)
        place = b ** np.arange(k - 1, -1, -1)
        for i in range(n // k):
            u = x[k * i : k * (i + 1)] @ place
            v = y[k * i : k * (i + 1)] @ place
            assert fast[i] == code.codebook(int(v))[0][int(u)], (b, k, i)


def test_symbol_code_lengths_rejects_impossible_blocks():
    model = ConditionalModel(A2, 2, np.eye(2))
    assert model.symbol_code_lengths(np.array([1, 0]), np.array([1, 0])).tolist() == [0]
    with pytest.raises(ValueError, match="probability 0"):
        model.symbol_code_lengths(np.array([0, 1]), np.array([0, 0]))


def test_symbol_code_lengths_takes_any_integer_dtype_and_refuses_other_symbols():
    nu = np.array([[0.5, 0.2, 0.1], [0.25, 0.6, 0.1], [0.25, 0.2, 0.8]])
    model = ConditionalModel(A3, 2, nu)
    x, y = np.array([0, 1, 2, 2, 1, 0]), np.array([2, 2, 1, 0, 0, 1])
    want = model.symbol_code_lengths(x.astype(np.uint8), y.astype(np.uint8)).tolist()
    dtypes = ((np.int64, np.int64), (np.int8, np.uint64), (np.uint8, np.intp), (np.uint16, np.int32))
    for dx, dy in dtypes:
        assert model.symbol_code_lengths(x.astype(dx), y.astype(dy)).tolist() == want, (dx, dy)
    # a symbol outside 0..2 would wrap inside a narrow pair id
    bad = (([0, 0], [3, 0]), ([0, 9], [0, 0]), ([-1, 0], [0, 0]), ([0, 0], [0, -6]), ([0.0, 1.0], [0, 0]))
    for p, r in bad:
        with pytest.raises(ValueError, match=r"integers in 0\.\.2"):
            model.symbol_code_lengths(np.array(p), np.array(r))
    model2 = ConditionalModel(A2, 1, np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match=r"integers in 0\.\.1"):
        model2.symbol_code_lengths(np.array([0], dtype=np.uint8), np.array([3], dtype=np.uint8))


@pytest.mark.parametrize("b", [2, 3, 5])
@pytest.mark.parametrize("k", [*range(1, 18), 24, 128, 129])
def test_block_sums_match_the_two_dimensional_gather_bit_for_bit(b, k, monkeypatch):
    from fsindep import compression

    sums = []
    code_lengths = compression._code_lengths
    monkeypatch.setattr(compression, "_code_lengths", lambda s: sums.append(s) or code_lengths(s))
    rng = np.random.default_rng(10 * b + k)
    smooth = rng.random((b, b)) + 0.02
    hard = smooth.copy()
    hard[(np.arange(b) + 1) % b, np.arange(b)] = 0.0  # nu(c + 1 | c) = 0
    n = 64 * k
    x = rng.integers(0, b, n).astype(np.uint8)
    for raw in (smooth, hard):
        model = ConditionalModel(Alphabet(b), k, raw / raw.sum(axis=0, keepdims=True))
        for y in (x, np.zeros_like(x), rng.integers(0, b, n).astype(np.uint8)):
            want = model.neglog[x, y].reshape(-1, k).sum(axis=1)
            if np.isinf(want).any():
                with pytest.raises(ValueError, match="probability 0"):
                    model.symbol_code_lengths(x, y)
            else:
                model.symbol_code_lengths(x, y)
            assert np.array_equal(sums.pop().view(np.int64), want.view(np.int64))
    if b**k <= 2**16:
        # against a constant reference, x repeated to as many blocks as
        # are possible has each possible block summed once, as a table
        counts = np.bincount(x, minlength=b)
        fit = np.zeros((b, b))
        fit[:, 0] = counts
        model = ConditionalModel(Alphabet(b), k, (fit + 1) / (fit.sum(axis=0) + b))
        want = model.neglog[x, 0].reshape(-1, k).sum(axis=1)
        compression._constant_lengths(counts, np.resize(x, max(x.size, b**k * k)), k)
        table = sums.pop()
        assert table.size == b**k
        assert np.array_equal(table[aligned_ids(x, k, b)].view(np.int64), want.view(np.int64))


def test_codebook_refuses_condition_ids_outside_the_blocks():
    model = ConditionalModel(A2, 2, np.array([[0.9, 0.3], [0.1, 0.7]]))
    code = build_prefix_code(model)
    for v_id in (-1, 4):  # -1 read condition 3's code, 4 raised IndexError
        with pytest.raises(ValueError, match=rf"block id {v_id} is outside 0 \.\. 3$"):
            code.codebook(v_id)
    lengths, codewords = code.codebook(3)
    assert (lengths.tolist(), codewords) == naive_codebook(model, 3)


def test_codebooks_are_prefix_free_and_kraft_feasible():
    rng = np.random.default_rng(31)
    for _ in range(30):
        b = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        raw = rng.random((b, b)) + 0.01
        nu = raw / raw.sum(axis=0, keepdims=True)
        code = build_prefix_code(ConditionalModel(Alphabet(b), k, nu))
        for v_id in range(b**k):
            lengths, codewords = code.codebook(v_id)
            kraft = sum(
                Fraction(1, b ** int(L)) for L in lengths if L >= 0
            )
            assert kraft <= 1
            words = [w for w in codewords if w is not None]
            assert len(set(words)) == len(words)
            for i, wa in enumerate(words):
                for wb in words[i + 1 :]:
                    shorter, longer = sorted((wa, wb), key=len)
                    assert longer[: len(shorter)] != shorter or shorter == longer


def test_codebook_determinism():
    nu = np.array([[0.7, 0.2], [0.3, 0.8]])
    a = build_prefix_code(ConditionalModel(A2, 4, nu))
    b = build_prefix_code(ConditionalModel(A2, 4, nu))
    for v in range(16):
        la, ca = a.codebook(v)
        lb, cb = b.codebook(v)
        assert la.tolist() == lb.tolist() and ca == cb


def test_degenerate_model_empty_codeword():
    sure = ConditionalModel(A2, 2, np.eye(2))
    code = build_prefix_code(sure)
    lengths, codewords = code.codebook(0)  # condition block 00
    assert lengths[0] == 0 and codewords[0] == ()
    assert lengths[1] == -1 and codewords[1] is None  # impossible block
    # the condition determines the block, so no compressed symbol is read
    assert cond_decode(word(""), lit("00"), code, 2) == word("00")


KRAFT_VIOLATION = """
import numpy as np
from fsindep import Alphabet, ConditionalModel, build_prefix_code

# the first column passes allclose, but its lengths 0 and 34 break Kraft
model = ConditionalModel(Alphabet(2), 1, np.array([[1.0, 0.5], [1e-10, 0.5]]))
try:
    lengths, _ = build_prefix_code(model).codebook(0)
except ValueError as e:
    print("ValueError:", e)
else:
    print("accepted lengths", lengths.tolist())
"""


def test_kraft_violation_raises_even_under_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    for flags in ([], ["-O"]):
        res = subprocess.run(
            [sys.executable, *flags, "-c", KRAFT_VIOLATION],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("ValueError: Kraft violation"), (flags, res.stdout)


def test_code_table_cap():
    with pytest.raises(ValueError):
        build_prefix_code(
            ConditionalModel(A2, 21, np.full((2, 2), 0.5))
        )


# ---------------------------------------------------------------------------
# conditional encode/decode round trips


def test_cond_round_trip_randomized():
    rng = random.Random(2718)
    nprng = np.random.default_rng(2718)
    for _ in range(120):
        b = rng.choice([2, 2, 3])
        k = rng.randint(1, 4)
        n = k * rng.randint(1, 64)
        alpha = Alphabet(b)
        xt = nprng.integers(0, b, 4 * n + 8)
        yt = nprng.integers(0, b, 4 * n + 8)
        model = train_model(
            word(xt[: 2 * n], base=b), word(yt[: 2 * n], base=b), k
        )
        code = build_prefix_code(model)
        x, y = LiteralSource(word(xt, base=b)), LiteralSource(word(yt, base=b))
        comp, est = cond_encode(x, y.clone(), code, n)
        assert est.output_symbols == len(comp)
        back = cond_decode(comp, y.clone(), code, n)
        assert back == word(xt[:n], base=b)


def test_cond_encode_validates_block_alignment():
    code = build_prefix_code(
        ConditionalModel(A2, 2, np.full((2, 2), 0.5))
    )
    with pytest.raises(ValueError):
        cond_encode(RandomSource(A2, 1), RandomSource(A2, 2), code, 7)


def test_cond_encode_with_sure_model_emits_nothing():
    code = build_prefix_code(ConditionalModel(A2, 2, np.eye(2)))
    x = RandomSource(A2, seed=8)
    comp, est = cond_encode(x.clone(), x.clone(), code, 64)
    assert len(comp) == 0 and est.final_ratio == 0.0
    assert cond_decode(comp, x.clone(), code, 64) == x.prefix(64)


def test_cond_encode_rejects_impossible_blocks():
    code = build_prefix_code(ConditionalModel(A2, 1, np.eye(2)))
    with pytest.raises(ValueError):
        cond_encode(lit("01"), lit("00"), code, 2)  # pair (1, 0) has prob 0


def test_cond_decode_rejects_truncated_and_padded_streams():
    x = RandomSource(A2, seed=3)
    y = RandomSource(A2, seed=4)
    model = train_model(x.prefix(512), y.prefix(512), 2)
    code = build_prefix_code(model)
    comp, _ = cond_encode(x.clone(), y.clone(), code, 64)
    with pytest.raises(DecodeDeadEnd):
        cond_decode(comp.segment(1, len(comp) - 1), y.clone(), code, 64)
    with pytest.raises(DecodeDeadEnd):  # ends inside a codeword mid-stream
        cond_decode(comp.segment(1, len(comp) // 2), y.clone(), code, 64)
    with pytest.raises(DecodeDeadEnd):
        cond_decode(comp + word("0"), y.clone(), code, 64)
    # an incomplete code leaves prefixes that start no codeword: under
    # reference 0 the codewords are 0 and 1000, so 1111 starts none
    sparse = build_prefix_code(
        ConditionalModel(A2, 1, np.array([[0.9, 0.5], [0.1, 0.5]]))
    )
    lengths, codewords = sparse.codebook(0)
    assert sum(Fraction(1, 2 ** int(L)) for L in lengths) < 1
    assert codewords == [(0,), (1, 0, 0, 0)]
    with pytest.raises(DecodeDeadEnd, match="^no codeword starts at compressed symbol 0$"):
        cond_decode(word("1111"), lit("0"), sparse, 1)
    with pytest.raises(DecodeDeadEnd, match="^no codeword starts at compressed symbol 1$"):
        cond_decode(word("0111"), lit("00"), sparse, 2)
    with pytest.raises(DecodeDeadEnd, match="^compressed stream ended inside a codeword$"):
        cond_decode(word("0100"), lit("00"), sparse, 2)
    # no blocks: only the empty stream decodes
    assert cond_decode(word(""), lit(""), sparse, 0) == word("")
    with pytest.raises(DecodeDeadEnd, match="^2 trailing symbols after the last block$"):
        cond_decode(word("10"), lit(""), sparse, 0)


def _check_codec_against_oracles(x: FiniteWord, y: FiniteWord, code) -> list:
    """cond_encode/cond_decode agree with the per-block oracles on (x, y).

    Returns the oracle's codeword length per block.
    """
    n, k = len(x), code.model.k
    comp, est = cond_encode(LiteralSource(x), LiteralSource(y), code, n)
    ref, lengths = naive_cond_encode(LiteralSource(x), LiteralSource(y), code, n)
    assert comp.data.dtype == ref.data.dtype
    assert comp.data.tobytes() == ref.data.tobytes()
    cum = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    assert est.output_symbols == len(comp) == cum[-1]
    assert all(out == cum[c // k] for c, out in est.checkpoints)
    assert cond_decode(comp, LiteralSource(y), code, n) == x
    assert naive_cond_decode(comp, LiteralSource(y), code, n) == x
    return lengths


@pytest.mark.parametrize("b", [2, 3])
def test_codec_matches_per_block_oracles(b):
    rng = np.random.default_rng(7000 + b)
    alpha = Alphabet(b)
    for k in range(1, 9):
        n = k * (48 if b**k <= 256 else 4)
        x = rng.integers(0, b, n)
        independent = rng.integers(0, b, n)
        dependent = np.where(rng.random(n) < 0.1, (x + 1) % b, x)
        for y, batch in ((independent, None), (dependent, 3)):
            xw, yw = FiniteWord(alpha, x), FiniteWord(alpha, y)
            code = build_prefix_code(train_model(xw, yw, k))
            if batch:
                code._TABLE_CAP = batch * b**k  # build 3 conditions at a time
            _check_codec_against_oracles(xw, yw, code)
        if k in (1, 4, 8):
            sure = build_prefix_code(ConditionalModel(alpha, k, np.eye(b)))
            assert _check_codec_against_oracles(xw, xw, sure) == [0] * (n // k)


@pytest.mark.parametrize(
    "nu",
    [
        # a primary 0 under a reference 1 is a 1e-30 event: about 100 digits
        np.array([[0.5, 1e-30], [0.5, 1 - 1e-9]]),
        np.array([[1 / 3, 1e-30, 1 / 3], [1 / 3, 0.5, 1 / 3], [1 / 3, 0.5, 1 / 3]]),
    ],
)
def test_codec_keeps_codewords_exact_past_int64(nu):
    b = nu.shape[0]
    alpha = Alphabet(b)
    rng = np.random.default_rng(31 + b)
    for k in (1, 3, 8 if b == 2 else 5):
        n = 40 * k
        y = rng.integers(0, b, n)
        x = np.where(y == 1, rng.integers(1, b, n), rng.integers(0, b, n))
        x[rng.choice(np.flatnonzero(y == 1), size=3, replace=False)] = 0
        code = build_prefix_code(ConditionalModel(alpha, k, nu))
        lengths = _check_codec_against_oracles(
            FiniteWord(alpha, x), FiniteWord(alpha, y), code
        )
        assert b ** max(lengths) > 2**63


# the cond_encode streams of the benchmark's three codec cases (4096 blocks;
# other seeds) and of one k = 1 case, as made before the dense code store
CODEC_STREAM_PINS = {
    (2, 8, 0.0): (34968, "ec3112cc1f7231312e2a7129d93b87fcefb7e5003cdd9c9a2f0f4e3accb35263"),
    (2, 8, 0.1): (17864, "88a6d1050fce06eab14eacbf866f359242c98b10ebb961960b4684e565e9d10f"),
    (3, 5, 0.0): (22459, "585b3bad5a209ff8b86c5cddd4a496a588e4e379639b3f5a972a6430816bca59"),
    (3, 1, 0.1): (4930, "b4914832b1e562968aeef7f3d41e53c84aace912eaffdd17142b883f8ef83d08"),
}


def _codec_pair(b: int, k: int, flip: float, blocks: int = 4096):
    """x and a reference that is independent, or x with a share flip changed."""
    alpha = Alphabet(b)
    n = blocks * k
    x = RandomSource(alpha, 11)
    if not flip:
        return x, RandomSource(alpha, 12), n
    xs = x.prefix(n).data
    flips = np.random.default_rng(12).random(n) < flip
    return x, LiteralSource(FiniteWord(alpha, np.where(flips, (xs + 1) % b, xs))), n


@pytest.mark.parametrize("case", sorted(CODEC_STREAM_PINS))
def test_codec_streams_are_pinned(case):
    x, y, n = _codec_pair(*case)
    code = build_prefix_code(train_model(x.prefix(n), y.prefix(n), case[1]))
    comp, est = cond_encode(x.clone(), y.clone(), code, n)
    digest = hashlib.sha256(comp.data.astype(np.uint8).tobytes()).hexdigest()
    assert (len(comp), digest) == CODEC_STREAM_PINS[case]
    assert est.output_symbols == len(comp)
    assert cond_decode(comp, y.clone(), code, n) == x.prefix(n)


@pytest.mark.parametrize("batch", [None, 3])
def test_code_store_grows_over_calls_and_batches_like_the_naive_codebook(batch):
    for b, k, nu in (
        (2, 4, np.array([[0.7, 0.2], [0.3, 0.8]])),
        (3, 3, np.array([[0.6, 0.1, 0.3], [0.3, 0.8, 0.3], [0.1, 0.1, 0.4]])),
        # reference 1 makes a primary 0 a 1e-30 event, past int64 from k = 3
        (2, 3, np.array([[0.5, 1e-30], [0.5, 1 - 1e-9]])),
    ):
        alpha = Alphabet(b)
        model = ConditionalModel(alpha, k, nu)
        code = build_prefix_code(model)
        if batch:
            code._TABLE_CAP = batch * b**k
        rng = np.random.default_rng(b * 10 + k)
        n = 12 * k
        # the first reference holds no 1 (so the third code's first rows fit
        # int64); the second shares half its conditions with it
        first_y = rng.integers(0, b, n)
        first_y[first_y == 1] = 0
        second_y = np.concatenate((first_y[: n // 2], rng.integers(0, b, n // 2)))
        dtypes = []
        for y in (first_y, second_y):
            xw = FiniteWord(alpha, np.where(y == 1, 1, rng.integers(0, b, n)))
            yw = FiniteWord(alpha, y)
            comp, _ = cond_encode(LiteralSource(xw), LiteralSource(yw), code, n)
            assert cond_decode(comp, LiteralSource(yw), code, n) == xw
            built = np.flatnonzero(code._row_of >= 0)
            conds = np.unique(aligned_ids(y, k, b))
            assert set(conds.tolist()) <= set(built.tolist())
            # every row is built once: one row per condition seen so far
            assert code._lengths.shape[0] == built.size
            dtypes.append(code._first.dtype)
        assert dtypes == [np.int64, np.int64 if nu.min() > 1e-20 else object]
        for v in built.tolist():
            lengths, codewords = code.codebook(v)
            assert (lengths.tolist(), codewords) == naive_codebook(model, v), (b, k, v)
        assert code._lengths.shape[0] == built.size  # codebook built nothing new


def _decode_case(case):
    """(x, y, code, n) for a codec case: (b, k) of a trained code over 40
    blocks with 10 % flips, or "past-int64", 16 blocks under the b = 2,
    k = 3 model of test_codec_keeps_codewords_exact_past_int64."""
    if case != "past-int64":
        b, k = case
        x, y, n = _codec_pair(b, k, 0.1, blocks=40)
        return x, y, build_prefix_code(train_model(x.prefix(n), y.prefix(n), k)), n
    alpha, n = Alphabet(2), 48
    rng = np.random.default_rng(33)
    yd = rng.integers(0, 2, n)
    xd = np.where(yd == 1, 1, rng.integers(0, 2, n))
    xd[np.flatnonzero(yd == 1)[n // 4]] = 0  # one codeword of about 100 symbols
    code = build_prefix_code(ConditionalModel(alpha, 3, np.array([[0.5, 1e-30], [0.5, 1 - 1e-9]])))
    return (LiteralSource(FiniteWord(alpha, xd)), LiteralSource(FiniteWord(alpha, yd)), code, n)


DECODE_CASES = [(2, 1), (3, 1), (2, 8), (3, 5), "past-int64"]


def _case_id(case) -> str:
    return case if isinstance(case, str) else "{}-{}".format(*case)


@pytest.mark.parametrize("case", DECODE_CASES, ids=_case_id)
def test_cond_decode_refuses_every_truncation_and_a_trailing_symbol(case):
    x, y, code, n = _decode_case(case)
    b = code.model.alphabet.size
    comp, _ = cond_encode(x.clone(), y.clone(), code, n)
    assert cond_decode(comp, y.clone(), code, n) == x.prefix(n)
    if case == "past-int64":
        assert len(comp) > 64  # some codeword is past int64
    for cut in range(len(comp)):
        with pytest.raises(DecodeDeadEnd):
            cond_decode(comp.segment(1, cut), y.clone(), code, n)
    for a in range(b):
        with pytest.raises(DecodeDeadEnd, match="^1 trailing symbols after the last block$"):
            cond_decode(comp + FiniteWord(Alphabet(b), [a]), y.clone(), code, n)


def _reference_decode(comp: list, v_ids: list, books: dict) -> list:
    """Block ids read from comp by the codeword tables books[v] (codeword to
    block, and the codeword lengths in ascending order), or the
    DecodeDeadEnd message cond_decode gives: a block starts no codeword when
    no codeword of its condition begins the rest of the stream padded with
    zeros, and the stream ends inside one when the codeword found passes
    its end."""
    pad = comp + [0] * max(books[v][1][-1] for v in v_ids)
    pos, out = 0, []
    for v in v_ids:
        book, lengths = books[v]
        L = next((L for L in lengths if tuple(pad[pos : pos + L]) in book), None)
        if L is None:
            return f"no codeword starts at compressed symbol {pos}"
        if pos + L > len(comp):
            return "compressed stream ended inside a codeword"
        out.append(book[tuple(pad[pos : pos + L])])
        pos += L
    if pos != len(comp):
        return f"{len(comp) - pos} trailing symbols after the last block"
    return out


@pytest.mark.parametrize("case", DECODE_CASES, ids=_case_id)
def test_cond_decode_of_cut_and_changed_streams_matches_the_codeword_tables(case):
    """Every truncation and every one-symbol change of an encoded stream
    decodes to the blocks, or fails with the message and the position, that
    the codeword tables give."""
    x, y, code, n = _decode_case(case)
    b, k = code.model.alphabet.size, code.model.k
    comp = cond_encode(x.clone(), y.clone(), code, n)[0].data.tolist()
    v_ids = aligned_ids(y.prefix(n).data, k, b).tolist()
    books = {}
    for v in set(v_ids):
        lengths, codewords = code.codebook(v)
        book = {cw: u for u, cw in enumerate(codewords) if cw is not None}
        books[v] = book, sorted(set(lengths.tolist()) - {-1})
    streams = [comp[:cut] for cut in range(len(comp))]
    streams += [
        comp[:i] + [a] + comp[i + 1 :] for i in range(len(comp)) for a in range(b) if a != comp[i]
    ]
    failures = 0
    for s in streams:
        want = _reference_decode(s, v_ids, books)
        try:
            got = cond_decode(FiniteWord(Alphabet(b), s), y.clone(), code, n)
            got = aligned_ids(got.data, k, b).tolist()
        except DecodeDeadEnd as e:
            got, failures = str(e), failures + 1
        assert got == want, s
    assert failures >= len(comp)  # every cut fails


def _store_models(b: int) -> dict:
    """nu over b symbols: trained, with hard zeros, sure blocks, and one that
    breaks Kraft under a reference symbol 0."""
    rng = np.random.default_rng(b)
    x = rng.integers(0, b, 4096)
    y = np.where(rng.random(4096) < 0.2, rng.integers(0, b, 4096), x)
    trained = train_model(FiniteWord(Alphabet(b), x), FiniteWord(Alphabet(b), y), 1).nu
    hard = rng.random((b, b)) + 0.02
    hard[(np.arange(b) + 1) % b, np.arange(b)] = 0.0  # nu(c + 1 | c) = 0
    # under reference 0, primary 0 is sure and 1 possible: more than all the leaves
    kraft = np.full((b, b), 1.0 / b)
    kraft[:, 0] = 0.0
    kraft[:2, 0] = (1.0, 1e-10)
    return {"trained": trained, "hard": hard / hard.sum(axis=0), "sure": np.eye(b), "kraft": kraft}


@pytest.mark.parametrize(
    "b, k", [(b, k) for b in (2, 3, 5, 16) for k in (1, 4, 8, 12) if b**k <= 2**20]
)
def test_code_rows_match_the_float_build_and_the_naive_codebook(b, k):
    size = b**k
    rng = np.random.default_rng(size)
    v_ids = np.sort(rng.choice(size, min(size, max(1, 2**18 // size)), replace=False))
    for name, nu in _store_models(b).items():
        model = ConditionalModel(Alphabet(b), k, nu)
        order, rank, lengths, count = float_code_rows(model, v_ids)
        # Kraft, exactly: the codewords of lengths up to a row's longest L
        # need sum(count_l * b**(L - l)) of its b**L leaves
        refused = [
            v
            for v, L, c in zip(v_ids.tolist(), lengths.max(axis=1).tolist(), count.tolist())
            if sum(n * b ** (L - l) for l, n in enumerate(c[: L + 1])) > b ** max(L, 0)
        ]
        code = build_prefix_code(model)
        if refused:
            with pytest.raises(ValueError, match=rf"violation for condition block {refused[0]}:"):
                code._rows(v_ids)
        ok = ~np.isin(v_ids, refused)
        rows = code._rows(v_ids[ok])
        for got, want in ((code._order, order), (code._rank, rank), (code._lengths, lengths)):
            assert np.array_equal(got[rows], want[ok]), (name, b, k)
        # the store pads every row's counts to its longest codeword
        got, want = code._count[rows], count[ok]
        width = max(got.shape[1], want.shape[1])
        assert np.array_equal(*(np.pad(c, ((0, 0), (0, width - c.shape[1]))) for c in (got, want)))
        for v in v_ids[ok][:2].tolist() if size <= 1024 else ():
            got_lengths, codewords = code.codebook(v)
            assert (got_lengths.tolist(), codewords) == naive_codebook(model, v), (name, b, k, v)


@pytest.mark.parametrize("b, k, m", [(2, 8, 256), (3, 5, 243), (2, 12, 64), (4, 4, 256)])
def test_rank_keys_and_float_keys_build_the_same_rows(b, k, m, monkeypatch):
    from fsindep import compression

    v_ids = np.sort(np.random.default_rng(m).choice(b**k, m, replace=False))
    for name, nu in _store_models(b).items():
        if name == "kraft":
            continue
        model = ConditionalModel(Alphabet(b), k, nu)
        stores = []
        for ranked in (True, False):
            if not ranked:
                monkeypatch.setattr(compression, "_rank_tables", lambda neglog, k, m: None)
            code = build_prefix_code(model)
            key, values = code._sort_keys(v_ids)
            assert (values is not None) == ranked, (name, key.dtype)
            code._rows(v_ids)
            stores.append([code._order, code._rank, code._lengths, code._count, code._first])
            monkeypatch.undo()
        for got, want in zip(*stores):
            assert got.dtype == want.dtype and np.array_equal(got, want), (name, b, k)


def test_blocks_of_four_over_sixteen_symbols_sort_their_float_sums():
    # level 0 already has 16 * 16 candidate sums for the 4 * 16 entries it ranks
    model = ConditionalModel(Alphabet(16), 4, _store_models(16)["trained"])
    v_ids = np.array([0, 4097, 30000, 65535])
    code = build_prefix_code(model)
    key, values = code._sort_keys(v_ids)
    assert values is None and key.dtype == np.float64
    order, rank, lengths, _ = float_code_rows(model, v_ids)
    rows = code._rows(v_ids)
    assert np.array_equal(code._order[rows], order) and np.array_equal(code._rank[rows], rank)
    assert np.array_equal(code._lengths[rows], lengths)


@pytest.mark.parametrize("case", [(2, 8, 0.0), (2, 8, 0.1), (3, 5, 0.0)])
def test_the_codec_benchmark_cases_sort_rank_keys_of_at_most_16_bits(case):
    # numpy sorts 8- and 16-bit keys stably by radix, wider ones by merging
    b, k, flip = case
    x, y, n = _codec_pair(b, k, flip)
    code = build_prefix_code(train_model(x.prefix(n), y.prefix(n), k))
    key, values = code._sort_keys(np.unique(aligned_ids(y.prefix(n).data, k, b)))
    assert values is not None and key.dtype in (np.uint8, np.uint16), key.dtype


def test_a_round_trip_builds_each_condition_row_once(monkeypatch):
    rows = []
    sort_keys = PrefixCode._sort_keys

    def counted(self, v_ids):
        rows.extend(np.asarray(v_ids).tolist())
        return sort_keys(self, v_ids)

    monkeypatch.setattr(PrefixCode, "_sort_keys", counted)
    for b, k, flip in ((2, 8, 0.1), (3, 5, 0.0), (2, 1, 0.0)):
        x, y, n = _codec_pair(b, k, flip, blocks=512)
        code = build_prefix_code(train_model(x.prefix(n), y.prefix(n), k))
        comp, _ = cond_encode(x.clone(), y.clone(), code, n)
        cond_decode(comp, y.clone(), code, n)
        conds = np.unique(aligned_ids(y.prefix(n).data, k, b)).tolist()
        assert sorted(rows) == conds, (b, k)
        rows.clear()


def test_code_store_refuses_past_its_byte_cap_before_allocating(monkeypatch):
    import tracemalloc
    from fsindep import compression

    b, k = 2, 12
    monkeypatch.setattr(compression, "_STORE_CAP", 4 << 20)
    code = build_prefix_code(ConditionalModel(Alphabet(b), k, np.array([[0.7, 0.2], [0.3, 0.8]])))
    x, y = RandomSource(Alphabet(b), 1), RandomSource(Alphabet(b), 2)
    # 16 blocks: at most 16 rows of 4096 entries, well inside 4 MiB
    comp, _ = cond_encode(x.clone(), y.clone(), code, 16 * k)
    assert cond_decode(comp, y.clone(), code, 16 * k) == x.prefix(16 * k)
    rows = code._lengths.shape[0]
    n = 1024 * k  # about 900 new conditions, about 45 MB of rows
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"need (\d+) bytes, over the cap of 4194304") as err:
            cond_encode(x.clone(), y.clone(), code, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = int(re.search(r"need (\d+) bytes", str(err.value))[1])
    # 911 rows of 2 + 2 x 2 B an entry, and one 256-row batch's scratch at 24 B an entry
    assert need == (911 * 6 + 256 * 24) * 4096
    assert peak < 1 << 20, peak  # the sources' symbols and the ids, no row
    assert code._lengths.shape[0] == rows  # the store is as it was
    assert cond_decode(comp, y.clone(), code, 16 * k) == x.prefix(16 * k)


def _traced_peak(f):
    """f's result and the tracemalloc peak of its call."""
    import tracemalloc

    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _k16_code_and_conditions():
    code = build_prefix_code(ConditionalModel(A2, 16, np.array([[0.7, 0.2], [0.3, 0.8]])))
    return code, np.random.default_rng(16).choice(2**16, 32, replace=False)


def test_a_store_growth_peaks_within_the_need_it_was_checked_against(monkeypatch):
    from fsindep import compression

    code, conds = _k16_code_and_conditions()
    for batch in (conds[:16], conds[16:]):  # one build batch of 2**20 entries each
        monkeypatch.setattr(compression, "_STORE_CAP", 0)
        with pytest.raises(ValueError, match=r"need (\d+) bytes") as err:
            code._rows(batch)
        need = int(re.search(r"need (\d+) bytes", str(err.value))[1])
        monkeypatch.undo()
        _, peak = _traced_peak(lambda: code._rows(batch))
        assert peak <= need, (peak, need)


def test_a_second_store_growth_peaks_a_few_bytes_per_batch_entry_above_the_store():
    import tracemalloc

    code, conds = _k16_code_and_conditions()
    tracemalloc.start()  # so the old store's arrays count while they live
    try:
        code._rows(conds[:16])
        tracemalloc.reset_peak()
        code._rows(conds[16:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store = sum(a.nbytes for a in (code._lengths, code._order, code._rank))
    assert store == 32 * 2**16 * 6
    assert peak - store <= 32 * 16 * 2**16, (peak - store) / (16 * 2**16)


def test_cond_encode_with_its_rows_built_peaks_at_a_few_bytes_per_output_symbol():
    x, y, n = _codec_pair(2, 8, 0.0, blocks=1 << 15)
    code = build_prefix_code(train_model(x.prefix(n), y.prefix(n), 8))
    cond_encode(x.clone(), y.clone(), code, n)  # builds every row it needs
    xs, ys = x.clone(), y.clone()
    (comp, _), peak = _traced_peak(lambda: cond_encode(xs, ys, code, n))
    assert peak <= 12 * len(comp), peak / len(comp)


def test_a_refused_kraft_build_leaves_the_code_usable():
    # the model of KRAFT_VIOLATION: condition 0 breaks Kraft, condition 1 does not
    model = ConditionalModel(A2, 1, np.array([[1.0, 0.5], [1e-10, 0.5]]))
    code = build_prefix_code(model)
    with pytest.raises(ValueError, match="Kraft violation for condition block 0"):
        code.codebook(0)
    lengths, codewords = code.codebook(1)
    assert (lengths.tolist(), codewords) == naive_codebook(model, 1)
    assert code._lengths.shape[0] == len(code._count) == 1
    assert code._row_of.tolist() == [-1, 0]


class _Unread(WordSource):
    """A source that fails the test when a symbol is taken from it."""

    def _produce(self, n):
        raise AssertionError("a symbol was taken")

    def clone(self):
        return _Unread(self.alphabet)


def test_codec_refuses_words_over_another_alphabet_before_reading():
    A3 = Alphabet(3)
    code = build_prefix_code(ConditionalModel(A2, 4, np.array([[0.7, 0.2], [0.3, 0.8]])))
    for x, y in ((_Unread(A3), _Unread(A2)), (_Unread(A2), _Unread(A3))):
        with pytest.raises(ValueError, match="must be over the code's alphabet"):
            cond_encode(x, y, code, 64)
    for comp, y in ((FiniteWord(A3, [2] * 8), _Unread(A2)), (FiniteWord(A2, [0]), _Unread(A3))):
        with pytest.raises(ValueError, match="must be over the code's alphabet"):
            cond_decode(comp, y, code, 64)
    assert len(code._count) == 0  # no row was built


# ---------------------------------------------------------------------------
# ratio estimation and independence reports


def test_conditional_ratio_estimate_identical_pair():
    x = RandomSource(A2, seed=100)
    est = conditional_ratio_estimate(x.clone(), x.clone(), 4096, 8)
    assert est.final_ratio == 0.125


def test_conditional_ratio_estimate_independent_pair():
    est = conditional_ratio_estimate(
        RandomSource(A2, seed=1), RandomSource(A2, seed=2), 1 << 14, 4
    )
    assert 1.0 <= est.final_ratio <= 1.2


def test_conditional_ratio_estimate_does_not_consume():
    x = RandomSource(A2, seed=5)
    y = RandomSource(A2, seed=6)
    first = x.peek()
    conditional_ratio_estimate(x, y, 256, 2)
    assert x.peek() == first


def test_conditional_ratio_estimate_validation():
    with pytest.raises(ValueError):
        conditional_ratio_estimate(
            RandomSource(A2, 1), RandomSource(A2, 2), 100, 8
        )


@pytest.mark.parametrize("estimate", [conditional_ratio_estimate, independence_report])
def test_block_coder_estimates_refuse_block_length_zero(estimate):
    with pytest.raises(ValueError, match="^block length must be at least 1$"):
        estimate(RandomSource(A2, 1), RandomSource(A2, 2), 64, 0)


class _TernaryOnBinary(WordSource):
    """Breaks the source contract: counts 0, 1, 2, 0, 1, 2, ... over the
    binary alphabet, so symbol 2 is out of range."""

    def __init__(self):
        super().__init__(A2)
        self._count = 0

    def _produce(self, n):
        out = (np.arange(self._count, self._count + n) % 3).astype(np.uint8)
        self._count += n
        return out

    def clone(self):
        return _TernaryOnBinary()


@pytest.mark.parametrize(
    "read",
    [
        lambda bad: bad.prefix(64),
        lambda bad: conditional_ratio_estimate(bad, RandomSource(A2, 1), 64, 2),
        lambda bad: conditional_ratio_estimate(RandomSource(A2, 1), bad, 64, 2),
        lambda bad: unconditional_ratio_estimate(bad, 64, 2),
        lambda bad: independence_report(bad, RandomSource(A2, 1), 64, 2),
        lambda bad: independence_report(RandomSource(A2, 1), bad, 64, 2),
    ],
)
def test_block_coder_estimates_reject_a_source_outside_its_alphabet(read):
    # prefix keeps take's array without a copy, but still checks its range
    with pytest.raises(ValueError, match="^symbol 2 outside alphabet of size 2$"):
        read(_TernaryOnBinary())


def test_independence_report_identical_pair_is_dependent():
    x = RandomSource(A2, seed=50)
    rep = independence_report(x.clone(), x.clone(), 4096, 8)
    assert rep.rho_x_given_y == 0.125
    assert rep.rho_x > 0.9
    assert rep.gap_x > 0.8
    assert not rep.independent(0.2)


@pytest.mark.parametrize("b, k", [(2, 1), (2, 4), (2, 16), (3, 3), (3, 7)])
def test_independence_report_matches_four_separate_estimates(b, k):
    # at n near 2**12, the 2**1, 2**4 and 3**3 possible blocks are coded as a
    # table, while 2**16 and 3**7 are more than the measured blocks
    n, A = (1 << 12) // (2 * k) * (2 * k), Alphabet(b)
    rand = RandomSource(A, seed=10 * b + k)
    pairs = [
        (rand, RandomSource(A, seed=10 * b + k + 1)),
        (rand, rand),
        (rand, LiteralSource(FiniteWord(A, np.zeros(n, dtype=np.uint8)))),
        (OddSource(SelfSimilarSource(b)), EvenSource(SelfSimilarSource(b))),
    ]
    for x, y in pairs:
        assert independence_report(x, y, n, k) == naive_independence_report(x, y, n, k)
        want = naive_independence_report(x, x, n, k).rho_x
        assert unconditional_ratio_estimate(x, n, k).final_ratio == want


def test_independence_report_random_pair_is_independent():
    rep = independence_report(
        RandomSource(A2, seed=51), RandomSource(A2, seed=52), 1 << 14, 8
    )
    assert rep.gap_x <= 0.05 and rep.gap_y <= 0.05
    assert rep.independent(0.05)


# ---------------------------------------------------------------------------
# losslessness certification


def test_copy_transducer_is_lossless(copy_aut):
    rep = bounded_losslessness_check(copy_aut, 8)
    assert rep.lossless and rep.counterexample is None
    assert rep.words_checked == sum(2**L for L in range(1, 9))


def test_odd_projection_is_lossy():
    rep = bounded_losslessness_check(odd_projection_transducer(A2), 4)
    assert not rep.lossless
    w1, w2 = rep.counterexample
    assert w1 != w2 and len(w1) == len(w2) <= 2
    # both map to output 0 and end in 'keep'
    assert (w1.to_text(), w2.to_text(), rep.words_checked) == ("00", "01", 4)


def test_collapsing_transducer_caught_immediately():
    M = KAutomaton(2, A2, ["s"], "s", [("s", ((a,), ()), "s") for a in (0, 1)])
    rep = bounded_losslessness_check(M, 3)
    assert not rep.lossless
    assert len(rep.counterexample[0]) == 1


def test_match_run_automaton_is_lossless_per_oracle():
    """With the oracle fixed, distinct targets compress to distinct outputs."""
    T = odd_projection_transducer(A2)
    A = match_run_automaton(T, 2)
    x_text = "01101001100101100110100110010110"
    seen = {}
    for val in range(64):
        bits = [(val >> i) & 1 for i in range(6)]
        comp, _ = match_run_compress(T, 2, LiteralSource(word(bits)), lit(x_text), 6)
        key = comp.to_text()
        assert key not in seen, (bits, seen[key])
        seen[key] = bits
    assert len(seen) == 64
