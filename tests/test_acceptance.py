"""Release gate: fifteen end-to-end checks, one test function each.

Each test pins a headline behavior of the package with exact values or
explicit tolerances, and asserts its own runtime budget where one applies.
Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per check.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import numpy as np

from conftest import (
    FIXTURES,
    _naive_digits,
    naive_alocc,
    naive_block_counts,
    naive_forward_pairs,
    naive_occ,
    rand_text,
)
from test_cli import run_cli
from test_perfect import rand_perfect

from fsindep import (
    Alphabet,
    ConditionalModel,
    FiniteWord,
    LiteralSource,
    OddSource,
    RandomSource,
    alocc,
    block_counts,
    build_prefix_code,
    build_sequence,
    check_l_deterministic,
    cond_decode,
    cond_encode,
    conditional_ratio_estimate,
    derive_seed,
    double_length_extend,
    even,
    forward_pairs,
    hardy_bound_eval,
    independence_report,
    is_perfect,
    load_automaton,
    match_run_compress,
    match_run_decompress,
    occ,
    occurrence_profile,
    odd_projection_transducer,
    plain_ratio,
    self_similar_source,
    train_model,
    word,
)

A2 = Alphabet(2)


def test_c01_self_similar_stream_halving_identity():
    t0 = time.perf_counter()
    a = self_similar_source().take(2**18)
    assert a[:4].tolist() == [1, 1, 0, 1]
    # value at every even position equals the value at half that position
    assert np.array_equal(a[1::2], a[: 2**17])
    assert time.perf_counter() - t0 < 2.0


def test_c02_perfect_stage_tower_chains_exactly():
    t0 = time.perf_counter()
    stages = build_sequence(19)
    for s, s_next in zip(stages, stages[1:]):
        assert is_perfect(s.word, s.ell)
        assert even(s_next.word) == s.word
        # the block length doubles exactly when the current length admits it
        should_grow = (2**s.n) % (s.ell * 2 ** (2 * s.ell)) == 0
        assert (s_next.ell == 2 * s.ell) == should_grow
        assert s_next.ell in (s.ell, 2 * s.ell)
    assert time.perf_counter() - t0 < 2.0


def test_c03_aligned_block_frequencies_stay_bounded():
    t0 = time.perf_counter()
    w = self_similar_source().prefix(2**20)
    for ell in (1, 2, 4):
        tbl = block_counts(w, ell, aligned=True)
        top = max(tbl.as_dict().values()) / tbl.total
        assert top <= 3 * 2**-ell + 0.02
    assert time.perf_counter() - t0 < 5.0


def test_c04_counting_matches_naive_scanner():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for _ in range(1000):
        b = rng.choice([2, 2, 3])
        wt = rand_text(rng, rng.randint(1, 512), b)
        ut = rand_text(rng, rng.randint(1, 8), b)
        w, u = word(wt, base=b), word(ut, base=b)
        assert occ(w, u) == naive_occ(wt, ut)
        assert alocc(w, u) == naive_alocc(wt, ut)
        ell = min(len(ut), len(wt))
        for aligned in (True, False):
            got = block_counts(w, ell, aligned=aligned).as_dict()
            # the table lists unseen blocks with count zero; the oracle omits them
            assert {u: c for u, c in got.items() if c} == naive_block_counts(
                wt, ell, aligned
            )
    assert time.perf_counter() - t0 < 5.0


def test_c05_doubling_extension_postconditions():
    t0 = time.perf_counter()
    rng = random.Random(505)
    for _ in range(200):
        ell = rng.choice([1, 2])
        base_copies = 2 if ell == 1 else 4  # keeps the length extendable
        w = rand_perfect(rng, ell, base_copies * rng.randint(1, 4))
        z = double_length_extend(w, ell)
        assert len(z) == 2 * len(w)
        assert even(z) == w
        assert is_perfect(z, 2 * ell)
        # every (odd half, even half) pair of an aligned window is equally hit
        zt = z.to_text()
        pairs: dict = {}
        for i in range(0, len(zt), 2 * ell):
            blk = zt[i : i + 2 * ell]
            key = (blk[0::2], blk[1::2])
            pairs[key] = pairs.get(key, 0) + 1
        assert set(pairs.values()) == {len(z) // (2 * ell * 4**ell)}
    assert time.perf_counter() - t0 < 5.0


def test_c06_fixture_determinism_classification(join_aut, shuffle_aut):
    assert check_l_deterministic(join_aut, 2).deterministic
    rep = check_l_deterministic(shuffle_aut, 2)
    assert not rep.deterministic
    viols = rep.violations
    assert viols and viols[0].state == "q0"
    pair = viols[0].pair
    assert pair is not None and len(pair) == 2
    labels = sorted(t.label_text(shuffle_aut.alphabet) for t in pair)
    assert labels == ["-,0,0", "0,-,0"]


def test_c07_identity_transducer_ratio_is_one(copy_aut):
    for src in (RandomSource(A2, 7001), self_similar_source()):
        assert plain_ratio(copy_aut, src, 10**5).final_ratio == 1.0


def test_c08_match_run_compresses_projected_stream():
    n, k = 2**20, 16
    T = odd_projection_transducer(A2)
    comp, est = match_run_compress(
        T, k, OddSource(self_similar_source()), self_similar_source(), n
    )
    assert est.final_ratio == math.ceil(n / k) / n
    assert est.final_ratio <= 0.0625 + 2**-20
    recovered = match_run_decompress(T, k, comp, self_similar_source())
    assert recovered == OddSource(self_similar_source()).prefix(n)


def test_c09_conditional_codec_round_trips():
    rng = np.random.default_rng(909)
    for trial in range(500):
        b = 2 if trial % 3 else 3
        k = int(rng.integers(1, 5 if b == 2 else 4))
        alpha = Alphabet(b)
        n_train = k * int(rng.integers(4, 40))
        n = k * int(rng.integers(1, 32))
        code = build_prefix_code(
            train_model(
                FiniteWord(alpha, rng.integers(0, b, n_train)),
                FiniteWord(alpha, rng.integers(0, b, n_train)),
                k,
            )
        )
        x = FiniteWord(alpha, rng.integers(0, b, n))
        y = FiniteWord(alpha, rng.integers(0, b, n))
        enc, _ = cond_encode(LiteralSource(x), LiteralSource(y), code, n)
        assert cond_decode(enc, LiteralSource(y), code, n) == x
    # two long seeded instances at block length eight
    for seed in (90901, 90902):
        k, n = 8, 10**6
        xs = RandomSource(A2, derive_seed(seed, 0, 0))
        ys = RandomSource(A2, derive_seed(seed, 0, 1))
        code = build_prefix_code(
            train_model(xs.clone().prefix(2**17), ys.clone().prefix(2**17), k)
        )
        enc, _ = cond_encode(xs.clone(), ys.clone(), code, n)
        assert cond_decode(enc, ys.clone(), code, n) == xs.clone().prefix(n)


def test_c10_block_entropy_separates_dependence():
    t0 = time.perf_counter()
    n, k = 10**6, 8
    for trial in range(2):
        x = RandomSource(A2, derive_seed(1010, trial, 0))
        y = RandomSource(A2, derive_seed(1010, trial, 1))
        r = conditional_ratio_estimate(x, y, n, k).final_ratio
        assert 0.97 <= r <= 1.13  # unrelated streams: no help from the reference
    x = RandomSource(A2, derive_seed(1010, 9, 0))
    assert conditional_ratio_estimate(x, x.clone(), n, k).final_ratio <= 0.2
    # flip ten percent of the reference: still strongly predictive
    base = RandomSource(A2, derive_seed(1010, 8, 0)).take(n)
    mask = (np.random.default_rng(1010).random(n) < 0.1).astype(base.dtype)
    r = conditional_ratio_estimate(
        LiteralSource(FiniteWord(A2, base)),
        LiteralSource(FiniteWord(A2, base ^ mask)),
        n,
        k,
    ).final_ratio
    assert r <= 0.75
    assert time.perf_counter() - t0 < 30.0


def test_c11_independent_pairs_score_near_one():
    t0 = time.perf_counter()
    n, k, master = 10**6, 8, 1111
    ratios, gaps = [], []
    for trial in range(50):
        x = RandomSource(A2, derive_seed(master, trial, 0))
        y = RandomSource(A2, derive_seed(master, trial, 1))
        rep = independence_report(x, y, n, k)
        ratios.append(rep.rho_x_given_y)
        gaps.append(abs(rep.rho_x_given_y - rep.rho_x))
    assert statistics.median(ratios) >= 0.95
    assert sum(g <= 0.05 for g in gaps) >= 45  # ninety percent of 50 trials
    assert time.perf_counter() - t0 < 120.0


def test_c12_occurrence_profile_and_tail_bound():
    assert occurrence_profile(3, 1, 2) == {0: 2, 1: 6, 2: 6, 3: 2}
    rep = hardy_bound_eval(20, 1, 0.4, 2)
    assert rep.tail_count >= 0 and math.isfinite(rep.bound)
    assert rep.holds  # observed tail mass sits under the exponential bound


def test_c13_codebooks_satisfy_kraft_and_length_bound():
    rng = np.random.default_rng(1313)

    def check(code, model, b, k, v_ids):
        for v_id in v_ids:
            lengths, codewords = code.codebook(v_id)
            kraft = sum(Fraction(1, b ** int(L)) for L in lengths if L >= 0)
            assert kraft <= 1
            dv = _naive_digits(v_id, b, k)
            for u_id in range(b**k):
                du = _naive_digits(u_id, b, k)
                s = sum(model.neglog[du[i], dv[i]] for i in range(k))
                if s == 0.0:
                    assert int(lengths[u_id]) == 0 and codewords[u_id] == ()
                else:
                    assert int(lengths[u_id]) == max(math.ceil(s), 1)

    for b, k in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 2)):
        alpha = Alphabet(b)
        model = train_model(
            FiniteWord(alpha, rng.integers(0, b, k * 200)),
            FiniteWord(alpha, rng.integers(0, b, k * 200)),
            k,
        )
        check(build_prefix_code(model), model, b, k, range(b**k))
    # block length eight: spot-check fifty contexts
    model = train_model(
        FiniteWord(A2, rng.integers(0, 2, 8 * 4096)),
        FiniteWord(A2, rng.integers(0, 2, 8 * 4096)),
        8,
    )
    sample = rng.choice(2**8, size=50, replace=False)
    check(build_prefix_code(model), model, 2, 8, [int(v) for v in sample])
    # degenerate sure model: the empty codeword still leaves Kraft feasible
    code = build_prefix_code(ConditionalModel(A2, 2, np.eye(2)))
    for v_id in range(4):
        lengths, _ = code.codebook(v_id)
        assert sum(Fraction(1, 2 ** int(L)) for L in lengths if L >= 0) <= 1


def test_c14_forward_pairs_match_enumeration(join_aut):
    expect = [("q0", 0), ("q0", 1), ("q1", 0), ("q1", 1)]
    assert sorted(forward_pairs(join_aut, word("0"))) == expect
    for path in sorted(FIXTURES.glob("*.aut")):
        M = load_automaton(path)
        if len(M.states) > 4 or M.k == 1:
            continue
        for v in ("0", "1", "00", "01", "10", "11"):
            got = sorted(forward_pairs(M, word(v)))
            assert got == sorted(naive_forward_pairs(M, v)), (path.name, v)


def test_c15_csv_outputs_are_reproducible(tmp_path):
    wordfile = tmp_path / "w.txt"
    rc, _ = run_cli("generate", "--gen", "rand:seed=5", "-n", "4096", "--out", str(wordfile))
    assert rc == 0
    jobs = [
        ("stats", "--word", str(wordfile), "--max-block", "4"),
        ("compress", "--automaton", str(FIXTURES / "copy.aut"),
         "--gen", "rand:seed=3", "-n", "4096"),
        ("condcompress", "--gen", "rand:seed=11", "--ref-gen", "rand:seed=11",
         "-n", "4096", "-k", "8"),
        ("independence", "--x-gen", "rand", "--y-gen", "rand",
         "-n", "1024", "-k", "4", "--trials", "3", "--seed", "7"),
        ("experiment", "join-dependence", "-n", "4096", "-k", "8"),
        ("experiment", "measure-one", "-n", "1024", "-k", "4",
         "--trials", "3", "--seed", "2"),
        ("experiment", "join-normal", "-n", "4096", "--max-block", "4"),
        ("perfect-sequence", "--stages", "10"),
    ]
    for i, args in enumerate(jobs):
        first, second = tmp_path / f"{i}a.csv", tmp_path / f"{i}b.csv"
        assert run_cli(*args, "--csv", str(first))[0] == 0
        assert run_cli(*args, "--csv", str(second))[0] == 0
        data = first.read_bytes()
        assert data and data == second.read_bytes()
