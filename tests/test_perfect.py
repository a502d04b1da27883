"""Block-perfect words, the doubling construction, and the self-similar
stream built from the stage tower."""

import functools
import random

import numpy as np
import pytest

from fsindep import (
    Alphabet,
    FiniteWord,
    SelfSimilarSource,
    build_sequence,
    double_length_extend,
    even,
    is_perfect,
    odd,
    same_length_extend,
    self_similar_source,
    word,
)
from fsindep.words import _dtype_for

from conftest import naive_self_similar_prefix, naive_self_similar_stages


def test_is_perfect_basic():
    assert is_perfect(word("01"), 1)
    assert is_perfect(word("10"), 1)
    assert not is_perfect(word("00"), 1)
    assert is_perfect(word("00011011"), 2)  # each 2-block once
    assert not is_perfect(word("00011010"), 2)
    assert not is_perfect(word("0101"), 2)  # 01 twice, others missing


def test_is_perfect_needs_divisible_length():
    assert not is_perfect(word("010"), 2)  # 3 symbols cannot tile
    assert not is_perfect(word("01"), 2)  # too short for all 4 blocks
    with pytest.raises(ValueError):
        is_perfect(word("01"), 0)


def rand_perfect(rng: random.Random, ell: int, copies: int, b: int = 2):
    """Random ell-perfect word: every block value repeated `copies` times,
    in shuffled aligned order."""
    blocks = [v for v in range(b**ell) for _ in range(copies)]
    rng.shuffle(blocks)
    symbols = []
    for v in blocks:
        symbols.extend((v // b ** (ell - 1 - i)) % b for i in range(ell))
    return word(symbols, base=b)


def test_rand_perfect_generator_is_sound():
    rng = random.Random(0)
    w = rand_perfect(rng, 2, 8)
    assert is_perfect(w, 2) and len(w) == 64


def test_double_length_extend_pinned():
    assert double_length_extend(word("0101"), 1).to_text() == "00011011"
    assert double_length_extend(word("1001"), 1).to_text() == "01001011"


def test_double_length_extend_postconditions():
    rng = random.Random(7)
    for _ in range(150):
        ell = rng.choice([1, 1, 2])
        base_copies = 2 if ell == 1 else 4  # make count divisible by 2**ell
        copies = base_copies * rng.randint(1, 4)
        w = rand_perfect(rng, ell, copies)
        z = double_length_extend(w, ell)
        assert len(z) == 2 * len(w)
        assert even(z) == w
        assert is_perfect(z, 2 * ell)
        assert is_perfect(z, ell)  # perfection also holds at the old length
        # each (odd half, even half) pair of an aligned 2*ell block is
        # hit exactly len(z) / (2*ell * 4**ell) times
        pairs: dict = {}
        zt = z.to_text()
        for i in range(0, len(zt), 2 * ell):
            blk = zt[i : i + 2 * ell]
            key = (blk[0::2], blk[1::2])
            pairs[key] = pairs.get(key, 0) + 1
        expect = len(z) // (2 * ell * 4**ell)
        assert set(pairs.values()) == {expect}


def test_double_length_extend_validation():
    with pytest.raises(ValueError):
        double_length_extend(word("0001"), 1)  # not perfect
    with pytest.raises(ValueError):
        double_length_extend(word("01"), 1)  # length 2 not divisible by 4


def test_same_length_extend_postconditions():
    rng = random.Random(21)
    for _ in range(60):
        copies = 2 * rng.randint(1, 4)  # length divisible by 1 * 2**2
        w = rand_perfect(rng, 2, copies)
        z = same_length_extend(w, 2)
        assert len(z) == 2 * len(w)
        assert even(z) == w
        assert is_perfect(z, 2)


def test_same_length_extend_needs_even_block_length():
    with pytest.raises(ValueError):
        same_length_extend(word("0101"), 1)


def test_build_sequence_pinned_stages():
    stages = build_sequence(3)
    assert [s.word.to_text() for s in stages] == ["01", "1001", "01001011"]
    assert [s.ell for s in stages] == [1, 1, 2]
    assert [s.rule for s in stages] == ["seed", "seed", "grow-blocks"]


def test_build_sequence_block_length_schedule():
    stages = build_sequence(20)
    assert [s.ell for s in stages] == [
        1, 1, 2, 2, 2, 4, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 16,
    ]


def test_build_sequence_every_stage_is_perfect():
    for s in build_sequence(16):
        assert len(s.word) == 2**s.n
        assert is_perfect(s.word, s.ell), s.n


def test_build_sequence_even_projection_chain():
    stages = build_sequence(14)
    for a, b in zip(stages, stages[1:]):
        assert even(b.word) == a.word


def test_build_sequence_growth_follows_divisibility():
    stages = build_sequence(18)
    for a, b in zip(stages[1:], stages[2:]):  # past the seeds
        grew = b.ell == 2 * a.ell
        assert grew == (len(a.word) % (a.ell * 2 ** (2 * a.ell)) == 0)
        assert grew == (b.rule == "grow-blocks")
        if not grew:
            assert b.ell == a.ell and b.rule == "same-blocks"


def test_build_sequence_base3():
    stages = build_sequence(6, base=3)
    assert [s.ell for s in stages] == [1, 1, 1, 3, 3, 3]
    for s in stages:
        assert len(s.word) == 2 * 3**s.n
        assert is_perfect(s.word, s.ell)


def test_build_sequence_validation():
    with pytest.raises(ValueError):
        build_sequence(0)


def test_self_similar_prefix_pinned():
    assert self_similar_source().prefix(16).to_text() == "1101100101001011"


def test_self_similar_stream_is_seed_plus_stages():
    x = self_similar_source().prefix(2 + 2 + 4 + 8 + 16)
    stages = build_sequence(4)
    flat = "11" + "".join(s.word.to_text() for s in stages)
    assert x.to_text() == flat


def test_self_similar_halving_identity():
    w = self_similar_source().prefix(1 << 16)
    d = w.data
    n = np.arange(1, (1 << 15) + 1)
    assert np.array_equal(d[2 * n - 1], d[n - 1])  # x[2n] == x[n], 1-indexed


def test_self_similar_chunking_and_clone():
    s = self_similar_source()
    parts = [s.take(k) for k in (1, 2, 5, 100, 1000)]
    a = np.concatenate(parts)
    assert np.array_equal(a, s.clone().take(1108))
    # every window comes out in the tower's own narrow dtype
    assert {p.dtype for p in parts} == {np.dtype(_dtype_for(2))}


def test_self_similar_even_projection_is_itself():
    x = self_similar_source()
    n = 4096
    assert even(x.clone()).prefix(n) == x.prefix(n)


def test_self_similar_odd_differs_from_stream():
    x = self_similar_source()
    assert odd(x.clone()).prefix(64) != x.prefix(64)


def test_self_similar_base3():
    x = self_similar_source(base=3).prefix(3**8)
    d = x.data
    assert x.segment(1, 3).to_text() == "111"
    n = np.arange(1, 3**7 + 1)
    assert np.array_equal(d[3 * n - 1], d[n - 1])  # x[3n] == x[n]


# ---------------------------------------------------------------------------
# the stream and the stages against the per-call oracle

N_ORACLE = 1 << 20


@functools.lru_cache(maxsize=None)
def oracle_prefix(base):
    return naive_self_similar_prefix(N_ORACLE, base)


def stage_offsets(base, end):
    """0-based stream positions up to end where a stage word starts: stage n
    starts after base + (base-1)*(base + ... + base**(n-1)) = base**n symbols."""
    out, n = [], 1
    while base**n <= end:
        out.append(base**n)
        n += 1
    return out


@pytest.mark.parametrize("base", [2, 3, 5])
def test_self_similar_stream_matches_oracle(base):
    want = oracle_prefix(base)
    assert np.array_equal(self_similar_source(base).take(N_ORACLE), want)
    s = self_similar_source(base)
    rng = random.Random(base)
    parts, got = [], 0
    while got < N_ORACLE:
        k = min(rng.choice([1, 2, 7, 100, 4093, 1 << 16]), N_ORACLE - got)
        parts.append(s.take(k))
        got += k
    assert np.array_equal(np.concatenate(parts), want)
    n = np.arange(1, N_ORACLE // base + 1)
    assert np.array_equal(want[base * n - 1], want[n - 1])  # x[base*n] == x[n]


def test_self_similar_sources_read_interleaved():
    want = oracle_prefix(2)
    a, b = self_similar_source(), self_similar_source()
    pos_a, pos_b = 0, 0
    for k_a, k_b in [(1, 3000), (5000, 1), (70000, 2), (1, 300000), (200000, 17)]:
        assert np.array_equal(a.take(k_a), want[pos_a : pos_a + k_a])
        pos_a += k_a
        assert np.array_equal(b.take(k_b), want[pos_b : pos_b + k_b])
        pos_b += k_b


def test_self_similar_clones_taken_mid_stream():
    want = oracle_prefix(3)
    s = self_similar_source(3)
    assert np.array_equal(s.take(1000), want[:1000])
    c = s.clone()
    assert np.array_equal(c.take(40000), want[:40000])
    cc = c.clone()
    assert np.array_equal(s.take(300), want[1000:1300])
    assert np.array_equal(cc.take(100), want[:100])
    assert np.array_equal(c.take(5), want[40000:40005])
    assert s.prefix(50) == c.prefix(50) == FiniteWord(Alphabet(3), want[:50])


@pytest.mark.parametrize("base", [2, 3, 5])
def test_self_similar_windows_across_stage_boundaries(base):
    want = oracle_prefix(base)
    for off in stage_offsets(base, N_ORACLE - 4):
        for lo, hi in ((off - 1, off + 1), (off - 2, off + 3), (off, off + 1), (off - 1, off)):
            s = self_similar_source(base)
            s.take(lo)
            assert np.array_equal(s.take(hi - lo), want[lo:hi]), (off, lo, hi)
        s = self_similar_source(base)
        s.take(off - 2)
        assert [s.pop() for _ in range(4)] == want[off - 2 : off + 2].tolist(), off


@pytest.mark.parametrize("base, n_max", [(2, 17), (3, 9), (5, 6)])
def test_build_sequence_matches_oracle(base, n_max):
    for size in (n_max, 1, n_max - 2):
        stages = build_sequence(size, base=base)
        want = naive_self_similar_stages(size, base)
        assert len(stages) == size
        for s, (n, ell, rule, symbols) in zip(stages, want):
            assert (s.n, s.ell, s.rule) == (n, ell, rule)
            assert s.word.data.tolist() == symbols, n


# ---------------------------------------------------------------------------
# one tower per base per process


def test_advance_runs_once_per_stage_per_base(monkeypatch):
    from fsindep import perfect

    monkeypatch.setattr(perfect, "_TOWERS", {})  # start from no stages
    built = []
    advance = perfect._advance

    def spy(stage, base):
        built.append((base, stage.n + 1))
        return advance(stage, base)

    monkeypatch.setattr(perfect, "_advance", spy)
    for base in (2, 3):
        x = self_similar_source(base)
        x.take(1000)
        c = x.clone()
        c.take(base**9)
        build_sequence(5, base=base)
        x.take(base**10)  # into stage 10, which starts at base**10
        self_similar_source(base).prefix(base**10 + 1)
        c.clone().take(7)
        build_sequence(11, base=base)
    seeds = {2: 2, 3: 1}
    assert built == [(b, n) for b in (2, 3) for n in range(seeds[b] + 1, 12)]


def test_tower_stages_are_built_in_the_alphabet_dtype(monkeypatch):
    import tracemalloc

    from fsindep import perfect

    monkeypatch.setattr(perfect, "_TOWERS", {})  # build every stage below
    n = 1 << 18
    tracemalloc.start()
    try:
        SelfSimilarSource(6).take(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # base 6 keeps block length 1 this far, so each stage is a fill
    # extension of the last; through int64 arrays it peaked at 19 B/symbol
    assert peak <= 8 * n, peak / n


@pytest.mark.parametrize("base", [2, 3, 4, 5, 6, 7, 16])
def test_a_cold_tower_peaks_at_a_few_bytes_per_symbol(base, monkeypatch):
    import tracemalloc

    from fsindep import perfect

    monkeypatch.setattr(perfect, "_TOWERS", {})  # build every stage below
    tracemalloc.start()
    try:
        SelfSimilarSource(base).take(1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tower = perfect._TOWERS[base].starts[-1]
    assert tower >= 1 << 20
    # the stages, one byte a symbol, the build of the last one and the
    # window read; through int64 stage builds this took 6 to 10 B/symbol
    assert peak <= 5 * tower, (base, peak / tower)


def test_a_second_source_builds_no_second_tower():
    import tracemalloc

    n = 1 << 20
    first = SelfSimilarSource(2).take(n)
    tracemalloc.start()
    try:
        second = SelfSimilarSource(2).take(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the window itself, one byte a symbol, and no stage words
    assert peak <= n + (1 << 20), peak
    assert np.array_equal(first, second)
