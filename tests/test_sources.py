"""Streaming word sources: buffering, cloning, parity wrappers, seeding."""

import random

import numpy as np
import pytest

from fsindep import (
    Alphabet,
    EvenSource,
    FiniteWord,
    JoinSource,
    LiteralSource,
    OddSource,
    PeriodicSource,
    RandomSource,
    SourceExhausted,
    derive_seed,
    even,
    file_source,
    join,
    odd,
    word,
)
from conftest import naive_splitmix64

A2 = Alphabet(2)
A3 = Alphabet(3)


def text_of(s, n: int) -> str:
    return FiniteWord(s.alphabet, s.take(n)).to_text()


def test_periodic_source_repeats_pattern():
    s = PeriodicSource(word("011", base=2))
    assert text_of(s, 8) == "01101101"
    assert text_of(s, 1) == "1"  # picks up mid-pattern


def test_literal_source_exhausts():
    s = LiteralSource(word("0110"))
    assert text_of(s, 3) == "011"
    assert s.take_available(9).tolist() == [0]
    with pytest.raises(SourceExhausted):
        s.take(1)


def test_take_vs_take_available():
    s = LiteralSource(word("01"))
    with pytest.raises(SourceExhausted):
        s.clone().take(3)
    assert s.take_available(3).tolist() == [0, 1]


def test_take_rejects_negative():
    with pytest.raises(ValueError):
        RandomSource(A2, seed=0).take(-1)


def test_peek_pop_prefix_do_not_interfere():
    s = RandomSource(A2, seed=42)
    ahead = s.prefix(10)  # non-consuming
    assert s.peek() == ahead[1]
    got = [s.pop() for _ in range(10)]
    assert word(got) == ahead
    exhausted = LiteralSource(word("0"))
    exhausted.pop()
    assert exhausted.peek() is None


def test_clone_restarts_from_scratch():
    s = RandomSource(A2, seed=7)
    s.take(100)
    c = s.clone()
    assert np.array_equal(c.take(5), RandomSource(A2, seed=7).take(5))


def test_random_source_is_deterministic_and_chunking_invariant():
    a = RandomSource(A3, seed=123)
    b = RandomSource(A3, seed=123)
    chunks = np.concatenate([a.take(n) for n in (1, 7, 64, 3)])
    assert np.array_equal(b.take(75), chunks)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, derive_seed(11, 3)])
def test_random_source_matches_the_splitmix64_oracle(seed):
    # the odd sizes make takes start and end inside 2**16-symbol mixing chunks
    sizes = (3, (1 << 16) - 3, 7, (1 << 16) + 5)
    mixed = naive_splitmix64(seed, sum(sizes))
    for b in (2, 3, 4, 256):  # powers of two and not
        s = RandomSource(Alphabet(b), seed)
        got = [s.take(n) for n in sizes]
        assert all(part.dtype == np.uint8 for part in got)
        assert np.concatenate(got).tolist() == [z % b for z in mixed], b
        assert s.clone().take(9).tolist() == [z % b for z in mixed[:9]], b


@pytest.mark.parametrize("seed", [2**64 - 2, 2**64 - 0x9E3779B97F4A7C15 * 3 % 2**64, 2**63 + 1])
def test_random_source_streams_across_chunks_after_partial_takes(seed):
    # seeds near 2**64, and one whose counter wraps at its third symbol; two
    # pops fill a 1024-symbol buffer, so the takes after them start inside it
    # and their fresh symbols start and end inside 2**16-symbol mixing chunks
    sizes = (5, 1020, (1 << 16) + 3, 1, (1 << 16) - 2)
    mixed = naive_splitmix64(seed, 2 + sum(sizes))
    for b in (2, 3, 7):
        s = RandomSource(Alphabet(b), seed)
        got = [s.pop(), s.pop()]
        for n in sizes:
            got += s.take(n).tolist()
            assert s.clone().take(n).tolist() == [z % b for z in mixed[:n]], (b, n)
        assert got == [z % b for z in mixed], b


def test_random_source_take_has_a_bounded_peak_per_symbol():
    import tracemalloc

    n = 1 << 21
    s = RandomSource(A2, seed=5)
    s.take(3)  # the next request starts off a mixing-chunk boundary
    tracemalloc.start()
    try:
        got = s.take(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the uint8 result and take's copy of it, plus a fixed part for the
    # mixing temporaries (32 B/symbol when a whole request was mixed at once)
    assert peak <= 2 * n + (2 << 20), peak / n
    whole = RandomSource(A2, seed=5).take(n + 3)
    assert np.array_equal(got, whole[3:])


def test_random_source_take_hands_out_its_fresh_array():
    import tracemalloc

    n = 1 << 21
    tracemalloc.start()
    try:
        RandomSource(A2, seed=5).take(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the uint8 symbols and the mixing temporaries, but no copy of the symbols
    assert peak < 1.9 * n, peak / n


def test_prefix_keeps_the_fresh_take_without_a_copy():
    import tracemalloc

    n = 1 << 21
    tracemalloc.start()
    try:
        w = RandomSource(A2, seed=5).prefix(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # as take alone: a second copy of the symbols would make it 2 B/symbol
    assert peak < 1.9 * n, peak / n
    assert np.array_equal(w.data, RandomSource(A2, seed=5).take(n))
    with pytest.raises(ValueError):
        w.data[0] = 1
    # a view of the source's own data is copied before the word keeps it
    lit = LiteralSource(word("0110", base=2))
    assert not np.shares_memory(lit.prefix(4).data, lit.word.data)


def test_periodic_source_take_stays_in_the_pattern_dtype():
    import tracemalloc

    pattern = word("01101", base=2)
    n = 1 << 20
    tracemalloc.start()
    try:
        PeriodicSource(pattern).take(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the tiled uint8 pattern and take's copy of it; two int64 index
    # arrays (16 B/symbol) before
    assert peak <= 3 << 20, peak / n
    p = np.asarray(pattern.data)
    for offset in range(2 * len(pattern) + 2):
        s = PeriodicSource(pattern)
        s.take(offset)
        want = p[(offset + np.arange(37)) % len(pattern)]
        assert np.array_equal(s.take(37), want), offset


def arrays_held_by(src):
    """The numpy arrays a source refers to: its fields, its words' data and,
    for the self-similar stream, the stage chunks of its base."""
    from fsindep import SelfSimilarSource, perfect

    held = []
    for v in vars(src).values():
        if isinstance(v, np.ndarray):
            held.append(v)
        elif isinstance(v, FiniteWord):
            held.append(v.data)
    if isinstance(src, SelfSimilarSource):
        held.extend(perfect._TOWERS[src.base].chunks)
    return held


def test_take_never_shares_memory_with_the_source():
    from fsindep import SelfSimilarSource

    def unread(s):
        got = s.take(40)
        s._unread(got[30:])
        return s

    def peeked(s):
        s.peek()
        return s

    sources = [
        LiteralSource(word("0110" * 300)),
        PeriodicSource(word("011")),
        SelfSimilarSource(2),
        SelfSimilarSource(3),
        unread(RandomSource(A2, seed=3)),
        unread(LiteralSource(word("01" * 300))),
        peeked(LiteralSource(word("0011" * 100))),
    ]
    for s in sources:
        for k in (1, 4, 10, 37, 300):  # inside and across the buffer and stages
            got = s.take(k)
            for held in arrays_held_by(s):
                assert not np.shares_memory(got, held), (type(s).__name__, k)


def test_random_source_seed_sensitivity():
    x = RandomSource(A2, seed=1).take(64)
    y = RandomSource(A2, seed=2).take(64)
    assert not np.array_equal(x, y)


def test_random_source_roughly_uniform():
    # crude sanity check, not a statistical test
    w = RandomSource(A2, seed=9).take(1 << 16)
    ones = int(np.sum(w))
    assert abs(ones / (1 << 16) - 0.5) < 0.01


def test_derive_seed_is_stable_and_branching():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
    assert derive_seed(5, 1) != derive_seed(5, 2)
    assert 0 <= derive_seed(2**63, 7) < 2**64


def test_file_source_matches_file(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("0120\n")
    assert text_of(file_source(p, 3), 4) == "0120"


def test_parity_sources_match_word_level_ops():
    rng = random.Random(31)
    for n in (1, 2, 3, 10, 65, 128):
        base = word([rng.randrange(2) for _ in range(256)])
        lit = LiteralSource(base)
        assert OddSource(lit.clone()).prefix(n) == odd(base).segment(1, n)
        assert EvenSource(lit.clone()).prefix(n) == even(base).segment(1, n)


def test_odd_source_drops_trailing_even_symbol():
    # 5-symbol stream has 3 odd-position symbols but only 2 complete pairs
    s = OddSource(LiteralSource(word("10110")))
    assert s.take_available(10).tolist() == [1, 1, 0]


def test_even_source_sees_only_complete_pairs():
    s = EvenSource(LiteralSource(word("10110")))
    assert s.take_available(10).tolist() == [0, 1]


def test_join_source_matches_word_level_join():
    x = word("0011010111")
    y = word("1100101000")
    j = JoinSource(LiteralSource(x), LiteralSource(y))
    assert j.prefix(20) == join(x, y)


def test_join_interleaves_two_sources_and_refuses_a_word_and_a_source():
    x, y = word("0011010111"), word("1100101000")
    j = join(LiteralSource(x), LiteralSource(y))
    assert isinstance(j, JoinSource)
    assert j.prefix(20) == join(x, y)
    with pytest.raises(TypeError):
        join(x, LiteralSource(y))


def test_join_source_parity_across_chunked_reads():
    jx = RandomSource(A2, seed=5)
    jy = RandomSource(A2, seed=6)
    s = JoinSource(jx.clone(), jy.clone())
    onebyone = [s.pop() for _ in range(101)]
    bulk = JoinSource(jx.clone(), jy.clone()).prefix(101)
    assert word(onebyone) == bulk
    assert odd(bulk.segment(1, 100)) == jx.clone().prefix(50)
    assert even(bulk.segment(1, 100)) == jy.clone().prefix(50)


def test_join_source_truncates_on_dry_side():
    s = JoinSource(LiteralSource(word("000")), LiteralSource(word("1")))
    # x1 y1 x2, then x3 has no partner: 3 symbols available
    assert s.take_available(10).tolist() == [0, 1, 0]


def test_wrappers_reject_alphabet_mismatch():
    with pytest.raises(ValueError):
        JoinSource(RandomSource(A2, 1), RandomSource(A3, 1))


def test_nested_wrappers_compose():
    base = RandomSource(A2, seed=77)
    w = base.prefix(400)
    assert OddSource(EvenSource(base.clone())).prefix(64) == odd(even(w)).segment(
        1, 64
    )
    assert EvenSource(OddSource(base.clone())).prefix(64) == even(odd(w)).segment(
        1, 64
    )
