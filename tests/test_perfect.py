"""Block-perfect words, the doubling construction, and the self-similar
stream built from the stage tower."""

import random

import numpy as np
import pytest

from fsindep import (
    build_sequence,
    double_length_extend,
    even,
    is_perfect,
    odd,
    same_length_extend,
    self_similar_source,
    word,
)


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
    # the prefix is stored narrow, but every window comes out as int64
    assert {p.dtype for p in parts} == {np.dtype(np.int64)}


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
