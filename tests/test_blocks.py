"""Base-b block ids and digits against the naive per-symbol oracles."""

import random

import numpy as np
import pytest

from fsindep import block_counts, word
from fsindep.blocks import aligned_ids, digit_runs, digits, sliding_ids
from fsindep.words import _dtype_for

from conftest import _naive_block_id, _naive_digits, naive_block_counts, rand_text

# (b, ell) on both sides of each id dtype boundary: b**ell = 256 / 257 and
# 65536 / 65537, and the lengths next to them
CASES = [
    (2, 1), (2, 7), (2, 8), (2, 9), (2, 15), (2, 16), (2, 17),
    (3, 1), (3, 5), (3, 6), (3, 10), (3, 11),
    (36, 1), (36, 2), (36, 3), (36, 4),
    (255, 1), (255, 2), (255, 3),
    (256, 1), (256, 2), (256, 3),
    (257, 1), (65536, 1), (65537, 1),
    (300, 1), (300, 2),
]


def _symbols(rng, b, n):
    data = np.array([rng.randrange(b) for _ in range(n)])
    data[: n // 8] = b - 1  # the largest id of every length occurs
    return data.astype(_dtype_for(b))


@pytest.mark.parametrize("b, ell", CASES)
def test_aligned_and_sliding_ids_match_the_naive_id(b, ell):
    rng = random.Random(b * 100 + ell)
    for n in (ell, 3 * ell + ell // 2, 8 * ell + 1):
        data = _symbols(rng, b, n)
        got = aligned_ids(data, ell, b)
        expect = [_naive_block_id(data[i : i + ell], b) for i in range(0, n - ell + 1, ell)]
        assert got.tolist() == expect
        wide = aligned_ids(data.astype(np.intp), ell, b)  # a wider input, the same ids
        assert wide.tolist() == expect
        if ell > 1:
            assert got.dtype == wide.dtype == _dtype_for(b**ell)
        got = sliding_ids(data, ell, b)
        assert got.tolist() == [_naive_block_id(data[i : i + ell], b) for i in range(n - ell + 1)]


@pytest.mark.parametrize("b, ell", CASES)
def test_digits_match_the_naive_digits_and_invert_ids(b, ell):
    rng = random.Random(b * 100 + ell)
    vals = [0, b**ell - 1] + [rng.randrange(b**ell) for _ in range(30)]
    got = digits(np.array(vals, dtype=np.int64), ell, b)
    assert got.shape == (len(vals), ell)
    assert [tuple(r) for r in got.tolist()] == [_naive_digits(v, b, ell) for v in vals]
    assert aligned_ids(got.reshape(-1), ell, b).tolist() == vals
    assert tuple(digits(vals[1], ell, b).tolist()) == _naive_digits(vals[1], b, ell)


def test_digits_of_python_ints_past_64_bits():
    vals = np.array([2**70 + 5, 3, 0], dtype=object)
    got = digits(vals, 72, 2)
    assert [tuple(r) for r in got.tolist()] == [_naive_digits(int(v), 2, 72) for v in vals]


@pytest.mark.parametrize("b", [2, 3, 10])
def test_digit_runs_write_each_value_at_its_own_width(b):
    rng = random.Random(b)
    for n in (0, 1, 7, 300):
        widths = [rng.choice((0, 1, 2, 5, 9, 13)) for _ in range(n)]
        vals = [rng.randrange(b**w) for w in widths]
        want = [d for v, w in zip(vals, widths) for d in _naive_digits(v, b, w)]
        got = digit_runs(np.array(vals, dtype=np.int64), np.array(widths, dtype=np.int16), b)
        assert got.dtype == _dtype_for(b) and got.tolist() == want
    # values past 64 bits come as Python ints in an object array
    vals, widths = [2**70 + 5, 3, 0, b**80 - 1], [72 if b == 2 else 70, 2, 0, 80]
    want = [d for v, w in zip(vals, widths) for d in _naive_digits(v, b, w)]
    assert digit_runs(np.array(vals, dtype=object), widths, b).tolist() == want


def test_ids_past_32_bits_are_refused():
    with pytest.raises(ValueError, match="32 bits"):
        aligned_ids(np.zeros(66, dtype=np.uint8), 33, 2)
    with pytest.raises(ValueError, match="32 bits"):
        sliding_ids(np.zeros(66, dtype=np.uint8), 33, 2)


@pytest.mark.parametrize("b", [2, 3, 36])
def test_block_counts_over_the_dtype_boundaries_match_naive_counts(b):
    rng = random.Random(b)
    for ell in [ell for bb, ell in CASES if bb == b and b**ell <= 1 << 16]:
        for n in (ell, 5 * ell + 1, 300):
            wt = rand_text(rng, n, b)
            for aligned in (True, False):
                table = block_counts(word(wt, base=b), ell, aligned=aligned)
                got = {k: c for k, c in table.as_dict().items() if c}
                assert got == naive_block_counts(wt, ell, aligned)
                assert table.total == sum(got.values())
