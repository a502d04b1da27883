"""Block statistics, discrepancy reports, and exhaustive occurrence
profiles with their analytic tail bound."""

import itertools
import math
import random

import pytest

from fsindep import (
    Alphabet,
    RandomSource,
    block_counts,
    discrepancy,
    hardy_bound_eval,
    normality_report,
    occurrence_profile,
    word,
)
from conftest import naive_block_counts, rand_text


def test_block_counts_small_pinned():
    t = block_counts(word("00011011"), 2)  # the perfect 2-word: every block once
    assert t.as_dict() == {"00": 1, "01": 1, "10": 1, "11": 1}
    assert t.count("00") == 1
    assert t.frequency("00") == 0.25
    assert t.total == 4
    assert t.max_deviation() == 0.0
    u = block_counts(word("000101"), 2)
    assert u.as_dict() == {"00": 1, "01": 2, "10": 0, "11": 0}


def test_block_counts_sliding():
    t = block_counts(word("00011011"), 2, aligned=False)
    assert t.total == 7
    assert t.count("01") == 2  # positions 3 and 6


def test_block_counts_match_naive_oracle():
    rng = random.Random(606)
    for _ in range(200):
        b = rng.choice([2, 3, 4])
        wt = rand_text(rng, rng.randint(1, 120), b)
        ell = rng.randint(1, min(4, len(wt)))
        for aligned in (True, False):
            table = block_counts(word(wt, base=b), ell, aligned=aligned)
            assert table.as_dict() == {
                **{k: 0 for k in table.as_dict()},
                **naive_block_counts(wt, ell, aligned),
            }


def test_block_counts_validation():
    with pytest.raises(ValueError):
        block_counts(word("01"), 0)
    with pytest.raises(ValueError):
        block_counts(word("01", base=2), 40)  # table would not fit


def test_discrepancy_pinned_values():
    assert discrepancy(word("0123", base=4), 1) == 0.0
    assert discrepancy(word("0011"), 1) == 0.0
    assert discrepancy(word("0001"), 1) == pytest.approx(0.25)
    assert discrepancy(word("0000"), 1) == pytest.approx(0.5)
    # in base 3 the rarest and the most frequent block deviate unequally
    assert discrepancy(word("0011", base=3), 1) == pytest.approx(1 / 3)
    assert discrepancy(word("0012", base=3), 1) == pytest.approx(1 / 6)


def test_discrepancy_shrinks_for_random_words():
    x = RandomSource(Alphabet(2), seed=11)
    small = discrepancy(x.prefix(1 << 10), 2)
    large = discrepancy(x.prefix(1 << 18), 2)
    assert large < small


def test_normality_report_passes_random_word():
    w = RandomSource(Alphabet(2), seed=4).prefix(1 << 16)
    rep = normality_report(w, max_block=6)
    assert rep.flagged == ()
    assert set(rep.discrepancies) == {1, 2, 3, 4, 5, 6}


def test_normality_report_flags_constant_word():
    rep = normality_report(word("0" * 4096), max_block=3)
    assert rep.flagged == (1, 2, 3)
    assert rep.discrepancies[1] == pytest.approx(0.5)


def test_normality_report_limit_formula():
    w = word("01" * 512)
    rep = normality_report(w, max_block=2, threshold=3.0)
    m = 1024 // 2
    assert rep.limits[2] == pytest.approx(3.0 * math.sqrt(math.log(8) / (2 * m)))


def test_normality_report_blocks_longer_than_word_are_skipped():
    rep = normality_report(word("0110"), max_block=10)
    assert max(rep.discrepancies) <= 4


def test_normality_report_refuses_an_empty_word():
    # no block length can be checked, so there is no verdict to give
    with pytest.raises(ValueError, match="^normality needs a nonempty word$"):
        normality_report(word(""), max_block=8)


def test_normality_report_halving_matches_block_counts(monkeypatch):
    """Every length's table equals block_counts' table, derived from its
    double or not, also when n // ell is odd and when max_block > |w|;
    only the lengths above max_block // 2 read the word."""
    from fsindep import normality

    read, deviation = normality.block_counts, normality.BlockCountTable.max_deviation
    reads, tables = [], []
    monkeypatch.setattr(
        normality, "block_counts", lambda w, ell: reads.append(ell) or read(w, ell)
    )

    def record(table):
        tables.append((table.block_length, table.counts.copy(), table.total))
        return deviation(table)

    monkeypatch.setattr(normality.BlockCountTable, "max_deviation", record)
    rng = random.Random(909)
    odd_tails = 0
    for b in (2, 3, 5):
        for n in (1, 2, 3, 5, 6, 7, 9, 11, 13, 21, 23, 45, 47, 95, 97):
            w = word(rand_text(rng, n, b), base=b)
            for max_block in (1, 2, 4, 7, 8) + ((n + 3,) if n < 10 else ()):
                reads.clear()
                tables.clear()
                rep = normality_report(w, max_block)
                top = min(max_block, n)
                assert sorted(reads) == list(range(top // 2 + 1, top + 1))
                assert sorted(t[0] for t in tables) == list(range(1, top + 1))
                for ell, counts, total in tables:
                    expect = read(w, ell)
                    assert counts.tolist() == expect.counts.tolist()
                    assert total == expect.total
                    assert rep.discrepancies[ell] == deviation(expect)
                    odd_tails += 2 * ell <= top and (n // ell) % 2
                assert list(rep.discrepancies) == list(range(1, top + 1))
    assert odd_tails > 100


def test_normality_report_drops_each_table_before_counting_the_next():
    """Up to length 20 over 2**21 binary symbols the traced peak stays
    within 1.8 top tables (2**20 int64 counts): a length's table is
    dropped before the next length is counted, unless it is kept to be
    halved."""
    import tracemalloc

    w = RandomSource(Alphabet(2), seed=5).prefix(1 << 21)
    normality_report(w, 1)  # first calls fill lazy caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        normality_report(w, 20)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * 8 * 2**20, peak / (8 * 2**20)


# traced peak of block_counts(w, ell) over 2**21 random binary symbols when
# np.bincount counted an intp copy of all the ids, to 0.01 MiB
WHOLE_COPY_PEAK_MIB = {1: 16.0, 2: 9.0, 4: 4.5, 8: 2.25, 12: 1.7, 16: 1.75, 20: 9.2}


def test_block_counts_feed_bincount_in_chunks():
    """Counting holds an intp copy of at most max(2**16, b**ell) ids at a
    time: 0.5 MiB at ell = 1 in place of 16, and no length peaks higher
    than a count over one whole copy did.  The counts stay exact."""
    import tracemalloc

    import numpy as np

    from fsindep.blocks import aligned_ids, sliding_ids
    from fsindep.perfect import is_perfect

    w = RandomSource(Alphabet(2), seed=6).prefix(1 << 21)

    def peak_mib(f):
        f()  # first calls fill lazy caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            f()
            return (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()

    assert peak_mib(lambda: block_counts(w, 1)) <= 1.0
    assert peak_mib(lambda: is_perfect(w, 1)) <= 1.0
    # one id past three chunks at ell = 1
    short = RandomSource(Alphabet(2), seed=7).prefix(3 * 2**16 + 1)
    for ell, before in WHOLE_COPY_PEAK_MIB.items():
        assert peak_mib(lambda: block_counts(w, ell)) <= before + 0.01, ell
        for aligned, ids in ((True, aligned_ids), (False, sliding_ids)):
            for v in (w, short):
                expect = np.bincount(ids(v.data, ell, 2), minlength=2**ell)
                assert block_counts(v, ell, aligned).counts.tolist() == expect.tolist()


def test_normality_report_raises_for_the_shortest_length_over_the_cap():
    with pytest.raises(ValueError, match=r"^block table 36\*\*5 exceeds cap 16777216$"):
        normality_report(word("0" * 40, base=36), max_block=9)


def naive_profile(k: int, r: int, b: int) -> dict:
    """Histogram of sliding occurrence counts over all (u, w) pairs."""
    out: dict = {}
    for u in itertools.product(range(b), repeat=r):
        ut = "".join(map(str, u))
        for w in itertools.product(range(b), repeat=k):
            wt = "".join(map(str, w))
            c = sum(
                1 for i in range(k - r + 1) if wt[i : i + r] == ut
            )
            out[c] = out.get(c, 0) + 1
    return out


def test_occurrence_profile_pinned():
    assert occurrence_profile(3, 1, 2) == {0: 2, 1: 6, 2: 6, 3: 2}


def test_occurrence_profile_matches_naive_enumeration():
    cases = [(1, 1, 2), (4, 1, 2), (5, 2, 2), (6, 3, 2), (4, 1, 3), (4, 2, 3)]
    for k, r, b in cases + [(4, 4, 2), (6, 4, 2), (5, 3, 3)]:  # and blocks past the windows
        assert occurrence_profile(k, r, b) == naive_profile(k, r, b), (k, r, b)


def test_occurrence_profile_mass_identities():
    for k, r, b in [(8, 1, 2), (9, 2, 2), (6, 1, 3)]:
        prof = occurrence_profile(k, r, b)
        assert sum(prof.values()) == b ** (k + r)
        assert sum(j * c for j, c in prof.items()) == (k - r + 1) * b**k


def test_occurrence_profile_full_length_blocks():
    # r == k: w contains u exactly when w == u
    prof = occurrence_profile(4, 4, 2)
    assert prof == {0: 2**8 - 2**4, 1: 2**4}


def test_occurrence_profile_validation():
    with pytest.raises(ValueError):
        occurrence_profile(2, 3, 2)  # block longer than word
    with pytest.raises(ValueError):
        occurrence_profile(40, 1, 2)  # table too large


def test_tail_bound_holds_on_grid():
    for k in (12, 16, 20):
        lo, hi = 6.0 / k, 0.5
        for eps in (lo, (lo + hi) / 2, hi):
            rep = hardy_bound_eval(k, 1, eps, 2)
            assert rep.holds, (k, eps)
            assert rep.tail_count <= rep.bound


def test_tail_bound_tail_count_matches_profile():
    k, r, b, eps = 14, 1, 2, 0.45
    rep = hardy_bound_eval(k, r, eps, b)
    prof = occurrence_profile(k, r, b)
    mean = k / b
    expect = sum(c for j, c in prof.items() if abs(j - mean) > eps * k)
    assert rep.tail_count == expect


def test_tail_bound_epsilon_range_enforced():
    with pytest.raises(ValueError):
        hardy_bound_eval(20, 1, 0.01, 2)  # below 6/k
    with pytest.raises(ValueError):
        hardy_bound_eval(20, 1, 0.75, 2)  # above b**-r
