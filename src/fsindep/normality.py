"""Block counting, discrepancy, and finite occurrence-count tail bounds."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from .blocks import _count_ids, _horner, aligned_ids, digits, sliding_ids
from .words import Alphabet, FiniteWord, MAX_TEXT_ALPHABET

#: largest block table we are willing to allocate
_TABLE_CAP = 2**24


def _table_guard(b: int, ell: int):
    """Refuse lengths up to ell when one's table tops the cap; names the shortest."""
    if b**ell > _TABLE_CAP:
        ell = next(j for j in range(1, ell + 1) if b**j > _TABLE_CAP)
        raise ValueError(f"block table {b}**{ell} exceeds cap {_TABLE_CAP}")


@dataclass
class BlockCountTable:
    """Counts of every length-ell block of one word.

    aligned=True counts blocks on the ell-grid (positions 1, ell+1, ...,
    dropping an incomplete tail); aligned=False counts all sliding
    windows.  counts is indexed by the base-b value of the block.
    """

    alphabet: Alphabet
    block_length: int
    aligned: bool
    counts: np.ndarray
    total: int

    def _block_id(self, u: Union[str, FiniteWord]) -> int:
        if isinstance(u, str):
            data = self.alphabet.parse(u)
        else:
            if u.alphabet != self.alphabet:
                raise ValueError("block alphabet does not match the table")
            data = u.data
        if data.size != self.block_length:
            raise ValueError(
                f"block has length {data.size}, table holds length {self.block_length}"
            )
        return int(aligned_ids(data, self.block_length, self.alphabet.size)[0])

    def count(self, u) -> int:
        return int(self.counts[self._block_id(u)])

    def frequency(self, u) -> float:
        return self.count(u) / self.total

    def as_dict(self) -> Dict[str, int]:
        if self.alphabet.size > MAX_TEXT_ALPHABET:
            raise ValueError("alphabet too large to render block keys")
        # product() runs through blocks in base-b order, first symbol most
        # significant: exactly the order of the counts array
        chars = self.alphabet.render(range(self.alphabet.size))
        keys = map("".join, itertools.product(chars, repeat=self.block_length))
        return dict(zip(keys, self.counts.tolist()))

    def max_deviation(self) -> float:
        """max_u |frequency(u) - b**-ell|"""
        target = self.alphabet.size**-self.block_length
        if self.total == 0:
            return target
        # division and subtraction are monotone, so the extreme counts give
        # the extreme deviations, with no array of b**ell frequencies
        c, total = self.counts, self.total
        return float(max(c.max() / total - target, target - c.min() / total))


def block_counts(w: FiniteWord, ell: int, aligned: bool = True) -> BlockCountTable:
    ell = int(ell)
    if ell < 1:
        raise ValueError("block length must be at least 1")
    if ell > len(w):
        raise ValueError(f"block length {ell} exceeds word length {len(w)}")
    b = w.alphabet.size
    _table_guard(b, ell)
    ids = (aligned_ids if aligned else sliding_ids)(w.data, ell, b)
    return BlockCountTable(w.alphabet, ell, aligned, _count_ids(ids, b**ell), ids.size)


def discrepancy(w: FiniteWord, ell: int) -> float:
    """Worst aligned-frequency deviation from uniform at block length ell."""
    return block_counts(w, ell, aligned=True).max_deviation()


@dataclass
class NormalityReport:
    """Discrepancy summary over block lengths 1..max_block.

    A block length is flagged when its discrepancy exceeds
    threshold * sqrt(ln(2 * b**ell) / (2 * m)) with m the number of
    aligned blocks; that scale is a union-bound tail for i.i.d. uniform
    symbols, so flags indicate deviation well beyond sampling noise.
    """

    n: int
    max_block: int
    threshold: float
    discrepancies: Dict[int, float]
    limits: Dict[int, float]
    flagged: tuple

    @property
    def plausibly_normal(self) -> bool:
        return not self.flagged


def normality_report(
    w: FiniteWord, max_block: int, threshold: float = 3.0
) -> NormalityReport:
    """Discrepancies at block lengths 1 .. min(max_block, |w|); w must be nonempty.

    Lengths are walked from the longest down.  The aligned table of a
    length ell whose double was counted is the sum of the double's table
    over each half, plus the tail block at 2 * (n // (2 * ell)) * ell when
    n // ell is odd, so only the lengths above half the longest read the
    word.  A table is dropped once its half is derived.
    """
    if max_block < 1:
        raise ValueError("max_block must be at least 1")
    n, b = len(w), w.alphabet.size
    if n == 0:  # no block length is checked, so no verdict
        raise ValueError("normality needs a nonempty word")
    top = min(max_block, n)
    _table_guard(b, top)
    disc, limits, doubles = {}, {}, {}
    for ell in range(top, 0, -1):
        table = None  # free length ell + 1's table first (doubles keeps even ones)
        m = n // ell
        double = doubles.pop(2 * ell, None)
        if double is None:
            table = block_counts(w, ell)
        else:
            halves = double.reshape(b**ell, b**ell)
            counts = halves.sum(axis=1) + halves.sum(axis=0)
            if m % 2:
                counts[aligned_ids(w.data[(m - 1) * ell :], ell, b)[0]] += 1
            table = BlockCountTable(w.alphabet, ell, True, counts, m)
        if ell % 2 == 0:
            doubles[ell] = table.counts
        disc[ell] = table.max_deviation()
        limits[ell] = threshold * math.sqrt(math.log(2 * b**ell) / (2 * m))
    disc, limits = (dict(sorted(d.items())) for d in (disc, limits))  # ell ascending
    flagged = tuple(ell for ell in disc if disc[ell] > limits[ell])
    return NormalityReport(n, max_block, threshold, disc, limits, flagged)


# ---------------------------------------------------------------------------
# exhaustive occurrence profiles over all words of a fixed length


def occurrence_profile(k: int, r: int, b: int) -> Dict[int, int]:
    """Histogram of sliding occurrence counts over all (block, word) pairs.

    For every block u of length r and every word w of length k over a
    b-symbol alphabet, count the sliding occurrences of u in w; return
    {j: number of pairs with exactly j occurrences}.  Enumerates all
    b**k words (capped), chunked so memory stays modest.
    """
    k, r, b = int(k), int(r), int(b)
    if not 1 <= r <= k:
        raise ValueError("need 1 <= r <= k")
    if b < 2:
        raise ValueError("alphabet size must be at least 2")
    if b**k > _TABLE_CAP:
        raise ValueError(f"enumeration {b}**{k} exceeds cap {_TABLE_CAP}")
    total, npos, blocks = b**k, k - r + 1, b**r
    hist = np.zeros(npos + 1, dtype=np.int64)
    chunk = max(1, (1 << 18) // npos)  # a chunk's words times windows: at most 2**18 ids
    for start in range(0, total, chunk):
        words = digits(np.arange(start, min(start + chunk, total)), k, b)
        # each word's window ids, sorted: a run of j equal ids is a block
        # that occurs j times in the word
        ids = _horner(lambda j: words[:, j : j + npos], r, b)
        ids.sort(axis=1)
        starts = np.ones(ids.shape, dtype=bool)
        np.not_equal(ids[:, 1:], ids[:, :-1], out=starts[:, 1:])
        hist += np.bincount(np.diff(np.flatnonzero(starts), append=ids.size), minlength=npos + 1)
    hist[0] = total * blocks - hist[1:].sum()  # the pairs that do not occur
    return {j: int(c) for j, c in enumerate(hist)}


@dataclass(frozen=True)
class TailBoundReport:
    k: int
    r: int
    epsilon: float
    alphabet_size: int
    tail_count: int
    bound: float
    holds: bool


def hardy_bound_eval(k: int, r: int, epsilon: float, b: int) -> TailBoundReport:
    """Exact tail count of deviant occurrence pairs versus the analytic bound.

    Counts pairs (u, w) with |occ(w, u) - k * b**-r| > epsilon * k by
    exhaustive enumeration and compares against
    2 * r * b**(k + 2r - 2) * exp(-(b**r * epsilon**2 * k) / (6 * r)),
    valid for 6 / floor(k / r) <= epsilon <= b**-r.
    """
    lo = 6.0 / (k // r)
    hi = b**-r
    if not lo <= epsilon <= hi:
        raise ValueError(
            f"epsilon {epsilon} outside the valid range [{lo}, {hi}]"
        )
    profile = occurrence_profile(k, r, b)
    mean = k * b**-r
    tail = sum(c for j, c in profile.items() if abs(j - mean) > epsilon * k)
    bound = 2.0 * r * b ** (k + 2 * r - 2) * math.exp(
        -(b**r * epsilon**2 * k) / (6.0 * r)
    )
    return TailBoundReport(k, r, epsilon, b, tail, bound, tail <= bound)
