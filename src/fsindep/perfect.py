"""Block-balanced words and the self-similar stream built from them.

A word w is block-perfect at length ell when every block u of length ell
has exactly |w| / (ell * b^ell) aligned occurrences.  Such words admit
two deterministic extension steps, both doubling-type interleavings that
place the old word on every second (more generally every base-th)
position.  Iterating them yields a stream x whose decimated copy equals
itself: x[base * n] == x[n] for all n.

The process keeps one tower per base: the seed stages and every stage
built so far, each stage word a chunk of the stream at a fixed offset.
Every :class:`SelfSimilarSource`, every clone of one and every
:func:`build_sequence` call read the same tower and extend it in place,
so each stage is built (and checked perfect) once per process, and
growing the tower copies nothing.  It holds what the sources used to
hold while they were alive: about 1 byte per symbol (the alphabet dtype)
of the longest prefix any of them has requested, rounded up to a whole
stage, for the life of the process.  Building a stage adds its fresh
digits, the last word's block ids and ranks, and their sort order (8 B a
block): past 2^16 symbols a cold tower peaks under 3 B a tower symbol.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .blocks import _count_ids, aligned_ids, digits
from .words import Alphabet, FiniteWord, _dtype_for, word
from .sources import WordSource


def is_perfect(w: FiniteWord, ell: int) -> bool:
    """True when every length-ell block has the same aligned count."""
    ell = int(ell)
    if ell < 1:
        raise ValueError("block length must be at least 1")
    b = w.alphabet.size
    if b**ell > 2**26:
        raise ValueError(f"block table {b}**{ell} too large")
    n = len(w)
    if n % (ell * b**ell) != 0:
        return False
    counts = _count_ids(aligned_ids(w.data, ell, b), b**ell)
    return bool(np.all(counts == n // (ell * b**ell)))


def _track_extend(w: FiniteWord, ell: int, step: int) -> FiniteWord:
    """Interleave fresh blocks around w so the step-th track equals w.

    w must be ell-perfect and |w| divisible by ell * b**(step*ell).  The
    i-th aligned block of w keeps its symbols on positions step, 2*step,
    ... of the new block; the remaining (step-1)*ell positions carry the
    base-b digits of c mod b**((step-1)*ell), where the block is the
    (c+1)-th aligned occurrence of its value.  Cycling the occurrence
    ranks this way makes the result (step*ell)-perfect.
    """
    b = w.alphabet.size
    if not is_perfect(w, ell):
        raise ValueError("word is not block-perfect at the given length")
    if len(w) % (ell * b ** (step * ell)) != 0:
        raise ValueError(
            f"length {len(w)} not divisible by {ell} * {b}**{step * ell}"
        )
    ids = aligned_ids(w.data, ell, b)
    r = ids.size
    fresh_width = (step - 1) * ell
    period = b**fresh_width
    # w is perfect, so the stable sort lists each value's c = r / b**ell
    # occurrences in order: ranks 0 .. c-1, and c is a multiple of period
    ranks = np.empty(r, dtype=_dtype_for(period))
    ranks[np.argsort(ids, kind="stable")] = np.tile(
        np.arange(period, dtype=ranks.dtype), r // period
    )
    out = np.empty((r, ell, step), dtype=w.data.dtype)
    out[:, :, step - 1] = w.data.reshape(r, ell)
    out[:, :, : step - 1] = digits(ranks, fresh_width, b).reshape(r, ell, step - 1)
    return FiniteWord._adopt(w.alphabet, out.reshape(-1))


def double_length_extend(w: FiniteWord, ell: int) -> FiniteWord:
    """Extend an ell-perfect word to a (2*ell)-perfect word of twice the length.

    The old word sits on the even positions of the result.  Requires |w|
    divisible by ell * b**(2*ell).
    """
    return _track_extend(w, ell, 2)


def same_length_extend(w: FiniteWord, ell: int) -> FiniteWord:
    """Extend an ell-perfect word (ell even) to twice the length, same ell.

    Works by treating w as (ell/2)-perfect, which it also is, and
    applying the doubling step there; the result is ell-perfect and
    keeps w on its even positions.
    """
    if ell % 2 != 0:
        raise ValueError("same-length extension needs an even block length")
    return _track_extend(w, ell // 2, 2)


def _fill_extend(w: FiniteWord, step: int) -> FiniteWord:
    """1-perfect track extension used before blocks can start growing.

    Keeps w on every step-th position and fills the rest by cycling
    through the alphabet, so symbol counts stay exactly uniform.
    """
    b = w.alphabet.size
    if not is_perfect(w, 1):
        raise ValueError("word is not 1-perfect")
    n = len(w)
    out = np.empty((n, step), dtype=w.data.dtype)
    out[:, step - 1] = w.data
    fill = np.tile(np.arange(b, dtype=w.data.dtype), -(-n * (step - 1) // b))
    out[:, : step - 1] = fill[: n * (step - 1)].reshape(n, step - 1)
    return FiniteWord._adopt(w.alphabet, out.reshape(-1))


@dataclass(frozen=True)
class PerfectStage:
    n: int
    word: FiniteWord
    ell: int
    rule: str  # 'seed' | 'grow-blocks' | 'same-blocks'


def _seed_stages(base: int):
    """The pinned opening stages of the construction."""
    if base == 2:
        return [
            PerfectStage(1, word("01"), 1, "seed"),
            PerfectStage(2, word("1001"), 1, "seed"),
        ]
    # base >= 3: blocks of the track layout, cycling the non-track symbols
    b = base
    out = np.empty((b - 1, b), dtype=_dtype_for(b))
    out[:, : b - 1] = [a for a in range(b) if a != 1]
    out[:, b - 1] = 1
    return [PerfectStage(1, FiniteWord._adopt(Alphabet(b), out.reshape(-1)), 1, "seed")]


def _advance(stage: PerfectStage, base: int) -> PerfectStage:
    w, ell = stage.word, stage.ell
    if len(w) % (ell * base ** (base * ell)) == 0:
        return PerfectStage(
            stage.n + 1, _track_extend(w, ell, base), ell * base, "grow-blocks"
        )
    if ell == 1:
        return PerfectStage(stage.n + 1, _fill_extend(w, base), 1, "same-blocks")
    return PerfectStage(
        stage.n + 1, _track_extend(w, ell // base, base), ell, "same-blocks"
    )


class _Tower:
    """The stages of one base built so far, and the stream they spell.

    chunks[0] is the base-many leading 1s and chunks[i] the word of stage
    i; chunk i holds stream positions starts[i] .. starts[i+1] - 1
    (0-based).  The chunks are the stage words' own read-only arrays.
    """

    def __init__(self, base: int):
        self.base = base
        self.stages = []
        self.chunks = [np.ones(base, dtype=_dtype_for(base))]
        self.starts = [0, base]
        for stage in _seed_stages(base):
            self._append(stage)

    def _append(self, stage: PerfectStage):
        self.stages.append(stage)
        self.chunks.append(stage.word.data)
        self.starts.append(self.starts[-1] + len(stage.word))

    def grow(self):
        self._append(_advance(self.stages[-1], self.base))

    def window(self, start: int, n: int) -> np.ndarray:
        """Stream positions start .. start+n-1 (0-based), copied out in
        the tower's dtype."""
        end = start + n
        while self.starts[-1] < end:
            self.grow()
        out = np.empty(n, dtype=self.chunks[0].dtype)
        i = bisect.bisect_right(self.starts, start) - 1
        pos = start
        while pos < end:
            lo, stop = self.starts[i], min(end, self.starts[i + 1])
            out[pos - start : stop - start] = self.chunks[i][pos - lo : stop - lo]
            pos = stop
            i += 1
        return out


_TOWERS: dict = {}  # base -> _Tower, shared by the whole process


def _tower(base: int) -> _Tower:
    tower = _TOWERS.get(base)
    if tower is None:
        tower = _TOWERS[base] = _Tower(base)
    return tower


def build_sequence(n_max: int, base: int = 2):
    """Stages 1..n_max of the perfect-word tower.

    Stage n has length (base - 1) * base**n and block length ell_n; the
    block length multiplies by base exactly when base**(base*ell) * ell
    divides the current length, so it grows without bound while every
    stage stays ell_n-perfect.  The stages are those of the process-wide
    tower (see the module docstring), built on first request.
    """
    if n_max < 1:
        raise ValueError("need at least one stage")
    tower = _tower(base)
    while len(tower.stages) < n_max:
        tower.grow()
    return tower.stages[:n_max]


class SelfSimilarSource(WordSource):
    """The infinite stream: base-many 1s, then the stage words in order.

    Satisfies x[base * n] == x[n] for every n >= 1, yet the block
    statistics of its prefixes converge to uniform at every block
    length.  A source keeps only its base and position: the symbols live
    in the process-wide tower of its base (see the module docstring),
    which a read extends as far as it needs.  Every window a read
    returns is a copy in the alphabet's dtype, one byte a symbol up to
    base 256, so callers never hold the tower's memory.
    Deterministic, so clones replay the identical stream.
    """

    def __init__(self, base: int = 2):
        if base < 2:
            raise ValueError("base must be at least 2")
        super().__init__(Alphabet(base))
        self.base = base
        self._count = 0

    def _produce(self, n):
        out = _tower(self.base).window(self._count, n)
        self._count += n
        return out

    def clone(self):
        return SelfSimilarSource(self.base)


def self_similar_source(base: int = 2) -> SelfSimilarSource:
    return SelfSimilarSource(base)
