"""Infinite (and finite) symbol streams.

A :class:`WordSource` is a single-consumer deterministic stream: ``take``
and ``pop`` advance it, ``clone`` yields a fresh copy restarted at
position 1, and ``prefix(n)`` reads a length-n finite word off a clone
without disturbing the original.  Derived sources (even / odd / join)
are lazy and pull from their inputs on demand.
"""

from __future__ import annotations

import numpy as np

from .words import Alphabet, FiniteWord, _dtype_for

_CHUNK = 1024


class SourceExhausted(Exception):
    """A finite source was asked for more symbols than it holds."""


class WordSource:
    """Base class managing the read buffer; subclasses implement _produce."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._buf = np.zeros(0, dtype=_dtype_for(alphabet.size))
        self._bufpos = 0

    # Subclass contract: return 1..n fresh symbols as a numpy array, or an
    # empty array once the stream is exhausted.  Infinite sources must
    # return exactly n.  The array is either new memory nothing else refers
    # to, which take_available hands out as it is, or a view of data the
    # source keeps (flags.owndata false), which take_available copies.
    def _produce(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def clone(self) -> "WordSource":
        """A fresh copy of this source, restarted at position 1."""
        raise NotImplementedError

    def take_available(self, n: int) -> np.ndarray:
        """Up to n symbols; shorter only when the source runs out."""
        n = int(n)
        if n < 0:
            raise ValueError("cannot take a negative number of symbols")
        parts = []
        got = 0
        buffered = self._buf.size - self._bufpos
        if buffered:
            step = min(buffered, n)
            parts.append(self._buf[self._bufpos : self._bufpos + step])
            self._bufpos += step
            got += step
        while got < n:
            fresh = self._produce(n - got)
            if fresh.size == 0:
                break
            parts.append(fresh)
            got += fresh.size
        if not parts:
            return np.zeros(0, dtype=_dtype_for(self.alphabet.size))
        if len(parts) == 1:
            # a view of _buf or of the source's own data must not escape
            return parts[0] if parts[0].flags.owndata else parts[0].copy()
        return np.concatenate(parts)

    def take(self, n: int) -> np.ndarray:
        """Exactly n symbols as a numpy array; raises SourceExhausted if short."""
        out = self.take_available(n)
        if out.size < n:
            raise SourceExhausted(f"needed {n} symbols, source ended after {out.size}")
        return out

    def peek(self):
        """Next symbol without consuming it, or None when exhausted."""
        if self._bufpos >= self._buf.size:
            self._buf = self._produce(_CHUNK)
            self._bufpos = 0
            if self._buf.size == 0:
                return None
        return int(self._buf[self._bufpos])

    def pop(self) -> int:
        """Consume and return the next symbol."""
        a = self.peek()
        if a is None:
            raise SourceExhausted("source exhausted")
        self._bufpos += 1
        return a

    def _unread(self, symbols) -> None:
        """Put symbols just taken back in front of the stream, in order."""
        rest = self._buf[self._bufpos :]
        self._buf = np.concatenate([np.asarray(symbols, dtype=rest.dtype), rest])
        self._bufpos = 0

    def prefix(self, n: int) -> FiniteWord:
        """The length-n prefix as a finite word; does not advance this source."""
        return FiniteWord._adopt(self.alphabet, self.clone().take(n))


class PeriodicSource(WordSource):
    """Endless repetition of a fixed nonempty pattern."""

    def __init__(self, pattern: FiniteWord):
        if len(pattern) == 0:
            raise ValueError("periodic pattern must be nonempty")
        super().__init__(pattern.alphabet)
        self.pattern = pattern
        self._count = 0  # symbols produced so far

    def _produce(self, n):
        turn = np.roll(self.pattern.data, -(self._count % len(self.pattern)))
        self._count += n
        return np.tile(turn, -(-n // turn.size))[:n]

    def clone(self):
        return PeriodicSource(self.pattern)


# SplitMix64 finalizer: a counter-based generator gives exact random
# access, so clones replay the identical stream with no state to copy.
_GAMMA = 0x9E3779B97F4A7C15  # the counter step
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray, t: np.ndarray) -> None:
    """Apply the finalizer to uint64 z in place; t is uint64 scratch of z's size."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= mult
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t


_MASK64 = (1 << 64) - 1
# RandomSource mixes this many symbols at a time, so its working memory
# is two uint64 arrays of 512 KiB: the chunk's counters, mixed in place,
# and one scratch array reused for every chunk of a request.
_MIX_CHUNK = 1 << 16


def derive_seed(seed: int, *branch: int) -> int:
    """Stable derived seed for parallel / per-trial streams."""
    z = seed & _MASK64
    for b in branch:
        z = (z ^ (b & _MASK64)) + 0x9E3779B97F4A7C15 & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z


class RandomSource(WordSource):
    """Seeded uniform i.i.d. symbols (SplitMix64 counter stream).

    Symbol i (1-based) is the SplitMix64 finalizer of seed + i * gamma
    mod 2^64, reduced mod b: it depends only on (seed, i), so a clone is
    just a restart of the same counter.
    """

    def __init__(self, alphabet: Alphabet, seed: int):
        super().__init__(alphabet)
        self.seed = int(seed)
        self._count = 0

    def _produce(self, n):
        b = self.alphabet.size
        out = np.empty(n, dtype=_dtype_for(b))
        t = np.empty(min(n, _MIX_CHUNK), dtype=np.uint64)
        for lo in range(0, n, _MIX_CHUNK):
            hi = min(lo + _MIX_CHUNK, n)
            # seed + GAMMA * i for i = count + lo + 1 .., wrapping mod 2^64, in
            # one pass: numpy fills an integer arange as start + j * step in
            # uint64 arithmetic, so only its first two terms must be in range
            start = (self.seed + _GAMMA * (self._count + lo + 1)) & _MASK64
            step = _GAMMA if start + _GAMMA <= _MASK64 else _GAMMA - (1 << 64)
            z = np.arange(start, start + step * (hi - lo), step, dtype=np.uint64)
            tz = t[: hi - lo]
            _mix64(z, tz)
            if b & (b - 1) == 0:  # z % b keeps z's low bits
                np.bitwise_and(z, b - 1, out=out[lo:hi], casting="unsafe")
                continue
            # z % b as z - (z // b) * b: numpy divides by a scalar through
            # libdivide, but its remainder runs a hardware division
            np.floor_divide(z, np.uint64(b), out=tz)
            tz *= np.uint64(b)
            z -= tz
            out[lo:hi] = z
        self._count += n
        return out

    def clone(self):
        return RandomSource(self.alphabet, self.seed)


class LiteralSource(WordSource):
    """Finite source backed by a finite word (also used for file-backed input)."""

    def __init__(self, w: FiniteWord):
        super().__init__(w.alphabet)
        self.word = w
        self._count = 0

    def _produce(self, n):
        step = min(n, len(self.word) - self._count)
        if step <= 0:
            return np.zeros(0, dtype=_dtype_for(self.alphabet.size))
        out = self.word.data[self._count : self._count + step]
        self._count += step
        return out

    def clone(self):
        return LiteralSource(self.word)


def file_source(path, base: int) -> LiteralSource:
    from .words import read_word_file

    return LiteralSource(read_word_file(path, base))


class _ParitySource(WordSource):
    """Every other symbol of the inner source, from 0-based offset _start."""

    def __init__(self, inner: WordSource):
        super().__init__(inner.alphabet)
        self.inner = inner

    def _produce(self, n):
        # pulling 2n inner symbols yields exactly n of either parity; the
        # rest of the pull is dropped, never re-used
        pulled = self.inner.take_available(2 * n)
        return pulled[self._start :: 2].copy()

    def clone(self):
        return type(self)(self.inner.clone())


class EvenSource(_ParitySource):
    """Symbols at even positions of the inner source."""

    _start = 1


class OddSource(_ParitySource):
    """Symbols at odd positions of the inner source."""

    _start = 0


class JoinSource(WordSource):
    """Interleaving x1 y1 x2 y2 ... of two sources."""

    def __init__(self, x: WordSource, y: WordSource):
        if x.alphabet != y.alphabet:
            raise ValueError("join needs matching alphabets")
        super().__init__(x.alphabet)
        self.x = x
        self.y = y
        self._parity = 0  # 0: next emitted symbol comes from x

    def _produce(self, n):
        # a run of n emitted symbols starting at the current parity uses
        # ceil/floor(n/2) symbols from the leading / trailing side
        lead_n, trail_n = (n + 1) // 2, n // 2
        first, second = (self.x, self.y) if self._parity == 0 else (self.y, self.x)
        lead = first.take_available(lead_n)
        trail = second.take_available(trail_n)
        if lead.size < lead_n or trail.size < trail_n:
            # one side ran dry: emit only the complete interleaved prefix
            n = max(min(2 * lead.size, 2 * trail.size + 1), 0)
            lead, trail = lead[: (n + 1) // 2], trail[: n // 2]
        out = np.empty(n, dtype=_dtype_for(self.alphabet.size))
        out[0::2] = lead
        out[1::2] = trail
        self._parity = (self._parity + n) % 2
        return out

    def clone(self):
        return JoinSource(self.x.clone(), self.y.clone())
