"""Alphabets, finite words, and the basic word operations.

Positions are 1-indexed in the public API: ``w[1]`` is the first symbol
and ``w.segment(i, j)`` is the inclusive slice ``w[i] .. w[j]``.  Storage
is a read-only numpy array underneath, which keeps occurrence counting
and regrouping vectorized.
"""

from __future__ import annotations

import os
from typing import Iterable, Union

import numpy as np

#: digits first, then lowercase letters; caps text rendering at 36 symbols
_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"
_CHAR_TO_SYM = {c: i for i, c in enumerate(_CHARS)}
#: ``bytes.translate`` table, byte -> symbol; 255 for a byte that is no
#: symbol character
_SYM_OF_BYTE = bytes(_CHAR_TO_SYM.get(chr(i), 255) for i in range(256))
#: ``bytes.translate`` table, symbol -> ASCII code of its character; the
#: non-ASCII 255 past symbol 35 would fail to decode, but render checks first
_CHAR_OF_SYM = _CHARS.encode("ascii").ljust(256, b"\xff")

MAX_TEXT_ALPHABET = len(_CHARS)


def _dtype_for(size: int):
    if size <= 256:
        return np.uint8
    if size <= 65536:
        return np.uint16
    return np.uint32


class Alphabet:
    """The symbol set ``{0, .., size-1}``.

    Symbols are plain ints.  Text rendering uses ``'0'-'9'`` then
    ``'a'-'z'`` and is only available for sizes up to 36; regrouped
    alphabets (size ``b**r``) may exceed that and then only numeric
    symbols are usable.
    """

    __slots__ = ("size",)

    def __init__(self, size: int):
        size = int(size)
        if size < 2:
            raise ValueError(f"alphabet size must be >= 2, got {size}")
        if size > 2**32:
            raise ValueError(f"alphabet size {size} too large")
        self.size = size

    def __eq__(self, other):
        return isinstance(other, Alphabet) and other.size == self.size

    def __hash__(self):
        return hash(("Alphabet", self.size))

    def __repr__(self):
        return f"Alphabet({self.size})"

    def check_symbol(self, a: int) -> int:
        a = int(a)
        if not 0 <= a < self.size:
            raise ValueError(f"symbol {a} outside alphabet of size {self.size}")
        return a

    def char(self, a: int) -> str:
        """Text character for symbol ``a``."""
        if self.size > MAX_TEXT_ALPHABET:
            raise ValueError("alphabet too large for text rendering")
        return _CHARS[self.check_symbol(a)]

    def symbol(self, c: str) -> int:
        """Symbol for text character ``c``."""
        try:
            a = _CHAR_TO_SYM[c]
        except KeyError:
            raise ValueError(f"invalid symbol character {c!r}") from None
        if a >= self.size:
            raise ValueError(
                f"character {c!r} denotes symbol {a}, outside alphabet of size {self.size}"
            )
        return a

    def parse(self, text) -> np.ndarray:
        """Symbols of ``text``: a str, or bytes-like ASCII text.

        A bad character raises the :meth:`symbol` error of the first one.
        The uint8 result may be read-only; no caller writes into it.
        """
        if self.size > MAX_TEXT_ALPHABET:
            raise ValueError("alphabet too large for text parsing")
        raw = text
        if isinstance(text, str):
            try:
                raw = text.encode("ascii")
            except UnicodeEncodeError as e:
                self.parse(text[: e.start])  # a bad ASCII character before it
                self.symbol(text[e.start])  # no symbol character is non-ASCII
        elif not isinstance(text, (bytes, bytearray)):
            raw = memoryview(text).tobytes()  # only bytes types translate
        out = np.frombuffer(raw.translate(_SYM_OF_BYTE), dtype=np.uint8)
        if out.size and out.max() >= self.size:
            i = int(np.argmax(out >= self.size))
            # bytes before i are symbol characters, so decoding up to i fails
            # only on a non-ASCII byte i, as decoding the whole text would
            c = text[i] if isinstance(text, str) else str(raw[: i + 1], "ascii")[-1]
            self.symbol(c)  # raises: the table rejects what symbol() rejects
        return out

    def render(self, data) -> str:
        """Text of the integer symbols ``data``, one character each."""
        return self._text_bytes(data).decode("ascii")

    def _text_bytes(self, data) -> bytes:
        """:meth:`render`'s text as ASCII bytes, checked the same way."""
        if self.size > MAX_TEXT_ALPHABET:
            raise ValueError("alphabet too large for text rendering")
        arr = np.asarray(data)
        if arr.size == 0:
            return b""
        if arr.dtype.kind not in "iu":
            raise ValueError("symbols must be integers")
        lo, hi = arr.min(), arr.max()
        if lo < 0 or hi >= self.size:
            self.check_symbol(lo if lo < 0 else hi)
        return arr.astype(np.uint8, copy=False).tobytes().translate(_CHAR_OF_SYM)


class FiniteWord:
    """An immutable finite word over an :class:`Alphabet`.

    ``w[i]`` and ``w.segment(i, j)`` use 1-indexed positions.  ``w.data``
    exposes the underlying read-only numpy array (0-indexed) for
    vectorized callers.
    """

    __slots__ = ("alphabet", "_data")

    def __init__(self, alphabet: Alphabet, data):
        self._keep(alphabet, np.asarray(data), copy=True)

    @classmethod
    def _adopt(cls, alphabet: Alphabet, arr: np.ndarray) -> "FiniteWord":
        """A word kept in ``arr`` itself, checked like any other.

        ``arr`` must be new memory that nothing else refers to (a ``take``
        result, say): the word makes it read-only instead of copying it.
        """
        w = cls.__new__(cls)
        w._keep(alphabet, arr, copy=False)
        return w

    def _keep(self, alphabet: Alphabet, arr: np.ndarray, copy: bool) -> None:
        if arr.ndim != 1:
            raise ValueError("word data must be one-dimensional")
        if arr.size:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("word symbols must be integers")
            lo, hi = int(arr.min()), int(arr.max())
            if lo < 0 or hi >= alphabet.size:
                raise ValueError(
                    f"symbol {lo if lo < 0 else hi} outside alphabet of size {alphabet.size}"
                )
        arr = arr.astype(_dtype_for(alphabet.size), copy=copy)
        arr.setflags(write=False)
        self.alphabet = alphabet
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        return self._data

    def __len__(self):
        return self._data.size

    def __getitem__(self, i: int) -> int:
        if not isinstance(i, (int, np.integer)):
            raise TypeError("positions are single integers; use segment() for slices")
        if not 1 <= i <= self._data.size:
            raise IndexError(f"position {i} out of range 1..{self._data.size}")
        return int(self._data[i - 1])

    def segment(self, i: int, j: int) -> "FiniteWord":
        """Inclusive 1-indexed factor ``w[i] .. w[j]`` (empty when j < i)."""
        if i < 1 or j > self._data.size:
            raise IndexError(f"segment {i}..{j} out of range 1..{self._data.size}")
        return FiniteWord(self.alphabet, self._data[i - 1 : j])

    def __iter__(self):
        return (int(a) for a in self._data)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteWord)
            and other.alphabet == self.alphabet
            and other._data.size == self._data.size
            and bool(np.array_equal(other._data, self._data))
        )

    def __hash__(self):
        return hash((self.alphabet.size, self._data.tobytes()))

    def __add__(self, other: "FiniteWord") -> "FiniteWord":
        if not isinstance(other, FiniteWord):
            return NotImplemented
        if other.alphabet != self.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return FiniteWord(self.alphabet, np.concatenate([self._data, other._data]))

    def to_text(self) -> str:
        return self.alphabet.render(self._data)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        if self.alphabet.size <= MAX_TEXT_ALPHABET and len(self) <= 40:
            return f"word({self.to_text()!r}, base={self.alphabet.size})"
        return f"<FiniteWord len={len(self)} base={self.alphabet.size}>"


def word(text: Union[str, Iterable[int]], base: int = 2) -> FiniteWord:
    """Build a :class:`FiniteWord` from text (or an int iterable)."""
    alph = Alphabet(base)
    if isinstance(text, str):
        return FiniteWord(alph, alph.parse(text))
    return FiniteWord(alph, np.asarray(list(text), dtype=np.int64))


def _match_positions(w: FiniteWord, u: FiniteWord) -> np.ndarray:
    """Boolean array over 0-indexed start offsets where u occurs in w."""
    if u.alphabet != w.alphabet:
        raise ValueError("occurrence counting needs matching alphabets")
    m, n = len(u), len(w)
    if m == 0:
        raise ValueError("occurrence counting needs a nonempty block")
    if m > n:
        return np.zeros(0, dtype=bool)
    wd, ud = w.data, u.data
    hit = np.ones(n - m + 1, dtype=bool)
    for j in range(m):
        hit &= wd[j : n - m + 1 + j] == ud[j]
    return hit


def occ(w: FiniteWord, u: FiniteWord) -> int:
    """Number of (possibly overlapping) occurrences of u in w."""
    return int(_match_positions(w, u).sum())


def alocc(w: FiniteWord, u: FiniteWord) -> int:
    """Number of aligned occurrences of u in w.

    An occurrence starting at 1-indexed position i is aligned when
    i = q*|u| + 1, i.e. it sits on the |u|-block grid.
    """
    hit = _match_positions(w, u)
    if hit.size == 0:
        return 0
    return int(hit[:: len(u)].sum())


def regroup(w: FiniteWord, r: int) -> FiniteWord:
    """Read w in chunks of r symbols as one word over the power alphabet.

    Each length-r chunk becomes the single symbol given by its base-b
    value, so the result has length |w|/r over an alphabet of size b**r.
    Requires r >= 1 and r | |w|.  Aligned occurrences in w of any block u
    with r | |u| equal plain occurrences of regroup(u, r) in the result.
    """
    r = int(r)
    if r < 1:
        raise ValueError(f"chunk size must be >= 1, got {r}")
    n = len(w)
    if n % r != 0:
        raise ValueError(f"chunk size {r} does not divide word length {n}")
    b = w.alphabet.size
    if b**r > 2**32:
        raise ValueError(f"power alphabet {b}**{r} too large")
    if r == 1:
        return w
    from .blocks import aligned_ids

    return FiniteWord._adopt(Alphabet(b**r), aligned_ids(w.data, r, b))


def even(w):
    """Symbols at even positions; words and sources both accepted."""
    return _every_other(w, 1)


def odd(w):
    """Symbols at odd positions; words and sources both accepted."""
    return _every_other(w, 0)


def _every_other(w, start: int):
    if isinstance(w, FiniteWord):
        return FiniteWord(w.alphabet, w.data[start::2])
    from . import sources

    if isinstance(w, sources.WordSource):
        return (sources.OddSource, sources.EvenSource)[start](w)
    raise TypeError(f"expected FiniteWord or WordSource, got {type(w).__name__}")


def join(x, y):
    """Interleave x and y: x1 y1 x2 y2 ...

    For finite words the lengths must match and the result has length
    2|x|; odd(join(x, y)) == x and even(join(x, y)) == y.  For sources
    the result is a lazy source.
    """
    if isinstance(x, FiniteWord) and isinstance(y, FiniteWord):
        if x.alphabet != y.alphabet:
            raise ValueError("join needs matching alphabets")
        if len(x) != len(y):
            raise ValueError(f"join needs equal lengths, got {len(x)} and {len(y)}")
        out = np.empty(2 * len(x), dtype=x.data.dtype)
        out[0::2] = x.data
        out[1::2] = y.data
        return FiniteWord._adopt(x.alphabet, out)
    from . import sources

    if isinstance(x, sources.WordSource) and isinstance(y, sources.WordSource):
        return sources.JoinSource(x, y)
    raise TypeError("join takes two FiniteWords or two WordSources")


def read_word_file(path, base: int) -> FiniteWord:
    """Read a word file: one line of symbol characters.

    The line may end in ``"\\n"``, ``"\\r\\n"``, ``"\\r"`` or nothing.
    """
    with open(path, "rb") as fh:
        # read into a buffer that parse can translate without a copy
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw) :]
        raw += fh.read()  # whatever the size missed: a pipe reports 0
    end = len(raw)
    if raw.endswith(b"\r\n"):
        end -= 2
    elif raw.endswith((b"\n", b"\r")):
        end -= 1
    if raw.find(b"\n", 0, end) >= 0 or raw.find(b"\r", 0, end) >= 0:
        raise ValueError(f"word file {path} must hold a single line")
    del raw[end:]
    alph = Alphabet(base)
    symbols = alph.parse(raw)
    # free the file bytes before FiniteWord copies the symbols: held over
    # the copy, they left the heap fragmented, and a later condcompress
    # kept 5 MB more resident at 2^21 symbols
    del raw
    return FiniteWord(alph, symbols)


def write_word_file(path, w: FiniteWord) -> None:
    """Write ``w`` as one line of symbol characters and ``"\\n"``."""
    with open(path, "wb") as fh:
        fh.write(w.alphabet._text_bytes(w.data))
        fh.write(b"\n")
