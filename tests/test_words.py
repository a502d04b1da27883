"""Finite words: indexing, counting, regrouping, parity projections."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsindep import (
    Alphabet,
    FiniteWord,
    alocc,
    even,
    join,
    occ,
    odd,
    read_word_file,
    regroup,
    word,
    write_word_file,
)
from fsindep.words import _CHAR_OF_SYM, _CHAR_TO_SYM, _CHARS, _SYM_OF_BYTE
from conftest import naive_alocc, naive_occ, naive_parse, naive_render, rand_text, traced_peak


def test_alphabet_basics():
    a = Alphabet(2)
    assert a.size == 2
    assert a.char(1) == "1"
    assert a.symbol("1") == 1
    b36 = Alphabet(36)
    assert b36.char(35) == "z" and b36.symbol("z") == 35


def test_alphabet_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        Alphabet(1)
    with pytest.raises(ValueError):
        Alphabet(0)


@pytest.mark.parametrize("b", [2, 3, 10, 36])
def test_parse_and_render_match_per_character_oracles(b):
    rng = random.Random(b)
    alph = Alphabet(b)
    for n in (0, 1, 2, 7, 64, 1000, 4099, 2**16 + 2**10 + 1):
        text = rand_text(rng, n, b)
        want = naive_parse(text, b)
        parsed = alph.parse(text)
        assert parsed.dtype == np.uint8
        assert parsed.tolist() == want
        # every text form parses alike: bytes, a buffer that changes after
        # the parse, and a slice at an offset into a larger buffer
        raw = text.encode("ascii")
        buf = bytearray(raw)
        from_buf = alph.parse(buf)
        buf[:] = b"0" * n
        framed = memoryview(b"zz" + raw + b"zzz")[2 : 2 + n]
        for got in (alph.parse(raw), from_buf, alph.parse(framed)):
            assert got.dtype == np.uint8 and np.array_equal(got, parsed)
        assert alph.render(parsed) == naive_render(parsed) == text
        for symbols in (parsed.astype(np.uint16), parsed.astype(np.int64), want):
            assert alph.render(symbols) == text
    assert alph.parse("").size == 0 and alph.render([]) == ""
    assert alph.render(range(b)) == naive_render(range(b))


def test_translate_tables_agree_with_the_character_map():
    assert len(_SYM_OF_BYTE) == len(_CHAR_OF_SYM) == 256
    for byte in range(256):
        assert _SYM_OF_BYTE[byte] == _CHAR_TO_SYM.get(chr(byte), 255), byte
    for a, c in enumerate(_CHARS):
        assert _CHAR_OF_SYM[a] == ord(c), a


@pytest.mark.parametrize(
    "b, text",
    [
        (2, "0110#01"),  # ASCII, but no symbol character
        (2, "01A0"),  # upper case is not a symbol character
        (2, "0\n1"),
        (2, "001x1"),  # a symbol character past base 2
        (2, "0120x"),  # the first of two offenders raises
        (10, "0123456789a"),
        (36, "abc_z"),
        (2, "01\u00e90"),  # non-ASCII
        (36, "z\u0661"),  # non-ASCII digit one
        (3, "2\u00e9x"),
        (3, "2x\u00e9"),
    ],
)
def test_parse_raises_on_the_first_bad_character(b, text):
    with pytest.raises(ValueError) as want:
        naive_parse(text, b)
    with pytest.raises(ValueError) as got:
        Alphabet(b).parse(text)
    assert str(got.value) == str(want.value)
    # the same text as bytes, the form word files are parsed in
    with pytest.raises(ValueError) as got:
        Alphabet(b).parse(text.encode("utf-8"))
    if text.isascii():
        assert str(got.value) == str(want.value)


def test_render_rejects_symbols_outside_the_alphabet():
    a2 = Alphabet(2)
    for bad, sym in (([-1, 5], -1), ([0, 1, 2], 2), (np.array([0, 7], np.uint8), 7)):
        with pytest.raises(ValueError, match=f"symbol {sym} outside alphabet of size 2"):
            a2.render(bad)
    with pytest.raises(ValueError):
        a2.render([0.0, 1.0])
    assert a2.render(range(2)) == "01"
    assert Alphabet(36).render(range(36)) == "0123456789abcdefghijklmnopqrstuvwxyz"


def test_word_parsing_and_rendering():
    w = word("0110")
    assert len(w) == 4
    assert w.to_text() == "0110"
    assert word("012", base=3).to_text() == "012"
    with pytest.raises(ValueError):
        word("012")  # symbol 2 outside base 2
    with pytest.raises(ValueError):
        word("0x10")


def test_word_is_one_indexed():
    w = word("0110")
    assert w[1] == 0 and w[2] == 1 and w[3] == 1 and w[4] == 0
    with pytest.raises(IndexError):
        w[0]
    with pytest.raises(IndexError):
        w[5]


def test_segment_is_inclusive():
    w = word("010011")
    assert w.segment(2, 4).to_text() == "100"
    assert w.segment(1, 6) == w
    assert len(w.segment(4, 3)) == 0


def test_word_equality_hash_concat():
    assert word("01") == word("01")
    assert word("01") != word("10")
    assert word("01") != word("01", base=3)  # alphabet matters
    assert hash(word("01")) == hash(word("01"))
    assert (word("01") + word("10")).to_text() == "0110"


def test_occ_alocc_small_cases():
    w = word("01010")
    assert occ(w, word("01")) == 2
    assert occ(w, word("010")) == 2  # overlapping occurrences both count
    assert alocc(w, word("01")) == 2  # positions 1 and 3
    assert alocc(w, word("0")) == 3
    assert occ(w, word("011")) == 0
    assert occ(w, word("010101")) == 0  # longer than w


def test_occ_alocc_against_naive_oracle():
    rng = random.Random(1234)
    for _ in range(400):
        b = rng.choice([2, 2, 3, 5])
        wt = rand_text(rng, rng.randint(1, 200), b)
        ut = rand_text(rng, rng.randint(1, 6), b)
        w, u = word(wt, base=b), word(ut, base=b)
        assert occ(w, u) == naive_occ(wt, ut), (wt, ut)
        assert alocc(w, u) == naive_alocc(wt, ut), (wt, ut)


def test_regroup_pinned():
    # pairs of bits become base-4 symbols, big-endian
    assert regroup(word("00011011"), 2).to_text() == "0123"
    assert regroup(word("0123", base=4), 1) == word("0123", base=4)


def test_regroup_validation():
    with pytest.raises(ValueError):
        regroup(word("010"), 2)  # length not divisible
    with pytest.raises(ValueError):
        regroup(word("01"), 40)  # 2**40 symbols overflow the alphabet cap


def test_regroup_turns_alocc_into_occ():
    """Aligned counting in the base alphabet = plain counting after regrouping."""
    rng = random.Random(99)
    for _ in range(300):
        b = rng.choice([2, 3])
        r = rng.randint(1, 3)
        w = word(rand_text(rng, r * rng.randint(1, 40), b), base=b)
        u = word(rand_text(rng, r, b), base=b)
        assert alocc(w, u) == occ(regroup(w, r), regroup(u, r))


@given(st.integers(2, 4), st.data())
@settings(max_examples=60, derandomize=True)
def test_occ_bounds_property(b, data):
    wt = data.draw(st.text(alphabet="0123"[:b], min_size=1, max_size=64))
    ut = data.draw(st.text(alphabet="0123"[:b], min_size=1, max_size=8))
    w, u = word(wt, base=b), word(ut, base=b)
    c, a = occ(w, u), alocc(w, u)
    assert 0 <= c <= max(0, len(wt) - len(ut) + 1)
    assert 0 <= a <= len(wt) // len(ut)
    assert a <= c


@given(st.text(alphabet="01", min_size=1, max_size=32))
@settings(max_examples=60, derandomize=True)
def test_join_splits_back_property(half):
    t = half + half[::-1]  # force even length
    w = word(t)
    assert join(odd(w), even(w)) == w


def test_join_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        join(word("01"), word("0"))


def test_odd_even_join_on_words():
    w = word("abcdef0123", base=16)
    assert odd(w).to_text() == "ace02"
    assert even(w).to_text() == "bdf13"
    assert join(odd(w), even(w)) == w
    assert odd(word("010")).to_text() == "00"
    assert even(word("010")).to_text() == "1"


def test_join_validates_alphabets():
    with pytest.raises(ValueError):
        join(word("01"), word("01", base=3))


def test_data_is_read_only():
    w = word("01")
    with pytest.raises(ValueError):
        w.data[0] = 1


def test_word_file_round_trip(tmp_path):
    p = tmp_path / "w.txt"
    w = word(rand_text(random.Random(5), 1000, 3), base=3)
    write_word_file(p, w)
    assert read_word_file(p, 3) == w
    assert p.read_bytes().endswith(b"\n")
    for b in (2, 36):
        text = rand_text(random.Random(b), 5000, b)
        write_word_file(p, word(text, base=b))
        assert p.read_bytes() == text.encode("ascii") + b"\n"
        assert read_word_file(p, b).to_text() == text


def test_word_file_rejects_multiline(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("01\n10\n")
    with pytest.raises(ValueError):
        read_word_file(p, 2)


@pytest.mark.parametrize(
    "raw, text",
    [
        (b"0110\n", "0110"),
        (b"0110\r\n", "0110"),
        (b"0110\r", "0110"),
        (b"0110", "0110"),
        (b"", ""),
        (b"\n", ""),
        (b"\r\n", ""),
        (b"\r", ""),
    ],
)
def test_word_file_accepts_one_line_with_any_terminator(tmp_path, raw, text):
    p = tmp_path / "w.txt"
    p.write_bytes(raw)
    assert read_word_file(p, 2) == word(text)


@pytest.mark.parametrize(
    "raw",
    [
        b"01\n10",
        b"01\r10",
        b"01\n\n",
        b"01\r\r",
        b"01\r\n\r\n",
        b"01\n\r",
        b"\n\n",
        b"\r01",
    ],
)
def test_word_file_rejects_other_line_breaks(tmp_path, raw):
    p = tmp_path / "bad.txt"
    p.write_bytes(raw)
    with pytest.raises(ValueError, match="must hold a single line"):
        read_word_file(p, 2)


@pytest.mark.parametrize("raw", [b"01\xe90\n", b"\xff", b"0110\xc3\xa9"])
def test_word_file_rejects_non_ascii_bytes(tmp_path, raw):
    p = tmp_path / "bad.txt"
    p.write_bytes(raw)
    with pytest.raises(UnicodeDecodeError):  # a ValueError, as with text-mode reads
        read_word_file(p, 2)


def test_word_text_io_has_a_bounded_peak_per_symbol(tmp_path):
    n = 2**20 + 3
    slack = 128 << 10
    w = FiniteWord(Alphabet(3), np.random.default_rng(9).integers(0, 3, n, dtype=np.uint8))
    p = tmp_path / "w.txt"
    # the text and its bytes
    assert traced_peak(lambda: write_word_file(p, w)) <= 2 * n + slack
    # the file bytes and their symbols; then the symbols and the word's copy
    assert traced_peak(lambda: read_word_file(p, 3)) <= 2 * (n + 1) + slack
    # the symbols alone: no copy of the input
    raw = w.to_text().encode("ascii")
    assert traced_peak(lambda: Alphabet(3).parse(raw)) <= n + slack
    # the symbol bytes and their characters, then those and the text
    assert traced_peak(lambda: w.alphabet.render(w.data)) <= 2 * n + slack


def test_join_and_regroup_keep_their_result_without_a_copy():
    n = 2**20
    slack = 128 << 10
    rng = np.random.default_rng(10)
    x, y = (FiniteWord(Alphabet(2), rng.integers(0, 2, n, dtype=np.uint8)) for _ in "xy")
    # the interleaved symbols are the word: one byte per output symbol
    assert traced_peak(lambda: join(x, y)) <= 2 * n + slack
    # one byte per id, one id per 4 input symbols
    assert traced_peak(lambda: regroup(x, 4)) <= n // 4 + slack
    assert odd(join(x, y)) == x and even(join(x, y)) == y
    assert regroup(x, 4).data.tolist() == (x.data.reshape(-1, 4) @ [8, 4, 2, 1]).tolist()


def test_dtype_scales_with_alphabet():
    assert word("01").data.dtype == np.uint8
    big = FiniteWord(Alphabet(70000), np.arange(4, dtype=np.uint32))
    assert big.data.dtype == np.uint32
