"""Compression ratios, the match-run coder, and conditional block coding.

Two compressor families live here.  The match-run coder exploits a
transducer T mapping a reference stream x onto the stream y being
compressed: as long as y agrees with T(x) it emits one 0 per k-symbol
window, and on the first disagreement it emits a 1 flag and copies the
rest of y verbatim.  The block coder learns symbol-pair statistics
nu(a | c) between a primary and a reference stream and codes k-symbol
blocks with canonical prefix-free codewords of length about
-log_b nu(block | reference block).

Ratios are measured in output symbols per input symbol over the same
alphabet; an incompressible stream sits at ratio 1 and anything
persistently below 1 witnesses structure (or, for conditional ratios,
dependence on the reference).
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .blocks import _count_ids, _horner, aligned_ids, digit_runs, digits
from .words import Alphabet, FiniteWord, _dtype_for
from .sources import DecodeDeadEnd, TransducerHalted, WordSource
from .automata import KAutomaton, _Run, compile, run


# ---------------------------------------------------------------------------
# ratio bookkeeping


@dataclass
class RatioEstimate:
    """Output/input symbol counts with power-of-two checkpoints.

    checkpoints is a list of (input symbols, output symbols) pairs taken
    at each power of two plus a final snapshot.  min_ratio ignores a
    burn-in of n/16 input symbols, approximating the eventual infimum
    slightly better than the final value alone.
    """

    n: int
    output_symbols: int
    checkpoints: list
    halted: bool = False
    halt_reason: Optional[str] = None
    oracle_symbols: Optional[int] = None

    @property
    def final_ratio(self) -> float:
        if self.n == 0:
            return 0.0
        return self.output_symbols / self.n

    @property
    def min_ratio(self) -> float:
        burn_in = self.n // 16
        past = [m / c for c, m in self.checkpoints if c > burn_in]
        if not past:
            return self.final_ratio
        return min(past)


def _power_checkpoints(n: int, out_at) -> list:
    cps = []
    c = 1
    while c <= n:
        cps.append((c, out_at(c)))
        c *= 2
    final = (n, out_at(n))
    if not cps or cps[-1] != final:
        cps.append(final)
    return cps


def _block_estimate(n: int, k: int, lengths: np.ndarray) -> RatioEstimate:
    """The ratio estimate of n input symbols coded as k-blocks of the given lengths."""
    cum = np.cumsum(lengths)

    def out_at(c):
        blocks = c // k
        return int(cum[blocks - 1]) if blocks else 0

    return RatioEstimate(
        n=n,
        output_symbols=int(cum[-1]) if cum.size else 0,
        checkpoints=_power_checkpoints(n, out_at),
    )


def plain_ratio(
    T: KAutomaton, x: WordSource, n: int, max_steps: Optional[int] = None
) -> RatioEstimate:
    """Compression ratio of the 2-tape transducer T on the first n symbols of x.

    The source is consumed.  A halted run is reported, not raised; check
    the flag before trusting the ratio.
    """
    return _run_ratio(T, [x], n, max_steps)


def conditional_ratio(
    C: KAutomaton,
    x: WordSource,
    y: WordSource,
    n: int,
    max_steps: Optional[int] = None,
) -> RatioEstimate:
    """Ratio of the 3-tape conditional compressor C on x with oracle y.

    Tape 1 carries x (the charged input), tape 2 carries y (read freely,
    never charged), tape 3 collects the output.  Both sources are
    consumed.
    """
    return _run_ratio(C, [x, y], n, max_steps)


def _run_ratio(M: KAutomaton, inputs, n: int, max_steps) -> RatioEstimate:
    """The ratio of M's run on inputs, charged for tape 1 only."""
    if M.k != len(inputs) + 1:
        tapes = len(inputs) + 1
        raise ValueError(f"a run on {tapes - 1} input tape(s) needs {tapes} tapes, not {M.k}")
    trace = run(M, len(inputs), inputs, n, max_steps=max_steps, record_path=False)
    return RatioEstimate(
        n=trace.consumed[0],
        output_symbols=trace.checkpoints[-1][1],
        checkpoints=list(trace.checkpoints),
        halted=trace.halted,
        halt_reason=trace.halt_reason,
        oracle_symbols=trace.consumed[1] if len(inputs) > 1 else None,
    )


# ---------------------------------------------------------------------------
# streaming transducer output


class TransducerOutputSource(WordSource):
    """The output stream T(x) of a deterministic 2-tape transducer.

    Ends (becomes exhausted) when x ends or T has no matching
    transition; a silent cycle also ends the stream, exactly where
    :func:`run` would halt.  The stream is made by the same engine as
    ``run``: each request runs T over at least ``_WINDOW`` further input
    symbols (lock-step when T has a macro-step table, as :func:`run`
    explains) and keeps the output beyond the request for the next one,
    so x is read ahead in windows.
    Once the stream has ended, x is left just after the last symbol T
    consumed.
    """

    def __init__(self, T: KAutomaton, x: WordSource):
        if T.k != 2:
            raise ValueError("need a 2-tape transducer")
        from .engine import _WINDOW  # compile below loads the engine anyway

        self._compiled = compile(T, 1)
        self._window = _WINDOW
        if x.alphabet != T.alphabet:
            raise ValueError("source alphabet does not match the transducer")
        super().__init__(T.alphabet)
        self.T = T
        self.x = x
        self._state = self._compiled.initial
        self._dead = False
        self._extra = np.zeros(0, self._compiled.tag_dtype)  # output beyond the last request

    def _produce(self, n):
        parts = [self._extra]
        have = self._extra.size
        while have < n and not self._dead:
            r = _Run(self._state, 1, False)
            r.next_cp = sys.maxsize  # the stream keeps no checkpoints
            self._compiled.advance(r, [self.x], max(n - have, self._window), sys.maxsize)
            self._state = r.q
            self._dead = r.reason is not None
            parts.extend(r.chunks)
            have += r.out_total
        out = np.concatenate(parts) if len(parts) > 1 else parts[0]
        self._extra = out[n:]
        return out[:n]

    def clone(self):
        return TransducerOutputSource(self.T, self.x.clone())


# ---------------------------------------------------------------------------
# match-run conditional compression


def match_run_compress(
    T: KAutomaton, k: int, y: WordSource, x: WordSource, n: int
) -> Tuple[FiniteWord, RatioEstimate]:
    """Compress the first n symbols of y against the prediction T(x).

    While y agrees with T(x), each completed k-symbol window emits a
    single 0.  At the first disagreement, at position m = k*p + r with
    1 <= r <= k, the output becomes 0^p then a 1 flag, then y[k*p+1 ..]
    copied verbatim.  When y agrees throughout but n is not a multiple of
    k, the unfinished last window counts as the disagreement: 0^(n//k),
    the flag, then its n % k symbols.  Decompression needs only T, k and
    x, so the scheme is lossless given the reference.  Both sources are
    consumed; T(x) is predicted and compared window by window, and
    prediction stops at the first mismatch.
    """
    k = int(k)
    if k < 1:
        raise ValueError("window size must be at least 1")
    n = int(n)
    if n < 0:
        raise ValueError("budget must be nonnegative")
    from .engine import _WINDOW

    y_arr = y.take(n)
    f = TransducerOutputSource(T, x)
    m0 = None  # 0-based offset of the first mismatch
    done = 0
    while done < n and m0 is None:
        want = min(_WINDOW, n - done)
        pred = f.take_available(want)
        diff = np.flatnonzero(y_arr[done : done + pred.size] != pred)
        if diff.size:
            m0 = done + int(diff[0])
        elif pred.size < want:
            raise TransducerHalted(
                f"prediction stream ended after {done + pred.size} of {n} symbols "
                "with no mismatch"
            )
        done += pred.size
    if m0 is None:  # an unfinished last window is written out like a mismatch
        m0 = n - n % k
    p = m0 // k
    flag = np.ones(int(m0 < n), dtype=y_arr.dtype)  # none when every window matched
    out = np.concatenate([np.zeros(p, dtype=y_arr.dtype), flag, y_arr[k * p :]])

    def out_at(c):
        if c <= m0:  # a mismatch is at input position m0 + 1
            return c // k
        return p + 1 + (c - k * p)

    estimate = RatioEstimate(
        n=n, output_symbols=int(out.size), checkpoints=_power_checkpoints(n, out_at)
    )
    return FiniteWord(y.alphabet, out), estimate


def match_run_decompress(
    T: KAutomaton, k: int, compressed: FiniteWord, x: WordSource
) -> FiniteWord:
    """Invert match_run_compress given the same transducer, window and reference."""
    comp = compressed.data
    nz = np.flatnonzero(comp != 0)
    f = TransducerOutputSource(T, x)
    i = int(nz[0]) if nz.size else comp.size  # the flag's position; past the end if none
    if i < comp.size and int(comp[i]) != 1:
        raise DecodeDeadEnd(f"expected a 1 flag at position {i + 1}, found {int(comp[i])}")
    head = f.take_available(i * k)
    if head.size < i * k:
        raise TransducerHalted(
            f"prediction stream ended after {head.size} of the {i * k} symbols "
            "decompression needs"
        )
    return FiniteWord(compressed.alphabet, np.concatenate([head, comp[i + 1 :]]))


def match_run_automaton(T: KAutomaton, k: int) -> KAutomaton:
    """Materialize the match-run compressor as a 3-tape machine.

    Tape 1 reads y, tape 2 reads x, tape 3 is the output; the machine is
    deterministic on its two input tapes.  It writes what match_run_compress
    does on every y that disagrees with T(x) somewhere in its n symbols, and
    on every y when k divides n.  It cannot tell where y ends, so on a y that
    agrees throughout with n % k > 0 it writes only the 0^(n//k), without the
    compressor's flag and n % k tail.  State space is
    roughly |T| * b**k, so only small windows (k <= 3) are supported.  T
    must emit at most one symbol per transition.
    """
    if T.k != 2:
        raise ValueError("need a 2-tape transducer")
    C = compile(T, 1)
    k = int(k)
    if not 1 <= k <= 3:
        raise ValueError("materialization supports window sizes 1..3")
    for t in T.transitions:
        if len(t.label[1]) > 1:
            raise ValueError("materialization needs single-symbol output labels")
    alph = T.alphabet
    b = alph.size

    def name(node):
        """x_<state>_<buffer>, or y_<state>_<buffer>_<predicted symbol>."""
        kind, q, buf, *fx = node
        return "_".join([kind, str(C.states[q]), "".join(map(str, buf))] + [str(f) for f in fx])

    def edge(node, label, target):
        trans.append((name(node), label, name(target)))
        if target not in seen:
            seen.add(target)
            todo.append(target)

    sink = len(C.states)
    start = ("x", C.initial, ())
    todo = [start]
    seen = {start}
    trans = []
    states = []
    have_copy = False
    while todo:
        node = todo.pop(0)
        states.append(name(node))
        if node[0] == "x":
            _, q, buf = node
            pat = C.read[q]
            if pat < 0:
                continue  # prediction dies here; no outgoing transitions
            for a in range(b) if pat else (0,):  # a silent state's move has key 0
                p = C.delta_list[q * b + a]
                if p == sink:
                    continue
                emitted = C.emit_list[q * b + a]
                target = ("y", p, buf, emitted[0]) if emitted else ("x", p, buf)
                edge(node, ((), (a,) if pat else (), ()), target)
        else:
            _, q, buf, fx = node
            for c in range(b):
                if c == fx:
                    if len(buf) + 1 == k:
                        edge(node, ((c,), (), (0,)), ("x", q, ()))
                    else:
                        edge(node, ((c,), (), ()), ("x", q, buf + (c,)))
                else:
                    label = ((c,), (), (1,) + buf + (c,))
                    trans.append((name(node), label, "copy"))
                    have_copy = True
    if have_copy:
        states.append("copy")
        for c in range(b):
            trans.append(("copy", ((c,), (), (c,)), "copy"))
    return KAutomaton(3, alph, states, name(start), trans)


# ---------------------------------------------------------------------------
# conditional block coding


class ConditionalModel:
    """Symbol-conditional distribution nu(a | c) plus a block length k.

    nu is a (b, b) matrix with nu[a, c] = P(primary symbol a | reference
    symbol c); every column sums to 1 and is strictly positive unless the
    model was built from explicit probabilities with hard zeros.
    Block probabilities multiply per position:
    nu(u | v) = prod_i nu(u_i | v_i).
    """

    def __init__(self, alphabet: Alphabet, k: int, nu: np.ndarray):
        k = int(k)
        if k < 1:
            raise ValueError("block length must be at least 1")
        b = alphabet.size
        nu = np.asarray(nu, dtype=float)
        if nu.shape != (b, b):
            raise ValueError(f"nu must be {b}x{b}, got {nu.shape}")
        if np.any(nu < 0) or not np.allclose(nu.sum(axis=0), 1.0, atol=1e-9):
            raise ValueError("columns of nu must be distributions")
        self.alphabet = alphabet
        self.k = k
        self.nu = nu
        self.neglog = _neglog(nu)

    def symbol_code_lengths(self, primary: np.ndarray, reference: np.ndarray):
        """Per-block codeword lengths for paired symbol arrays (length n, k | n)."""
        if primary.size != reference.size:
            raise ValueError("paired arrays must have equal length")
        if primary.size % self.k:
            raise ValueError(f"length {primary.size} not a multiple of k={self.k}")
        s = self.neglog.ravel()[_pair_ids(primary, reference, self.alphabet.size)]
        return _block_lengths(s, self.k)


def _neglog(nu: np.ndarray) -> np.ndarray:
    """-log_b nu; hard zeros become +inf (never decodable, infinite length)."""
    with np.errstate(divide="ignore"):
        return -np.log2(nu) if len(nu) == 2 else -np.log(nu) / np.log(len(nu))


def _pair_ids(primary: np.ndarray, reference: np.ndarray, b: int) -> np.ndarray:
    """Ids a*b + c of the pairs (a, c), in the b*b alphabet's narrow dtype."""
    for a in (primary, reference):
        # a narrow id would wrap a symbol outside the alphabet silently
        if a.size and not (np.issubdtype(a.dtype, np.integer) and 0 <= a.min() and a.max() < b):
            raise ValueError(f"paired symbols must be integers in 0..{b - 1}")
    return _horner((primary, reference).__getitem__, 2, b)


def _pair_counts(primary: np.ndarray, reference: np.ndarray, b: int) -> np.ndarray:
    """counts[a, c]: how often the pair (a, c) occurs in the paired arrays."""
    return _count_ids(_pair_ids(primary, reference, b), b * b).reshape(b, b)


def _smooth(counts: np.ndarray) -> np.ndarray:
    """nu(a | c) from pair counts[a, c], add-one smoothed; C order keeps logs bit-equal."""
    counts = counts.astype(float, order="C")
    return (counts + 1.0) / (counts.sum(axis=0, keepdims=True) + len(counts))


def _row_sums(s: np.ndarray, k: int) -> np.ndarray:
    """``s.reshape(-1, k).sum(axis=1)`` bit for bit; overwrites s.

    numpy reduces rows of up to 8 terms slowly, so these are summed by
    column adds in numpy's own order: left to right below 8 terms, 8 as
    ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)), and the row's sum
    added to 0.0, which turns an all -0.0 row into 0.0.
    """
    rows = s.reshape(-1, k)
    if k > 8:
        return rows.sum(axis=1)
    if k < 8:
        for j in range(1, k):
            rows[:, 0] += rows[:, j]
    else:
        for w in (1, 2, 4):
            rows[:, 0::2 * w] += rows[:, w::2 * w]
    return rows[:, 0] + 0.0


def _block_lengths(s: np.ndarray, k: int) -> np.ndarray:
    """Codeword lengths of the k-symbol blocks whose terms -log_b nu are s (which
    this overwrites); nu = 0 raises."""
    s = _row_sums(s, k)  # frees the symbols' terms if only s held them
    lengths = _code_lengths(s)
    if np.any(lengths < 0):
        raise ValueError("model assigns probability 0 to an observed block")
    return lengths


def _constant_lengths(counts: np.ndarray, data: np.ndarray, k: int) -> np.ndarray:
    """Block lengths of data against a constant reference c, fit from each symbol's
    training count; a block's length is then a function of the block alone."""
    b = counts.size
    col = _neglog(_smooth(np.pad(counts[:, None], ((0, 0), (0, b - 1)))))[:, 0]
    if b**k <= data.size // k:  # no more blocks possible than measured: sum each once
        return _block_lengths(col[digits(np.arange(b**k), k, b)], k)[aligned_ids(data, k, b)]
    return _block_lengths(col[data], k)


def _code_lengths(s: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Codeword lengths for -log_b probabilities s: ceil(s) clamped to >= 1,
    0 for a sure block (s = 0) and -1 for an impossible one (s = inf)."""
    lengths = np.ceil(s)
    np.maximum(lengths, 1.0, out=lengths)
    lengths[s == 0.0] = 0.0
    lengths[np.isinf(s)] = -1.0
    return lengths.astype(dtype)


def _rank_tables(neglog: np.ndarray, k: int, m: int):
    """Tables that carry dense ranks of k-term block sums from level to level.

    Level i's sums are V[j] + neglog[a, c] over the sorted distinct sums V
    of level i - 1 (V = [0.0] before level 0), the very float additions of
    the block sums, and float addition is monotone: equal sums get one rank
    and smaller sums smaller ranks.  ``tables[i][c * |V| + j, a]`` is that
    sum's rank among level i's distinct sums, in the narrowest dtype.
    Returns (tables, the last level's distinct sums), or None where ranking
    m conditions' blocks would not pay: a level with as many candidate sums
    (b * b * |V|) as the entries it ranks (m * b**(i + 1)), candidates of
    all levels together past a quarter of the m * b**k entries (a candidate
    costs a few entries' float sort), or ranks past 16 bits (numpy sorts
    only 8- and 16-bit keys by radix).
    """
    b = len(neglog)
    values, tables, spent = np.zeros(1), [], 0
    for i in range(k):
        candidates = b * b * values.size
        spent += candidates
        if candidates >= m * b ** (i + 1) or spent > m * b**k // 4:
            return None
        values, inv = np.unique(values[:, None] + neglog.T[:, None, :], return_inverse=True)
        if values.size > 2**16:
            return None
        tables.append(inv.astype(_dtype_for(values.size)).reshape(-1, b))
    return tables, values


def train_model(
    x_train: FiniteWord, y_train: FiniteWord, k: int
) -> ConditionalModel:
    """Fit nu(a | c) from paired samples with add-one smoothing.

    x_train is the primary stream, y_train the reference; both must have
    the same length and alphabet.  Smoothing keeps every conditional
    probability positive, so unseen pairs stay codable.
    """
    if x_train.alphabet != y_train.alphabet:
        raise ValueError("training words need matching alphabets")
    if len(x_train) != len(y_train):
        raise ValueError("training words need equal lengths")
    if len(x_train) == 0:
        raise ValueError("training words must be nonempty")
    nu = _smooth(_pair_counts(x_train.data, y_train.data, x_train.alphabet.size))
    return ConditionalModel(x_train.alphabet, k, nu)


#: bytes a PrefixCode's store and one build batch's scratch may hold; a growth past it raises
_STORE_CAP = 2**28
# scratch per entry of a build batch: a float key, its sort order and the lengths
# peak at 20-21 B (tracemalloc), a rank key at 13-15
_BUILD_BYTES = 24


def _firsts(count: np.ndarray, b: int) -> np.ndarray:
    """first[:, L] = (first[:, L-1] + count[:, L-1]) * b; int64 below 2**63."""
    top = count.shape[1] - 1
    fits = int(count.sum(axis=1).max(initial=0)) * b**top < 2**63  # sum * b**L >= first + count
    first = np.zeros(count.shape, dtype=np.int64 if fits else object)
    for L in range(1, top + 1):
        first[:, L] = (first[:, L - 1] + count[:, L - 1]) * b
    return first


def _starts(count: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The canonical rule: place p with a length-L codeword has the value p - starts[..., L]."""
    return np.cumsum(count, axis=-1) - count - first


class PrefixCode:
    """Canonical per-condition prefix-free codes for a ConditionalModel.

    For each reference block v, primary blocks get codewords over the
    same alphabet with |w(u, v)| = max(ceil(-log_b nu(u | v)), 1) (or the
    empty codeword when nu(u | v) = 1).  A condition's code is built the
    first time it occurs, as one row of a dense store of canonical forms
    (Moffat & Turpin 1997), from keys that sort each row's blocks as
    s = -log_b nu(u | v) does: dense ranks of s in 8 or 16 bits, which numpy
    sorts by radix, where ``_rank_tables`` says ranking pays, and s itself
    elsewhere.  ``_lengths`` (int16), ``_order`` and ``_rank``
    (the block dtype) have a column per primary block u: its codeword
    length (-1 when the model rules u out), the blocks in (length, s, id)
    order, impossible ones last, and u's place p in that order, whose
    codeword of length L has the value p - ``_starts``[row, L].  ``_first``
    and ``_count`` hold the first value (Python ints past int64) and the
    number of the codewords of each length 0 .. Lmax; ``_row_of`` maps a
    condition to its row (-1 until built), and rows past ``len(_count)`` are
    scratch.  A build checks Kraft exactly (one int64 comparison a row, Python
    ints for the rows it flags and past int64), also under python -O, and
    refuses before it allocates when the store (2 + 2 x 1..4 B per block and
    condition) and a batch's scratch would pass _STORE_CAP bytes.
    ``codebook`` derives a row's codewords, as a reference.
    """

    _TABLE_CAP = 2**20  # entries per build batch, which bounds its scratch

    def __init__(self, model: ConditionalModel):
        self.model = model
        size = model.alphabet.size**model.k
        if size > self._TABLE_CAP:
            raise ValueError(
                f"codebook table {model.alphabet.size}**{model.k} exceeds cap {self._TABLE_CAP}"
            )
        self._size = size
        self._row_of = np.full(size, -1, dtype=np.int32)
        self._lengths = np.zeros((0, size), dtype=np.int16)
        self._order = self._rank = np.zeros((0, size), dtype=_dtype_for(size))
        self._count = self._first = np.zeros((0, 1), dtype=np.int64)

    def _sort_keys(self, v_ids: np.ndarray):
        """Keys that sort each condition v's blocks u as s = -log_b nu(u | v) does.

        One row per condition, one column per block: (ranks, values) with
        s = values[ranks] where ``_rank_tables`` pays, else (s, None), s
        summed left to right.
        """
        neglog, k = self.model.neglog, self.model.k
        b, m = len(neglog), v_ids.size
        dv = digits(v_ids, k, b).astype(np.intp)
        ranked = _rank_tables(neglog, k, m)
        key = np.zeros((m, 1), dtype=np.uint8 if ranked else float)
        for i in range(k):
            # the newest digit goes on the fast axis, so a column is a block id
            if ranked:
                table = ranked[0][i]
                at = key.astype(np.intp)
                at += dv[:, i, None] * (len(table) // b)
                key = table.take(at, axis=0)
                del at
            else:
                terms = neglog[:, dv[:, i]].T
                if b < 8:  # b strided adds beat a broadcast whose inner loop is b terms
                    s = np.empty(key.shape + (b,))
                    for a in range(b):
                        np.add(key, terms[:, a, None], out=s[..., a])
                    key = s
                else:
                    key = key[:, :, None] + terms[:, None, :]
            key = key.reshape(m, -1)
        return key, ranked[1] if ranked else None

    def _rows(self, v_ids: np.ndarray) -> np.ndarray:
        """Each condition's store row, building missing ones _TABLE_CAP entries a batch."""
        seen = np.zeros(self._size, dtype=bool)
        seen[v_ids] = True
        missing = np.flatnonzero(seen & (self._row_of < 0))
        if missing.size:
            old, rows = len(self._count), len(self._count) + missing.size
            step = max(1, self._TABLE_CAP // self._size)
            entry = self._lengths.itemsize + 2 * self._order.itemsize
            need = (rows * entry + min(step, missing.size) * _BUILD_BYTES) * self._size
            if need > _STORE_CAP:
                raise ValueError(
                    f"code tables for {rows} conditions need {need} bytes, "
                    f"over the cap of {_STORE_CAP}"
                )
            for name in ("_lengths", "_order", "_rank"):  # old and new of one array alive at once
                setattr(self, name, np.pad(getattr(self, name)[:old], ((0, missing.size), (0, 0))))
            counts = [self._count]
            for i in range(0, missing.size, step):
                counts.append(self._build(missing[i : i + step], old + i))
            w = max(c.shape[1] for c in counts)
            self._count = np.concatenate([np.pad(c, ((0, 0), (0, w - c.shape[1]))) for c in counts])
            self._first = _firsts(self._count, self.model.alphabet.size)
            self._row_of[missing] = np.arange(old, rows)
        return self._row_of[v_ids].astype(np.intp)

    def _build(self, v_ids: np.ndarray, at: int) -> np.ndarray:
        """Fill the conditions v_ids' store rows at, at + 1, ..; return their counts."""
        b = self.model.alphabet.size
        key, values = self._sort_keys(v_ids)
        m, size = key.shape
        rows = slice(at, at + m)
        # the length is nondecreasing in s, so a stable sort by s gives the
        # (length, s, id) order, impossible blocks (s = inf) last.  The one
        # exception, a sure block (s = 0) after blocks with s < 0 (nu above
        # 1), breaks Kraft in any order and raises below.  Ranks of s sort
        # as s does, and numpy sorts 8- and 16-bit keys stably by radix.
        self._order[rows] = order = np.argsort(key, axis=1, kind="stable")
        order += (size * np.arange(m))[:, None]  # now flat indices into the rows
        self._rank[rows].reshape(-1)[order] = np.arange(size, dtype=self._rank.dtype)
        del order
        if values is None:
            lengths = _code_lengths(key, np.int32)
        else:
            lengths = _code_lengths(values, np.int32).take(key)
        del key
        self._lengths[rows] = lengths
        top = lengths.max(axis=1)
        span = int(top.max()) + 2
        r = np.arange(m)
        # codewords per row and length, in lengths' memory; column 0: impossible
        cells = lengths
        cells += (1 + span * r)[:, None]
        count = np.bincount(cells.reshape(-1), minlength=m * span).reshape(m, span)[:, 1:]
        first = _firsts(count, b)
        # Kraft, exactly: at a row's longest length L the next free value
        # sum(count_l * b**(L - l)) must not pass b**L; an int64 first means b**L < 2**63
        used = first[r, top] + count[r, top]
        if first.dtype == np.int64:
            r = np.flatnonzero(used > np.int64(b) ** top)
        for v, L, u in zip(v_ids[r].tolist(), top[r].tolist(), used[r].tolist()):
            if u > b**L:
                raise ValueError(
                    f"Kraft violation for condition block {v}: "
                    f"lengths up to {L} need {u} of {b}**{L} leaves"
                )
        return count

    def codebook(self, v_id: int):
        """(lengths array, list of codeword tuples), canonically assigned.

        Blocks the model rules out entirely (probability 0, possible only
        with hand-built models) get no codeword; their entry is None and
        their length -1.
        """
        if not 0 <= v_id < self._size:  # a negative id would index from the end
            raise ValueError(f"condition block id {v_id} is outside 0 .. {self._size - 1}")
        b = self.model.alphabet.size
        r = int(self._rows(np.array([v_id]))[0])
        starts = _starts(self._count[r], self._first[r]).tolist()
        codewords = [None] * self._size
        p = 0
        for L, count in enumerate(self._count[r].tolist()):
            values = [q - starts[L] for q in range(p, p + count)]
            for u, cw in zip(self._order[r, p : p + count], digits(values, L, b).tolist()):
                codewords[u] = tuple(cw)
            p += count
        return self._lengths[r].copy(), codewords


def build_prefix_code(model: ConditionalModel) -> PrefixCode:
    return PrefixCode(model)


def cond_encode(
    x: WordSource, y: WordSource, code: PrefixCode, n: int
) -> Tuple[FiniteWord, RatioEstimate]:
    """Encode n symbols of x against reference y with per-block codewords.

    n must be a multiple of the model's block length.  Both sources are
    consumed in lockstep, k symbols per block.  Rows of the code's store
    are built only for the condition blocks that occur; one gather reads
    each block's codeword length and place, ``_starts`` turns the place
    into the codeword's value, and ``blocks.digit_runs`` writes each value
    at its length, computing only the digits it writes.
    """
    model = code.model
    k, b = model.k, model.alphabet.size
    if x.alphabet != model.alphabet or y.alphabet != model.alphabet:
        raise ValueError("x and y must be over the code's alphabet")
    n = int(n)
    if n % k:
        raise ValueError(f"budget {n} is not a multiple of block length {k}")
    u_ids = aligned_ids(x.take(n), k, b)
    rows = code._rows(aligned_ids(y.take(n), k, b))
    flat = rows * code._size + u_ids
    lengths = code._lengths.reshape(-1)[flat]
    if np.any(lengths < 0):
        raise ValueError("model assigns probability 0 to an observed block")
    values = code._rank.reshape(-1)[flat] - _starts(code._count, code._first)[rows, lengths]
    out = digit_runs(values, lengths, b)
    return FiniteWord(model.alphabet, out), _block_estimate(n, k, lengths)


@dataclass(frozen=True)
class _Digits:
    """cond_decode's window past int64: W digits from a position on as one int, made where read."""

    padded: np.ndarray
    powers: np.ndarray

    def __getitem__(self, at):  # a position, or an array of them
        if isinstance(at, np.ndarray):
            return np.array([self[i] for i in at.tolist()], dtype=object)
        if at + self.powers.size > self.padded.size:
            raise IndexError(at)  # past the end, as in the int64 window
        return int(self.padded[at : at + self.powers.size] @ self.powers)


def cond_decode(
    compressed: FiniteWord, y: WordSource, code: PrefixCode, n: int
) -> FiniteWord:
    """Decode n symbols (n/k blocks) from a cond_encode stream.

    Canonical decoding from the code's store: the next W compressed
    symbols, read as a base-b number w (W is the longest codeword of the
    conditions that occur, zeros past the end), fall below the limit
    (first + count) * b**(W - L) exactly from the codeword length L being
    read on, so one bisect over the row's limits (Python lists, made for the
    rows that occur) gives L.  The walk records where each block starts;
    numpy then takes the lengths, checks them and gathers each block's place
    w // b**(W - L) + ``_starts`` and id.  A window that starts no codeword,
    a truncated final codeword or trailing data raises DecodeDeadEnd.
    """
    model = code.model
    k, b = model.k, model.alphabet.size
    if compressed.alphabet != model.alphabet or y.alphabet != model.alphabet:
        raise ValueError("compressed and y must be over the code's alphabet")
    n = int(n)
    if n % k:
        raise ValueError(f"length {n} is not a multiple of block length {k}")
    size = len(compressed)
    rows = code._rows(aligned_ids(y.take(n), k, b))
    occurs = np.bincount(rows, minlength=code._count.shape[0]) > 0
    present = np.flatnonzero(occurs)
    count = code._count[present]
    width = int(np.flatnonzero(count.any(axis=0))[-1]) if present.size else 0
    count = count[:, : width + 1]
    first = code._first[present, : width + 1]
    dtype = np.int64 if b**width < 2**63 else object
    padded = np.concatenate((compressed.data.astype(dtype), np.zeros(width, dtype=dtype)))
    scale = np.array([b ** (width - L) for L in range(width + 1)], dtype=dtype)
    if dtype is object:
        window = reads = _Digits(padded, scale[1:])
    else:
        window = np.zeros(size + 1, dtype=dtype)
        for j in range(width):
            window *= b
            window += padded[j : j + size + 1]
        reads = memoryview(window)  # reads Python ints without converting the whole window
    limits = ((first + count) * scale).tolist()
    at = np.cumsum(occurs)[rows] - 1  # each block's row among the rows that occur
    starts, pos = [], 0
    try:
        for c in at.tolist():
            starts.append(pos)
            pos += bisect_right(limits[c], reads[pos])
        starts.append(pos)
    except IndexError:  # past the end, after a block the checks below refuse
        pass
    starts = np.fromiter(starts, np.int64, len(starts))
    lengths = np.diff(starts)
    bad = np.flatnonzero((lengths > width) | (starts[1:] > size))
    if bad.size:
        i = bad[0]
        if lengths[i] > width:
            raise DecodeDeadEnd(f"no codeword starts at compressed symbol {starts[i]}")
        raise DecodeDeadEnd("compressed stream ended inside a codeword")
    if starts[-1] != size:
        raise DecodeDeadEnd(f"{size - starts[-1]} trailing symbols after the last block")
    places = _starts(count, first)[at, lengths] + window[starts[:-1]] // scale[lengths]
    blocks = code._order.reshape(-1)[(places + rows * code._size).astype(np.int64, copy=False)]
    return FiniteWord(model.alphabet, digits(blocks, k, b).reshape(-1))


# ---------------------------------------------------------------------------
# train/measure split ratio estimation and the independence report


def _prefixes(n: int, k: int, *sources: WordSource):
    """n and k, checked for a block-coder estimate, and each source's first n symbols."""
    n, k = int(n), int(k)
    if k < 1:
        raise ValueError("block length must be at least 1")
    if n < 2 * k or n % (2 * k):
        raise ValueError(f"budget {n} must be a positive multiple of 2k = {2 * k}")
    if any(s.alphabet != sources[0].alphabet for s in sources):
        raise ValueError("sources need matching alphabets")
    return (n, k, *(s.prefix(n).data for s in sources))


def conditional_ratio_estimate(
    x: WordSource, y: WordSource, n: int, k: int
) -> RatioEstimate:
    """Block-coding ratio of x given reference y over the first n symbols.

    The pair counts of the first n/2 paired symbols, add-one smoothed,
    fit the model; the second n/2 are measured (code lengths only; no
    codewords are materialized).  n must be a multiple of 2k.  The
    sources are read through clones, so the originals are not consumed.
    """
    n, k, xa, ya = _prefixes(n, k, x, y)
    half = n // 2
    nu = _smooth(_pair_counts(xa[:half], ya[:half], x.alphabet.size))
    lengths = ConditionalModel(x.alphabet, k, nu).symbol_code_lengths(xa[half:], ya[half:])
    return _block_estimate(n - half, k, lengths)


def unconditional_ratio_estimate(x: WordSource, n: int, k: int) -> RatioEstimate:
    """conditional_ratio_estimate of x against a constant reference, which
    tells the coder nothing: the ratio the block coder reaches on x alone."""
    n, k, xa = _prefixes(n, k, x)
    half = n // 2
    lengths = _constant_lengths(_count_ids(xa[:half], x.alphabet.size), xa[half:], k)
    return _block_estimate(n - half, k, lengths)


@dataclass
class IndependenceReport:
    """Conditional versus unconditional block-coding ratios for a pair.

    The unconditional ratios use an uninformative constant reference, so
    rho_x is what the same coder achieves with no help.  A genuinely
    useful reference drags the conditional ratio below it.
    """

    n: int
    k: int
    rho_x: float
    rho_y: float
    rho_x_given_y: float
    rho_y_given_x: float

    @property
    def gap_x(self) -> float:
        return abs(self.rho_x_given_y - self.rho_x)

    @property
    def gap_y(self) -> float:
        return abs(self.rho_y_given_x - self.rho_y)

    def independent(self, tolerance: float) -> bool:
        """No measurable help either way, and nothing compressed to zero."""
        return (
            self.gap_x <= tolerance
            and self.gap_y <= tolerance
            and self.rho_x_given_y > tolerance
            and self.rho_y_given_x > tolerance
        )


def independence_report(x: WordSource, y: WordSource, n: int, k: int) -> IndependenceReport:
    """Two-sided conditional compression comparison of paired sources: the
    ratios of x given y and y given x (conditional_ratio_estimate) and of x
    and y alone (unconditional_ratio_estimate), all fit from one count J of
    the training pairs (J, J.T, and J's row and column sums) and the two
    conditional ones gathered through one array of measured pair ids."""
    n, k, xa, ya = _prefixes(n, k, x, y)
    half = n // 2
    joint = _pair_counts(xa[:half], ya[:half], x.alphabet.size)
    pairs = _pair_ids(xa[half:], ya[half:], x.alphabet.size)
    symbols = (
        _constant_lengths(joint.sum(axis=1), xa[half:], k).sum(),
        _constant_lengths(joint.sum(axis=0), ya[half:], k).sum(),
        _block_lengths(_neglog(_smooth(joint)).ravel()[pairs], k).sum(),
        # y given x at (y, x) = (a, c) is read at the pair id c*b + a
        _block_lengths(_neglog(_smooth(joint.T)).T.ravel()[pairs], k).sum(),
    )
    return IndependenceReport(n, k, *(int(m) / (n - half) for m in symbols))


# ---------------------------------------------------------------------------
# bounded losslessness


@dataclass(frozen=True)
class LosslessnessReport:
    lossless: bool
    max_length: int
    words_checked: int
    counterexample: Optional[tuple]  # (word1, word2) colliding, or None


def bounded_losslessness_check(M: KAutomaton, max_len: int) -> LosslessnessReport:
    """Exhaustively verify (output, final state) determines equal-length inputs.

    Runs the 1-deterministic transducer M on every input word of each
    length up to max_len; inputs the machine rejects are skipped.  Two
    same-length inputs mapping to the same output word and final state
    witness information loss and are returned as a counterexample: the
    first word, in ``itertools.product`` order, whose output and final
    state an earlier word already had, after that earlier word.  All
    words of one length run side by side over the compiled tables.
    """
    if M.k != 2:
        raise ValueError("losslessness check needs a 2-tape transducer")
    if max_len < 1:
        raise ValueError("losslessness check needs max_len of at least 1")
    C = compile(M, 1)
    b = M.alphabet.size
    if b**max_len > 2**18:
        raise ValueError("exhaustive check too large; reduce max_len")
    checked = 0
    for L, (q, out, out_len, finished) in enumerate(C._every_word(max_len), start=1):
        idx = np.flatnonzero(finished)
        if idx.size > 1:
            # the stable sort keeps words with equal keys in product order,
            # so a word equal to its predecessor repeats an earlier key
            keys = [out[idx], out_len[idx], q[idx]]
            order = np.lexsort(keys)
            same = np.ones(idx.size - 1, dtype=bool)
            for key in keys:
                k = key[order]
                same &= k[1:] == k[:-1]
            if same.any():
                at = np.flatnonzero(same)
                p = at[np.argmin(order[at + 1])]
                checked += int(order[p + 1]) + 1
                first, second = (
                    FiniteWord(M.alphabet, digits(idx[order[i]], L, b)) for i in (p, p + 1)
                )
                return LosslessnessReport(False, max_len, checked, (first, second))
        checked += idx.size
    return LosslessnessReport(True, max_len, checked, None)
