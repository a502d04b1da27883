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

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from .words import Alphabet, FiniteWord
from .sources import LiteralSource, WordSource, SourceExhausted, constant_source
from .automata import (
    _WINDOW,
    KAutomaton,
    RunTrace,
    _Run,
    compile,
    run,
)


class TransducerHalted(RuntimeError):
    """The transducer run died before delivering the requested symbols."""


class DecodeDeadEnd(RuntimeError):
    """A compressed stream walked off the code tree (corrupt or mismatched)."""


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


def _estimate_from_trace(trace: RunTrace) -> RatioEstimate:
    n_in = trace.consumed[0]
    n_out = trace.checkpoints[-1][1]
    return RatioEstimate(
        n=n_in,
        output_symbols=n_out,
        checkpoints=list(trace.checkpoints),
        halted=trace.halted,
        halt_reason=trace.halt_reason,
        oracle_symbols=trace.consumed[1] if len(trace.consumed) > 1 else None,
    )


def plain_ratio(
    T: KAutomaton, x: WordSource, n: int, max_steps: Optional[int] = None
) -> RatioEstimate:
    """Compression ratio of the 2-tape transducer T on the first n symbols of x.

    The source is consumed.  A halted run is reported, not raised; check
    the flag before trusting the ratio.
    """
    if T.k != 2:
        raise ValueError("plain ratio needs a 2-tape transducer")
    trace = run(T, 1, [x], n, max_steps=max_steps, record_path=False)
    return _estimate_from_trace(trace)


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
    if C.k != 3:
        raise ValueError("conditional ratio needs a 3-tape machine")
    trace = run(C, 2, [x, y], n, max_steps=max_steps, record_path=False)
    return _estimate_from_trace(trace)


# ---------------------------------------------------------------------------
# streaming transducer output


class TransducerOutputSource(WordSource):
    """The output stream T(x) of a deterministic 2-tape transducer.

    Ends (becomes exhausted) when x ends or T has no matching
    transition; a silent cycle also ends the stream, exactly where
    :func:`run` would halt.  The stream is made by the same engine as
    ``run``: each request runs T over at least ``_WINDOW`` further input
    symbols (lock-step, unless T has silent states or many states) and
    keeps the output beyond the request for the next one, so x is read
    ahead in windows.
    Once the stream has ended, x is left just after the last symbol T
    consumed.
    """

    def __init__(self, T: KAutomaton, x: WordSource):
        if T.k != 2:
            raise ValueError("need a 2-tape transducer")
        self._compiled = compile(T, 1)
        if x.alphabet != T.alphabet:
            raise ValueError("source alphabet does not match the transducer")
        super().__init__(T.alphabet)
        self.T = T
        self.x = x
        self._state = self._compiled.initial
        self._dead = False
        self._extra = self._compiled.pool[:0]  # output beyond the last request

    def _produce(self, n):
        parts = [self._extra]
        have = self._extra.size
        while have < n and not self._dead:
            r = _Run(self._state, 1, False)
            self._compiled.advance(r, [self.x], max(n - have, _WINDOW), sys.maxsize)
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
    copied verbatim.  Decompression needs only T, k and x, so the scheme
    is lossless given the reference.  Both sources are consumed; T(x) is
    predicted and compared window by window, and prediction stops at the
    first mismatch.
    """
    k = int(k)
    if k < 1:
        raise ValueError("window size must be at least 1")
    n = int(n)
    if n < 0:
        raise ValueError("budget must be nonnegative")
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
    if m0 is not None:
        p = m0 // k
        out = np.concatenate(
            [
                np.zeros(p, dtype=y_arr.dtype),
                np.array([1], dtype=y_arr.dtype),
                y_arr[k * p :],
            ]
        )

        def out_at(c):
            if c <= m0:  # mismatch is at input position m0 + 1
                return c // k
            return p + 1 + (c - k * p)

    else:
        out = np.zeros(n // k, dtype=y_arr.dtype)

        def out_at(c):
            return c // k

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
    if nz.size == 0:
        return FiniteWord(compressed.alphabet, f.take(int(comp.size) * k))
    i = int(nz[0])
    if int(comp[i]) != 1:
        raise DecodeDeadEnd(f"expected a 1 flag at position {i + 1}, found {int(comp[i])}")
    head = f.take(i * k)
    return FiniteWord(compressed.alphabet, np.concatenate([head, comp[i + 1 :]]))


def match_run_automaton(T: KAutomaton, k: int) -> KAutomaton:
    """Materialize the match-run compressor as a 3-tape machine.

    Tape 1 reads y, tape 2 reads x, tape 3 is the output; the machine is
    deterministic on its two input tapes.  State space is roughly
    |T| * b**k, so only small windows (k <= 3) are supported.  T must
    emit at most one symbol per transition.
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

    def xname(q, buf):
        return f"x_{C.states[q]}_" + "".join(str(a) for a in buf)

    def yname(q, buf, fx):
        return f"y_{C.states[q]}_" + "".join(str(a) for a in buf) + f"_{fx}"

    sink = len(C.states)
    start = ("x", C.initial, ())
    todo = [start]
    seen = {start}
    trans = []
    states = []
    have_copy = False
    while todo:
        node = todo.pop(0)
        if node[0] == "x":
            _, q, buf = node
            name = xname(q, buf)
            states.append(name)
            pat = C.read[q]
            if pat < 0:
                continue  # prediction dies here; no outgoing transitions
            for a in range(b) if pat else (0,):  # a silent state's move has key 0
                p = C.delta_list[q * b + a]
                if p == sink:
                    continue
                emitted = C.emit_list[q * b + a]
                if emitted:
                    target = ("y", p, buf, emitted[0])
                else:
                    target = ("x", p, buf)
                label = ((), (a,) if pat else (), ())
                tname = (
                    yname(*target[1:]) if target[0] == "y" else xname(*target[1:])
                )
                trans.append((name, label, tname))
                if target not in seen:
                    seen.add(target)
                    todo.append(target)
        else:
            _, q, buf, fx = node
            name = yname(q, buf, fx)
            states.append(name)
            for c in range(b):
                if c == fx:
                    if len(buf) + 1 == k:
                        target = ("x", q, ())
                        label = ((c,), (), (0,))
                    else:
                        target = ("x", q, buf + (c,))
                        label = ((c,), (), ())
                    tname = xname(*target[1:])
                    trans.append((name, label, tname))
                    if target not in seen:
                        seen.add(target)
                        todo.append(target)
                else:
                    label = ((c,), (), (1,) + buf + (c,))
                    trans.append((name, label, "copy"))
                    have_copy = True
    if have_copy:
        states.append("copy")
        for c in range(b):
            trans.append(("copy", ((c,), (), (c,)), "copy"))
    return KAutomaton(3, alph, states, xname(C.initial, ()), trans)


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
        # -log_b nu; hard zeros become +inf (never decodable, infinite length)
        with np.errstate(divide="ignore"):
            if b == 2:
                self.neglog = -np.log2(nu)
            else:
                self.neglog = -np.log(nu) / np.log(b)

    @classmethod
    def from_probabilities(cls, alphabet, k, nu) -> "ConditionalModel":
        return cls(alphabet, k, nu)

    def symbol_code_lengths(self, primary: np.ndarray, reference: np.ndarray):
        """Per-block codeword lengths for paired symbol arrays (length n, k | n)."""
        if primary.size != reference.size:
            raise ValueError("paired arrays must have equal length")
        if primary.size % self.k:
            raise ValueError(f"length {primary.size} not a multiple of k={self.k}")
        s = self.neglog[primary.astype(np.int64), reference.astype(np.int64)]
        block = s.reshape(-1, self.k).sum(axis=1)
        return _lengths_from_neglog(block)


def _lengths_from_neglog(s: np.ndarray) -> np.ndarray:
    """Codeword length ceil(s) clamped to >= 1, except exactly-sure blocks get 0."""
    lengths = np.maximum(np.ceil(s), 1.0)
    lengths = np.where(s == 0.0, 0.0, lengths)
    if np.any(np.isinf(lengths)):
        raise ValueError("model assigns probability 0 to an observed block")
    return lengths.astype(np.int64)


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
    b = x_train.alphabet.size
    pair_ids = x_train.data.astype(np.int64) * b + y_train.data.astype(np.int64)
    counts = np.bincount(pair_ids, minlength=b * b).reshape(b, b).astype(float)
    nu = (counts + 1.0) / (counts.sum(axis=0, keepdims=True) + b)
    return ConditionalModel(x_train.alphabet, k, nu)


class PrefixCode:
    """Canonical per-condition prefix-free codebooks for a ConditionalModel.

    For each reference block v, primary blocks get codewords over the
    same alphabet with |w(u, v)| = max(ceil(-log_b nu(u | v)), 1) (or the
    empty codeword when nu(u | v) = 1).  Those lengths satisfy the Kraft
    inequality, checked exactly during assignment.  Codebooks are built
    lazily per condition and cached.
    """

    _TABLE_CAP = 2**20

    def __init__(self, model: ConditionalModel):
        self.model = model
        b = model.alphabet.size
        if b**model.k > self._TABLE_CAP:
            raise ValueError(
                f"codebook table {b}**{model.k} exceeds cap {self._TABLE_CAP}"
            )
        self._books: Dict[int, tuple] = {}
        self._trees: Dict[int, object] = {}

    def _digits(self, val: int) -> tuple:
        b, k = self.model.alphabet.size, self.model.k
        out = []
        for _ in range(k):
            out.append(val % b)
            val //= b
        return tuple(reversed(out))

    def _neglog_for_condition(self, v_id: int) -> np.ndarray:
        """-log_b nu(u | v) for all b**k primary blocks u, vectorized."""
        b, k = self.model.alphabet.size, self.model.k
        dv = self._digits(v_id)
        s = np.zeros(1)
        for i in range(k):
            col = self.model.neglog[:, dv[i]]
            s = (s[:, None] + col[None, :]).reshape(-1)
        return s

    def lengths(self, v_id: int) -> np.ndarray:
        return self.codebook(v_id)[0]

    def codebook(self, v_id: int):
        """(lengths array, list of codeword tuples), canonically assigned.

        Blocks the model rules out entirely (probability 0, possible only
        with hand-built models) get no codeword; their entry is None and
        their length -1.
        """
        if v_id in self._books:
            return self._books[v_id]
        b = self.model.alphabet.size
        s = self._neglog_for_condition(v_id)
        possible = np.isfinite(s)
        lengths = np.full(s.size, -1, dtype=np.int64)
        raw = np.maximum(np.ceil(s[possible]), 1.0)
        raw = np.where(s[possible] == 0.0, 0.0, raw)
        lengths[possible] = raw.astype(np.int64)
        ids = np.flatnonzero(possible)
        order = ids[np.lexsort((ids, s[possible], lengths[possible]))]
        codewords = [None] * s.size
        code_val = 0
        prev_len = int(lengths[order[0]])
        kraft = Fraction(0)
        for u in order:
            L = int(lengths[u])
            code_val *= b ** (L - prev_len)
            assert code_val < b**L or (L == 0 and code_val == 0), "Kraft violation"
            kraft += Fraction(1, b**L)
            digits = []
            rest = code_val
            for _ in range(L):
                digits.append(rest % b)
                rest //= b
            codewords[u] = tuple(reversed(digits))
            code_val += 1
            prev_len = L
        assert kraft <= 1, "Kraft violation"
        self._books[v_id] = (lengths, codewords)
        return self._books[v_id]

    def decode_tree(self, v_id: int):
        """Trie for decoding: internal nodes are dicts, leaves are block ids."""
        if v_id in self._trees:
            return self._trees[v_id]
        lengths, codewords = self.codebook(v_id)
        if (lengths == 0).any():
            # a zero-length codeword means the condition determines the block
            u = int(np.flatnonzero(lengths == 0)[0])
            self._trees[v_id] = u
            return u
        root: dict = {}
        for u, cw in enumerate(codewords):
            if cw is None:
                continue
            node = root
            for a in cw[:-1]:
                node = node.setdefault(a, {})
            node[cw[-1]] = u
        self._trees[v_id] = root
        return root


def build_prefix_code(model: ConditionalModel) -> PrefixCode:
    return PrefixCode(model)


def _block_ids(arr: np.ndarray, k: int, b: int) -> np.ndarray:
    powers = b ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return arr.reshape(-1, k).astype(np.int64) @ powers


def cond_encode(
    x: WordSource, y: WordSource, code: PrefixCode, n: int
) -> Tuple[FiniteWord, RatioEstimate]:
    """Encode n symbols of x against reference y with per-block codewords.

    n must be a multiple of the model's block length.  Both sources are
    consumed in lockstep, k symbols per block.
    """
    model = code.model
    k, b = model.k, model.alphabet.size
    n = int(n)
    if n % k:
        raise ValueError(f"budget {n} is not a multiple of block length {k}")
    xa = x.take(n)
    ya = y.take(n)
    u_ids = _block_ids(xa, k, b)
    v_ids = _block_ids(ya, k, b)
    out: list = []
    cum = np.empty(u_ids.size, dtype=np.int64)
    total = 0
    for i, (u, v) in enumerate(zip(u_ids, v_ids)):
        cw = code.codebook(int(v))[1][int(u)]
        if cw is None:
            raise ValueError("model assigns probability 0 to an observed block")
        out.extend(cw)
        total += len(cw)
        cum[i] = total

    def out_at(c):
        blocks = c // k
        return int(cum[blocks - 1]) if blocks else 0

    est = RatioEstimate(
        n=n, output_symbols=total, checkpoints=_power_checkpoints(n, out_at)
    )
    return FiniteWord(model.alphabet, np.asarray(out, dtype=np.int64)), est


def cond_decode(
    compressed: FiniteWord, y: WordSource, code: PrefixCode, n: int
) -> FiniteWord:
    """Decode n symbols (n/k blocks) from a cond_encode stream.

    Walks the per-condition code trie symbol by symbol; a missing branch
    or a truncated final codeword raises DecodeDeadEnd, as does trailing
    data after the last block.
    """
    model = code.model
    k, b = model.k, model.alphabet.size
    n = int(n)
    if n % k:
        raise ValueError(f"length {n} is not a multiple of block length {k}")
    comp = compressed.data
    pos = 0
    blocks = []
    for _ in range(n // k):
        v_id = int(_block_ids(y.take(k), k, b)[0])
        node = code.decode_tree(v_id)
        while not isinstance(node, (int, np.integer)):
            if pos >= comp.size:
                raise DecodeDeadEnd("compressed stream ended inside a codeword")
            a = int(comp[pos])
            pos += 1
            node = node.get(a)
            if node is None:
                raise DecodeDeadEnd(f"no codeword branch for symbol {a}")
        blocks.append(code._digits(int(node)))
    if pos != comp.size:
        raise DecodeDeadEnd(f"{comp.size - pos} trailing symbols after the last block")
    flat = np.asarray([a for blk in blocks for a in blk], dtype=np.int64)
    return FiniteWord(model.alphabet, flat)


# ---------------------------------------------------------------------------
# train/measure split ratio estimation and the independence report


def _ratio_from_arrays(
    primary: np.ndarray, reference: np.ndarray, k: int, alphabet: Alphabet
) -> RatioEstimate:
    """Train on the first half, measure ideal code lengths on the second half."""
    n = primary.size
    half = n // 2
    model = train_model(
        FiniteWord(alphabet, primary[:half]),
        FiniteWord(alphabet, reference[:half]),
        k,
    )
    lengths = model.symbol_code_lengths(primary[half:], reference[half:])
    cum = np.cumsum(lengths)

    def out_at(c):
        blocks = c // k
        return int(cum[blocks - 1]) if blocks else 0

    n_test = n - half
    return RatioEstimate(
        n=n_test,
        output_symbols=int(cum[-1]) if cum.size else 0,
        checkpoints=_power_checkpoints(n_test, out_at),
    )


def conditional_ratio_estimate(
    x: WordSource, y: WordSource, n: int, k: int
) -> RatioEstimate:
    """Block-coding ratio of x given reference y over the first n symbols.

    The first n/2 paired symbols fit the model, the second n/2 are
    measured (code lengths only; no codewords are materialized).  n must
    be a multiple of 2k.  The sources are read through clones, so the
    originals are not consumed.
    """
    k = int(k)
    n = int(n)
    if k < 1:
        raise ValueError("block length must be at least 1")
    if n < 2 * k or n % (2 * k):
        raise ValueError(f"budget {n} must be a positive multiple of 2k = {2 * k}")
    if x.alphabet != y.alphabet:
        raise ValueError("sources need matching alphabets")
    xa = x.prefix(n).data
    ya = y.prefix(n).data
    return _ratio_from_arrays(xa, ya, k, x.alphabet)


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


def independence_report(
    x: WordSource, y: WordSource, n: int, k: int
) -> IndependenceReport:
    """Two-sided conditional compression comparison of paired sources."""
    k = int(k)
    n = int(n)
    if n < 2 * k or n % (2 * k):
        raise ValueError(f"budget {n} must be a positive multiple of 2k = {2 * k}")
    if x.alphabet != y.alphabet:
        raise ValueError("sources need matching alphabets")
    xa = x.prefix(n).data
    ya = y.prefix(n).data
    za = np.zeros(n, dtype=xa.dtype)
    alph = x.alphabet
    return IndependenceReport(
        n=n,
        k=k,
        rho_x=_ratio_from_arrays(xa, za, k, alph).final_ratio,
        rho_y=_ratio_from_arrays(ya, za, k, alph).final_ratio,
        rho_x_given_y=_ratio_from_arrays(xa, ya, k, alph).final_ratio,
        rho_y_given_x=_ratio_from_arrays(ya, xa, k, alph).final_ratio,
    )


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
    witness information loss and are returned as a counterexample.
    """
    if M.k != 2:
        raise ValueError("losslessness check needs a 2-tape transducer")
    compile(M, 1)
    b = M.alphabet.size
    if b**max_len > 2**18:
        raise ValueError("exhaustive check too large; reduce max_len")
    checked = 0
    for L in range(1, max_len + 1):
        seen: dict = {}
        for tup in itertools.product(range(b), repeat=L):
            w = FiniteWord(M.alphabet, np.asarray(tup, dtype=np.int64))
            trace = run(M, 1, [LiteralSource(w)], L, record_path=False)
            if trace.halted or trace.consumed[0] != L:
                continue
            checked += 1
            key = (trace.output.data.tobytes(), trace.final_state)
            if key in seen:
                return LosslessnessReport(False, max_len, checked, (seen[key], w))
            seen[key] = w
    return LosslessnessReport(True, max_len, checked, None)


def unconditional_source(alphabet: Alphabet) -> WordSource:
    """The all-zero reference used for unconditional ratio estimates."""
    return constant_source(0, alphabet)
