"""Shared fixtures and naive reference implementations.

The naive_* helpers are deliberately slow, string-based reimplementations
used as independent oracles against the vectorized library code, and
eliminate_eps_input_transitions rewrites silent steps away so that tests
can compare run() on a machine with and without them.  They must not
import anything from fsindep internals beyond the public API.
"""

import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from fsindep import (
    ConditionalModel,
    DecodeDeadEnd,
    FiniteWord,
    IndependenceReport,
    KAutomaton,
    LiteralSource,
    LosslessnessReport,
    NotDeterministicError,
    check_l_deterministic,
    load_automaton,
    run,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def join_aut() -> KAutomaton:
    return load_automaton(FIXTURES / "join.aut")


@pytest.fixture(scope="session")
def shuffle_aut() -> KAutomaton:
    return load_automaton(FIXTURES / "shuffle.aut")


@pytest.fixture(scope="session")
def copy_aut() -> KAutomaton:
    return load_automaton(FIXTURES / "copy.aut")


# ---------------------------------------------------------------------------
# counting oracles


def naive_occ(w: str, u: str) -> int:
    """Sliding-window occurrence count by literal slicing."""
    if not u or len(u) > len(w):
        return 0
    return sum(1 for i in range(len(w) - len(u) + 1) if w[i : i + len(u)] == u)


def naive_alocc(w: str, u: str) -> int:
    """Occurrences starting at 1-indexed positions 1, 1+|u|, 1+2|u|, ..."""
    if not u or len(u) > len(w):
        return 0
    return sum(
        1 for i in range(0, len(w) - len(u) + 1, len(u)) if w[i : i + len(u)] == u
    )


def naive_block_counts(w: str, ell: int, aligned: bool) -> dict:
    out: dict = {}
    if aligned:
        starts = range(0, len(w) - ell + 1, ell)
    else:
        starts = range(0, len(w) - ell + 1)
    for i in starts:
        blk = w[i : i + ell]
        out[blk] = out.get(blk, 0) + 1
    return out


def rand_text(rng: random.Random, n: int, b: int) -> str:
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"[:b]
    return "".join(rng.choice(digits) for _ in range(n))


def traced_peak(fn) -> int:
    """Peak bytes that fn() allocates above what was live before it."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# self-similar stream oracle


def _naive_track_extend(w: list, ell: int, step: int, b: int) -> list:
    """Each aligned ell-block of w spread over every step-th position of a
    (step*ell)-block; the other positions carry the base-b digits (most
    significant first) of the block's occurrence rank mod b**((step-1)*ell)."""
    width = (step - 1) * ell
    seen: dict = {}
    out = []
    for i in range(0, len(w), ell):
        blk = tuple(w[i : i + ell])
        rank = seen.get(blk, 0)
        seen[blk] = rank + 1
        rank %= b**width
        digits = [(rank // b ** (width - 1 - j)) % b for j in range(width)]
        for p in range(ell):
            out.extend(digits[p * (step - 1) : (p + 1) * (step - 1)])
            out.append(blk[p])
    return out


def _naive_stages(base: int):
    """Endless (n, ell, rule, symbols) stages, built from the seeds.

    Stage n+1 grows the block length ell to base*ell when ell * base**(base*ell)
    divides |stage n|; otherwise it keeps ell, filling around the old word
    (ell = 1) or track-extending its (ell/base)-blocks.
    """
    b = base
    if b == 2:
        yield (1, 1, "seed", [0, 1])
        stage = (2, 1, "seed", [1, 0, 0, 1])
    else:
        others = [a for a in range(b) if a != 1]
        stage = (1, 1, "seed", (others + [1]) * (b - 1))
    while True:
        yield stage
        n, ell, _, w = stage
        if len(w) % (ell * b ** (b * ell)) == 0:
            stage = (n + 1, ell * b, "grow-blocks", _naive_track_extend(w, ell, b, b))
        elif ell == 1:
            fill = []
            for i, a in enumerate(w):
                fill.extend((i * (b - 1) + j) % b for j in range(b - 1))
                fill.append(a)
            stage = (n + 1, 1, "same-blocks", fill)
        else:
            stage = (n + 1, ell, "same-blocks", _naive_track_extend(w, ell // b, b, b))


def naive_self_similar_stages(n_max: int, base: int) -> list:
    """Stages 1..n_max as (n, ell, rule, symbols), rebuilt on every call."""
    return list(itertools.islice(_naive_stages(base), n_max))


def naive_self_similar_prefix(n: int, base: int) -> np.ndarray:
    """First n symbols of the self-similar stream as int64: base-many 1s,
    then the stage words in order, rebuilt from stage 1 on every call."""
    out = [1] * base
    stages = _naive_stages(base)
    while len(out) < n:
        out.extend(next(stages)[3])
    return np.asarray(out[:n], dtype=np.int64)


# ---------------------------------------------------------------------------
# random-stream oracle

_MASK64 = (1 << 64) - 1


def naive_splitmix64(seed: int, n: int) -> list:
    """The first n SplitMix64 outputs of a counter stream, one Python int
    at a time: output i (1-based) is the finalizer of seed + i * gamma mod
    2**64.  RandomSource's symbol i over b symbols is output i mod b."""
    out = []
    for i in range(1, n + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


# ---------------------------------------------------------------------------
# text oracles

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def naive_parse(text: str, b: int) -> list:
    """Per-character parse; the first bad character raises ValueError."""
    out = []
    for c in text:
        a = _DIGITS.find(c)
        if a < 0:
            raise ValueError(f"invalid symbol character {c!r}")
        if a >= b:
            raise ValueError(
                f"character {c!r} denotes symbol {a}, outside alphabet of size {b}"
            )
        out.append(a)
    return out


def naive_render(symbols) -> str:
    """Per-symbol render: one character per symbol."""
    return "".join(_DIGITS[int(a)] for a in symbols)


# ---------------------------------------------------------------------------
# automaton oracles


def naive_check_deterministic(M: KAutomaton, ell: int) -> bool:
    """Literal restatement of the determinism conditions, O(T^2)."""
    if len(M.initial) != 1:
        return False
    for t in M.transitions:
        for comp in t.label[:ell]:
            if len(comp) > 1:
                return False
    for p in M.states:
        outs = [t for t in M.transitions if t.source == p]
        for i, s in enumerate(outs):
            pat_s = tuple(len(c) > 0 for c in s.label[:ell])
            for t in outs[i + 1 :]:
                pat_t = tuple(len(c) > 0 for c in t.label[:ell])
                if pat_s != pat_t:
                    return False
                if s.label[:ell] == t.label[:ell]:
                    return False
    return True


def naive_forward_pairs(M: KAutomaton, v_text: str):
    """Run enumeration: DFS over transition paths, pruning revisits.

    A path qualifies a pair (p, a) when its total tape-2 consumption is
    exactly v and its first tape-1 symbol is a.  Cycle pruning happens in
    (state, consumed-v-length, first-symbol) space, which never discards a
    witnessing run.
    """
    v = tuple(int(c, 36) for c in v_text)
    found = set()

    def walk(start, state, vpos, first, seen):
        if vpos == len(v) and first is not None:
            found.add((start, first))
        for t in M.transitions:
            if t.source != state:
                continue
            w1, w2 = t.label[0], t.label[1]
            end = vpos + len(w2)
            if end > len(v) or tuple(w2) != v[vpos:end]:
                continue
            nxt_first = first if first is not None else (w1[0] if w1 else None)
            node = (t.target, end, nxt_first)
            if node in seen:
                continue
            walk(start, t.target, end, nxt_first, seen | {node})

    for p in M.states:
        walk(p, p, 0, None, frozenset())
    return sorted(found)


def naive_run(M: KAutomaton, ell: int, input_texts, n: int):
    """Reference stepper for deterministic machines without silent cycles.

    input_texts[0] is truncated to the tape-1 budget n; remaining tapes
    supply whatever they have.  Returns a dict with the visited states,
    final consumed counts per input tape, concatenated outputs, the halt
    reason (None for a clean budget stop) and per-step read counts.
    """
    texts = [input_texts[0][:n]] + [t for t in input_texts[1:]]
    pos = [0] * ell
    outs = [[] for _ in range(M.k - ell)]
    state = M.initial[0]
    states = [state]
    events = []
    halt = None
    guard = 0
    while True:
        guard += 1
        assert guard < 64 * n + 10_000, "oracle runaway"
        candidates = [t for t in M.transitions if t.source == state]
        if not candidates:
            if pos[0] < n:
                halt = "no-transition"
            break
        pattern = tuple(len(c) > 0 for c in candidates[0].label[:ell])
        if pattern[0] and pos[0] >= n:
            break  # tape-1 budget reached
        reads = []
        exhausted = False
        for i in range(ell):
            if pattern[i]:
                if pos[i] >= len(texts[i]):
                    exhausted = True
                    break
                reads.append((int(texts[i][pos[i]], 36),))
            else:
                reads.append(())
        if exhausted:
            halt = "input-exhausted"
            break
        taken = None
        for t in candidates:
            if tuple(t.label[:ell]) == tuple(reads):
                taken = t
                break
        if taken is None:
            halt = "no-transition"
            break
        for i in range(ell):
            pos[i] += len(reads[i])
        for j in range(M.k - ell):
            outs[j].extend(taken.label[ell + j])
        state = taken.target
        states.append(state)
        events.append(tuple(len(r) for r in reads))
    return {
        "states": states,
        "consumed": tuple(pos),
        "outputs": [
            "".join("0123456789abcdefghijklmnopqrstuvwxyz"[s] for s in o)
            for o in outs
        ],
        "halt": halt,
        "events": events,
    }


def eliminate_eps_input_transitions(M: KAutomaton, ell: int) -> KAutomaton:
    """Remove transitions whose first ell labels are all empty.

    Needs an ell-deterministic machine, so a silent state has exactly one
    outgoing transition.  Each silent chain is composed into the next
    reading transition (outputs concatenated in order); states on silent
    cycles can never take part in a completed run and are dropped, except
    that the initial state is always kept.  Returns M itself when there
    is nothing to do.
    """
    report = check_l_deterministic(M, ell)
    if not report:
        kinds = sorted({v.kind for v in report.violations})
        raise NotDeterministicError(
            f"automaton is not deterministic on {ell} input tapes; violations: {kinds}"
        )

    def is_silent(s: str) -> bool:
        outs = M.out(s)
        return bool(outs) and not any(outs[0].label[:ell])

    if not any(is_silent(s) for s in M.states):
        return M

    DEAD = object()
    memo = {}

    def resolve(s):
        """Follow the silent chain from s: (solid state, output words) or DEAD."""
        chain = []
        cur = s
        while True:
            if cur in memo:
                base = memo[cur]
                break
            if cur in chain:
                base = DEAD
                break
            if not is_silent(cur):
                base = (cur, tuple(() for _ in range(M.k - ell)))
                break
            chain.append(cur)
            t = M.out(cur)[0]
            cur = t.target
        # replay the chain backwards, accumulating outputs front to back
        for s2 in reversed(chain):
            if base is DEAD:
                memo[s2] = DEAD
                continue
            t = M.out(s2)[0]
            solid, tail = base
            piece = tuple(t.label[ell + j] + tail[j] for j in range(M.k - ell))
            base = (solid, piece)
            memo[s2] = base
        return memo.get(s, base)

    for s in M.states:
        resolve(s)

    dead = {s for s in M.states if memo.get(s) is DEAD and s not in M.initial}
    keep = [s for s in M.states if s not in dead]

    new_trans = []
    for s in keep:
        outs = M.out(s)
        if not outs:
            continue
        if is_silent(s):
            if memo.get(s) is DEAD:
                continue  # initial on a silent cycle: it keeps no transitions
            solid, acc = memo[s]
            for t in M.out(solid):
                if t.target in dead:
                    continue
                label = t.label[:ell] + tuple(
                    acc[j] + t.label[ell + j] for j in range(M.k - ell)
                )
                new_trans.append((s, label, t.target))
        else:
            for t in outs:
                if t.target in dead:
                    continue
                new_trans.append((t.source, t.label, t.target))
    return KAutomaton(M.k, M.alphabet, keep, list(M.initial), new_trans)


def naive_bounded_losslessness_check(M: KAutomaton, max_len: int) -> LosslessnessReport:
    """One run() per input word, in itertools.product order.

    Words whose run halts are skipped; the first word whose (output,
    final state) was already seen at its length is returned with the
    word that produced it first.
    """
    b = M.alphabet.size
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


# ---------------------------------------------------------------------------
# conditional block coder oracles


def _naive_digits(val: int, b: int, width: int) -> tuple:
    out = []
    for _ in range(width):
        out.append(val % b)
        val //= b
    return tuple(reversed(out))


def _naive_block_id(symbols, b: int) -> int:
    val = 0
    for a in symbols:
        val = val * b + int(a)
    return val


def naive_codebook(model, v_id: int):
    """(lengths, codewords) for condition block v_id, one codeword at a time.

    s(u) sums -log_b nu(u_i | v_i) left to right; the length is
    max(ceil(s), 1), 0 when s == 0, and -1 (no codeword) when s is
    infinite.  Codewords are handed out in (length, s, id) order by the
    canonical rule: next value = (previous + 1) * b**(length step).
    """
    b, k = model.alphabet.size, model.k
    dv = _naive_digits(v_id, b, k)
    lengths, keyed = [], []
    for u in range(b**k):
        du = _naive_digits(u, b, k)
        s = 0.0
        for i in range(k):
            s += float(model.neglog[du[i], dv[i]])
        if s == float("inf"):
            lengths.append(-1)
            continue
        L = 0 if s == 0.0 else max(math.ceil(s), 1)
        lengths.append(L)
        keyed.append((L, s, u))
    codewords = [None] * b**k
    val, prev = 0, None
    for L, _, u in sorted(keyed):
        if prev is not None:
            val = (val + 1) * b ** (L - prev)
        assert val < b**L or (L == 0 and val == 0), "Kraft violation"
        codewords[u] = _naive_digits(val, b, L)
        prev = L
    return lengths, codewords


def naive_cond_encode(x, y, code, n: int):
    """Per-block conditional encoder: (encoded word, codeword length per block)."""
    model = code.model
    b, k = model.alphabet.size, model.k
    xa, ya = x.take(n), y.take(n)
    books: dict = {}
    out, lengths = [], []
    for i in range(0, n, k):
        u = _naive_block_id(xa[i : i + k], b)
        v = _naive_block_id(ya[i : i + k], b)
        if v not in books:
            books[v] = naive_codebook(model, v)
        cw = books[v][1][u]
        if cw is None:
            raise ValueError("model assigns probability 0 to an observed block")
        out.extend(cw)
        lengths.append(len(cw))
    return FiniteWord(model.alphabet, np.asarray(out, dtype=np.int64)), lengths


def naive_cond_decode(compressed, y, code, n: int):
    """Trie-walk decoder: one dict step per compressed symbol."""
    model = code.model
    b, k = model.alphabet.size, model.k
    comp = [int(a) for a in compressed.data]
    tries: dict = {}
    pos = 0
    out = []
    for _ in range(n // k):
        v = _naive_block_id(y.take(k), b)
        if v not in tries:
            _, codewords = naive_codebook(model, v)
            root: dict = {}
            for u, cw in enumerate(codewords):
                if cw == ():
                    root = u  # the condition determines the block
                    break
                if cw is None:
                    continue
                node = root
                for a in cw[:-1]:
                    node = node.setdefault(a, {})
                node[cw[-1]] = u
            tries[v] = root
        node = tries[v]
        while isinstance(node, dict):
            if pos >= len(comp):
                raise DecodeDeadEnd("compressed stream ended inside a codeword")
            node = node.get(comp[pos])
            pos += 1
            if node is None:
                raise DecodeDeadEnd("no codeword branch")
        out.extend(_naive_digits(node, b, k))
    if pos != len(comp):
        raise DecodeDeadEnd("trailing symbols after the last block")
    return FiniteWord(model.alphabet, np.asarray(out, dtype=np.int64))


def naive_independence_report(x, y, n: int, k: int) -> IndependenceReport:
    """The four ratios of a report, each from its own train/measure split:
    a model fit on the first n/2 pairs of (primary, reference), with an
    all-zero reference for the unconditional ones, then the code lengths
    of the second n/2 under it."""
    xa, ya = x.prefix(n).data, y.prefix(n).data
    za = np.zeros(n, dtype=xa.dtype)
    b, half = x.alphabet.size, n // 2

    def ratio(primary, reference):
        ids = primary[:half].astype(np.int64) * b + reference[:half]
        counts = np.bincount(ids, minlength=b * b).reshape(b, b).astype(float)
        nu = (counts + 1.0) / (counts.sum(axis=0, keepdims=True) + b)
        model = ConditionalModel(x.alphabet, k, nu)
        return int(model.symbol_code_lengths(primary[half:], reference[half:]).sum()) / (n - half)

    return IndependenceReport(n, k, ratio(xa, za), ratio(ya, za), ratio(xa, ya), ratio(ya, xa))
