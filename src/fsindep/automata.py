"""Multi-tape finite automata and the deterministic run machinery.

An automaton has k tapes (k in {1, 2, 3}) over one alphabet.  Each
transition carries a k-tuple of finite words (labels); the empty word is
written ``-`` in text form.  The first ``ell`` tapes act as inputs, the
remaining tapes as outputs, and a machine is ``ell``-deterministic when

  * it has a single initial state,
  * every transition reads at most one symbol per input tape,
  * all transitions leaving a state read the same subset of input tapes
    (its read pattern; the empty pattern makes a silent state), and
  * no two distinct transitions leaving a state agree on all input
    labels.

Text format::

    # optional comments
    automaton k=3 alphabet=2 initial=q0
    q0 0,-,0 q1
    q1 -,0,0 q0

Deterministic machines may still contain silent steps (all input labels
empty); :func:`eliminate_eps_input_transitions` rewrites them away by
composing their output into the following transition, dropping states
trapped on silent cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .words import Alphabet, FiniteWord, _dtype_for
from .sources import WordSource

Label = tuple  # k-tuple of symbol tuples; () is the empty word


@dataclass(frozen=True)
class Transition:
    source: str
    label: Label
    target: str

    def label_text(self, alphabet: Alphabet) -> str:
        return ",".join(
            "-" if not comp else "".join(alphabet.char(a) for a in comp)
            for comp in self.label
        )


def _normalize_label(label, k: int, alphabet: Alphabet) -> Label:
    """Accept tuples of symbol tuples or of text tokens; return canonical form."""
    if len(label) != k:
        raise ValueError(f"label must have {k} components, got {len(label)}")
    comps = []
    for comp in label:
        if isinstance(comp, str):
            comp = () if comp == "-" else tuple(alphabet.symbol(c) for c in comp)
        else:
            comp = tuple(alphabet.check_symbol(a) for a in comp)
        comps.append(comp)
    return tuple(comps)


class KAutomaton:
    """Immutable k-tape automaton over a shared alphabet."""

    def __init__(self, k, alphabet, states, initial, transitions):
        k = int(k)
        if k not in (1, 2, 3):
            raise ValueError(f"tape count must be 1, 2 or 3, got {k}")
        self.k = k
        self.alphabet = alphabet
        names = [str(s) for s in states]
        if len(set(names)) != len(names):
            raise ValueError("duplicate state names")
        if not names:
            raise ValueError("automaton needs at least one state")
        self.states = tuple(names)
        self._id = {s: i for i, s in enumerate(names)}
        if isinstance(initial, str):
            initial = [initial]
        init = []
        for s in initial:
            if s not in self._id:
                raise ValueError(f"unknown initial state {s!r}")
            if s not in init:
                init.append(s)
        if not init:
            raise ValueError("automaton needs at least one initial state")
        self.initial = tuple(init)
        seen = set()
        trans = []
        for item in transitions:
            if isinstance(item, Transition):
                src, label, dst = item.source, item.label, item.target
            else:
                src, label, dst = item
            if src not in self._id or dst not in self._id:
                raise ValueError(f"transition references unknown state: {src} -> {dst}")
            label = _normalize_label(label, k, alphabet)
            t = Transition(src, label, dst)
            if t not in seen:  # exact duplicates carry no information
                seen.add(t)
                trans.append(t)
        self.transitions = tuple(trans)
        self._out = {s: [] for s in self.states}
        for t in self.transitions:
            self._out[t.source].append(t)
        # per input-tape count: DeterminismReport, CompiledAutomaton
        self._reports = {}
        self._compiled = {}

    def out(self, state: str) -> Sequence[Transition]:
        return self._out[state]

    def __eq__(self, other):
        return (
            isinstance(other, KAutomaton)
            and other.k == self.k
            and other.alphabet == self.alphabet
            and other.states == self.states
            and other.initial == self.initial
            and other.transitions == self.transitions
        )

    def __repr__(self):
        return (
            f"<KAutomaton k={self.k} b={self.alphabet.size} "
            f"states={len(self.states)} transitions={len(self.transitions)}>"
        )

    def to_text(self) -> str:
        lines = [
            f"automaton k={self.k} alphabet={self.alphabet.size} "
            f"initial={','.join(self.initial)}"
        ]
        for t in self.transitions:
            lines.append(f"{t.source} {t.label_text(self.alphabet)} {t.target}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())


def parse_automaton(text: str) -> KAutomaton:
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if parts[0] != "automaton" or any("=" not in p for p in parts[1:]):
                raise ValueError(f"line {lineno}: bad automaton header: {raw!r}")
            fields = dict(p.split("=", 1) for p in parts[1:])
            if set(fields) != {"k", "alphabet", "initial"}:
                raise ValueError(f"line {lineno}: bad automaton header: {raw!r}")
            header = (int(fields["k"]), int(fields["alphabet"]), fields["initial"])
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'from label to': {raw!r}")
        rows.append((parts[0], tuple(parts[1].split(",")), parts[2]))
    if header is None:
        raise ValueError("missing automaton header line")
    k, b, initial = header
    alphabet = Alphabet(b)
    states = []
    for src, _, dst in rows:
        for s in (src, dst):
            if s not in states:
                states.append(s)
    for s in initial.split(","):
        if s not in states:
            states.append(s)
    return KAutomaton(k, alphabet, states, initial.split(","), rows)


def load_automaton(path) -> KAutomaton:
    with open(path, "r", encoding="ascii") as fh:
        return parse_automaton(fh.read())


# ---------------------------------------------------------------------------
# determinism


@dataclass(frozen=True)
class Violation:
    kind: str  # 'initial-not-singleton' | 'long-input-label' | 'read-pattern' | 'same-input'
    state: Optional[str]
    pair: Optional[tuple]  # offending transition(s)


@dataclass(frozen=True)
class DeterminismReport:
    ell: int
    deterministic: bool
    violations: tuple

    def __bool__(self):
        return self.deterministic


def _read_pattern(t: Transition, ell: int) -> tuple:
    return tuple(j for j in range(ell) if t.label[j])


class NotDeterministicError(ValueError):
    """An operation needed a deterministic machine and got something else."""


def check_l_deterministic(M: KAutomaton, ell: int) -> DeterminismReport:
    """Check the per-state determinism conditions on the first ell tapes."""
    ell = int(ell)
    if not 1 <= ell <= M.k:
        raise ValueError(f"input tape count must be in 1..{M.k}, got {ell}")
    violations = []
    if len(M.initial) != 1:
        violations.append(Violation("initial-not-singleton", None, tuple(M.initial)))
    for t in M.transitions:
        if any(len(t.label[j]) > 1 for j in range(ell)):
            violations.append(Violation("long-input-label", t.source, (t,)))
    for s in M.states:
        outs = M.out(s)
        if not outs:
            continue
        ref = outs[0]
        ref_pat = _read_pattern(ref, ell)
        for t in outs[1:]:
            if _read_pattern(t, ell) != ref_pat:
                violations.append(Violation("read-pattern", s, (ref, t)))
        by_input = {}
        for t in outs:
            key = tuple(t.label[:ell])
            first = by_input.setdefault(key, t)
            if first is not t:
                violations.append(Violation("same-input", s, (first, t)))
    return DeterminismReport(ell, not violations, tuple(violations))


def _require_deterministic(M: KAutomaton, ell: int) -> None:
    """Raise NotDeterministicError unless M is ell-deterministic.

    The report is computed once per (machine, ell) and kept on M.
    """
    report = M._reports.get(ell)
    if report is None:
        report = M._reports[ell] = check_l_deterministic(M, ell)
    if not report.deterministic:
        kinds = sorted({v.kind for v in report.violations})
        raise NotDeterministicError(
            f"automaton is not deterministic on {ell} input tapes; violations: {kinds}"
        )


# ---------------------------------------------------------------------------
# silent-transition elimination


def eliminate_eps_input_transitions(M: KAutomaton, ell: int) -> KAutomaton:
    """Remove transitions whose first ell labels are all empty.

    Needs an ell-deterministic machine, so a silent state has exactly one
    outgoing transition.  Each silent chain is composed into the next
    reading transition (outputs concatenated in order); states on silent
    cycles can never take part in a completed run and are dropped, except
    that the initial state is always kept.  Returns M itself when there
    is nothing to do.
    """
    _require_deterministic(M, ell)

    def is_silent(s: str) -> bool:
        outs = M.out(s)
        return bool(outs) and not _read_pattern(outs[0], ell)

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


# ---------------------------------------------------------------------------
# compiled form and the run engine

_WINDOW = 8192  # input symbols the engine takes from a source at a time
_CHUNK = 16  # lock-step chunk length, i.e. gathers per window and pass
_LOCKSTEP_MIN = 256  # smaller budgets run the scalar loop (measured crossover)
_LOCKSTEP_MAX_STATES = 128  # lock-step work grows with |Q|; past ~160 states it loses


class _Run:
    """Where a run stands; both engines advance it in place."""

    __slots__ = (
        "q", "consumed", "steps", "chunks", "out_total",
        "checkpoints", "next_cp", "path", "reason",
    )

    def __init__(self, q: int, ell: int, record_path: bool):
        self.q = q
        self.consumed = [0] * ell
        self.steps = 0
        self.chunks = []  # tagged output arrays, in order
        self.out_total = 0
        self.checkpoints = []
        self.next_cp = 1
        self.path = [q] if record_path else None
        self.reason = None  # halt reason, None while running or after a clean stop


@dataclass(frozen=True, eq=False)
class CompiledAutomaton:
    """Dense tables of an ell-deterministic machine; see :func:`compile`.

    States are numbered in ``M.states`` order, and number ``sink = |Q|``
    is a dead sink that every missing transition leads to.  ``read[q]``
    is -1 for a state without transitions, else a bit mask of the input
    tapes it reads (bit 1: tape 1, bit 2: tape 2; 0: silent).  A state
    reading one tape looks up ``delta[q, a]``, one reading both
    ``delta[q, a1 * b + a2]``, a silent one ``delta[q, 0]``.  Output
    symbols are tagged ``tape * b + symbol`` (output tapes counted from
    0) and lie back to back in ``pool``; transition (q, key) writes
    ``pool[out_off[q, key] : out_off[q, key] + out_len[q, key]]``.
    ``delta_list`` and ``emit_list`` hold the same tables flat (index
    ``q * b**ell + key``) as Python lists for the scalar loop.
    """

    states: tuple
    initial: int
    ell: int
    b: int
    n_out: int
    read: list
    delta: np.ndarray
    out_len: np.ndarray
    out_off: np.ndarray
    pool: np.ndarray
    delta_list: list
    emit_list: list
    has_silent: bool

    def advance(self, r: _Run, inputs: Sequence[WordSource], n: int, max_steps: int) -> None:
        """Step r until n tape-1 symbols are consumed or the run halts.

        Long ell=1 runs of machines without silent states and with at most
        ``_LOCKSTEP_MAX_STATES`` states, without path recording, go through
        the lock-step engine first; the scalar loop always finishes, so
        every halt and the trailing flush happen there.
        """
        if (
            self.ell == 1
            and not self.has_silent
            and len(self.states) <= _LOCKSTEP_MAX_STATES
            and r.path is None
            and n - r.consumed[0] >= _LOCKSTEP_MIN
        ):
            self._lockstep(r, inputs[0], min(n - r.consumed[0], max_steps - r.steps))
        self._scalar(r, inputs, n, max_steps)

    def outputs(self, r: _Run, alphabet: Alphabet) -> tuple:
        """The run's output words, one per output tape."""
        tagged = np.concatenate(r.chunks) if r.chunks else self.pool[:0]
        if self.n_out == 1:
            return (FiniteWord(alphabet, tagged),)
        tape, sym = np.divmod(tagged, self.b)
        return tuple(FiniteWord(alphabet, sym[tape == j]) for j in range(self.n_out))

    def _scalar(self, r, inputs, n, max_steps):
        read, delta, emit = self.read, self.delta_list, self.emit_list
        b, sink = self.b, len(self.states)
        width = b**self.ell
        src0 = inputs[0]
        src1 = inputs[1] if self.ell == 2 else None
        q, steps, path = r.q, r.steps, r.path
        c0 = r.consumed[0]
        c1 = r.consumed[1] if src1 is not None else 0
        out, out_total = [], r.out_total
        checkpoints, next_cp = r.checkpoints, r.next_cp
        buf0, i0, buf1, i1, size1 = [], 0, [], 0, 64
        silent = 0
        reason = None
        while True:
            pat = read[q]
            if pat < 0:
                if c0 < n:
                    reason = "no-transition"
                break  # else the budget is met and the machine has nowhere to go
            if pat & 1 and c0 >= n:
                break  # budget reached cleanly
            if steps >= max_steps:
                reason = "step-budget"
                break
            if pat:
                key = 0
                if pat & 1:
                    if i0 == len(buf0):
                        buf0, i0 = src0.take_available(min(_WINDOW, n - c0)).tolist(), 0
                        if not buf0:
                            reason = "input-exhausted"
                            break
                    key = buf0[i0]
                if pat & 2:
                    if i1 == len(buf1):
                        buf1, i1 = src1.take_available(size1).tolist(), 0
                        size1 = min(2 * size1, _WINDOW)
                        if not buf1:
                            reason = "input-exhausted"
                            break
                    key = key * b + buf1[i1]
                j = q * width + key
                p = delta[j]
                if p == sink:
                    reason = "no-transition"
                    break
                if pat & 1:
                    i0 += 1
                    c0 += 1
                if pat & 2:
                    i1 += 1
                    c1 += 1
                silent = 0
            else:
                silent += 1
                if silent > sink:
                    reason = "silent-cycle"
                    break
                j = q * width
                p = delta[j]
            e = emit[j]
            if e:
                out.extend(e)
                out_total += len(e)
            q = p
            if path is not None:
                path.append(q)
            steps += 1
            if pat & 1 and c0 == next_cp:
                checkpoints.append((c0, out_total))
                next_cp *= 2
        # what was taken but not consumed goes back to the sources
        if i0 < len(buf0):
            src0._unread(buf0[i0:])
        if i1 < len(buf1):
            src1._unread(buf1[i1:])
        r.q, r.steps, r.out_total, r.next_cp, r.reason = q, steps, out_total, next_cp, reason
        r.consumed[0] = c0
        if src1 is not None:
            r.consumed[1] = c1
        if out:
            r.chunks.append(np.array(out, dtype=self.pool.dtype))

    def _lockstep(self, r, src, count):
        """Consume up to count symbols of src in lock-step windows.

        Each window is cut into chunks; every chunk runs from all states
        at once (one gather per position), the chunk start states are
        stitched in order, and a second pass gathers the states the run
        really visits.  The window stops before the first missing
        transition, whose symbols go back to src for the scalar loop.
        """
        b, sink = self.b, len(self.states)
        nb = self.delta.ravel() * b  # next state, premultiplied by b
        out_len, out_off = self.out_len.ravel(), self.out_off.ravel()
        every = np.arange(sink + 1) * b
        done = 0
        while done < count:
            raw = src.take_available(min(_WINDOW, count - done))
            m = raw.size
            if m == 0:
                break
            a = raw.astype(np.intp)
            c = -(-m // _CHUNK)
            A = np.zeros(c * _CHUNK, dtype=np.intp)
            A[:m] = a
            A = A.reshape(c, _CHUNK)
            starts = [r.q * b]
            if c > 1:
                S = np.broadcast_to(every, (c - 1, sink + 1))
                for t in range(_CHUNK):
                    S = nb[S + A[:-1, t, None]]
                for row in S.tolist():
                    starts.append(row[starts[-1] // b])
            cur = np.array(starts, dtype=np.intp)
            before = np.empty((_CHUNK, c), dtype=np.intp)
            for t in range(_CHUNK):
                before[t] = cur
                cur = nb[cur + A[:, t]]
            idx = before.T.reshape(-1)[:m] + a  # flat (state, symbol) index per step
            if nb[idx[-1]] == sink * b:  # the sink absorbs, so the run died in here
                idx = idx[: int(np.argmax(nb[idx] == sink * b))]
                src._unread(raw[idx.size :])
            k = idx.size
            if k:
                lens = out_len[idx]
                cum = np.cumsum(lens)
                total = int(cum[-1])
                at = np.repeat(out_off[idx] - cum + lens, lens) + np.arange(total)
                r.chunks.append(self.pool[at])
                c0 = r.consumed[0]
                while r.next_cp <= c0 + k:
                    r.checkpoints.append((r.next_cp, r.out_total + int(cum[r.next_cp - c0 - 1])))
                    r.next_cp *= 2
                r.q = int(nb[idx[-1]]) // b
                r.consumed[0] += k
                r.steps += k
                r.out_total += total
                done += k
            if k < m:
                break

    def _every_word(self, max_len: int):
        """Run the ell=1 machine on every input word of length 1..max_len.

        Yields, for each length L, four arrays over the b**L words in
        ``itertools.product`` order: final state, output tags (one column
        per word, zero past its length), output length, and whether
        :func:`run` with budget L and its default step budget ends
        without a halt.  Word i of length L is word i // b of length
        L - 1 followed by symbol i % b, so each length is one gather from
        the one before.  The silent steps that :func:`run` fires after a
        read (or at the start, or as the trailing flush) are resolved once
        per state; a chain that ends on a silent cycle leads to the sink,
        which halts the word and all its extensions, as a missing
        transition does.  The step budget grows with L, so it halts a
        word but not its extensions.
        """
        b, sink = self.b, len(self.states)
        delta, emit = self.delta_list, self.emit_list
        # silent closure of each state: end state (sink on a cycle), steps, tags
        end, steps, tags = list(range(sink + 1)), [0] * (sink + 1), [()] * (sink + 1)
        done = [r != 0 for r in self.read]
        for q in range(sink):
            chain, p = {}, q
            while not done[p] and p not in chain:
                chain[p] = None
                p = delta[p * b]
            e, n, t = (end[p], steps[p], tags[p]) if done[p] else (sink, 0, ())
            for s in reversed(chain):
                if e != sink:
                    n, t = n + 1, emit[s * b] + t
                end[s], steps[s], tags[s], done[s] = e, n, t, True
        # one read from state j // b on symbol j % b, then its silent closure
        nxt = np.array([end[d] for d in delta], dtype=np.intp)
        cost = np.array([1 + steps[d] for d in delta], dtype=np.intp)
        tail = [emit[j] + tags[d] for j, d in enumerate(delta)]
        tail_len = np.array([len(t) for t in tail], dtype=np.intp)
        tail_tags = np.zeros((int(tail_len.max()), len(tail)), dtype=self.pool.dtype)
        for j, t in enumerate(tail):
            tail_tags[: len(t), j] = t
        q0 = self.initial
        q = np.array([end[q0]], dtype=np.intp)
        n_steps = np.array([steps[q0]], dtype=np.intp)
        out_len = np.array([len(tags[q0])], dtype=np.intp)
        out = np.array(tags[q0], dtype=self.pool.dtype).reshape(-1, 1)
        for L in range(1, max_len + 1):
            j = (q[:, None] * b + np.arange(b)).ravel()
            start = np.repeat(out_len, b)
            add = tail_len[j]
            out_len = start + add
            grown = np.zeros((int(out_len.max()), j.size), dtype=out.dtype)
            grown[: out.shape[0]].reshape(*out.shape, b)[...] = out[:, :, None]
            for c in range(tail_tags.shape[0]):
                cols = np.flatnonzero(add > c)
                grown[start[cols] + c, cols] = tail_tags[c, j[cols]]
            out = grown
            q = nxt[j]
            n_steps = np.repeat(n_steps, b) + cost[j]
            yield q, out, out_len, (q != sink) & (n_steps <= _step_budget(L, sink))


def compile(M: KAutomaton, ell: int) -> CompiledAutomaton:
    """Dense tables of the ell-deterministic machine M, built once and cached on M.

    Raises NotDeterministicError when M is not ell-deterministic.
    """
    ell = int(ell)
    C = M._compiled.get(ell)
    if C is not None:
        return C
    _require_deterministic(M, ell)
    b, n_states = M.alphabet.size, len(M.states)
    width, n_out = b**ell, M.k - ell
    read = [-1] * (n_states + 1)
    delta = np.full((n_states + 1, width), n_states, dtype=np.intp)
    out_len = np.zeros((n_states + 1, width), dtype=np.intp)
    out_off = np.zeros((n_states + 1, width), dtype=np.intp)
    emit = [()] * ((n_states + 1) * width)
    pool = []
    for q, s in enumerate(M.states):
        outs = M.out(s)
        if not outs:
            continue
        pat = _read_pattern(outs[0], ell)
        read[q] = sum(1 << j for j in pat)
        for t in outs:
            key = 0
            for j in pat:
                key = key * b + t.label[j][0]
            tags = tuple(j * b + a for j in range(n_out) for a in t.label[ell + j])
            delta[q, key] = M._id[t.target]
            out_len[q, key] = len(tags)
            out_off[q, key] = len(pool)
            pool.extend(tags)
            emit[q * width + key] = tags
    C = CompiledAutomaton(
        states=M.states,
        initial=M._id[M.initial[0]],
        ell=ell,
        b=b,
        n_out=n_out,
        read=read,
        delta=delta,
        out_len=out_len,
        out_off=out_off,
        pool=np.array(pool, dtype=_dtype_for(max(n_out, 1) * b)),
        delta_list=delta.ravel().tolist(),
        emit_list=emit,
        has_silent=0 in read,
    )
    M._compiled[ell] = C
    return C


def _step_budget(n: int, n_states: int) -> int:
    """The step budget of a run with tape-1 budget n, unless one is given."""
    return 64 * n + 4 * n_states + 64


@dataclass
class RunTrace:
    """Outcome of a budgeted deterministic run.

    checkpoints holds (symbols consumed on tape 1, total output symbols)
    snapshots at each power of two plus a final snapshot.  halted is True
    when the run stopped for any reason other than reaching the budget.
    """

    final_state: str
    consumed: tuple  # per input tape
    outputs: tuple  # one FiniteWord per output tape
    checkpoints: list
    halted: bool
    halt_reason: Optional[str]
    steps: int
    path: Optional[list] = None  # state names visited, when recorded

    @property
    def output(self) -> FiniteWord:
        if len(self.outputs) != 1:
            raise ValueError(f"run has {len(self.outputs)} output tapes, not 1")
        return self.outputs[0]


def run(
    M: KAutomaton,
    ell: int,
    inputs: Sequence[WordSource],
    n: int,
    max_steps: Optional[int] = None,
    record_path: bool = True,
) -> RunTrace:
    """Run M on the given input sources until n symbols of tape 1 are consumed.

    The sources are consumed in place; pass clones to keep the originals.
    After the budget is reached, transitions that do not read tape 1 keep
    firing (so trailing output is flushed) and the run stops just before
    consuming symbol n + 1.  Stopping early sets ``halted`` with a reason:
    'no-transition', 'input-exhausted', 'silent-cycle' or 'step-budget'.
    Each input source is left just after its last consumed symbol.

    Engine: the machine is compiled once (:func:`compile`).  A run with
    one input tape, no silent states, at most ``_LOCKSTEP_MAX_STATES``
    states, ``record_path`` off and a budget of at least
    ``_LOCKSTEP_MIN`` symbols goes through the lock-step engine,
    which runs windows of input from every state at once; every other run,
    and the end of every run (halts and the trailing flush), goes through
    one scalar loop over the compiled tables.  Both give the same trace.
    """
    C = compile(M, ell)
    if len(inputs) != C.ell:
        raise ValueError(f"expected {ell} input sources, got {len(inputs)}")
    for src in inputs:
        if src.alphabet != M.alphabet:
            raise ValueError("input source alphabet does not match the automaton")
    n = int(n)
    if n < 0:
        raise ValueError("budget must be nonnegative")
    if max_steps is None:
        max_steps = _step_budget(n, len(M.states))
    r = _Run(C.initial, C.ell, record_path)
    C.advance(r, inputs, n, max_steps)
    if not r.checkpoints or r.checkpoints[-1] != (r.consumed[0], r.out_total):
        r.checkpoints.append((r.consumed[0], r.out_total))
    return RunTrace(
        final_state=M.states[r.q],
        consumed=tuple(r.consumed),
        outputs=C.outputs(r, M.alphabet),
        checkpoints=r.checkpoints,
        halted=r.reason is not None,
        halt_reason=r.reason,
        steps=r.steps,
        path=None if r.path is None else [M.states[q] for q in r.path],
    )


def accepts_prefix_tuple(M: KAutomaton, prefixes: Sequence[FiniteWord]) -> bool:
    """Is there a run from an initial state consuming exactly these k tapes?

    Nondeterminism is fine; this is a reachability search over (state,
    per-tape position) nodes.
    """
    if len(prefixes) != M.k:
        raise ValueError(f"expected {M.k} tape words, got {len(prefixes)}")
    goal = tuple(len(w) for w in prefixes)
    start = [(s, (0,) * M.k) for s in M.initial]
    seen = set(start)
    stack = list(start)
    while stack:
        state, pos = stack.pop()
        if pos == goal:
            return True
        for t in M.out(state):
            new = []
            ok = True
            for j in range(M.k):
                comp = t.label[j]
                p = pos[j]
                end = p + len(comp)
                if end > goal[j] or tuple(prefixes[j].data[p:end]) != comp:
                    ok = False
                    break
                new.append(end)
            if ok:
                node = (t.target, tuple(new))
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
    return False


# ---------------------------------------------------------------------------
# forward analysis (2-tape machines; tape 2 is the oracle side)


def forward_pairs(M: KAutomaton, v: FiniteWord):
    """All (state, symbol) pairs that can move forward across oracle word v.

    A pair (p, a) qualifies when some finite run from p consumes exactly
    v on tape 2 and a nonempty tape-1 word whose first symbol is a.  On
    3-tape machines the third (output) tape is unconstrained.
    Returns the sorted list of (state name, symbol).
    """
    if M.k not in (2, 3):
        raise ValueError("forward analysis needs tape 1 plus an oracle tape 2")
    if len(v) == 0:
        raise ValueError("oracle word must be nonempty")
    if v.alphabet != M.alphabet:
        raise ValueError("oracle word alphabet does not match the automaton")
    vt = tuple(int(a) for a in v.data)
    found = []
    for p in M.states:
        for a in range(M.alphabet.size):
            if _forward_reachable(M, p, a, vt):
                found.append((p, a))
    return found


def _forward_reachable(M, p, a, vt) -> bool:
    nv = len(vt)
    start = (p, 0, False)
    seen = {start}
    stack = [start]
    while stack:
        state, vpos, started = stack.pop()
        if vpos == nv and started:
            return True
        for t in M.out(state):
            w1, w2 = t.label[0], t.label[1]
            end = vpos + len(w2)
            if end > nv or tuple(vt[vpos:end]) != w2:
                continue
            new_started = started
            if w1:
                if not started and w1[0] != a:
                    continue
                new_started = True
            node = (t.target, end, new_started)
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return False


@dataclass(frozen=True)
class ForwardSearchResult:
    word: FiniteWord
    pairs: tuple
    count: int
    horizon: int  # longest candidate length examined
    complete: bool  # True when every (state, symbol) pair moves forward


def find_forward_word(M: KAutomaton, max_len: int) -> ForwardSearchResult:
    """Search words up to max_len for one maximizing the forward-pair count.

    Candidates are tried in length-then-lexicographic order and the first
    word attaining the running maximum is kept, so the result is
    deterministic.  Stops early once all |Q| * b pairs move forward.
    """
    if max_len < 1:
        raise ValueError("search horizon must be at least 1")
    b = M.alphabet.size
    full = len(M.states) * b
    best_word = None
    best_pairs = None
    for L in range(1, max_len + 1):
        for tup in itertools.product(range(b), repeat=L):
            v = FiniteWord(M.alphabet, np.array(tup, dtype=np.int64))
            pairs = forward_pairs(M, v)
            if best_pairs is None or len(pairs) > len(best_pairs):
                best_word, best_pairs = v, pairs
                if len(pairs) == full:
                    return ForwardSearchResult(
                        best_word, tuple(best_pairs), len(best_pairs), L, True
                    )
    return ForwardSearchResult(
        best_word, tuple(best_pairs), len(best_pairs), max_len, len(best_pairs) == full
    )


# ---------------------------------------------------------------------------
# stock machines


def copy_automaton(alphabet: Alphabet) -> KAutomaton:
    """One-state transducer writing its input back out (ratio 1 on anything)."""
    trans = [("s", ((a,), (a,)), "s") for a in range(alphabet.size)]
    return KAutomaton(2, alphabet, ["s"], "s", trans)


def odd_projection_transducer(alphabet: Alphabet) -> KAutomaton:
    """Two-state transducer mapping x to odd(x) (keep, drop, keep, ...)."""
    trans = []
    for a in range(alphabet.size):
        trans.append(("keep", ((a,), (a,)), "drop"))
        trans.append(("drop", ((a,), ()), "keep"))
    return KAutomaton(2, alphabet, ["keep", "drop"], "keep", trans)


def even_projection_transducer(alphabet: Alphabet) -> KAutomaton:
    """Two-state transducer mapping x to even(x) (drop, keep, drop, ...)."""
    trans = []
    for a in range(alphabet.size):
        trans.append(("drop", ((a,), ()), "keep"))
        trans.append(("keep", ((a,), (a,)), "drop"))
    return KAutomaton(2, alphabet, ["drop", "keep"], "drop", trans)
