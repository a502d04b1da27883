"""The compiled form of a deterministic machine and the engines that run it.

:func:`build` turns an ell-deterministic machine into a
:class:`CompiledAutomaton`: flat Python tables for one scalar loop, which
ends every run, so every halt and the trailing flush happen there.
:func:`fsindep.automata.compile` checks and shares the compiled form
among equal machines, and :func:`fsindep.automata.run` drives the engines.

A run with at least ``_LOCKSTEP_MIN`` tape-1 symbols to go goes through
the lock-step engine first (Mytkowicz, Musuvathi & Schulte 2014) when the
machine has a macro-step table (:class:`_MacroTable`), which the first
such run of equal machines builds, and it has the run's state with no symbol
pending.  A macro state is a machine state plus the symbols fed but not
read yet, and one rule, :func:`_macro_step`, steps it: the key table and
the losslessness check's word tables (``_every_word``) both come from it.
A one-tape machine with at most ``_LOCKSTEP_MAX_STATES`` states has a
table of its states, and so has a two-tape machine whose tapes keep a
bounded lag (a synchronized relation, Frougny & Sakarovitch 1993), so
that the macro states its initial state reaches number at most
``_LOCKSTEP_MAX_STATES``.  Either way the table, macro states times b or
b**2 keys, must stay within ``_LOCKSTEP_MAX_ENTRIES``; that rules out
two-tape lock-step for alphabets past 181 symbols.  When the engine stops,
the pending symbols of the macro state it stops in go back to their
sources.  A window gathers output rows and, when it records the path, rows
of visited states, each padded to the longest, so ``_WINDOW`` rows must
stay within ``_WINDOW_TAG_BYTES``: 64 one-byte tags or states a macro
step.  Every lock-step run feeds the table's gram view (:class:`_Steps`),
built on first use whatever the run's length: the same macro states, with
every entry G consecutive keys, so that one gather moves the run G
symbols on (multi-stride automata; Brodie, Taylor & Cytron 2006), with G
as large as ``_GRAM_MAX_ENTRIES`` and ``_GRAM_MAX_BYTES`` allow.  A gram
keeps the key-table entries it passes through.  A window's work past the
gathers that move it is one gather of padded output rows, for each
power-of-two checkpoint one search and a walk of at most G of its gram's
entries, and, when it records the path, one gather of its grams' entries
and one of their rows of visited states, so it grows no faster than the
gathers; hence windows of ``_WINDOW`` symbols.  Both engines give the same
trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .automata import _read_pattern, _Run, _step_budget
from .blocks import digits
from .words import Alphabet, FiniteWord, _dtype_for
from .sources import WordSource

# Input symbols the engine takes from a source at a time.  Larger windows
# spread numpy's per-call cost over more symbols.  In the benchmark (seed
# 5, 3 runs each), transduce ran 17.4-18.1 Msym/s at 8192, 20.6-21.0 at
# 16384 and 22.6-22.8 at 32768, but scalar-runs, whose runs are 2**15
# symbols, 18.3-19.6, 20.4-20.7 and 17.2-17.4.
_WINDOW = 16384
# lock-step chunk length (gathers per window and pass), and the longest
# gram; at _WINDOW, 12 and 24 won on neither engine workload
_CHUNK = 16
# Smaller budgets run the scalar loop.  With the macro table and gram view
# built, lock-step won from 512 symbols on copy.aut and the odd projection and
# from 256 on join.aut (medians of 40 runs); with their build (0.2-0.4 ms),
# which only the first run of a machine or an equal one pays, from 512-2k.
_LOCKSTEP_MIN = 256
_LOCKSTEP_MAX_STATES = 128  # lock-step work grows with |Q|; past ~160 states it loses
# (macro state, key) pairs in one macro-step table.  An entry costs about
# 7 us and 260 B to build (0.25 s and 9 MiB at the cap) and keeps at most
# 226 B (7.1 MiB): four intp counts, its index and three rows of at most 64 B
# (tags, visited states, and one-byte output counts at its tape-1 reads)
_LOCKSTEP_MAX_ENTRIES = 1 << 15
# bytes of one window's output rows, each padded to the longest: _WINDOW
# key-table rows, or _WINDOW / G gram rows each at most G times as long, so
# a key-table row holds at most 64 B; so does one of visited states, which
# a window that records the path gathers.  1 MiB is what the CLI's memory
# estimate grants engine windows (cli._BASE_BYTES); the mask of a window
# that needs one has as many elements.  A longer output, even on one rare
# transition, would pad every row of every window, so such a machine runs
# the scalar loop (as does one visiting more states a step): on 2**16
# binary symbols, a machine writing 65 tags a symbol took 125-217 ms there
# against 23-25 ms on lock-step that gathered only the tags written, and
# one writing 65 tags on its first symbol and 1 after 23-39 against 2.3-2.6.
_WINDOW_TAG_BYTES = 1 << 20
# (macro state, gram) pairs and bytes in one gram view.  Longer grams save
# less per window than they cost to build: transduce (four builds a cycle before
# equal machines shared views) ran alike from 2**8 to 2**10 entries and about
# 12 % slower at 2**12, where small commands also passed their memory estimate.
_GRAM_MAX_ENTRIES = 1 << 10
_GRAM_MAX_BYTES = 1 << 16


@dataclass(frozen=True, eq=False)
class _Steps:
    """A lock-step table: every entry feeds ``span`` (G) consecutive keys.

    The entry's id is its keys, base-``X.keys`` digits with the first key
    first, times ``place`` (``X.keys ** (G - 1)`` .. 1), so a row has
    ``keys`` = ``X.keys ** G`` entries, X being the key table (G = 1).  At
    flat index ``m * keys + id``, ``nb`` holds the macro state after the G
    macro steps times ``keys``, ``out_len`` counts their output tags and
    row ``tags`` holds them, padded with zeros to the longest, ``cost`` is
    their machine steps, ``reads1`` their tape-1 reads and row ``entries``
    the flat index in X of each of the G macro steps, in the narrow dtype
    for X's size (in X itself, one column: the entry's own index).
    """

    span: int
    keys: int
    place: np.ndarray
    nb: np.ndarray
    out_len: np.ndarray
    tags: np.ndarray
    cost: np.ndarray
    reads1: np.ndarray
    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class _MacroTable(_Steps):
    """Macro steps of a compiled machine: the key table the lock-step engine runs.

    A key is one tape-1 symbol (ell=1) or one zipped pair ``a1 * b + a2``
    (ell=2).  A macro state is a machine state plus the symbols fed to it
    but not read yet, all of one tape; ``states[m]`` records macro state m
    as (machine state, pending tape-1 symbols, pending tape-2 symbols), and
    ``ids`` maps a record to its row.  A run at machine state q enters
    macro state (q, (), ()) when the table has it.  A macro step feeds one
    key (:func:`_macro_step`).  Row ``rows - 1`` is an absorbing sink, where
    the steps go that the rule rejects.  Besides the fields of
    :class:`_Steps` (G = 1), rows padded like ``tags`` hold the states a
    step reaches (``visited``, in the narrow dtype for |Q| + 1 states) and
    its output count right after each tape-1 read (``read_out``, in that of
    the longest output).  ``unit``: every step is one machine step that
    reads one tape-1 symbol.  :attr:`grams` is the gram view.
    """

    rows: int
    visited: np.ndarray
    read_out: np.ndarray
    states: list
    ids: dict
    unit: bool

    @cached_property
    def grams(self) -> _Steps:
        """The gram view of this table, built on first use (:func:`_gram_view`)."""
        return _gram_view(self)


def _macro_step(C: CompiledAutomaton):
    """The macro-step rule of C, as a function ``step(q, p1, p2)``.

    It runs C from machine state q on the pending tape-1 symbols p1 and
    tape-2 symbols p2, silent steps included (q's own silent chain first),
    until it needs a symbol not fed yet.  It returns (the machine state
    reached, p1 and p2 left pending), the states visited, the output tags
    written and the output count right after each tape-1 read; or None
    when it meets a missing transition or a silent cycle, or stops at a
    state without transitions with symbols still pending.  Each state's
    silent chain is resolved once: ``end[q]`` is its first state that is
    not silent (q unless q is silent; the sink on a cycle), ``visited[q]``
    the states it steps to and ``tags[q]`` the tags it writes.
    """
    read, delta, emit, b = C.read, C.delta_list, C.emit_list, C.b
    sink, width = len(read) - 1, b**C.ell
    end, visited, tags = list(range(sink + 1)), [()] * (sink + 1), [()] * (sink + 1)
    done = [r != 0 for r in read]
    for q in range(sink):
        chain, p = {}, q
        while not done[p] and p not in chain:
            chain[p] = None
            p = delta[p * width]
        e, v, t = (end[p], visited[p], tags[p]) if done[p] else (sink, (), ())
        for s in reversed(chain):
            if e != sink:
                v, t = (delta[s * width],) + v, emit[s * width] + t
            end[s], visited[s], tags[s], done[s] = e, v, t, True

    def step(q, p1, p2):
        path, out, cps = list(visited[q]), list(tags[q]), []
        q = end[q]
        while q != sink:
            pat = read[q]
            if pat < 0 or (pat & 1 and not p1) or (pat & 2 and not p2):
                if pat < 0 and (p1 or p2):
                    return None
                return (q, p1, p2), path, out, cps
            key = 0
            if pat & 1:
                key, p1 = p1[0], p1[1:]
            if pat & 2:
                key, p2 = key * b + p2[0], p2[1:]
            j = q * width + key
            q = delta[j]
            if q == sink:
                return None
            out += emit[j]
            path.append(q)
            if pat & 1:
                cps.append(len(out))
            out += tags[q]
            path += visited[q]
            q = end[q]
        return None  # a silent cycle

    return step


def _macro_table(C: CompiledAutomaton) -> Optional[_MacroTable]:
    """The macro-step table of C, or None when it has more than
    ``_LOCKSTEP_MAX_STATES`` macro states, more than
    ``_LOCKSTEP_MAX_ENTRIES`` (macro state, key) pairs or a step whose output
    or visited states, in ``_WINDOW`` rows, pass ``_WINDOW_TAG_BYTES``.

    For ell=1 the macro states are the machine states.  For ell=2 they
    are found by a breadth-first search from the initial state; they are
    finitely many exactly when the lag between the tapes is bounded.
    """
    b, ell, sink = C.b, C.ell, len(C.states)
    width, step = b**ell, _macro_step(C)
    cap = min(_LOCKSTEP_MAX_STATES, _LOCKSTEP_MAX_ENTRIES // width)
    order = [(q, (), ()) for q in range(sink)] if ell == 1 else [(C.initial, (), ())]
    if len(order) > cap:
        return None
    ids = {m: i for i, m in enumerate(order)}
    steps = []
    for q, p1, p2 in order:  # order grows while it is walked
        for key in range(width):
            fed = (p1 + (key,), ()) if ell == 1 else (p1 + (key // b,), p2 + (key % b,))
            res = step(q, *fed)
            if res is not None:
                target = res[0]
                if target not in ids:
                    if len(order) == cap:
                        return None
                    ids[target] = len(order)
                    order.append(target)
                res = (ids[target],) + res[1:]
            steps.append(res)
    rows = len(order) + 1
    size = rows * width
    nb = np.full(size, (rows - 1) * width, dtype=np.intp)
    cost, out_len, reads1 = (np.zeros(size, dtype=np.intp) for _ in range(3))
    pools = ([], [], [])  # visited states, tags, output counts at tape-1 reads
    for j, res in enumerate(steps):
        if res is not None:
            nb[j] = res[0] * width
            cost[j], out_len[j], reads1[j] = map(len, res[1:])
            for pool, rec in zip(pools, res[1:]):
                pool += rec
    state_dtype = np.dtype(_dtype_for(sink + 1))
    for lens, dtype in ((cost, state_dtype), (out_len, C.tag_dtype)):
        if _WINDOW * int(lens.max()) * dtype.itemsize > _WINDOW_TAG_BYTES:
            return None
    return _MacroTable(
        span=1,
        keys=width,
        place=np.ones(1, dtype=np.intp),
        nb=nb,
        out_len=out_len,
        tags=_padded(np.array(pools[1], dtype=C.tag_dtype), out_len),
        cost=cost,
        reads1=reads1,
        entries=np.arange(size, dtype=_dtype_for(size))[:, None],
        rows=rows,
        visited=_padded(np.array(pools[0], dtype=state_dtype), cost),
        read_out=_padded(np.array(pools[2], dtype=_dtype_for(int(out_len.max()) + 1)), reads1),
        states=order + [(sink, (), ())],
        ids=ids,
        unit=all(res is None or (len(res[1]) == 1 and len(res[3]) == 1) for res in steps),
    )


def _gram_view(X: _MacroTable) -> _Steps:
    """The gram view of X: its macro states, with every entry a gram of G
    keys, G as large as the bounds allow.

    G is the largest gram length, at most ``_CHUNK``, whose view has at
    most ``_GRAM_MAX_ENTRIES`` entries and at most ``_GRAM_MAX_BYTES``
    bytes: four intp arrays, a row as long as G of X's and G entries of X.
    Below G = 2 the view is X.  Every array comes from G gathers through
    X's tables, not from one macro step at a time.  A gram that meets the
    sink part-way leads to the sink, which absorbs.  The rows of visited
    states and of output counts at tape-1 reads stay in X, reached through
    the gram's ``entries``.
    """
    K, rows = X.keys, X.rows
    # the bytes a key adds to a gram: one padded row of X and one entry
    per_key = X.tags.itemsize * X.tags.shape[1] + X.entries.itemsize

    def fits(G):
        size = rows * K**G
        return size <= _GRAM_MAX_ENTRIES and size * (4 * 8 + G * per_key) <= _GRAM_MAX_BYTES

    G = 1
    while G < _CHUNK and fits(G + 1):
        G += 1
    if G == 1:
        return X
    KG = K**G
    grams = digits(np.arange(KG), G, K)  # key i of every gram
    E = np.empty((rows, KG, G), dtype=np.intp)  # X's entry for key i of every (row, gram)
    cur = np.arange(rows)[:, None] * K
    for i in range(G):
        np.add(cur, grams[:, i], out=E[:, :, i])
        cur = X.nb[E[:, :, i]]
    E = E.reshape(-1, G)
    out_len = X.out_len[E].sum(axis=1)
    tags = _unpadded(X.tags, X.out_len, E, int(out_len.sum()))
    return _Steps(
        G, KG, K ** np.arange(G - 1, -1, -1), cur.ravel() // K * KG, out_len,
        _padded(tags, out_len), X.cost[E].sum(axis=1), X.reads1[E].sum(axis=1),
        E.astype(X.entries.dtype),
    )


def _padded(pool, lens):
    """Rows of ``pool``'s first ``lens[0]`` cells, its next ``lens[1]`` and so
    on, padded with zeros to the longest."""
    rows = np.zeros((lens.size, int(lens.max(initial=0))), dtype=pool.dtype)
    rows[np.arange(rows.shape[1]) < lens[:, None]] = pool
    return rows


def _unpadded(rows, lens, at, total):
    """The first ``lens[i]`` cells of padded row i of ``rows``, for every i
    in ``at``, back to back; ``total`` is their count, and ``lens`` is read
    only when some row is not full.  np.take moves whole rows, where
    ``rows[at]`` and a broadcast compare with lens step a cell at a time."""
    got = np.take(rows, at, axis=0)
    if total == got.size:
        return got.ravel()
    w = got.shape[-1]
    return got[np.take(np.arange(w) < np.arange(w + 1)[:, None], np.take(lens, at), axis=0)]


def build(M, ell: int) -> CompiledAutomaton:
    """The compiled form of M, which must be ell-deterministic."""
    b, n_states = M.alphabet.size, len(M.states)
    width, n_out = b**ell, M.k - ell
    read = [-1] * (n_states + 1)
    delta = [n_states] * ((n_states + 1) * width)
    emit = [()] * ((n_states + 1) * width)
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
            delta[q * width + key] = M._id[t.target]
            emit[q * width + key] = tuple(
                j * b + a for j in range(n_out) for a in t.label[ell + j]
            )
    return CompiledAutomaton(
        states=M.states,
        initial=M._id[M.initial[0]],
        ell=ell,
        b=b,
        n_out=n_out,
        read=read,
        delta_list=delta,
        emit_list=emit,
        tag_dtype=np.dtype(_dtype_for(max(n_out, 1) * b)),
    )


@dataclass(frozen=True, eq=False)
class CompiledAutomaton:
    """Dense tables of an ell-deterministic machine; see :func:`build`.

    States are numbered in ``M.states`` order, and number ``sink = |Q|``
    is a dead sink that every missing transition leads to.  ``read[q]``
    is -1 for a state without transitions, else a bit mask of the input
    tapes it reads (bit 1: tape 1, bit 2: tape 2; 0: silent).  The
    scalar loop's tables are flat Python lists indexed ``q * b**ell +
    key``: a state reading one tape has key a, one reading both
    ``a1 * b + a2``, a silent one 0.  ``delta_list`` holds the next state
    and ``emit_list`` the output symbols, tagged ``tape * b + symbol``
    (output tapes counted from 0) and stored as ``tag_dtype``.
    """

    states: tuple
    initial: int
    ell: int
    b: int
    n_out: int
    read: list
    delta_list: list
    emit_list: list
    tag_dtype: np.dtype

    @cached_property
    def macro(self) -> Optional[_MacroTable]:
        """The macro-step table of the lock-step engine, built on first use;
        None when the machine has too many states or, on two tapes, an
        unbounded lag or too many (x, y) keys, or when a window of its
        padded output rows would be too large."""
        return _macro_table(self)

    def advance(self, r: _Run, inputs: Sequence[WordSource], n: int, max_steps: int) -> None:
        """Step r until n tape-1 symbols are consumed or the run halts.

        A run with at least ``_LOCKSTEP_MIN`` tape-1 symbols to go goes
        through the lock-step engine first when the machine has a
        macro-step table (the rule in full is in the module docstring);
        the scalar loop always finishes.
        """
        if n - r.consumed[0] >= _LOCKSTEP_MIN:
            X = self.macro
            m0 = None if X is None else X.ids.get((r.q, (), ()))
            if m0 is not None:
                self._lockstep(r, inputs, m0, n - r.consumed[0], max_steps)
        self._scalar(r, inputs, n, max_steps)

    def outputs(self, r: _Run, alphabet: Alphabet) -> tuple:
        """The run's output words, one per output tape."""
        tagged = np.concatenate(r.chunks) if r.chunks else np.zeros(0, self.tag_dtype)
        if self.n_out == 1:
            return (FiniteWord._adopt(alphabet, tagged),)
        tape, sym = np.divmod(tagged, self.b)
        return tuple(FiniteWord._adopt(alphabet, sym[tape == j]) for j in range(self.n_out))

    def _scalar(self, r, inputs, n, max_steps):
        read, delta, emit = self.read, self.delta_list, self.emit_list
        b, sink = self.b, len(self.states)
        width = b**self.ell
        src0 = inputs[0]
        src1 = inputs[1] if self.ell == 2 else None
        q, steps = r.q, r.steps
        path = [] if r.path is not None else None
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
                        if out:  # a window's output at a time, not the run's as a list
                            r.chunks.append(np.array(out, dtype=self.tag_dtype))
                            out = []
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
            r.chunks.append(np.array(out, dtype=self.tag_dtype))
        if path:
            r.path.append(np.array(path, dtype=np.intp))

    def _lockstep(self, r, inputs, m0, count, max_steps):
        """Feed up to count keys to the macro-step table, from macro state
        m0, a gram of G keys per gather, in lock-step windows.

        The gram view is X itself (G = 1) only when no gram of two keys fits
        its bounds; the run's length never chooses it.  Windows are whole
        grams, so at most G - 1 keys of count are left to the scalar loop.  A
        window's keys are packed into gram ids (at G = 1 the keys themselves)
        and cut into chunks; every chunk runs from all macro states at once
        (one gather per gram), the chunk start states are stitched in order,
        and a second pass gathers the macro states the run really visits.  The
        window stops at the start of the gram that steps into the sink and of
        the gram that would pass the step budget; the symbols from there on go
        back to their sources, after those the final macro state holds
        pending, and the scalar loop halts inside that gram.  Outputs, step
        costs and tape-1 reads come from the gram view; the output is one
        gather of padded rows, masked only when some gram of the window writes
        fewer tags than the longest.  A checkpoint finds its gram by the
        running sum of tape-1 reads and walks that gram's key-table entries
        for the output count at its read.  A window that records the path
        gathers the entries of all its grams at once, and then their padded
        rows of visited states, read back like the output.  When every macro
        step is one machine step (``X.unit``), the step budget cuts the count
        up front, so windows need no running sum of step costs.
        """
        X, V = self.macro, self.macro.grams
        G, K, sink = V.span, V.keys, X.rows - 1
        nb = V.nb
        every = np.arange(X.rows) * K
        if X.unit:
            count = min(count, max_steps - r.steps)
        count -= count % G
        raws, k, done = (), 0, 0
        while done < count:
            want = min(_WINDOW - _WINDOW % G, count - done)
            raws = [inputs[0].take_available(want)]
            keys = raws[0].astype(np.intp)
            if self.ell == 2:
                raws.append(inputs[1].take_available(raws[0].size))
                keys = keys[: raws[1].size]
                keys *= self.b
                keys += raws[1]
            m = keys.size // G  # whole grams
            if m == 0:
                k = 0
                break
            keys = keys[: m * G].reshape(m, G)
            a = keys[:, 0] if G == 1 else keys @ V.place  # gram ids
            c = -(-m // _CHUNK)
            A = np.zeros(c * _CHUNK, dtype=np.intp)
            A[:m] = a
            A = A.reshape(c, _CHUNK)
            starts = [m0 * K]
            if c > 1:
                S = np.broadcast_to(every, (c - 1, X.rows))
                for t in range(_CHUNK):
                    S = nb[S + A[:-1, t, None]]
                for row in S.tolist():
                    starts.append(row[starts[-1] // K])
            cur = np.array(starts, dtype=np.intp)
            before = np.empty((_CHUNK, c), dtype=np.intp)
            for t in range(_CHUNK):
                before[t] = cur
                cur = nb[cur + A[:, t]]
            idx = before.T.reshape(-1)[:m] + a  # flat (macro state, gram) index per gram
            if nb[idx[-1]] == sink * K:  # the sink absorbs, so the run died in here
                idx = idx[: int(np.argmax(nb[idx] == sink * K))]
            if not X.unit and idx.size:
                spent = np.cumsum(V.cost[idx])
                fit = int(np.searchsorted(spent, max_steps - r.steps, side="right"))
                idx, spent = idx[:fit], spent[:fit]
            k = idx.size * G  # keys fed
            if k:
                m1 = int(nb[idx[-1]]) // K
                lens = V.out_len[idx]
                written = int(lens.sum())
                r.chunks.append(_unpadded(V.tags, V.out_len, idx, written))
                steps = k if X.unit else int(spent[-1])
                c0 = r.consumed[0]
                # a tape's symbols read: those fed, less the growth of its pending ones
                was, now = X.states[m0], X.states[m1]
                read0 = k + len(was[1]) - len(now[1])
                if r.next_cp <= c0 + read0:
                    reads = V.reads1[idx]
                    cr = np.cumsum(reads)
                    cum = np.cumsum(lens)
                    while r.next_cp <= c0 + read0:
                        t = r.next_cp - c0  # the t-th tape-1 read of this window
                        g = int(cr.searchsorted(t))  # is in gram g
                        t -= int(cr[g] - reads[g])
                        off = r.out_total + int(cum[g] - lens[g])
                        for e in V.entries[idx[g]].tolist():  # at most G of them
                            if t <= X.reads1[e]:
                                break
                            t -= int(X.reads1[e])
                            off += int(X.out_len[e])
                        r.checkpoints.append((r.next_cp, off + int(X.read_out[e, t - 1])))
                        r.next_cp *= 2
                if r.path is not None:
                    e = V.entries[idx].ravel()  # the key-table entry of every key fed
                    r.path.append(_unpadded(X.visited, X.cost, e, steps))
                r.q = X.states[m1][0]
                r.steps += steps
                r.out_total += written
                for j in range(self.ell):
                    r.consumed[j] += k + len(was[1 + j]) - len(now[1 + j])
                m0 = m1
            done += k
            if k < want:
                break
        # symbols fed but not read, then those taken but not fed, go back
        for src, pending, raw in zip(inputs, X.states[m0][1:], raws):
            if pending or k < raw.size:
                src._unread(np.concatenate([np.array(pending, dtype=raw.dtype), raw[k:]]))

    def _every_word(self, max_len: int):
        """Run the ell=1 machine on every input word of length 1..max_len.

        Yields, for each length L, four arrays over the b**L words in
        ``itertools.product`` order: final state, output value (its tags as
        digits in base ``max(n_out, 1) * b``, first tag most significant),
        output length, and whether :func:`run` with budget L and its default
        step budget ends without a halt.  Value and length give the output
        back.  Values are int64 while the longest possible output fits 63
        bits, else Python ints in an object array.  Word i of length L is word
        i // b of length L - 1 followed by symbol i % b, so each length is one
        gather from the one before, through a table of one macro step
        (:func:`_macro_step`) per (state, symbol).  The words start at the
        initial state, whose macro steps fire its silent chain first; a macro
        step the rule rejects leads to the sink, which halts the word and all
        its extensions.  The step budget grows with L, so it halts a word but
        not its extensions.
        """
        b, sink = self.b, len(self.states)
        step = _macro_step(self)
        # one macro step from state j // b on symbol j % b
        res = [step(q, (a,), ()) or ((sink,), (), ()) for q in range(sink + 1) for a in range(b)]
        nxt = np.array([r[0][0] for r in res], dtype=np.intp)
        cost = np.array([len(r[1]) for r in res], dtype=np.intp)
        base = max(self.n_out, 1) * b
        tail_len = np.array([len(r[2]) for r in res], dtype=np.intp)
        dtype = np.int64 if base ** (max_len * int(tail_len.max())) <= 2**63 else object
        value_of = lambda t: sum(c * base**i for i, c in enumerate(reversed(t)))
        tail_val = np.array([value_of(r[2]) for r in res], dtype=dtype)
        tail_scale = np.array([base**n for n in tail_len.tolist()], dtype=dtype)
        q = np.array([self.initial], dtype=np.intp)
        n_steps = out_len = np.zeros(1, dtype=np.intp)
        out = np.zeros(1, dtype=dtype)
        for L in range(1, max_len + 1):
            j = (q[:, None] * b + np.arange(b)).ravel()
            out = np.repeat(out, b) * tail_scale[j] + tail_val[j]
            out_len = np.repeat(out_len, b) + tail_len[j]
            q = nxt[j]
            n_steps = np.repeat(n_steps, b) + cost[j]
            yield q, out, out_len, (q != sink) & (n_steps <= _step_budget(L, sink))
