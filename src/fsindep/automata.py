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

Deterministic machines may contain silent steps (all input labels
empty); :func:`run` runs them as they are.

:func:`run` compiles equal machines once (:func:`compile`) and ends every run
with one scalar loop over the compiled tables; a long run of a machine
with a macro-step table goes through a lock-step engine first (the rule
in full is in :mod:`fsindep.engine`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .words import Alphabet, FiniteWord
from .sources import NotDeterministicError, WordSource

if TYPE_CHECKING:
    from .engine import CompiledAutomaton

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
    """Immutable k-tape automaton over a shared alphabet; equal ones share a compiled form."""

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
        self.initial = tuple(dict.fromkeys([initial] if isinstance(initial, str) else initial))
        for s in self.initial:
            if s not in self._id:
                raise ValueError(f"unknown initial state {s!r}")
        if not self.initial:
            raise ValueError("automaton needs at least one initial state")
        trans = []
        for item in transitions:
            if isinstance(item, Transition):
                src, label, dst = item.source, item.label, item.target
            else:
                src, label, dst = item
            if src not in self._id or dst not in self._id:
                raise ValueError(f"transition references unknown state: {src} -> {dst}")
            trans.append(Transition(src, _normalize_label(label, k, alphabet), dst))
        self.transitions = tuple(dict.fromkeys(trans))  # exact duplicates carry no information
        out = {s: [] for s in self.states}
        for t in self.transitions:
            out[t.source].append(t)
        self._out = {s: tuple(ts) for s, ts in out.items()}
        self._hash = hash((k, alphabet, self.states, self.initial, self.transitions))

    def __setattr__(self, name, value):
        if "_hash" in self.__dict__:  # set last in __init__
            raise AttributeError(f"KAutomaton is immutable; cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # a copy in another process hashes its strings afresh
        return KAutomaton, (self.k, self.alphabet, self.states, self.initial, self.transitions)

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
    # states in order of first mention, then initial states no row mentions
    states = dict.fromkeys([s for src, _, dst in rows for s in (src, dst)] + initial.split(","))
    return KAutomaton(k, alphabet, list(states), initial.split(","), rows)


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


def _read_pattern(t, ell: int) -> tuple:
    """The input tapes, among the first ell, that transition t reads."""
    return tuple(j for j in range(ell) if t.label[j])


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


# ---------------------------------------------------------------------------
# compiling and running


def compile(M: KAutomaton, ell: int) -> CompiledAutomaton:
    """The compiled form of the ell-deterministic machine M
    (:func:`fsindep.engine.build`), shared by every machine equal to M.

    Raises NotDeterministicError when M is not ell-deterministic, and
    ValueError for an ell outside {1, 2}, which the engine does not run.
    """
    ell = int(ell)
    if ell not in (1, 2):
        raise ValueError(f"the run engine takes 1 or 2 input tapes, not {ell}")
    C = _compiled(M, ell)
    if isinstance(C, DeterminismReport):
        kinds = sorted({v.kind for v in C.violations})
        raise NotDeterministicError(
            f"automaton is not deterministic on {ell} input tapes; violations: {kinds}"
        )
    return C


# The last (machine, ell) pairs compiled, or the reports of their failed gates.
# An entry holds at most a 7.1 MiB macro table (_LOCKSTEP_MAX_ENTRIES), a 0.1 MiB
# gram view and scalar tables the size of the dense transition table.
_COMPILED_MAX = 8


@functools.lru_cache(maxsize=_COMPILED_MAX)
def _compiled(M: KAutomaton, ell: int):
    """M's compiled form on ell input tapes, or the report of its failed gate."""
    from .engine import build  # the engine loads with the first machine compiled

    report = check_l_deterministic(M, ell)
    return build(M, ell) if report.deterministic else report


class _Run:
    """Where a run stands; both engines (:mod:`fsindep.engine`) advance it in place."""

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
        # state numbers visited, as int arrays in order
        self.path = [np.array([q], dtype=np.intp)] if record_path else None
        self.reason = None  # halt reason, None while running or after a clean stop


def _step_budget(n: int, n_states: int) -> int:
    """The step budget of a run with tape-1 budget n, unless one is given."""
    return 64 * n + 4 * n_states + 64


@dataclass
class RunTrace:
    """Outcome of a budgeted deterministic run.

    checkpoints holds (symbols consumed on tape 1, total output symbols)
    snapshots at each power of two plus a final snapshot, which replaces
    the one at its own count: output written after the last read counts.
    halted is True when the run stopped for any reason other than reaching
    the budget.
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

    Engine: equal machines share one compiled form (:func:`compile`), and
    a run of at least ``_LOCKSTEP_MIN`` symbols of a machine with a
    macro-step table goes through the lock-step engine before the scalar
    loop that ends every run (the rule in full is in :mod:`fsindep.engine`).
    Both give the same trace.
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
    path = None
    if r.path is not None:
        names, path = np.array(M.states, dtype=object), []
        while r.path:  # each chunk is freed once named
            path += names[r.path.pop(0)].tolist()
    if r.checkpoints and r.checkpoints[-1][0] == r.consumed[0]:
        r.checkpoints.pop()
    r.checkpoints.append((r.consumed[0], r.out_total))
    return RunTrace(
        final_state=M.states[r.q],
        consumed=tuple(r.consumed),
        outputs=C.outputs(r, M.alphabet),
        checkpoints=r.checkpoints,
        halted=r.reason is not None,
        halt_reason=r.reason,
        steps=r.steps,
        path=path,
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
