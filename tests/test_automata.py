"""Multi-tape automata: parsing, determinism, silent-step removal, runs,
forward-pair analysis."""

import random

import numpy as np
import pytest

from fsindep import (
    Alphabet,
    KAutomaton,
    LiteralSource,
    NotDeterministicError,
    PeriodicSource,
    RandomSource,
    accepts_prefix_tuple,
    check_l_deterministic,
    copy_automaton,
    even_projection_transducer,
    find_forward_word,
    forward_pairs,
    odd_projection_transducer,
    parse_automaton,
    plain_ratio,
    run,
    word,
)
import fsindep.engine as engine
from fsindep.automata import compile
from fsindep.engine import (
    _GRAM_MAX_BYTES,
    _GRAM_MAX_ENTRIES,
    _LOCKSTEP_MAX_STATES,
    _LOCKSTEP_MIN,
    _WINDOW,
    _WINDOW_TAG_BYTES,
    CompiledAutomaton,
)
from fsindep.compression import TransducerOutputSource, bounded_losslessness_check
from conftest import (
    eliminate_eps_input_transitions,
    naive_bounded_losslessness_check,
    naive_check_deterministic,
    naive_forward_pairs,
    naive_run,
    rand_text,
    traced_peak,
)

A2 = Alphabet(2)


def lit(text: str, b: int = 2) -> LiteralSource:
    return LiteralSource(word(text, base=b))


# ---------------------------------------------------------------------------
# parsing and fixtures


def test_parse_round_trip(join_aut):
    again = parse_automaton(join_aut.to_text())
    assert again == join_aut


def test_parse_accepts_comments_and_blank_lines():
    M = parse_automaton(
        """
        # plain copy machine
        automaton k=2 alphabet=2 initial=s

        s 0,0 s  # zero
        s 1,1 s
        """
    )
    assert M.states == ("s",)
    assert len(M.transitions) == 2


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_automaton("not-a-header k=2\n")
    with pytest.raises(ValueError):
        parse_automaton("automaton k=9 alphabet=2 initial=s\n")
    with pytest.raises(ValueError):
        parse_automaton("automaton k=2 alphabet=2 initial=s\ns 0 s\n")  # arity
    with pytest.raises(ValueError):
        parse_automaton("automaton k=2 alphabet=2 initial=s\ns 0,2 s\n")  # symbol
    with pytest.raises(ValueError):
        parse_automaton("automaton k=2 alphabet=2\ns 0,0 s\n")  # missing initial
    for row in ("s 0,0", "s 0,0 s s"):
        with pytest.raises(ValueError, match="line 2: expected 'from label to'"):
            parse_automaton(f"automaton k=2 alphabet=2 initial=s\n{row}\n")
    with pytest.raises(ValueError, match="missing automaton header line"):
        parse_automaton("# comments and blank lines only\n\n")


def test_duplicate_transitions_are_dropped():
    M = KAutomaton(2, A2, ["s"], "s", [("s", ((0,), (0,)), "s")] * 3)
    assert len(M.transitions) == 1


def test_save_load_round_trip(tmp_path, shuffle_aut):
    p = tmp_path / "m.aut"
    shuffle_aut.save(p)
    from fsindep import load_automaton

    assert load_automaton(p) == shuffle_aut


def test_transition_label_text(join_aut):
    assert join_aut.transitions[0].label_text(join_aut.alphabet) == "0,-,0"


# ---------------------------------------------------------------------------
# determinism checking


def test_join_fixture_is_2_deterministic(join_aut):
    rep = check_l_deterministic(join_aut, 2)
    assert rep.deterministic and bool(rep)
    assert rep.violations == ()


def test_join_fixture_is_not_1_deterministic(join_aut):
    # at q1 both transitions are silent on tape 1 and indistinguishable
    rep = check_l_deterministic(join_aut, 1)
    assert not rep.deterministic


def test_shuffle_fixture_violation_is_pinned(shuffle_aut):
    rep = check_l_deterministic(shuffle_aut, 2)
    assert not rep.deterministic
    v = rep.violations[0]
    assert v.kind == "read-pattern"
    assert v.state == "q0"
    assert [t.label_text(A2) for t in v.pair] == ["0,-,0", "-,0,0"]


def test_copy_fixture_is_deterministic_both_ways(copy_aut):
    assert check_l_deterministic(copy_aut, 1).deterministic
    assert check_l_deterministic(copy_aut, 2).deterministic


def test_multi_initial_is_flagged():
    M = KAutomaton(2, A2, ["a", "b"], ["a", "b"], [("a", ((0,), (0,)), "b")])
    rep = check_l_deterministic(M, 1)
    assert not rep.deterministic
    assert rep.violations[0].kind == "initial-not-singleton"


def test_long_input_label_is_flagged():
    M = KAutomaton(2, A2, ["a"], "a", [("a", ((0, 0), (1,)), "a")])
    rep = check_l_deterministic(M, 1)
    assert rep.violations[0].kind == "long-input-label"


def test_same_input_label_is_flagged():
    M = KAutomaton(
        2, A2, ["a", "b"], "a",
        [("a", ((0,), (0,)), "a"), ("a", ((0,), (1,)), "b")],
    )
    rep = check_l_deterministic(M, 1)
    assert rep.violations[0].kind == "same-input"
    assert check_l_deterministic(M, 2).deterministic  # outputs disambiguate


def rand_automaton(rng: random.Random, k: int) -> KAutomaton:
    """Unconstrained random machine; mostly nondeterministic."""
    states = [f"s{i}" for i in range(rng.randint(1, 4))]
    trans = []
    for _ in range(rng.randint(1, 8)):
        label = tuple(
            () if rng.random() < 0.4 else (rng.randrange(2),) for _ in range(k)
        )
        trans.append((rng.choice(states), label, rng.choice(states)))
    initial = states[: rng.choice([1, 1, 1, 2])] if len(states) > 1 else states[:1]
    return KAutomaton(k, A2, states, initial, trans)


def test_determinism_matches_naive_validator_on_random_machines():
    rng = random.Random(2024)
    agree_yes = 0
    for _ in range(500):
        k = rng.choice([2, 3])
        M = rand_automaton(rng, k)
        for ell in range(1, k):
            got = check_l_deterministic(M, ell).deterministic
            assert got == naive_check_deterministic(M, ell)
            agree_yes += got
    assert agree_yes > 0  # sanity: some deterministic samples occurred


# ---------------------------------------------------------------------------
# silent-transition elimination

CHAIN = """
automaton k=2 alphabet=2 initial=q0
q0 -,1 q1
q1 0,0 q2
q1 1,1 q2
q2 0,0 q2
q2 1,1 q2
"""


def test_eliminate_composes_outputs_forward():
    M = parse_automaton(CHAIN)
    E = eliminate_eps_input_transitions(M, 1)
    outs = {t.label for t in E.transitions if t.source == "q0"}
    # the buffered output 1 is prepended to each successor's output
    assert outs == {((0,), (1, 0)), ((1,), (1, 1))}
    assert set(E.states) == {"q0", "q1", "q2"}


def test_eliminate_preserves_streamed_output():
    M = parse_automaton(CHAIN)
    E = eliminate_eps_input_transitions(M, 1)
    for text in ("01", "11", "0010"):
        a = run(M, 1, [lit(text)], len(text))
        b = run(E, 1, [lit(text)], len(text))
        assert a.outputs[0] == b.outputs[0]
        assert a.consumed == b.consumed


def test_eliminate_drops_dead_silent_cycle():
    M = parse_automaton(
        """
        automaton k=2 alphabet=2 initial=a
        a 0,0 a
        a 1,1 b
        b -,0 c
        c -,1 b
        """
    )
    E = eliminate_eps_input_transitions(M, 1)
    assert set(E.states) == {"a"}
    assert {t.label_text(A2) for t in E.transitions} == {"0,0"}


def test_eliminate_keeps_silent_initial():
    M = parse_automaton(
        """
        automaton k=2 alphabet=2 initial=i
        i -,1 s
        s 0,0 s
        """
    )
    E = eliminate_eps_input_transitions(M, 1)
    assert "i" in E.states and E.initial == ("i",)
    tr = run(E, 1, [lit("00")], 2)
    assert tr.outputs[0] == word("100")


def test_eliminate_is_identity_without_silent_transitions(join_aut):
    assert eliminate_eps_input_transitions(join_aut, 2) is join_aut


def test_eliminate_rejects_nondeterministic_input(shuffle_aut):
    with pytest.raises(ValueError):
        eliminate_eps_input_transitions(shuffle_aut, 2)


def rand_det_with_silent_states(rng: random.Random):
    """Deterministic 2-tape machine with silent states one hop from solid ones."""
    n_solid = rng.randint(2, 4)
    n_silent = rng.randint(1, 2)
    solid = [f"p{i}" for i in range(n_solid)]
    silent = [f"e{i}" for i in range(n_silent)]
    trans = []
    for p in solid:
        for a in range(2):
            if rng.random() < 0.9:
                out = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
                trans.append((p, ((a,), out), rng.choice(solid + silent)))
    for e in silent:
        out = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        trans.append((e, ((), out), rng.choice(solid)))  # always lands on solid
    M = KAutomaton(2, A2, solid + silent, rng.choice(solid + silent), trans)
    assert check_l_deterministic(M, 1).deterministic
    return M


def test_eliminate_equivalence_on_random_machines():
    """Rewiring preserves the streamed output up to the trailing silent flush.

    After the tape-1 budget the original machine still drains silent steps;
    the rewired machine holds those buffered symbols for the next input read.
    The outputs therefore agree as streams: the rewired output is a prefix of
    the original and the difference is at most one silent step's output.
    """
    rng = random.Random(88)
    exact = 0
    for _ in range(120):
        M = rand_det_with_silent_states(rng)
        E = eliminate_eps_input_transitions(M, 1)
        assert not any(t.label[0] == () for t in E.transitions)
        assert check_l_deterministic(E, 1).deterministic
        n = rng.randint(1, 24)
        text = rand_text(rng, n, 2)
        a = run(M, 1, [lit(text)], n)
        b = run(E, 1, [lit(text)], n)
        assert a.consumed == b.consumed, M.to_text()
        ta, tb = a.outputs[0].to_text(), b.outputs[0].to_text()
        assert ta.startswith(tb), M.to_text()
        assert len(ta) - len(tb) <= 2  # generator caps silent outputs at 2
        if len(ta) == len(tb):
            assert ta == tb
            exact += 1
    assert exact > 20  # plenty of exact cases exercised


# ---------------------------------------------------------------------------
# the run engine


def test_join_run_is_pinned(join_aut):
    tr = run(join_aut, 2, [lit("01"), lit("10")], 2)
    assert tr.outputs[0] == word("0110")
    assert tr.path == ["q0", "q1", "q0", "q1", "q0"]
    assert tr.consumed == (2, 2)
    assert not tr.halted


def test_join_run_drains_oracle_after_budget(join_aut):
    # after the n-th tape-1 symbol the pending tape-2 read still fires
    tr = run(join_aut, 2, [lit("0000"), lit("1111")], 3)
    assert tr.consumed == (3, 3)
    assert len(tr.outputs[0]) == 6


def test_copy_run_is_identity(copy_aut):
    x = RandomSource(A2, seed=3)
    tr = run(copy_aut, 1, [x.clone()], 500)
    assert tr.outputs[0] == x.prefix(500)


def test_run_without_path_recording(copy_aut):
    tr = run(copy_aut, 1, [lit("01")], 2, record_path=False)
    assert tr.path is None and tr.steps == 2


def test_run_halts_without_matching_transition():
    M = parse_automaton("automaton k=2 alphabet=2 initial=s\ns 0,0 s\n")
    tr = run(M, 1, [lit("0010")], 4)
    assert tr.halted and tr.halt_reason == "no-transition"
    assert tr.consumed == (2,)  # the two leading zeros


def test_run_halts_when_input_is_exhausted(copy_aut):
    tr = run(copy_aut, 1, [lit("01")], 5)
    assert tr.halted and tr.halt_reason == "input-exhausted"
    assert tr.consumed == (2,)


def test_run_halts_on_silent_cycle():
    M = parse_automaton(
        """
        automaton k=2 alphabet=2 initial=a
        a 0,0 b
        b -,1 b
        """
    )
    tr = run(M, 1, [lit("00")], 2)
    assert tr.halted and tr.halt_reason == "silent-cycle"
    assert tr.consumed == (1,)


def test_run_respects_step_budget(copy_aut):
    tr = run(copy_aut, 1, [PeriodicSource(word("01"))], 100, max_steps=17)
    assert tr.halted and tr.halt_reason == "step-budget"
    assert tr.steps == 17


def test_run_checkpoints_are_powers_of_two(copy_aut):
    tr = run(copy_aut, 1, [PeriodicSource(word("01"))], 100)
    ns = [c[0] for c in tr.checkpoints]
    assert ns == [1, 2, 4, 8, 16, 32, 64, 100]
    assert all(c[1] == c[0] for c in tr.checkpoints)  # copy: out = in


def test_run_keeps_one_snapshot_per_count(lockstep_calls):
    # a 0 written after each read: an in-run snapshot at c holds 2c - 1
    # symbols, and the final one, at a power of two too, replaces it
    M = parse_automaton("automaton k=2 alphabet=2 initial=q0\nq0 0,0 q1\nq0 1,1 q1\nq1 -,0 q0\n")
    text = rand_text(random.Random(19), 4096, 2)
    for n in (7, 8, 9, 2048, 2049):
        tr = check_engines(M, text, n)
        powers = [2**j for j in range(n.bit_length()) if 2**j < n]
        assert tr.checkpoints == [(c, 2 * c - 1) for c in powers] + [(n, 2 * n)]
    assert len(lockstep_calls) == 2 * 2


def test_run_agrees_with_naive_stepper_on_fixtures(join_aut, copy_aut):
    rng = random.Random(17)
    for M, ell in ((join_aut, 2), (copy_aut, 1)):
        for _ in range(40):
            n = rng.randint(0, 40)
            texts = [rand_text(rng, n, 2)] + [
                rand_text(rng, 4 * n + 4, 2) for _ in range(ell - 1)
            ]
            got = run(M, ell, [lit(t) for t in texts], n)
            ref = naive_run(M, ell, texts, n)
            assert [o.to_text() for o in got.outputs] == ref["outputs"]
            assert got.consumed == ref["consumed"]
            assert (got.halt_reason if got.halted else None) == ref["halt"]
            assert got.path == ref["states"]


def test_run_agrees_with_naive_stepper_on_random_machines():
    rng = random.Random(303)
    for _ in range(150):
        M = rand_det_with_silent_states(rng)
        E = eliminate_eps_input_transitions(M, 1)
        n = rng.randint(0, 30)
        text = rand_text(rng, n, 2)
        got = run(E, 1, [lit(text)], n)
        ref = naive_run(E, 1, [text], n)
        assert [o.to_text() for o in got.outputs] == ref["outputs"]
        assert got.consumed == ref["consumed"]
        assert (got.halt_reason if got.halted else None) == ref["halt"]


# ---------------------------------------------------------------------------
# the compiled engine: lock-step against the scalar loop and the naive stepper

TRACE_FIELDS = (
    "outputs", "consumed", "checkpoints", "halted", "halt_reason", "steps", "final_state",
)


@pytest.fixture
def lockstep_calls(monkeypatch):
    """Records the symbol count of every lock-step call."""
    calls = []
    original = CompiledAutomaton._lockstep

    def spy(self, r, inputs, m0, count, max_steps):
        calls.append(count)
        return original(self, r, inputs, m0, count, max_steps)

    monkeypatch.setattr(CompiledAutomaton, "_lockstep", spy)
    return calls


def rand_det_solid(rng: random.Random, p_edge: float) -> KAutomaton:
    """Deterministic 1-input transducer without silent states; transitions
    are missing with probability 1 - p_edge, and some states have none."""
    states = [f"p{i}" for i in range(rng.randint(1, 5))]
    trans = []
    for p in states:
        if len(states) > 1 and rng.random() < 0.15:
            continue
        for a in range(2):
            if rng.random() < p_edge:
                out = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
                trans.append((p, ((a,), out), rng.choice(states)))
    return KAutomaton(2, A2, states, states[0], trans)


def run_scalar(M, ell, inputs, n, **kw):
    """run() with the lock-step engine switched off for budgets up to n."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_LOCKSTEP_MIN", n + 1)
        return run(M, ell, inputs, n, **kw)


def check_engines(M, text, n, max_steps=None, naive=True):
    """Run M on text (one string per input tape, or one string for one
    tape) three ways: record_path off and on (both lock-step when
    eligible) and on the scalar loop alone.  Compares them field by field,
    with the naive stepper, and checks each source is left just after its
    last consumed symbol.  Returns the record_path-off trace."""
    texts = [text] if isinstance(text, str) else list(text)
    ell = len(texts)
    srcs = [[lit(t, M.alphabet.size) for t in texts] for _ in range(3)]
    a = run(M, ell, srcs[0], n, max_steps=max_steps, record_path=False)
    b = run(M, ell, srcs[1], n, max_steps=max_steps, record_path=True)
    c = run_scalar(M, ell, srcs[2], n, max_steps=max_steps, record_path=True)
    for f in TRACE_FIELDS:
        assert getattr(a, f) == getattr(b, f) == getattr(c, f), (f, M.to_text(), n)
    assert b.path == c.path, (M.to_text(), n)
    if naive:
        ref = naive_run(M, ell, texts, n)
        assert [o.to_text() for o in a.outputs] == ref["outputs"]
        assert a.consumed == ref["consumed"]
        assert (a.halt_reason if a.halted else None) == ref["halt"]
        assert b.path == ref["states"]
    for tape, t in enumerate(texts):
        rest = [int(ch) for ch in t[a.consumed[tape] :]]
        for run_srcs in srcs:
            assert run_srcs[tape].take_available(len(t) + 1).tolist() == rest
    return a


def test_compile_tables_are_pinned():
    C = compile(odd_projection_transducer(A2), 1)
    assert C.states == ("keep", "drop") and C.initial == 0
    assert C.read == [1, 1, -1]
    assert C.delta_list == [1, 1, 0, 0, 2, 2]  # row 2 is the dead sink
    assert C.emit_list == [(0,), (1,), (), (), (), ()]
    assert 0 not in C.read  # no silent state
    # one machine step per macro step; next macro state times the 2 keys
    assert C.macro.unit and C.macro.nb.tolist() == [2, 2, 0, 0, 4, 4]
    # grams of 8 keys: rows keep, drop and the sink, 2**8 grams each
    V = C.macro.grams
    assert (V.span, V.keys) == (8, 256)
    assert V.nb.tolist() == [0] * 256 + [256] * 256 + [512] * 256
    assert V.out_len.tolist() == [4] * 512 + [0] * 256
    assert V.cost.tolist() == [8] * 512 + [0] * 256
    assert V.reads1.tolist() == [8] * 512 + [0] * 256
    keys = np.arange(256)[:, None] >> np.arange(7, -1, -1) & 1  # first key first
    # from keep the gram's 1st, 3rd, 5th and 7th keys are written, from drop
    # the others; the sink writes nothing, a row of padding
    written = np.concatenate([keys[:, 0::2], keys[:, 1::2], np.zeros((256, 4), dtype=int)])
    assert V.tags.tolist() == written.tolist()
    assert C.macro.tags.tolist() == [[0], [1], [0], [0], [0], [0]]
    # the key-table entry of each key: from keep, keep * 2 + key at the
    # 1st, 3rd, ... key and drop * 2 + key at the others; in the sink, 4 + key
    at = np.array([0, 2] * 4)
    assert V.entries.dtype == np.uint8
    assert V.entries.tolist() == np.concatenate([keys + at, keys + 2 - at, keys + 4]).tolist()
    assert C.macro.entries.tolist() == [[e] for e in range(6)]
    # keep steps to drop and writes one tag with its read, drop steps to keep
    # and writes none; the sink's rows are padding
    assert C.macro.visited.dtype == C.macro.read_out.dtype == np.uint8
    assert C.macro.visited.tolist() == [[1], [1], [0], [0], [0], [0]]
    assert C.macro.read_out.tolist() == [[1], [1], [0], [0], [0], [0]]
    M = parse_automaton(CHAIN)
    X = compile(M, 1).macro
    assert 0 in compile(M, 1).read and not X.unit
    # from q0 the silent step to q1 writes 1, then q1 reads into q2: rows of
    # two states and one count, padded with zeros from q1 and q2 on
    assert X.visited.tolist() == [[1, 2]] * 2 + [[2, 0]] * 4 + [[0, 0]] * 2
    assert X.tags.tolist() == [[1, 0], [1, 1]] + [[0, 0], [1, 0]] * 2 + [[0, 0]] * 2
    assert X.read_out.tolist() == [[2]] * 2 + [[1]] * 4 + [[0]] * 2
    assert compile(M, 1) is compile(M, 1)  # cached on the machine


def test_determinism_gate_runs_once_per_machine(monkeypatch):
    import fsindep.automata as automata

    calls = []
    original = automata.check_l_deterministic

    def counting(M, ell):
        calls.append(ell)
        return original(M, ell)

    monkeypatch.setattr(automata, "check_l_deterministic", counting)
    M = copy_automaton(A2)
    for _ in range(3):
        run(M, 1, [lit("0101")], 4)
    plain_ratio(M, lit("0110"), 4)
    TransducerOutputSource(M, lit("01")).take_available(2)
    bounded_losslessness_check(M, 4)
    assert calls == [1]
    # a machine that fails the gate is not checked again either
    bad = KAutomaton(2, A2, ["s"], "s", [("s", ((0,), (0,)), "s"), ("s", ((0,), (1,)), "s")])
    for call in (
        lambda: run(bad, 1, [lit("0")], 1),
        lambda: TransducerOutputSource(bad, lit("0")),
    ):
        with pytest.raises(NotDeterministicError, match="same-input"):
            call()
    assert calls == [1, 1]


def test_not_deterministic_error_is_a_value_error(shuffle_aut):
    assert issubclass(NotDeterministicError, ValueError)
    with pytest.raises(NotDeterministicError, match="read-pattern"):
        run(shuffle_aut, 2, [lit("0"), lit("0")], 1)


def test_the_run_engine_refuses_input_tape_counts_it_does_not_run(join_aut):
    # the engine reads tapes 1 and 2 only, so three input tapes never reach it
    assert check_l_deterministic(join_aut, 3).deterministic
    with pytest.raises(ValueError, match="takes 1 or 2 input tapes, not 3"):
        run(join_aut, 3, [lit("0"), lit("0"), lit("0")], 1)
    with pytest.raises(ValueError, match="takes 1 or 2 input tapes, not 0"):
        compile(join_aut, 0)


def test_lockstep_matches_scalar_and_naive_on_random_machines(lockstep_calls):
    rng = random.Random(2718)
    for trial in range(60):
        M = rand_det_solid(rng, 0.97 if trial % 2 else 1.0)
        text = rand_text(rng, rng.randint(_LOCKSTEP_MIN, 3 * _LOCKSTEP_MIN), 2)
        n = rng.choice([len(text) - 1, len(text), len(text) + 3, _LOCKSTEP_MIN])
        check_engines(M, text, n)
    assert len(lockstep_calls) == 2 * 60  # record_path off and on


def test_engines_agree_on_silent_state_machines(lockstep_calls):
    rng = random.Random(31)
    for _ in range(40):
        M = rand_det_with_silent_states(rng)
        E = eliminate_eps_input_transitions(M, 1)
        text = rand_text(rng, rng.randint(_LOCKSTEP_MIN, 2 * _LOCKSTEP_MIN), 2)
        for machine in (M, E):
            check_engines(machine, text, len(text))
    # silent states go lock-step too: both machines, record_path off and on
    assert len(lockstep_calls) == 2 * 80


def test_engines_agree_on_silent_chains_and_cycles(lockstep_calls):
    rng = random.Random(4242)
    reasons = set()
    for trial in range(40):
        b = 3 if trial % 4 == 0 else 2
        M = rand_det_silent_chains(rng, b)
        text = rand_text(rng, rng.randint(_LOCKSTEP_MIN, 2 * _LOCKSTEP_MIN), b)
        # silent cycles would send the naive stepper round forever
        reasons.add(check_engines(M, text, len(text), naive=False).halt_reason)
    assert reasons == {None, "no-transition", "silent-cycle"}
    # every 1 costs six steps, so most of these budgets run out inside the
    # silent chain of the first 1 of the second gram window
    M, text = budget_chain_machine(5), rand_text(random.Random(7), 3 * _WINDOW, 2)
    G = gram_length(M)
    p = text.index("1", _WINDOW - _WINDOW % G)
    before = p + 5 * text[:p].count("1")  # steps ahead of reading that 1
    inside = 0
    for max_steps in range(before + 1, before + 7):
        tr = check_engines(M, text, len(text), max_steps=max_steps, naive=False)
        assert tr.halt_reason == "step-budget" and tr.steps == max_steps
        inside += tr.final_state != "s"
    assert inside >= 4
    assert len(lockstep_calls) == 2 * (40 + 6)


def test_engines_agree_on_fixtures_around_crossover_and_window(copy_aut, lockstep_calls):
    rng = random.Random(99)
    text = rand_text(rng, 2 * _WINDOW + 5, 2)
    machines = (copy_aut, odd_projection_transducer(A2), even_projection_transducer(A2))
    budgets = (
        _LOCKSTEP_MIN - 1, _LOCKSTEP_MIN, _LOCKSTEP_MIN + 1,
        _WINDOW - 1, _WINDOW, _WINDOW + 1, 2 * _WINDOW + 5,
    )
    for M in machines:
        for n in budgets:
            tr = check_engines(M, text, n, naive=n < _WINDOW)
            assert tr.consumed == (n,) and not tr.halted
    assert len(lockstep_calls) == 2 * len(machines) * (len(budgets) - 1)


def test_lockstep_halts_without_transition_mid_window(lockstep_calls):
    M = parse_automaton(
        """
        automaton k=2 alphabet=2 initial=a
        a 0,1 b
        b 0,00 a
        b 1,- a
        """
    )  # a has no transition on 1
    for p in (300, _WINDOW - 1, _WINDOW, _WINDOW + 1, 3 * _WINDOW // 2):
        text = "0" * p + "1" + "0" * (3 * _WINDOW)
        if p % 2:
            text = text[:p] + "0" + text[p:]  # reach the 1 in state a
        tr = check_engines(M, text, 3 * _WINDOW, naive=False)
        assert tr.halt_reason == "no-transition"
        assert tr.consumed == (text.index("1"),)
    assert lockstep_calls


def test_lockstep_input_runs_out_on_a_window_edge(copy_aut, lockstep_calls):
    rng = random.Random(5)
    for length in (_WINDOW, 2 * _WINDOW):
        text = rand_text(rng, length, 2)
        tr = check_engines(copy_aut, text, length + 100, naive=False)
        assert tr.halt_reason == "input-exhausted" and tr.consumed == (length,)
        tr = check_engines(copy_aut, text, length, naive=False)
        assert not tr.halted and tr.consumed == (length,)
    assert len(lockstep_calls) == 2 * 4


def test_lockstep_respects_step_budget(copy_aut, lockstep_calls):
    text = rand_text(random.Random(6), 3 * _WINDOW, 2)
    for max_steps in (_LOCKSTEP_MIN + 1, _WINDOW, _WINDOW + 7):
        tr = check_engines(copy_aut, text, 3 * _WINDOW, max_steps=max_steps, naive=False)
        assert tr.halt_reason == "step-budget"
        assert tr.steps == max_steps and tr.consumed == (max_steps,)
    assert len(lockstep_calls) == 2 * 3


def test_lockstep_reaches_a_state_without_transitions(lockstep_calls):
    M = parse_automaton(
        """
        automaton k=2 alphabet=2 initial=a
        a 0,0 a
        a 1,11 z
        """
    )
    p = _WINDOW + 10
    text = "0" * p + "1" + "0" * 50
    tr = check_engines(M, text, len(text), naive=False)
    assert tr.halt_reason == "no-transition" and tr.final_state == "z"
    assert tr.consumed == (p + 1,)
    tr = check_engines(M, text, p + 1, naive=False)  # budget met inside z: clean
    assert not tr.halted and tr.final_state == "z"
    assert len(lockstep_calls) == 2 * 2


def test_machines_with_many_states_run_the_scalar_loop(lockstep_calls):
    rng = random.Random(12)
    for n_states in (_LOCKSTEP_MAX_STATES, _LOCKSTEP_MAX_STATES + 1):
        states = [f"s{i}" for i in range(n_states)]
        trans = [
            (s, ((a,), (rng.randrange(2),)), rng.choice(states))
            for s in states
            for a in range(2)
        ]
        M = KAutomaton(2, A2, states, states[0], trans)
        check_engines(M, rand_text(rng, 2 * _LOCKSTEP_MIN, 2), 2 * _LOCKSTEP_MIN)
    assert len(lockstep_calls) == 2 * 1


# ---------------------------------------------------------------------------
# the lock-step engine on two input tapes


def rand_det_two_tape(rng: random.Random, lag: int, p_edge: float) -> KAutomaton:
    """Deterministic 3-tape machine whose tapes 1 and 2 stay within lag of
    each other.

    Each state has a balance d in 0..lag and reads tape 1 alone (into
    balance d + 1), tape 2 alone (d - 1), both (d), or nothing (silent,
    d), so along any run tape-1 reads minus tape-2 reads change by at
    most lag.  The initial state sits at one end of the balances and the
    single-tape read towards the other end is the likeliest, so runs
    drift across the whole lag, one tape or the other ahead; the initial
    state reads that tape alone.  Silent
    steps go to higher-numbered states only, so there is no silent
    cycle.  Transitions are missing with probability 1 - p_edge, and
    states other than the initial one may have none.
    """
    n = rng.randint(lag + 2, lag + 5)
    balance = list(range(lag + 1)) + [rng.randint(0, lag) for _ in range(n - lag - 1)]
    rng.shuffle(balance)
    states = [f"s{i}" for i in range(n)]
    at = lambda d, above=-1: [s for i, s in enumerate(states) if balance[i] == d and i > above]
    out = lambda: tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
    ahead = rng.choice("12")  # the tape the runs drift to read more of
    initial = rng.choice(at(0 if ahead == "1" else lag))
    trans = []
    for i, s in enumerate(states):
        d = balance[i]
        if s != initial and rng.random() < 0.05:
            continue  # no transitions
        patterns = ["12"] + ["-"] * bool(at(d, i))
        patterns += ["1"] * (1 + 4 * (ahead == "1")) * (d < lag)
        patterns += ["2"] * (1 + 4 * (ahead == "2")) * (d > 0)
        pat = ahead if s == initial and lag else rng.choice(patterns)
        if pat == "-":
            trans.append((s, ((), (), out()), rng.choice(at(d, i))))
            continue
        targets = at(d + pat.count("1") - pat.count("2"))
        for a1 in range(2) if "1" in pat else [None]:
            for a2 in range(2) if "2" in pat else [None]:
                if rng.random() < p_edge:
                    label = (() if a1 is None else (a1,), () if a2 is None else (a2,), out())
                    trans.append((s, label, rng.choice(targets)))
    M = KAutomaton(3, A2, states, initial, trans)
    assert check_l_deterministic(M, 2).deterministic
    return M


def bounded_lag_machines(rng: random.Random) -> list:
    """Machines from rand_det_two_tape: for each (most tape-1, most tape-2
    symbols pending) in the macro table, from (0, 0) to lag 3 either way,
    the first one drawn; then one with missing transitions per lag."""
    machines = []
    for pending in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3)):
        while True:
            M = rand_det_two_tape(rng, max(pending), 1.0)
            X = compile(M, 2).macro
            if tuple(max(len(m[tape]) for m in X.states) for tape in (1, 2)) == pending:
                break
        machines.append(M)
    return machines + [rand_det_two_tape(rng, lag, 0.97) for lag in range(4)]


def test_a_macro_step_leaves_a_suffix_of_what_it_was_fed_pending():
    """The give-back rule's premise: a macro step reads its pending symbols
    and the key it is fed in order, so what stays pending on a tape is a
    suffix of them, on tape 1 exactly ``reads1`` symbols shorter."""
    for M in bounded_lag_machines(random.Random(8282)):
        X, b = compile(M, 2).macro, M.alphabet.size
        sink = X.rows - 1
        for m, (_, p1, p2) in enumerate(X.states[:sink]):
            for key in range(X.keys):
                e = m * X.keys + key
                target = int(X.nb[e]) // X.keys
                if target == sink:
                    continue
                _, t1, t2 = X.states[target]
                fed1, fed2 = p1 + (key // b,), p2 + (key % b,)
                assert fed1[len(fed1) - len(t1) :] == t1 and fed2[len(fed2) - len(t2) :] == t2
                assert len(fed1) - len(t1) == X.reads1[e]


def test_two_tape_lockstep_matches_scalar_and_naive_on_random_machines(lockstep_calls):
    rng = random.Random(8080)
    budgets = (
        _LOCKSTEP_MIN - 1, _LOCKSTEP_MIN + 1, _WINDOW - 1, _WINDOW + 1, 2 * _WINDOW + 5,
    )
    machines = bounded_lag_machines(rng)
    reasons = set()
    for M in machines:
        assert compile(M, 2).macro is not None
        x = rand_text(rng, 2 * _WINDOW + 8, 2)
        y = rand_text(rng, 2 * _WINDOW + 16, 2)
        for n in budgets:
            reasons.add(check_engines(M, (x, y), n, naive=n < _WINDOW).halt_reason)
    assert reasons == {None, "no-transition"}
    assert len(lockstep_calls) == 2 * len(machines) * (len(budgets) - 1)


def test_two_tape_engines_agree_when_y_runs_out(join_aut, lockstep_calls):
    rng = random.Random(8181)
    machines = [join_aut] + bounded_lag_machines(rng)[1:7]
    x = rand_text(rng, 2 * _WINDOW + 5, 2)
    for M in machines:
        for y_len in (0, 100, _WINDOW - 1, _WINDOW + 1):
            y = rand_text(rng, y_len, 2)
            tr = check_engines(M, (x, y), len(x), naive=y_len < _WINDOW)
            if M is join_aut:
                assert tr.halt_reason == "input-exhausted"
                assert tr.consumed == (y_len + 1, y_len)
    assert len(lockstep_calls) == 2 * 4 * len(machines)


def test_two_tape_lockstep_halts_without_transition_mid_window(lockstep_calls):
    M = parse_automaton(
        """
        automaton k=3 alphabet=2 initial=a
        a 0,-,0 b
        a 1,-,1 b
        b -,0,0 a
        """
    )  # b has no transition on y = 1
    for p in (300, _WINDOW - 1, _WINDOW, _WINDOW + 1, 3 * _WINDOW // 2):
        x = rand_text(random.Random(p), 3 * _WINDOW, 2)
        y = "0" * p + "1" + "0" * (3 * _WINDOW)
        tr = check_engines(M, (x, y), 3 * _WINDOW, naive=False)
        assert tr.halt_reason == "no-transition" and tr.consumed == (p + 1, p)
    assert len(lockstep_calls) == 2 * 5


def test_two_tape_lockstep_stops_before_a_dead_end_with_pending_symbols(lockstep_calls):
    M = parse_automaton(
        """
        automaton k=3 alphabet=2 initial=d1
        d1 -,0,- d2
        d1 -,1,- d2
        d2 -,0,- a
        d2 -,1,- a
        a 0,-,0 b
        a 1,-,1 z
        b -,0,0 a
        b -,1,1 a
        """
    )  # reads y two symbols ahead of x, so x symbols are pending; z is a dead end
    X = compile(M, 2).macro  # macro states: d1; d2 and b, each with x = 0 or 1 pending; the sink
    d1, d2, b, sink = 0, 1, 3, 5
    assert X.states == [
        (d1, (), ()), (d2, (0,), ()), (d2, (1,), ()), (b, (0,), ()), (b, (1,), ()), (sink, (), ())
    ]
    for p in (300, _WINDOW - 1, _WINDOW, _WINDOW + 1):
        x = "0" * p + "1" + "0" * (2 * _WINDOW)
        y = rand_text(random.Random(p), 3 * _WINDOW, 2)
        tr = check_engines(M, (x, y), len(x), naive=p < _WINDOW)
        assert tr.halt_reason == "no-transition" and tr.final_state == "z"
        assert tr.consumed == (p + 1, p + 2)
    assert len(lockstep_calls) == 2 * 4


def test_two_tape_lockstep_stops_before_a_silent_cycle(lockstep_calls):
    M = parse_automaton(
        """
        automaton k=3 alphabet=2 initial=a
        a 0,-,0 b
        a 1,-,1 b
        b -,0,0 a
        b -,1,1 c
        c -,-,1 d
        d -,-,- c
        """
    )
    for p in (300, _WINDOW + 1):
        x = rand_text(random.Random(p), 2 * _WINDOW, 2)
        y = "0" * p + "1" + "0" * (2 * _WINDOW)
        tr = check_engines(M, (x, y), 2 * _WINDOW, naive=False)
        assert tr.halt_reason == "silent-cycle" and tr.consumed == (p + 1, p + 1)
    assert len(lockstep_calls) == 2 * 2


def test_two_tape_lockstep_respects_step_budget(join_aut, lockstep_calls):
    rng = random.Random(8282)
    x, y = rand_text(rng, 3 * _WINDOW, 2), rand_text(rng, 3 * _WINDOW, 2)
    # join.aut takes two steps per key, so odd budgets end inside a macro step
    for max_steps in (2 * _LOCKSTEP_MIN + 1, _WINDOW + 7, 2 * _WINDOW, 3 * _WINDOW - 1):
        tr = check_engines(join_aut, (x, y), 3 * _WINDOW, max_steps=max_steps, naive=False)
        assert tr.halt_reason == "step-budget" and tr.steps == max_steps
        assert tr.consumed == ((max_steps + 1) // 2, max_steps // 2)
    assert len(lockstep_calls) == 2 * 4


def test_two_tape_machine_with_unbounded_lag_runs_the_scalar_loop(lockstep_calls):
    M = parse_automaton(
        """
        automaton k=3 alphabet=2 initial=a
        a 0,-,0 b
        a 1,-,1 b
        b -,0,0 c
        b -,1,1 c
        c -,0,0 a
        c -,1,1 a
        """
    )  # two y symbols per x symbol: the pending x symbols pile up
    assert compile(M, 2).macro is None
    rng = random.Random(8383)
    n = 2 * _LOCKSTEP_MIN
    tr = check_engines(M, (rand_text(rng, n, 2), rand_text(rng, 2 * n + 4, 2)), n)
    assert not tr.halted and tr.consumed == (n, 2 * n)
    assert lockstep_calls == []


def test_two_tape_tables_stay_within_the_entry_cap(lockstep_calls):
    # one state that copies x: one macro state and b**2 keys
    assert 181**2 <= engine._LOCKSTEP_MAX_ENTRIES < 182**2
    n = _LOCKSTEP_MIN + 1
    for b, fits in ((181, True), (182, False)):
        trans = [("s", ((x,), (y,), (x,)), "s") for x in range(b) for y in range(b)]
        M = KAutomaton(3, Alphabet(b), ["s"], "s", trans)
        assert (compile(M, 2).macro is not None) == fits
        x, y = RandomSource(M.alphabet, b).prefix(n), RandomSource(M.alphabet, b + 1).prefix(n)
        a, c = (f(M, 2, [LiteralSource(x), LiteralSource(y)], n) for f in (run, run_scalar))
        for f in TRACE_FIELDS:
            assert getattr(a, f) == getattr(c, f), f
        assert a.output == x and not a.halted
    assert lockstep_calls == [n]  # the b = 181 run


def y_ahead_machine(lead: int) -> KAutomaton:
    """Reads lead y symbols, then x and y in turn, writing both: its macro
    states hold up to lead pending x symbols."""
    rows = ["automaton k=3 alphabet=2 initial=d0"]
    for i in range(lead):
        rows += [f"d{i} -,{y},- {f'd{i + 1}' if i + 1 < lead else 'a'}" for y in "01"]
    rows += [f"a {x},-,{x} b" for x in "01"] + [f"b -,{y},{y} a" for y in "01"]
    return parse_automaton("\n".join(rows))


def test_two_tape_machines_with_many_macro_states_run_the_scalar_loop(lockstep_calls):
    rng = random.Random(8484)
    n = 2 * _LOCKSTEP_MIN
    for lead, rows in ((6, 96), (7, None)):  # 2**7 pending words alone reach the cap
        M = y_ahead_machine(lead)
        X = compile(M, 2).macro
        assert (X and X.rows) == rows
        tr = check_engines(M, (rand_text(rng, n, 2), rand_text(rng, n + 16, 2)), n)
        assert not tr.halted and tr.consumed == (n, n + lead)
    assert len(lockstep_calls) == 2 * 1


# ---------------------------------------------------------------------------
# machines without exactly one output tape


def test_engines_agree_on_two_output_tapes(lockstep_calls):
    # odd positions to tape 2, even positions to tape 3
    M = parse_automaton(
        """
        automaton k=3 alphabet=2 initial=o
        o 0,0,- e
        o 1,1,- e
        e 0,-,0 o
        e 1,-,1 o
        """
    )
    G = gram_length(M)
    assert G > 1
    text = rand_text(random.Random(91), 2 * _WINDOW + 2 * G, 2)
    budgets = (
        1, _LOCKSTEP_MIN - 1, _LOCKSTEP_MIN + G - 1, _WINDOW - 1, _WINDOW + 1,
        _WINDOW - _WINDOW % G + G - 1, 2 * _WINDOW + 1, 2 * _WINDOW + G + 1,
    )
    for n in budgets:
        tr = check_engines(M, text, n)
        assert [o.to_text() for o in tr.outputs] == [text[:n][0::2], text[:n][1::2]]
    assert len(lockstep_calls) == 2 * (len(budgets) - 2)


def test_engines_agree_on_two_input_tapes_and_no_output_tape(lockstep_calls):
    # two x symbols, then two y symbols, in turn; nothing written
    M = parse_automaton(
        """
        automaton k=2 alphabet=2 initial=a
        a 0,- b
        a 1,- b
        b 0,- c
        b 1,- c
        c -,0 d
        c -,1 d
        d -,0 a
        d -,1 a
        """
    )
    G = gram_length(M, 2)
    assert G > 1
    rng = random.Random(92)
    x, y = rand_text(rng, 2 * _WINDOW + 2 * G, 2), rand_text(rng, 2 * _WINDOW + 2 * G, 2)
    budgets = (
        1, _LOCKSTEP_MIN - 1, _LOCKSTEP_MIN + G - 1, _WINDOW - 1, _WINDOW + 1,
        _WINDOW - _WINDOW % G + G - 1, 2 * _WINDOW + 1, 2 * _WINDOW + G + 1,
    )
    for n in budgets:
        tr = check_engines(M, (x, y), n)
        assert tr.outputs == () and tr.consumed[0] == n
    assert len(lockstep_calls) == 2 * (len(budgets) - 2)


# ---------------------------------------------------------------------------
# the gram view: lock-step G keys a gather, halts resolved key by key


def gram_length(M, ell=1):
    return compile(M, ell).macro.grams.span


def test_engines_agree_on_budgets_around_gram_boundaries(
    copy_aut, join_aut, lockstep_calls, monkeypatch
):
    rng = random.Random(81)
    x, y = rand_text(rng, 2 * _WINDOW + 64, 2), rand_text(rng, 2 * _WINDOW + 64, 2)
    machines = (
        (copy_aut, x), (odd_projection_transducer(A2), x), (budget_chain_machine(5), x),
        (join_aut, (x, y)),
    )
    runs = 0
    for M, text in machines:
        G = gram_length(M, 1 if isinstance(text, str) else 2)
        assert G > 1
        # budgets = 0, 1 and G - 1 mod G around the first whole grams past
        # _LOCKSTEP_MIN, and around the ends of the first and second gram windows
        budgets = []
        for edge in (_LOCKSTEP_MIN + 2 * G, _WINDOW - _WINDOW % G, 2 * (_WINDOW - _WINDOW % G)):
            base = edge - edge % G
            budgets += [e + r for e in (base - G, base) for r in (0, 1, G - 1)]
        for n in budgets:
            tr = check_engines(M, text, n, naive=False)
            assert tr.consumed[0] == n and not tr.halted
        runs += len(budgets)
    assert len(lockstep_calls) == 2 * runs
    # lock-step feeds every whole gram; the scalar loop gets the last n mod G keys
    left = []
    scalar = CompiledAutomaton._scalar

    def spy(self, r, inputs, n, max_steps):
        left.append(n - r.consumed[0])
        return scalar(self, r, inputs, n, max_steps)

    monkeypatch.setattr(CompiledAutomaton, "_scalar", spy)
    G = gram_length(copy_aut)
    budgets = range(2 * _WINDOW, 2 * _WINDOW + G)
    for n in budgets:
        run(copy_aut, 1, [lit(x + x)], n)
    assert left == [n % G for n in budgets]


def test_lockstep_halts_at_every_offset_inside_a_gram(lockstep_calls):
    # one state that copies 0 and 1 and has no transition on 2
    M = KAutomaton(2, Alphabet(3), ["s"], "s", [("s", ((a,), (a,)), "s") for a in (0, 1)])
    G = gram_length(M)
    assert G > 1
    rng = random.Random(82)
    # a gram of the first window, and the first gram of the second
    for start in (50 * G, _WINDOW - _WINDOW % G):
        for p in range(start, start + G):
            text = rand_text(rng, p, 2) + "2" + rand_text(rng, _WINDOW, 2)
            tr = check_engines(M, text, len(text), naive=False)
            assert tr.halt_reason == "no-transition" and tr.consumed == (p,)
    assert len(lockstep_calls) == 2 * 2 * G


def test_step_budgets_run_out_inside_a_gram(copy_aut, join_aut, lockstep_calls):
    rng = random.Random(83)
    x, y = rand_text(rng, 3 * _WINDOW, 2), rand_text(rng, 3 * _WINDOW, 2)
    # one machine step a key, two (join.aut), and six for every 1 read
    machines = ((copy_aut, x), (join_aut, (x, y)), (budget_chain_machine(5), x))
    runs = 0
    for M, text in machines:
        G = gram_length(M, 1 if isinstance(text, str) else 2)
        for max_steps in range(100 * G, 102 * G):
            tr = check_engines(M, text, 3 * _WINDOW, max_steps=max_steps, naive=False)
            assert tr.halt_reason == "step-budget" and tr.steps == max_steps
            runs += 1
    assert len(lockstep_calls) == 2 * runs


def test_checkpoints_inside_a_gram(copy_aut, lockstep_calls):
    text = rand_text(random.Random(84), 2 * _WINDOW + 5, 2)
    machines = (copy_aut, budget_chain_machine(5), parse_automaton(CHAIN))
    for M in machines:
        G = gram_length(M)
        # record_path off and on, and the scalar loop, agree on every checkpoint
        tr = check_engines(M, text, len(text), naive=False)
        assert len([c for c, _ in tr.checkpoints if c % G]) >= 3
    assert len(lockstep_calls) == 2 * len(machines)


def y_first_copier(p: int) -> KAutomaton:
    """Copies p y symbols, then p x symbols, in turn: its tape-1 reads come
    p at a time, all in the macro step of every p-th key."""
    rows = ["automaton k=3 alphabet=2 initial=y0"]
    for i in range(p):
        nxt = f"y{i + 1}" if i + 1 < p else "x0"
        rows += [f"y{i} -,{a},{a} {nxt}" for a in "01"]
        nxt = f"x{i + 1}" if i + 1 < p else "y0"
        rows += [f"x{i} {a},-,{a} {nxt}" for a in "01"]
    return parse_automaton("\n".join(rows))


def checkpoint_offsets(M, texts, n):
    """Where the power-of-two tape-1 reads, up to n, of M's run on texts
    fall in their grams: the index, mod G, of the key whose macro step makes
    each of them.  A walk through the key table, one key at a time."""
    C = compile(M, len(texts))
    X, G = C.macro, gram_length(M, len(texts))
    e, read, t, offsets = X.ids[(C.initial, (), ())] * X.keys, 0, 1, set()
    for i, syms in enumerate(zip(*texts)):
        e += int("".join(syms), M.alphabet.size)
        read += int(X.reads1[e])
        while t <= min(read, n):
            offsets.add(i % G)
            t *= 2
        if t > n:
            return offsets
        e = int(X.nb[e])
    return offsets


def test_checkpoints_fall_at_every_key_offset_of_a_gram(copy_aut, lockstep_calls):
    rng = random.Random(88)
    # one tape, over three gram windows, the first of which holds 14 checkpoints;
    # read t is key t - 1, so the offsets are (2**i - 1) mod G
    G = gram_length(copy_aut)
    assert G >= 3
    window = _WINDOW - _WINDOW % G
    text = rand_text(rng, 3 * window + G, 2)
    for n in (3 * window, 3 * window + 1, 3 * window + G - 1):
        tr = check_engines(copy_aut, text, n, naive=False)
        assert len([c for c, _ in tr.checkpoints if c <= window]) >= 13
    assert len(checkpoint_offsets(copy_aut, [text], len(text))) >= 3
    # two tapes with lag, G = 3: grams of the y-first copier read 0 or 4 x
    # symbols, those of y_ahead_machine fewer than 3 on entry and 3 after;
    # the lag shifts the checkpoints to every key of a gram
    offsets = set()
    for M in (y_first_copier(4), y_ahead_machine(2), y_ahead_machine(3)):
        assert gram_length(M, 2) == 3
        x, y = rand_text(rng, 2 * _WINDOW + 16, 2), rand_text(rng, 2 * _WINDOW + 16, 2)
        for n in (2 * _WINDOW, 2 * _WINDOW + 1):
            tr = check_engines(M, (x, y), n, naive=False)
            assert not tr.halted and tr.consumed[0] == n
            offsets |= checkpoint_offsets(M, (x, y), n)
    assert offsets == {0, 1, 2}
    assert set(compile(y_first_copier(4), 2).macro.grams.reads1.tolist()) == {0, 4}
    assert len(lockstep_calls) == 2 * (3 + 3 * 2)


def test_step_budget_runs_out_in_the_gram_of_a_checkpoint(copy_aut, join_aut, lockstep_calls):
    rng = random.Random(89)
    x, y = rand_text(rng, 3 * _WINDOW, 2), rand_text(rng, 3 * _WINDOW, 2)
    runs = 0
    # one machine step a key, and two (join.aut): tape-1 read t is key t - 1
    for M, text, per_key in ((copy_aut, x, 1), (join_aut, (x, y), 2)):
        G = gram_length(M, 1 if isinstance(text, str) else 2)
        for t in (1 << 13, 1 << 15):
            g = (t - 1) // G  # the gram that holds checkpoint t
            for max_steps in range(per_key * g * G + 1, per_key * (g + 1) * G):
                tr = check_engines(M, text, 3 * _WINDOW, max_steps=max_steps, naive=False)
                assert tr.halt_reason == "step-budget" and tr.steps == max_steps
                assert (t in [c for c, _ in tr.checkpoints]) == (tr.consumed[0] >= t)
                runs += 1
    assert len(lockstep_calls) == 2 * runs


def test_pending_symbols_outlive_the_last_window(lockstep_calls):
    """The last window feeds fewer keys than the final macro state holds
    pending, so the pending symbols come partly from the window before."""
    rows = ["automaton k=3 alphabet=2 initial=x0"]
    for i in range(5):  # copy 5 x symbols, then 5 y symbols
        nxt = f"x{i + 1}" if i < 4 else "y0"
        rows += [f"x{i} {a},-,{a} {nxt}" for a in "01"]
        nxt = f"y{i + 1}" if i < 4 else "x0"
        rows += [f"y{i} -,{a},{a} {nxt}" for a in "01"]
    M = parse_automaton("\n".join(rows))
    X = compile(M, 2).macro
    assert X.rows == 32 and X.grams.span == 2
    # after k keys, k mod 5 y symbols are pending; both runs feed the same
    # whole grams, and the last window feeds one gram, so it must end where
    # more than G are pending
    G = X.grams.span
    window = _WINDOW - _WINDOW % G
    w = next(w for w in range(1, 6) if (w * window + G) % 5 > G)
    rng = random.Random(93)
    x, y = rand_text(rng, w * window + 16, 2), rand_text(rng, w * window + 16, 2)
    for n in (w * window + G, w * window + G + 1):
        tr = check_engines(M, (x, y), n)
        assert not tr.halted and tr.consumed[0] == n
    assert len(lockstep_calls) == 2 * 2
    m = X.ids[(0, (), ())]  # x0, nothing pending
    for a1, a2 in zip(x[: w * window + G], y[: w * window + G]):
        m = int(X.nb[m * X.keys + 2 * int(a1) + int(a2)]) // X.keys
    assert len(X.states[m][2]) > G


def test_tables_past_the_gram_bound_feed_one_key_a_gather(lockstep_calls):
    rng = random.Random(85)
    b = 10
    for n_states in (11, 110):  # rows * b**2 past the bound; rows * b too
        states = [f"s{i}" for i in range(n_states)]
        trans = [
            (s, ((a,), (rng.randrange(b),)), rng.choice(states)) for s in states for a in range(b)
        ]
        M = KAutomaton(2, Alphabet(b), states, states[0], trans)
        X = compile(M, 1).macro
        assert X.rows * b**2 > _GRAM_MAX_ENTRIES
        assert X.grams is X
        check_engines(M, rand_text(rng, _WINDOW + 7, b), _WINDOW + 7, naive=False)
    assert len(lockstep_calls) == 2 * 2


def loud_copier() -> KAutomaton:
    """Writes every symbol it reads 40 times: a gram view whose byte bound,
    not its entry bound, sets G."""
    return KAutomaton(2, A2, ["s"], "s", [("s", ((a,), (a,) * 40), "s") for a in range(2)])


def test_gram_views_stay_within_their_bounds(copy_aut, join_aut):
    loud = loud_copier()
    machines = (
        (copy_aut, 1), (odd_projection_transducer(A2), 1), (join_aut, 2),
        (budget_chain_machine(5), 1), (parse_automaton(CHAIN), 1), (loud, 1),
    )
    for M, ell in machines:
        X = compile(M, ell).macro
        V = X.grams
        assert 1 < V.span <= engine._CHUNK
        assert X.rows * V.keys <= _GRAM_MAX_ENTRIES
        arrays = (V.nb, V.out_len, V.tags, V.cost, V.reads1, V.entries)
        assert sum(a.nbytes for a in arrays) <= _GRAM_MAX_BYTES
    assert X.rows * V.keys * X.keys <= _GRAM_MAX_ENTRIES  # loud: a longer gram had fit
    text = rand_text(random.Random(86), _WINDOW + 3, 2)
    tr = check_engines(loud, text, len(text), naive=False)
    assert tr.output.to_text() == "".join(a * 40 for a in text)


def test_gram_entries_are_the_key_table_walk_of_their_keys(copy_aut, join_aut):
    rng = random.Random(94)
    machines = [
        (copy_aut, 1), (odd_projection_transducer(A2), 1), (join_aut, 2),
        (parse_automaton(CHAIN), 1), (loud_copier(), 1),
    ]
    machines += [(rand_det_solid(rng, 0.9), 1) for _ in range(4)]
    machines += [(rand_det_with_silent_states(rng), 1) for _ in range(4)]
    machines += [(M, 2) for M in bounded_lag_machines(random.Random(8282))]
    for M, ell in machines:
        X = compile(M, ell).macro
        V = X.grams
        assert V.entries.dtype == np.min_scalar_type(X.rows * X.keys - 1)
        assert V.entries.shape == (X.rows * V.keys, V.span)
        for i, row in enumerate(V.entries.tolist()):
            e, walk = i // V.keys * X.keys, []
            for key in np.unravel_index(i % V.keys, (X.keys,) * V.span):
                walk.append(e + int(key))
                e = int(X.nb[walk[-1]])
            assert row == walk, (M.to_text(), i)


def rare_long_output_machine(L: int, b: int) -> KAutomaton:
    """Writes its first symbol L times, then copies: one long output, on a
    transition taken only from the initial state."""
    trans = [("s", ((a,), (a,) * L), "t") for a in range(b)]
    trans += [("t", ((a,), (a,)), "t") for a in range(b)]
    return KAutomaton(2, Alphabet(b), ["s", "t"], "s", trans)


def test_a_window_of_padded_output_rows_stays_within_its_bound(lockstep_calls, monkeypatch):
    from fsindep.cli import _BASE_BYTES

    assert _WINDOW_TAG_BYTES <= _BASE_BYTES  # the memory estimate's engine windows
    widest = _WINDOW_TAG_BYTES // _WINDOW  # one-byte tags
    # no gram view, as when no gram of 2 keys fits: windows of _WINDOW keys
    monkeypatch.setattr(engine, "_GRAM_MAX_ENTRIES", 0)
    n = 4 * _WINDOW + 5
    text = rand_text(random.Random(90), n, 2)
    peaks = {}
    for L in (1, widest, widest + 1):
        M = rare_long_output_machine(L, 2)
        X = compile(M, 1).macro
        assert (X is not None) == (L <= widest)
        assert X is None or X.grams is X
        tr = check_engines(M, text, n, naive=False)
        assert tr.output.to_text() == text[0] * L + text[1:]
        src = lit(text)
        peaks[L] = traced_peak(lambda: run(M, 1, [src], n))
    # a window's rows, padded to widest tags, and their mask take at most
    # _WINDOW_TAG_BYTES each; the masked gather indexes the tags it keeps
    assert peaks[widest] - peaks[1] <= 2 * _WINDOW_TAG_BYTES + 2 * 8 * _WINDOW
    assert peaks[widest] - peaks[1] >= _WINDOW_TAG_BYTES  # loud: the rows were padded
    assert len(lockstep_calls) == 2 * 3  # check_engines' two and the traced run
    # visited states take the same bound: from c1 a macro step visits the
    # rest of the chain, then reads 1 and visits it all, 2 * chain + 1 states
    # in one-byte rows; a machine with a longer one runs the scalar loop
    text = rand_text(random.Random(92), 2 * _LOCKSTEP_MIN, 2)
    for chain in (widest // 2 - 1, widest // 2):
        M = budget_chain_machine(chain)
        X = compile(M, 1).macro
        assert (X is not None) == (2 * chain + 1 <= widest)
        assert X is None or X.visited.shape[1] == 2 * chain + 1
        del lockstep_calls[:]
        check_engines(M, text, len(text))
        assert len(lockstep_calls) == (0 if X is None else 2)


def test_the_scalar_loop_lists_one_window_of_output_at_a_time():
    # two tags a symbol over 16 windows: the output's chunks and its word
    # take 1 B a tag each, and only one window's tags wait in a list, 8 B each
    M = KAutomaton(2, A2, ["s"], "s", [("s", ((a,), (a, a)), "s") for a in range(2)])
    n = 16 * _WINDOW
    text = rand_text(random.Random(91), n, 2)
    src, got = lit(text), []
    peak = traced_peak(lambda: got.append(run_scalar(M, 1, [src], n, record_path=False)))
    assert peak <= 2 * (2 * n) + 8 * (2 * _WINDOW) + (64 << 10)
    assert got[0].output.to_text() == "".join(a + a for a in text)


def read_in_requests(src, size):
    parts = []
    while True:
        got = src.take_available(size)
        if got.size == 0:
            return "".join(str(a) for part in parts for a in part.tolist())
        parts.append(got)


def test_transducer_output_source_is_request_size_invariant():
    rng = random.Random(404)
    machines = [odd_projection_transducer(A2), copy_automaton(A2)]
    machines += [rand_det_solid(rng, 0.999) for _ in range(3)]
    machines += [rand_det_with_silent_states(rng) for _ in range(2)]
    for M in machines:
        text = rand_text(rng, _WINDOW + 300, 2)
        ref = run(M, 1, [lit(text)], len(text), record_path=False)
        for size in (1, 7, 1023, 4097):
            x = lit(text)
            got = read_in_requests(TransducerOutputSource(M, x), size)
            assert got == ref.output.to_text(), (M.to_text(), size)
            # once the stream has ended, x stands just after the last consumed symbol
            rest = x.take_available(len(text)).tolist()
            assert rest == [int(c) for c in text[ref.consumed[0] :]]


# ---------------------------------------------------------------------------
# exhaustive losslessness check


def rand_det_silent_chains(rng: random.Random, b: int) -> KAutomaton:
    """Deterministic 1-input transducer whose states read, are silent (one
    transition to any state, so silent chains and cycles occur) or have no
    transitions at all."""
    states = [f"s{i}" for i in range(rng.randint(1, 6))]
    trans = []
    for p in states:
        kind = rng.random()
        out = lambda: tuple(rng.randrange(b) for _ in range(rng.randint(0, 2)))
        if kind < 0.1:
            continue
        if kind < 0.35:
            trans.append((p, ((), out()), rng.choice(states)))
            continue
        for a in range(b):
            if rng.random() < 0.9:
                trans.append((p, ((a,), out()), rng.choice(states)))
    return KAutomaton(2, Alphabet(b), states, rng.choice(states), trans)


def budget_chain_machine(chain: int) -> KAutomaton:
    """Copy machine whose every 1 costs a silent chain of the given length.

    ``s`` reads 0 and writes 0; it reads 1 into silent states c1..c<chain>,
    of which c1 writes the 1 and the last leads back to ``s``.
    """
    cs = [f"c{i}" for i in range(1, chain + 1)]
    trans = [("s", ((0,), (0,)), "s"), ("s", ((1,), ()), cs[0])]
    for i, c in enumerate(cs):
        trans.append((c, ((), (1,) if i == 0 else ()), cs[i + 1] if i + 1 < chain else "s"))
    return KAutomaton(2, A2, ["s", *cs], "s", trans)


# machines whose silent steps the losslessness check must resolve
SILENT_FIXTURES = {
    "initial on a silent cycle": """
        automaton k=2 alphabet=2 initial=a
        a -,0 b
        b -,- a
        c 0,0 c
        """,
    "silent chain into a state without transitions": """
        automaton k=2 alphabet=2 initial=a
        a 0,0 a
        a 1,1 e
        e -,10 z
        """,
    "silent self-loop after a 1": """
        automaton k=2 alphabet=2 initial=a
        a 0,1 a
        a 1,- e
        e -,0 e
        """,
    "outputs of a read and its silent chain in order": """
        automaton k=2 alphabet=3 initial=a
        a 0,0 e
        e -,1 f
        f -,0 a
        a 1,001 a
        a 2,100 a
        """,
    "silent initial chain": """
        automaton k=2 alphabet=3 initial=i
        i -,2 j
        j -,- a
        a 0,0 a
        a 1,1 a
        a 2,- a
        """,
}


def test_losslessness_check_matches_per_word_oracle():
    rng = random.Random(505)
    cases = [(rand_det_solid(rng, p), 8) for p in (0.6, 0.8, 0.95, 1.0) for _ in range(8)]
    cases += [(rand_det_with_silent_states(rng), 8) for _ in range(24)]
    cases += [(rand_det_silent_chains(rng, 2), 8) for _ in range(24)]
    cases += [(rand_det_silent_chains(rng, 3), 5) for _ in range(16)]
    cases += [(parse_automaton(text), 6) for text in SILENT_FIXTURES.values()]
    collapsing = KAutomaton(2, A2, ["s"], "s", [("s", ((a,), ()), "s") for a in (0, 1)])
    cases += [(collapsing, 3), (odd_projection_transducer(Alphabet(3)), 4)]
    cases += [(copy_automaton(Alphabet(3)), 5)]
    lossless = 0
    for M, max_len in cases:
        got = bounded_losslessness_check(M, max_len)
        assert got == naive_bounded_losslessness_check(M, max_len), M.to_text()
        lossless += got.lossless
    assert len(cases) >= 100 and 10 <= lossless <= len(cases) - 10


def test_every_word_at_length_one_is_the_key_table_row_of_the_initial_state(
    copy_aut, monkeypatch
):
    rng = random.Random(95)
    machines = [
        copy_aut, odd_projection_transducer(A2), parse_automaton(CHAIN), loud_copier(),
        budget_chain_machine(5),
    ]
    machines += [parse_automaton(text) for text in SILENT_FIXTURES.values()]
    machines += [rand_det_solid(rng, 0.8) for _ in range(4)]
    machines += [rand_det_with_silent_states(rng) for _ in range(4)]
    machines += [rand_det_silent_chains(rng, b) for b in (2, 3) for _ in range(8)]
    for M in machines:
        C = compile(M, 1)
        X, b, sink = C.macro, C.b, len(C.states)
        row = X.ids[(C.initial, (), ())] * X.keys + np.arange(b)
        q, out, out_len, _ = next(C._every_word(1))
        assert q.tolist() == [X.states[m][0] for m in (X.nb[row] // X.keys).tolist()]
        assert out_len.tolist() == X.out_len[row].tolist()
        for a in range(b):  # one output tape: the tags are the symbols
            tags = [int(out[a]) // b**i % b for i in reversed(range(out_len[a]))]
            assert tags == X.tags[row[a], : out_len[a]].tolist(), M.to_text()
        # the step counts, through the step budget each length is checked against
        for budget in range(int(X.cost[row].max()) + 2):
            monkeypatch.setattr(engine, "_step_budget", lambda n, n_states: budget)
            *_, finished = next(C._every_word(1))
            assert finished.tolist() == ((q != sink) & (X.cost[row] <= budget)).tolist()


def test_losslessness_check_on_both_sides_of_63_output_bits():
    # w symbols a read: the longest output at max_len L has w * L bits, so
    # its value is int64 up to 63 bits (all ones at 63: 2**63 - 1) and a
    # Python int past them
    for w, max_len, dtype in ((7, 9, np.int64), (8, 8, object)):
        copy = KAutomaton(2, A2, ["s"], "s", [("s", ((a,), (a,) * w), "s") for a in (0, 1)])
        *_, (q, out, out_len, finished) = compile(copy, 1)._every_word(max_len)
        assert out.dtype == dtype and out[-1] == 2 ** (w * max_len) - 1
        lossy = KAutomaton(2, A2, ["s", "t"], "s", [
            ("s", ((0,), (0,) * w), "s"), ("s", ((1,), (1,) + (0,) * (w - 1)), "t"),
            ("t", ((0,), (1,) * w), "s"), ("t", ((1,), (1,) * w), "s"),
        ])
        for M in (copy, lossy):
            got = bounded_losslessness_check(M, max_len)
            assert got == naive_bounded_losslessness_check(M, max_len)
        assert not got.lossless and got.counterexample == (word("10"), word("11"))


@pytest.mark.parametrize("chain", [223, 240])
def test_losslessness_check_compares_steps_with_each_length_budget(chain):
    # budget 64 L + 4 |Q| + 64 with |Q| = chain + 1; a 1 costs chain + 1 steps, a 0 one
    M = budget_chain_machine(chain)
    assert len(M.states) > 64
    budget = lambda L: 64 * L + 4 * len(M.states) + 64
    if chain == 240:  # 1^6 overruns its budget, 1^6 0 does not
        tr = run(M, 1, [lit("111111")], 6, record_path=False)
        assert tr.halt_reason == "step-budget"
        tr = run(M, 1, [lit("1111110")], 7, record_path=False)
        assert not tr.halted and tr.steps == 6 * 241 + 1 <= budget(7)
        assert tr.output.to_text() == "1111110"
    else:  # 1^6 ends on its last allowed step
        tr = run(M, 1, [lit("111111")], 6, record_path=False)
        assert not tr.halted and tr.steps == budget(6)
    got = bounded_losslessness_check(M, 8)
    assert got == naive_bounded_losslessness_check(M, 8)
    assert got.lossless and 0 < got.words_checked < 2**9 - 2


# ---------------------------------------------------------------------------
# bounded acceptance


def naive_is_merge(x: str, y: str, z: str) -> bool:
    if len(z) != len(x) + len(y):
        return False
    if not z:
        return True
    return (
        bool(x) and x[0] == z[0] and naive_is_merge(x[1:], y, z[1:])
    ) or (bool(y) and y[0] == z[0] and naive_is_merge(x, y[1:], z[1:]))


def test_shuffle_accepts_exactly_the_merges(shuffle_aut):
    rng = random.Random(404)
    for _ in range(200):
        x = rand_text(rng, rng.randint(0, 4), 2)
        y = rand_text(rng, rng.randint(0, 4), 2)
        z = rand_text(rng, rng.randint(0, 8), 2)
        got = accepts_prefix_tuple(
            shuffle_aut, [word(x), word(y), word(z)] if x or y or z else [word(""), word(""), word("")]
        )
        assert got == naive_is_merge(x, y, z), (x, y, z)


def test_join_accepts_alternation_only(join_aut):
    assert accepts_prefix_tuple(join_aut, [word("01"), word("10"), word("0110")])
    assert accepts_prefix_tuple(join_aut, [word("0"), word(""), word("0")])
    assert not accepts_prefix_tuple(join_aut, [word("01"), word("10"), word("0101")])
    assert not accepts_prefix_tuple(join_aut, [word(""), word("1"), word("1")])


# ---------------------------------------------------------------------------
# forward pairs and forward words


def test_forward_pairs_join_pinned(join_aut):
    assert forward_pairs(join_aut, word("0")) == [
        ("q0", 0),
        ("q0", 1),
        ("q1", 0),
        ("q1", 1),
    ]


def test_forward_pairs_copy(copy_aut):
    assert forward_pairs(copy_aut, word("0")) == [("s", 0)]
    assert forward_pairs(copy_aut, word("10")) == [("s", 1)]


def test_forward_pairs_rejects_empty_word(join_aut):
    with pytest.raises(ValueError):
        forward_pairs(join_aut, word(""))


def test_forward_pairs_never_fire_without_oracle_reads():
    M = parse_automaton(
        "automaton k=3 alphabet=2 initial=t\nt 0,-,0 t\nt 1,-,1 t\n"
    )
    for v in ("0", "1", "01"):
        assert forward_pairs(M, word(v)) == []


def test_forward_pairs_match_run_enumeration_oracle(
    join_aut, shuffle_aut, copy_aut
):
    for M in (join_aut, shuffle_aut, copy_aut):
        for vt in ("0", "1", "00", "01", "10", "11", "010"):
            assert forward_pairs(M, word(vt)) == naive_forward_pairs(M, vt), (
                M.to_text(),
                vt,
            )


def test_forward_pairs_match_oracle_on_random_machines():
    rng = random.Random(55)
    checked = 0
    for _ in range(80):
        M = rand_automaton(rng, rng.choice([2, 3]))
        for vt in ("0", "1", "01"):
            assert forward_pairs(M, word(vt)) == naive_forward_pairs(M, vt)
            checked += 1
    assert checked == 240


def test_find_forward_word_join(join_aut):
    r = find_forward_word(join_aut, 3)
    assert r.word == word("0")
    assert r.count == 4 and r.complete
    assert r.pairs == tuple(forward_pairs(join_aut, word("0")))
    assert r.horizon >= 1


def test_find_forward_word_count_monotone(copy_aut):
    c1 = find_forward_word(copy_aut, 1).count
    c3 = find_forward_word(copy_aut, 3).count
    assert c1 <= c3


def test_find_forward_word_degenerate_no_oracle_reads():
    M = parse_automaton("automaton k=3 alphabet=2 initial=t\nt 0,-,0 t\n")
    r = find_forward_word(M, 2)
    assert r.count == 0 and not r.complete
    assert len(r.word) == 1  # any shortest candidate


# ---------------------------------------------------------------------------
# finite forms of the oracle-consumption bounds


def test_oracle_reads_are_separated_by_input_reads(join_aut):
    """Between consecutive tape-2 reads the machine always touches tape 1."""
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(4, 60)
        x, y = rand_text(rng, n, 2), rand_text(rng, 4 * n, 2)
        ref = naive_run(join_aut, 2, [x, y], n)
        reads2 = [i for i, ev in enumerate(ref["events"]) if ev[1]]
        for i, j in zip(reads2, reads2[1:]):
            assert any(ev[0] for ev in ref["events"][i + 1 : j + 1])


def test_oracle_consumption_is_linearly_bounded(join_aut):
    """Tape-2 use stays below K * tape-1 use, K from the v-occurrence density."""
    v = find_forward_word(join_aut, 2).word.to_text()
    rng = random.Random(123)
    n = 512
    x, y = rand_text(rng, n, 2), rand_text(rng, 4 * n, 2)
    ref = naive_run(join_aut, 2, [x, y], n)
    consumed_y = ref["consumed"][1]
    # disjoint occurrences of v in the consumed oracle prefix
    hits, i = 0, 0
    while i + len(v) <= consumed_y:
        if y[i : i + len(v)] == v:
            hits += 1
            i += len(v)
        else:
            i += 1
    assert hits > 0
    K = consumed_y / hits
    c1 = c2 = 0
    for ev in ref["events"]:
        c1, c2 = c1 + ev[0], c2 + ev[1]
        if c1 >= 16:
            assert c2 <= K * c1 + K * len(v)
