"""Command-line interface: generator specs, subcommands, exit codes,
reproducible CSV output."""

import subprocess
import sys

import pytest

from fsindep.cli import GeneratorSpec, main, parse_generator
from conftest import FIXTURES


def run_cli(*argv, env_extra=None):
    """Invoke main() in-process; returns (exit code, printed stdout)."""
    import contextlib
    import io
    import os

    old = {}
    if env_extra:
        for key, val in env_extra.items():
            old[key] = os.environ.get(key)
            os.environ[key] = val
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(list(argv))
    finally:
        for key, val in old.items():
            if val is None:
                del os.environ[key]
            else:
                os.environ[key] = val
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# generator spec mini-language


def test_parse_generator_atoms():
    # defaults stay implicit; explicit parameters keep canonical order
    assert parse_generator("selfsim").canonical() == "selfsim"
    assert parse_generator("rand:seed=3").canonical() == "rand:seed=3"
    assert parse_generator("rand:b=3,seed=1").canonical() == "rand:seed=1,b=3"
    assert (
        parse_generator("periodic:word=011,b=2").canonical()
        == "periodic:word=011,b=2"
    )


def test_parse_generator_wrappers_round_trip():
    for spec in (
        "odd(selfsim:b=2)",
        "even(rand:seed=7,b=3)",
        "join(rand:seed=1,b=2,rand:seed=2,b=2)",
        "join(odd(selfsim:b=2),even(selfsim:b=2))",
    ):
        assert parse_generator(spec).canonical() == spec


def test_parse_generator_file_atom():
    g = parse_generator("file:path=/tmp/w.txt,b=3")
    assert g.kind == "file"
    assert g.canonical() == "file:path=/tmp/w.txt,b=3"


def test_parse_generator_rejects_garbage():
    for bad in ("nope", "", "rand:seed", "join(rand:seed=1,b=2)", "odd(", "rand:x=1"):
        with pytest.raises(ValueError):
            parse_generator(bad)


def test_parse_generator_names_what_is_wrong():
    # one closing parenthesis too many, then one too few
    for bad in ("join(rand,rand))", "join((rand,rand)"):
        with pytest.raises(ValueError, match="unbalanced parentheses"):
            parse_generator(bad)
    for bad in ("periodic", "periodic:b=3"):
        with pytest.raises(ValueError, match="periodic needs word="):
            parse_generator(bad)


def test_parse_generator_checks_seed_base_and_word():
    cases = {
        "rand:seed=x": "generator spec 'rand:seed=x': seed=x is not an integer",
        "selfsim:b=x": "generator spec 'selfsim:b=x': b=x is not an integer",
        "rand:b=1": "generator spec 'rand:b=1': b=1: alphabet size must be >= 2",
        "rand:b=5000000000": "generator spec 'rand:b=5000000000': b=5000000000: alphabet size",
        "file:path=w.txt,b=0": "generator spec 'file:path=w.txt,b=0': b=0: alphabet size",
        "periodic:word=012": "generator spec 'periodic:word=012': word=012: character '2'",
        "odd(periodic:word=2,b=2)": "generator spec 'periodic:word=2,b=2': word=2: character",
    }
    for bad, message in cases.items():
        with pytest.raises(ValueError) as e:
            parse_generator(bad)
        assert str(e.value).startswith(message), bad
    assert parse_generator("periodic:word=012,b=3").canonical() == "periodic:word=012,b=3"
    assert parse_generator("rand:seed=-3").canonical() == "rand:seed=-3"


def test_generator_build_requires_seed_or_default():
    g = parse_generator("rand")
    with pytest.raises(ValueError):
        g.build(None)
    src = g.build(123)
    assert src.take(4).size == 4


def test_join_generator_derives_child_seeds():
    a = parse_generator("join(rand,rand)").build(9)
    b = parse_generator("join(rand,rand)").build(9)
    assert a.take(32).tolist() == b.take(32).tolist()
    c = parse_generator("join(rand,rand)").build(10)
    assert a.clone().take(32).tolist() != c.take(32).tolist()


# ---------------------------------------------------------------------------
# subcommands


def test_generate_writes_selfsim_prefix(tmp_path):
    out = tmp_path / "x.txt"
    rc, _ = run_cli("generate", "--gen", "selfsim", "-n", "16", "--out", str(out))
    assert rc == 0
    assert out.read_text() == "1101100101001011\n"


def test_generate_to_stdout():
    rc, text = run_cli("generate", "--gen", "periodic:word=01", "-n", "6")
    assert rc == 0 and text.strip() == "010101"


def test_generate_bad_spec_exits_2():
    rc, _ = run_cli("generate", "--gen", "wat", "-n", "4")
    assert rc == 2


def test_generate_memory_cap_exits_4(tmp_path):
    rc, _ = run_cli(
        "generate",
        "--gen",
        "rand:seed=1",
        "-n",
        str(1 << 30),
        "--out",
        str(tmp_path / "big.txt"),
        env_extra={"FSINDEP_MAX_MEM_MB": "1"},
    )
    assert rc == 4
    assert not (tmp_path / "big.txt").exists()  # nothing partial on error


def test_a_memory_cap_that_is_no_integer_exits_4(capsys):
    rc, out = run_cli(
        "generate", "--gen", "rand:seed=1", "-n", "8", env_extra={"FSINDEP_MAX_MEM_MB": "abc"}
    )
    assert (rc, out) == (4, "")
    assert "FSINDEP_MAX_MEM_MB is not an integer: 'abc'" in capsys.readouterr().err


def test_join_normal_refuses_an_over_cap_table_before_building(monkeypatch, capsys):
    from fsindep import perfect

    monkeypatch.setattr(perfect, "_TOWERS", {})
    rc, out = run_cli("experiment", "join-normal", "--base", "16")
    assert (rc, out) == (2, "")
    assert "error: block table 16**7 exceeds cap 16777216" in capsys.readouterr().err
    assert perfect._TOWERS == {}  # no stage built


def test_stats_checks_the_memory_cap_before_reading(tmp_path, monkeypatch):
    from fsindep import cli

    w = tmp_path / "w.txt"
    gen = ("generate", "--gen", "selfsim", "-n", str(1 << 16), "--out", str(w))
    assert run_cli(*gen)[0] == 0
    reads = []

    def no_read(*args):
        reads.append(args)
        raise AssertionError("stats read the word file before checking the cap")

    monkeypatch.setattr(cli, "read_word_file", no_read)
    rc, _ = run_cli("stats", "--word", str(w), env_extra={"FSINDEP_MAX_MEM_MB": "1"})
    assert rc == 4
    assert reads == []


def test_stats_reports_and_verdict(tmp_path):
    w = tmp_path / "w.txt"
    run_cli("generate", "--gen", "rand:seed=5", "-n", "4096", "--out", str(w))
    csv_path = tmp_path / "stats.csv"
    rc, text = run_cli(
        "stats", "--word", str(w), "--max-block", "3", "--csv", str(csv_path)
    )
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "ell,blocks,discrepancy,limit,flagged"
    assert len(lines) == 4
    assert "verdict=plausibly-normal" in text


def test_stats_flags_constant_word(tmp_path):
    w = tmp_path / "c.txt"
    w.write_text("0" * 1024 + "\n")
    rc, text = run_cli("stats", "--word", str(w), "--max-block", "2")
    assert rc == 0
    assert "flagged" in text


def test_stats_and_join_normal_refuse_an_empty_word(tmp_path, capsys):
    w, csv_path = tmp_path / "empty.word", tmp_path / "out.csv"
    w.write_text("\n")
    for argv in (
        ("stats", "--word", str(w), "--csv", str(csv_path)),
        ("experiment", "join-normal", "-n", "0"),
    ):
        assert run_cli(*argv) == (2, "")
        assert "error: normality needs a nonempty word" in capsys.readouterr().err
    assert not csv_path.exists()


def test_stats_missing_file_exits_2(tmp_path):
    rc, _ = run_cli("stats", "--word", str(tmp_path / "none.txt"))
    assert rc == 2


def test_check_automaton_accepts_join():
    rc, text = run_cli(
        "check-automaton", "--automaton", str(FIXTURES / "join.aut"), "--ell", "2"
    )
    assert rc == 0
    assert "deterministic: yes" in text


def test_check_automaton_reports_on_three_input_tapes():
    # the run engine takes one or two input tapes, but the report needs no run
    argv = ("check-automaton", "--automaton", str(FIXTURES / "join.aut"), "--ell", "3")
    assert run_cli(*argv) == (0, "deterministic: yes\n")


def test_check_automaton_reports_shuffle_violation():
    rc, text = run_cli(
        "check-automaton", "--automaton", str(FIXTURES / "shuffle.aut"), "--ell", "2"
    )
    assert rc == 0  # reporting is not a failure
    assert "deterministic: no" in text
    assert "read-pattern" in text and "q0" in text


def test_check_automaton_prints_initial_states_as_the_text_format_writes_them(tmp_path):
    path = tmp_path / "two.aut"
    path.write_text("automaton k=2 alphabet=2 initial=a,b\na 0,0 a\nb 1,1 b\n")
    rc, text = run_cli("check-automaton", "--automaton", str(path), "--ell", "1")
    assert rc == 0
    assert text.splitlines() == ["deterministic: no", "violation initial-not-singleton: a,b"]


@pytest.mark.parametrize(
    "argv",
    [
        ("compress", "--automaton", str(FIXTURES / "copy.aut"), "--gen", "rand:seed=3"),
        ("compress", "--automaton", str(FIXTURES / "copy.aut"), "--gen", "selfsim"),
        ("experiment", "join-dependence", "-k", "16"),
        ("experiment", "join-dependence", "-k", "8"),
        ("compress", "--automaton", str(FIXTURES / "copy.aut"), "--gen", "odd(selfsim)"),
        ("generate", "--gen", "rand:seed=3", "--out", "WORD"),
        ("generate", "--gen", "selfsim", "--out", "WORD"),
        ("stats", "--word", "WORD"),
        ("stats", "--word", "WORD", "--base", "3", "--max-block", "14"),
        ("stats", "--word", "WORD", "--max-block", "1"),
        ("experiment", "join-normal"),
        ("stats", "--word", "WORD", "--base", "3", "--max-block", "15"),
        ("stats", "--word", "WORD", "--max-block", "22"),
        # specs that read more than n symbols
        ("generate", "--gen", "odd(odd(odd(selfsim)))", "--out", "WORD"),
        ("compress", "--automaton", str(FIXTURES / "copy.aut"), "--gen", "odd(odd(odd(selfsim)))"),
        ("generate", "--gen", "odd(odd(odd(periodic:word=011)))", "--out", "WORD"),
        ("compress", "--automaton", str(FIXTURES / "copy.aut"), "--input", "LONG"),
        ("generate", "--gen", "file:path=LONG", "--out", "WORD"),
        # two specs, and trials
        ("condcompress", "--gen", "rand:seed=1", "--ref-gen", "rand:seed=2"),
        ("condcompress", "--gen", "selfsim", "--ref-gen", "odd(selfsim)"),
        ("independence", "--x-gen", "rand", "--y-gen", "rand", "--trials", "2"),
        ("experiment", "measure-one", "--trials", "2"),
        # self-similar towers of bases past 2
        ("generate", "--gen", "selfsim:b=3", "--out", "WORD"),
        ("generate", "--gen", "selfsim:b=5", "--out", "WORD"),
        ("generate", "--gen", "selfsim:b=16", "--out", "WORD"),
        ("experiment", "join-dependence", "--base", "3"),
        ("experiment", "join-dependence", "--base", "5", "-k", "4"),
        ("experiment", "join-normal", "--base", "3"),
    ],
)
def test_memory_estimate_bounds_the_traced_peak(argv, monkeypatch, tmp_path):
    import tracemalloc

    from fsindep import cli, perfect

    word_file, long_file = str(tmp_path / "w.txt"), str(tmp_path / "long.txt")
    argv = [a.replace("WORD", word_file).replace("LONG", long_file) for a in argv]

    def args_for(n):
        if any(long_file in a for a in argv):
            # a word file 8 times longer than the prefix the command takes
            gen = ("generate", "--gen", "rand:seed=5", "-n", str(8 * n), "--out", long_file)
            assert run_cli(*gen)[0] == 0
        if argv[0] != "stats":
            return [*argv, "-n", str(n)]
        # stats takes its length from the word file
        b = argv[argv.index("--base") + 1] if "--base" in argv else "2"
        gen = ("generate", "--gen", f"rand:seed=3,b={b}", "-n", str(n), "--out", word_file)
        assert run_cli(*gen)[0] == 0
        return argv

    estimates = []
    check = cli._check_memory
    monkeypatch.setattr(cli, "_check_memory", lambda b: estimates.append(b) or check(b))
    run_cli(*args_for(1024))  # first calls fill lazy caches
    sizes = (1024, 4096 + 32, 16384 + 32)
    if "odd(selfsim)" in argv:
        # odd() reads 2n self-similar symbols, so n just past 2**19 makes
        # the prefix grow by a whole stage
        sizes += ((1 << 19) + 16,)
    if argv[0] == "compress" or argv[1:2] == ["join-dependence"]:
        # runs the lock-step engine over several windows
        sizes += ((1 << 16) + 32,)
    if argv[0] == "stats":
        # long enough for the per-symbol part to outweigh the fixed one
        sizes += (1 << 19,)
    # just past a power of two, where the self-similar prefix doubles; the
    # fixed part no longer hides how tight the per-symbol part is
    upper_n = (1 << 19) + 32
    sizes += (upper_n,)
    for n in sizes:
        args = args_for(n)
        # no self-similar stages built yet, as in a fresh process
        monkeypatch.setattr(perfect, "_TOWERS", {})
        tracemalloc.start()
        try:
            rc, _ = run_cli(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert estimates[-1] >= peak, (argv, n, estimates[-1], peak)
        if n == upper_n:
            # and not far above it: a tower the specs share is charged once
            assert estimates[-1] <= 4 * peak, (argv, n, estimates[-1], peak)


@pytest.mark.parametrize("base", [2, 3])
def test_join_dependence_builds_no_larger_a_tower_than_it_is_charged_for(base, monkeypatch):
    from fsindep import cli, perfect

    charged = []
    estimate = cli._estimate

    def charging(n, specs, *rest):
        charged.append(specs)
        return estimate(n, specs, *rest)

    monkeypatch.setattr(cli, "_estimate", charging)
    monkeypatch.setattr(perfect, "_TOWERS", {})
    n = (1 << 16) + 32  # at base 2 the match run reads 4n symbols of x, just past 2**18
    argv = ("experiment", "join-dependence", "--base", str(base), "-n", str(n), "-k", "8")
    assert run_cli(*argv)[0] == 0
    reads = {}
    for spec in charged[-1]:
        spec.atom_bytes(n, reads)
    tower = base  # _estimate's tower: whole stages, the first b**j >= what the specs read
    while tower < reads[base]:
        tower *= base
    assert perfect._TOWERS[base].starts[-1] <= tower


def test_main_calls_in_one_process_print_what_each_prints_alone():
    calls = [
        ("perfect-sequence",),
        ("experiment", "join-normal", "-n", "4096", "--max-block", "3"),
        ("generate", "--gen", "selfsim:b=3", "-n", "40"),
        ("perfect-sequence", "--stages", "4", "--base", "3"),
    ]
    alone = [
        subprocess.run(
            [sys.executable, "-m", "fsindep", *argv], capture_output=True, text=True
        ).stdout
        for argv in calls
    ]
    # each call follows one that argparse rejects half-way through its options
    rejected = [
        ("perfect-sequence", "--stages", "3", "--base", "x"),
        ("experiment", "no-such-experiment", "-n", "8"),
        ("generate", "--gen", "selfsim"),
        ("perfect-sequence", "--stages", "2", "--bogus"),
    ]
    for bad, argv, want in zip(rejected, calls, alone):
        with pytest.raises(SystemExit) as exc:
            run_cli(*bad)
        assert exc.value.code == 2
        assert run_cli(*argv) == (0, want), argv


@pytest.mark.parametrize(
    "argv, named",
    [
        (("experiment", "join-normal", "--seed", "3"), "--seed"),
        (("experiment", "join-dependence", "--trials", "2"), "--trials"),
        (("experiment", "measure-one", "--base", "3"), "--base"),
        (("experiment", "no-such-experiment"), "no-such-experiment"),
    ],
)
def test_an_experiment_refuses_an_option_it_does_not_read(argv, named, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


# every command with a --base option; an input file that does not exist,
# since argparse refuses the option before any file is opened
_BASE_COMMANDS = [
    ("stats", "--word", "missing.word"),
    ("compress", "--automaton", str(FIXTURES / "copy.aut"), "--gen", "rand:seed=3", "-n", "8"),
    ("compress", "--automaton", str(FIXTURES / "copy.aut"), "--input", "missing.word", "-n", "8"),
    ("condcompress", "--gen", "rand:seed=1", "--ref-gen", "rand:seed=2", "-n", "8"),
    ("experiment", "join-dependence", "-n", "64", "-k", "4"),
    ("experiment", "join-normal", "-n", "64"),
    ("perfect-sequence", "--stages", "3"),
]


@pytest.mark.parametrize("argv", _BASE_COMMANDS)
@pytest.mark.parametrize("base, message", [("1", "must be >= 2"), ("x", "invalid literal")])
def test_base_is_checked_where_it_is_parsed(argv, base, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--base", base])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --base" in err and message in err
    assert "selfsim" not in err  # no spec the user did not type


# Invocations of every command that, taken together, take each path that
# reads an option: compress reads --base only for an --input word file.
# WORD is a word file and OUT a path to write.
_OPTION_SCRIPTS = {
    "generate": [("--gen", "selfsim", "-n", "8"), ("--gen", "selfsim", "-n", "8", "--out", "OUT")],
    "stats": [("--word", "WORD", "--max-block", "3", "--csv", "OUT")],
    "check-automaton": [("--automaton", str(FIXTURES / "join.aut"), "--ell", "2")],
    "compress": [
        ("--automaton", str(FIXTURES / "copy.aut"), "--gen", "rand:seed=3", "-n", "64"),
        ("--automaton", str(FIXTURES / "copy.aut"), "--input", "WORD", "-n", "64", "--csv", "OUT"),
    ],
    "condcompress": [("--input", "WORD", "--ref", "WORD", "-n", "64", "-k", "4", "--csv", "OUT")],
    "independence": [
        ("--x-gen", "rand", "--y-gen", "rand", "-n", "64", "-k", "4", "--trials", "2",
         "--csv", "OUT"),
    ],
    "experiment join-dependence": [("-n", "64", "-k", "4", "--csv", "OUT")],
    "experiment measure-one": [("-n", "64", "-k", "4", "--trials", "2", "--csv", "OUT")],
    "experiment join-normal": [("-n", "64", "--max-block", "3", "--csv", "OUT")],
    "perfect-sequence": [("--stages", "3", "--csv", "OUT")],
}


def _command_names(parser, prefix=""):
    """The name of every command of parser, with the group it is in."""
    import argparse

    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return [prefix.strip()]
    return [
        name
        for sub, p in groups[0].choices.items()
        for name in _command_names(p, f"{prefix} {sub}")
    ]


def test_the_option_guard_scripts_every_command():
    from fsindep import cli

    assert sorted(_command_names(cli._parser())) == sorted(_OPTION_SCRIPTS)


@pytest.mark.parametrize("command", sorted(_OPTION_SCRIPTS))
def test_each_command_reads_every_option_it_declares(command, tmp_path):
    import argparse

    from fsindep import cli

    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    word_file = tmp_path / "w.txt"
    word_file.write_text("0110" * 64 + "\n")
    paths = {"WORD": str(word_file), "OUT": str(tmp_path / "out.txt")}
    declared, read = set(), set()
    for script in _OPTION_SCRIPTS[command]:
        argv = [*command.split(), *(paths.get(a, a) for a in script)]
        args = cli._parser().parse_args(argv, namespace=Recorder())
        declared |= set(vars(args))
        reads.clear()  # parsing reads the namespace too
        assert args.fn(args) == 0
        read |= reads
    assert declared - read - {"fn", "command", "name"} == set(), command


def test_compress_copy_ratio_is_one():
    rc, text = run_cli(
        "compress",
        "--automaton",
        str(FIXTURES / "copy.aut"),
        "--gen",
        "rand:seed=3",
        "-n",
        "4096",
    )
    assert rc == 0
    assert "1.0" in text


def test_compress_prints_one_row_per_count(tmp_path):
    # the machine writes a 0 after each read: the final row at n = 8 counts it
    aut = tmp_path / "pad.aut"
    aut.write_text("automaton k=2 alphabet=2 initial=q0\nq0 0,0 q1\nq0 1,1 q1\nq1 -,0 q0\n")
    rc, text = run_cli("compress", "--automaton", str(aut), "--gen", "rand:seed=1", "-n", "8")
    assert rc == 0
    assert text.split() == ["n_in,n_out,ratio", "1,1,1.0", "2,3,1.5", "4,7,1.75", "8,16,2.0"]


def test_compress_rejects_three_tape_machine():
    rc, _ = run_cli(
        "compress",
        "--automaton",
        str(FIXTURES / "join.aut"),
        "--gen",
        "rand:seed=3",
        "-n",
        "64",
    )
    assert rc == 2


def test_compress_halted_run_exits_3(tmp_path):
    aut = tmp_path / "partial.aut"
    aut.write_text("automaton k=2 alphabet=2 initial=s\ns 0,0 s\n")
    rc, _ = run_cli(
        "compress", "--automaton", str(aut), "--gen", "rand:seed=3", "-n", "64"
    )
    assert rc == 3


def test_condcompress_same_stream_is_tiny():
    rc, text = run_cli(
        "condcompress",
        "--gen",
        "rand:seed=11",
        "--ref-gen",
        "rand:seed=11",
        "-n",
        "4096",
        "-k",
        "8",
    )
    assert rc == 0
    assert "0.125" in text


def test_condcompress_alignment_error_exits_2():
    rc, _ = run_cli(
        "condcompress",
        "--gen",
        "rand:seed=1",
        "--ref-gen",
        "rand:seed=2",
        "-n",
        "100",
        "-k",
        "8",
    )
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("condcompress", "--gen", "rand:seed=1", "--ref-gen", "rand:seed=2"),
        ("independence", "--x-gen", "rand", "--y-gen", "rand"),
        ("experiment", "join-dependence"),
    ],
)
def test_block_length_zero_exits_2(argv, capsys):
    assert run_cli(*argv, "-n", "64", "-k", "0")[0] == 2
    assert capsys.readouterr().err == "error: block length must be at least 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("experiment", "measure-one", "-n", "64", "--trials", "2", "--jobs", "0"),
        ("independence", "--x-gen", "rand", "--y-gen", "rand", "-n", "64", "--jobs", "-3"),
    ],
)
def test_jobs_below_one_exit_2_before_any_output(argv, capsys):
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == "error: --jobs must be at least 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("independence", "--x-gen", "rand", "--y-gen", "rand"),
        ("experiment", "measure-one", "--gen", "rand"),
    ],
)
@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("csv", [False, True])
def test_trials_below_one_exit_2_before_any_output(argv, trials, csv, tmp_path, capsys):
    out = tmp_path / "t.csv"
    extra = ("--csv", str(out)) if csv else ()
    assert run_cli(*argv, "-n", "64", "-k", "4", "--trials", trials, *extra) == (2, "")
    assert capsys.readouterr().err == "error: --trials must be at least 1\n"
    assert not out.exists()


def test_condcompress_reads_word_files_and_needs_a_source(tmp_path, capsys):
    x, y = str(tmp_path / "x.txt"), str(tmp_path / "y.txt")
    for spec, path in (("rand:seed=11", x), ("rand:seed=12", y)):
        assert run_cli("generate", "--gen", spec, "-n", "4096", "--out", path)[0] == 0
    common = ("condcompress", "-n", "4096", "-k", "8")
    by_gen = run_cli(*common, "--gen", "rand:seed=11", "--ref-gen", "rand:seed=12")
    assert by_gen[0] == 0
    assert run_cli(*common, "--input", x, "--ref", y) == by_gen
    capsys.readouterr()
    assert run_cli(*common, "--ref", y)[0] == 2
    assert "need --gen or --input" in capsys.readouterr().err
    assert run_cli(*common, "--gen", "rand:seed=11")[0] == 2
    assert "need --ref-gen or --ref" in capsys.readouterr().err


def test_independence_csv_shape(tmp_path):
    out = tmp_path / "r.csv"
    rc, _ = run_cli(
        "independence",
        "--x-gen",
        "rand",
        "--y-gen",
        "rand",
        "-n",
        "1024",
        "-k",
        "4",
        "--trials",
        "3",
        "--seed",
        "7",
        "--csv",
        str(out),
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,n,k,rho_x,rho_y,rho_x_given_y,rho_y_given_x"
    assert len(lines) == 4


def test_independence_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "independence",
        "--x-gen", "rand", "--y-gen", "rand",
        "-n", "512", "-k", "4", "--trials", "2", "--seed", "99",
    ]
    assert run_cli(*args, "--csv", str(a))[0] == 0
    assert run_cli(*args, "--csv", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_independence_parallel_equals_serial(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "independence",
        "--x-gen", "rand", "--y-gen", "rand",
        "-n", "512", "-k", "4", "--trials", "4", "--seed", "5",
    ]
    assert run_cli(*args, "--jobs", "1", "--csv", str(a))[0] == 0
    assert run_cli(*args, "--jobs", "2", "--csv", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_independence_memory_check_counts_every_worker(monkeypatch):
    from concurrent import futures

    from fsindep import cli

    pools = []
    monkeypatch.setattr(futures, "ProcessPoolExecutor", lambda **kw: pools.append(kw))
    monkeypatch.setenv("FSINDEP_MAX_MEM_MB", "2")
    # one trial fits in 2 MiB, two do not
    n = 65536
    specs = [cli.parse_generator("rand")] * 2
    assert cli._estimate(n, specs) <= 2 << 20 < cli._estimate(n, specs, workers=2)
    args = ["independence", "--x-gen", "rand", "--y-gen", "rand", "-n", str(n), "--trials", "2"]
    with pytest.raises(cli.MemoryCapExceeded):
        cli._cmd_independence(cli._parser().parse_args([*args, "--jobs", "2"]))
    assert pools == []  # refused before any worker started
    rc, text = run_cli(*args, "--jobs", "1")
    assert rc == 0 and len(text.splitlines()) == 3  # header and two trials


def test_measure_one_memory_check_counts_every_worker(monkeypatch):
    from concurrent import futures

    from fsindep import cli

    pools = []
    monkeypatch.setattr(futures, "ProcessPoolExecutor", lambda **kw: pools.append(kw))
    monkeypatch.setenv("FSINDEP_MAX_MEM_MB", "2")
    n = 1 << 17  # one trial fits in 2 MiB, two do not
    args = ["experiment", "measure-one", "--gen", "rand", "-n", str(n), "--trials", "2"]
    with pytest.raises(cli.MemoryCapExceeded):
        cli._cmd_measure_one(cli._parser().parse_args([*args, "--jobs", "2"]))
    assert pools == []  # refused before any worker started
    rc, text = run_cli(*args, "--jobs", "1")
    assert rc == 0 and len(text.splitlines()) == 5  # header, two trials, min, median


def test_measure_one_rejects_a_bad_spec_before_any_worker(monkeypatch, capsys):
    from concurrent import futures

    from fsindep import cli

    pools = []
    monkeypatch.setattr(futures, "ProcessPoolExecutor", lambda **kw: pools.append(kw))
    args = ("experiment", "measure-one", "--gen", "wat", "--trials", "2", "--jobs", "2")
    assert run_cli(*args)[0] == 2
    assert pools == []
    assert capsys.readouterr().err == "error: unknown generator kind 'wat'\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("rand:seed=x", "seed=x is not an integer"),
        ("selfsim:b=x", "b=x is not an integer"),
        ("rand:b=1", "b=1: alphabet size must be >= 2, got 1"),
        ("rand:b=5000000000", "b=5000000000: alphabet size 5000000000 too large"),
    ],
)
def test_independence_rejects_a_bad_spec_parameter_before_any_worker(
    spec, message, monkeypatch, capsys
):
    from concurrent import futures

    pools = []
    monkeypatch.setattr(futures, "ProcessPoolExecutor", lambda **kw: pools.append(kw))
    args = ("independence", "--x-gen", spec, "--y-gen", "rand", "-n", "64")
    args += ("--trials", "2", "--jobs", "2")
    assert run_cli(*args) == (2, "")
    assert pools == []
    assert capsys.readouterr().err == f"error: generator spec {spec!r}: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--gen", "selfsim", "-n", "1024"),
        ("generate", "--gen", "odd(file:path=WORD)", "-n", "256"),
        ("stats", "--word", "WORD"),
        ("compress", "--automaton", str(FIXTURES / "copy.aut"), "--gen", "rand:seed=3", "-n", "1024"),
        ("compress", "--automaton", str(FIXTURES / "copy.aut"), "--input", "WORD", "-n", "1024"),
        ("compress", "--automaton", str(FIXTURES / "copy.aut"), "--gen", "file:path=WORD", "-n", "1024"),
        ("condcompress", "--gen", "selfsim", "--ref-gen", "rand:seed=1", "-n", "1024"),
        ("condcompress", "--input", "WORD", "--ref", "WORD", "-n", "1024"),
        ("condcompress", "--gen", "join(file:path=WORD,rand:seed=2)", "--ref", "WORD", "-n", "1024"),
        ("independence", "--x-gen", "file:path=WORD", "--y-gen", "rand", "-n", "1024", "--trials", "2"),
        ("experiment", "join-dependence", "-n", "1024"),
        ("experiment", "measure-one", "--gen", "file:path=WORD", "-n", "1024", "--trials", "2"),
        ("experiment", "join-normal", "-n", "1024"),
        ("perfect-sequence", "--stages", "6"),
    ],
)
def test_memory_cap_is_checked_once_before_any_file_is_read(argv, monkeypatch, tmp_path):
    from fsindep import cli, words

    w = tmp_path / "w.txt"
    w.write_text("0110" * 256 + "\n")
    argv = [a.replace("WORD", str(w)) for a in argv]
    events = []
    check, read = cli._check_memory, words.read_word_file
    monkeypatch.setattr(cli, "_check_memory", lambda b: events.append("check") or check(b))

    def spy_read(*args):
        events.append("read")
        return read(*args)

    # stats reads through the CLI's import, file specs through the words module's
    monkeypatch.setattr(cli, "read_word_file", spy_read)
    monkeypatch.setattr(words, "read_word_file", spy_read)
    assert run_cli(*argv)[0] == 0
    assert events.count("check") == 1 and events[0] == "check", events
    assert ("read" in events) == any(str(w) in a for a in argv), events


def test_memory_refusal_rounds_the_estimate_up(monkeypatch):
    from fsindep import cli

    monkeypatch.setenv("FSINDEP_MAX_MEM_MB", "1")
    cli._check_memory(1 << 20)  # exactly the cap fits
    with pytest.raises(cli.MemoryCapExceeded, match=r"^estimated working set 2 MiB exceeds FSINDEP_MAX_MEM_MB=1$"):
        cli._check_memory((1 << 20) + 1)


def test_experiment_join_dependence_shows_the_witness(tmp_path):
    out = tmp_path / "dep.csv"
    rc, _ = run_cli(
        "experiment", "join-dependence", "-n", "4096", "-k", "8",
        "--csv", str(out),
    )
    assert rc == 0
    rows = dict(
        line.split(",") for line in out.read_text().splitlines()[1:]
    )
    assert float(rows["rho_odd"]) == 1.0
    assert float(rows["rho_odd_given_even_matchrun"]) == 0.125


def test_experiment_measure_one_summary(tmp_path):
    out = tmp_path / "m.csv"
    rc, _ = run_cli(
        "experiment", "measure-one", "-n", "1024", "-k", "4",
        "--trials", "3", "--seed", "2", "--csv", str(out),
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[-2].startswith("min,") and lines[-1].startswith("median,")


def test_experiment_join_normal(tmp_path):
    out = tmp_path / "jn.csv"
    rc, _ = run_cli(
        "experiment", "join-normal", "-n", "4096", "--max-block", "4",
        "--csv", str(out),
    )
    assert rc == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert rows["join_roundtrip"] == "1"
    assert rows["flagged"] == "0"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("condcompress", "--gen", "rand:seed=11,b=3", "--ref-gen", "selfsim:b=3",
             "-n", "4098", "-k", "3"),
            "34f91a38937c103ab976673268ab05d28b3984e1cb5bff9076d663f357b264cc",
        ),
        (
            ("independence", "--x-gen", "rand", "--y-gen", "odd(selfsim)",
             "-n", "4096", "-k", "4", "--trials", "2", "--seed", "7"),
            "1ec965e00bfdbd741fc290b2dc44f0daf3b97d9dcfc8e96fc33fa02422a01c4e",
        ),
        (
            ("experiment", "join-dependence", "-n", "4096", "-k", "8"),
            "5e4b926e3fd5f2004c4b25d76175c03dbeab6783114a0b1d9dcfb881cf0d834a",
        ),
        (
            ("experiment", "measure-one", "--gen", "rand:b=3", "-n", "4104", "-k", "3",
             "--trials", "2", "--seed", "3"),
            "23ac82e3e27a3f20af2bec27312d10cfc46ae7b65c7d97753cef03cea01f9012",
        ),
    ],
    ids=["condcompress", "independence", "join-dependence", "measure-one"],
)
def test_block_coder_csv_bytes_are_pinned(argv, digest, tmp_path):
    import hashlib

    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--csv", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_perfect_sequence_table(tmp_path):
    out = tmp_path / "p.csv"
    rc, _ = run_cli("perfect-sequence", "--stages", "8", "--csv", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,ell,length,rule,perfect,word"
    assert len(lines) == 9
    assert all(line.split(",")[4] == "1" for line in lines[1:])
    first = lines[1].split(",")
    assert first[3] == "seed" and first[5] == "01"
    # words longer than 64 symbols are elided
    assert lines[8].split(",")[5] == ""


def test_perfect_sequence_rerun_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("perfect-sequence", "--stages", "10", "--csv", str(a))
    run_cli("perfect-sequence", "--stages", "10", "--csv", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_importing_the_cli_skips_the_process_pool_and_statistics():
    # about 20 ms of every command's start-up; only --jobs > 1 and trial summaries use them
    code = "import sys, fsindep.cli; print({'concurrent.futures', 'statistics'} & set(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "set()"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fsindep", "generate", "--gen", "selfsim", "-n", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "11011001"
