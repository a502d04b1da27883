"""Static checks on the library source (no unused imports or private
names), and what a process loads: the package and each command import only
the modules their work needs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fsindep"
COPY = SRC.parent.parent / "fixtures" / "copy.aut"


def test_every_module_level_import_is_used():
    """Each name a module imports at top level appears in it as a name.

    __init__.py imports to re-export, so it is skipped, and so are
    ``from __future__`` imports.
    """
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _attributes_read(trees) -> set:
    """Every attribute name the library reads (``x.a += 1`` reads x.a)."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
    return read


def test_every_private_name_is_referenced():
    """Each private module-level function, class and constant, and each
    private method, defined in a module is used somewhere in the library
    beyond its definition, as a name read or an attribute; and each private
    attribute stored on self is read somewhere in the library."""
    trees = _trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [(module, m.name) for m in node.body if isinstance(m, ast.FunctionDef)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, ast.Assign):
                defined += [(module, t.id) for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.append((module, node.target.id))
    dead = [f"{module}: {name}" for module, name in defined if _private(name) and name not in used]
    assert dead == []
    # and each private attribute a method stores on self is read somewhere
    stored = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    assert sorted(a for a in stored - _attributes_read(trees) if _private(a)) == []


def test_every_field_of_a_private_class_is_read():
    """Each field of a private dataclass and each ``__slots__`` name of a
    private class is read, as an attribute, somewhere in the library, so a
    field that only tests read cannot outlive the code that read it."""
    trees = _trees()
    fields = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _private(node.name)):
                continue
            dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for item in node.body:
                if dataclass and isinstance(item, ast.AnnAssign):
                    fields.append((module, node.name, item.target.id))
                elif isinstance(item, ast.Assign) and ast.unparse(item.targets[0]) == "__slots__":
                    fields += [(module, node.name, elt.value) for elt in item.value.elts]
    assert len(fields) >= 20  # _Run's slots, _Steps' and _MacroTable's fields
    read = _attributes_read(trees)
    assert [f"{m}: {c}.{f}" for m, c, f in fields if f not in read] == []


# ---------------------------------------------------------------------------
# what a process loads


def _loaded(code: str, *argv: str) -> set:
    """The fsindep modules, as ``words`` for ``fsindep.words``, that a fresh
    interpreter has loaded after running code with argv."""
    code += "\nimport sys\nprint(*(m[8:] for m in sys.modules if m.startswith('fsindep.')))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_the_package_and_the_cli_load_no_machine_stream_or_codec_module():
    assert _loaded("import fsindep") == set()
    assert _loaded("import fsindep.cli") == {"cli", "sources", "words"}
    # a machine is compiled, and the engine loaded, only when it first runs
    loading = f"import fsindep; fsindep.load_automaton({str(COPY)!r})"
    assert _loaded(loading) == {"automata", "sources", "words"}


# command line -> the modules it loads besides cli, words and sources
COMMANDS = {
    "generate --gen rand:seed=1 -n 8": "",
    "generate --gen file:path=WORD -n 8": "",
    "generate --gen selfsim -n 8": "blocks perfect",
    "perfect-sequence --stages 2": "blocks perfect",
    "stats --word WORD --max-block 2": "blocks normality",
    "experiment join-normal -n 16 --max-block 2": "blocks normality perfect",
    "check-automaton --automaton COPY --ell 1": "automata",
    "condcompress --gen rand:seed=1 --ref-gen rand:seed=2 -n 16 -k 2": "automata blocks compression",
    "independence --x-gen rand --y-gen rand -n 16 -k 2 --trials 1": "automata blocks compression",
    "experiment measure-one -n 16 -k 2 --trials 1": "automata blocks compression",
    "compress --automaton COPY --gen rand:seed=1 -n 8": "automata blocks compression engine",
    "experiment join-dependence -n 16 -k 2": "automata blocks compression engine perfect",
}


@pytest.mark.parametrize("line, extra", COMMANDS.items())
def test_each_command_loads_only_the_modules_its_work_needs(line, extra, tmp_path):
    w = tmp_path / "w.txt"
    w.write_text("0110" * 8 + "\n")
    argv = line.replace("WORD", str(w)).replace("COPY", str(COPY)).split()
    code = (
        "import contextlib, io, sys\nfrom fsindep import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main(sys.argv[1:]) == 0"
    )
    assert _loaded(code, *argv) == {"cli", "sources", "words", *extra.split()}


# every name the package exported when it imported all its modules, by the
# module it was imported from then
EXPORTED = {
    "words": "Alphabet FiniteWord word occ alocc regroup even odd join read_word_file "
    "write_word_file",
    "sources": "WordSource SourceExhausted PeriodicSource RandomSource LiteralSource "
    "EvenSource OddSource JoinSource file_source derive_seed",
    "automata": "Transition KAutomaton parse_automaton load_automaton Violation "
    "DeterminismReport NotDeterministicError check_l_deterministic RunTrace run "
    "accepts_prefix_tuple forward_pairs ForwardSearchResult find_forward_word "
    "copy_automaton odd_projection_transducer even_projection_transducer",
    "perfect": "PerfectStage is_perfect double_length_extend same_length_extend "
    "build_sequence SelfSimilarSource self_similar_source",
    "normality": "BlockCountTable block_counts discrepancy NormalityReport normality_report "
    "occurrence_profile TailBoundReport hardy_bound_eval",
    "compression": "RatioEstimate TransducerHalted DecodeDeadEnd plain_ratio conditional_ratio "
    "TransducerOutputSource match_run_compress match_run_decompress match_run_automaton "
    "ConditionalModel train_model PrefixCode build_prefix_code cond_encode cond_decode "
    "conditional_ratio_estimate unconditional_ratio_estimate IndependenceReport "
    "independence_report LosslessnessReport bounded_losslessness_check",
}


def test_every_export_is_its_module_object_however_it_is_read():
    import fsindep

    homes = {name: module for module, names in EXPORTED.items() for name in names.split()}
    assert len(homes) == 74 and sorted(fsindep.__all__) == sorted(homes)
    assert set(homes) <= set(dir(fsindep))
    star = {}
    exec("from fsindep import *", star)
    for name, module in homes.items():
        obj = getattr(importlib.import_module(f"fsindep.{module}"), name)
        one = {}
        exec(f"from fsindep import {name}", one)
        assert getattr(fsindep, name) is obj and one[name] is obj and star[name] is obj, name
    # served from the module on every read, never cached in the package
    assert not set(homes) & set(vars(fsindep))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fsindep.no_such_name


def test_an_export_reads_what_its_module_holds_now(monkeypatch):
    import fsindep
    import fsindep.automata as automata

    original = fsindep.run

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(automata, "run", wrapper)
    assert fsindep.run is wrapper
    monkeypatch.undo()
    assert fsindep.run is original


def test_each_moved_exception_exits_3_from_its_command(monkeypatch, tmp_path, capsys):
    from fsindep import automata, cli, compression, sources

    assert automata.NotDeterministicError is sources.NotDeterministicError
    assert compression.TransducerHalted is sources.TransducerHalted
    assert compression.DecodeDeadEnd is sources.DecodeDeadEnd
    # two moves on input 0 from one state: compile refuses it
    aut = tmp_path / "two.aut"
    aut.write_text("automaton k=2 alphabet=2 initial=s\ns 0,0 s\ns 0,1 s\n")
    assert cli.main(["compress", "--automaton", str(aut), "--gen", "rand:seed=3", "-n", "8"]) == 3
    assert "error: automaton is not deterministic" in capsys.readouterr().err
    # no command meets the other two on well-formed input, so its codec raises them
    cases = (
        ("match_run_compress", compression.TransducerHalted,
         ["experiment", "join-dependence", "-n", "64", "-k", "2"]),
        ("conditional_ratio_estimate", compression.DecodeDeadEnd,
         ["condcompress", "--gen", "rand:seed=1", "--ref-gen", "rand:seed=2", "-n", "16"]),
    )
    for name, error, argv in cases:

        def fail(*args, error=error):
            raise error("raised in the codec")

        monkeypatch.setattr(compression, name, fail)
        assert cli.main(argv) == 3, name
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: raised in the codec\n"), name
