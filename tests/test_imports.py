"""Static checks on the library source: no unused imports or private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fsindep"


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


def test_every_private_name_is_referenced():
    """Each private module-level function, class and constant, and each
    private method, defined in a module is used somewhere in the library
    beyond its definition, as a name read or an attribute; and each private
    attribute stored on self is read somewhere in the library."""
    paths = sorted(SRC.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in paths}
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
    stored, read = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)  # x.a += 1 reads x.a
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "self":
                    stored.add(node.attr)
    assert sorted(a for a in stored - read if _private(a)) == []
