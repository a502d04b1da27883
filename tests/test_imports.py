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
