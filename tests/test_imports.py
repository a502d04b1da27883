"""Static check on the library source: no unused module-level imports."""

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
