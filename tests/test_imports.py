"""Every module under src/bistack uses each name it imports."""

import ast
from pathlib import Path

import bistack

SRC = Path(bistack.__file__).parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {p.name: _unused_imports(p) for p in sorted(SRC.glob("*.py"))
              if p.name != "__init__.py"}
    assert {m: names for m, names in unused.items() if names} == {}
