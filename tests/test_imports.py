"""Every module under src/bistack imports at module level only, uses
each name it imports and every private helper it defines, and every
public function and class method it defines is referenced from
src/bistack or the tests.  Every boundary that the traced benchmark run
wraps names an attribute of the toolkit."""

import ast
import importlib
from collections import Counter
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


def _local_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted("%s:%d" % (fn.name, node.lineno)
                  for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)
                  if isinstance(node, (ast.Import, ast.ImportFrom)))


def test_no_function_body_imports():
    local = {p.name: _local_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert {m: where for m, where in local.items() if where} == {}


def _names(node):
    """How often each name and attribute occurs under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _trees(folder):
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(folder.glob("*.py"))}


def _unreferenced(trees, used, private):
    """module.function for each module-level function, private or public
    by its name, whose name occurs in used only inside its own body."""
    return sorted("%s.%s" % (m, node.name)
                  for m, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name.startswith("_") == private
                  and not node.name.startswith("__")
                  and used[node.name] == _names(node)[node.name])


def test_every_private_helper_is_used():
    trees = _trees(SRC)
    used = sum((_names(tree) for tree in trees.values()), Counter())
    assert _unreferenced(trees, used, private=True) == []


def test_every_public_function_is_referenced():
    trees = _trees(SRC)
    tests = _trees(Path(__file__).parent)
    used = sum((_names(tree) for tree in [*trees.values(), *tests.values()]),
               Counter())
    assert _unreferenced(trees, used, private=False) == []


def _attributes(node):
    """How often each name occurs as an attribute under node."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute))


def test_every_method_is_referenced():
    trees = _trees(SRC)
    tests = _trees(Path(__file__).parent)
    used = sum((_attributes(tree)
                for tree in [*trees.values(), *tests.values()]), Counter())
    unused = sorted("%s.%s.%s" % (m, cls.name, fn.name)
                    for m, tree in trees.items() for cls in tree.body
                    if isinstance(cls, ast.ClassDef)
                    for fn in cls.body if isinstance(fn, ast.FunctionDef)
                    and not fn.name.startswith("__")
                    and used[fn.name] == _attributes(fn)[fn.name])
    assert unused == []


def test_every_benchmark_boundary_names_a_toolkit_attribute(monkeypatch):
    monkeypatch.syspath_prepend(
        str(Path(__file__).parent.parent / "perfbench"))
    layers = importlib.import_module("layers")
    missing = []
    for module, cls, attr, *_ in (layers.RUN_BOUNDARIES
                                  + layers.SETUP_BOUNDARIES):
        owner = importlib.import_module("bistack." + module)
        if cls is not None:
            owner = getattr(owner, cls)
        if attr not in vars(owner):
            missing.append((module, cls, attr))
    assert missing == []
