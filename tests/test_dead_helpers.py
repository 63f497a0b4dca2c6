"""Every function, method and class defined in `src/` is named somewhere
else in `src/`: called, read as an attribute, subclassed or decorated with.
A helper that only tests call is dead code kept alive by its tests.

Names count by spelling, not by scope, with one narrowing for methods. A
function or class is live when any name or attribute read in `src/` has
its name. A method (`Class.method`) is live only when an attribute read on
something other than an imported module has its name: `eng.run` names the
module function `engine.run` and no method `run`, and neither does a bare
name `run`. A CLI command counts too: the parser names each one it
dispatches to. Exempt are dunders, the public API (`bpusim.__all__`), the
functions and methods the benchmark's tracer wraps, and the allow-list
below."""

from __future__ import annotations

import ast
import importlib
import pathlib

import bpusim

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bpusim"

ALLOWED: set[str] = set()

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_names(tree: ast.AST) -> set[str]:
    """The names a tree binds to imported modules: `import a.b` binds `a`,
    and `from . import x` binds `x`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names |= {a.asname or a.name for a in node.names}
    return names


def _unnamed_defs(trees: dict[str, ast.AST]) -> list[str]:
    """`file:line name` of each def or class that no tree names, a method
    as `Class.method`: a function or class by a Name or Attribute node
    holding its name, a method only by an Attribute node whose object is
    not an imported module."""
    defs, named, read = [], set(), set()
    for path, tree in trees.items():
        modules = _module_names(tree)
        owners = {id(d): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                  for d in c.body if isinstance(d, _DEFS)}
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((path, node.lineno, owners.get(id(node)), node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                    read.add(node.attr)
    return [f"{path}:{line} {f'{owner}.{name}' if owner else name}"
            for path, line, owner, name in sorted(defs, key=lambda d: d[:2])
            if name not in (read if owner else named)]


def _traced_names(monkeypatch) -> set[str]:
    """What `perfbench/tracer.py` wraps, as `_unnamed_defs` names it: a
    module function by its name, a method as `Class.method`. Read as
    tests/test_traced_names.py reads them."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return {f"{owner}.{attr}" if owner else attr
            for _, owner, attr, _ in importlib.import_module("tracer").TRACED}


def test_every_src_definition_is_named_elsewhere_in_src(monkeypatch):
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exempt = set(bpusim.__all__) | _traced_names(monkeypatch) | ALLOWED
    assert [d for d in _unnamed_defs(trees) if d.split()[-1] not in exempt] == []


def test_guard_sees_unnamed_definitions_only():
    tree = ast.parse(
        "from . import eng\n"
        "class Used:\n"
        "    def __init__(self): pass\n"
        "    def method(self): return helper()\n"
        "    def orphan(self): pass\n"
        "    def run(self): pass\n"
        "def helper(): return Used().method\n"
        "def dead(): return eng.run(run)\n"
        "@main.command('go')\n"
        "def cmd_go(): pass\n")
    # a decorator does not name what it decorates; neither a module's
    # attribute nor a bare name names a method
    assert _unnamed_defs({"m.py": tree}) == [
        "m.py:5 Used.orphan", "m.py:6 Used.run", "m.py:8 dead", "m.py:10 cmd_go"]
