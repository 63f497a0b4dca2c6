"""Every function, method and class defined in `src/` is named somewhere
else in `src/`: called, read as an attribute, subclassed or decorated with.
A helper that only tests call is dead code kept alive by its tests.

Names count by spelling, not by scope: a method is live when any attribute
read in `src/` has its name. A CLI command counts too: the parser names
each one it dispatches to. Exempt are dunders, the public API
(`bpusim.__all__`), the names the benchmark's tracer wraps, and the
allow-list below."""

from __future__ import annotations

import ast
import importlib
import pathlib

import bpusim

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bpusim"

ALLOWED = {
    # read only by the leak-contract tests today; the whole-state
    # non-interference check (ROADMAP direction 1) gives it a src/ caller
    "state_fingerprint",
}


def _unnamed_defs(trees: dict[str, ast.AST]) -> list[str]:
    """`file:line name` of each def or class whose name no Name or
    Attribute node of any tree holds, and that no exemption covers."""
    defs, named = [], set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((path, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [f"{path}:{line} {name}" for path, line, name in sorted(defs) if name not in named]


def _traced_names(monkeypatch) -> set[str]:
    """The attributes `perfbench/tracer.py` wraps, read as
    tests/test_traced_names.py reads them."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return {attr for _, _, attr, _ in importlib.import_module("tracer").TRACED}


def test_every_src_definition_is_named_elsewhere_in_src(monkeypatch):
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exempt = set(bpusim.__all__) | _traced_names(monkeypatch) | ALLOWED
    assert [d for d in _unnamed_defs(trees) if d.split()[-1] not in exempt] == []


def test_guard_sees_unnamed_definitions_only():
    tree = ast.parse(
        "class Used:\n"
        "    def __init__(self): pass\n"
        "    def method(self): return helper()\n"
        "    def orphan(self): pass\n"
        "def helper(): return Used().method\n"
        "def dead(): pass\n"
        "@main.command('go')\n"
        "def cmd_go(): pass\n")
    # a decorator does not name what it decorates
    assert _unnamed_defs({"m.py": tree}) == ["m.py:4 orphan", "m.py:6 dead", "m.py:8 cmd_go"]
