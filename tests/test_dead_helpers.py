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
below.

Likewise every parameter with a default, in a function, method or class
`__init__` defined in `src/`, is passed, by keyword or by position, by
at least one `src/` call that names its function by spelling: a function
or method by its name, a class's `__init__` by the class's. A default no
caller overrides is a knob no one turns. Exempt are the entry point
`cli.main` and `KNOBS`, each with its reason."""

from __future__ import annotations

import ast
import importlib
import pathlib

import bpusim

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bpusim"

ALLOWED: set[str] = set()

# parameters with a default that no `src/` call passes, each with its reason
KNOBS = {
    "covert_send_receive(reset_interval)":
        "a library option: the CLI resets every 64 bits, and a library golden pins 16",
    "side_channel_v1(corrupt_preamble_entry)":
        "the paper's wrong-context control, pinned by two library goldens",
    "build_victim_v1(pid)": "the two-process run-result golden builds a v1 victim in process 0",
    "GlobalHistoryRegister(entries)": "the tests build a GHR from its entries, oldest first",
}

# the command-line entry point, whose defaults its caller, the shell, sets
ENTRY_POINT = ("cli.py", "main")

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


def _passes(call: ast.Call, position: int | None, arg: str) -> bool:
    """Whether `call` passes parameter `arg`, at `position` among the
    positional ones after `self` (None for keyword-only), or may: a
    `**mapping` may pass any keyword, a `*sequence` any position."""
    if any(k.arg in (arg, None) for k in call.keywords):
        return True
    return position is not None and (position < len(call.args) or any(
        isinstance(a, ast.Starred) for a in call.args))


def _unpassed_defaults(trees: dict[str, ast.AST]) -> list[str]:
    """`file:line name(param)` of each parameter with a default that no call
    naming its function passes, a method as `Class.method(param)` and a
    class's `__init__` as `Class(param)`."""
    calls, params = {}, []
    for path, tree in trees.items():
        owners = {id(d): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                  for d in c.body if isinstance(d, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                calls.setdefault(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None),
                                 []).append(node)
            elif isinstance(node, ast.FunctionDef) and (path, node.name) != ENTRY_POINT:
                owner, a = owners.get(id(node)), node.args
                positional = a.posonlyargs + a.args
                if owner and not any(getattr(d, "id", None) == "staticmethod"
                                     for d in node.decorator_list):
                    positional = positional[1:]
                name = owner if node.name == "__init__" else node.name
                label = f"{owner}.{name}" if owner and name != owner else name
                first = len(positional) - len(a.defaults)
                params += [(path, node.lineno, name, label, i, p.arg)
                           for i, p in enumerate(positional) if i >= first]
                params += [(path, node.lineno, name, label, None, p.arg)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return [f"{path}:{line} {label}({arg})"
            for path, line, name, label, i, arg in sorted(params, key=lambda p: p[:2])
            if not any(_passes(c, i, arg) for c in calls.get(name, ()))]


def _src_trees() -> dict[str, ast.AST]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _traced_names(monkeypatch) -> set[str]:
    """What `perfbench/tracer.py` wraps, as `_unnamed_defs` names it: a
    module function by its name, a method as `Class.method`. Read as
    tests/test_traced_names.py reads them."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return {f"{owner}.{attr}" if owner else attr
            for _, owner, attr, _ in importlib.import_module("tracer").TRACED}


def test_every_src_definition_is_named_elsewhere_in_src(monkeypatch):
    trees = _src_trees()
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


def test_every_src_default_is_passed_by_a_src_call():
    assert [d for d in _unpassed_defaults(_src_trees()) if d.split()[-1] not in KNOBS] == []
    # the allow-list holds only knobs the check still finds
    assert {d.split()[-1] for d in _unpassed_defaults(_src_trees())} >= KNOBS.keys()


def test_guard_sees_unpassed_defaults_only():
    tree = ast.parse(
        "class Box:\n"
        "    def __init__(self, size=1, fill=None): pass\n"
        "    def put(self, item, slot=0, *, force=False): pass\n"
        "    @staticmethod\n"
        "    def make(kind, size=1): pass\n"
        "def send(msg, retries=3, timeout=None, *, log=False): pass\n"
        "def main(argv=None): pass\n"
        "def tune(level=0): pass\n"
        "def idle(x, y=0, *, z): pass\n"
        "Box(2).put(1, force=True)\n"
        "Box.make('b')\n"
        "send('x', timeout=5)\n"
        "send(*parts)\n"
        "tune(**opts)\n")
    # a method's positions start after `self`, a static method's do not; a
    # keyword-only parameter is passed by keyword only; a parameter without
    # a default is never reported; only cli.py's `main` is the entry point
    assert _unpassed_defaults({"m.py": tree, "cli.py": ast.parse("def main(argv=None): pass")}) \
        == ["m.py:2 Box(fill)", "m.py:3 Box.put(slot)", "m.py:5 Box.make(size)",
            "m.py:6 send(log)", "m.py:7 main(argv)", "m.py:9 idle(y)"]
