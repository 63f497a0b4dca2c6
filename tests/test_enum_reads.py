"""Hot modules read enum members from module constants (`TAKEN`,
`ONE_LEVEL`, `COND_BRANCH`, ...) inside functions. On CPython 3.11 a read
such as `Direction.TAKEN` goes through `EnumType.__getattr__` and is never
specialized, so it costs about ten times a module global read."""

from __future__ import annotations

import ast
import pathlib

import pytest

from bpusim.predictor import Direction, Mode
from bpusim.program import Kind
from bpusim.timing import NoiseKind

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bpusim"
ENUMS = {cls.__name__: cls for cls in (Direction, Mode, Kind, NoiseKind)}


def _member_reads_in_functions(tree: ast.AST) -> list[str]:
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.Lambda):
            body = [fn.body]
        elif isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = fn.body
        else:
            continue
        for node in (n for stmt in body for n in ast.walk(stmt)):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in ENUMS
                    and node.attr in ENUMS[node.value.id].__members__):
                found.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {read}" for line, read in sorted(found)]


@pytest.mark.parametrize("module", ["engine.py", "predictor.py", "attacks.py", "timing.py"])
def test_no_enum_member_reads_in_function_bodies(module):
    assert _member_reads_in_functions(ast.parse((SRC / module).read_text())) == []


def test_guard_sees_reads_in_function_bodies_only():
    tree = ast.parse(
        "class C:\n"
        "    mode: Mode = Mode.ONE_LEVEL\n"
        "    def f(self, d=Direction.TAKEN):\n"
        "        return Kind.HALT, Direction.opposite, (lambda: NoiseKind.UNIFORM)\n")
    assert _member_reads_in_functions(tree) == ["line 4: Kind.HALT", "line 4: NoiseKind.UNIFORM"]
