"""No class in the hot modules defines `__getattr__` or `__getattribute__`.
On CPython 3.11 a class with either hook loses the specialized attribute
loads on every attribute, not only the missing ones: a first version of the
lazily drawn `randomize_reset` put `__getattr__` on `PredictorState`, and
the covert-history benchmark ran at 0.74 times its speed (slower in 8 of 8
in-process pairs)."""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bpusim"
HOOKS = {"__getattr__", "__getattribute__"}


def _attribute_hooks(tree: ast.AST) -> list[str]:
    return [f"line {node.lineno}: {cls.name}.{node.name}"
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in HOOKS]


@pytest.mark.parametrize("module", ["predictor.py", "engine.py", "timing.py"])
def test_no_attribute_hooks_in_hot_classes(module):
    assert _attribute_hooks(ast.parse((SRC / module).read_text())) == []


def test_guard_sees_hooks_on_classes_only():
    tree = ast.parse(
        "def __getattr__(name):\n"
        "    return name\n"
        "class A:\n"
        "    def __getattr__(self, name):\n"
        "        return 0\n"
        "    class B:\n"
        "        def __getattribute__(self, name):\n"
        "            return 1\n"
        "        def get(self, name):\n"
        "            return 2\n")
    assert _attribute_hooks(tree) == ["line 4: A.__getattr__", "line 7: B.__getattribute__"]
