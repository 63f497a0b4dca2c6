"""The history PHT index (the GHR fold, xor the branch address above its
alignment bits and the index salt) is computed by one `src/` function,
`PredictorState.history_index`, which `predict` and the committed-execution
kernel `PredictorState.execute` both call. A second copy of the formula
would be held equal to the first only by a test."""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bpusim"


def _index_computers(tree: ast.AST) -> list[str]:
    """Functions that fold a GHR (call `.folded(`) or read `index_salt`."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            reads_salt = (isinstance(node, ast.Attribute) and node.attr == "index_salt"
                          and isinstance(node.ctx, ast.Load))
            folds = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "folded")
            if reads_salt or folds:
                found.append(fn.name)
                break
    return found


def test_history_index_is_computed_in_one_function():
    found = {path.name: _index_computers(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: fns for name, fns in found.items() if fns} == {
        "predictor.py": ["history_index"]}


def test_guard_sees_folds_and_salt_reads():
    tree = ast.parse(
        "class C:\n"
        "    index_salt: int = 0\n"
        "    def predict(self, addr):\n"
        "        return self.ghr.folded(12) ^ addr\n"
        "    def replay(self, addr):\n"
        "        return addr ^ self.config.index_salt\n"
        "    def configure(self, salt):\n"
        "        self.index_salt = salt\n")
    assert _index_computers(tree) == ["predict", "replay"]
