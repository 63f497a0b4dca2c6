"""The history PHT index (the GHR fold, xor the branch address above its
alignment bits and the index salt) is computed by one `src/` function,
`PredictorState.history_index`, which `predict` and the committed-execution
kernel `PredictorState.execute` both call. A second copy of the formula
would be held equal to the first only by a test.

So is the address term of every index, the address above its 4-byte
alignment field (`addr >> 2`): only the three index functions,
`index_one_level`, `index_btb` and `history_index`, shift an address by
two."""

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


def _address_shifters(tree: ast.AST) -> list[str]:
    """Functions that shift a value right by two bits (`x >> 2`, `x >>= 2`)."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            shift = (node.right if isinstance(node, ast.BinOp) else
                     node.value if isinstance(node, ast.AugAssign) else None)
            if (isinstance(getattr(node, "op", None), ast.RShift)
                    and isinstance(shift, ast.Constant) and shift.value == 2):
                found.append(fn.name)
                break
    return found


def test_the_address_term_is_computed_by_the_index_functions_only():
    found = {path.name: _address_shifters(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: fns for name, fns in found.items() if fns} == {
        "predictor.py": ["index_one_level", "index_btb", "history_index"]}


def test_guard_sees_address_shifts():
    tree = ast.parse(
        "class C:\n"
        "    def predict(self, addr):\n"
        "        return (addr >> 2) & self.mask\n"
        "    def slots(self, addrs):\n"
        "        return [a >> 2 for a in addrs]\n"
        "    def step(self, addr):\n"
        "        addr >>= 2\n"
        "        return addr\n"
        "    def tag(self, addr):\n"
        "        return addr >> (2 + self.bits)\n"
        "    def half(self, value):\n"
        "        return value >> 1\n")
    assert _address_shifters(tree) == ["predict", "slots", "step"]
