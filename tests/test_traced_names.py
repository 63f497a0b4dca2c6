"""The benchmark's tracer (`perfbench/tracer.py`) wraps program functions
and methods by name; renaming or deleting one breaks only a traced benchmark
round. This pins that every traced name still resolves the way the tracer
looks it up."""

from __future__ import annotations

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.TRACED
    for module, owner, attr, span in tracer.TRACED:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        assert attr in target.__dict__, span
