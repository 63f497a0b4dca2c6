"""Deterministic model of a hybrid branch prediction unit under nested
speculation, with attack protocols over its speculative-update behavior and
a static gadget scanner for the corresponding code patterns."""

from .predictor import (
    Direction,
    Mode,
    PredictorConfig,
    PredictorState,
    parse_outcomes,
)
from .engine import DEFAULT_POLICY, PolicyVariant, UpdatePolicy, run
from .program import Program
from .timing import LatencyModel, LatencyTrace, NoiseKind, classify

__all__ = [
    "DEFAULT_POLICY",
    "Direction",
    "LatencyModel",
    "LatencyTrace",
    "Mode",
    "NoiseKind",
    "PolicyVariant",
    "PredictorConfig",
    "PredictorState",
    "Program",
    "UpdatePolicy",
    "classify",
    "parse_outcomes",
    "run",
]

__version__ = "0.1.0"
