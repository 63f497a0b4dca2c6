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
from .engine import POLICIES, run
from .program import Program, parse_program
from .timing import LatencyModel, LatencyTrace, NoiseKind

__all__ = [
    "Direction",
    "LatencyModel",
    "LatencyTrace",
    "Mode",
    "NoiseKind",
    "POLICIES",
    "PredictorConfig",
    "PredictorState",
    "Program",
    "parse_outcomes",
    "parse_program",
    "run",
]

__version__ = "0.1.0"
