"""What the attacker sees of its branch executions: the latency model, a
seeded noise stream that draws once per timed execution, the latency of
the one execution a phase's receiver reads (known to the sampler only by
whether it mispredicted), and the trace of decisive probes."""

from __future__ import annotations

import enum
import math
import random
from typing import NamedTuple


class NoiseKind(enum.Enum):
    NONE = "none"
    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"


NONE, UNIFORM, GAUSSIAN = NoiseKind


# probe latency of a correctly predicted branch, and what a misprediction adds
BASE_LATENCY = 10
MISPREDICT_PENALTY = 40


class _LatencyFields(NamedTuple):
    noise: NoiseKind = NONE
    noise_param: float = 0.0
    seed: int = 0


class LatencyModel(_LatencyFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not math.isfinite(self.noise_param) or self.noise_param < 0:
            raise ValueError(f"noise_param must be a finite number >= 0, got {self.noise_param}")
        if self.noise is NONE and self.noise_param != 0:
            raise ValueError(f"no noise takes no sigma, got {self.noise_param}")
        if self.noise is UNIFORM and self.noise_param != int(self.noise_param):
            raise ValueError("uniform noise takes a whole number of latency units, "
                             f"got {self.noise_param}")
        return self

    # `_replace` copies through `_make`, which would skip the checks above
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def threshold(self) -> float:
        return BASE_LATENCY + MISPREDICT_PENALTY / 2

    def sampler(self) -> "LatencySampler":
        return LatencySampler(self)


class LatencySampler:
    """Owns the seeded noise stream for one simulation run.

    Each timed execution draws one noise value, in order. Uniform noise
    adds a whole number of latency units drawn uniformly from [-sigma,
    sigma]. Gaussian noise is drawn as a standard normal scaled by sigma,
    so runs that share a seed see error counts monotone in sigma.
    """

    def __init__(self, model: LatencyModel):
        self.model = model
        self._rng = random.Random(model.seed)

    def measure(self, mispredicted: bool) -> int:
        """The latency of one timed execution, given whether it
        `mispredicted`, with the stream's next noise value added."""
        m, noise = self.model, 0
        if m.noise is UNIFORM:
            s = int(m.noise_param)
            noise = self._rng.randint(-s, s)
        elif m.noise is GAUSSIAN:
            noise = round(self._rng.gauss(0.0, 1.0) * m.noise_param)
        return (BASE_LATENCY + MISPREDICT_PENALTY if mispredicted else BASE_LATENCY) + noise


class LatencyTrace:
    def __init__(self, samples: list[tuple[int, int]]):
        self.samples = []
        for probe_index, latency in samples:
            self.append(probe_index, latency)

    def append(self, probe_index: int, latency: int) -> None:
        if self.samples and probe_index <= self.samples[-1][0]:
            raise ValueError("probe indices must be strictly increasing")
        self.samples.append((probe_index, latency))

    def to_csv(self) -> str:
        return "".join(["probe_index,latency\n"] + [f"{i},{lat}\n" for i, lat in self.samples])
