"""Attacker-visible probe latency model and trace decoding."""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass


class NoiseKind(enum.Enum):
    NONE = "none"
    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"


NONE, UNIFORM, GAUSSIAN = NoiseKind


# probe latency of a correctly predicted branch, and what a misprediction adds
BASE_LATENCY = 10
MISPREDICT_PENALTY = 40


@dataclass(frozen=True)
class LatencyModel:
    noise: NoiseKind = NoiseKind.NONE
    noise_param: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.noise_param) or self.noise_param < 0:
            raise ValueError(f"noise_param must be a finite number >= 0, got {self.noise_param}")
        if self.noise is NONE and self.noise_param != 0:
            raise ValueError(f"no noise takes no sigma, got {self.noise_param}")
        if self.noise is UNIFORM and self.noise_param != int(self.noise_param):
            raise ValueError("uniform noise takes a whole number of latency units, "
                             f"got {self.noise_param}")

    @property
    def threshold(self) -> float:
        return BASE_LATENCY + MISPREDICT_PENALTY / 2

    def sampler(self) -> "LatencySampler":
        return LatencySampler(self)


class LatencySampler:
    """Owns the seeded noise stream for one simulation run.

    Uniform noise adds a whole number of latency units drawn uniformly from
    [-sigma, sigma]. Gaussian noise is drawn as a standard normal scaled by
    sigma, so runs that share a seed see error counts monotone in sigma.
    """

    def __init__(self, model: LatencyModel):
        self.model = model
        self._rng = random.Random(model.seed)

    def measure(self, mispredicts: list[bool]) -> list[int]:
        """The latency of each execution of one phase, given its mispredict
        flags in execution order; noise is drawn per execution, in order."""
        m, hit, miss = self.model, BASE_LATENCY, BASE_LATENCY + MISPREDICT_PENALTY
        lats = [miss if mis else hit for mis in mispredicts]
        if m.noise is UNIFORM:
            s = int(m.noise_param)
            return [lat + self._rng.randint(-s, s) for lat in lats]
        if m.noise is GAUSSIAN:
            return [lat + round(self._rng.gauss(0.0, 1.0) * m.noise_param) for lat in lats]
        return lats


@dataclass
class LatencyTrace:
    samples: list[tuple[int, int]]

    def __post_init__(self):
        last = None
        for idx, _ in self.samples:
            if last is not None and idx <= last:
                raise ValueError("probe indices must be strictly increasing")
            last = idx

    def append(self, probe_index: int, latency: int) -> None:
        if self.samples and probe_index <= self.samples[-1][0]:
            raise ValueError("probe indices must be strictly increasing")
        self.samples.append((probe_index, latency))

    def to_csv(self) -> str:
        return "".join(["probe_index,latency\n"] + [f"{i},{lat}\n" for i, lat in self.samples])
