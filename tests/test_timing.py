from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from bpusim.timing import (
    BASE_LATENCY,
    MISPREDICT_PENALTY,
    LatencyModel,
    LatencyTrace,
    NoiseKind,
)


def test_noiseless_latencies_exact():
    m = LatencyModel()
    s = m.sampler()
    assert s.measure(False) == 10
    assert s.measure(True) == 50
    assert s.measure(False) == 10


def test_threshold_between_hit_and_penalty():
    m = LatencyModel()
    assert m.threshold == 30


def test_uniform_noise_bounded():
    m = LatencyModel(noise=NoiseKind.UNIFORM, noise_param=5, seed=1)
    # two samplers on one seed, one timing hits and one misses
    reads_hit, reads_miss = m.sampler(), m.sampler()
    hits = set()
    for _ in range(500):
        hit = reads_hit.measure(False)
        miss = reads_miss.measure(True)
        hits.add(hit)
        assert 45 <= miss <= 55
    assert hits == set(range(5, 16))  # every whole number in [-5, 5] is drawn


@pytest.mark.parametrize("sigma", [0.9, 1.5, 25.000001])
def test_uniform_noise_rejects_a_fractional_sigma(sigma):
    with pytest.raises(ValueError, match="uniform noise takes a whole number"):
        LatencyModel(noise=NoiseKind.UNIFORM, noise_param=sigma)


@pytest.mark.parametrize("sigma", [0.5, 1, 7.5])
def test_no_noise_rejects_a_sigma(sigma):
    with pytest.raises(ValueError, match=f"no noise takes no sigma, got {sigma}"):
        LatencyModel(noise=NoiseKind.NONE, noise_param=sigma)
    assert LatencyModel(noise=NoiseKind.NONE, noise_param=0.0).noise_param == 0


def test_gaussian_noise_seeded_and_deterministic():
    m = LatencyModel(noise=NoiseKind.GAUSSIAN, noise_param=8, seed=3)
    a = m.sampler().measure(True)
    b = m.sampler().measure(True)
    assert a == b
    s1 = m.sampler()
    s2 = m.sampler()
    assert ([s1.measure(False) for _ in range(50)]
            == [s2.measure(False) for _ in range(50)])


def test_gaussian_misclassification_monotone_in_sigma():
    # same seed, scaled standard normal draws: the set of misclassified
    # probes can only grow as sigma grows
    errors = []
    for sigma in (5, 10, 20, 40):
        m = LatencyModel(noise=NoiseKind.GAUSSIAN, noise_param=sigma, seed=11)
        s = m.sampler()
        bad = 0
        for i in range(400):
            mis = i % 2 == 0
            lat = s.measure(mis)
            bad += (lat > m.threshold) != mis
        errors.append(bad)
    assert errors == sorted(errors)
    assert errors[-1] > 0


def _next_draw(rng: random.Random, model: LatencyModel) -> int:
    """The noise a stream adds to its next latency, drawn per its definition."""
    if model.noise is NoiseKind.UNIFORM:
        return rng.randint(-int(model.noise_param), int(model.noise_param))
    if model.noise is NoiseKind.GAUSSIAN:
        return round(rng.gauss(0.0, 1.0) * model.noise_param)
    return 0


@st.composite
def _models(draw):
    kind = draw(st.sampled_from(list(NoiseKind)))
    sigma = {NoiseKind.NONE: st.just(0),
             NoiseKind.UNIFORM: st.integers(0, 30),
             NoiseKind.GAUSSIAN: st.floats(0, 50)}[kind]
    return LatencyModel(noise=kind, noise_param=draw(sigma), seed=draw(st.integers(0, 2**32)))


@given(_models(), st.lists(st.booleans(), max_size=60))
def test_each_measure_call_draws_one_value(model, flags):
    """Each call's latency is its flag's plus the stream's next noise value,
    and after each call the stream sits where one draw per call leaves it."""
    sampler, rng = model.sampler(), random.Random(model.seed)
    for mis in flags:
        assert sampler.measure(mis) == BASE_LATENCY + MISPREDICT_PENALTY * mis \
            + _next_draw(rng, model)
        assert sampler._rng.getstate() == rng.getstate()


@pytest.mark.parametrize("kind", list(NoiseKind))
@pytest.mark.parametrize("sigma", [-5, float("nan"), float("inf")])
def test_noise_param_must_be_finite_and_non_negative(kind, sigma):
    with pytest.raises(ValueError, match="noise_param must be a finite number >= 0"):
        LatencyModel(noise=kind, noise_param=sigma)


def test_trace_requires_increasing_probe_indices():
    t = LatencyTrace([(1, 10)])
    t.append(5, 50)
    with pytest.raises(ValueError):
        t.append(5, 50)
    with pytest.raises(ValueError):
        LatencyTrace([(2, 10), (1, 20)])


def test_trace_csv_format():
    assert LatencyTrace([(1, 10), (2, 50)]).to_csv() == "probe_index,latency\n1,10\n2,50\n"
    assert LatencyTrace([]).to_csv() == "probe_index,latency\n"
