from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bpusim.timing import (
    LatencyModel,
    LatencyTrace,
    NoiseKind,
    classify,
)


def test_noiseless_latencies_exact():
    m = LatencyModel()
    s = m.sampler()
    assert s.measure(False) == 10
    assert s.measure(True) == 50


def test_threshold_between_hit_and_penalty():
    m = LatencyModel()
    assert m.threshold == 30
    trace = LatencyTrace([(1, 10), (2, 50), (3, 29), (4, 31)])
    assert classify(trace, m) == [False, True, False, True]


def test_uniform_noise_bounded():
    m = LatencyModel(noise=NoiseKind.UNIFORM, noise_param=5, seed=1)
    s = m.sampler()
    for _ in range(500):
        assert 5 <= s.measure(False) <= 15
        assert 45 <= s.measure(True) <= 55


def test_gaussian_noise_seeded_and_deterministic():
    m = LatencyModel(noise=NoiseKind.GAUSSIAN, noise_param=8, seed=3)
    a = [m.sampler().measure(True) for _ in range(1)]
    b = [m.sampler().measure(True) for _ in range(1)]
    assert a == b
    s1 = m.sampler()
    s2 = m.sampler()
    assert [s1.measure(False) for _ in range(50)] == [s2.measure(False) for _ in range(50)]


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


@given(st.lists(st.integers(0, 200), max_size=30))
def test_classify_matches_threshold_pointwise(lats):
    m = LatencyModel()
    trace = LatencyTrace(list(enumerate(lats)))
    assert classify(trace, m) == [v > m.threshold for v in lats]
