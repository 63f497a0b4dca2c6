from __future__ import annotations

import pytest

from bpusim.timing import (
    LatencyModel,
    LatencyTrace,
    NoiseKind,
)


def test_noiseless_latencies_exact():
    m = LatencyModel()
    s = m.sampler()
    assert s.measure(False) == 10
    assert s.measure(True) == 50


def test_threshold_between_hit_and_penalty():
    m = LatencyModel()
    assert m.threshold == 30


def test_uniform_noise_bounded():
    m = LatencyModel(noise=NoiseKind.UNIFORM, noise_param=5, seed=1)
    s = m.sampler()
    hits = set()
    for _ in range(500):
        hits.add(s.measure(False))
        assert 45 <= s.measure(True) <= 55
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
