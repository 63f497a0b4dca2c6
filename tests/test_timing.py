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
    assert s.measure(1, 0) == 10
    assert s.measure(1, 0, True) == 50
    assert s.measure(2, 1, False) == 10
    assert s.measure(2) is None


def test_threshold_between_hit_and_penalty():
    m = LatencyModel()
    assert m.threshold == 30


def test_uniform_noise_bounded():
    m = LatencyModel(noise=NoiseKind.UNIFORM, noise_param=5, seed=1)
    # two samplers on one seed, each reading one execution of the same phases
    reads_hit, reads_miss = m.sampler(), m.sampler()
    hits = set()
    for _ in range(500):
        hit = reads_hit.measure(2, 0, False)
        miss = reads_miss.measure(2, 1, True)
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
    a = m.sampler().measure(1, 0, True)
    b = m.sampler().measure(1, 0, True)
    assert a == b
    s1 = m.sampler()
    s2 = m.sampler()
    assert ([s1.measure(50, i) for i in range(50)]
            == [s2.measure(50, i) for i in range(50)])


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
            lat = s.measure(1, 0, mis)
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


@given(_models(), st.lists(st.booleans(), max_size=60), st.data())
def test_one_measure_call_draws_what_any_split_of_it_draws(model, flags, data):
    """The flags split into phases at any cuts, each phase read at any index
    or at none: each read latency is the per-execution reference's at its
    position, and after each call the stream sits where the reference,
    which draws once per execution, leaves it."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(flags)), max_size=5)))
    rng = random.Random(model.seed)
    reference = [BASE_LATENCY + MISPREDICT_PENALTY * mis + _next_draw(rng, model)
                 for mis in flags]
    sampler, rng = model.sampler(), random.Random(model.seed)
    for lo, hi in zip([0] + cuts, cuts + [len(flags)]):
        read = data.draw(st.none() | st.integers(lo, hi - 1)) if hi > lo else None
        latency = (sampler.measure(hi - lo) if read is None
                   else sampler.measure(hi - lo, read - lo, flags[read]))
        assert latency == (None if read is None else reference[read])
        for _ in range(lo, hi):
            _next_draw(rng, model)
        assert sampler._rng.getstate() == rng.getstate()


@pytest.mark.parametrize("kind", list(NoiseKind))
@pytest.mark.parametrize("flags,read", [([False, True], -1), ([False, True], 2), ([], 0)])
def test_measure_refuses_a_read_outside_the_phase(kind, flags, read):
    model = LatencyModel(noise=kind, noise_param=0 if kind is NoiseKind.NONE else 5, seed=2)
    sampler = model.sampler()
    with pytest.raises(IndexError, match=f"read index {read} outside the phase's "
                                         f"{len(flags)} executions"):
        sampler.measure(len(flags), read)
    assert sampler._rng.getstate() == random.Random(2).getstate()  # nothing drawn


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
