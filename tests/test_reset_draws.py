"""`randomize_reset` draws the one-level PHT and then the GHR entries at
once, and the history PHT from the same generator on first read. Each table
is one `getrandbits` call, value i its lane i: a lane is the next power of
two >= the width bits wide (16 for 9-bit values), masked to the width, so
every value is uniform and none needs a redraw. Every value a caller can observe
must be what that draw, table by table in that order, gives; a channel that
never reads the history PHT must never draw it."""

from __future__ import annotations

import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bpusim import predictor as pred
from bpusim.attacks import covert_send_receive, probe_mode, side_channel_v1, side_channel_v2
from bpusim.engine import POLICIES
from bpusim.predictor import (
    Direction,
    GlobalHistoryRegister,
    Mode,
    PredictorConfig,
    PredictorState,
)
from test_run_result_golden import GOLDEN, run_digest


def draw_reference(rng: random.Random, n: int, width: int) -> list[int]:
    """The reference draw: one `getrandbits` call, value i its lane i,
    lowest first, a lane the least of 1, 2, 4, 8 and 16 bits that holds
    `width`, masked to `width`."""
    lane = next(bits for bits in (1, 2, 4, 8, 16) if bits >= width)
    word = rng.getrandbits(n * lane)
    return [(word >> (lane * i)) % (1 << width) for i in range(n)]


def _eager_reset(state: PredictorState, seed: int) -> None:
    """The reference: every table drawn at once by `draw_reference`."""
    cfg = state.config
    rng = random.Random(seed)
    one, ghr, history = [draw_reference(rng, n, w) for n, w in (
        (cfg.pht_entries_one_level, cfg.one_level_bits),
        (cfg.ghr_depth, cfg.target_bits_per_entry),
        (cfg.pht_entries_history, cfg.history_bits))]
    state.pht_one_level, state.pht_history = one, history
    state.ghr = GlobalHistoryRegister(cfg, ghr)
    state.selector.mode = Mode.ONE_LEVEL
    state.selector.mispredict_accumulator = 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3000), st.integers(1, 9))
def test_draw_is_one_getrandbits_call_split_into_lanes(seed, n, width):
    rng, reference = random.Random(seed), random.Random(seed)
    assert pred._draw(rng, n, width) == draw_reference(reference, n, width)
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("width", range(1, 10))
def test_drawn_values_are_uniform(width):
    """Drawn `n` at a time until each of the `2^width` values is expected
    256 times, every value appears, and each count is within 6 standard
    deviations of its binomial mean: under a uniform draw a count is
    Binomial(total, 2^-width), which leaves that bound with probability
    about 2e-9."""
    # 3 and 5 values end inside a byte at every lane below 8 bits, 2 at
    # 1- and 2-bit lanes; 1,024 is a default one-level table
    for n in (2, 3, 5, 1024):
        rng, counts = random.Random(1000 * width + n), Counter()
        for _ in range(-(-(256 << width) // n)):
            counts.update(pred._draw(rng, n, width))
        total, p = sum(counts.values()), 2.0 ** -width
        mean, sd = total * p, math.sqrt(total * p * (1 - p))
        assert sorted(counts) == list(range(1 << width)), n
        assert all(abs(c - mean) <= 6 * sd for c in counts.values()), (n, counts)


class _CountingRandom(random.Random):
    """A generator that counts the calls that draw from it. `random.Random`
    draws through these two: `randrange`, `choice` and `randbytes` call
    `getrandbits`."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)

    def random(self):
        self.calls += 1
        return super().random()


@pytest.mark.parametrize("widths", [(2, 3, 2), (2, 2, 1), (5, 7, 3), (8, 8, 8), (9, 9, 9),
                                    (9, 2, 1)],
                         ids=lambda w: "-".join(map(str, w)))
def test_a_reset_makes_one_generator_call_per_table(monkeypatch, widths):
    """At every width, a reset makes one generator call for the one-level
    PHT and one for the GHR, and the first history read one more, at every
    table size and GHR depth."""
    made = []

    def counting(seed):
        made.append(_CountingRandom(seed))
        return made[-1]

    monkeypatch.setattr(pred, "random", SimpleNamespace(Random=counting))
    calls = []
    for entries, depth in ((2, 1), (1024, 12), (1 << 16, 256)):
        p = PredictorState(PredictorConfig(
            one_level_bits=widths[0], history_bits=widths[1], target_bits_per_entry=widths[2],
            pht_entries_one_level=entries, pht_entries_history=entries, ghr_depth=depth))
        p.randomize_reset(entries)
        drawn = made[-1].calls
        p.selector.mode = Mode.HISTORY
        p.predict(0x4000)
        p.execute([(0x4000, Direction.TAKEN, 0x4041)])
        calls.append((drawn, made[-1].calls))
    assert len(made) == 3
    assert calls == [(2, 3)] * 3


def _count_draws(monkeypatch) -> list[tuple[int, int]]:
    """Record `(n, width)` of every draw from a reset's generator."""
    draws = []
    draw = pred._draw

    def counted(rng, n, width):
        draws.append((n, width))
        return draw(rng, n, width)

    monkeypatch.setattr(pred, "_draw", counted)
    return draws


def test_one_level_side_channel_never_draws_the_history_table(monkeypatch):
    draws = _count_draws(monkeypatch)
    r = side_channel_v1([1, 0, 1, 1], Mode.ONE_LEVEL, seed=3)
    assert r.recovered == [1, 0, 1, 1]
    cfg = PredictorConfig()
    # one reset per trial, none when the channel is built
    assert draws == [(cfg.pht_entries_one_level, cfg.one_level_bits),
                     (cfg.ghr_depth, cfg.target_bits_per_entry)] * 4


def test_each_one_level_channel_resets_once_before_its_first_trial(monkeypatch):
    seeds = []
    reset = PredictorState.randomize_reset

    def counted(state, seed):
        seeds.append(seed)
        reset(state, seed)

    monkeypatch.setattr(PredictorState, "randomize_reset", counted)
    covert_send_receive("0" * 130, Mode.ONE_LEVEL, seed=7, reset_interval=64)
    assert seeds == [7, 9, 10]  # then one per 64 bits
    for channel in (side_channel_v1, side_channel_v2):
        seeds.clear()
        channel([1, 0], Mode.ONE_LEVEL, seed=3)
        assert seeds == [3000, 3001]  # one per trial
    seeds.clear()
    covert_send_receive("0" * 130, Mode.HISTORY, seed=7, reset_interval=64)
    side_channel_v1([1, 0], Mode.HISTORY, seed=3)
    assert seeds == []


def test_a_history_read_draws_the_history_table_exactly_once(monkeypatch):
    draws = _count_draws(monkeypatch)
    cfg = PredictorConfig()
    whole = [(cfg.pht_entries_one_level, cfg.one_level_bits),
             (cfg.ghr_depth, cfg.target_bits_per_entry),
             (cfg.pht_entries_history, cfg.history_bits)]

    p = PredictorState(cfg)
    p.randomize_reset(5)
    assert draws == whole[:2]
    assert probe_mode(p) is Mode.ONE_LEVEL
    assert probe_mode(p) is Mode.ONE_LEVEL
    assert draws == whole

    draws.clear()
    p.randomize_reset(6)
    p.execute([(0x4000, Direction.TAKEN, 0x4041)] * 3)  # one-level: no draw
    p.selector.mode = Mode.HISTORY
    p.predict(0x4000)
    p.execute([(0x4000, Direction.TAKEN, 0x4041)] * 3)
    p.predict(0x4000)
    assert draws == whole


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_run_result_digests_match_an_eager_reset(monkeypatch, policy):
    """The seeded random runs start from a reset predictor: with the eager
    reference in its place, whole engine runs give the same digests."""
    monkeypatch.setattr(PredictorState, "randomize_reset", _eager_reset)
    assert run_digest("random", policy) == GOLDEN[f"{policy.name} random"]


@st.composite
def _configs(draw):
    widths = [draw(st.integers(2, 7)), draw(st.integers(2, 7)), draw(st.integers(1, 7))]
    if draw(st.booleans()):  # 8 bits fill a lane; 9 draw per value
        widths[draw(st.integers(0, 2))] = draw(st.integers(8, 9))
    return PredictorConfig(
        one_level_bits=widths[0], history_bits=widths[1], target_bits_per_entry=widths[2],
        pht_entries_one_level=1 << draw(st.integers(1, 6)),
        pht_entries_history=1 << draw(st.integers(1, 8)),
        ghr_depth=draw(st.integers(1, 16)),
        transition_threshold=draw(st.integers(1, 3)), index_salt=draw(st.integers(0, 255)))


_branches = st.lists(st.tuples(st.integers(0, 0x400), st.sampled_from(list(Direction)),
                               st.integers(0, 0x3FF)), max_size=12)
_ops = st.one_of(
    st.tuples(st.just("reset"), st.integers(0, 2**32)),
    st.tuples(st.just("insert"), st.lists(st.integers(0, 0x3FF), max_size=34)),
    st.tuples(st.just("mode"), st.sampled_from(list(Mode)), st.booleans()),
    st.tuples(st.just("execute"), _branches),
    st.tuples(st.just("predict"), st.integers(0, 0x400), st.sampled_from(list(Direction)),
              st.integers(0, 0x3FF)),
    st.tuples(st.just("assign"), st.integers(0, 2**16)),
    st.tuples(st.just("clone")),
    st.tuples(st.just("read"), st.sampled_from(
        ["fingerprint", "pht_history", "table", "entries", "ghr clone", "history_index"])),
)


def _read(state: PredictorState, what: str):
    if what == "fingerprint":
        return state.state_fingerprint()
    if what == "pht_history":
        return list(state.pht_history)
    if what == "table":
        return list(state.table(Mode.HISTORY))
    if what == "entries":
        return state.ghr.entries
    if what == "ghr clone":
        return state.ghr.clone().entries
    return [state.history_index(a) for a in (0, 0x104, 0x3FC)]


@settings(max_examples=150, deadline=None)
@given(_configs(), st.integers(0, 2**32), st.lists(_ops, max_size=14))
def test_lazy_reset_matches_an_eager_draw_at_every_read(cfg, seed, ops):
    lazy, eager = PredictorState(cfg), PredictorState(cfg)
    lazy.randomize_reset(seed)
    _eager_reset(eager, seed)
    for op in ops:
        kind = op[0]
        if kind == "reset":
            lazy.randomize_reset(op[1])
            _eager_reset(eager, op[1])
        elif kind == "insert":  # up to twice ghr_depth targets, so past the window too
            for s in (lazy, eager):
                for t in op[1]:
                    s.ghr.insert_taken(t)
        elif kind == "mode":
            for s in (lazy, eager):
                s.selector.mode, s.selector.frozen = op[1], op[2]
        elif kind == "execute":
            assert lazy.execute(op[1]) == eager.execute(op[1])
        elif kind == "predict":
            _, addr, outcome, target = op
            p, q = lazy.predict(addr), eager.predict(addr)
            assert (p.direction, p.mode, p.index) == (q.direction, q.mode, q.index)
            lazy.record_resolution(addr, outcome, p, target)
            eager.record_resolution(addr, outcome, q, target)
        elif kind == "assign":
            values = draw_reference(random.Random(op[1]), cfg.pht_entries_history,
                                    cfg.history_bits)
            lazy.pht_history, eager.pht_history = values, list(values)
        elif kind == "clone":
            lazy, eager = lazy.clone(), eager.clone()
            assert lazy.state_fingerprint() == eager.state_fingerprint()
        else:
            assert _read(lazy, op[1]) == _read(eager, op[1])
    assert lazy.state_fingerprint() == eager.state_fingerprint()
