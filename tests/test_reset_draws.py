"""`randomize_reset` draws the one-level PHT and then the GHR entries at
once, and the history PHT from the same generator on first read. Every value
a caller can observe must be what one `randrange` per entry, in that order,
gives; a channel that never reads the history PHT must never draw it."""

from __future__ import annotations

import random

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


def _eager_reset(state: PredictorState, seed: int) -> None:
    """The reference: every table drawn at once, one `randrange` per entry."""
    cfg = state.config
    rng = random.Random(seed)
    one, ghr, history = [[rng.randrange(1 << w) for _ in range(n)] for n, w in (
        (cfg.pht_entries_one_level, cfg.one_level_bits),
        (cfg.ghr_depth, cfg.target_bits_per_entry),
        (cfg.pht_entries_history, cfg.history_bits))]
    state.pht_one_level, state.pht_history = one, history
    state.ghr = GlobalHistoryRegister(cfg, ghr)
    state.selector.mode = Mode.ONE_LEVEL
    state.selector.mispredict_accumulator = 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3000), st.integers(1, 9))
def test_draw_is_exactly_n_randrange_calls(seed, n, width):
    rng, reference = random.Random(seed), random.Random(seed)
    assert pred._draw(rng, n, width) == [reference.randrange(1 << width) for _ in range(n)]
    assert rng.getstate() == reference.getstate()


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
    if draw(st.booleans()):  # a width of 8 or more takes the per-entry randrange path
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
            rng = random.Random(op[1])
            values = [rng.randrange(1 << cfg.history_bits)
                      for _ in range(cfg.pht_entries_history)]
            lazy.pht_history, eager.pht_history = values, list(values)
        elif kind == "clone":
            lazy, eager = lazy.clone(), eager.clone()
            assert lazy.state_fingerprint() == eager.state_fingerprint()
        else:
            assert _read(lazy, op[1]) == _read(eager, op[1])
    assert lazy.state_fingerprint() == eager.state_fingerprint()
