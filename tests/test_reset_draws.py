"""`randomize_reset` draws the one-level PHT at once and the history PHT and
the GHR entries from the same stream on first read. Every value a caller
can observe must be what one `randrange` per entry, in table order, gives;
a channel that never reads history state must never draw it."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from bpusim import predictor as pred
from bpusim.attacks import probe_mode, side_channel_v1
from bpusim.predictor import (
    Direction,
    GlobalHistoryRegister,
    Mode,
    PredictorConfig,
    PredictorState,
)


def _eager_reset(state: PredictorState, seed: int) -> None:
    """The reference: every table drawn at once, one `randrange` per entry."""
    cfg = state.config
    rng = random.Random(seed)
    one, history, ghr = [[rng.randrange(1 << w) for _ in range(n)] for n, w in (
        (cfg.pht_entries_one_level, cfg.one_level_bits),
        (cfg.pht_entries_history, cfg.history_bits),
        (cfg.ghr_depth, cfg.target_bits_per_entry))]
    state.pht_one_level, state.pht_history = one, history
    state.ghr = GlobalHistoryRegister(cfg, ghr)
    state.selector.mode = Mode.ONE_LEVEL
    state.selector.mispredict_accumulator = 0


def _count_draws(monkeypatch) -> list[tuple[int, int]]:
    """Record `(n, width)` of every draw from a reset's stream."""
    draws = []
    draw = pred._ResetStream.draw

    def counted(self, n, width):
        draws.append((n, width))
        return draw(self, n, width)

    monkeypatch.setattr(pred._ResetStream, "draw", counted)
    return draws


def test_one_level_side_channel_draws_only_the_one_level_table(monkeypatch):
    draws = _count_draws(monkeypatch)
    r = side_channel_v1([1, 0, 1, 1], Mode.ONE_LEVEL, seed=3)
    assert r.recovered == [1, 0, 1, 1]
    cfg = PredictorConfig()
    # one reset when the channel is built and one per trial
    assert draws == [(cfg.pht_entries_one_level, cfg.one_level_bits)] * 5


def test_a_history_read_draws_the_rest_exactly_once(monkeypatch):
    draws = _count_draws(monkeypatch)
    cfg = PredictorConfig()
    whole = [(cfg.pht_entries_one_level, cfg.one_level_bits),
             (cfg.pht_entries_history, cfg.history_bits),
             (cfg.ghr_depth, cfg.target_bits_per_entry)]

    p = PredictorState(cfg)
    p.randomize_reset(5)
    assert draws == whole[:1]
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


def test_inserts_that_fill_the_ghr_leave_its_entries_undrawn(monkeypatch):
    draws = _count_draws(monkeypatch)
    cfg = PredictorConfig(ghr_depth=4)
    p = PredictorState(cfg)
    p.randomize_reset(9)
    for t in range(4):
        p.ghr.insert_taken(t)
    assert p.ghr.entries == [0, 1, 2, 3]
    assert len(p.pht_history) == cfg.pht_entries_history
    assert draws == [(cfg.pht_entries_one_level, cfg.one_level_bits),
                     (cfg.pht_entries_history, cfg.history_bits)]


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
