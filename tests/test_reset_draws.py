"""`randomize_reset(seed)` reads the one-level PHT and then the GHR word
from one SHAKE-128 stream keyed by the seed's signed little-endian bytes,
and the history PHT from a second stream keyed by those bytes and a tag.
A table's value i is lane i of its bytes' bits: a lane is the least of 1,
2, 4, 8 and 16 bits that holds the width, masked to the width, so every
value is uniform and none needs a redraw. Every value a caller can observe
must be what that reference gives. `randomize_reset(seed, entries)` writes
only the listed one-level entries and leaves the history PHT and the GHR
word as they were; a one-level channel, which lists every entry its trials
touch, must never draw the history PHT and must give what it gives after
full resets."""

from __future__ import annotations

import ast
import hashlib
import math
import os
import pathlib
import subprocess
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bpusim import attacks, predictor as pred
from bpusim.attacks import (AttackError, TransmissionError, covert_send_receive, side_channel_v1,
                            side_channel_v2)
from bpusim.engine import POLICIES
from bpusim.predictor import (
    Branches,
    Direction,
    GlobalHistoryRegister,
    Mode,
    PredictorConfig,
    PredictorState,
)
from bpusim.timing import LatencyModel, NoiseKind
from conftest import full_reset
from test_run_result_golden import GOLDEN, run_digest

HISTORY_TAG = b"pht_history\x00\x00"


def seed_key(seed: int) -> bytes:
    """The seed's signed little-endian bytes, one byte wider than its
    magnitude's bits fill: byte k is bits 8k to 8k + 7 of its two's
    complement."""
    size = seed.bit_length() // 8 + 1
    word = seed % (1 << (8 * size))
    return bytes((word >> (8 * k)) & 0xFF for k in range(size))


def _lane(width: int) -> int:
    return next(bits for bits in (1, 2, 4, 8, 16) if bits >= width)


def table_bytes(n: int, width: int) -> int:
    return -(-n * _lane(width) // 8)


def lanes_reference(raw: bytes, n: int, width: int) -> list[int]:
    """Value i is lane i of `raw`'s bits, lowest first, masked to `width`."""
    lane, word = _lane(width), int.from_bytes(raw, "little")
    return [(word >> (lane * i)) % (1 << width) for i in range(n)]


def reset_reference(cfg: PredictorConfig, seed: int):
    """The reset's one-level PHT, GHR entries (oldest first) and history
    PHT, from SHAKE-128, shifts and masks."""
    key, one = seed_key(seed), table_bytes(cfg.pht_entries_one_level, cfg.one_level_bits)
    bits, depth = cfg.target_bits_per_entry, cfg.ghr_depth
    stream = hashlib.shake_128(key).digest(one + -(-depth * bits // 8))
    word = int.from_bytes(stream[one:], "little") % (1 << (depth * bits))
    history = hashlib.shake_128(key + HISTORY_TAG).digest(
        table_bytes(cfg.pht_entries_history, cfg.history_bits))
    return (lanes_reference(stream[:one], cfg.pht_entries_one_level, cfg.one_level_bits),
            [(word >> (bits * k)) % (1 << bits) for k in reversed(range(depth))],
            lanes_reference(history, cfg.pht_entries_history, cfg.history_bits))


def _eager_reset(state: PredictorState, seed: int) -> None:
    """The reference: every table drawn at once by `reset_reference`."""
    one, ghr, history = reset_reference(state.config, seed)
    state.pht_one_level, state.pht_history = one, history
    state.ghr = GlobalHistoryRegister(state.config, ghr)
    state.selector.mode = Mode.ONE_LEVEL
    state.selector.mispredict_accumulator = 0


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=6100), st.integers(1, 3000), st.integers(1, 9))
def test_split_reads_each_value_from_its_lane(raw, n, width):
    raw += bytes(max(0, table_bytes(n, width) - len(raw)))
    assert pred._lane_bytes(n, width) == table_bytes(n, width)
    assert pred._split(raw, n, width) == lanes_reference(raw, n, width)


@pytest.mark.parametrize("width", range(1, 10))
def test_drawn_values_are_uniform(width):
    """Read `n` at a time from the streams of successive seeds until each
    of the `2^width` values is expected 256 times, every value appears, and
    each count is within 6 standard deviations of its binomial mean: under
    a uniform draw a count is Binomial(total, 2^-width), which leaves that
    bound with probability about 2e-9."""
    # 3 and 5 values end inside a byte at every lane below 8 bits, 2 at
    # 1- and 2-bit lanes; 1,024 is a default one-level table
    for n in (2, 3, 5, 1024):
        counts, size = Counter(), pred._lane_bytes(n, width)
        for i in range(-(-(256 << width) // n)):
            seed = (1000 * width + n) << 32 | i
            counts.update(pred._split(pred._xof(pred._seed_bytes(seed), size), n, width))
        _assert_uniform(counts, width, n)


@pytest.mark.parametrize("bits", range(1, 10))
def test_reset_ghr_entries_are_uniform(bits):
    """The same bound on the GHR entries of successive resets: a 3-entry
    window, so at most widths an entry straddles a byte. Both tables hold
    2 entries, as each reset draws them too."""
    state = PredictorState(PredictorConfig(target_bits_per_entry=bits, ghr_depth=3,
                                           pht_entries_one_level=2, pht_entries_history=2))
    counts = Counter()
    for seed in range(-(-(256 << bits) // 3)):
        state.randomize_reset(seed)
        counts.update(state.ghr.entries)
    _assert_uniform(counts, bits, 3)


def _assert_uniform(counts: Counter, width: int, n: int) -> None:
    total, p = sum(counts.values()), 2.0 ** -width
    mean, sd = total * p, math.sqrt(total * p * (1 - p))
    assert sorted(counts) == list(range(1 << width)), n
    assert all(abs(c - mean) <= 6 * sd for c in counts.values()), (n, counts)


# seeds a reset takes: 0, both signs, each side of a byte and sign-bit
# boundary, and beyond 64 bits
SEEDS = [0, 1, -1, 127, 128, -128, -129, 255, 256, 2**63, -2**63, 2**64, 2**64 + 1, -2**64,
         3**100, -(3**100)]

# sha256 of repr((pht_one_level, ghr.entries, pht_history)) after a reset of
# the default config
RESET_DIGESTS = {
    0: "67ae379b30921bab364d31a1cd8dd0ed1ca53d6bf0a8ee4880f02b1201e2527e",
    -1: "d5fa8ba5a5ff32447c97913bc602538337072a9bd2cc21f33c537df2402f764d",
    2**64: "5b521a9e3df2f096c53cf0b95c18547bf864bba91bfdedc09c7667b5079fb8c9",
}


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_reset_keys_every_int_seed(seed):
    cfg = PredictorConfig(one_level_bits=3, history_bits=9, target_bits_per_entry=5,
                          pht_entries_one_level=16, pht_entries_history=8, ghr_depth=7)
    state = PredictorState(cfg)
    state.randomize_reset(seed)
    one_level, entries, history = reset_reference(cfg, seed)
    assert (state.pht_one_level, state.ghr.entries, state.pht_history) == \
        (one_level, entries, history)
    assert state.ghr._word == GlobalHistoryRegister(cfg, entries)._word


@pytest.mark.parametrize("seed", list(RESET_DIGESTS), ids=str)
def test_reset_digest(seed):
    state = PredictorState()
    state.randomize_reset(seed)
    state_repr = repr((state.pht_one_level, state.ghr.entries, state.pht_history))
    assert hashlib.sha256(state_repr.encode()).hexdigest() == RESET_DIGESTS[seed]


@given(st.integers() | st.sampled_from(SEEDS))
def test_seed_keys_are_distinct_and_never_the_history_key(seed):
    """A seed's key is its own bytes back, so two seeds never share one;
    and it never ends in two zero bytes, as the history stream's key does,
    so no seed's stream is another's history stream."""
    key = pred._seed_bytes(seed)
    assert key == seed_key(seed)
    assert int.from_bytes(key, "little", signed=True) == seed
    assert not key.endswith(b"\x00\x00") and HISTORY_TAG.endswith(b"\x00\x00")


@pytest.mark.parametrize("widths", [(2, 3, 2), (2, 2, 1), (5, 7, 3), (8, 8, 8), (9, 9, 9),
                                    (9, 2, 1)],
                         ids=lambda w: "-".join(map(str, w)))
def test_a_reset_makes_one_generator_call_per_table(monkeypatch, widths):
    """At every width, table size and GHR depth, a reset makes one read of
    one SHAKE-128 stream for the one-level PHT, which the GHR word follows,
    and one more, of the tagged stream, for the history PHT. History reads
    after it make none."""
    digests, shake = [], hashlib.shake_128

    class Counted:
        def __init__(self, key):
            self.key, self.xof = bytes(key), shake(key)

        def digest(self, size):
            digests.append((self.key, size))
            return self.xof.digest(size)

    monkeypatch.setattr(pred, "_shake_128", Counted)
    for entries, depth in ((2, 1), (1024, 12), (1 << 16, 256)):
        cfg = PredictorConfig(
            one_level_bits=widths[0], history_bits=widths[1], target_bits_per_entry=widths[2],
            pht_entries_one_level=entries, pht_entries_history=entries, ghr_depth=depth)
        p = PredictorState(cfg)
        digests.clear()
        p.randomize_reset(entries)
        reset = list(digests)
        p.selector.mode = Mode.HISTORY
        p.predict(0x4000)
        p.execute(Branches([(0x4000, Direction.TAKEN, 0x4041)], cfg))
        key = seed_key(entries)
        assert reset == [(key, table_bytes(entries, widths[0]) + -(-depth * widths[2] // 8)),
                         (key + HISTORY_TAG, table_bytes(entries, widths[1]))]
        assert digests == reset


def test_the_hash_loads_on_the_first_reset():
    """Importing the CLI loads no hash module, and a reset loads the lean
    built-in SHAKE-128 where the build has it, not hashlib, which loads
    OpenSSL."""
    code = ("import sys, bpusim.cli\n"
            "names = ('hashlib', '_hashlib', '_sha3')\n"
            "loaded = lambda: [n for n in names if n in sys.modules]\n"
            "print(loaded())\n"
            "bpusim.cli.PredictorState().randomize_reset(1)\n"
            "print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pred.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split("\n")
    before, after = ast.literal_eval(out[0]), ast.literal_eval(out[1])
    assert before == []
    built_in = subprocess.run([sys.executable, "-c", "import _sha3"]).returncode == 0
    assert after == (["_sha3"] if built_in else ["hashlib", "_hashlib"])


def _count_draws(monkeypatch) -> tuple[list[tuple[int, int]], list[bytes]]:
    """Record `(n, width)` of every table split from a stream, and the key
    of every stream read."""
    draws, keys = [], []
    split, xof = pred._split, pred._xof

    def counted(raw, n, width):
        draws.append((n, width))
        return split(raw, n, width)

    def keyed(key, size):
        keys.append(key)
        return xof(key, size)

    monkeypatch.setattr(pred, "_split", counted)
    monkeypatch.setattr(pred, "_xof", keyed)
    return draws, keys


def test_one_level_side_channel_never_draws_the_history_table(monkeypatch):
    draws, keys = _count_draws(monkeypatch)
    r = side_channel_v1([1, 0, 1, 1], Mode.ONE_LEVEL, seed=3)
    assert r.recovered == [1, 0, 1, 1]
    # one reset per trial, none when the channel is built; each writes only
    # the channel's entries, from their lanes, so no table is split
    assert draws == []
    assert keys == [seed_key(3000 + i) for i in range(4)]


def test_each_one_level_channel_resets_once_before_its_first_trial(monkeypatch):
    seeds = []
    reset = PredictorState.randomize_reset

    def counted(state, seed, entries=None):
        seeds.append(seed)
        reset(state, seed, entries)

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


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_run_result_digests_match_an_eager_reset(monkeypatch, policy):
    """The seeded random runs start from a reset predictor: with the eager
    reference in its place, whole engine runs give the same digests."""
    monkeypatch.setattr(PredictorState, "randomize_reset", _eager_reset)
    assert run_digest("random", policy) == GOLDEN[f"{policy.name} random"]


@st.composite
def _configs(draw):
    widths = [draw(st.integers(2, 7)), draw(st.integers(2, 7)), draw(st.integers(1, 7))]
    if draw(st.booleans()):  # 8 bits fill a lane; 9 take 16-bit lanes
        widths[draw(st.integers(0, 2))] = draw(st.integers(8, 9))
    return PredictorConfig(
        one_level_bits=widths[0], history_bits=widths[1], target_bits_per_entry=widths[2],
        pht_entries_one_level=1 << draw(st.integers(1, 6)),
        pht_entries_history=1 << draw(st.integers(1, 8)),
        ghr_depth=draw(st.integers(1, 16)),
        transition_threshold=draw(st.integers(1, 3)), index_salt=draw(st.integers(0, 255)))


@settings(max_examples=150, deadline=None)
@given(_configs(), st.integers() | st.sampled_from(SEEDS), st.data())
def test_a_reset_of_listed_entries_writes_those_alone(cfg, seed, data):
    """`randomize_reset(seed, entries)` sets each listed one-level entry, in
    place, to the reference's value and leaves every other as it was, and
    the history PHT and the GHR word too; the BTB and the selector are as
    after a full reset."""
    n, top = cfg.pht_entries_one_level, (1 << cfg.one_level_bits) - 1
    before = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    history = data.draw(st.lists(st.integers(0, (1 << cfg.history_bits) - 1),
                                 min_size=cfg.pht_entries_history,
                                 max_size=cfg.pht_entries_history))
    entries = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    partial, full = PredictorState(cfg), PredictorState(cfg)
    for state in (partial, full):
        state.pht_one_level, state.pht_history = list(before), list(history)
        state.ghr.insert_taken(0x3FF)
        state.btb.update(0x4000, 0x4100)
        state.selector.mode, state.selector.mispredict_accumulator = Mode.HISTORY, 2
        state.selector.frozen = True
    table, ghr = partial.pht_one_level, partial.ghr._word
    partial.randomize_reset(seed, entries)
    full.randomize_reset(seed)
    one_level = reset_reference(cfg, seed)[0]
    assert partial.pht_one_level is table
    assert table == [one_level[i] if i in entries else v for i, v in enumerate(before)]
    a, b = partial.snapshot(), full.snapshot()
    assert (a.ghr, a.pht_history) == (ghr, tuple(history))
    assert (a.btb, a.selector) == (b.btb, b.selector)


def _channel_outcomes(cfg, policy, model, seed, secret, reset_interval):
    """Each one-level channel's result, with its trace's samples, or the
    type and message of the error it raised: v1, v2 with and without
    poisoning, and the covert channel."""
    one = Mode.ONE_LEVEL
    calls = [lambda: side_channel_v1(secret, one, model, cfg, policy, seed),
             lambda: side_channel_v2(secret, one, model, cfg, policy, seed),
             lambda: side_channel_v2(secret, one, model, cfg, policy, seed, poison=False),
             lambda: covert_send_receive("".join(map(str, secret)), one, model, cfg, policy,
                                         seed, reset_interval)]
    outcomes = []
    for call in calls:
        try:
            result = call()
        except (AttackError, TransmissionError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
        else:
            outcomes.append(tuple(result._replace(trace=result.trace.samples)))
    return outcomes


@st.composite
def _one_level_channels(draw):
    """A one-level channel config, policy, latency model, seed, secret and
    covert reset interval."""
    cfg = PredictorConfig(one_level_bits=draw(st.integers(2, 9)),
                          pht_entries_one_level=1 << draw(st.integers(1, 12)),
                          ghr_depth=draw(st.integers(1, 64)),
                          target_bits_per_entry=draw(st.integers(1, 9)))
    model = draw(st.one_of(
        st.just(LatencyModel()),
        st.builds(LatencyModel, st.just(NoiseKind.UNIFORM), st.integers(0, 40).map(float),
                  st.integers(0, 99)),
        st.builds(LatencyModel, st.just(NoiseKind.GAUSSIAN), st.floats(0, 40),
                  st.integers(0, 99))))
    return (cfg, draw(st.sampled_from(POLICIES)), model, draw(st.integers(-10**6, 10**6)),
            draw(st.lists(st.integers(0, 1), min_size=1, max_size=8)), draw(st.integers(1, 8)))


# every size field at its bound: 65,536 9-bit entries in each table
BOUND_CONFIG = PredictorConfig(one_level_bits=9, history_bits=9, target_bits_per_entry=9,
                               ghr_depth=256, pht_entries_one_level=1 << 16,
                               pht_entries_history=1 << 16, btb_entries=1 << 16)


def _assert_as_full_reset(case):
    outcomes = _channel_outcomes(*case)
    with mock.patch.object(attacks._Channel, "reset", full_reset):
        assert outcomes == _channel_outcomes(*case)


@settings(max_examples=40, deadline=None)
@given(_one_level_channels())
def test_one_level_channels_reset_only_their_entries_as_a_full_reset_does(case):
    _assert_as_full_reset(case)


def test_bound_config_channels_reset_only_their_entries_as_a_full_reset_does():
    _assert_as_full_reset((BOUND_CONFIG, POLICIES[0], LatencyModel(), 1, [1, 0, 1], 2))


class _Recording(list):
    """A table that records each index read or written through it."""

    def __init__(self, values):
        super().__init__(values)
        self.seen = set()

    def _note(self, key):
        self.seen.update(range(len(self))[key] if isinstance(key, slice) else [key % len(self)])

    def __getitem__(self, key):
        self._note(key)
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self._note(key)
        super().__setitem__(key, value)

    def __iter__(self):
        self._note(slice(None))
        return super().__iter__()


@settings(max_examples=25, deadline=None)
@given(_one_level_channels())
def test_one_level_channels_touch_no_entry_outside_their_reset(case):
    """Each channel's trials read and write only the one-level entries its
    reset lists, through the victim-run memo, the engine and the kernel."""
    channels, init = [], attacks._Channel.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.predictor.pht_one_level = _Recording(self.predictor.pht_one_level)
        channels.append(self)

    with mock.patch.object(attacks._Channel, "__init__", recording):
        _channel_outcomes(*case)
    assert len(channels) == 4
    for channel in channels:
        table = channel.predictor.pht_one_level
        assert isinstance(table, _Recording)  # each reset wrote in place
        assert table.seen and table.seen <= set(channel.entries)


def test_a_listed_reset_digests_only_through_its_last_entry(monkeypatch):
    """A one-level channel's reset digests its stream only through the lane
    of the last entry it lists: a prefix of the full reset's bytes, as
    SHAKE-128's shorter digests are prefixes. At the default config every
    channel lists entries up to 152, four 2-bit lanes a byte, so 39 bytes
    (a full reset digests the table and the GHR word, 259, and then the
    history stream, 4,096 3-bit values in 4-bit lanes, 2,048). With every size
    field at its bound, v2's entries reach 3,128, 2 bytes each: 6,258
    (131,360). A listed reset never digests the history stream. This counts
    bytes, not time."""
    sizes = []
    xof = pred._xof
    monkeypatch.setattr(pred, "_xof", lambda key, size: sizes.append(size) or xof(key, size))
    one = Mode.ONE_LEVEL
    for channel, resets in ((lambda: side_channel_v1([1, 0, 1], one), 3),
                            (lambda: side_channel_v2([1, 0, 1], one), 3),
                            (lambda: covert_send_receive("101", one), 1)):
        sizes.clear()
        channel()
        assert sizes == [39] * resets
    sizes.clear()
    side_channel_v2([1, 0], one, config=BOUND_CONFIG)
    assert sizes == [6258] * 2
    sizes.clear()
    PredictorState().randomize_reset(0)
    assert sizes == [259, 2048]
