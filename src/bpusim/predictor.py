"""Hybrid branch predictor model: saturating counters, two PHTs, GHR, BTB,
and tournament mode selection."""

from __future__ import annotations

import enum
import functools
import struct
from collections import namedtuple
from typing import NamedTuple


class Direction(enum.Enum):
    TAKEN = "T"
    NOT_TAKEN = "N"

    def opposite(self) -> "Direction":
        return NOT_TAKEN if self is TAKEN else TAKEN

    def __repr__(self):
        return self.value


# Enum members bound as module globals. On CPython 3.11 `Direction.TAKEN`
# goes through EnumType.__getattr__ and is never specialized, costing about
# ten global reads, so code in functions reads these names instead.
TAKEN, NOT_TAKEN = Direction


def parse_outcomes(s: str) -> list[Direction]:
    """Parse a "TNTNTN"-style outcome string."""
    out = []
    for ch in s.upper():
        if ch == "T":
            out.append(TAKEN)
        elif ch == "N":
            out.append(NOT_TAKEN)
        else:
            raise ValueError(f"bad outcome char {ch!r}")
    return out


class Mode(enum.Enum):
    ONE_LEVEL = "one-level"
    HISTORY = "history"


ONE_LEVEL, HISTORY = Mode


def counter_predict(value: int, width: int) -> Direction:
    """Low half of the counter range predicts taken."""
    return TAKEN if value < (1 << (width - 1)) else NOT_TAKEN


def counter_update(value: int, width: int, outcome: Direction) -> int:
    """Step toward 0 on taken, toward 2^width-1 on not-taken, saturating."""
    if outcome is TAKEN:
        return max(value - 1, 0)
    return min(value + 1, (1 << width) - 1)


# bytes.translate tables for _split, per width, built on its first use:
# most runs never reset. Up to 8 bits, for each lane of a byte, lowest
# first, byte -> that lane's low `width` bits; a lane is the next power of
# two >= width bits wide: 1, 2, 4 or 8. Wider values take 16-bit lanes,
# whose high byte the one table masks to its low `width - 8` bits.
@functools.cache
def _tables(width: int) -> list[bytes]:
    if width > 8:
        return [bytes(b & ((1 << (width - 8)) - 1) for b in range(256))]
    return [bytes((b >> s) & ((1 << width) - 1) for b in range(256))
            for s in range(0, 8, 1 << (width - 1).bit_length())]


# follows a seed's bytes in the key of the history PHT's stream. A seed's
# bytes never end in two zero bytes (their top byte is zero only above a
# byte of 0x80 or more), so no seed's own stream is this one
_HISTORY_TAG = b"pht_history\x00\x00"


def _seed_bytes(seed: int) -> bytes:
    """The seed's signed little-endian bytes."""
    return seed.to_bytes(seed.bit_length() // 8 + 1, "little", signed=True)


# SHAKE-128, loaded by the first `_xof` call
_shake_128 = None


def _xof(key: bytes, size: int) -> bytes:
    """The first `size` bytes of the SHAKE-128 stream keyed by `key`. Most
    runs never reset, so the hash is loaded on the first reset, and, as
    `random` does for its SHA-512, from the lean built-in `_sha3` first:
    importing hashlib loads OpenSSL, about 4 ms and 3.5 MB."""
    global _shake_128
    if _shake_128 is None:
        try:
            from _sha3 import shake_128
        except ImportError:
            from hashlib import shake_128
        _shake_128 = shake_128
    return _shake_128(key).digest(size)


def _lane_bytes(n: int, width: int) -> int:
    """The bytes `_split` reads for `n` `width`-bit values."""
    return 2 * n if width > 8 else -(-n // len(_tables(width)))


def _split(raw: bytes, n: int, width: int) -> list[int]:
    """`n` uniform `width`-bit values from the first `_lane_bytes(n, width)`
    bytes of `raw`: value i is lane i of their bits, lowest first, masked
    to `width`. A lane is a power of two bits wide, so no value needs a
    redraw. Widths above 8 take 16-bit lanes, little-endian byte pairs."""
    raw = raw[:_lane_bytes(n, width)]
    if width > 8:
        raw = bytearray(raw)
        raw[1::2] = raw[1::2].translate(_tables(width)[0])
        return list(struct.unpack(f"<{n}H", raw))
    lanes = _tables(width)
    per = len(lanes)  # lanes per byte
    values = bytearray(per * len(raw))
    for k, lane in enumerate(lanes):
        values[k::per] = raw.translate(lane)
    return list(values[:n])


def _history_values(config: "PredictorConfig", seed: int) -> list[int]:
    """The history PHT a reset with `seed` draws on first read: the seed's
    stream under `_HISTORY_TAG`, split."""
    n, width = config.pht_entries_history, config.history_bits
    return _split(_xof(_seed_bytes(seed) + _HISTORY_TAG, _lane_bytes(n, width)), n, width)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


# PredictorConfig's size fields, each with its least and largest value. A
# counter has at least 2 bits, a weak and a strong state per direction. A
# one-entry PHT has no index bits: the GHR fold and the probes' alias-avoiding
# address search would never terminate. The largest values cap a command's time
# and memory: 2^16 entries per table and BTB, 9 bits per counter or GHR entry
# (the widest the tests draw), and 256 GHR entries, which cli.MAX_PROBE_N reaches.
_SIZE_BOUNDS = (
    ("one_level_bits", 2, 9), ("history_bits", 2, 9), ("target_bits_per_entry", 1, 9),
    ("ghr_depth", 1, 256), ("pht_entries_one_level", 2, 1 << 16),
    ("pht_entries_history", 2, 1 << 16), ("btb_entries", 1, 1 << 16))


class _ConfigFields(NamedTuple):
    one_level_bits: int = 2
    history_bits: int = 3
    pht_entries_one_level: int = 1024
    pht_entries_history: int = 4096
    ghr_depth: int = 12
    target_bits_per_entry: int = 2
    btb_entries: int = 512
    transition_threshold: int = 3
    index_salt: int = 0
    # None = mispredictions of every branch feed the selector; otherwise only
    # the listed branch addresses do.
    monitored_branches: frozenset[int] | None = None


class PredictorConfig(_ConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("pht_entries_one_level", "pht_entries_history", "btb_entries"):
            if not _is_pow2(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two")
        for name, least, most in _SIZE_BOUNDS:
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
            if value > most:
                raise ValueError(f"{name} must be <= {most}")
        if self.transition_threshold < 1:
            raise ValueError("transition_threshold must be >= 1")
        return self

    # `_replace` copies through `_make`, which would skip the checks above
    _make = classmethod(lambda cls, values: cls(*values))

    def counter_width(self, mode: Mode) -> int:
        return self.one_level_bits if mode is ONE_LEVEL else self.history_bits


def index_one_level(addr: int, config: PredictorConfig) -> int:
    """Address bits above the 4-byte alignment field, modulo table size."""
    return (addr >> 2) & (config.pht_entries_one_level - 1)


def index_btb(addr: int, entries: int) -> int:
    """The BTB slot of the branch at `addr`: as `index_one_level`, modulo `entries`."""
    return (addr >> 2) & (entries - 1)


class GlobalHistoryRegister:
    """Fixed-depth queue of partial target-address bits of taken branches,
    held as one history word: each entry takes `target_bits_per_entry` bits,
    the newest entry in the low bits."""

    __slots__ = ("_depth", "_bits", "_emask", "_wmask", "_word")

    def __init__(self, config: PredictorConfig, entries=None):
        self._depth = config.ghr_depth
        self._bits = config.target_bits_per_entry
        self._emask = (1 << self._bits) - 1
        self._wmask = (1 << (self._bits * self._depth)) - 1
        init = entries if entries is not None else [0] * self._depth
        if len(init) != self._depth:
            raise ValueError("GHR entry count must equal ghr_depth")
        word = 0
        for e in init:
            if not 0 <= e <= self._emask:
                raise ValueError(
                    f"GHR entry {e} outside [0, 2^{self._bits})")
            word = (word << self._bits) | e
        self._word = word

    @property
    def entries(self) -> list[int]:
        """Oldest first."""
        bits, emask, word = self._bits, self._emask, self._word
        return [(word >> (bits * k)) & emask for k in range(self._depth - 1, -1, -1)]

    def insert_taken(self, target: int) -> None:
        self._word = ((self._word << self._bits) | (target & self._emask)) & self._wmask

    def advance(self, count: int, tail: int, times: int = 1) -> None:
        """What `count` `insert_taken` calls do, `times` over, given `tail`,
        their masked targets packed oldest first, in one step: only k =
        min(times, ceil(ghr_depth / count)) passes reach the window. With s
        bits a pass, the word shifts by s·k and the tail, repeated k times at
        stride s, fills the gap; at `count >= ghr_depth` it is the tail."""
        if count >= self._depth and times:
            self._word = tail & self._wmask
        elif count:
            s, k = self._bits * count, min(times, -(-self._depth // count))
            self._word = (self._word << s * k | tail * ((1 << s * k) - 1) // ((1 << s) - 1)) \
                & self._wmask

    def clone(self) -> "GlobalHistoryRegister":
        c = object.__new__(GlobalHistoryRegister)
        c._depth, c._bits = self._depth, self._bits
        c._emask, c._wmask = self._emask, self._wmask
        c._word = self._word
        return c


class BranchTargetBuffer:
    """Direct-mapped, per-core (process-agnostic) target buffer."""

    def __init__(self, entries: int):
        if not _is_pow2(entries):
            raise ValueError("btb_entries must be a power of two")
        self._n = entries
        self._idx_bits = (entries - 1).bit_length()
        self.slots: list[tuple[int, int] | None] = [None] * entries

    def _tag(self, addr: int) -> int:
        return addr >> (2 + self._idx_bits)

    def lookup(self, addr: int) -> int | None:
        slot = self.slots[index_btb(addr, self._n)]
        if slot is not None and slot[0] == self._tag(addr):
            return slot[1]
        return None

    def update(self, addr: int, target: int) -> None:
        self.slots[index_btb(addr, self._n)] = (self._tag(addr), target)

    def clone(self) -> "BranchTargetBuffer":
        c = object.__new__(BranchTargetBuffer)
        c._n, c._idx_bits = self._n, self._idx_bits
        c.slots = list(self.slots)
        return c


class TournamentSelector:
    __slots__ = ("mode", "mispredict_accumulator", "frozen")

    def __init__(self, mode=ONE_LEVEL, mispredict_accumulator=0, frozen=False):
        # Frozen selectors never transition; attack harnesses use this to model
        # the re-enforcement procedures that keep one prediction mode active.
        self.mode, self.mispredict_accumulator, self.frozen = mode, mispredict_accumulator, frozen


class Prediction:
    __slots__ = ("direction", "mode", "index")

    def __init__(self, direction: Direction, mode: Mode, index: int):
        self.direction, self.mode, self.index = direction, mode, index


# each memo of `Branches` and of a victim's body runs
# (`attacks.VictimLayout.transmit`) starts over when it holds this many keys
MEMO_WORDS = 16


def _sweep(pairs, width: int, passes: int):
    """`passes` passes of `(outcome, index)` steps of `width`-bit counters, as
    `(maps, passes, last)`. Each entry's steps compose into one map x ->
    min(hi, max(lo, x + s)): a step applies `counter_update` to `lo` and
    `hi`, and a pass's map run `passes` times is, for s > 0, (passes * s,
    min(lo + (passes - 1) * s, hi), hi), mirrored for s < 0. `maps` holds
    `(index, image)`, the image listing that map's value at each x. `last`,
    None for an empty pass, is what the read flags take: whether the last
    step is taken, its index, `t` below and its entry's one-pass map."""
    maps, top, half = {}, (1 << width) - 1, 1 << (width - 1)
    for outcome, index in pairs:
        s, lo, hi = maps.get(index, (0, 0, top))
        # the least value that the entry's steps before this one take to
        # half or above: a taken step mispredicts from there up, else below
        t = 0 if lo >= half else top + 1 if hi < half else half - s
        maps[index] = (s - 1 if outcome is TAKEN else s + 1, counter_update(lo, width, outcome),
                       counter_update(hi, width, outcome))
    last = (outcome is TAKEN, index, t, *maps[index]) if pairs else None
    swept, images, n = [], {}, passes - 1
    for index, (s, lo, hi) in maps.items():
        if s > 0:
            lo = lo + n * s if lo + n * s < hi else hi
        elif s < 0:
            hi = hi + n * s if hi + n * s > lo else lo
        s *= passes
        if (s, lo, hi) not in images:  # entries stepped alike share an image
            images[s, lo, hi] = tuple([lo if x < lo else hi if x > hi else x
                                       for x in range(s, s + top + 1)])
        swept.append((index, images[s, lo, hi]))
    return tuple(swept), passes, last


class Branches:
    """A committed branch sequence, `(addr, outcome, target)` triples, bound
    to one config, with its GHR effect computed once: its taken count and
    their targets packed as `GlobalHistoryRegister.advance` takes them.

    Its outcomes and targets are fixed, so its history indexes depend only
    on the GHR word it starts from, and its one-level indexes on nothing.
    `_runs` keeps a run of `times` passes as its `_sweep` groups per
    starting word (None in one-level mode) and `times`, for at most
    `MEMO_WORDS` keys; a replayed attacker sequence meets a few."""

    __slots__ = ("config", "triples", "count", "tail", "_runs")

    def __init__(self, branches, config: PredictorConfig):
        self.config = config
        self.triples = tuple(branches)
        targets = [t for _, o, t in self.triples if o is TAKEN]
        bits, emask = config.target_bits_per_entry, (1 << config.target_bits_per_entry) - 1
        tail = 0
        for t in targets[-config.ghr_depth:]:
            tail = (tail << bits) | (t & emask)
        self.count, self.tail = len(targets), tail
        self._runs: dict[tuple[int | None, int], list[tuple]] = {}

    def groups(self, state: "PredictorState", times: int = 1) -> list[tuple]:
        """The sequence run `times` over from `state`, whose selector cannot
        switch mid-call, as `_sweep` groups of identical passes in order: one
        in one-level mode; in history mode, one per run of passes from one
        GHR word, at most ceil(ghr_depth / count) + 1, as a pass that leaves
        the word as it found it leaves it so for every later pass. A memo
        miss walks `history_index` over a GHR clone (`_groups`)."""
        key = (None if state.selector.mode is ONE_LEVEL else state.ghr._word, times)
        groups = self._runs.get(key)
        if groups is None:
            if len(self._runs) >= MEMO_WORDS:
                self._runs.clear()
            groups = self._runs[key] = self._groups(state, times, state.ghr.clone())
        return groups

    def _groups(self, state: "PredictorState", times: int, ghr) -> list[tuple]:
        cfg = self.config  # in history mode, `ghr` walks to the word the passes leave
        if state.selector.mode is ONE_LEVEL:
            pairs = [(o, index_one_level(a, cfg)) for a, o, _ in self.triples]
            return [_sweep(pairs, cfg.one_level_bits, times)]
        groups, left = [], times
        while left:
            start, pairs = ghr._word, []
            for addr, outcome, target in self.triples:
                pairs.append((outcome, state.history_index(addr, ghr)))
                if outcome is TAKEN:
                    ghr.insert_taken(target)
            passes = left if ghr._word == start else 1
            groups.append(_sweep(pairs, cfg.history_bits, passes))
            left -= passes
        return groups


class Chain(Branches):
    """`(branches, times)` segments that one `execute` call runs in order:
    their closed-form groups compose per entry into one map, memoised per
    starting GHR word, and the GHR moves once. It has no triples."""

    def __init__(self, segments):
        self.segments, self.triples, self._runs = segments, (), {}
        self.config = segments[0][0].config
        ghr = GlobalHistoryRegister(self.config)
        for branches, times in segments:
            ghr.advance(branches.count, branches.tail, times)
        self.count, self.tail = sum([b.count * times for b, times in segments]), ghr._word

    def _groups(self, state: "PredictorState", times: int, ghr) -> list[tuple]:
        maps = {}
        for branches, k in self.segments * times:
            for swept, _, _ in branches._groups(state, k, ghr):
                for i, image in swept:  # composed after the maps before it
                    maps[i] = tuple([image[v] for v in maps[i]]) if i in maps else image
        return [(tuple(maps.items()), 1, None)]


class PredictorState:
    """Complete per-core predictor state shared by all simulated processes."""

    def __init__(self, config: PredictorConfig | None = None):
        self.config = config or PredictorConfig()
        weak_one = 1 << (self.config.one_level_bits - 1)
        weak_hist = 1 << (self.config.history_bits - 1)
        self.pht_one_level = [weak_one] * self.config.pht_entries_one_level
        self._pht_history: list[int] | None = [weak_hist] * self.config.pht_entries_history
        # the last reset's seed while `_pht_history` is undrawn
        self._reset_seed: int | None = None
        self.ghr = GlobalHistoryRegister(self.config)
        self.btb = BranchTargetBuffer(self.config.btb_entries)
        self.selector = TournamentSelector()

    # -- tables ----------------------------------------------------------

    @property
    def pht_history(self) -> list[int]:
        if self._pht_history is None:
            self.pht_history = _history_values(self.config, self._reset_seed)
        return self._pht_history

    @pht_history.setter
    def pht_history(self, values: list[int]) -> None:
        self._pht_history, self._reset_seed = values, None

    def table(self, mode: Mode) -> list[int]:
        return self.pht_one_level if mode is ONE_LEVEL else self.pht_history

    # -- prediction / resolution ----------------------------------------

    def predict(self, addr: int) -> Prediction:
        cfg, mode = self.config, self.selector.mode
        index = index_one_level(addr, cfg) if mode is ONE_LEVEL else self.history_index(addr)
        return Prediction(counter_predict(self.table(mode)[index], cfg.counter_width(mode)),
                          mode, index)

    def history_index(self, addr: int, ghr: GlobalHistoryRegister | None = None) -> int:
        """History-PHT index of the branch at `addr` under `ghr`, by default
        the predictor's own: the GHR word xor-folded to the index width, xor
        the address above its alignment bits and the salt. This is the
        formula's one copy: `predict` calls it per branch, and
        `Branches.groups` walks it over a GHR clone on a memo miss. It
        reads no table, so after a reset the history PHT stays undrawn until
        a caller reads it. The fold costs one shift-xor per index width of
        history bits."""
        mask = self.config.pht_entries_history - 1
        width = mask.bit_length()
        word, index = (ghr or self.ghr)._word, (addr >> 2) ^ self.config.index_salt
        while word:  # bits above the index width are masked off at the end
            index ^= word
            word >>= width
        return index & mask

    def apply_counter_update(self, mode: Mode, index: int, outcome: Direction) -> None:
        tbl = self.table(mode)
        tbl[index] = counter_update(tbl[index], self.config.counter_width(mode), outcome)

    def note_resolution(self, addr: int, mode_used: Mode, mispredicted: bool) -> None:
        sel = self.selector
        if sel.frozen or mode_used is not ONE_LEVEL or not mispredicted:
            return
        monitored = self.config.monitored_branches
        if monitored is not None and addr not in monitored:
            return
        sel.mispredict_accumulator += 1
        if sel.mispredict_accumulator >= self.config.transition_threshold:
            sel.mode = HISTORY

    def record_resolution(self, addr: int, outcome: Direction, pred: Prediction,
                          target: int) -> None:
        """Committed-path resolution of the branch at `addr`, which `predict`
        answered with `pred`: update that counter, feed the selector, and
        record a taken branch's target into the GHR."""
        self.apply_counter_update(pred.mode, pred.index, outcome)
        self.note_resolution(addr, pred.mode, pred.direction is not outcome)
        if outcome is TAKEN:
            self.ghr.insert_taken(target)

    def execute(self, branches, times: int = 1, read: bool = False) -> list[bool] | None:
        """Committed executions of a branch sequence, `times` over: for each
        branch, what `predict` and then `record_resolution` do. `branches`
        is a `Branches` (a `Chain` too) of this config; anything else is a
        TypeError. When `read`, returns whether the sequence's last branch
        mispredicted, once per pass, and refuses an empty sequence; else None.

        An unfrozen one-level selector can switch mid-call, so it runs branch
        by branch through `predict` and `record_resolution`, and refuses a
        chain. Any other takes the `_sweep` groups of `groups`, writing each
        entry a group touches once, and then moves the GHR once."""
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        cfg, mode = self.config, self.selector.mode
        if not isinstance(branches, Branches):
            raise TypeError(f"execute takes a Branches, not {type(branches).__name__}")
        if branches.config is not cfg and branches.config != cfg:
            raise ValueError("the branches are bound to another predictor config")
        if read and not branches.triples:
            raise ValueError("an empty sequence has no last branch to read")
        flags = [] if read else None
        if mode is ONE_LEVEL and not self.selector.frozen:
            if isinstance(branches, Chain):
                raise ValueError("a chain runs only where the selector cannot switch mid-call")
            for _ in range(times):
                for addr, outcome, target in branches.triples:
                    pred = self.predict(addr)
                    self.record_resolution(addr, outcome, pred, target)
                if read:  # the pass's last branch
                    flags.append(pred.direction is not outcome)
            return flags
        tbl = self.pht_one_level if mode is ONE_LEVEL else self.pht_history
        for maps, passes, last in branches.groups(self, times):
            if read:
                taken, index, t, s, lo, hi = last
                value = tbl[index]
                flags.append((value >= t) is taken)
                # after one pass the value moves by s a pass and stops at a
                # bound: n passes on its side of t, then the rest across
                value, rest = value + s, passes - 1
                value = lo if value < lo else hi if value > hi else value
                n = (-((value - t) // s) if s > 0 and value < t <= hi else
                     (value - t) // -s + 1 if s < 0 and lo < t <= value else rest)
                side = (value >= t) is taken
                flags += [side] * n + [not side] * (rest - n) if n < rest else [side] * rest
            for index, image in maps:
                tbl[index] = image[tbl[index]]
        self.ghr.advance(branches.count, branches.tail, times)
        return flags

    def randomize_reset(self, seed: int, entries=None) -> None:
        """Model the effect of a long random-outcome branch storm: scrambled
        PHTs and GHR, one-level mode selected, accumulator cleared. The
        one-level PHT and then the GHR word are the first bytes of one
        SHAKE-128 stream keyed by the seed's bytes (`_split`; the word
        masked to the window). The history PHT is drawn when first read,
        from a second stream keyed by the same bytes and `_HISTORY_TAG`, so
        the seed alone fixes the state, and each value is uniform.

        With `entries`, one-level indexes, only those are written, in place,
        from the stream's prefix (a shorter digest) through the last one's
        lane. Other entries and the GHR word keep values that a one-level
        channel reads nowhere before its preamble refills the GHR."""
        n, width = self.config.pht_entries_one_level, self.config.one_level_bits
        if entries is None:
            size = _lane_bytes(n, width)
            raw = _xof(_seed_bytes(seed), size + -(-self.ghr._wmask.bit_length() // 8))
            self.pht_one_level = _split(raw, n, width)
            self.ghr = self.ghr.clone()
            self.ghr._word = int.from_bytes(raw[size:], "little") & self.ghr._wmask
        else:
            raw = _xof(_seed_bytes(seed), _lane_bytes(max(entries, default=-1) + 1, width))
            tbl, mask = self.pht_one_level, (1 << width) - 1
            if width > 8:  # a little-endian byte pair
                for i in entries:
                    tbl[i] = (raw[2 * i] | raw[2 * i + 1] << 8) & mask
            else:  # lane i % per of byte i // per, lowest first
                per = len(_tables(width))
                lane = 8 // per
                for i in entries:
                    tbl[i] = raw[i // per] >> (i % per * lane) & mask
        self._pht_history, self._reset_seed = None, seed
        self.selector.mode = ONE_LEVEL
        self.selector.mispredict_accumulator = 0

    def clone(self) -> "PredictorState":
        c = object.__new__(PredictorState)
        c.config = self.config
        c.pht_one_level = list(self.pht_one_level)
        c._pht_history = None if self._pht_history is None else list(self._pht_history)
        c._reset_seed = self._reset_seed  # an undrawn history PHT stays undrawn
        c.ghr = self.ghr.clone()
        c.btb = self.btb.clone()
        sel = self.selector
        c.selector = TournamentSelector(sel.mode, sel.mispredict_accumulator, sel.frozen)
        return c

    def snapshot(self) -> "Snapshot":
        """Every component, copied for `diff`. It draws nothing: an undrawn
        history PHT is kept as its reset's seed. No hot path takes one."""
        sel, history = self.selector, self._pht_history
        return Snapshot(self.config, tuple(self.pht_one_level),
                        self._reset_seed if history is None else tuple(history), self.ghr._word,
                        tuple(self.btb.slots), {"mode": sel.mode, "frozen": sel.frozen,
                                                "accumulator": sel.mispredict_accumulator})


class Snapshot(namedtuple("Snapshot", "config pht_one_level pht_history ghr btb selector")):
    """`PredictorState.snapshot()`: the config, then the named components:
    each table's values (an undrawn history PHT as its reset's int seed),
    the GHR word, the BTB slots, and the selector's fields by name."""

    def items(self, component: str):
        """A component's `(key, value)` pairs, as `diff` keys them. An undrawn
        history PHT gives what its first read will draw, written nowhere."""
        value = getattr(self, component)
        if component == "ghr":
            ghr = GlobalHistoryRegister(self.config)
            ghr._word = value
            value = ghr.entries
        elif isinstance(value, int):
            value = _history_values(self.config, value)
        return value.items() if component == "selector" else enumerate(value)


def diff(a: Snapshot, b: Snapshot) -> dict[str, dict]:
    """`{component: {key: (before, after)}}` for each part where snapshot
    `b` differs from `a`: table and BTB indexes, GHR entry positions (oldest
    first), selector field names. Empty when the states are equal. Undrawn
    history PHTs of one seed are equal undrawn; else values are compared."""
    if a.config != b.config:
        raise ValueError("the snapshots are of two predictor configs")
    changed = {name: {k: (u, v) for (k, u), (_, v) in zip(a.items(name), b.items(name)) if u != v}
               for name in Snapshot._fields[1:] if getattr(a, name) != getattr(b, name)}
    return {name: parts for name, parts in changed.items() if parts}
