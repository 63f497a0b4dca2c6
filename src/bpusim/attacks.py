"""Attack protocols built on the engine: mode probe, GHR-depth probe,
covert channel, and the v1/v2 side channels.

Attacker-side phases (the history-mode switch, training, presetting and
probing) are committed branch executions: a `Branches` sequence of
`(addr, outcome, target)` triples run `times` over by one
`PredictorState.execute` call against the shared predictor, directly or
through `BranchHarness`. The receiver reads the last execution of one
pass, timed with one noise draw. A channel's trial is four steps:
`prepare` (the reset and the BTB poisoning); one untimed setup call (a
`Chain` of v1's in-bounds warm-ups, the preset when needed and the
victim's always-taken preamble to its trigger, or that preamble alone);
the victim's body; and one timed probe phase. The mode and depth probes
build their sequences per call. Only the body of the run on the trial's
bit, where the transient step happens, goes through the speculation
engine, so the update policy governs exactly the speculative updates.

Two memos replay runs from their read footprints (`_replay`): a victim's
body run (`VictimLayout.transmit`) and, in a channel, everything a trial
does after its setup call, the body and the probe phase (`_Channel.trials`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from . import engine as eng
from . import predictor as bpu
from .engine import ResolveTime
from .predictor import (HISTORY, NOT_TAKEN, ONE_LEVEL, TAKEN, Branches, Chain, Direction, Mode,
                        PredictorConfig, PredictorState, diff, index_btb, index_one_level)
from .program import ALU, COND_BRANCH, HALT, INDIRECT_BRANCH, Instruction, Program
from .timing import LatencyModel, LatencySampler, LatencyTrace


class ProbeError(RuntimeError):
    pass


class AttackError(RuntimeError):
    pass


class TransmissionError(RuntimeError):
    def __init__(self, message: str, bit_position: int):
        super().__init__(message)
        self.bit_position = bit_position


# the attacker's branches: the TNTNTN one and the one both probes use
HISTORY_SCRATCH_ADDR = 0xE000
PROBE_TARGET = 0x4000
# the victims' preamble starts here. `addr >> 2`, the address term of both
# PHT indexes, is 0x440 + 8i for preamble entry i and 0x800 for the v1
# trigger, so with N one-level entries the first entry on the trigger's is
# i = (0x3C0 mod N) / 8: entry 120 (at 0x2001) at the default N = 1024 and
# above, but entry 0 at N <= 64, as with `pht_entries_one_level = 2`. A
# preamble that reaches it steps the trigger toward taken, so v1's
# transmitter is never fetched: v1 fails at trial 0 (ROADMAP direction 2)
PREAMBLE_BASE = 0x1100
# resolve delay of the v1 victim's bounds-check trigger
V1_TRIGGER_DELAY = 60


# ---------------------------------------------------------------------------
# committed-execution harness

class BranchHarness:
    """Drives committed (non-speculative) branch executions for one process
    and times the one execution its receiver reads."""

    def __init__(self, predictor: PredictorState, sampler: LatencySampler):
        self.predictor = predictor
        self.sampler = sampler

    def execute(self, branches: Branches, times: int = 1, read: int | None = None) -> int | None:
        """Execute a branch sequence `times` over, in one predictor call, and
        return the latency of the last execution of pass `read`, or None
        when `read` is None: what the attacker observes. Only a read calls
        the sampler."""
        if read is None:
            self.predictor.execute(branches, times)
            return None
        return self.sampler.measure(self.mispredicted(branches, times, read))

    def mispredicted(self, branches: Branches, times: int, read: int) -> bool:
        """Execute a branch sequence `times` over, in one predictor call, and
        return whether the last execution of pass `read` mispredicted. A pass
        outside `0 .. times - 1` is refused before anything executes."""
        if not 0 <= read < times:
            raise IndexError(f"read pass {read} outside the phase's {times} passes")
        return self.predictor.execute(branches, times, True)[read]


def activate_history_mode(predictor: PredictorState) -> None:
    """Flip the selector with the six-execution TNTNTN exercising sequence."""
    a = HISTORY_SCRATCH_ADDR
    tntntn = [(a, o, a + 0x40) for o in (TAKEN, NOT_TAKEN) * 3]
    predictor.execute(Branches(tntntn, predictor.config))
    if predictor.selector.mode is not HISTORY:
        raise ProbeError("TNTNTN did not trigger history-based prediction")


# ---------------------------------------------------------------------------
# probes

def _probe_preamble(predictor: PredictorState) -> list[tuple[int, Direction, int]]:
    """Taken `(addr, outcome, target)` triples presetting the GHR; addresses
    are chosen to never alias the target's one-level entry."""
    cfg = predictor.config
    triples, addr = [], 0x90000
    tgt_idx = index_one_level(PROBE_TARGET, cfg)
    for i in range(cfg.ghr_depth):
        while index_one_level(addr, cfg) == tgt_idx:
            addr += 4
        triples.append((addr, TAKEN, addr + 0x100 + ((i * 3 + 1) % 4)))
        addr += 0x20
    return triples


def probe_mode(predictor: PredictorState) -> Mode:
    """Classify the active prediction mode by the width of the counter that
    answers a test branch (non-destructive). With `n` the wider of the two
    widths, the branch runs `2^n` times taken, which saturates either
    counter toward taken, then `2^(n-1)` times not-taken, of which a `w`-bit
    counter mispredicts the first `2^(w-1)`. A GHR preset before each run
    keeps the branch on one history entry. The taken runs are one kernel
    call, and the not-taken runs, which read the branch, one more."""
    cfg = predictor.config
    expected = {1 << (cfg.counter_width(m) - 1): m for m in (ONE_LEVEL, HISTORY)}
    if len(expected) == 1:
        raise ProbeError(f"both prediction modes use {cfg.one_level_bits}-bit counters, "
                         "so the mode probe cannot tell them apart")
    n = max(cfg.one_level_bits, cfg.history_bits)
    work = predictor.clone()
    work.selector.frozen = True
    context = _probe_preamble(work)
    taken, not_taken = (Branches([*context, (PROBE_TARGET, d, PROBE_TARGET + 0x40)], cfg)
                        for d in (TAKEN, NOT_TAKEN))
    work.execute(taken, 1 << n)
    count = sum(work.execute(not_taken, 1 << (n - 1), True))
    if count in expected:
        return expected[count]
    raise ProbeError(f"ambiguous misprediction count {count} in "
                     f"{1 << (n - 1)} not-taken executions")


def probe_ghr_depth(predictor: PredictorState, max_N: int) -> int:
    """Find the minimal number of taken branches that presets the full GHR
    window, observed as a PHT collision between trainer and prober.

    Trainer and prober use fixed pollution sequences ahead of the shared
    N-branch preamble that differ only in the low bit of their last entry:
    while N < depth that entry is still in the window, so the two contexts
    differ in the history they fold into the PHT index. Each N trains with
    one predictor call and probes with one more."""
    if predictor.selector.mode is not HISTORY:
        raise ProbeError("history-based prediction must be active")
    cfg = predictor.config
    target = PROBE_TARGET
    n = cfg.history_bits
    entry_values = 1 << cfg.target_bits_per_entry
    p1 = [(0xB0000 + i * 0x20, TAKEN, 0) for i in range(cfg.ghr_depth)]
    p2 = p1[:-1] + [(p1[-1][0], TAKEN, 1)]

    weak_nt = 1 << (n - 1)
    # a frozen history-mode run touches only the history PHT and GHR; N shares the rest
    work = object.__new__(PredictorState)
    vars(work).update(vars(predictor), selector=bpu.TournamentSelector(HISTORY, 0, True))
    for N in range(1, max_N + 1):
        work.pht_history, work.ghr = [weak_nt] * cfg.pht_entries_history, predictor.ghr.clone()
        preamble = [(0x90000 + i * 0x20, TAKEN, (i * 3 + 1) % entry_values) for i in range(N)]
        work.execute(Branches([*p1, *preamble, (target, TAKEN, target + 0x40)], cfg),
                     (1 << n) - 1)
        probe = Branches([*p2, *preamble, (target, NOT_TAKEN, target + 0x40)], cfg)
        if all(work.execute(probe, 1 << (n - 1), True)):
            return N
    raise ProbeError(f"no PHT collision observed up to N={max_N}")


# ---------------------------------------------------------------------------
# read-footprint memos

class _Footprint(NamedTuple):
    """A memoized run, as FastSim (Schnarr & Larus, ASPLOS 1998) memoizes
    state transitions: each PHT entry it read with its value before it
    (`reads`, and `before` as `get` reads them off a table at C speed), each
    entry it changed with its value after, the GHR word and BTB slots it
    left, and its outcome."""
    reads: dict
    get: object
    before: object
    writes: tuple
    ghr: int
    btb: tuple
    outcome: object


def _getter(indexes):
    """A reader of `indexes` off a list or dict at C speed (`itemgetter`);
    of no indexes, which `itemgetter` refuses, one that reads ()."""
    return itemgetter(*indexes) if indexes else lambda _: ()


def _replay(memo: dict, key, tbl: list, predictor: PredictorState,
            slots: list) -> _Footprint | None:
    """The newest footprint of `key` whose read entries hold their values in
    `tbl`, the live table, after writing its changed entries there, its GHR
    word and its BTB `slots`; None when none matches. A run is fixed by what
    it reads, so any match would do; a channel's steady state is its newest."""
    for fp in reversed(memo.get(key, ())):
        _, get, before, writes, word, btb_after, _ = fp
        if get(tbl) == before:
            for i, value in writes:
                tbl[i] = value
            predictor.ghr._word = word
            btb = predictor.btb.slots
            for s, slot in zip(slots, btb_after):
                btb[s] = slot
            return fp
    return None


def _record(memo: dict, key, reads: dict, tbl: list, predictor: PredictorState, slots: list,
            outcome) -> _Footprint:
    """Keep under `key` the footprint of a run that read the entries `reads`
    maps to their values before it and left `tbl` and `predictor` as they
    are. The memo holds at most `predictor.MEMO_WORDS` keys, with as many
    footprints each, and each starts over when full."""
    footprints = memo.get(key)
    if footprints is None:
        if len(memo) >= bpu.MEMO_WORDS:
            memo.clear()
        footprints = memo[key] = []
    elif len(footprints) >= bpu.MEMO_WORDS:
        footprints.clear()
    get = _getter(reads)
    fp = _Footprint(reads, get, get(reads),
                    tuple([(i, tbl[i]) for i, value in reads.items() if tbl[i] != value]),
                    predictor.ghr._word, tuple([predictor.btb.slots[s] for s in slots]), outcome)
    footprints.append(fp)
    return fp


# ---------------------------------------------------------------------------
# victim / trojan program builders

class VictimLayout:
    """A victim: its body's code, checked and indexed once for the engine
    runs of every trial, its addresses, and its always-taken preamble to
    the trigger as the committed executions it makes, which are also the
    GHR context a history-mode attacker replays. `_memo` maps a body run's
    key to the footprints of its runs (`transmit`)."""

    def __init__(self, program: Program, schedule: list[int], trigger_addr: int, bv_addr: int,
                 preamble: Branches):
        self.program, self.schedule, self.preamble = program, schedule, preamble
        self.trigger_addr, self.bv_addr = trigger_addr, bv_addr
        self._memo = {}
        instrs, config = program.instructions, preamble.config
        # a frozen one-level run's PHT entries: its conditional branches'
        self._one_level = {index_one_level(i.addr, config) for i in instrs
                           if i.kind is COND_BRANCH}
        # the BTB slots of its indirect branches, and their reader
        self._slots = [index_btb(i.addr, config.btb_entries) for i in instrs
                       if i.kind is INDIRECT_BRANCH]
        self._read_slots = _getter(self._slots)

    def transmit(self, policy: type[ResolveTime], predictor: PredictorState, env: dict,
                 seed: int) -> _Footprint:
        """The body of a trial's victim run on its bit, after the preamble, as
        its footprint, replayed from the memo unless it misses. Its `outcome`
        says whether the transmitter was fetched and whether it resolved.

        A body run whose selector cannot switch mode reads and writes only
        its fetched conditional branches' entries of its mode's table, its
        indirect branches' BTB slots and the GHR. So the memo keys it on the
        policy, the env (lists as tuples), the seed, whether the selector is
        in one-level mode, the GHR word and those BTB slots. A run misses
        when its key is new, or when some entry it reads differs from each
        footprint of the key; the engine then runs it. A miss first copies
        the entries it can reach: the body's static one-level ones, or the
        whole history table. A selector that could switch mode mid-run
        (unfrozen, one-level) always goes to the engine, and its footprint,
        never replayed, lists no entries."""
        sel, slots = predictor.selector, self._slots
        one_level = sel.mode is ONE_LEVEL
        if one_level and not sel.frozen:
            result = eng.run(self.program, self.schedule, policy, predictor, env=env, seed=seed)[0]
            return _Footprint({}, _getter(()), (), (), predictor.ghr._word, (),
                              self._outcome(result))
        key = (policy, tuple([(k, tuple(v) if isinstance(v, list) else v)
                              for k, v in env.items()]),
               seed, one_level, predictor.ghr._word, self._read_slots(predictor.btb.slots))
        tbl = predictor.table(sel.mode)
        fp = _replay(self._memo, key, tbl, predictor, slots)
        if fp is not None:
            return fp
        before = {i: tbl[i] for i in self._one_level} if one_level else tbl[:]
        result = eng.run(self.program, self.schedule, policy, predictor, env=env, seed=seed)[0]
        reads = {b.pred_index: before[b.pred_index] for b in result.branches
                 if b.pred_mode is not None}
        return _record(self._memo, key, reads, tbl, predictor, slots, self._outcome(result))

    def _outcome(self, result: eng.RunResult) -> tuple[bool, bool]:
        bv = _find_branch(result, self.bv_addr)
        return bv is not None, bv is not None and bv.resolved


def _preamble_block(config: PredictorConfig, trigger_addr: int) -> Branches:
    """The always-taken preamble to the trigger, as committed executions: the
    engine commits each before the next is fetched, so every policy makes the
    kernel's writes."""
    addrs = [PREAMBLE_BASE + i * 0x20 + ((i * 3 + 1) % 4) for i in range(config.ghr_depth)]
    return Branches([(a, TAKEN, t) for a, t in zip(addrs, addrs[1:] + [trigger_addr])], config)


def build_victim_v1(config: PredictorConfig, pid: int = 0) -> VictimLayout:
    """Listing-4 shape: bounds-check trigger (taken = skip) with the
    transmitter branch on the fall-through path."""
    t0, bv, join, out, hlt = 0x2002, 0x2008, 0x2010, 0x2040, 0x2050
    body = [
        Instruction(pid, COND_BRANCH, t0, out, "oob", V1_TRIGGER_DELAY),
        Instruction(pid, COND_BRANCH, bv, join, "sec", 2),
        Instruction(pid, ALU, join),
        Instruction(pid, ALU, 0x2018),
        Instruction(pid, ALU, out),
        Instruction(pid, HALT, hlt),
    ]
    return VictimLayout(Program(body), [pid], t0, bv, _preamble_block(config, t0))


def build_victim_v2(config: PredictorConfig, pid: int = 0, cond_name: str = "sec",
                    trigger_delay: int = 60) -> VictimLayout:
    """Indirect-call trigger whose benign target skips the gadget; the
    transmitter gadget only runs if the BTB is poisoned toward it."""
    t0, gadget, out, hlt = 0x2002, 0x3003, 0x2040, 0x2050
    body = [
        Instruction(pid, INDIRECT_BRANCH, t0, out, None, trigger_delay),
        Instruction(pid, ALU, out),
        Instruction(pid, HALT, hlt),
        Instruction(pid, COND_BRANCH, gadget, 0x3010, cond_name, 2),
        Instruction(pid, ALU, 0x3008),
        Instruction(pid, ALU, 0x3010),
        Instruction(pid, ALU, 0x3018),
    ]
    return VictimLayout(Program(body), [pid], t0, gadget, _preamble_block(config, t0))


def _check_bits(bits, zero, one) -> None:
    for i, b in enumerate(bits):
        if b != zero and b != one:
            raise ValueError(f"bit {i} is {b!r}, not {zero!r} or {one!r}")


def _find_branch(result: eng.RunResult, addr: int) -> eng.DynamicBranch | None:
    for b in result.branches:
        if b.instr.addr == addr:
            return b
    return None


# ---------------------------------------------------------------------------
# the trial loop of the covert channel and the side channels

class _Channel:
    """An attacker and a victim sharing one predictor.

    One trial presets the transmitter's PHT entry toward taken, runs the
    victim transiently on one bit, then probes the entry in the opposite
    direction: the `half`-th probe mispredicts exactly when the victim's
    branch resolved in the preset direction. A chained channel (the covert
    ST/SN protocol) probes `2^n - 1` times, which saturates the entry the
    other way, so the next trial needs no preset and flips the direction.
    `seed` seeds the update policy; `reset` scrambles a one-level predictor.
    One `setup` call precedes each body run: a `Chain`, or the bare preamble (cheaper).
    `_memo` maps a trial's key to the footprints of what it did after its
    setup call (`trials`)."""

    def __init__(self, layout: VictimLayout, mode: Mode, config: PredictorConfig,
                 latency_model, policy: type[ResolveTime], seed: int, context=None,
                 warmup: Branches | None = None):
        self.layout, self.mode, self.policy, self.seed = layout, mode, policy, seed
        self.model = latency_model or LatencyModel()
        self.predictor = PredictorState(config)
        if mode is HISTORY:
            activate_history_mode(self.predictor)
        else:
            self.predictor.selector.frozen = True
        self.harness = BranchHarness(self.predictor, self.model.sampler())
        # the GHR context the attacker replays before each of its executions
        # (by default the victim's own preamble), and each execution of the
        # transmitter's address, context first
        if mode is not HISTORY:
            context = ()
        elif context is None:
            context = layout.preamble.triples
        b_a = layout.bv_addr
        self.executions = {d: Branches([*context, (b_a, d, b_a + 0x40)], config)
                           for d in Direction}
        # the one-level entries a trial can touch: its committed sequences'
        # and the body's conditional branches'. The selector is frozen and the
        # program static, so no kernel call, memo replay or engine run (nor
        # `ObfuscateOnSquash`'s writes) reads or writes another, and a reset
        # of these alone leaves every trial as a full reset does
        sequences = [*self.executions.values(), layout.preamble] + ([warmup] if warmup else [])
        self.entries = tuple(sorted(layout._one_level.union(
            *[[index_one_level(a, config) for a, _, _ in b.triples] for b in sequences])))
        self.n = n = config.counter_width(mode)
        head = [(warmup, 1 << (n - 1))] if warmup else []
        self.setup = {need: Chain(head + [(self.executions[TAKEN], (1 << n) - 1)] * need
                                  + [(layout.preamble, 1)]) if head or need else layout.preamble
                      for need in (False, True)}
        self.direction: Direction | None = None  # None: the entry needs a preset

    def reset(self, seed: int) -> None:
        """Scramble a one-level predictor, as a random branch storm does, at
        the entries its trials can touch (`entries`)."""
        if self.mode is ONE_LEVEL:
            self.predictor.randomize_reset(seed, self.entries)
            self.direction = None

    def trials(self, bits, env, prepare, unresolved, chained=False):
        """One trial per bit: `prepare(i)`, the setup call (one kernel call),
        the victim's body run on `env(bit)` and the probes, which read one
        latency. `unresolved(i, fetched)` is the error raised when the
        transmitter does not resolve (`fetched` says whether it was fetched
        at all), or None to decode anyway. Returns the decoded bits and the
        trace of decisive probes.

        The body run and the probes replay from `_memo`, new for each call.
        With the policy, seed and env per bit fixed, they are fixed by the
        key (the preset direction, the bit, the GHR word and the body's BTB
        slots) and the entries they read: the body's (`VictimLayout.transmit`)
        and those in the probes' `Branches.groups`. A footprint's outcome is
        the decisive probe's mispredict flag, from which the trial draws its
        noise value. A miss runs the body through its own memo and the probes
        through one kernel call; a trial that raises records nothing."""
        half, full = 1 << (self.n - 1), (1 << self.n) - 1
        probes = full if chained else half
        predictor, layout, harness = self.predictor, self.layout, self.harness
        slots, read_slots = layout._slots, layout._read_slots
        measure, threshold = harness.sampler.measure, self.model.threshold
        decoded, trace, probe = [], LatencyTrace([]), 0
        self._memo = {}
        for i, bit in enumerate(bits):
            prepare(i)
            predictor.execute(self.setup[self.direction is None])
            self.direction = direction = self.direction or TAKEN
            tbl = predictor.table(self.mode)  # a full reset replaces the list
            # the direction as a bool: an Enum member hashes in Python
            key = (direction is TAKEN, bit, predictor.ghr._word, read_slots(predictor.btb.slots))
            fp = _replay(self._memo, key, tbl, predictor, slots)
            if fp is None:
                body = layout.transmit(self.policy, predictor, env(bit), self.seed)
                fetched, resolved = body.outcome
                if unresolved is not None and not resolved:
                    raise unresolved(i, fetched)
                execution = self.executions[direction.opposite()]
                # an entry the probes read but the body did not holds its post-setup value
                reads = {k: tbl[k] for maps, _, _ in execution.groups(predictor, probes,
                                                                      predictor.ghr)
                         for k, _ in maps}
                reads.update(body.reads)
                flag = harness.mispredicted(execution, probes, half - 1)
                fp = _record(self._memo, key, reads, tbl, predictor, slots, flag)
            latency = measure(fp.outcome)
            trace.append(probe + half, latency)
            probe += probes
            looks_mispredicted = latency > threshold
            decoded.append(int(looks_mispredicted == (direction is TAKEN)))
            self.direction = direction.opposite() if chained else None
        return decoded, trace


# ---------------------------------------------------------------------------
# covert channel

class CovertResult(NamedTuple):
    decoded: str
    errors: int
    trace: LatencyTrace
    bits_sent: int


def covert_send_receive(
    message: str,
    mode: Mode,
    latency_model: LatencyModel | None = None,
    config: PredictorConfig | None = None,
    policy: type[ResolveTime] = ResolveTime,
    seed: int = 0,
    reset_interval: int = 64,
) -> CovertResult:
    """Transmit a bit string through speculative PHT updates and decode it
    from probe latencies (chained ST/SN protocol)."""
    if reset_interval < 1:
        raise ValueError("reset_interval must be >= 1")
    _check_bits(message, "0", "1")
    config = config or PredictorConfig()
    layout = build_victim_v2(config, pid=0, cond_name="bit", trigger_delay=40)
    ch = _Channel(layout, mode, config, latency_model, policy, seed)
    ch.reset(seed)

    def prepare(i):
        if i > 0 and i % reset_interval == 0:
            ch.reset(seed + 1 + i // reset_interval)
        ch.predictor.btb.update(layout.trigger_addr, layout.bv_addr)

    bits, trace = ch.trials(
        message, lambda c: {"bit": int(c == "1")}, prepare,
        lambda i, _: TransmissionError(f"transmitter branch not resolved at bit {i}", i),
        chained=True)
    decoded = "".join(map(str, bits))
    errors = sum(1 for a, b in zip(message, decoded) if a != b)
    return CovertResult(decoded, errors, trace, len(message))


# ---------------------------------------------------------------------------
# side channels

class SideChannelResult(NamedTuple):
    recovered: list[int]
    ground_truth: list[int]
    accuracy: float
    trials: int
    trace: LatencyTrace


def _side_channel_result(recovered, secret, trace) -> SideChannelResult:
    acc = sum(1 for a, b in zip(recovered, secret) if a == b) / len(secret) if secret else 1.0
    return SideChannelResult(recovered, list(secret), acc, len(secret), trace)


def side_channel_v1(
    secret: list[int],
    mode: Mode,
    latency_model: LatencyModel | None = None,
    config: PredictorConfig | None = None,
    policy: type[ResolveTime] = ResolveTime,
    seed: int = 0,
    corrupt_preamble_entry: int | None = None,
) -> SideChannelResult:
    """Recover a secret bit array through the conditional-trigger victim."""
    _check_bits(secret, 0, 1)
    config = config or PredictorConfig()
    layout = build_victim_v1(config)
    context = None  # the victim's own preamble
    if corrupt_preamble_entry is not None:
        if mode is not HISTORY:
            raise ValueError("corrupt_preamble_entry applies only to history mode: "
                             "the one-level channel replays no GHR context")
        if not 0 <= corrupt_preamble_entry < config.ghr_depth:
            raise ValueError(f"corrupt_preamble_entry must be in 0..{config.ghr_depth - 1}, "
                             f"got {corrupt_preamble_entry}")
        context = list(layout.preamble.triples)
        addr, taken, target = context[corrupt_preamble_entry]
        context[corrupt_preamble_entry] = (addr, taken, target ^ 0x3)
    # from the far end of its taken half, an n-bit trigger counter predicts
    # not-taken after 2^(n-1) in-bounds runs, the channel's warm-ups: the
    # preamble, then trigger and transmitter not-taken (their targets
    # unread). Such a run squashes no conditional branch and moves no GHR,
    # BTB or selector state, so every policy makes the kernel's writes
    warmup = Branches([*layout.preamble.triples, (layout.trigger_addr, NOT_TAKEN, 0),
                       (layout.bv_addr, NOT_TAKEN, 0)], config)
    ch = _Channel(layout, mode, config, latency_model, policy, seed, context, warmup)

    def unresolved(i, fetched):
        if not fetched:
            return AttackError(f"trial {i}: transmitter branch never fetched "
                               "before the trigger resolved")
        return AttackError(f"trial {i}: transmitter branch squashed before resolution")

    recovered, trace = ch.trials(secret, lambda bit: {"oob": 1, "sec": bit},
                                 lambda i: ch.reset(seed * 1000 + i), unresolved)
    return _side_channel_result(recovered, secret, trace)


def side_channel_v2(
    secret: list[int],
    mode: Mode,
    latency_model: LatencyModel | None = None,
    config: PredictorConfig | None = None,
    policy: type[ResolveTime] = ResolveTime,
    seed: int = 0,
    poison: bool = True,
) -> SideChannelResult:
    """Recover a secret through the indirect-call victim via BTB poisoning."""
    _check_bits(secret, 0, 1)
    config = config or PredictorConfig()
    layout = build_victim_v2(config)
    ch = _Channel(layout, mode, config, latency_model, policy, seed)

    def prepare(i):
        ch.reset(seed * 1000 + i)
        if poison:
            ch.predictor.btb.update(layout.trigger_addr, layout.bv_addr)

    unresolved = (lambda i, _: AttackError(f"trial {i}: gadget never reached despite poisoning")) \
        if poison else None
    recovered, trace = ch.trials(secret, lambda bit: {"sec": bit}, prepare, unresolved)
    return _side_channel_result(recovered, secret, trace)


# ---------------------------------------------------------------------------
# speculative-persistence scenario

def speculative_update_scenario(
    policy: type[ResolveTime] = ResolveTime,
    config: PredictorConfig | None = None,
    seed: int = 0,
) -> dict:
    """Mispredicted long-latency branch shields a wrong-path child branch;
    the child resolves speculatively, then the whole path is squashed.
    Reports whether the child's PHT entry kept the speculative update, and
    refuses a table where the outer branch's committed step moves that entry."""
    config = config or PredictorConfig()
    predictor = PredictorState(config)
    predictor.selector.frozen = True
    outer, child = 0x100, 0x300
    idx, outer_idx = index_one_level(child, config), index_one_level(outer, config)
    if idx == outer_idx:
        raise AttackError(f"the outer branch ({outer:#x}) and the child ({child:#x}) share "
                          f"one-level PHT entry {idx}, so its move cannot tell their steps apart")
    program = Program([
        Instruction(0, COND_BRANCH, outer, 0x400, "outer", 50),
        Instruction(0, COND_BRANCH, child, 0x310, "sec", 2),
        Instruction(0, ALU, 0x310),
        Instruction(0, ALU, 0x400),
        Instruction(0, HALT, 0x410),
    ])
    before = predictor.snapshot()
    result, predictor = eng.run(program, [0], policy, predictor,
                                env={"outer": 1, "sec": 1}, seed=seed)
    child_dyn = _find_branch(result, child)
    if child_dyn is None or not child_dyn.resolved or not child_dyn.squashed:
        raise AttackError("child branch did not resolve speculatively before the squash")
    moved = diff(before, predictor.snapshot()).get("pht_one_level", {})
    return {
        "policy": policy.name,
        "child_addr": f"{child:#x}",
        "entry_before": before.pht_one_level[idx],
        "entry_after": predictor.pht_one_level[idx],
        # the outer branch's own entry legitimately moves when it commits;
        # a clean policy moves no other one-level entry
        "state_unchanged": moved.keys() <= {outer_idx},
        "persisted": idx in moved,
        "verdict": "persisted" if idx in moved else "not persisted",
        "events": result.events,
        "summary": result.summary,
    }


# ---------------------------------------------------------------------------
# defense evaluation workload

def defense_workload(iterations: int = 15) -> tuple[Program, dict]:
    """Nested loop under a long-latency outer branch: the inner branch
    resolves speculatively many times before the outer commits."""
    o, l0, l1, end, hlt = 0x100, 0x110, 0x118, 0x400, 0x410
    program = Program([
        Instruction(0, COND_BRANCH, o, end, "outer", 120),
        Instruction(0, ALU, l0),
        Instruction(0, COND_BRANCH, l1, l0, "loop", 2),
        Instruction(0, ALU, end),
        Instruction(0, HALT, hlt),
    ])
    env = {"outer": 0, "loop": [1] * iterations + [0]}
    return program, env


def defense_eval(policies, config: PredictorConfig | None = None,
                 iterations: int = 15, seed: int = 0) -> dict[str, int]:
    """Total mispredictions of the nested-loop workload per policy."""
    config = config or PredictorConfig()
    program, env = defense_workload(iterations)
    # past the outer branch's 120-tick resolve the loop fetches its Alu and
    # its branch one tick each, so a run takes about 2 ticks per iteration (3
    # when a wide counter mispredicts every iteration); budget over twice that
    max_ticks = 1000 + 8 * iterations
    out = {}
    for policy in policies:
        predictor = PredictorState(config)
        predictor.selector.frozen = True
        idx = index_one_level(0x118, config)
        predictor.pht_one_level[idx] = (1 << config.one_level_bits) - 1
        result, _ = eng.run(program, [0], policy, predictor, env=env, max_ticks=max_ticks,
                            seed=seed)
        out[policy.name] = result.summary["0"]["mispredictions"]
    return out
