"""Attack protocols built on the engine: mode probe, GHR-depth probe,
covert channel, and the v1/v2 side channels.

Attacker-side phases (the history-mode switch, training, presetting and
probing) are committed branch executions: a `Branches` sequence of
`(addr, outcome, target)` triples run `times` over by one
`PredictorState.execute` call against the shared predictor, directly or
through `BranchHarness`. The harness times the last execution of the one
pass the receiver reads, with one noise draw: a trial's probes read the
decisive pass, and the preset reads none. So are the victim's always-taken
preamble to its trigger, one untimed kernel call before each run of the
victim's body, and v1's in-bounds warm-ups, one untimed kernel call per
trial over the preamble, the trigger and the transmitter. The channel's
sequences, the preamble and the warm-up are built once; the mode and depth
probes build theirs per call. Only the body of the run on the trial's bit,
where the transient step happens, goes through the speculation engine
(`VictimLayout.transmit`, which replays it from a memo), so the update
policy governs exactly the speculative updates.
"""

from __future__ import annotations

from typing import NamedTuple

from . import engine as eng
from . import predictor as bpu
from .engine import ResolveTime
from .predictor import (HISTORY, NOT_TAKEN, ONE_LEVEL, TAKEN, Branches, Direction, Mode,
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
        the sampler. A pass outside `0 .. times - 1` is refused before
        anything executes."""
        if read is not None and not 0 <= read < times:
            raise IndexError(f"read pass {read} outside the phase's {times} passes")
        flags = self.predictor.execute(branches, times, read is not None)
        return None if read is None else self.sampler.measure(flags[read])


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
    for N in range(1, max_N + 1):
        work = predictor.clone()
        work.selector.frozen = True
        work.pht_history = [weak_nt] * cfg.pht_entries_history
        preamble = [(0x90000 + i * 0x20, TAKEN, (i * 3 + 1) % entry_values) for i in range(N)]
        work.execute(Branches([*p1, *preamble, (target, TAKEN, target + 0x40)], cfg),
                     (1 << n) - 1)
        probe = Branches([*p2, *preamble, (target, NOT_TAKEN, target + 0x40)], cfg)
        if all(work.execute(probe, 1 << (n - 1), True)):
            return N
    raise ProbeError(f"no PHT collision observed up to N={max_N}")


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
        # the BTB slots of its indirect branches
        self._slots = [index_btb(i.addr, config.btb_entries) for i in instrs
                       if i.kind is INDIRECT_BRANCH]

    def transmit(self, policy: type[ResolveTime], predictor: PredictorState, env: dict,
                 seed: int) -> tuple[bool, bool]:
        """A trial's victim run on its bit: the preamble in one kernel call,
        then the body, replayed from the memo unless it misses. Returns
        whether the transmitter was fetched and whether it resolved. The
        engine would fetch each preamble branch into an empty ROB and commit
        it before the next fetch, with no policy state yet, so under every
        policy it makes the kernel's reads and writes.

        A body run whose selector cannot switch mode reads and writes only
        its conditional branches' entries of its mode's table, its indirect
        branches' BTB slots and the GHR. So the memo keys it on the policy,
        the env (lists as tuples), the seed, whether the selector is in
        one-level mode, the GHR word and those BTB slots, and a footprint
        holds each such entry's value before and after. A run misses when
        its key is new, when some such entry's live value differs from each
        footprint of the key, or when its selector could switch mode mid-run
        (unfrozen, one-level); the engine then runs it. A miss first copies
        the entries it can reach: the body's static one-level ones, or the
        whole history table. Each key keeps at most `predictor.MEMO_WORDS`
        footprints, and the memo as many keys; each starts over when full."""
        predictor.execute(self.preamble)
        sel, btb = predictor.selector, predictor.btb
        if sel.mode is ONE_LEVEL and not sel.frozen:
            return self._outcome(eng.run(self.program, self.schedule, policy, predictor,
                                         env=env, seed=seed)[0])
        slots, one_level = self._slots, sel.mode is ONE_LEVEL
        key = (policy, tuple([(k, tuple(v) if isinstance(v, list) else v)
                              for k, v in env.items()]),
               seed, one_level, predictor.ghr._word, tuple([btb.slots[s] for s in slots]))
        tbl = predictor.table(sel.mode)
        footprints = self._memo.get(key)
        if footprints is None:
            if len(self._memo) >= bpu.MEMO_WORDS:
                self._memo.clear()
            footprints = self._memo[key] = []
        for pht, ghr_word, btb_after, outcome in footprints:
            for i, before, _ in pht:
                if tbl[i] != before:
                    break
            else:
                for i, _, after in pht:
                    tbl[i] = after
                predictor.ghr._word = ghr_word
                for s, slot in zip(slots, btb_after):
                    btb.slots[s] = slot
                return outcome
        before = {i: tbl[i] for i in self._one_level} if one_level else tbl[:]
        result = eng.run(self.program, self.schedule, policy, predictor, env=env, seed=seed)[0]
        outcome = self._outcome(result)
        touched = dict.fromkeys(b.pred_index for b in result.branches if b.pred_mode is not None)
        if len(footprints) >= bpu.MEMO_WORDS:
            footprints.clear()
        footprints.append((tuple([(i, before[i], tbl[i]) for i in touched]), predictor.ghr._word,
                           tuple([btb.slots[s] for s in slots]), outcome))
        return outcome

    def _outcome(self, result: eng.RunResult) -> tuple[bool, bool]:
        bv = _find_branch(result, self.bv_addr)
        return bv is not None, bv is not None and bv.resolved


def _preamble_block(config: PredictorConfig, trigger_addr: int) -> Branches:
    """The always-taken preamble to the trigger, as its committed executions."""
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
    `seed` seeds the update policy; `reset` scrambles a one-level predictor."""

    def __init__(self, layout: VictimLayout, mode: Mode, config: PredictorConfig,
                 latency_model, policy: type[ResolveTime], seed: int, context=None):
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
        self.n = config.counter_width(mode)
        self.direction: Direction | None = None  # None: the entry needs a preset

    def reset(self, seed: int) -> None:
        """Scramble a one-level predictor, as a random branch storm does."""
        if self.mode is ONE_LEVEL:
            self.predictor.randomize_reset(seed)
            self.direction = None

    def trials(self, bits, env, prepare, unresolved, chained=False):
        """One trial per bit: `prepare(i)`, the preset if needed, the victim
        run on `env(bit)` (`VictimLayout.transmit`) and the probes; the
        preset and the probes are one harness call each. `unresolved(i,
        fetched)` is the error raised when the transmitter does not resolve
        (`fetched` says whether it was fetched at all), or None to decode
        anyway. Returns the decoded bits and the trace of decisive probes."""
        half, full = 1 << (self.n - 1), (1 << self.n) - 1
        probes = full if chained else half
        decoded, trace, probe = [], LatencyTrace([]), 0
        for i, bit in enumerate(bits):
            prepare(i)
            if self.direction is None:
                self.harness.execute(self.executions[TAKEN], full)
                self.direction = TAKEN
            fetched, resolved = self.layout.transmit(self.policy, self.predictor, env(bit),
                                                     self.seed)
            if unresolved is not None and not resolved:
                raise unresolved(i, fetched)
            latency = self.harness.execute(self.executions[self.direction.opposite()], probes,
                                           half - 1)
            trace.append(probe + half, latency)
            probe += probes
            looks_mispredicted = latency > self.model.threshold
            decoded.append(int(looks_mispredicted == (self.direction is TAKEN)))
            self.direction = self.direction.opposite() if chained else None
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
    ch = _Channel(layout, mode, config, latency_model, policy, seed, context)
    # from the far end of its taken half, an n-bit trigger counter predicts
    # not-taken after 2^(n-1) in-bounds runs: the preamble, then trigger and
    # transmitter not-taken (their targets unread). Such a run squashes no
    # conditional branch and moves no GHR, BTB or selector state, so every
    # policy makes the kernel's writes
    warmups = 1 << (ch.n - 1)
    warmup = Branches([*layout.preamble.triples, (layout.trigger_addr, NOT_TAKEN, 0),
                       (layout.bv_addr, NOT_TAKEN, 0)], config)

    def prepare(i):
        ch.reset(seed * 1000 + i)
        ch.predictor.execute(warmup, warmups)

    def unresolved(i, fetched):
        if not fetched:
            return AttackError(f"trial {i}: transmitter branch never fetched "
                               "before the trigger resolved")
        return AttackError(f"trial {i}: transmitter branch squashed before resolution")

    recovered, trace = ch.trials(
        secret, lambda bit: {"oob": 1, "sec": bit}, prepare, unresolved)
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
