"""Nested-speculation execution engine with pluggable PHT update policies.

`run` takes a `program.Program` (each process's code) and the run's
arguments: the round-robin schedule, the policy, the predictor, the
condition values and a tick budget. Processes share one PredictorState (the
per-core BPU). Fetch proceeds down predicted paths; branches resolve after
their resolve_delay; a misprediction squashes everything younger in the
same process. What happens to predictor state touched by squashed
branches is decided by the update policy: one object per run that makes
every predictor write for a resolving branch and is told about the squash
or commit of each branch it keeps state for.
"""

from __future__ import annotations

import functools
import random
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .predictor import (NOT_TAKEN, TAKEN, Direction, Mode, PredictorState, Prediction,
                        counter_predict, counter_update)
from .program import COND_BRANCH, HALT, INDIRECT_BRANCH, Instruction, Program


class ConfigError(ValueError):
    """A bad run argument: the schedule or `max_ticks`."""


class SimulationError(RuntimeError):
    """A run that cannot go on. At the tick limit it carries `visited_ticks`,
    the count of ticks the run stopped at before it raised."""


# the reorder-buffer size: fetched ops of one process that have not committed
# and were not squashed
INFLIGHT_CAP = 48


class DynamicBranch:
    """One dynamic execution of an instruction (branch fields unused for ops).
    The constructor sets four fields; the others start at these class
    defaults, which is what keeps a fetch cheap."""

    squashed = False
    complete_tick = 0
    # branch-only fields; `predicted` and `actual` are what the resolve
    # record holds: Directions for a conditional branch, targets for an
    # indirect one (`predicted` stays None after a BTB miss)
    predicted: Direction | int | None = None
    pred_mode: Mode | None = None
    pred_index: int | None = None
    resolved = False
    actual: Direction | int | None = None
    mispredicted = False
    speculative = False
    stalled = False

    def __init__(self, instr: Instruction, dseq: int, env_index: int, is_branch: bool = False):
        self.instr, self.dseq, self.env_index, self.is_branch = instr, dseq, env_index, is_branch


def render_events(records: list[tuple]) -> list[str]:
    """The text trace: one line `tick kind dseq pid=P fields...` per record."""
    lines = []
    for tick, kind, dseq, pid, *fields in records:
        line = f"{tick} {kind} {dseq} pid={pid}"
        if kind == "fetch":
            addr, instr_kind, *pred = fields
            line += f" addr={addr:#x} kind={instr_kind.value}"
            if len(pred) == 2:
                line += f" pred={pred[0].value} mode={pred[1].value}"
            elif pred:
                line += f" pred_target={pred[0]:#x}"
        elif kind == "resolve":
            addr, pred, actual, mispredicted, speculative = fields
            if isinstance(actual, Direction):
                detail = f"pred={pred.value} actual={actual.value}"
            else:
                target = "none" if pred is None else f"{pred:#x}"
                detail = f"pred_target={target} actual_target={actual:#x}"
            line += (f" addr={addr:#x} {detail} mispredict={int(mispredicted)} "
                     f"speculative={int(speculative)}")
        elif kind == "stall":
            line += " btb-miss"
        lines.append(line)
    return lines


def summarize(records: list[tuple]) -> dict:
    """Per-process counts of predictions (fetches that carry one),
    mispredictions, speculative resolutions, squashes and commits."""
    keys = ("predictions", "mispredictions", "speculative_resolutions", "squashes", "commits")
    per = {pid: dict.fromkeys(keys, 0) for pid in sorted({r[3] for r in records})}
    for _, kind, _, pid, *fields in records:
        counts = per[pid]
        if kind == "fetch":
            counts["predictions"] += len(fields) > 2
        elif kind == "resolve":
            counts["mispredictions"] += fields[3]
            counts["speculative_resolutions"] += fields[4]
        elif kind == "squash":
            counts["squashes"] += 1
        elif kind == "commit":
            counts["commits"] += 1
    return {str(pid): counts for pid, counts in per.items()}


@dataclass
class RunResult:
    """What one engine run returns. `records` holds one tuple
    `(tick, kind, dseq, pid, *fields)` per event; `events` (their text) and
    `summary` (their per-process counts) are computed on first access.
    `branches` holds every fetched branch in dseq order. The `commit`
    records are the run's architectural effect; the engine keeps no other
    architectural state. `visited_ticks` counts the ticks the engine
    stopped at; it skips the others, where nothing can happen. A run that
    hits its tick limit returns no result; its `SimulationError` carries
    `visited_ticks` instead."""

    records: list[tuple]
    branches: list[DynamicBranch]
    ticks: int
    visited_ticks: int = 0

    @functools.cached_property
    def events(self) -> list[str]:
        return render_events(self.records)

    @functools.cached_property
    def summary(self) -> dict:
        return summarize(self.records)


def obfuscate_entries(predictor: PredictorState, marked, seed: int) -> None:
    """Set each marked entry to a seed-derived pseudorandom counter value."""
    for mode, index in sorted(set(marked), key=lambda k: (k[0].value, k[1])):
        width = predictor.config.counter_width(mode)
        rng = random.Random(f"{seed}:{mode.value}:{index}")
        predictor.table(mode)[index] = rng.randrange(1 << width)


# -- update policies: each conditional branch resolves once and writes one
# PHT entry. A policy keeps in `pending` what it must remember about a
# resolved, unretired branch's writes, keyed by its dseq; the engine tells
# it about a squash only while `pending` holds something, and about a
# commit only of a branch held there.

class ResolveTime:
    """speculative-resolve-time: every write lands at resolve and survives a squash."""

    name = "speculative-resolve-time"

    # a policy that answers some predictions itself sets this to a hook
    # `(pid, prediction)` that may change the prediction's direction
    shadow_predict = None

    def __init__(self, predictor: PredictorState, seed: int):
        self.predictor = predictor
        self.seed = seed
        self.pending: dict[int, object] = {}

    def resolved(self, b: DynamicBranch, ghr_target: int | None) -> None:
        """Train the selector (conditional) or the BTB (indirect), then write
        the PHT counter and, for a taken branch, the GHR."""
        predictor = self.predictor
        if b.instr.kind is COND_BRANCH:
            predictor.note_resolution(b.instr.addr, b.pred_mode, b.mispredicted)
            predictor.apply_counter_update(b.pred_mode, b.pred_index, b.actual)
        else:
            predictor.btb.update(b.instr.addr, b.actual)
        if ghr_target is not None:
            predictor.ghr.insert_taken(ghr_target)

    def squashed(self, victims: list[DynamicBranch]) -> None:
        for d in victims:
            self.pending.pop(d.dseq, None)

    def committed(self, d: DynamicBranch) -> None:
        self.pending.pop(d.dseq, None)


class CommitTime(ResolveTime):
    """PHT and GHR writes wait for commit; squashed branches never write.
    The selector and the BTB still train at resolve."""

    name = "commit-time"

    def resolved(self, b, ghr_target):
        if b.instr.kind is COND_BRANCH:
            self.predictor.note_resolution(b.instr.addr, b.pred_mode, b.mispredicted)
        else:
            self.predictor.btb.update(b.instr.addr, b.actual)
        self.pending[b.dseq] = ghr_target

    def committed(self, d):
        ghr_target = self.pending.pop(d.dseq)
        if d.instr.kind is COND_BRANCH:
            self.predictor.apply_counter_update(d.pred_mode, d.pred_index, d.actual)
        if ghr_target is not None:
            self.predictor.ghr.insert_taken(ghr_target)


class RestoreOnSquash(ResolveTime):
    """Journal each PHT write; a squash undoes its victims' writes, newest first."""

    name = "restore-on-squash"

    def resolved(self, b, ghr_target):
        if b.instr.kind is COND_BRANCH:
            self.pending[b.dseq] = (b.pred_mode, b.pred_index,
                                    self.predictor.table(b.pred_mode)[b.pred_index])
        super().resolved(b, ghr_target)

    def squashed(self, victims):
        gone = {d.dseq for d in victims}
        for dseq in [k for k in reversed(self.pending) if k in gone]:  # dict order = resolve order
            mode, index, prev = self.pending.pop(dseq)
            self.predictor.table(mode)[index] = prev


class ShadowPht(ResolveTime):
    """A speculative conditional branch waits in `pending` until it commits,
    when its PHT step lands, or is squashed, when the step is dropped. Its
    process's predictions see the held steps on the table, in resolve order.
    The selector, the BTB and the GHR still train at resolve."""

    name = "shadow-pht"

    def shadow_predict(self, pid: int, pred: Prediction) -> None:
        mode, index = pred.mode, pred.index
        width = self.predictor.config.counter_width(mode)
        value = self.predictor.table(mode)[index]
        for b in self.pending.values():  # dict order = resolve order
            if b.pred_index == index and b.pred_mode is mode and b.instr.process_id == pid:
                value = counter_update(value, width, b.actual)
        pred.direction = counter_predict(value, width)

    def resolved(self, b, ghr_target):
        if not b.speculative or b.instr.kind is not COND_BRANCH:
            return super().resolved(b, ghr_target)
        self.predictor.note_resolution(b.instr.addr, b.pred_mode, b.mispredicted)
        self.pending[b.dseq] = b
        if ghr_target is not None:
            self.predictor.ghr.insert_taken(ghr_target)

    def committed(self, d):
        del self.pending[d.dseq]
        self.predictor.apply_counter_update(d.pred_mode, d.pred_index, d.actual)


class ObfuscateOnSquash(ResolveTime):
    """A squash sets each PHT entry its victims wrote to a seed-derived value."""

    name = "obfuscate-on-squash"

    def resolved(self, b, ghr_target):
        super().resolved(b, ghr_target)
        if b.instr.kind is COND_BRANCH:
            self.pending[b.dseq] = (b.pred_mode, b.pred_index)

    def squashed(self, victims):
        marked = [self.pending.pop(d.dseq) for d in victims if d.dseq in self.pending]
        if marked:
            obfuscate_entries(self.predictor, marked, self.seed)


# every update policy, in the CLI's order; `name` is each one's CLI string
POLICIES = (ResolveTime, CommitTime, RestoreOnSquash, ShadowPht, ObfuscateOnSquash)


class _Process:
    __slots__ = ("pid", "code", "fetch_addr", "rob", "open", "exec_counts")

    def __init__(self, pid: int, code: dict, entry: int):
        self.pid = pid
        self.code = code
        # None while the process cannot fetch: after a Halt, off the end of
        # its code, or stalled on a BTB miss until that branch resolves
        self.fetch_addr: int | None = entry
        # fetched, not yet committed and not squashed, in fetch order
        self.rob: deque[DynamicBranch] = deque()
        # the branches of the ROB that have not resolved, in fetch order: a
        # branch resolves speculatively when it is not the first of them
        self.open: deque[DynamicBranch] = deque()
        self.exec_counts: dict[int, int] = {}  # addr -> fetches not squashed


def run(program: Program, schedule: list[int], policy: type[ResolveTime] = ResolveTime,
        predictor: PredictorState | None = None, env: dict | None = None,
        max_ticks: int = 100_000, seed: int = 0) -> tuple[RunResult, PredictorState]:
    """Run `program` on `predictor`, a fresh one if None, under the update
    policy class `policy`, built with `seed`. Visit, in order,
    each tick at which a branch resolves, a ROB-front op completes, or the
    round-robin slot goes to a process that can fetch; at each, resolve,
    then commit, then fetch."""
    if not schedule:
        raise ConfigError("empty schedule")
    if max_ticks < 1:
        raise ConfigError(f"max_ticks must be >= 1, got {max_ticks}")
    for pid in schedule:
        if pid not in program.code:
            raise ConfigError(f"schedule references undeclared process {pid}")
    # a process that is never scheduled never halts
    for pid in program.code:
        if pid not in schedule:
            raise ConfigError(f"process {pid} is declared but not in the schedule")
    predictor = predictor if predictor is not None else PredictorState()
    env = env or {}
    procs = {pid: _Process(pid, code, program.entry[pid]) for pid, code in program.code.items()}
    policy = policy(predictor, seed)
    pending, resolved, shadow_predict = policy.pending, policy.resolved, policy.shadow_predict
    predict, btb_lookup = predictor.predict, predictor.btb.lookup
    slots = [procs[pid] for pid in schedule]
    n = len(slots)
    order = list(procs.values())
    records: list[tuple] = []
    branches: list[DynamicBranch] = []  # every fetched branch, in dseq order
    append = records.append
    # (resolve_tick, dseq, branch) of every fetched branch; squashed ones
    # are skipped when popped
    heap: list[tuple[int, int, DynamicBranch]] = []
    running = len(order)  # processes that have not committed their Halt
    tick = dseq = visited_ticks = 0
    while running:
        p = slots[tick % n]
        if p.fetch_addr is None or len(p.rob) >= INFLIGHT_CAP:
            # nothing to fetch now: skip to the next tick where a phase
            # can act, as the ticks between change no state
            while heap and heap[0][2].squashed:
                heappop(heap)
            nxt = heap[0][0] if heap else max_ticks
            for p in order:
                rob = p.rob
                if rob and not rob[0].is_branch and rob[0].complete_tick < nxt:
                    nxt = max(rob[0].complete_tick, tick)
            for t in range(tick + 1, min(tick + n, nxt)):
                p = slots[t % n]
                if p.fetch_addr is not None and len(p.rob) < INFLIGHT_CAP:
                    nxt = t
                    break
            tick = nxt
        if tick >= max_ticks:
            b = next((p.open[0] for p in order if p.open), None)
            exc = SimulationError("tick limit exceeded" if b is None else
                                  f"unresolved branch pid={b.instr.process_id} "
                                  f"addr={b.instr.addr:#x} at tick limit")
            exc.visited_ticks = visited_ticks
            raise exc
        visited_ticks += 1

        # resolve every branch due by this tick
        while heap and heap[0][0] <= tick:
            b = heappop(heap)[2]
            if b.squashed:
                continue
            instr = b.instr
            p = procs[instr.process_id]
            opened = p.open
            b.resolved = True
            b.speculative = spec = opened[0] is not b
            opened.remove(b)
            pred = b.predicted
            if instr.kind is COND_BRANCH:
                name = instr.condition_source
                if name not in env:
                    raise SimulationError(f"cond={name} of the branch at "
                                          f"{instr.addr:#x} is missing from env")
                value = env[name]
                if isinstance(value, (list, tuple)):  # one per execution; the last repeats
                    value = value[min(b.env_index, len(value) - 1)] if value else 0
                b.actual = actual = NOT_TAKEN if value == 0 else TAKEN
                ghr_target = instr.static_target if actual is TAKEN else None
            else:
                b.actual = actual = ghr_target = instr.static_target
                if b.stalled:  # never mispredicts: fetch resumes at the target
                    p.fetch_addr = actual
            b.mispredicted = mispredicted = pred != actual and not b.stalled
            resolved(b, ghr_target)
            append((tick, "resolve", b.dseq, p.pid, instr.addr, pred, actual,
                    mispredicted, spec))
            if not mispredicted:
                continue
            # squash everything younger than b in its process
            rob, victims = p.rob, []
            while rob[-1] is not b:  # the ROB is in dseq order and holds b
                victims.append(rob.pop())
            victims.reverse()
            while opened and opened[-1].dseq > b.dseq:
                opened.pop()
            counts = p.exec_counts
            for d in victims:
                d.squashed = True
                counts[d.instr.addr] -= 1
                append((tick, "squash", d.dseq, p.pid))
            if pending:
                policy.squashed(victims)
            # redirect fetch down the correct path
            p.fetch_addr = p.code[instr.addr][1] if actual is NOT_TAKEN else instr.static_target

        # commit each process's completed ROB prefix
        for p in order:
            rob = p.rob
            while rob:
                d = rob[0]
                if not (d.resolved if d.is_branch else d.complete_tick <= tick):
                    break
                rob.popleft()
                if d.dseq in pending:
                    policy.committed(d)
                if d.instr.kind is HALT:
                    running -= 1
                append((tick, "commit", d.dseq, p.pid))

        # fetch one instruction for the process whose slot this is
        p = slots[tick % n]
        addr = p.fetch_addr
        if addr is not None and len(p.rob) < INFLIGHT_CAP:
            entry = p.code.get(addr)
            if entry is None:  # ran off the code
                p.fetch_addr = None
            else:
                instr, fallthrough = entry
                kind, pid = instr.kind, p.pid
                env_index = p.exec_counts.get(addr, 0)
                p.exec_counts[addr] = env_index + 1
                is_branch = kind is COND_BRANCH or kind is INDIRECT_BRANCH
                d = DynamicBranch(instr, dseq, env_index, is_branch)
                p.rob.append(d)
                if is_branch:
                    p.open.append(d)
                    branches.append(d)
                    heappush(heap, (tick + instr.resolve_delay, dseq, d))
                if kind is COND_BRANCH:
                    pred = predict(addr)
                    if shadow_predict is not None:
                        shadow_predict(pid, pred)
                    d.predicted = direction = pred.direction
                    d.pred_mode, d.pred_index = pred.mode, pred.index
                    p.fetch_addr = instr.static_target if direction is TAKEN else fallthrough
                    append((tick, "fetch", dseq, pid, addr, kind, direction, pred.mode))
                elif kind is INDIRECT_BRANCH:
                    target = btb_lookup(addr)
                    if target is None:
                        d.stalled = True
                        p.fetch_addr = None
                        append((tick, "stall", dseq, pid))
                        append((tick, "fetch", dseq, pid, addr, kind))
                    else:
                        d.predicted = p.fetch_addr = target
                        append((tick, "fetch", dseq, pid, addr, kind, target))
                else:  # a Halt completes at once and ends its process's fetch
                    halt = kind is HALT
                    d.complete_tick = tick if halt else tick + instr.resolve_delay
                    p.fetch_addr = None if halt else fallthrough
                    append((tick, "fetch", dseq, pid, addr, kind))
                dseq += 1
        tick += 1
    return RunResult(records, branches, tick, visited_ticks), predictor
