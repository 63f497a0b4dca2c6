"""Nested-speculation execution engine with pluggable PHT update policies.

Processes share one PredictorState (the per-core BPU). Fetch proceeds down
predicted paths; branches resolve after their resolve_delay; a misprediction
squashes everything younger in the same process. What happens to predictor
state touched by squashed branches is decided by the update policy: one
object per run that makes every predictor write for a resolving branch and
is told about each squash and commit.
"""

from __future__ import annotations

import enum
import functools
import heapq
import random
from collections import deque
from dataclasses import dataclass

from .predictor import (NOT_TAKEN, TAKEN, Direction, Mode, PredictorState, Prediction,
                        counter_predict, counter_update)
from .program import (ALU, COND_BRANCH, HALT, INDIRECT_BRANCH, LOAD, STORE, TIMER_READ,
                      Instruction)


class ConfigError(ValueError):
    pass


class SimulationError(RuntimeError):
    pass


class PolicyVariant(enum.Enum):
    SPECULATIVE_RESOLVE_TIME = "speculative-resolve-time"
    COMMIT_TIME = "commit-time"
    RESTORE_ON_SQUASH = "restore-on-squash"
    SHADOW_PHT = "shadow-pht"
    OBFUSCATE_ON_SQUASH = "obfuscate-on-squash"


@dataclass(frozen=True)
class UpdatePolicy:
    variant: PolicyVariant = PolicyVariant.SPECULATIVE_RESOLVE_TIME
    obfuscation_seed: int = 0


DEFAULT_POLICY = UpdatePolicy()

# the reorder-buffer size: fetched ops of one process that have not committed
# and were not squashed
INFLIGHT_CAP = 48


@dataclass(slots=True, eq=False)
class DynamicBranch:
    """One dynamic execution of an instruction (branch fields unused for ops)."""

    instr: Instruction
    dseq: int
    env_index: int
    is_branch: bool = False
    squashed: bool = False
    committed: bool = False
    complete_tick: int = 0
    # branch-only fields
    predicted_dir: Direction | None = None
    predicted_target: int | None = None
    pred_mode: Mode | None = None
    pred_index: int | None = None
    resolved: bool = False
    actual_dir: Direction | None = None
    actual_target: int | None = None
    mispredicted: bool = False
    speculative: bool = False
    stalled: bool = False


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
    `branches` holds every fetched branch in dseq order."""

    records: list[tuple]
    branches: list[DynamicBranch]
    arch: dict
    ticks: int

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
# PHT entry, so `pending` maps a resolved, unretired branch's dseq to what
# its policy must remember about that write.

class ResolveTime:
    """speculative-resolve-time: every write lands at resolve and survives a squash."""

    def __init__(self, predictor: PredictorState, seed: int):
        self.predictor = predictor
        self.seed = seed
        self.pending: dict[int, object] = {}

    def predict(self, pid: int, addr: int) -> Prediction:
        return self.predictor.predict(addr)

    def resolved(self, b: DynamicBranch, ghr_target: int | None) -> None:
        # selector and BTB train at resolve time under every policy
        if b.instr.kind is COND_BRANCH:
            self.predictor.note_resolution(b.instr.addr, b.pred_mode, b.mispredicted)
        else:
            self.predictor.btb.update(b.instr.addr, b.actual_target)
        self.write(b, ghr_target)

    def write(self, b: DynamicBranch, ghr_target: int | None) -> None:
        if b.instr.kind is COND_BRANCH:
            self.write_pht(b)
        if ghr_target is not None:
            self.predictor.ghr.insert_taken(ghr_target)

    def write_pht(self, b: DynamicBranch) -> None:
        self.predictor.apply_counter_update(b.pred_mode, b.pred_index, b.actual_dir)

    def squashed(self, victims: list[DynamicBranch]) -> None:
        for d in victims:
            self.pending.pop(d.dseq, None)

    def committed(self, d: DynamicBranch) -> None:
        self.pending.pop(d.dseq, None)


class CommitTime(ResolveTime):
    """PHT and GHR writes wait for commit; squashed branches never write."""

    def write(self, b, ghr_target):
        self.pending[b.dseq] = ghr_target

    def committed(self, d):
        if d.dseq in self.pending:
            super().write(d, self.pending.pop(d.dseq))


class RestoreOnSquash(ResolveTime):
    """Journal each PHT write; a squash undoes its victims' writes, newest first."""

    def write_pht(self, b):
        self.pending[b.dseq] = (b.pred_mode, b.pred_index,
                                self.predictor.table(b.pred_mode)[b.pred_index])
        super().write_pht(b)

    def squashed(self, victims):
        gone = {d.dseq for d in victims}
        for dseq in [k for k in reversed(self.pending) if k in gone]:  # dict order = resolve order
            mode, index, prev = self.pending.pop(dseq)
            self.predictor.table(mode)[index] = prev


class ShadowPht(ResolveTime):
    """Speculative PHT writes go to a per-process shadow merged into the PHT at commit."""

    def __init__(self, predictor, seed):
        super().__init__(predictor, seed)
        # (mode, index, pid) -> (counter value, dseq of its last writer)
        self.shadow: dict[tuple[Mode, int, int], tuple[int, int]] = {}

    def predict(self, pid, addr):
        pred = self.predictor.predict(addr)
        entry = self.shadow.get((pred.mode, pred.index, pid))
        if entry is not None:
            width = self.predictor.config.counter_width(pred.mode)
            pred.direction = counter_predict(entry[0], width)
        return pred

    def write_pht(self, b):
        if not b.speculative:
            return super().write_pht(b)
        mode, index = b.pred_mode, b.pred_index
        key = (mode, index, b.instr.process_id)
        base = self.shadow[key][0] if key in self.shadow else self.predictor.table(mode)[index]
        width = self.predictor.config.counter_width(mode)
        self.shadow[key] = (counter_update(base, width, b.actual_dir), b.dseq)
        self.pending[b.dseq] = key

    def squashed(self, victims):
        for d in victims:
            key = self.pending.pop(d.dseq, None)
            if key in self.shadow and self.shadow[key][1] == d.dseq:  # d wrote it last
                del self.shadow[key]

    def committed(self, d):
        key = self.pending.pop(d.dseq, None)
        if key in self.shadow:
            self.predictor.table(key[0])[key[1]] = self.shadow.pop(key)[0]


class ObfuscateOnSquash(ResolveTime):
    """A squash sets each PHT entry its victims wrote to a seed-derived value."""

    def write_pht(self, b):
        super().write_pht(b)
        self.pending[b.dseq] = (b.pred_mode, b.pred_index)

    def squashed(self, victims):
        marked = [self.pending.pop(d.dseq) for d in victims if d.dseq in self.pending]
        if marked:
            obfuscate_entries(self.predictor, marked, self.seed)


POLICY_CLASSES = {
    PolicyVariant.SPECULATIVE_RESOLVE_TIME: ResolveTime,
    PolicyVariant.COMMIT_TIME: CommitTime,
    PolicyVariant.RESTORE_ON_SQUASH: RestoreOnSquash,
    PolicyVariant.SHADOW_PHT: ShadowPht,
    PolicyVariant.OBFUSCATE_ON_SQUASH: ObfuscateOnSquash,
}


class _Process:
    def __init__(self, pid: int, instrs: list[Instruction]):
        self.pid = pid
        addr_map = {i.addr: i for i in instrs}
        order = sorted(addr_map)
        # addr -> (instruction, the next address or None)
        self.code = {a: (addr_map[a], b) for a, b in zip(order, order[1:] + [None])}
        # None while the process cannot fetch: after a Halt, off the end of
        # its code, or stalled on a BTB miss until that branch resolves
        self.fetch_addr: int | None = instrs[0].addr
        # fetched, not yet committed and not squashed, in fetch order
        self.rob: deque[DynamicBranch] = deque()
        # the branches of the ROB that have not resolved, in fetch order: a
        # branch resolves speculatively when it is not the first of them
        self.open: deque[DynamicBranch] = deque()
        self.exec_counts: dict[int, int] = {}  # addr -> fetches not squashed
        self.mem: dict[int, int] = {}
        self.regs = {"acc": 0, "last_load": 0, "timer_reads": 0}


class Engine:
    def __init__(
        self,
        programs: dict[int, list[Instruction]],
        schedule: list[int],
        policy: UpdatePolicy,
        predictor: PredictorState,
        env: dict | None = None,
        max_ticks: int = 100_000,
    ):
        if not schedule:
            raise ConfigError("empty schedule")
        if max_ticks < 1:
            raise ConfigError(f"max_ticks must be >= 1, got {max_ticks}")
        for pid in schedule:
            if pid not in programs:
                raise ConfigError(f"schedule references undeclared process {pid}")
        # a process that is never scheduled or has nothing to fetch never halts
        for pid, instrs in programs.items():
            if pid not in schedule:
                raise ConfigError(f"process {pid} is declared but not in the schedule")
            if not instrs:
                raise ConfigError(f"process {pid} has an empty program")
            seen = set()
            for i in instrs:
                if i.process_id != pid:
                    raise ConfigError(f"process {pid}: the instruction at {i.addr:#x} "
                                      f"has process_id {i.process_id}")
                if i.addr in seen:
                    raise ConfigError(f"process {pid}: two instructions at {i.addr:#x}")
                seen.add(i.addr)
        self.procs = {pid: _Process(pid, instrs) for pid, instrs in programs.items()}
        self.schedule = list(schedule)
        self.policy = POLICY_CLASSES[policy.variant](predictor, policy.obfuscation_seed)
        self.predictor = predictor
        self.env = env or {}
        self.max_ticks = max_ticks
        self.records: list[tuple] = []
        self.branches: list[DynamicBranch] = []  # every fetched branch, in dseq order
        self._running = len(self.procs)  # processes that have not committed their Halt
        self.tick = 0
        self._dseq = 0
        # (resolve_tick, dseq, branch) of every fetched branch; squashed ones
        # are skipped when popped
        self._unresolved: list[tuple[int, int, DynamicBranch]] = []

    # -- env -------------------------------------------------------------

    def _cond_value(self, instr: Instruction, env_index: int) -> int:
        name = instr.condition_source
        if name not in self.env:
            raise SimulationError(
                f"cond={name} of the branch at {instr.addr:#x} is missing from env")
        raw = self.env[name]
        if isinstance(raw, (list, tuple)):
            if not raw:
                return 0
            return raw[env_index] if env_index < len(raw) else raw[-1]
        return raw

    # -- main loop --------------------------------------------------------

    def run(self) -> RunResult:
        while self._running:
            # the ticks before the next one where a phase can act change no state
            self.tick = min(self._next_active_tick(), self.max_ticks)
            if self.tick >= self.max_ticks:
                b = next((p.open[0] for p in self.procs.values() if p.open), None)
                if b is not None:
                    raise SimulationError(
                        f"unresolved branch pid={b.instr.process_id} "
                        f"seq={b.instr.seq} addr={b.instr.addr:#x} at tick limit"
                    )
                raise SimulationError("tick limit exceeded")
            self._resolve_phase()
            self._commit_phase()
            self._fetch_phase()
            self.tick += 1
        return RunResult(self.records, self.branches, self._arch(), self.tick)

    def _next_active_tick(self) -> int:
        """The earliest tick >= self.tick at which a branch resolves, a ROB-front
        op completes, or the round-robin slot goes to a process that can fetch."""
        t, heap = self.tick, self._unresolved
        while heap and heap[0][2].squashed:
            heapq.heappop(heap)
        best = heap[0][0] if heap else self.max_ticks
        for p in self.procs.values():
            if p.rob and not p.rob[0].is_branch and p.rob[0].complete_tick < best:
                best = max(p.rob[0].complete_tick, t)
        n = len(self.schedule)
        for k in range(min(n, best - t)):
            p = self.procs[self.schedule[(t + k) % n]]
            if p.fetch_addr is not None and len(p.rob) < INFLIGHT_CAP:
                return t + k
        return best

    def _arch(self) -> dict:
        return {
            pid: {"mem": dict(sorted(p.mem.items())), "regs": dict(p.regs)}
            for pid, p in sorted(self.procs.items())
        }

    # -- phases -----------------------------------------------------------

    def _resolve_phase(self) -> None:
        heap = self._unresolved
        while heap and heap[0][0] <= self.tick:
            b = heapq.heappop(heap)[2]
            if not b.squashed:
                self._resolve(b)

    def _resolve(self, b: DynamicBranch) -> None:
        instr = b.instr
        proc = self.procs[instr.process_id]
        b.resolved = True
        b.speculative = proc.open[0] is not b
        proc.open.remove(b)
        if instr.kind is COND_BRANCH:
            taken = self._cond_value(instr, b.env_index) != 0
            b.actual_dir = TAKEN if taken else NOT_TAKEN
            b.mispredicted = b.predicted_dir is not b.actual_dir
            self.policy.resolved(b, instr.static_target if taken else None)
            pred, actual = b.predicted_dir, b.actual_dir
        else:
            b.actual_target = b.instr.static_target
            if b.stalled:  # never mispredicts: fetch resumes at the target
                proc.fetch_addr = b.actual_target
            else:
                b.mispredicted = b.predicted_target != b.actual_target
            self.policy.resolved(b, b.actual_target)
            pred, actual = b.predicted_target, b.actual_target
        self.records.append((self.tick, "resolve", b.dseq, proc.pid, instr.addr, pred, actual,
                             b.mispredicted, b.speculative))
        if b.mispredicted:
            self._squash_after(b)

    def _squash_after(self, b: DynamicBranch) -> None:
        proc = self.procs[b.instr.process_id]
        victims = []
        while proc.rob[-1] is not b:  # the ROB is in dseq order and holds b
            victims.append(proc.rob.pop())
        victims.reverse()
        # every open branch younger than b is a victim
        while proc.open and proc.open[-1].dseq > b.dseq:
            proc.open.pop()
        for d in victims:
            d.squashed = True
            proc.exec_counts[d.instr.addr] -= 1
            self.records.append((self.tick, "squash", d.dseq, proc.pid))
        self.policy.squashed(victims)
        # redirect fetch down the correct path
        if b.actual_dir is NOT_TAKEN:
            proc.fetch_addr = proc.code[b.instr.addr][1]
        else:
            proc.fetch_addr = b.instr.static_target

    def _commit_phase(self) -> None:
        for proc in self.procs.values():
            while proc.rob:
                d = proc.rob[0]
                ready = d.resolved if d.is_branch else d.complete_tick <= self.tick
                if not ready:
                    break
                proc.rob.popleft()
                self._commit(proc, d)

    def _commit(self, proc: _Process, d: DynamicBranch) -> None:
        d.committed = True
        self.policy.committed(d)
        kind = d.instr.kind
        if kind is STORE:
            proc.mem[d.instr.addr] = d.env_index + 1
        elif kind is LOAD:
            proc.regs["last_load"] = proc.mem.get(d.instr.addr, 0)
        elif kind is ALU:
            proc.regs["acc"] += 1
        elif kind is TIMER_READ:
            proc.regs["timer_reads"] += 1
            self.records.append((self.tick, "timer", d.dseq, proc.pid))
        elif kind is HALT:
            self._running -= 1
        self.records.append((self.tick, "commit", d.dseq, proc.pid))

    def _fetch_phase(self) -> None:
        tick = self.tick
        pid = self.schedule[tick % len(self.schedule)]
        proc = self.procs[pid]
        addr = proc.fetch_addr
        if addr is None or len(proc.rob) >= INFLIGHT_CAP:
            return
        entry = proc.code.get(addr)
        if entry is None:  # ran off the code
            proc.fetch_addr = None
            return
        instr, fallthrough = entry
        kind = instr.kind
        env_index = proc.exec_counts.get(addr, 0)
        proc.exec_counts[addr] = env_index + 1
        dseq = self._dseq
        self._dseq += 1
        is_branch = kind is COND_BRANCH or kind is INDIRECT_BRANCH
        d = DynamicBranch(instr, dseq, env_index, is_branch)
        proc.rob.append(d)
        delay = instr.resolve_delay
        if is_branch:
            proc.open.append(d)
            self.branches.append(d)
            heapq.heappush(self._unresolved, (tick + delay, dseq, d))
        if kind is COND_BRANCH:
            pred = self.policy.predict(pid, addr)
            d.predicted_dir, d.pred_mode, d.pred_index = pred.direction, pred.mode, pred.index
            if pred.direction is TAKEN:
                proc.fetch_addr = instr.static_target
            else:
                proc.fetch_addr = fallthrough
            record = (tick, "fetch", dseq, pid, addr, kind, pred.direction, pred.mode)
        elif kind is INDIRECT_BRANCH:
            target = self.predictor.btb.lookup(addr)
            if target is None:
                d.stalled = True
                proc.fetch_addr = None
                self.records.append((tick, "stall", dseq, pid))
                record = (tick, "fetch", dseq, pid, addr, kind)
            else:
                d.predicted_target = target
                proc.fetch_addr = target
                record = (tick, "fetch", dseq, pid, addr, kind, target)
        else:
            record = (tick, "fetch", dseq, pid, addr, kind)
            if kind is HALT:
                d.complete_tick = tick
                proc.fetch_addr = None
            else:
                d.complete_tick = tick + delay
                proc.fetch_addr = fallthrough
        self.records.append(record)


def run(
    programs: dict[int, list[Instruction]],
    schedule: list[int],
    policy: UpdatePolicy = DEFAULT_POLICY,
    predictor: PredictorState | None = None,
    env: dict | None = None,
    max_ticks: int = 100_000,
) -> tuple[RunResult, PredictorState]:
    predictor = predictor if predictor is not None else PredictorState()
    eng = Engine(programs, schedule, policy, predictor, env, max_ticks)
    result = eng.run()
    return result, predictor
