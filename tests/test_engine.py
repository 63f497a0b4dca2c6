from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from bpusim import engine as eng
from bpusim.engine import (
    POLICIES,
    CommitTime,
    ConfigError,
    ObfuscateOnSquash,
    ResolveTime,
    RestoreOnSquash,
    ShadowPht,
    SimulationError,
    obfuscate_entries,
)
from bpusim.attacks import AttackError, speculative_update_scenario
from bpusim.predictor import (
    Direction,
    Mode,
    PredictorConfig,
    PredictorState,
    diff,
    index_btb,
    index_one_level,
)
from bpusim.program import Instruction, Kind, Program, ProgramError, parse_program

BRANCH_KINDS = (Kind.COND_BRANCH, Kind.INDIRECT_BRANCH)

def _frozen_state(config=None):
    p = PredictorState(config)
    p.selector.frozen = True
    return p


def _committed(res) -> dict[int, list[int]]:
    """pid -> the addresses of its `commit` records, in record order: the
    run's architectural effect."""
    addrs = {r[2]: r[4] for r in res.records if r[1] == "fetch"}
    out: dict[int, list[int]] = {}
    for _, kind, dseq, pid, *_ in res.records:
        if kind == "commit":
            out.setdefault(pid, []).append(addrs[dseq])
    return out


def test_straight_line_commits_every_op_in_order():
    programs = parse_program(
        """
        0 Alu 0x100 delay=3
        0 Alu 0x108 delay=1
        0 Alu 0x110 delay=2
        0 Alu 0x118 delay=1
        0 Halt 0x120
        """
    )
    res, _ = eng.run(programs, [0], ResolveTime, _frozen_state())
    assert _committed(res) == {0: [0x100, 0x108, 0x110, 0x118, 0x120]}
    assert res.summary["0"]["commits"] == 5
    assert res.summary["0"]["squashes"] == 0


def test_taken_branch_redirects_fetch():
    programs = parse_program(
        """
        0 CondBranch 0x100 0x200 cond=c delay=2
        0 Alu 0x108
        0 Alu 0x200
        0 Halt 0x210
        """
    )
    res, pred = eng.run(programs, [0], ResolveTime, _frozen_state(), env={"c": 1})
    # fresh weak-not-taken entry predicts NotTaken, branch is actually taken
    assert res.summary["0"]["mispredictions"] == 1
    assert res.summary["0"]["squashes"] == 1
    # wrong-path Alu at 0x108 never commits
    assert _committed(res) == {0: [0x100, 0x200, 0x210]}
    # resolution trained the entry toward taken and pushed the target's bits
    assert pred.pht_one_level[index_one_level(0x100, pred.config)] == 1
    assert pred.ghr.entries[-1] == 0x200 & 3


def test_wrong_path_op_never_commits():
    programs = parse_program(
        """
        0 CondBranch 0x100 0x200 cond=c delay=8
        0 Alu 0x108 delay=1
        0 Alu 0x200
        0 Halt 0x210
        """
    )
    res, _ = eng.run(programs, [0], ResolveTime, _frozen_state(), env={"c": 1})
    # the Alu at 0x108 completes on the wrong path, then is squashed
    assert (1, "fetch", 1, 0, 0x108, Kind.ALU) in res.records
    assert (8, "squash", 1, 0) in res.records
    assert _committed(res) == {0: [0x100, 0x200, 0x210]}


def test_committed_addresses_identical_across_policies():
    text = """
    0 CondBranch 0x100 0x300 cond=a delay=10
    0 Alu 0x108 delay=1
    0 CondBranch 0x110 0x200 cond=b delay=2
    0 Alu 0x118
    0 Alu 0x200
    0 Alu 0x300
    0 Alu 0x308
    0 Halt 0x310
    """
    envs = [{"a": 1, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}]
    for env in envs:
        outcomes = []
        for policy in POLICIES:
            res, _ = eng.run(parse_program(text), [0], policy, _frozen_state(), env=env,
                             seed=7)
            outcomes.append(_committed(res))
        assert all(o == outcomes[0] for o in outcomes), env


def test_env_list_condition_indexed_per_execution():
    programs = parse_program(
        """
        0 Alu 0x100
        0 CondBranch 0x108 0x100 cond=loop delay=2
        0 Halt 0x110
        """
    )
    res, _ = eng.run(programs, [0], ResolveTime, _frozen_state(),
                     env={"loop": [1, 1, 1, 0]})
    # three taken iterations + final not-taken: the loop body commits 4 times
    assert _committed(res) == {0: [0x100, 0x108] * 4 + [0x110]}


def test_round_robin_schedule_interleaves_processes():
    text = """
    0 Alu 0x100
    0 Halt 0x108
    1 Alu 0x100
    1 Halt 0x108
    """
    res, _ = eng.run(parse_program(text), [0, 1], ResolveTime, _frozen_state())
    assert res.summary["0"]["commits"] == 2
    assert res.summary["1"]["commits"] == 2


def test_schedule_validation():
    # a process with no instructions is not in the program, so scheduling
    # it is scheduling an undeclared process
    with pytest.raises(ConfigError, match="empty schedule"):
        eng.run(Program([]), [], ResolveTime, _frozen_state())
    with pytest.raises(ConfigError, match="undeclared process 1"):
        eng.run(Program([]), [1], ResolveTime, _frozen_state())


_TWO_PROCESSES = "0 Alu 0x10\n0 Halt 0x14\n1 Alu 0x10\n1 Halt 0x14\n"


def test_unscheduled_process_is_rejected():
    programs = parse_program(_TWO_PROCESSES)
    with pytest.raises(ConfigError, match="process 1 .*not in the schedule"):
        eng.run(programs, [0], ResolveTime, _frozen_state())


def test_empty_program_is_rejected():
    # a process without instructions gets no code of its own, so a schedule
    # that runs it names an undeclared process
    two = parse_program(_TWO_PROCESSES)
    only_0 = Program([i for i in two.instructions if i.process_id == 0])
    assert set(only_0.code) == set(only_0.entry) == {0}
    with pytest.raises(ConfigError, match="undeclared process 1"):
        eng.run(only_0, [0, 1], ResolveTime, _frozen_state())


def test_two_instructions_at_one_address_are_rejected():
    with pytest.raises(ProgramError, match="process 0: two instructions at 0x100"):
        Program([Instruction(0, Kind.ALU, 0x100), Instruction(0, Kind.HALT, 0x100),
                 Instruction(0, Kind.HALT, 0x108)])


def test_instruction_of_another_process_is_rejected():
    # an instruction goes to the process its process_id names, wherever it
    # sits in the list, so one listed among process 1's that lands on an
    # address of process 0 is a second instruction there
    proc_0 = [Instruction(0, Kind.ALU, 0x100), Instruction(0, Kind.HALT, 0x108)]
    proc_1 = [Instruction(1, Kind.ALU, 0x100), Instruction(1, Kind.HALT, 0x108)]
    with pytest.raises(ProgramError, match="process 0: two instructions at 0x108"):
        Program(proc_0 + proc_1[:1] + [Instruction(0, Kind.HALT, 0x108)])
    stray = Instruction(0, Kind.HALT, 0x110)
    program = Program(proc_0 + proc_1[:1] + [stray] + proc_1[1:])
    assert program.code[0][0x110] == (stray, None)
    assert 0x110 not in program.code[1]


def test_unresolved_branch_hits_tick_limit():
    programs = parse_program(
        """
        0 CondBranch 0x100 0x200 cond=c delay=500
        0 Alu 0x200
        0 Halt 0x210
        """
    )
    with pytest.raises(SimulationError,
                       match="^unresolved branch pid=0 addr=0x100 at tick limit$"):
        eng.run(programs, [0], ResolveTime, _frozen_state(), env={"c": 1},
                max_ticks=50)


def test_missing_condition_name_is_an_error():
    programs = parse_program(
        """
        0 CondBranch 0x100 0x200 cond=typo delay=2
        0 Alu 0x200
        0 Halt 0x210
        """
    )
    with pytest.raises(SimulationError, match="cond=typo .* 0x100"):
        eng.run(programs, [0], ResolveTime, _frozen_state(), env={"c": 1})


@pytest.mark.parametrize("arg", ["max_ticks"])
@pytest.mark.parametrize("value", [0, -1])
def test_degenerate_engine_arguments_are_rejected(arg, value):
    programs = parse_program("0 Alu 0x100\n0 Halt 0x108")
    with pytest.raises(ConfigError, match=arg):
        eng.run(programs, [0], ResolveTime, _frozen_state(), **{arg: value})


def test_reorder_buffer_holds_at_most_inflight_cap_ops():
    # the slow branch blocks commit while fetch runs ahead down its
    # correctly predicted fall-through path
    lines = ["0 CondBranch 0x100 0x1000 cond=c delay=200"]
    lines += [f"0 Alu {0x100 + 8 * k:#x}" for k in range(1, 81)]
    lines.append("0 Halt 0x1000")
    result, _ = eng.run(parse_program("\n".join(lines)), [0], ResolveTime,
                        _frozen_state(), env={"c": 0})
    inflight, peak = 0, 0
    for _, kind, *_ in result.records:
        if kind == "fetch":
            inflight += 1
        elif kind in ("commit", "squash"):
            inflight -= 1
        peak = max(peak, inflight)
    assert peak == eng.INFLIGHT_CAP
    assert result.summary["0"]["commits"] == 82


def test_engine_skips_idle_ticks():
    programs = parse_program(
        """
        0 CondBranch 0x100 0x200 cond=c delay=90000
        0 Alu 0x108
        0 Halt 0x110
        """
    )
    res, _ = eng.run(programs, [0], ResolveTime, _frozen_state(), env={"c": 0})
    assert res.ticks == 90001
    assert res.records[-1] == (90000, "commit", 2, 0)
    assert 0 < res.visited_ticks < 20


def test_engine_reaches_tick_limit_without_visiting_idle_ticks():
    programs = parse_program("0 Alu 0x100")  # no Halt: the process never finishes
    with pytest.raises(SimulationError, match="^tick limit exceeded$") as raised:
        eng.run(programs, [0], ResolveTime, _frozen_state())
    assert 0 < raised.value.visited_ticks < 10


def test_indirect_branch_btb_miss_stalls_without_mispredict():
    programs = parse_program(
        """
        0 IndirectBranch 0x100 0x200 delay=5
        0 Alu 0x108
        0 Alu 0x200
        0 Halt 0x210
        """
    )
    res, pred = eng.run(programs, [0], ResolveTime, _frozen_state())
    assert res.summary["0"]["mispredictions"] == 0
    assert res.summary["0"]["squashes"] == 0
    # wrong-path Alu at 0x108 was never fetched; BTB learned the target
    assert _committed(res) == {0: [0x100, 0x200, 0x210]}
    assert pred.btb.lookup(0x100) == 0x200
    assert [r[:4] for r in res.records if r[1] == "stall"] == [(0, "stall", 0, 0)]


def test_indirect_branch_poisoned_btb_mispredicts_and_squashes():
    pred = _frozen_state()
    pred.btb.update(0x100, 0x300)  # poisoned toward the gadget block
    programs = parse_program(
        """
        0 IndirectBranch 0x100 0x200 delay=5
        0 Alu 0x200
        0 Halt 0x210
        0 Alu 0x300
        0 Alu 0x308
        """
    )
    res, pred = eng.run(programs, [0], ResolveTime, pred)
    assert res.summary["0"]["mispredictions"] == 1
    assert res.summary["0"]["squashes"] >= 1
    assert _committed(res) == {0: [0x100, 0x200, 0x210]}  # not the gadget's Alus
    assert pred.btb.lookup(0x100) == 0x200  # resolution corrected the entry


# ---------------------------------------------------------------------------
# update policies

def test_speculative_update_persists_by_default():
    doc = speculative_update_scenario(ResolveTime)
    assert doc["persisted"] and doc["verdict"] == "persisted"
    assert doc["entry_after"] == doc["entry_before"] - 1  # moved toward taken


@pytest.mark.parametrize("policy", [CommitTime, RestoreOnSquash, ShadowPht])
def test_mitigations_leave_entry_bit_identical(policy):
    doc = speculative_update_scenario(policy)
    assert not doc["persisted"] and doc["verdict"] == "not persisted"
    assert doc["state_unchanged"]


@pytest.mark.parametrize("entries, shared", [(2, 0), (128, 64)])
@pytest.mark.parametrize("policy", POLICIES)
def test_speculative_update_refuses_an_outer_branch_on_the_childs_entry(policy, entries, shared):
    """At 128 one-level entries or fewer, 0x100 and 0x300 share an entry,
    and the outer branch's committed step would read as the child's."""
    with pytest.raises(AttackError, match=f"share one-level PHT entry {shared},"):
        speculative_update_scenario(policy, PredictorConfig(pht_entries_one_level=entries))


@pytest.mark.parametrize("policy", [ResolveTime, CommitTime, RestoreOnSquash, ShadowPht])
def test_speculative_update_verdict_at_the_smallest_unshared_table(policy):
    doc = speculative_update_scenario(policy, PredictorConfig(pht_entries_one_level=256))
    assert doc["persisted"] is (policy is ResolveTime)
    assert doc["state_unchanged"] is not doc["persisted"]


def test_obfuscate_on_squash_scrambles_deterministically():
    a = speculative_update_scenario(ObfuscateOnSquash, seed=9)
    b = speculative_update_scenario(ObfuscateOnSquash, seed=9)
    assert a["entry_after"] == b["entry_after"]
    probe = PredictorState()
    idx = index_one_level(0x300, probe.config)
    obfuscate_entries(probe, [(Mode.ONE_LEVEL, idx)], 9)
    assert a["entry_after"] == probe.pht_one_level[idx]


def test_commit_time_matches_resolve_time_without_speculation():
    # distinct entries, no mispredictions: deferring updates to commit must
    # not change the final predictor state
    pred_a = _frozen_state()
    pred_b = _frozen_state()
    for p in (pred_a, pred_b):
        p.pht_one_level[index_one_level(0x100, p.config)] = 0  # strong taken
        p.pht_one_level[index_one_level(0x110, p.config)] = 3  # strong not-taken
    text = """
    0 CondBranch 0x100 0x110 cond=t delay=1
    0 CondBranch 0x110 0x200 cond=n delay=1
    0 Alu 0x118
    0 Halt 0x120
    """
    _, pred_a = eng.run(parse_program(text), [0], ResolveTime, pred_a,
                        env={"t": 1, "n": 0})
    _, pred_b = eng.run(parse_program(text), [0], CommitTime, pred_b,
                        env={"t": 1, "n": 0})
    assert diff(pred_a.snapshot(), pred_b.snapshot()) == {}


def test_shadow_pht_merges_on_commit():
    # child branch resolves under a correctly-predicted long-latency parent,
    # so nothing is squashed and the shadow update merges into the main PHT
    pred = _frozen_state()
    outer_idx = index_one_level(0x100, pred.config)
    pred.pht_one_level[outer_idx] = 0  # strong taken: predicts the actual path
    child_idx = index_one_level(0x300, pred.config)
    before = pred.pht_one_level[child_idx]
    programs = parse_program(
        """
        0 CondBranch 0x100 0x300 cond=outer delay=40
        0 CondBranch 0x300 0x310 cond=sec delay=2
        0 Alu 0x310
        0 Halt 0x318
        """
    )
    res, pred = eng.run(programs, [0], ShadowPht,
                        pred, env={"outer": 1, "sec": 1})
    assert res.summary["0"]["speculative_resolutions"] == 1
    child = next(b for b in res.branches if b.instr.addr == 0x300)
    assert (child.dseq, "commit") in {(r[2], r[1]) for r in res.records}
    assert not child.squashed
    assert pred.pht_one_level[child_idx] == before - 1


def test_shadow_pht_serves_own_process_speculatively():
    # within one speculative window the second execution of the child sees
    # the first execution's shadow update
    pred = _frozen_state()
    pred.pht_one_level[index_one_level(0x100, pred.config)] = 0
    child_idx = index_one_level(0x300, pred.config)
    pred.pht_one_level[child_idx] = 2  # weak not-taken
    programs = parse_program(
        """
        0 CondBranch 0x100 0x300 cond=outer delay=60
        0 CondBranch 0x300 0x300 cond=sec delay=2
        0 Halt 0x308
        """
    )
    res, pred = eng.run(programs, [0], ShadowPht,
                        pred, env={"outer": 1, "sec": [1, 1, 0]})
    child = [b for b in res.branches if b.instr.addr == 0x300]
    # first execution mispredicts (weak NT vs taken); after two taken shadow
    # updates the third prediction must be taken
    assert child[0].mispredicted
    assert child[2].predicted is Direction.TAKEN


@pytest.mark.parametrize("policy", [CommitTime, RestoreOnSquash, ShadowPht])
def test_held_steps_survive_squashes_and_commits_around_them(policy):
    # two 3-bit entries, each written by two branches: 0x104 (entry 1)
    # resolves speculatively and survives; 0x10c (entry 1) resolves
    # speculatively and is squashed by 0x108 (entry 0), which commits just
    # after the older 0x100 (entry 0) resolves non-speculatively. The
    # surviving steps all land: 0x100 and 0x104 not-taken, 0x108 taken. A
    # shadow table that drops an entry's steps on a squash, and overwrites
    # an older write at a commit, ends at [3, 4]
    pred = _frozen_state(PredictorConfig(one_level_bits=3, pht_entries_one_level=2))
    programs = parse_program(
        """
        0 CondBranch 0x100 0x200 cond=o delay=12
        0 CondBranch 0x104 0x200 cond=a delay=2
        0 CondBranch 0x108 0x300 cond=c delay=6
        0 CondBranch 0x10c 0x300 cond=b delay=1
        0 Alu 0x110
        0 Halt 0x300
        """
    )
    res, pred = eng.run(programs, [0], policy, pred, env={"o": 0, "a": 0, "c": 1, "b": 0})
    assert [b.squashed for b in res.branches] == [False, False, False, True]
    assert pred.pht_one_level == [4, 5]


def test_restore_on_squash_rolls_back_nested_updates_in_order():
    # two wrong-path branches sharing one entry: rollback must restore the
    # original value, not an intermediate one
    pred = _frozen_state()
    entry_idx = index_one_level(0x300, pred.config)
    start = pred.pht_one_level[entry_idx]
    programs = parse_program(
        """
        0 CondBranch 0x100 0x400 cond=outer delay=50
        0 CondBranch 0x300 0x310 cond=a delay=2
        0 Alu 0x310
        0 Alu 0x400
        0 Halt 0x410
        """
    )
    res, pred = eng.run(programs, [0],
                        RestoreOnSquash, pred,
                        env={"outer": 1, "a": 1})
    assert pred.pht_one_level[entry_idx] == start


def test_restore_on_squash_undoes_repeated_writes_newest_first():
    # the wrong-path child loops, writing one entry three times before the
    # squash; undoing oldest-first would leave the first write's result
    pred = _frozen_state()
    entry_idx = index_one_level(0x300, pred.config)
    start = pred.pht_one_level[entry_idx]
    programs = parse_program(
        """
        0 CondBranch 0x100 0x400 cond=outer delay=60
        0 CondBranch 0x300 0x300 cond=a delay=2
        0 Alu 0x308
        0 Alu 0x400
        0 Halt 0x410
        """
    )
    res, pred = eng.run(programs, [0],
                        RestoreOnSquash, pred,
                        env={"outer": 1, "a": [1, 1, 0]})
    child = [b for b in res.branches if b.instr.addr == 0x300]
    assert sum(b.resolved and b.squashed for b in child) == 3
    assert pred.pht_one_level[entry_idx] == start


def test_speculative_ghr_insertions_survive_squash():
    # design decision: squash restores no GHR state under the default policy
    pred = _frozen_state()
    programs = parse_program(
        """
        0 CondBranch 0x100 0x400 cond=outer delay=50
        0 CondBranch 0x300 0x313 cond=a delay=2
        0 Alu 0x313
        0 Alu 0x400
        0 Halt 0x410
        """
    )
    res, pred = eng.run(programs, [0], ResolveTime, pred,
                        env={"outer": 1, "a": 1})
    assert 0x313 & 3 in pred.ghr.entries


# ---------------------------------------------------------------------------
# leak contract: which predictor components a squashed secret-dependent
# branch still changes, per policy (selector left unfrozen); a selector
# field counts as `selector_<field>`


# per program, the condition values besides `sec`: a squashed secret branch
# under a mispredicted outer one ("shielded"); one under a mispredicted
# 0x108 that resolves speculatively on the entry of the older 0x104, just
# after 0x104 does, and is squashed only after 0x104 commits ("flush"); and
# a shielded one whose taken path reaches an indirect branch that misses in
# the BTB and resolves speculatively ("btb")
LEAK_PROGRAMS = {
    "shielded": ("""
        0 CondBranch 0x100 0x400 cond=outer delay=50
        0 CondBranch 0x300 0x313 cond=sec delay=2
        0 Alu 0x313
        0 Alu 0x400
        0 Halt 0x410
        """, {"outer": 1}),
    "flush": ("""
        0 CondBranch 0x100 0x2000 cond=outer delay=8
        0 CondBranch 0x104 0x2000 cond=a delay=2
        0 CondBranch 0x108 0x2000 cond=c delay=20
        0 CondBranch 0x1104 0x2000 cond=sec delay=1
        0 Alu 0x1108
        0 Halt 0x2000
        """, {"outer": 0, "a": 0, "c": 1}),
    "btb": ("""
        0 CondBranch 0x100 0x400 cond=outer delay=60
        0 CondBranch 0x300 0x500 cond=sec delay=2
        0 Alu 0x310
        0 Alu 0x400
        0 Halt 0x410
        0 IndirectBranch 0x500 0x600 delay=2
        0 Halt 0x600
        """, {"outer": 1}),
}


# every policy trains the BTB at resolve, so a squashed indirect branch's
# BTB write stays
_BTB_LEAK = {"btb", "selector_accumulator"}


@pytest.mark.parametrize("policy, leaking", [
    (ResolveTime, {"shielded": {"pht_one_level", "ghr", "selector_accumulator"},
                   "flush": {"pht_one_level", "selector_accumulator"},
                   "btb": {"pht_one_level", *_BTB_LEAK}}),
    (CommitTime, {"shielded": {"selector_accumulator"}, "flush": {"selector_accumulator"},
                  "btb": _BTB_LEAK}),
    (RestoreOnSquash, {"shielded": {"ghr", "selector_accumulator"},
                       "flush": {"selector_accumulator"}, "btb": _BTB_LEAK}),
    (ShadowPht, {"shielded": {"ghr", "selector_accumulator"},
                 "flush": {"selector_accumulator"}, "btb": _BTB_LEAK}),
    (ObfuscateOnSquash, {"shielded": {"ghr", "selector_accumulator"},
                         "flush": {"selector_accumulator"}, "btb": _BTB_LEAK}),
])
def test_squashed_secret_branch_leak_contract(policy, leaking):
    differing = {}
    for name, (text, env) in LEAK_PROGRAMS.items():
        snapshots = [eng.run(parse_program(text), [0], policy, PredictorState(),
                             env={**env, "sec": sec}, seed=7)[1].snapshot() for sec in (0, 1)]
        differing[name] = {f"selector_{key}" if component == "selector" else component
                           for component, changes in diff(*snapshots).items() for key in changes}
    assert differing == leaking


# ---------------------------------------------------------------------------
# event records and their text rendering

def test_records_render_to_the_documented_trace_layout():
    # every record kind and both resolve layouts, including a stalled
    # indirect branch that resolves speculatively under the outer branch
    pred = _frozen_state()
    pred.btb.update(0x200, 0x118)
    programs = parse_program(
        """
        0 CondBranch 0x100 0x300 cond=c delay=6
        0 Alu 0x108
        0 IndirectBranch 0x110 0x200 delay=2
        0 Alu 0x118
        0 IndirectBranch 0x200 0x300 delay=2
        0 Halt 0x300
        """
    )
    res, _ = eng.run(programs, [0], ResolveTime, pred, env={"c": 0})
    assert res.records[4] == (4, "resolve", 2, 0, 0x110, None, 0x200, False, True)
    assert res.events == [
        "0 fetch 0 pid=0 addr=0x100 kind=CondBranch pred=N mode=one-level",
        "1 fetch 1 pid=0 addr=0x108 kind=Alu",
        "2 stall 2 pid=0 btb-miss",
        "2 fetch 2 pid=0 addr=0x110 kind=IndirectBranch",
        "4 resolve 2 pid=0 addr=0x110 pred_target=none actual_target=0x200 "
        "mispredict=0 speculative=1",
        "4 fetch 3 pid=0 addr=0x200 kind=IndirectBranch pred_target=0x118",
        "5 fetch 4 pid=0 addr=0x118 kind=Alu",
        "6 resolve 0 pid=0 addr=0x100 pred=N actual=N mispredict=0 speculative=0",
        "6 resolve 3 pid=0 addr=0x200 pred_target=0x118 actual_target=0x300 "
        "mispredict=1 speculative=0",
        "6 squash 4 pid=0",
        "6 commit 0 pid=0",
        "6 commit 1 pid=0",
        "6 commit 2 pid=0",
        "6 commit 3 pid=0",
        "6 fetch 5 pid=0 addr=0x300 kind=Halt",
        "7 commit 5 pid=0",
    ]
    assert res.events is res.events  # rendered once, then cached


@st.composite
def nested_runs(draw):
    """1-3 processes of forward-only conditional and indirect branches with
    mixed delays (so every run halts), some indirect branches poisoned
    toward any address of their process, under any policy."""
    n = draw(st.integers(1, 3))
    predictor = PredictorState()
    predictor.randomize_reset(draw(st.integers(0, 2**16)))
    predictor.selector.frozen = draw(st.booleans())
    instrs, env = [], {}
    for pid in range(n):
        addrs = [0x1000 * (pid + 1) + 8 * i for i in range(draw(st.integers(2, 10)))]
        for i, addr in enumerate(addrs[:-1]):
            kind = draw(st.sampled_from(BRANCH_KINDS * 2 + (Kind.ALU,) * 4))
            delay = draw(st.integers(1, 40))
            target = cond = None
            if kind in BRANCH_KINDS:
                target = draw(st.sampled_from(addrs[i + 1:]))
            if kind is Kind.COND_BRANCH:
                cond = f"c{pid}_{i}"
                env[cond] = draw(st.one_of(st.integers(0, 1),
                                           st.lists(st.integers(0, 1), max_size=4)))
            if kind is Kind.INDIRECT_BRANCH and draw(st.booleans()):
                predictor.btb.update(addr, draw(st.sampled_from(addrs)))
            instrs.append(Instruction(pid, kind, addr, target, cond, delay))
        instrs.append(Instruction(pid, Kind.HALT, addrs[-1]))
    extra = draw(st.lists(st.integers(0, n - 1), max_size=3))
    schedule = draw(st.permutations(list(range(n)) + extra))
    policy = draw(st.sampled_from(POLICIES))
    return Program(instrs), schedule, policy, predictor, env


@settings(max_examples=60, deadline=None)
@given(nested_runs())
def test_runs_of_one_program_are_isolated(run_args):
    program, schedule, policy, predictor, env = run_args
    code = {pid: dict(by_addr) for pid, by_addr in program.code.items()}
    first, p1 = eng.run(program, schedule, policy, predictor.clone(), env=env, seed=3)
    second, p2 = eng.run(program, schedule, policy, predictor.clone(), env=env, seed=3)
    assert program.code == code
    assert second.records == first.records
    # a field absent from vars() holds its class default in both runs
    assert [vars(b) for b in second.branches] == [vars(b) for b in first.branches]
    assert diff(p1.snapshot(), p2.snapshot()) == {}


class _AccessLog(list):
    """A PHT that logs the `(mode, index)` of each element it reads or writes."""

    def __init__(self, values, mode, log):
        super().__init__(values)
        self.mode, self.log = mode, log

    def __getitem__(self, index):
        self.log.add((self.mode, index))
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        self.log.add((self.mode, index))
        super().__setitem__(index, value)


@settings(max_examples=60, deadline=None)
@given(nested_runs())
def test_a_run_touches_only_its_fetched_branches_entries(run_args):
    # the footprint a victim-run memo takes from the run's own output: the
    # PHT entries a run reads or writes are its fetched conditional branches'
    # (pred_mode, pred_index), and the BTB slots it changes its indirect
    # branches', under every policy
    program, schedule, _, predictor, env = run_args
    btb_slots = {index_btb(i.addr, predictor.config.btb_entries) for i in program.instructions
                 if i.kind is Kind.INDIRECT_BRANCH}
    for policy in POLICIES:
        p, log = predictor.clone(), set()
        p.pht_one_level = _AccessLog(p.pht_one_level, Mode.ONE_LEVEL, log)
        p.pht_history = _AccessLog(p.pht_history, Mode.HISTORY, log)
        slots = list(p.btb.slots)
        res, _ = eng.run(program, schedule, policy, p, env=env, seed=3)
        assert log == {(b.pred_mode, b.pred_index) for b in res.branches
                       if b.pred_mode is not None}
        assert {k for k, (a, b) in enumerate(zip(slots, p.btb.slots)) if a != b} <= btb_slots


def _speculative_from_records(records) -> dict[int, bool]:
    """dseq -> whether, when that branch resolved, an older branch of its
    process had been fetched and was neither resolved nor squashed yet."""
    open_by_pid: dict[int, set[int]] = {}
    out = {}
    for _, kind, dseq, pid, *fields in records:
        pending = open_by_pid.setdefault(pid, set())
        if kind == "fetch" and fields[1] in BRANCH_KINDS:
            pending.add(dseq)
        elif kind == "resolve":
            pending.discard(dseq)
            out[dseq] = any(older < dseq for older in pending)
        elif kind == "squash":
            pending.discard(dseq)
    return out


@settings(max_examples=150, deadline=None)
@given(nested_runs())
def test_speculative_flag_matches_a_reference_from_records(run_args):
    res, _ = eng.run(*run_args, seed=3)
    expected = _speculative_from_records(res.records)
    assert {b.dseq: b.speculative for b in res.branches if b.resolved} == expected
    assert {r[2]: r[8] for r in res.records if r[1] == "resolve"} == expected
    # the summary is counted from the records; the branch flags are kept apart
    for pid, counts in res.summary.items():
        own = [b for b in res.branches if b.instr.process_id == int(pid)]
        assert counts["predictions"] == sum(not b.stalled for b in own)
        assert counts["mispredictions"] == sum(b.resolved and b.mispredicted for b in own)
        assert counts["speculative_resolutions"] == sum(b.resolved and b.speculative
                                                        for b in own)


@settings(max_examples=100, deadline=None)
@given(nested_runs())
def test_branch_fields_mirror_the_resolve_and_squash_records(run_args):
    res, _ = eng.run(*run_args, seed=3)
    resolves = {r[2]: r[5:] for r in res.records if r[1] == "resolve"}
    assert {b.dseq: (b.predicted, b.actual, b.mispredicted, b.speculative)
            for b in res.branches if b.resolved} == resolves
    dseqs = {b.dseq for b in res.branches}
    squashes = {r[2] for r in res.records if r[1] == "squash"}
    assert {b.dseq for b in res.branches if b.squashed} == squashes & dseqs


@settings(max_examples=100, deadline=None)
@given(nested_runs())
def test_commit_records_are_the_architectural_effect(run_args):
    # no squashed op commits; each process commits every fetched, unsquashed
    # op exactly once, in dseq order; and what commits is the same under
    # every policy
    program, schedule, _, predictor, env = run_args
    outcomes = []
    for policy in POLICIES:
        res, _ = eng.run(program, schedule, policy, predictor.clone(), env=env, seed=3)
        squashed = {r[2] for r in res.records if r[1] == "squash"}
        for pid in program.code:
            fetched = {r[2] for r in res.records if r[1] == "fetch" and r[3] == pid}
            commits = [r[2] for r in res.records if r[1] == "commit" and r[3] == pid]
            assert not squashed & set(commits)
            assert commits == sorted(fetched - squashed)
        outcomes.append(_committed(res))
    assert all(o == outcomes[0] for o in outcomes)
