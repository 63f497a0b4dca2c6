"""Golden RunResults: every case pins a sha256 over what the engine returns.

The CLI golden test pins artifacts, but no artifact records the final tick
or the per-branch flags. These digests cover, for each run of a case:
`(ticks, events, summary, arch)`, per branch `(dseq, resolved, squashed,
speculative, mispredicted)`, and the predictor's final `state_fingerprint()`.
The `random` case pins 20 seeded multi-process programs, whose
interleavings the four hand-written cases do not reach.

A victim run is its preamble's committed executions in one kernel call,
then an engine run of its body (`VictimLayout.run`). The victim cases run
`with_preamble(layout)` instead: the same victim with its preamble as code,
which the property at the end shows leaves the same predictor state and
body branches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from bpusim import engine as eng
from bpusim.attacks import (activate_history_mode, build_victim_v1, build_victim_v2,
                            defense_workload)
from bpusim.engine import POLICIES
from bpusim.predictor import PredictorConfig, PredictorState
from bpusim.program import (ALU, COND_BRANCH, HALT, INDIRECT_BRANCH, LOAD, STORE, TIMER_READ,
                            Instruction, Program)

# the seed each run gives its update policy (only obfuscate-on-squash reads it)
SEED = 7


def with_preamble(layout) -> Program:
    """`layout`'s victim with its preamble as code: one always-taken
    (`cond=pre`), delay-1 CondBranch per `context` execution, ahead of the
    body, whose seqs follow them."""
    pid = layout.schedule[0]
    pre = [Instruction(pid, i, COND_BRANCH, addr, target, "pre", 1)
           for i, (addr, _, target) in enumerate(layout.context)]
    body = [dataclasses.replace(i, seq=len(pre) + i.seq) for i in layout.program.instructions]
    return Program(pre + body)


def _v1(policy):
    # one predictor for all four runs, so later runs start from trained state
    predictor = PredictorState()
    layout = build_victim_v1(predictor.config)
    program = with_preamble(layout)
    for oob in (0, 1):
        for sec in (0, 1):
            yield eng.run(program, layout.schedule, policy, predictor,
                          env={"pre": 1, "oob": oob, "sec": sec}, seed=SEED)


def _v2(policy):
    for poison in (False, True):
        predictor = PredictorState()
        layout = build_victim_v2(predictor.config)
        program = with_preamble(layout)
        if poison:
            predictor.btb.update(layout.trigger_addr, layout.bv_addr)
        for sec in (0, 1):
            yield eng.run(program, layout.schedule, policy, predictor,
                          env={"pre": 1, "sec": sec}, seed=SEED)


def _defense(policy):
    program, env = defense_workload()
    yield eng.run(program, [0], policy, PredictorState(), env=env, seed=SEED)


def _two_process(policy):
    predictor = PredictorState()
    v1 = build_victim_v1(predictor.config, pid=0)
    v2 = build_victim_v2(predictor.config, pid=1)
    predictor.btb.update(v2.trigger_addr, v2.bv_addr)
    program = Program(with_preamble(v1).instructions + with_preamble(v2).instructions)
    yield eng.run(program, [0, 1, 1], policy, predictor,
                  env={"pre": 1, "oob": 1, "sec": 1}, seed=SEED)


def _random_run_args(seed):
    """The shape of tests/test_engine.py's nested_runs, drawn from one seeded
    stream: 1-3 processes of forward-only branches with mixed delays,
    list-valued conditions, BTB misses and poisoned targets, and repeated
    schedule slots."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    predictor = PredictorState()
    predictor.randomize_reset(rng.randrange(2**16))
    predictor.selector.frozen = rng.random() < 0.5
    kinds = (COND_BRANCH, INDIRECT_BRANCH) * 2 + (ALU, LOAD, STORE, TIMER_READ)
    instrs, env = [], {}
    for pid in range(n):
        addrs = [0x1000 * (pid + 1) + 8 * i for i in range(rng.randint(2, 10))]
        for i, addr in enumerate(addrs[:-1]):
            kind = rng.choice(kinds)
            delay = rng.randint(1, 40)
            target = cond = None
            if kind is COND_BRANCH or kind is INDIRECT_BRANCH:
                target = rng.choice(addrs[i + 1:])
            if kind is COND_BRANCH:
                cond = f"c{pid}_{i}"
                env[cond] = (rng.randint(0, 1) if rng.random() < 0.5 else
                             [rng.randint(0, 1) for _ in range(rng.randint(0, 4))])
            if kind is INDIRECT_BRANCH and rng.random() < 0.5:
                predictor.btb.update(addr, rng.choice(addrs))
            instrs.append(Instruction(pid, i, kind, addr, target, cond, delay))
        instrs.append(Instruction(pid, len(addrs) - 1, HALT, addrs[-1]))
    schedule = list(range(n)) + [rng.randrange(n) for _ in range(rng.randint(0, 3))]
    rng.shuffle(schedule)
    return Program(instrs), schedule, predictor, env


def _random(policy):
    for seed in range(20):
        program, schedule, predictor, env = _random_run_args(seed)
        yield eng.run(program, schedule, policy, predictor, env=env, seed=SEED)


CASES = {"v1": _v1, "v2": _v2, "defense": _defense, "two-process": _two_process,
         "random": _random}


def run_digest(case: str, policy) -> str:
    h = hashlib.sha256()
    for result, predictor in CASES[case](policy):
        branches = [(b.dseq, b.resolved, b.squashed, b.speculative, b.mispredicted)
                    for b in result.branches]
        h.update(repr((result.ticks, result.events, result.summary, result.arch,
                       branches, predictor.state_fingerprint())).encode())
    return h.hexdigest()


GOLDEN = {
    "speculative-resolve-time v1":
        "b2c6033584c5ba4b70e6d67f02ba75989b398512ab63c5ea0f14da3fef6dd99a",
    "speculative-resolve-time v2":
        "6e0fa9296289154098fa7df4bcbd73718ee1ed728c8d876b8d0fe414fd9a584a",
    "speculative-resolve-time defense":
        "22f1cc6599618db8f48912f6dfc29fe4f6083acc430377e986561b518538945c",
    "speculative-resolve-time two-process":
        "8c0bf3eab3d4d7f9150870a3a5bd9f26b3d39cc980642a1d2c61cd71e90a4615",
    "commit-time v1":
        "0b123bce9844e5ef14d8e476f333f877eb121b7fc20bab1c0b3113da52cd66cb",
    "commit-time v2":
        "e39a431b2c30fc27a124f0c270c0cafc6bef204c46245029adbaac23c51491ab",
    "commit-time defense":
        "97c516ff4c8edb9e01796685c43ea08aa62c754b07210d98f8827f3cdbc52e0e",
    "commit-time two-process":
        "57fd57424b3e5aaf5a8d0e8958b4463df69e71fff3a2cd9b2397efcc6de060f2",
    "restore-on-squash v1":
        "efd3b180bff9ae23c001fd0d4de10492bff49c2768ae95af503dfc32a03eac07",
    "restore-on-squash v2":
        "e39a431b2c30fc27a124f0c270c0cafc6bef204c46245029adbaac23c51491ab",
    "restore-on-squash defense":
        "22f1cc6599618db8f48912f6dfc29fe4f6083acc430377e986561b518538945c",
    "restore-on-squash two-process":
        "842cfec2eae69e792db008c4de7d69fdf0a1cab5fcc65ed7f8c7facbed40ecaf",
    "shadow-pht v1":
        "efd3b180bff9ae23c001fd0d4de10492bff49c2768ae95af503dfc32a03eac07",
    "shadow-pht v2":
        "e39a431b2c30fc27a124f0c270c0cafc6bef204c46245029adbaac23c51491ab",
    "shadow-pht defense":
        "22f1cc6599618db8f48912f6dfc29fe4f6083acc430377e986561b518538945c",
    "shadow-pht two-process":
        "842cfec2eae69e792db008c4de7d69fdf0a1cab5fcc65ed7f8c7facbed40ecaf",
    "obfuscate-on-squash v1":
        "247d4b3ad5e34e025245488cc16012f3398b3aa92b8993e01f2dae29639cac96",
    "obfuscate-on-squash v2":
        "5b22741dde7858508d7cb372ed4b501f46afd5a63ddfd0983a42d7ec30ec74aa",
    "obfuscate-on-squash defense":
        "22f1cc6599618db8f48912f6dfc29fe4f6083acc430377e986561b518538945c",
    "obfuscate-on-squash two-process":
        "d37a13bca68b345ef373dcb82c4ab2b022d0d302cf69007fcffcbb3fbbcddb3d",
    "speculative-resolve-time random":
        "d5a095ce8d3e24e8f047a7c45a2584ad5a4a09fe71723610466df01f06084d37",
    "commit-time random":
        "3dfa705dc738a34397da1184269fb43eb7cf93ecd3af52ee42df18261c2bfb23",
    "restore-on-squash random":
        "99e4feef5182ebeebb611df0e8e82ecbd612d1a6c08da2fb7a566c3c0d6155a9",
    "shadow-pht random":
        "99e4feef5182ebeebb611df0e8e82ecbd612d1a6c08da2fb7a566c3c0d6155a9",
    "obfuscate-on-squash random":
        "ac9f290ae2b884f239c0fa1f03e32ef95bc267775c1d26cbc513b0d72696b239",
}


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("case", list(CASES))
def test_run_result_digest(case, policy):
    assert run_digest(case, policy) == GOLDEN[f"{policy.name} {case}"]


# a condition value: one for every execution, or one per execution
_CONDITION = st.one_of(st.integers(0, 1), st.lists(st.integers(0, 1), max_size=4))
_TABLE = st.sampled_from([1 << k for k in range(1, 11)])


@st.composite
def victim_runs(draw):
    """A victim of either kind on a drawn predictor config, in a frozen or
    free one-level mode after a seeded reset or in history mode, with a
    drawn env, policy and policy seed; v2's trigger may be poisoned."""
    config = PredictorConfig(
        one_level_bits=draw(st.integers(2, 4)), history_bits=draw(st.integers(2, 4)),
        ghr_depth=draw(st.integers(1, 20)), target_bits_per_entry=draw(st.integers(1, 3)),
        pht_entries_one_level=draw(_TABLE), pht_entries_history=draw(_TABLE),
        btb_entries=draw(_TABLE))
    predictor = PredictorState(config)
    mode = draw(st.sampled_from(["frozen", "free", "history"]))
    if mode == "history":
        activate_history_mode(predictor)
    else:
        predictor.randomize_reset(draw(st.integers(0, 2**16)))
        predictor.selector.frozen = mode == "frozen"
    if draw(st.booleans()):
        layout = build_victim_v1(config)
        env = {"oob": draw(_CONDITION), "sec": draw(_CONDITION)}
    else:
        layout = build_victim_v2(config, trigger_delay=draw(st.integers(1, 60)))
        env = {"sec": draw(_CONDITION)}
        if draw(st.booleans()):
            predictor.btb.update(layout.trigger_addr, layout.bv_addr)
    return layout, predictor, env, draw(st.sampled_from(POLICIES)), draw(st.integers(0, 99))


def _flags(branches):
    return [(b.predicted, b.actual, b.resolved, b.squashed, b.speculative, b.mispredicted)
            for b in branches]


@settings(max_examples=200, deadline=None)
@given(victim_runs())
def test_victim_run_matches_the_preamble_run_as_code(run_args):
    layout, predictor, env, policy, seed = run_args
    kernel = predictor.clone()
    result = layout.run(policy, kernel, env, seed)
    full, engine = eng.run(with_preamble(layout), layout.schedule, policy, predictor.clone(),
                           env={"pre": 1, **env}, seed=seed)
    assert kernel.state_fingerprint() == engine.state_fingerprint()
    depth = len(layout.context)
    assert [b.instr.addr for b in full.branches[:depth]] == [a for a, _, _ in layout.context]
    assert _flags(result.branches) == _flags(full.branches[depth:])
