"""Golden RunResults: every case pins a sha256 over what the engine returns.

The CLI golden test pins artifacts, but no artifact records the final tick
or the per-branch flags. These digests cover, for each run of a case:
`(ticks, events, summary)`, per branch `(dseq, resolved, squashed,
speculative, mispredicted)`, and `fingerprint` of the predictor's final
`snapshot()`.
The `random` case pins 20 seeded multi-process programs, whose
interleavings the four hand-written cases do not reach.

The digests once also hashed the run's architectural state (`arch`), and
the random case drew Load, Store and TimerRead ops. The current set was
pinned beside that one, on the engine that still had both, with both sets
passing; only then did `arch` and those kinds leave the engine. CHANGES.md
lists the old and new digest of each case.

A victim run is its preamble's committed executions in one kernel call,
then an engine run of its body (`conftest.victim_run`). The victim cases run
`with_preamble(layout)` instead: the same victim with its preamble as code,
which the property at the end shows leaves the same predictor state and
body branches.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import victim_run

from bpusim import engine as eng
from bpusim.attacks import (activate_history_mode, build_victim_v1, build_victim_v2,
                            defense_workload)
from bpusim.engine import POLICIES
from bpusim.predictor import PredictorConfig, PredictorState, diff
from bpusim.program import ALU, COND_BRANCH, HALT, INDIRECT_BRANCH, Instruction, Program

# the seed each run gives its update policy (only obfuscate-on-squash reads it)
SEED = 7


def with_preamble(layout) -> Program:
    """`layout`'s victim with its preamble as code: one always-taken
    (`cond=pre`), delay-1 CondBranch per `context` execution, ahead of the
    body; the preamble's first address is the process's lowest, so its
    entry."""
    pid = layout.schedule[0]
    pre = [Instruction(pid, COND_BRANCH, addr, target, "pre", 1)
           for addr, _, target in layout.preamble.triples]
    return Program(pre + list(layout.program.instructions))


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


# the kinds `_random_run_args` draws from: eight slots, as many as when it
# also drew Load, Store and TimerRead, so no later draw of a seed changed
KINDS = (COND_BRANCH, INDIRECT_BRANCH) * 2 + (ALU,) * 4


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
    instrs, env = [], {}
    for pid in range(n):
        addrs = [0x1000 * (pid + 1) + 8 * i for i in range(rng.randint(2, 10))]
        for i, addr in enumerate(addrs[:-1]):
            kind = rng.choice(KINDS)
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
            instrs.append(Instruction(pid, kind, addr, target, cond, delay))
        instrs.append(Instruction(pid, HALT, addrs[-1]))
    schedule = list(range(n)) + [rng.randrange(n) for _ in range(rng.randint(0, 3))]
    rng.shuffle(schedule)
    return Program(instrs), schedule, predictor, env


def _random(policy):
    for seed in range(20):
        program, schedule, predictor, env = _random_run_args(seed)
        yield eng.run(program, schedule, policy, predictor, env=env, seed=SEED)


CASES = {"v1": _v1, "v2": _v2, "defense": _defense, "two-process": _two_process,
         "random": _random}


def fingerprint(snapshot) -> tuple:
    """The tuple the digests hash: each table's values, the GHR's entries
    oldest first and the BTB's slots, as tuples, then the selector's mode
    and accumulator. An undrawn history PHT gives the values it would draw."""
    values = [tuple(v for _, v in snapshot.items(component))
              for component in ("pht_one_level", "pht_history", "ghr", "btb")]
    return (*values, snapshot.selector["mode"], snapshot.selector["accumulator"])


def run_digest(case: str, policy) -> str:
    h = hashlib.sha256()
    for result, predictor in CASES[case](policy):
        branches = [(b.dseq, b.resolved, b.squashed, b.speculative, b.mispredicted)
                    for b in result.branches]
        h.update(repr((result.ticks, result.events, result.summary,
                       branches, fingerprint(predictor.snapshot()))).encode())
    return h.hexdigest()


GOLDEN = {
    "speculative-resolve-time v1":
        "a49a4d4b94cf593e1ffc31552616a52ae3e6c4a7b4c3e1eef04784e99a0ec4f3",
    "speculative-resolve-time v2":
        "6a5be8fc019fcd4eaeebdb0c4ed96ad29cb1685c85c4f977b0563c0a83281d84",
    "speculative-resolve-time defense":
        "52da1cd45c4b7a135f675aaa11df844497697d6b838208933ced88e664421d6c",
    "speculative-resolve-time two-process":
        "85f38a71daac095923f06fc9a0c3d9fcd3560fc3d126c58952c8b5085f44b5b7",
    "commit-time v1":
        "7da3acedc56ca65b8ada14161cad7678a923c2a5dcaf4ae34e73edc0589cf380",
    "commit-time v2":
        "96ea3d75960dd073606688064fce16bd91bd7fd843c1e6b9d7f285ecf75989d2",
    "commit-time defense":
        "215f79168c1fe464fe28a4f856d948facd9b7637e067b8977f38af75eb1f6b87",
    "commit-time two-process":
        "0f9ede1648ab4d2d542324fa278629481139684909614889480db5f40d81c3ce",
    "restore-on-squash v1":
        "82a412f5e60b74ce7c16ce0c707be01dd68cd4eea9fc3d66822a00531db19861",
    "restore-on-squash v2":
        "96ea3d75960dd073606688064fce16bd91bd7fd843c1e6b9d7f285ecf75989d2",
    "restore-on-squash defense":
        "52da1cd45c4b7a135f675aaa11df844497697d6b838208933ced88e664421d6c",
    "restore-on-squash two-process":
        "2be42f404bc3b0761aa7a1be3bb07df6002340126a0d88196350e1bd710d88f7",
    "shadow-pht v1":
        "82a412f5e60b74ce7c16ce0c707be01dd68cd4eea9fc3d66822a00531db19861",
    "shadow-pht v2":
        "96ea3d75960dd073606688064fce16bd91bd7fd843c1e6b9d7f285ecf75989d2",
    "shadow-pht defense":
        "52da1cd45c4b7a135f675aaa11df844497697d6b838208933ced88e664421d6c",
    "shadow-pht two-process":
        "2be42f404bc3b0761aa7a1be3bb07df6002340126a0d88196350e1bd710d88f7",
    "obfuscate-on-squash v1":
        "6206b9120c4779031fbcc0391278aab11bdbfdd056a85f0418c263df42d777df",
    "obfuscate-on-squash v2":
        "04859b15f469a4dd139ded84dd83767a82e3d68c96c1d5ee2ea790358c185b18",
    "obfuscate-on-squash defense":
        "52da1cd45c4b7a135f675aaa11df844497697d6b838208933ced88e664421d6c",
    "obfuscate-on-squash two-process":
        "726a73dcac8b7fe7b8c5d12b722929e14e9c93ea8aabbd839fd9c94fd1bc719b",
    "speculative-resolve-time random":
        "0c361cb5c70eb7294a89eb90ad9fc3ecf6e397c5ec51441dab60ae0efacc9bd5",
    "commit-time random":
        "89b677db73165d5b117333a14afc5d2bb75e110eacb99698421b44ef67e4facb",
    "restore-on-squash random":
        "f9d8f8bb9ceee4e7a509485b7353cba98c39b0b6a79cd42542a21376cee49ca2",
    "shadow-pht random":
        "f9d8f8bb9ceee4e7a509485b7353cba98c39b0b6a79cd42542a21376cee49ca2",
    "obfuscate-on-squash random":
        "046db3640110fde401ae5afb70f3795f4fc60a6e8d4e53fc114c2e2f76af0313",
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
    result = victim_run(layout, policy, kernel, env, seed)
    full, engine = eng.run(with_preamble(layout), layout.schedule, policy, predictor.clone(),
                           env={"pre": 1, **env}, seed=seed)
    assert diff(kernel.snapshot(), engine.snapshot()) == {}
    depth = len(layout.preamble.triples)
    assert [b.instr.addr for b in full.branches[:depth]] == \
        [a for a, _, _ in layout.preamble.triples]
    assert _flags(result.branches) == _flags(full.branches[depth:])
