from __future__ import annotations

import itertools
import random
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import victim_run

from bpusim import attacks, engine as eng, predictor as bpu, timing
from bpusim.attacks import (
    AttackError,
    BranchHarness,
    ProbeError,
    TransmissionError,
    VictimLayout,
    activate_history_mode,
    build_victim_v1,
    build_victim_v2,
    covert_send_receive,
    defense_eval,
    defense_workload,
    probe_ghr_depth,
    probe_mode,
    side_channel_v1,
    side_channel_v2,
)
from bpusim.engine import (POLICIES, CommitTime, ObfuscateOnSquash, ResolveTime, RestoreOnSquash,
                           ShadowPht)
from bpusim.predictor import (Branches, Chain, Direction, GlobalHistoryRegister, Mode,
                              PredictorConfig, PredictorState, diff, index_one_level)
from bpusim.program import Program
from bpusim.timing import LatencyModel, LatencySampler, NoiseKind

REFERENCE_SECRET = [1, 1, 0, 1, 1, 1, 0, 0, 0, 1]


def test_activate_history_mode():
    p = PredictorState()
    activate_history_mode(p)
    assert p.selector.mode is Mode.HISTORY


# (one_level_bits, history_bits): the mode probe tells the modes apart by
# counter width, so it raises where they are equal
WIDTH_PAIRS = [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]


def _assert_probe_finds(p, mode):
    cfg = p.config
    if cfg.one_level_bits == cfg.history_bits:
        with pytest.raises(ProbeError, match=f"both prediction modes use "
                                             f"{cfg.history_bits}-bit counters"):
            probe_mode(p)
    else:
        assert probe_mode(p) is mode


@pytest.mark.parametrize("widths", WIDTH_PAIRS, ids=str)
def test_probe_mode_detects_both_modes_without_mutating_state(widths):
    p = PredictorState(PredictorConfig(one_level_bits=widths[0], history_bits=widths[1]))
    before = p.snapshot()
    _assert_probe_finds(p, Mode.ONE_LEVEL)
    assert diff(before, p.snapshot()) == {}
    activate_history_mode(p)
    before = p.snapshot()
    _assert_probe_finds(p, Mode.HISTORY)
    assert diff(before, p.snapshot()) == {}


@pytest.mark.parametrize("widths", WIDTH_PAIRS, ids=str)
def test_probe_mode_on_randomized_states(widths):
    for seed in range(10):
        p = PredictorState(PredictorConfig(one_level_bits=widths[0], history_bits=widths[1]))
        p.randomize_reset(seed)
        _assert_probe_finds(p, Mode.ONE_LEVEL)


def test_probe_ghr_depth_requires_history_mode():
    with pytest.raises(ProbeError):
        probe_ghr_depth(PredictorState(), 16)


def test_probe_ghr_depth_error_when_max_too_small():
    p = PredictorState(PredictorConfig(ghr_depth=12))
    activate_history_mode(p)
    with pytest.raises(ProbeError):
        probe_ghr_depth(p, 8)


@pytest.mark.parametrize("depth", [4, 8, 12, 16])
def test_probe_ghr_depth_exact(depth):
    p = PredictorState(PredictorConfig(ghr_depth=depth))
    activate_history_mode(p)
    assert probe_ghr_depth(p, depth + 8) == depth


def test_harness_latency_sampling():
    p = PredictorState()
    p.selector.frozen = True
    h = BranchHarness(p, LatencyModel().sampler())
    not_taken = Branches([(0x4000, Direction.NOT_TAKEN, 0x4040)], p.config)
    # the fresh entry is weakly not-taken: predicted correctly
    assert h.execute(not_taken, read=0) == 10
    # a strongly taken entry mispredicts the not-taken execution
    p.pht_one_level[index_one_level(0x4000, p.config)] = 0
    assert h.execute(not_taken, read=0) == 50
    assert p.pht_one_level[index_one_level(0x4000, p.config)] == 1
    # a phase read at no execution still executes
    assert h.execute(not_taken) is None
    assert p.pht_one_level[index_one_level(0x4000, p.config)] == 2


@pytest.mark.parametrize("mode", list(Mode))
def test_harness_reads_the_execution_at_its_index(mode):
    """Read at any pass, a harness call returns the noiseless latency of
    that pass's last execution, as the branch-by-branch reference finds it,
    and leaves the state the reference leaves. The last branch shares its
    entry with the first, so a pass steps that entry twice."""
    triples = [(0x4000, Direction.NOT_TAKEN, 0x4040), (0x4100, Direction.TAKEN, 0x4140),
               (0x4000, Direction.NOT_TAKEN, 0x4040)]
    state = PredictorState()
    state.selector.mode, state.selector.frozen = mode, True
    # the taken target inserts 0 into the zero GHR, so 0x4000 keeps this entry
    state.table(mode)[state.predict(0x4000).index] = 0
    reference, flags = state.clone(), []
    for _ in range(4):
        for addr, outcome, target in triples:
            pred = reference.predict(addr)
            flags.append(pred.direction is not outcome)
            reference.record_resolution(addr, outcome, pred, target)
    flags = flags[len(triples) - 1::len(triples)]  # each pass's last execution
    assert True in flags and False in flags
    branches = Branches(triples, state.config)
    for read, mispredicted in enumerate(flags):
        p = state.clone()
        assert BranchHarness(p, LatencyModel().sampler()).execute(branches, 4, read) == \
            (50 if mispredicted else 10)
        assert diff(p.snapshot(), reference.snapshot()) == {}


def test_victim_layouts_are_valid_programs():
    cfg = PredictorConfig()
    for layout in (build_victim_v1(cfg), build_victim_v2(cfg)):
        instrs = layout.program.instructions
        assert len({i.addr for i in instrs}) == len(instrs)
        # the program is the body: the preamble is only its executions
        assert len(layout.preamble.triples) == cfg.ghr_depth
        assert not {addr for addr, _, _ in layout.preamble.triples} & {i.addr for i in instrs}
        assert layout.preamble.triples[-1][2] == layout.trigger_addr
        assert layout.program.entry == {0: layout.trigger_addr}


@pytest.mark.parametrize("depth", [128, 256])
def test_deep_ghr_channels_recover_every_bit(depth):
    # preambles this deep reach the victims' bodies' addresses, so they run
    # only as committed executions, never as victim code
    cfg = PredictorConfig(ghr_depth=depth)
    secret = [1, 0, 1, 1, 0, 0, 1, 0]
    for mode in (Mode.ONE_LEVEL, Mode.HISTORY):
        assert side_channel_v2(secret, mode, config=cfg).recovered == secret
    assert covert_send_receive("10110010", Mode.HISTORY, config=cfg).decoded == "10110010"


def test_covert_short_messages_both_modes():
    for mode in (Mode.ONE_LEVEL, Mode.HISTORY):
        r = covert_send_receive("1011000111", mode)
        assert r.errors == 0
        assert r.decoded == "1011000111"
        assert len(r.trace.samples) == 10


def test_covert_one_level_survives_periodic_reset():
    msg = "10" * 40
    r = covert_send_receive(msg, Mode.ONE_LEVEL, reset_interval=16)
    assert r.errors == 0


@pytest.mark.parametrize("mode", [Mode.ONE_LEVEL, Mode.HISTORY], ids=lambda m: m.value)
def test_covert_rejects_reset_interval_below_one(mode):
    with pytest.raises(ValueError, match="reset_interval must be >= 1"):
        covert_send_receive("10", mode, reset_interval=0)


@pytest.mark.parametrize("call, message", [
    (lambda: covert_send_receive("10x1", Mode.HISTORY), "bit 2 is 'x', not '0' or '1'"),
    (lambda: side_channel_v1([1, 2, 0], Mode.ONE_LEVEL), "bit 1 is 2, not 0 or 1"),
    (lambda: side_channel_v2([1, -1, 0], Mode.ONE_LEVEL), "bit 1 is -1, not 0 or 1"),
], ids=["covert", "v1", "v2"])
def test_attacks_reject_a_bit_that_is_not_0_or_1(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_covert_under_mitigation_policy_breaks_transmission():
    msg = "0110100110010110"
    r = covert_send_receive(msg, Mode.ONE_LEVEL, policy=CommitTime)
    assert r.errors > 0


def test_side_channel_v1_recovers_reference_secret_both_modes():
    for mode in (Mode.ONE_LEVEL, Mode.HISTORY):
        r = side_channel_v1(REFERENCE_SECRET, mode)
        assert r.recovered == REFERENCE_SECRET
        assert r.accuracy == 1.0


def test_side_channel_v1_corrupted_history_context_misses():
    # attacker replays the wrong preamble target: the PHT collision is lost,
    # so the probes miss the transmitter's entry and recovery degrades
    r = side_channel_v1(REFERENCE_SECRET, Mode.HISTORY, corrupt_preamble_entry=3)
    assert r.accuracy < 1.0


def _v1_warmup(layout: attacks.VictimLayout) -> list:
    """One in-bounds v1 run as committed executions: the preamble, then the
    trigger and the transmitter not-taken."""
    nt = Direction.NOT_TAKEN
    return [*layout.preamble.triples, (layout.trigger_addr, nt, 0), (layout.bv_addr, nt, 0)]


@pytest.mark.parametrize("mode, runs", [(Mode.ONE_LEVEL, 3), (Mode.HISTORY, 5)],
                         ids=lambda v: getattr(v, "value", v))
def test_side_channel_v1_trial_makes_warmups_and_one_victim_run(monkeypatch, mode, runs):
    # one setup kernel call, a chain of the 2^(n-1) in-bounds warm-ups, the
    # 2^n - 1 presets and the victim's preamble; then the transient run
    # through the engine and one probe call, at the default widths
    calls, kernel = [], []
    run, execute = eng.run, PredictorState.execute
    layout = build_victim_v1(PredictorConfig())

    def counted(*args, **kwargs):
        calls.append(kwargs["env"])
        return run(*args, **kwargs)

    def counted_execute(self, branches, times=1, read=False):
        kernel.append((branches, times, read))
        return execute(self, branches, times, read)

    monkeypatch.setattr(eng, "run", counted)
    monkeypatch.setattr(PredictorState, "execute", counted_execute)
    n = PredictorConfig().counter_width(mode)
    r = side_channel_v1([1], mode)
    assert r.accuracy == 1.0
    assert calls == [{"oob": 1, "sec": 1}]
    if mode is Mode.HISTORY:
        kernel.pop(0)  # the TNTNTN switch
    (chain, times, read), (probe, probes, probe_read) = kernel
    assert isinstance(chain, Chain) and (times, read) == (1, False)
    context = list(layout.preamble.triples) if mode is Mode.HISTORY else []
    bv = layout.bv_addr
    assert [(list(b.triples), k) for b, k in chain.segments] == [
        (_v1_warmup(layout), runs - 1),
        ([*context, (bv, Direction.TAKEN, bv + 0x40)], (1 << n) - 1),
        (list(layout.preamble.triples), 1)]
    assert list(probe.triples) == [*context, (bv, Direction.NOT_TAKEN, bv + 0x40)]
    assert (probes, probe_read) == (runs - 1, True)
    assert runs - 1 == 1 << (n - 1)


@st.composite
def _warmup_cases(draw):
    config = PredictorConfig(
        one_level_bits=draw(st.integers(2, 4)), history_bits=draw(st.integers(2, 4)),
        ghr_depth=draw(st.one_of(st.integers(1, 20), st.sampled_from([64, 120, 121, 256]))),
        target_bits_per_entry=draw(st.integers(1, 3)),
        pht_entries_one_level=draw(st.sampled_from([2, 4, 16, 1024])),
        pht_entries_history=draw(st.sampled_from([2, 4, 16, 4096])))
    envs = draw(st.lists(st.fixed_dictionaries({"oob": st.integers(0, 1),
                                                "sec": st.integers(0, 1)}), max_size=3))
    return (config, draw(st.sampled_from(list(Mode))), draw(st.sampled_from(POLICIES)),
            draw(st.integers(0, 2**16)), envs, draw(st.integers(1, 8)))


@settings(max_examples=150, deadline=None)
@given(_warmup_cases())
def test_v1_warmups_as_one_kernel_call_match_the_engine_runs(case):
    # in-bounds runs squash no conditional branch, so the kernel makes the
    # engine's writes under every policy, also where the transmitter shares
    # the trigger's entry (2-entry tables) and resolves speculatively first
    config, mode, policy, seed, envs, n = case
    layout = build_victim_v1(config)
    p = PredictorState(config)
    p.randomize_reset(seed)
    p.selector.mode = mode
    p.selector.frozen = mode is Mode.ONE_LEVEL
    for env in envs:  # scramble the state with whole victim runs
        victim_run(layout, policy, p, env, seed)
    engine, kernel = p.clone(), p.clone()
    for _ in range(n):
        victim_run(layout, policy, engine, {"oob": 0, "sec": 0}, seed)
    kernel.execute(Branches(_v1_warmup(layout), config), n)
    assert diff(kernel.snapshot(), engine.snapshot()) == {}


@pytest.mark.parametrize("depth", [6, 12])
def test_side_channel_v1_rejects_a_preamble_entry_out_of_range(depth):
    config = PredictorConfig(ghr_depth=depth)
    for entry in (-1, depth):
        with pytest.raises(ValueError, match=rf"corrupt_preamble_entry must be in "
                                             rf"0\.\.{depth - 1}, got {entry}"):
            side_channel_v1([1, 0], Mode.HISTORY, config=config, corrupt_preamble_entry=entry)
    with pytest.raises(ValueError, match="corrupt_preamble_entry applies only to history mode"):
        side_channel_v1([1, 0], Mode.ONE_LEVEL, config=config, corrupt_preamble_entry=depth - 1)


@pytest.mark.parametrize("mode", [Mode.ONE_LEVEL, Mode.HISTORY], ids=lambda m: m.value)
@pytest.mark.parametrize("width", [2, 3, 4])
def test_side_channel_v1_recovers_every_bit_at_each_counter_width(mode, width):
    # the warm-up runs must mistrain the trigger however wide its counter is
    config = PredictorConfig(one_level_bits=width, history_bits=width)
    secret = random.Random(3).choices((0, 1), k=16)
    r = side_channel_v1(secret, mode, config=config, seed=3)
    assert r.recovered == secret
    if mode is Mode.ONE_LEVEL:
        return
    # the replayed context must not disturb the trigger at any GHR shape,
    # a one-entry window included
    secret = secret[:8]
    for bits in (1, 2, 3):
        for depth in (1, 4, 12, 20):
            config = PredictorConfig(one_level_bits=width, history_bits=width,
                                     target_bits_per_entry=bits, ghr_depth=depth)
            r = side_channel_v1(secret, mode, config=config, seed=depth)
            assert r.recovered == secret, (bits, depth)


def test_side_channel_v1_builds_its_victim_program_once(monkeypatch):
    built = []
    init = Program.__init__

    def counted(self, instructions):
        built.append(instructions)
        init(self, instructions)

    monkeypatch.setattr(Program, "__init__", counted)
    r = side_channel_v1([1, 0, 1, 1, 0, 0, 1, 0], Mode.ONE_LEVEL)
    assert r.accuracy == 1.0
    assert len(built) == 1


def test_side_channel_v2_recovers_reference_secret_both_modes():
    for mode in (Mode.ONE_LEVEL, Mode.HISTORY):
        r = side_channel_v2(REFERENCE_SECRET, mode)
        assert r.recovered == REFERENCE_SECRET


def test_side_channel_v2_without_poisoning_is_chance():
    rng = random.Random(0)
    secret = [1] * 50 + [0] * 50
    rng.shuffle(secret)
    r = side_channel_v2(secret, Mode.ONE_LEVEL, poison=False)
    assert 0.35 <= r.accuracy <= 0.65


def test_side_channel_mitigations_near_chance():
    secret = [1] * 30 + [0] * 30
    random.Random(2).shuffle(secret)
    for policy in (CommitTime, RestoreOnSquash, ShadowPht, ObfuscateOnSquash):
        r = side_channel_v1(secret, Mode.ONE_LEVEL, policy=policy, seed=5)
        assert 0.3 <= r.accuracy <= 0.7, policy.name


def test_noise_degrades_covert_channel_monotonically():
    msg = "".join(random.Random(9).choices("01", k=256))
    errors = []
    for sigma in (10, 20, 40):
        model = LatencyModel(noise=NoiseKind.GAUSSIAN, noise_param=sigma, seed=13)
        errors.append(covert_send_receive(msg, Mode.HISTORY,
                                          latency_model=model).errors)
    assert errors[0] > 0
    assert errors == sorted(errors)


def test_defense_workload_runs_and_resolve_time_wins():
    _, env = defense_workload()
    assert env["loop"][-1] == 0
    counts = defense_eval([ResolveTime, CommitTime])
    assert counts["speculative-resolve-time"] < counts["commit-time"]


def test_defense_eval_tick_budget_grows_with_iterations():
    # 3000 iterations take about 6,000 ticks: the tick budget grows with the loop
    counts = defense_eval(POLICIES, iterations=3000)
    assert sorted(counts) == sorted(p.name for p in POLICIES)
    assert all(isinstance(n, int) for n in counts.values())


def test_transient_gadget_only_reachable_through_poisoned_btb():
    cfg = PredictorConfig()
    layout = build_victim_v2(cfg)
    p = PredictorState(cfg)
    p.selector.frozen = True
    res = victim_run(layout, ResolveTime, p, {"sec": 1}, seed=0)
    assert not any(b.instr.addr == layout.bv_addr for b in res.branches)
    p.btb.update(layout.trigger_addr, layout.bv_addr)
    res = victim_run(layout, ResolveTime, p, {"sec": 1}, seed=0)
    bv = [b for b in res.branches if b.instr.addr == layout.bv_addr]
    assert bv and bv[0].resolved and bv[0].squashed and bv[0].speculative


@pytest.mark.parametrize("mode", [Mode.ONE_LEVEL, Mode.HISTORY], ids=lambda m: m.value)
@pytest.mark.parametrize("channel, secret, exc_type, message", [
    (side_channel_v1, [1, 0], AttackError,
     "trial 0: transmitter branch squashed before resolution"),
    (side_channel_v2, [1, 0], AttackError,
     "trial 0: gadget never reached despite poisoning"),
    (covert_send_receive, "10", TransmissionError,
     "transmitter branch not resolved at bit 0"),
], ids=["v1", "v2", "covert"])
def test_transmitter_not_resolved_errors(monkeypatch, mode, channel, secret, exc_type, message):
    # the trigger resolves before the transmitter can: v1's two-tick trigger
    # squashes the transmitter fetched one tick after it, and under a
    # one-tick trigger v2 and the covert channel never fetch the gadget
    v2 = attacks.build_victim_v2
    monkeypatch.setattr(attacks, "V1_TRIGGER_DELAY", 2)
    monkeypatch.setattr(attacks, "build_victim_v2",
                        lambda config, pid=0, cond_name="sec", trigger_delay=60:
                        v2(config, pid, cond_name, 1))
    with pytest.raises(exc_type) as info:
        channel(secret, mode)
    assert type(info.value) is exc_type
    assert str(info.value) == message
    if exc_type is TransmissionError:
        assert info.value.bit_position == 0


@pytest.mark.parametrize("mode", [Mode.ONE_LEVEL, Mode.HISTORY], ids=lambda m: m.value)
def test_v1_transmitter_never_fetched_has_its_own_error(monkeypatch, mode):
    # a one-tick trigger resolves before the fall-through transmitter is
    # fetched, so the run has no dynamic transmitter at all
    monkeypatch.setattr(attacks, "V1_TRIGGER_DELAY", 1)
    with pytest.raises(AttackError) as info:
        side_channel_v1([1, 0], mode)
    assert str(info.value) == "trial 0: transmitter branch never fetched before the trigger resolved"


CHANNELS = {
    "covert": lambda mode: covert_send_receive("1101", mode, reset_interval=2),
    "v1": lambda mode: side_channel_v1([1, 0, 1], mode),
    "v2": lambda mode: side_channel_v2([1, 0, 1], mode),
}


@pytest.mark.parametrize("mode", [Mode.ONE_LEVEL, Mode.HISTORY], ids=lambda m: m.value)
@pytest.mark.parametrize("channel", list(CHANNELS))
def test_selector_stays_in_the_channel_mode_after_each_trial(monkeypatch, channel, mode):
    # the decode of a probe latency assumes the mode the channel set up; a
    # trial ends by appending its decisive probe to the trace and decoding it
    channels, seen = [], []
    init, append = attacks._Channel.__init__, attacks.LatencyTrace.append

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        channels.append(self)

    def observe(trace, probe_index, latency):
        seen.append(channels[-1].predictor.selector.mode)
        return append(trace, probe_index, latency)

    monkeypatch.setattr(attacks._Channel, "__init__", capture)
    monkeypatch.setattr(attacks.LatencyTrace, "append", observe)
    CHANNELS[channel](mode)
    assert len(channels) == 1 and channels[0].mode is mode
    assert seen == [mode] * (4 if channel == "covert" else 3)


def _count_calls(monkeypatch, methods):
    """Count the calls of each `(owner, name)` method; returns the counts,
    keyed by `owner.name`."""
    calls = {}
    for owner, name in methods:
        key, method = f"{owner.__name__}.{name}", getattr(owner, name)
        calls[key] = 0

        def counted(self, *args, _key=key, _method=method, **kwargs):
            calls[_key] += 1
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_covert_makes_one_kernel_call_per_phase_and_victim_preamble(monkeypatch):
    """A 96-bit history-mode transmission is 193 kernel calls: the TNTNTN
    switch, then per bit one setup call and one probe call. The setup call
    is the victim's preamble, which sets the GHR the probes replay; the
    first one is a chain of the 7 presets and the preamble. Each of the 96
    probe calls goes through the harness: 7 probes, each an execution with
    its 12-branch context. 4 `predict` calls are the engine's, one for the
    transmitter in each victim body run that misses the memo: a body run is
    keyed on its bit, and the chained probes leave the transmitter's entry
    at 0 and at 7 in turn, so each of the two bit values misses once at
    each value. The other 6, with the 6 `record_resolution` calls, are the
    TNTNTN switch, which an unfrozen selector runs branch by branch; the
    other kernel calls make none."""
    calls = _count_calls(monkeypatch, [
        (PredictorState, "execute"), (BranchHarness, "execute"),
        (PredictorState, "predict"), (PredictorState, "record_resolution")])
    message = "".join(random.Random(0).choices("01", k=96))
    assert covert_send_receive(message, Mode.HISTORY, seed=0).errors == 0
    assert set(message) == {"0", "1"}
    assert calls == {"PredictorState.execute": 193, "BranchHarness.execute": 96,
                     "PredictorState.predict": 10,
                     "PredictorState.record_resolution": 6}


def _covert_sampler_calls(monkeypatch, mode):
    """Transmit the 96-bit seed-0 message in `mode`; return the harness and
    sampler call counts, the harness calls per read pass, the setup calls
    (a chain's segment `times`, or "preamble" for the bare preamble),
    counted, and every `Branches` and `Chain` built on the way."""
    built = []
    for cls in (Branches, Chain):
        def record(self, *args, _init=cls.__init__):
            _init(self, *args)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", record)
    calls = _count_calls(monkeypatch, [(BranchHarness, "execute"), (LatencySampler, "measure")])
    reads, setups, execute = Counter(), Counter(), BranchHarness.execute
    kernel = PredictorState.execute

    def record_read(self, branches, times=1, read=None):
        reads[read] += 1
        return execute(self, branches, times, read)

    def record_setup(self, branches, times=1, read=False):
        if isinstance(branches, Chain):
            setups[tuple(k for _, k in branches.segments)] += 1
        elif branches is built[0]:  # the victim's preamble, the first built
            setups["preamble"] += 1
        return kernel(self, branches, times, read)

    monkeypatch.setattr(BranchHarness, "execute", record_read)
    monkeypatch.setattr(PredictorState, "execute", record_setup)
    message = "".join(random.Random(0).choices("01", k=96))
    assert covert_send_receive(message, mode, seed=0).errors == 0
    return calls, reads, setups, built


def test_covert_makes_one_sampler_call_per_probe_phase(monkeypatch):
    """The same 96-bit transmission makes 96 harness calls, the probe
    phases, and one sampler call each; no `Branches` or `Chain` memo holds
    more than its bound. Each phase reads its decisive pass, the fourth of
    its 7 13-branch probes, pass 3. The preset reads no latency and calls
    no sampler: it is a segment of the first setup call, a chain of its 7
    passes and the preamble; the other 95 setup calls are the bare
    preamble."""
    calls, reads, setups, built = _covert_sampler_calls(monkeypatch, Mode.HISTORY)
    assert calls == {"BranchHarness.execute": 96, "LatencySampler.measure": 96}
    assert reads == {3: 96}
    assert setups == {(7, 1): 1, "preamble": 95}
    assert any(isinstance(b, Chain) for b in built)
    assert max(len(b._runs) for b in built) <= bpu.MEMO_WORDS


def test_one_level_covert_presets_after_each_reset(monkeypatch):
    """In one-level mode the 96 bits make 96 harness calls, the probe
    phases, one sampler call each. With 2-bit counters a phase probes 3
    times and reads its second pass. The setup call is a chain that
    presets, 3 passes ahead of the preamble, after the first reset and
    after the one at bit 64, and reads no latency and calls no sampler; the
    other 94 are the bare preamble."""
    calls, reads, setups, _ = _covert_sampler_calls(monkeypatch, Mode.ONE_LEVEL)
    assert calls == {"BranchHarness.execute": 96, "LatencySampler.measure": 96}
    assert reads == {1: 96}
    assert setups == {(3, 1): 2, "preamble": 94}


@pytest.mark.parametrize("mode", list(Mode))
def test_covert_draws_one_noise_value_per_timed_probe(monkeypatch, mode):
    """The seed-0 96-bit transmission draws one noise value per probe phase:
    96 standard normals under Gaussian noise, 96 whole numbers under
    uniform noise, and none without noise. A draw per attacker execution
    made 8,827 in history mode and 294 in one-level mode."""
    draws = Counter()

    class Counting(random.Random):
        def gauss(self, *args):
            draws["gauss"] += 1
            return super().gauss(*args)

        def randint(self, *args):
            draws["randint"] += 1
            return super().randint(*args)

    monkeypatch.setattr(timing, "random", SimpleNamespace(Random=Counting))
    message = "".join(random.Random(0).choices("01", k=96))
    counts = []
    for noise, sigma in ((NoiseKind.NONE, 0), (NoiseKind.GAUSSIAN, 15), (NoiseKind.UNIFORM, 20)):
        draws.clear()
        covert_send_receive(message, mode, LatencyModel(noise, sigma, seed=0), seed=0)
        counts.append(dict(draws))
    assert counts == [{}, {"gauss": 96}, {"randint": 96}]


@pytest.mark.parametrize("owner", ["predictor", "harness"])
def test_execute_refuses_raw_triples(owner):
    """An attacker phase is a prebuilt `Branches`; a list of triples is a
    TypeError that leaves the predictor and the noise stream as they were."""
    p = PredictorState()
    sampler = LatencyModel(NoiseKind.GAUSSIAN, 2.0, seed=1).sampler()
    before, stream = p.snapshot(), sampler._rng.getstate()
    execute = p.execute if owner == "predictor" else BranchHarness(p, sampler).execute
    with pytest.raises(TypeError, match="execute takes a Branches, not list"):
        execute([(0x4000, Direction.TAKEN, 0x4040)], 1, 0)
    assert diff(before, p.snapshot()) == {}
    assert sampler._rng.getstate() == stream


@pytest.mark.parametrize("read", [3, 7, -1])
def test_harness_refuses_a_read_outside_the_phase_before_it_executes(read):
    """A read outside the phase's three passes, of two branches each, leaves
    the predictor and the noise stream as they were."""
    p = PredictorState()
    sampler = LatencyModel(NoiseKind.GAUSSIAN, 2.0, seed=1).sampler()
    before, stream = p.snapshot(), sampler._rng.getstate()
    branches = Branches([(0x4000, Direction.TAKEN, 0x4040), (0x4100, Direction.TAKEN, 0x4140)],
                        p.config)
    with pytest.raises(IndexError, match=f"read pass {read} outside the phase's 3 passes"):
        BranchHarness(p, sampler).execute(branches, 3, read)
    assert diff(before, p.snapshot()) == {}
    assert sampler._rng.getstate() == stream


@pytest.mark.parametrize("times", [0, -3])
def test_harness_refuses_fewer_than_one_pass(times):
    h = BranchHarness(PredictorState(), LatencyModel().sampler())
    with pytest.raises(ValueError, match=f"times must be >= 1, got {times}"):
        h.execute(Branches([(0x4000, Direction.TAKEN, 0x4040)], h.predictor.config), times)


def test_probes_make_one_predictor_call_per_phase(monkeypatch):
    """The history-mode switch is one kernel call, and the mode probe two
    (its taken runs, then its not-taken runs); the depth probe is two per
    preamble length tried (train, probe), 24 for the default depth 12. The
    switch runs on an unfrozen selector, so its call makes one `predict`
    and one `record_resolution` per execution."""
    calls = _count_calls(monkeypatch, [
        (PredictorState, "execute"), (PredictorState, "predict"),
        (PredictorState, "record_resolution")])
    p = PredictorState()
    counts = []
    for probe in (lambda: activate_history_mode(p), lambda: probe_mode(p),
                  lambda: probe_ghr_depth(p, 16)):
        probe()
        counts.append(dict(calls))
        calls.update(dict.fromkeys(calls, 0))
    assert counts == [{"PredictorState.execute": k, "PredictorState.predict": r,
                       "PredictorState.record_resolution": r}
                      for k, r in ((1, 6), (2, 0), (24, 0))]


# every size field at its bound: a history index folds a 2,304-bit GHR word
BOUND_CONFIG = PredictorConfig(
    one_level_bits=9, history_bits=9, target_bits_per_entry=9, ghr_depth=256,
    pht_entries_one_level=1 << 16, pht_entries_history=1 << 16, btb_entries=1 << 16)


def test_history_covert_folds_no_history_index_past_its_first_four_bits(monkeypatch):
    """Each attacker sequence and victim preamble walks its history indexes
    once per starting GHR word it meets, and the victim's body reaches the
    engine, whose `predict` folds the transmitter's index, only on a memo
    miss. The words and the transmitter entry's value depend on the probe
    direction and the bit, and "1001" meets all four pairs, so after it a
    bit adds no `history_index` call."""
    calls = _count_calls(monkeypatch, [(PredictorState, "history_index")])
    counts = []
    for bits in (4, 5, 8):
        calls["PredictorState.history_index"] = 0
        message = "10010110"[:bits]
        assert covert_send_receive(message, Mode.HISTORY, config=BOUND_CONFIG).errors == 0
        counts.append(calls["PredictorState.history_index"])
    assert [n - counts[0] for n in counts] == [0, 0, 0]


def _record_layouts(monkeypatch) -> list:
    """Every VictimLayout built from now on."""
    built = []
    init = attacks.VictimLayout.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(attacks.VictimLayout, "__init__", record)
    return built


def _assert_memo_bounded(layouts) -> None:
    for layout in layouts:
        assert len(layout._memo) <= bpu.MEMO_WORDS
        assert all(len(f) <= bpu.MEMO_WORDS for f in layout._memo.values())


@pytest.mark.parametrize("attack", [
    lambda bits: covert_send_receive("".join(map(str, bits)), Mode.HISTORY),
    lambda bits: side_channel_v1(bits[:200], Mode.ONE_LEVEL),
], ids=["covert-history-1000", "v1-one-level-200"])
def test_victim_bodies_reach_the_engine_only_on_memo_misses(monkeypatch, attack):
    """A transmission's body runs fall under two keys, one per bit value,
    with two footprints each: the covert transmitter's entry is met at 0
    after the presets and at 7 after a probe phase, and v1's trigger entry
    at 2 or 3 after a reset and the warm-ups. So 1,000 covert bits, or 200
    v1 bits, make four engine runs."""
    layouts, envs = _record_layouts(monkeypatch), []
    run = eng.run
    monkeypatch.setattr(eng, "run", lambda *args, **kwargs: envs.append(kwargs["env"])
                        or run(*args, **kwargs))
    rng = random.Random(4)
    attack([rng.randint(0, 1) for _ in range(1000)])
    assert len(envs) == 4
    assert len(layouts) == 1
    _assert_memo_bounded(layouts)


def test_channels_take_no_snapshot(monkeypatch):
    """A snapshot copies both tables and the BTB, so no trial loop, kernel
    call or victim-run memo takes one."""
    calls, snapshot = [], PredictorState.snapshot
    monkeypatch.setattr(PredictorState, "snapshot", lambda s: calls.append(s) or snapshot(s))
    assert covert_send_receive("0110" * 16, Mode.HISTORY).errors == 0
    assert side_channel_v1([1, 0, 1, 1], Mode.ONE_LEVEL, seed=3).recovered == [1, 0, 1, 1]
    assert calls == []


def _direct_outcome(layout, policy, predictor, env, seed) -> tuple[bool, bool]:
    bv = attacks._find_branch(victim_run(layout, policy, predictor, env, seed), layout.bv_addr)
    return bv is not None, bv is not None and bv.resolved


_between_runs = st.one_of(
    st.tuples(st.just("poison"), st.sampled_from([0x3003, 0x2040, 0x2008])),
    st.tuples(st.just("ghr"), st.integers(0, 7)),
    st.tuples(st.just("pht"), st.sampled_from([(0, 0x2002), (0, 0x2008), (1, 0x3003)]),
              st.integers(0, 7)),
    st.tuples(st.just("reset"), st.integers(0, 3)),
    st.tuples(st.just("mode"), st.sampled_from(list(Mode)), st.booleans()),
)


@st.composite
def _memo_cases(draw):
    """Both victims, with preambles cut short so that the GHR word before
    the body varies, on one scrambled predictor; up to four calls (victim,
    env, seed), a first one and calls that each differ from it in one
    field; and a list of steps, each one state change made to the last
    step's state or to the state its last run left."""
    config = PredictorConfig(
        one_level_bits=draw(st.integers(2, 3)), history_bits=draw(st.integers(2, 3)),
        ghr_depth=draw(st.integers(1, 6)), target_bits_per_entry=draw(st.integers(1, 2)),
        pht_entries_one_level=draw(st.sampled_from([2, 4, 16, 1024])),
        pht_entries_history=draw(st.sampled_from([2, 4, 16, 4096])),
        btb_entries=draw(st.sampled_from([1, 4, 512])))
    layouts = []
    for layout in (build_victim_v1(config), build_victim_v2(config)):
        cut = draw(st.integers(0, config.ghr_depth))
        layouts.append(attacks.VictimLayout(
            layout.program, layout.schedule, layout.trigger_addr, layout.bv_addr,
            Branches(layout.preamble.triples[:cut], config)))
    predictor = PredictorState(config)
    predictor.randomize_reset(draw(st.integers(0, 2**16)))
    predictor.selector.mode = draw(st.sampled_from(list(Mode)))
    predictor.selector.frozen = draw(st.booleans())
    if draw(st.booleans()):
        predictor.btb.update(layouts[1].trigger_addr, layouts[1].bv_addr)
    value = st.sampled_from([0, 1, [0, 1], [1, 0, 1]])
    fields = (st.integers(0, 1), st.fixed_dictionaries({"oob": value, "sec": value}),
              st.integers(0, 3))
    calls = [tuple(draw(f) for f in fields)]
    for k in draw(st.lists(st.integers(0, 2), max_size=3)):
        calls.append(calls[0][:k] + (draw(fields[k]),) + calls[0][k + 1:])
    steps = draw(st.lists(st.tuples(st.booleans(), _between_runs), min_size=3, max_size=6))
    return layouts, predictor, calls, steps, draw(st.sampled_from([2, 64]))


@settings(max_examples=150, deadline=None)
@given(_memo_cases())
def test_memoized_victim_runs_match_direct_runs(case):
    """The preamble and `transmit` against `victim_run`, on two predictors
    kept equal: the same outcome and state after every run, with the memo
    at its bound. Every call runs under every policy from the first state,
    then from the state each step leaves, so that runs sharing all but one
    key field, or all but one PHT entry's value, meet the same state."""
    layouts, predictor, calls, steps, memo_words = case
    state = memo = predictor
    with mock.patch.object(bpu, "MEMO_WORDS", memo_words):
        for carry, change in [(False, ("none",))] + steps:
            state = (memo if carry else state).clone()
            if change[0] == "poison":
                state.btb.update(layouts[1].trigger_addr, change[1])
            elif change[0] == "ghr":
                state.ghr.insert_taken(change[1])
            elif change[0] == "pht":  # the entry a victim's branch reads after its preamble
                (which, addr), value = change[1:]
                mode, ghr, pre = state.selector.mode, state.ghr.clone(), layouts[which].preamble
                ghr.advance(pre.count, pre.tail)
                index = (index_one_level(addr, state.config) if mode is Mode.ONE_LEVEL
                         else state.history_index(addr, ghr))
                state.table(mode)[index] = value % (1 << state.config.counter_width(mode))
            elif change[0] == "reset":
                state.randomize_reset(change[1])
            elif change[0] == "mode":
                state.selector.mode, state.selector.frozen = change[1], change[2]
            for policy, (which, env, seed) in itertools.product(POLICIES, calls):
                memo, direct = state.clone(), state.clone()
                layout = layouts[which]
                memo.execute(layout.preamble)  # a channel's setup chain ends in it
                assert layout.transmit(policy, memo, env, seed) == \
                    _direct_outcome(layout, policy, direct, env, seed)
                assert diff(memo.snapshot(), direct.snapshot()) == {}
                _assert_memo_bounded(layouts)


def _pass_words(branches: Branches) -> set[int]:
    """The GHR words the passes of a `Branches`'s memoized calls start from:
    each call's own word, then the word each group's one pass leaves (only
    a call's last group holds more passes, all from one word)."""
    words = set()
    for (word, _), groups in branches._runs.items():
        ghr = GlobalHistoryRegister(branches.config)
        ghr._word = word
        for _ in groups:
            words.add(ghr._word)
            ghr.advance(branches.count, branches.tail)
    return words


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_covert_sequences_start_from_at_most_three_ghr_words(monkeypatch, policy):
    """Past the history-mode switch, each sequence of a history covert
    transmission starts from at most three GHR words. The context (the
    victim's preamble) refills the whole GHR, so every pass of it, and of a
    transmitter execution (the context, then the transmitter), leaves one
    word: the context's, with the transmitter's target shifted in when it
    is taken. A transmitter execution's later passes start from the word its
    own pass leaves, and its first probe pass from the word a victim body
    run leaves, one per bit value at most (a policy that lets the squashed
    gadget's taken branch reach the GHR leaves another word on a 1). The
    context, run bare as a trial's setup call, starts from where either
    execution ends. The one setup chain, the preset and then the context,
    runs once, from the switch's word."""
    built, chains, left = [], [], set()
    init, chain_init, transmit = Branches.__init__, Chain.__init__, VictimLayout.transmit

    def record(self, *args):
        init(self, *args)
        built.append(self)

    def record_chain(self, *args):
        chain_init(self, *args)
        chains.append(self)

    def transmit_and_record(self, policy, predictor, env, seed):
        outcome = transmit(self, policy, predictor, env, seed)
        left.add(predictor.ghr._word)
        return outcome

    monkeypatch.setattr(Branches, "__init__", record)
    monkeypatch.setattr(Chain, "__init__", record_chain)
    monkeypatch.setattr(VictimLayout, "transmit", transmit_and_record)
    bound = bpu.MEMO_WORDS
    # no memo starts over, so each holds every call its sequence made
    monkeypatch.setattr(bpu, "MEMO_WORDS", 1 << 30)
    message = "".join(random.Random(4).choices("01", k=1000))
    assert set(message) == {"0", "1"}
    covert_send_receive(message, Mode.HISTORY, policy=policy)
    # the victim's preamble (also the replayed context), the TNTNTN switch,
    # two transmitter executions; the setup chain that presets
    preamble, _, taken, not_taken = built
    (presetting,) = chains
    assert [b for b, _ in presetting.segments] == [taken, preamble]
    p = PredictorState()
    activate_history_mode(p)
    switched, ends = p.ghr._word, {}
    for b in (taken, not_taken):
        p.ghr.advance(b.count, b.tail)
        ends[b] = p.ghr._word
    assert len(left) <= 2
    words = {b: _pass_words(b) for b in built}
    assert words[preamble] <= set(ends.values())
    assert words[not_taken] <= {ends[not_taken]} | left
    assert words[taken] <= {switched, ends[taken]} | left
    assert max(len(w - {switched}) for w in words.values()) <= 3
    assert max(len(w) for w in words.values()) <= 4
    assert max(len(b._runs) for b in built) <= 4 <= bound
    assert [word for word, _ in presetting._runs] == [switched]


def test_attack_loops_never_render_event_text(monkeypatch):
    calls = []
    render = eng.render_events
    monkeypatch.setattr(eng, "render_events", lambda records: calls.append(1) or render(records))
    assert side_channel_v1([1, 0, 1], Mode.ONE_LEVEL).accuracy == 1.0
    assert covert_send_receive("1101", Mode.HISTORY).errors == 0
    assert calls == []


def test_attack_loops_never_count_the_summary(monkeypatch):
    calls = []
    summarize = eng.summarize
    monkeypatch.setattr(eng, "summarize", lambda records: calls.append(1) or summarize(records))
    assert side_channel_v1([1, 0, 1], Mode.ONE_LEVEL).accuracy == 1.0
    assert side_channel_v2([1, 0, 1], Mode.ONE_LEVEL).accuracy == 1.0
    assert covert_send_receive("1101", Mode.HISTORY).errors == 0
    assert calls == []
