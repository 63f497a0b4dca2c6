"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with plain `pytest`; the lines are emitted outside capture so they are
visible in normal runs.
"""

from __future__ import annotations

import filecmp
import json
import random

from conftest import invoke, victim_run

from bpusim.attacks import (
    BranchHarness,
    activate_history_mode,
    build_victim_v2,
    covert_send_receive,
    defense_eval,
    probe_ghr_depth,
    side_channel_v1,
    side_channel_v2,
    speculative_update_scenario,
)
from bpusim.engine import CommitTime, ObfuscateOnSquash, ResolveTime, RestoreOnSquash, ShadowPht
from bpusim.predictor import (
    Branches,
    Direction,
    Mode,
    PredictorConfig,
    PredictorState,
    counter_predict,
    counter_update,
    index_one_level,
)
from bpusim.scanner import (
    build_report,
    parse_disasm,
    scan_smotherspectre,
    scan_v2,
)
from bpusim.timing import LatencyModel, NoiseKind

REFERENCE_SECRET = [1, 1, 0, 1, 1, 1, 0, 0, 0, 1]


def _report(capsys, num, desc, ok, detail=""):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
              + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_01_misprediction_signatures(capsys):
    results = {}
    for width in (2, 3):
        v = 0  # strongly taken
        mis = 0
        for _ in range(1 << width):
            mis += counter_predict(v, width) is not Direction.NOT_TAKEN
            v = counter_update(v, width, Direction.NOT_TAKEN)
        results[width] = mis
    ok = results == {2: 2, 3: 4}
    _report(capsys, 1, "misprediction signatures exactly 2 (n=2) and 4 (n=3)",
            ok, str(results))


def test_criterion_02_mode_transition(capsys):
    addr = 0x4000
    ok = True
    for init in range(4):
        for bits in range(64):
            outcomes = [Direction.TAKEN if (bits >> i) & 1 else Direction.NOT_TAKEN
                        for i in range(6)]
            state = PredictorState()
            state.pht_one_level[index_one_level(addr, state.config)] = init
            value, mispreds = init, 0
            for o in outcomes:
                if state.selector.mode is Mode.ONE_LEVEL:
                    mispreds += counter_predict(value, 2) is not o
                    value = counter_update(value, 2, o)
                pred = state.predict(addr)
                state.record_resolution(addr, o, pred, addr)
                expect = Mode.HISTORY if mispreds >= 3 else Mode.ONE_LEVEL
                ok &= state.selector.mode is expect
        # TNTNTN always flips
        state = PredictorState()
        state.pht_one_level[index_one_level(addr, state.config)] = init
        for o in [Direction.TAKEN, Direction.NOT_TAKEN] * 3:
            pred = state.predict(addr)
            state.record_resolution(addr, o, pred, addr)
        ok &= state.selector.mode is Mode.HISTORY
    _report(capsys, 2, "threshold-3 mode transition, exhaustive over initial "
            "states and length-6 sequences; TNTNTN always flips", ok)


def test_criterion_03_ghr_collision_threshold(capsys):
    measured = {}
    for depth in (4, 8, 12, 16):
        p = PredictorState(PredictorConfig(ghr_depth=depth))
        activate_history_mode(p)
        measured[depth] = probe_ghr_depth(p, depth + 8)
    ok = all(measured[d] == d for d in measured)
    _report(capsys, 3, "probe_ghr_depth returns the configured depth for "
            "{4, 8, 12, 16}", ok, str(measured))


def test_criterion_04_inference_rule_exhaustive(capsys):
    cfg = PredictorConfig()
    ok = True
    cases = []
    for mode in (Mode.ONE_LEVEL, Mode.HISTORY):  # n = 2 and n = 3
        n = cfg.counter_width(mode)
        half = 1 << (n - 1)
        for d in Direction:
            for o in Direction:
                p = PredictorState(cfg)
                if mode is Mode.HISTORY:
                    activate_history_mode(p)
                else:
                    p.selector.frozen = True
                layout = build_victim_v2(cfg, cond_name="bit")
                model = LatencyModel()
                h = BranchHarness(p, model.sampler())
                context = layout.preamble.triples if mode is Mode.HISTORY else ()

                def execute(direction):
                    """Whether one execution of the transmitter after the
                    context mispredicted, read from its noiseless latency."""
                    latency = h.execute(Branches([*context, (layout.bv_addr, direction,
                                                             layout.bv_addr + 0x40)], cfg),
                                        read=0)
                    return latency > model.threshold

                for _ in range((1 << n) - 1):
                    execute(d)
                p.btb.update(layout.trigger_addr, layout.bv_addr)
                res = victim_run(layout, ResolveTime, p,
                                 {"bit": 1 if o is Direction.TAKEN else 0}, seed=0)
                bv = [b for b in res.branches if b.instr.addr == layout.bv_addr]
                ok &= bool(bv) and bv[0].resolved and bv[0].squashed
                mis = None
                for k in range(half):
                    mis = execute(d.opposite())
                good = mis == (o is d)
                ok &= good
                cases.append(good)
    _report(capsys, 4, "decisive probe mispredicts iff the speculative outcome "
            "matched the training direction (n in {2,3}, all 8 cases each)",
            ok, f"{sum(cases)}/{len(cases)}")


def test_criterion_05_speculative_persistence(capsys):
    default = speculative_update_scenario(ResolveTime)
    ok = default["persisted"]
    details = [f"default:{default['entry_before']}->{default['entry_after']}"]
    for policy in (CommitTime, RestoreOnSquash, ShadowPht):
        doc = speculative_update_scenario(policy)
        ok &= not doc["persisted"] and doc["state_unchanged"]
        details.append(f"{policy.name}:unchanged={doc['state_unchanged']}")
    _report(capsys, 5, "squashed speculative update persists by default, "
            "bit-identical under the mitigation policies", ok,
            " ".join(details))


def test_criterion_06_covert_channel(capsys):
    rng = random.Random(2024)
    message = "".join(rng.choice("01") for _ in range(1024))
    errors = {}
    for mode in (Mode.ONE_LEVEL, Mode.HISTORY):
        errors[mode.value] = covert_send_receive(message, mode).errors
    ok = errors == {"one-level": 0, "history": 0}
    noisy = []
    short = message[:256]
    for sigma in (10, 20, 40):
        model = LatencyModel(noise=NoiseKind.GAUSSIAN, noise_param=sigma, seed=5)
        noisy.append(covert_send_receive(short, Mode.HISTORY,
                                         latency_model=model).errors)
    ok &= noisy[0] > 0 and noisy == sorted(noisy) and len(set(noisy)) == 3
    _report(capsys, 6, "1024-bit covert channel error-free in both modes; "
            "Gaussian noise error rate positive and increasing in sigma",
            ok, f"noiseless={errors} noisy={noisy}")


def test_criterion_07_side_channel_poc(capsys):
    ok = True
    details = []
    for mode in (Mode.ONE_LEVEL, Mode.HISTORY):
        r = side_channel_v1(REFERENCE_SECRET, mode)
        ok &= r.recovered == REFERENCE_SECRET
        rng = random.Random(31)
        secret = [rng.randint(0, 1) for _ in range(500)]
        r = side_channel_v1(secret, mode, seed=7)
        ok &= r.accuracy == 1.0
        details.append(f"{mode.value}:500-trial={r.accuracy:.3f}")
    balanced = [1] * 50 + [0] * 50
    random.Random(8).shuffle(balanced)
    for policy in (CommitTime, RestoreOnSquash, ShadowPht, ObfuscateOnSquash):
        r = side_channel_v1(balanced, Mode.ONE_LEVEL, policy=policy, seed=3)
        ok &= 0.45 <= r.accuracy <= 0.55
        details.append(f"{policy.name}={r.accuracy:.2f}")
    _report(capsys, 7, "reference secret recovered exactly in both modes; "
            "500-trial runs 100% noiseless; mitigations near chance", ok,
            " ".join(details))


def test_criterion_08_btb_poisoning_side_channel(capsys):
    planted = [1, 0, 1, 1, 0, 0, 1, 0]
    r = side_channel_v2(planted, Mode.ONE_LEVEL)
    ok = r.recovered == planted
    unpoisoned_secret = [1] * 250 + [0] * 250
    random.Random(12).shuffle(unpoisoned_secret)
    r2 = side_channel_v2(unpoisoned_secret, Mode.ONE_LEVEL, poison=False)
    ok &= 0.45 <= r2.accuracy <= 0.55
    _report(capsys, 8, "8-bit secret recovered 8/8 with BTB poisoning; "
            "chance accuracy without poisoning over 500 trials", ok,
            f"poisoned={r.accuracy:.2f} unpoisoned={r2.accuracy:.3f}")


def test_criterion_09_gadget_scanner(capsys):
    import importlib.resources

    corpus = importlib.resources.files("bpusim") / "data" / "corpus"
    manifest = json.loads((corpus / "manifest.json").read_text())
    ok = True
    for name, expect in manifest.items():
        if not name.endswith(".disasm"):
            continue
        report = build_report(name, parse_disasm((corpus / name).read_text()))
        got = {(s["addr"], s["classification"], s["register"],
                tuple(s["bit_positions"]), s["smotherspectre"])
               for s in json.loads(report.to_json())["gadget_sites"]}
        want = {(s["addr"], s["classification"], s["register"],
                 tuple(s["bit_positions"]), s["smotherspectre"])
                for s in expect["sites"]}
        ok &= got == want
        ok &= (report.v2_count, report.smotherspectre_count, report.v1_count) == \
            (expect["v2_count"], expect["smotherspectre_count"], expect["v1_count"])

    # subset law on 1000 randomized inputs
    from test_scanner import _random_program

    rng = random.Random(99)
    for _ in range(1000):
        recs = parse_disasm(_random_program(rng))
        ok &= {s.addr for s in scan_smotherspectre(recs)} <= \
            {s.addr for s in scan_v2(recs)}
    _report(capsys, 9, "100% recall/precision on the bundled corpus; "
            "port-contention sites are a subset of v2 sites on 1000 "
            "randomized inputs", ok)


def test_criterion_10_defense_eval_direction(capsys):
    counts = defense_eval([ResolveTime, CommitTime])
    ok = counts["speculative-resolve-time"] < counts["commit-time"]
    _report(capsys, 10, "nested-loop workload: strictly fewer mispredictions "
            "under resolve-time than commit-time updates", ok, str(counts))


def test_criterion_11_determinism(capsys, tmp_path):
    commands = [
        ["speculative-update"],
        ["probe-mode", "--actual", "history"],
        ["probe-ghr", "--max-n", "16"],
        ["covert", "--bits", "32"],
        ["sidechannel-v1"],
        ["sidechannel-v2"],
        ["defense-eval"],
        ["scan"],
    ]
    ok = True
    for cmd in commands:
        dirs = []
        for rep in range(2):
            out = tmp_path / f"{cmd[0]}_{rep}"
            result = invoke(["--seed", "3", "--out", str(out)] + cmd)
            ok &= result.exit_code == 0
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        ok &= names == sorted(p.name for p in dirs[1].iterdir())
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names,
                                                   shallow=False)
        ok &= not mismatch and not errors
    _report(capsys, 11, "every subcommand rerun with the same seed produces "
            "byte-identical artifacts", ok)
