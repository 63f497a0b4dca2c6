"""Golden CLI artifacts: every case pins a sha256 over the bytes it writes.

A change that alters any artifact byte fails here. A change that alters
artifacts on purpose (for instance by changing the RNG stream) updates the
digests below and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from conftest import invoke

from bpusim import attacks, cli, engine
from bpusim.predictor import Mode
from bpusim.timing import LatencyModel, NoiseKind

POLICIES = [
    "speculative-resolve-time",
    "commit-time",
    "restore-on-squash",
    "shadow-pht",
    "obfuscate-on-squash",
]

PER_POLICY = [
    ["speculative-update"],
    ["sidechannel-v1", "--mode", "one-level"],
    ["sidechannel-v1", "--mode", "history"],
    ["sidechannel-v2", "--mode", "one-level"],
    ["sidechannel-v2", "--mode", "history"],
    ["covert", "--bits", "96", "--mode", "one-level"],
    ["covert", "--bits", "96", "--mode", "history"],
]

ONCE = [
    ["defense-eval"],
    ["probe-mode"],
    ["probe-mode", "--actual", "history"],
    ["probe-ghr"],
    ["scan", "--mode", "all"],
    ["scan", "--mode", "v1"],
    ["scan", "--mode", "v2"],
    ["scan", "--mode", "ss"],
    ["scan", "--registers", "RDI,RSI", "--window", "8"],
]

# with noise each timed probe draws from the seeded stream, so these pin the draws
NOISY = [
    ["covert", "--bits", "96", "--noise", "gaussian", "--sigma", "15", "--mode", "one-level"],
    ["covert", "--bits", "96", "--noise", "gaussian", "--sigma", "15", "--mode", "history"],
    ["covert", "--bits", "96", "--noise", "uniform", "--sigma", "20", "--mode", "history"],
    ["sidechannel-v1", "--random-bits", "40", "--noise", "uniform", "--sigma", "25",
     "--mode", "history"],
    ["sidechannel-v2", "--no-poison", "--random-bits", "40", "--noise", "gaussian",
     "--sigma", "10"],
]

CASES = [[f"--policy={p}", *args] for p in POLICIES for args in PER_POLICY] + ONCE + NOISY


def artifact_digest(out) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir(), key=lambda p: p.name):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


GOLDEN = {
    "--policy=speculative-resolve-time speculative-update":
        "b8df2a9b4a12c19c40e02cc0119d8f86fdfc50794a638ea0f841ffae8fdd78a0",
    "--policy=speculative-resolve-time sidechannel-v1 --mode one-level":
        "88959944e61022e0f012b1af7b86e43ca5d955c2770eceb12197e7cd15bacae4",
    "--policy=speculative-resolve-time sidechannel-v1 --mode history":
        "e48b07296d61a381f3044ace92c64b2b7f99ea36af0189dbfa7b42074a5cb467",
    "--policy=speculative-resolve-time sidechannel-v2 --mode one-level":
        "cb762ce8d5ab003a1e2b1ff007ead80b17673a74cf0f1511215131a5978ded02",
    "--policy=speculative-resolve-time sidechannel-v2 --mode history":
        "b4c9b26defb59fa8678fb1957716ebd128a028e3d8a8682d8b756604c72bc6e6",
    "--policy=speculative-resolve-time covert --bits 96 --mode one-level":
        "8c3c38b20a8c67c5614f2c88a50f702c05a1328c0c22eed1265126e409490e34",
    "--policy=speculative-resolve-time covert --bits 96 --mode history":
        "c340d7053a9bae049af21b990c820dad1282b111d52d83be5fb264ea1bb74447",
    "--policy=commit-time speculative-update":
        "b77f44c409bae478e0372185d079c4c9dfa3ac0504ec79ff57aa59a8da132bb6",
    "--policy=commit-time sidechannel-v1 --mode one-level":
        "e1baa7067fc856df44db144650ca3ef24efb6862b73fec09a3b5c7e10e201111",
    "--policy=commit-time sidechannel-v1 --mode history":
        "1eb0282e4abe9a0be03fdc98da61004c1c8203e8ed310e433aed1c8905acc36f",
    "--policy=commit-time sidechannel-v2 --mode one-level":
        "23b11884fa52e05e38308dfc90a4a7dc37eaf764e137da843769683ec6d414b9",
    "--policy=commit-time sidechannel-v2 --mode history":
        "4bcfdcd87e37d65d864933017e6b97423f81331fc14d47abd47343219e383655",
    "--policy=commit-time covert --bits 96 --mode one-level":
        "2b7f3f7ba8f4f7c1567920c026e67409e7174364bee562bd275401a4c9992362",
    "--policy=commit-time covert --bits 96 --mode history":
        "919a0a4bab5cebe9cac807227f4ca94910f33b782e90e707fc99d9a031449bba",
    "--policy=restore-on-squash speculative-update":
        "b2292d2154e9169c75fbbf3518617973469eb1a695f4597a59164c455719b5cc",
    "--policy=restore-on-squash sidechannel-v1 --mode one-level":
        "e1baa7067fc856df44db144650ca3ef24efb6862b73fec09a3b5c7e10e201111",
    "--policy=restore-on-squash sidechannel-v1 --mode history":
        "1eb0282e4abe9a0be03fdc98da61004c1c8203e8ed310e433aed1c8905acc36f",
    "--policy=restore-on-squash sidechannel-v2 --mode one-level":
        "23b11884fa52e05e38308dfc90a4a7dc37eaf764e137da843769683ec6d414b9",
    "--policy=restore-on-squash sidechannel-v2 --mode history":
        "4bcfdcd87e37d65d864933017e6b97423f81331fc14d47abd47343219e383655",
    "--policy=restore-on-squash covert --bits 96 --mode one-level":
        "2b7f3f7ba8f4f7c1567920c026e67409e7174364bee562bd275401a4c9992362",
    "--policy=restore-on-squash covert --bits 96 --mode history":
        "919a0a4bab5cebe9cac807227f4ca94910f33b782e90e707fc99d9a031449bba",
    "--policy=shadow-pht speculative-update":
        "b00e434515bf43125743ee4e527148c0777c537f854986bc9bdad04f9e8abb1f",
    "--policy=shadow-pht sidechannel-v1 --mode one-level":
        "e1baa7067fc856df44db144650ca3ef24efb6862b73fec09a3b5c7e10e201111",
    "--policy=shadow-pht sidechannel-v1 --mode history":
        "1eb0282e4abe9a0be03fdc98da61004c1c8203e8ed310e433aed1c8905acc36f",
    "--policy=shadow-pht sidechannel-v2 --mode one-level":
        "23b11884fa52e05e38308dfc90a4a7dc37eaf764e137da843769683ec6d414b9",
    "--policy=shadow-pht sidechannel-v2 --mode history":
        "4bcfdcd87e37d65d864933017e6b97423f81331fc14d47abd47343219e383655",
    "--policy=shadow-pht covert --bits 96 --mode one-level":
        "2b7f3f7ba8f4f7c1567920c026e67409e7174364bee562bd275401a4c9992362",
    "--policy=shadow-pht covert --bits 96 --mode history":
        "919a0a4bab5cebe9cac807227f4ca94910f33b782e90e707fc99d9a031449bba",
    "--policy=obfuscate-on-squash speculative-update":
        "2a1776df8ebf3b622719be85274929ead1a8fb850f2ba875b0a2dbadee8d9d06",
    "--policy=obfuscate-on-squash sidechannel-v1 --mode one-level":
        "ff84311bace97891a3eeeb83b1ad72ee572df6f41de35ece14d2859388c41605",
    "--policy=obfuscate-on-squash sidechannel-v1 --mode history":
        "a1c519e0c68368c3d40f2b4426904a01d320ee24aea4dfad85f923f48ceb1876",
    "--policy=obfuscate-on-squash sidechannel-v2 --mode one-level":
        "2858a1b90d2ab4c47d8ff87ae9bdcf53221a08e824c7af28b0c7fbdfa96f8b69",
    "--policy=obfuscate-on-squash sidechannel-v2 --mode history":
        "4bcfdcd87e37d65d864933017e6b97423f81331fc14d47abd47343219e383655",
    "--policy=obfuscate-on-squash covert --bits 96 --mode one-level":
        "c1bb4a8ee71783a58e729490da37175ceb8a57ca5a60d203496cc24931b8c011",
    "--policy=obfuscate-on-squash covert --bits 96 --mode history":
        "010fd8abb3e74b7c08af4a3cc6b0ab278efec9897e1f2f67dcfe0e8b52fb7c45",
    "defense-eval":
        "9f63d51a9d427dc3a049cfe72e2cebe8923a4af95737aab348d2477a1a0bbc2d",
    "probe-mode":
        "5c944282cecef55b4d347ad6e175adf9c91f85afb5e4f6fa770dbc647e370622",
    "probe-mode --actual history":
        "bb6cc1ef83cd8ef88d52d8f165adc7282ad0e7b659f80eb6b277aa662093868b",
    "probe-ghr":
        "f9004c3b1cb2d8dddc3ad0a8aad039b9ee81eaf064bdf6a4e179efefe5994abb",
    "scan --mode all":
        "2fa100f52d68971022386a091f4e3432c6f6f65a95caf51a3aa86408b515f593",
    "scan --mode v1":
        "9c19221c18ba4b3c0144d899577668075062416442835b6ea50c7de094d3d032",
    "scan --mode v2":
        "1e6840cc999718f5ca5ae908e6376cb76caf94a9ece3430ffb50c92b18545f98",
    "scan --mode ss":
        "422a631ea615b0a92f090cc0672b13f1acff56a0e9e75b3a509c6cfdb8cc751b",
    "scan --registers RDI,RSI --window 8":
        "22d24b94e816404c559e3d02ca4804b3554977ae1428a75fbb866c4b3df711ad",
    "covert --bits 96 --noise gaussian --sigma 15 --mode one-level":
        "7b1d15d89c6d93e7a92260bb31411b70808b1bd731706d9b9b360270491fc91d",
    "covert --bits 96 --noise gaussian --sigma 15 --mode history":
        "4678e782fc8d80d4b942e67d6c71a6b83d0f5d991e4b34a95d0a20788d99be4e",
    "covert --bits 96 --noise uniform --sigma 20 --mode history":
        "7bf28cc4a8dc2f50c8a2d94b496726d7516a716bee4d7a6843776e4abed18b6b",
    "sidechannel-v1 --random-bits 40 --noise uniform --sigma 25 --mode history":
        "86e97235d4af5c94b19c7105af0d42566234ab356315b26e575b40f1e3cdd751",
    "sidechannel-v2 --no-poison --random-bits 40 --noise gaussian --sigma 10":
        "dd36115b97ae63839c06ee4aee72c90e53ce9c076ddaab89e1d95ff21f9da0e1",
}


def test_policy_registry_holds_each_policy_class_once():
    # a policy class missing from engine.POLICIES has no --policy string, so
    # no CLI case above would run it
    classes, todo = set(), [engine.ResolveTime]
    while todo:
        cls = todo.pop()
        classes.add(cls)
        todo.extend(cls.__subclasses__())
    assert len(set(engine.POLICIES)) == len(engine.POLICIES)
    assert set(engine.POLICIES) == classes
    assert [p.name for p in engine.POLICIES] == POLICIES
    assert list(cli.POLICY_CHOICES) == POLICIES


@pytest.mark.parametrize("args", CASES, ids=" ".join)
def test_cli_artifacts_match_golden(tmp_path, args):
    result = invoke(["--seed", "3", "--out", str(tmp_path), *args])
    assert result.exit_code == 0, result.output
    assert artifact_digest(tmp_path) == GOLDEN[" ".join(args)]


# ---------------------------------------------------------------------------
# library-only paths: options the CLI never passes

MESSAGE = "".join(random.Random(5).choices("01", k=80))
SECRET = random.Random(6).choices((0, 1), k=30)


def _noise(kind, sigma, seed):
    return LatencyModel(noise=kind, noise_param=sigma, seed=seed)


LIBRARY_CASES = {
    "covert one-level reset_interval=16": lambda: attacks.covert_send_receive(
        MESSAGE, Mode.ONE_LEVEL, latency_model=_noise(NoiseKind.GAUSSIAN, 15, 4),
        seed=2, reset_interval=16),
    # a corrupted entry loses the collision: the probes miss the transmitter's
    # history entry and decode a constant, so entries 3 and 5 match
    "v1 history corrupt_preamble_entry=3": lambda: attacks.side_channel_v1(
        SECRET, Mode.HISTORY, latency_model=_noise(NoiseKind.UNIFORM, 25, 7),
        seed=1, corrupt_preamble_entry=3),
    "v1 history corrupt_preamble_entry=5": lambda: attacks.side_channel_v1(
        SECRET, Mode.HISTORY, latency_model=_noise(NoiseKind.UNIFORM, 25, 7),
        seed=1, corrupt_preamble_entry=5),
}


def library_digest(call) -> str:
    """sha256 over the recovered bits and the trace, or over the error."""
    try:
        r = call()
    except attacks.AttackError as exc:
        text = f"AttackError: {exc}"
    else:
        bits = r.decoded if isinstance(r, attacks.CovertResult) else r.recovered
        text = f"{bits!r}\n{r.trace.samples!r}"
    return hashlib.sha256(text.encode()).hexdigest()


LIBRARY_GOLDEN = {
    "covert one-level reset_interval=16":
        "a084298bc74354d875122d09b7e036ce853865a95c53c59bc53ef184d388605a",
    "v1 history corrupt_preamble_entry=3":
        "937439b67c5e412a33953c9c3a30fc671790f12288bf8f586c1c08747acd1dfd",
    "v1 history corrupt_preamble_entry=5":
        "937439b67c5e412a33953c9c3a30fc671790f12288bf8f586c1c08747acd1dfd",
}


@pytest.mark.parametrize("name", LIBRARY_CASES)
def test_library_paths_match_golden(name):
    assert library_digest(LIBRARY_CASES[name]) == LIBRARY_GOLDEN[name]
