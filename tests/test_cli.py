from __future__ import annotations

import argparse
import csv
import gc
import importlib.resources
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from conftest import invoke

from bpusim import attacks, config, engine as eng, predictor
from bpusim.attacks import AttackError, ProbeError, TransmissionError
from bpusim.cli import MAX_BITS, MAX_ITERATIONS, MAX_PROBE_N, cmd_scan
from bpusim.config import ConfigFileError, parse_config
from bpusim.engine import SimulationError
from bpusim.predictor import PredictorConfig
from bpusim.program import ProgramError


def _run(args):
    result = invoke(args)
    assert result.exit_code == 0, result.output
    return result


# ---------------------------------------------------------------------------
# config files

def test_parse_config_defaults_and_overrides():
    assert parse_config("") == PredictorConfig()
    cfg = parse_config("ghr_depth = 8\nindex_salt = 0x1f\n# comment\n")
    assert cfg.ghr_depth == 8 and cfg.index_salt == 0x1F


def test_parse_config_monitored_branches():
    cfg = parse_config("monitored_branches = 0x4000, 0x4040\n")
    assert cfg.monitored_branches == frozenset({0x4000, 0x4040})


@pytest.mark.parametrize("text", [
    "bogus_key = 1\n",
    "ghr_depth\n",
    "ghr_depth = x\n",
    "pht_entries_one_level = 1000\n",  # not a power of two
    "ghr_depth = 0\n",
    "target_bits_per_entry = 0\n",
    "pht_entries_history = 1\n",
    "pht_entries_one_level = 1\n",
])
def test_parse_config_errors(text):
    with pytest.raises(ConfigFileError):
        parse_config(text)


def test_parse_config_rejects_a_repeated_key():
    with pytest.raises(ConfigFileError, match="^line 2: repeated key 'ghr_depth'$"):
        parse_config("ghr_depth = 8\nghr_depth = 12\n")


@pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_config_lines_end_only_at_newline_and_carriage_return(brk):
    """`str.splitlines` breaks inside a comment leave it one line, and
    lines ending in `\n`, `\r\n` or `\r` are numbered as a listing's."""
    assert parse_config(f"ghr_depth = 12  # depth{brk}note\none_level_bits = 3\n") == \
        PredictorConfig(ghr_depth=12, one_level_bits=3)
    with pytest.raises(ConfigFileError, match="^line 4: repeated key 'ghr_depth'$"):
        parse_config(f"# a{brk}b\rghr_depth = 8\r\n\nghr_depth = 12\n")


def _documented_bounds() -> dict[str, tuple[int, int | None, bool]]:
    """The size bounds `config`'s docstring lists, as field -> (least value,
    largest value or None, whether it must be a power of two)."""
    bounds = {}
    for line in config.__doc__.splitlines():
        m = re.fullmatch(r"- (.+): (a power of two, )?(?:(\d+) to (\d+)|at least (\d+))[;.]", line)
        if m:
            names, pow2, least, most, floor = m.groups()
            for name in re.findall(r"`(\w+)`", names):
                bounds[name] = (int(least or floor), most and int(most), bool(pow2))
    return bounds


def _refused(field: str, value: int) -> str | None:
    try:
        PredictorConfig(**{field: value})
    except ValueError as exc:
        return str(exc)
    return None


def test_documented_config_bounds_match_the_code():
    """Each bound in the config file format's docstring is the one
    `PredictorConfig` enforces: `_SIZE_BOUNDS`, the power-of-two rule (3 is
    inside every bound, and a power of two nowhere) and the threshold's
    floor. A bound changed without its doc fails here."""
    documented = _documented_bounds()
    code = {name: (least, most, _refused(name, 3) == f"{name} must be a power of two")
            for name, least, most in predictor._SIZE_BOUNDS}
    code["transition_threshold"] = (1, None, False)
    assert documented == code
    for name, (least, most, _) in documented.items():
        assert _refused(name, least) is None and _refused(name, least - 1) is not None
        if most is not None:
            assert _refused(name, most) is None and _refused(name, most + 1) is not None


@pytest.mark.parametrize("tok, value", [
    ("-8", -8), ("0x10", 0x10), ("0X1F", 0x1F), ("42", 42),
    ("1_2", None), ("0x_1f", None), ("+7", None), ("--5", None), ("- 5", None),
])
def test_parse_config_numbers_are_decimal_or_hex(tok, value):
    texts = (f"# salt\nindex_salt = {tok}\n",
             f"# branches\nmonitored_branches = 0x40, {tok}\n")
    if value is None:
        for text in texts:
            with pytest.raises(ConfigFileError) as err:
                parse_config(text)
            assert str(err.value) == f"line 2: bad number '{tok}'"
    else:
        assert parse_config(texts[0]).index_salt == value
        assert parse_config(texts[1]).monitored_branches == {0x40, value}


# ---------------------------------------------------------------------------
# subcommands

def test_speculative_update_verdicts(tmp_path):
    out = tmp_path / "a"
    r = _run(["--out", str(out), "speculative-update"])
    assert "persisted" in r.output
    doc = json.loads((out / "speculative_update.json").read_text())
    assert doc["verdict"] == "persisted"
    assert (out / "speculative_update_trace.txt").read_text().splitlines()

    r = _run(["--out", str(out), "--policy", "commit-time", "speculative-update"])
    doc = json.loads((out / "speculative_update.json").read_text())
    assert doc["verdict"] == "not persisted"


@pytest.mark.parametrize("entries, shared", [(2, 0), (128, 64)])
@pytest.mark.parametrize("policy", ["commit-time", "shadow-pht"])
def test_speculative_update_refuses_a_shared_outer_entry(tmp_path, policy, entries, shared):
    """Both policies drop the squashed child's step; an entry shared with the
    outer branch would still move, and read as persisted."""
    cfg = tmp_path / "cfg"
    cfg.write_text(f"pht_entries_one_level = {entries}\n")
    result = _fail(["--config", str(cfg), "--out", str(tmp_path), "--policy", policy,
                    "speculative-update"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        f"Error: the outer branch (0x100) and the child (0x300) share one-level PHT entry "
        f"{shared}, so its move cannot tell their steps apart"]
    assert not list(tmp_path.glob("speculative_update*"))


def test_trace_artifact_format(tmp_path):
    _run(["--out", str(tmp_path), "speculative-update"])
    lines = (tmp_path / "speculative_update_trace.txt").read_text().splitlines()
    for line in lines:
        tick, event, seq = line.split()[:3]
        assert tick.isdigit() and seq.isdigit()
        assert event in {"fetch", "resolve", "commit", "squash", "stall"}


def test_probe_mode_both_setups(tmp_path):
    for actual in ("one-level", "history"):
        _run(["--out", str(tmp_path), "probe-mode", "--actual", actual])
        doc = json.loads((tmp_path / "probe_mode.json").read_text())
        assert doc["detected"] == actual


def test_probe_ghr_uses_config_file(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("ghr_depth = 8\n")
    _run(["--config", str(cfg), "--out", str(tmp_path), "probe-ghr", "--max-n", "16"])
    doc = json.loads((tmp_path / "probe_ghr.json").read_text())
    assert doc == {"configured_depth": 8, "measured_depth": 8}


@pytest.mark.parametrize("seed", ["0", "3"])
def test_probe_ghr_default_config_measures_12(tmp_path, seed):
    _run(["--seed", seed, "--out", str(tmp_path), "probe-ghr"])
    doc = json.loads((tmp_path / "probe_ghr.json").read_text())
    assert doc == {"configured_depth": 12, "measured_depth": 12}


def test_covert_command(tmp_path):
    _run(["--out", str(tmp_path), "covert", "--bits", "32", "--mode", "history"])
    doc = json.loads((tmp_path / "covert.json").read_text())
    assert doc["errors"] == 0 and doc["bits"] == 32
    trace = (tmp_path / "covert_trace.csv").read_text().splitlines()
    assert trace[0] == "probe_index,latency"
    assert len(trace) == 33


def test_sidechannel_commands(tmp_path):
    _run(["--out", str(tmp_path), "sidechannel-v1"])
    doc = json.loads((tmp_path / "sidechannel_v1.json").read_text())
    assert doc["accuracy"] == 1.0
    assert doc["recovered"] == [1, 1, 0, 1, 1, 1, 0, 0, 0, 1]

    _run(["--out", str(tmp_path), "sidechannel-v2", "--mode", "history"])
    doc = json.loads((tmp_path / "sidechannel_v2.json").read_text())
    assert doc["accuracy"] == 1.0


def test_defense_eval_command(tmp_path):
    _run(["--out", str(tmp_path), "defense-eval"])
    doc = json.loads((tmp_path / "defense_eval.json").read_text())
    assert doc["speculative-resolve-time"] < doc["commit-time"]


def test_scan_command_bundled_corpus(tmp_path):
    r = _run(["--out", str(tmp_path), "scan"])
    assert "corpus_v2.disasm: v2=5 ss=2 v1=0" in r.output
    reports = json.loads((tmp_path / "report.json").read_text())
    by_name = {rep["binary_name"]: rep for rep in reports}
    assert by_name["corpus_v2.disasm"]["v2_count"] == 5
    assert by_name["corpus_v1.disasm"]["v1_count"] == 2
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0].startswith("binary,addr,classification")


def test_scan_command_explicit_file_and_flags(tmp_path):
    src = tmp_path / "x.disasm"
    src.write_text("401000: test r8b, 0x4\n401004: jne 0x401020\n")
    _run(["--out", str(tmp_path), "scan", str(src), "--registers", "R8",
          "--mode", "v2"])
    reports = json.loads((tmp_path / "report.json").read_text())
    assert reports[0]["v2_count"] == 1


def test_scan_csv_quotes_a_binary_name_with_a_comma(tmp_path):
    corpus = importlib.resources.files("bpusim") / "data" / "corpus" / "corpus_v2.disasm"
    src = tmp_path / 'a,b "v2".disasm'
    src.write_text(corpus.read_text())
    _run(["--out", str(tmp_path), "scan", str(src)])
    text = (tmp_path / "report.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 6 and {len(r) for r in rows} == {6}
    assert [r[0] for r in rows[1:]] == [src.name] * 5
    assert text.splitlines()[1].startswith('"a,b ""v2"".disasm",0x')


def test_scan_restores_the_collector_state(tmp_path):
    bad = tmp_path / "bad.disasm"
    bad.write_text("401000: nop\nbogus\n")
    assert gc.isenabled()
    _run(["--out", str(tmp_path), "scan"])
    assert gc.isenabled()
    _fail(["--out", str(tmp_path), "scan", str(bad)])  # a non-zero exit
    assert gc.isenabled()
    gc.disable()
    try:
        _run(["--out", str(tmp_path), "scan"])
        assert not gc.isenabled()
    finally:
        gc.enable()


def _tiled_corpus(tiles: int) -> str:
    """`tiles` copies of each bundled corpus listing, each copy at its own
    addresses."""
    corpus = importlib.resources.files("bpusim") / "data" / "corpus"
    lines = []
    for tile in range(tiles):
        for k, name in enumerate(("corpus_v1.disasm", "corpus_v2.disasm")):
            for raw in (corpus / name).read_text().splitlines():
                head, colon, body = raw.split("#", 1)[0].partition(":")
                if colon:
                    lines.append(f"{int(head, 16) + (2 * tile + k) * 0x1000000:x}:{body}")
    return "\n".join(lines) + "\n"


def test_scan_runs_no_collection_and_leaves_no_cyclic_garbage_per_record(tmp_path):
    # the collector pauses for the scan; that is safe only if the records
    # it parses make no cyclic garbage, which would then pile up unseen
    scan_code = cmd_scan.__code__
    starts = []

    def on_gc(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not scan_code:
            frame = frame.f_back
        if phase == "start" and frame is not None:  # inside `scan`
            starts.append(info["generation"])

    garbage = {}
    for tiles in (1, 20):
        src = tmp_path / f"tiled{tiles}.disasm"
        src.write_text(_tiled_corpus(tiles))
        args = ["--out", str(tmp_path), "scan", str(src)]
        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            assert f"v2={5 * tiles} " in _run(args).output
        finally:
            gc.callbacks.remove(on_gc)
        assert starts == []
        # with the collector off around the command, no collection after
        # `scan` restores it takes a share of the garbage before it is counted
        gc.collect()
        gc.disable()
        try:
            _run(args)
            garbage[tiles] = gc.collect()
        finally:
            gc.enable()
    assert garbage[1] == garbage[20]


def test_seed_changes_random_message(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    _run(["--seed", "1", "--out", str(a), "covert", "--bits", "16"])
    _run(["--seed", "2", "--out", str(b), "covert", "--bits", "16"])
    ma = json.loads((a / "covert.json").read_text())["message"]
    mb = json.loads((b / "covert.json").read_text())["message"]
    assert ma != mb


# both commands in one interpreter, which takes the output directory
_TWO_COMMANDS = """
import sys
from bpusim.cli import main
for args in (["covert", "--mode", "history", "--bits", "64"],
             ["sidechannel-v1", "--mode", "one-level", "--random-bits", "64"]):
    main(["--seed", "3", "--out", sys.argv[1], *args], standalone_mode=False)
"""


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    # str and enum hashes change with PYTHONHASHSEED, and the victim-run
    # memo keys on env names and enum members: no artifact byte may follow
    src = pathlib.Path(attacks.__file__).resolve().parents[1]
    written = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", _TWO_COMMANDS, str(out)], env=env,
                              capture_output=True, text=True, check=True)
        written.append((proc.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert written[0] == written[1]
    assert list(written[0][1]) == ["covert.json", "covert_trace.csv", "sidechannel_v1.json",
                                   "sidechannel_v1_trace.csv"]


# ---------------------------------------------------------------------------
# errors at the boundary: one line on stderr, non-zero exit, no traceback

def _fail(args):
    result = invoke(args)  # an exception main does not report propagates
    assert result.exit_code != 0
    assert "Traceback" not in result.output
    return result


@pytest.mark.parametrize("args", [
    ["sidechannel-v1", "--secret", "1202"],
    ["sidechannel-v2", "--secret", "10a1"],
    ["covert", "--message", "1x0z"],
])
def test_bit_string_options_reject_non_binary(tmp_path, args):
    result = _fail(["--out", str(tmp_path), *args])
    assert result.exit_code == 2
    assert "is not a string of 0s and 1s" in result.output


@pytest.mark.parametrize("args", [
    ["sidechannel-v1", "--secret="],
    ["sidechannel-v2", "--secret="],
    ["covert", "--message="],
])
def test_bit_string_options_reject_empty(tmp_path, args):
    result = _fail(["--out", str(tmp_path), *args])
    assert result.exit_code == 2
    assert "must hold at least one bit" in result.output


@pytest.mark.parametrize("args, option, value", [
    (["covert", "--bits", "-4"], "--bits", "-4"),
    (["covert", "--bits", "0"], "--bits", "0"),
    (["covert", "--bits", str(MAX_BITS + 1)], "--bits", str(MAX_BITS + 1)),
    (["sidechannel-v1", "--random-bits", "-3"], "--random-bits", "-3"),
    (["sidechannel-v1", "--random-bits", str(MAX_BITS + 1)], "--random-bits",
     str(MAX_BITS + 1)),
    (["sidechannel-v2", "--random-bits", "-1"], "--random-bits", "-1"),
    (["sidechannel-v2", "--random-bits", str(MAX_BITS + 1)], "--random-bits",
     str(MAX_BITS + 1)),
    (["defense-eval", "--iterations", "-2"], "--iterations", "-2"),
    (["defense-eval", "--iterations", str(MAX_ITERATIONS + 1)], "--iterations",
     str(MAX_ITERATIONS + 1)),
    (["scan", "--window", "-5"], "--window", "-5"),
    (["scan", "--window", "0"], "--window", "0"),
    (["probe-ghr", "--max-n", "0"], "--max-n", "0"),
    (["probe-ghr", "--max-n", "-3"], "--max-n", "-3"),
    (["probe-ghr", "--max-n", str(MAX_PROBE_N + 1)], "--max-n", str(MAX_PROBE_N + 1)),
    (["probe-ghr", "--max-n", "30000000"], "--max-n", "30000000"),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_sizes_out_of_range_are_rejected(tmp_path, args, option, value):
    result = _fail(["--out", str(tmp_path), *args])
    assert result.exit_code == 2
    assert f"Invalid value for '{option}': {value} is not in the range" in result.output
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["covert", "sidechannel-v1", "sidechannel-v2"])
@pytest.mark.parametrize("noise", ["uniform", "gaussian"])
@pytest.mark.parametrize("sigma", ["-5", "nan", "inf"])
def test_sigma_must_be_finite_and_non_negative(tmp_path, command, noise, sigma):
    result = _fail(["--out", str(tmp_path), command, "--noise", noise, "--sigma", sigma])
    assert result.exit_code == 2
    assert "Invalid value for '--sigma'" in result.output
    assert "is not a finite number >= 0" in result.output
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, size", [("covert", "--bits"),
                                           ("sidechannel-v1", "--random-bits"),
                                           ("sidechannel-v2", "--random-bits")])
def test_uniform_sigma_must_be_a_whole_number(tmp_path, command, size):
    # either option order: the check needs both --noise and --sigma
    for args in (["--noise", "uniform", "--sigma", "0.9"],
                 ["--sigma", "0.9", "--noise", "uniform"]):
        result = _fail(["--out", str(tmp_path), command, *args])
        assert result.exit_code == 2
        assert ("Invalid value for '--sigma': uniform noise takes a whole number "
                "of latency units, got 0.9") in result.output
        assert not tmp_path.exists() or not any(tmp_path.iterdir())
    for args in (["--noise", "gaussian", "--sigma", "0.9"],
                 ["--noise", "uniform", "--sigma", "2.0"]):
        _run(["--out", str(tmp_path), command, size, "4", *args])


@pytest.mark.parametrize("command, size", [("covert", "--bits"),
                                           ("sidechannel-v1", "--random-bits"),
                                           ("sidechannel-v2", "--random-bits")])
def test_sigma_is_refused_without_noise(tmp_path, command, size):
    # --noise none is the default, so a bare --sigma is refused too
    for args in (["--noise", "none", "--sigma", "7.5"], ["--sigma", "7.5"]):
        result = _fail(["--out", str(tmp_path), command, *args])
        assert result.exit_code == 2
        assert "Invalid value for '--sigma': no noise takes no sigma, got 7.5" in result.output
        assert not tmp_path.exists() or not any(tmp_path.iterdir())
    _run(["--out", str(tmp_path), command, size, "4", "--noise", "none", "--sigma", "0"])


@pytest.mark.parametrize("registers, message", [
    ("FOO", "FOO: not a 64-bit general-purpose register"),
    ("edi", "EDI: not a 64-bit general-purpose register"),
    ("RDI,r8d", "R8D: not a 64-bit general-purpose register"),
    ("", "name at least one register"),
    (" , ", "name at least one register"),
])
def test_scan_rejects_unknown_registers(tmp_path, registers, message):
    result = _fail(["--out", str(tmp_path), "scan", "--registers", registers])
    assert result.exit_code == 2
    assert f"Invalid value for '--registers': {message}" in result.output


def test_scan_accepts_canonical_registers_in_any_case(tmp_path):
    r = _run(["--out", str(tmp_path), "scan", "--registers", "rdi,Rsi", "--window", "8"])
    assert r.output == _run(["--out", str(tmp_path), "scan", "--registers", "RDI,RSI",
                             "--window", "8"]).output


def _usage_error(args) -> str:
    """The one line, `Error: ...`, of a command line refused with exit status 2."""
    result = _fail(args)
    assert result.exit_code == 2
    [error] = result.output.splitlines()
    assert error.startswith("Error: ")
    return error


@pytest.mark.parametrize("args, names", [
    (["--config", "{missing}", "probe-mode"], ("'--config'", "{missing}", "does not exist")),
    (["--config", "{dir}", "probe-mode"], ("'--config'", "{dir}", "is a directory")),
    (["--out", "{file}", "probe-mode"], ("'--out'", "{file}", "is a file")),
    (["--out", "{out}", "scan", "{missing}"], ("FILES", "{missing}", "does not exist")),
    (["--out", "{out}", "scan", "{dir}"], ("FILES", "{dir}", "is a directory")),
    (["--out", "{out}", "bogus"], ("'bogus'",)),
    (["--out", "{out}", "--bogus", "probe-mode"], ("'--bogus'",)),
    (["--out", "{out}", "probe-mode", "--bogus"], ("'--bogus'",)),
    (["--out", "{out}", "--se", "3", "covert"], ("'--se'",)),
    (["--out", "{out}", "sidechannel-v1", "--se", "3"], ("'--se'",)),
    (["--out", "{out}", "covert", "--mode", "bogus"], ("'--mode'", "'bogus'")),
    (["--out", "{out}", "covert", "extra"], ("(extra)",)),
    (["--out", "{out}", "covert", "--", "extra"], ("(extra)",)),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_usage_errors_name_the_option(tmp_path, args, names):
    paths = {"missing": tmp_path / "missing.disasm", "dir": tmp_path / "adir",
             "file": tmp_path / "afile", "out": tmp_path / "out"}
    paths["dir"].mkdir()
    paths["file"].write_text("")
    error = _usage_error([a.format_map(paths) for a in args])
    for name in names:
        assert name.format_map(paths) in error
    assert not paths["out"].exists()


def test_scan_takes_files_on_either_side_of_an_option(tmp_path):
    corpus = importlib.resources.files("bpusim") / "data" / "corpus"
    a, b = tmp_path / "a.disasm", tmp_path / "b.disasm"
    a.write_text((corpus / "corpus_v1.disasm").read_text())
    b.write_text((corpus / "corpus_v2.disasm").read_text())
    mixed, grouped = tmp_path / "mixed", tmp_path / "grouped"
    r = _run(["--out", str(mixed), "scan", str(a), "--window", "8", str(b)])
    assert [line.split(":")[0] for line in r.output.splitlines()] == ["a.disasm", "b.disasm"]
    assert _run(["--out", str(grouped), "scan", "--window", "8", str(a), str(b)]).output \
        == r.output
    for name in ("report.json", "report.csv"):
        assert (mixed / name).read_bytes() == (grouped / name).read_bytes()
    assert [rep["binary_name"] for rep in json.loads((mixed / "report.json").read_text())] \
        == ["a.disasm", "b.disasm"]


def test_zero_sizes_stay_valid(tmp_path):
    r = _run(["--out", str(tmp_path), "sidechannel-v1", "--random-bits", "0"])
    assert "trials=10 accuracy=1.000" in r.output
    _run(["--out", str(tmp_path), "defense-eval", "--iterations", "0"])


def test_probe_ghr_max_n_too_small_is_clean_error(tmp_path):
    result = _fail(["--out", str(tmp_path), "probe-ghr", "--max-n", "4"])
    assert result.output.strip().splitlines()[-1] == \
        "Error: no PHT collision observed up to N=4"


def test_bad_config_value_is_clean_error(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("target_bits_per_entry = 0\n")
    result = _fail(["--config", str(cfg), "--out", str(tmp_path), "probe-ghr"])
    assert "Error: target_bits_per_entry must be >= 1" in result.output


def test_config_past_a_size_bound_is_clean_error(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("one_level_bits = 10\n")
    result = _fail(["--config", str(cfg), "--out", str(tmp_path), "probe-mode"])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: one_level_bits must be <= 9"]
    assert not list(tmp_path.glob("*.json"))


def test_bad_disassembly_is_clean_error(tmp_path):
    src = tmp_path / "bad.disasm"
    src.write_text("401000: test r8b, 0x4\nbogus\n")
    result = _fail(["--out", str(tmp_path), "scan", str(src)])
    assert f"Error: {src}: line 2: unrecognized line 'bogus'" in result.output


def _scan_error(tmp_path, listing: bytes) -> str:
    """The one line `scan` prints for a listing it refuses."""
    src = tmp_path / "bad.disasm"
    src.write_bytes(listing)
    result = _fail(["--out", str(tmp_path), "scan", str(src)])
    assert result.exit_code == 1
    assert len(result.output.strip().splitlines()) == 1
    assert "Traceback" not in result.output
    return result.output.removeprefix(f"Error: {src}: ")


def test_disassembly_that_is_not_utf8_is_clean_error(tmp_path):
    error = _scan_error(tmp_path, b"401000: test r8b, 0x4\n401004: nop \xff\n")
    assert error.startswith("line 2: 'utf-8' codec can't decode byte 0xff")


def _nops(n: int) -> bytes:
    return b"".join(b"%x: nop\n" % (0x1000 + i) for i in range(n))


@pytest.mark.parametrize("listing, error", [
    # past the first 64 KiB of the file: 8,000 lines of 10 bytes come first
    (_nops(8000) + b"ffff: nop # \xc3\n",
     "line 8001: 'utf-8' codec can't decode byte 0xc3 in position 12: invalid continuation byte"),
    # the first faulty line is reported, although a later one does not decode
    (_nops(3) + b"bogus\n" + _nops(2) + b"\xff\n", "line 4: unrecognized line 'bogus'"),
], ids=["past-64-kib", "parse-fault-first"])
def test_undecodable_listing_reports_its_first_faulty_line(tmp_path, listing, error):
    assert _scan_error(tmp_path, listing) == error + "\n"


def test_scan_never_reads_a_listing_whole(tmp_path, monkeypatch):
    src = tmp_path / "big.disasm"
    src.write_bytes(_nops(8000))
    assert src.stat().st_size > 64 * 1024

    def whole_file(*args, **kwargs):
        raise AssertionError("a whole file was read")

    monkeypatch.setattr(pathlib.Path, "read_text", whole_file)
    monkeypatch.setattr(pathlib.Path, "read_bytes", whole_file)
    result = _run(["--out", str(tmp_path / "out"), "scan", str(src)])
    assert result.output == "big.disasm: v2=0 ss=0 v1=0\n"


def test_config_that_is_not_utf8_is_clean_error(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_bytes(b"ghr_depth = 8\n\n# - \xff\n")
    result = _fail(["--config", str(cfg), "--out", str(tmp_path), "probe-ghr"])
    assert result.exit_code == 1
    assert result.output == (f"Error: {cfg}: line 3: 'utf-8' codec can't decode byte 0xff "
                             "in position 4: invalid start byte\n")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("exc", [
    ProbeError("probe failed"),
    AttackError("attack failed"),
    TransmissionError("transmission failed", 3),
    ConfigFileError("config failed"),
    ProgramError("program failed"),
    SimulationError("simulation failed"),
], ids=lambda e: type(e).__name__)
def test_domain_errors_become_click_errors(tmp_path, monkeypatch, exc):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(attacks, "defense_eval", boom)
    result = _fail(["--out", str(tmp_path), "defense-eval"])
    assert result.exit_code == 1
    assert result.output.strip() == f"Error: {exc}"


def test_an_artifact_that_cannot_be_written_is_clean_error(tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub"
    result = _fail(["--out", str(out), "probe-mode"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: {out}: Not a directory"]
    out = tmp_path / "out"
    (out / "probe_mode.json").mkdir(parents=True)
    result = _fail(["--out", str(out), "probe-mode"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: {out / 'probe_mode.json'}: Is a directory"]


def test_a_command_makes_its_output_directory_once(tmp_path, monkeypatch):
    made = []
    mkdir = pathlib.Path.mkdir
    monkeypatch.setattr(pathlib.Path, "mkdir",
                        lambda self, *args, **kwargs: made.append(self) or mkdir(self, *args,
                                                                                 **kwargs))
    out = tmp_path / "out"
    _run(["--out", str(out), "covert", "--bits", "8"])
    assert made == [out]
    assert sorted(p.name for p in out.iterdir()) == ["covert.json", "covert_trace.csv"]


def test_importing_the_cli_loads_no_unused_heavy_module():
    """`import bpusim.cli` loads neither click nor `dataclasses`, `inspect`
    or `importlib.resources`, each of which costs start-up time and serves no
    command. `-S` keeps site-packages' `.pth` hooks, which may load some of
    them, out of the count. This counts modules and times nothing."""
    heavy = ("click", "dataclasses", "inspect", "importlib.resources")
    code = ("import sys, bpusim.cli\n"
            f"print(sorted(n for n in sys.modules for h in {heavy!r} "
            "if n == h or n.startswith(h + '.')))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(attacks.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_main_parses_with_the_parser_built_at_import(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(self) or init(self, *args,
                                                                                **kwargs))
    _run(["--out", str(tmp_path), "probe-mode"])
    _fail(["--out", str(tmp_path), "covert", "--bits", "0"])
    assert built == []


def test_speculative_update_trace_is_the_rendered_records(tmp_path, monkeypatch):
    rendered = []
    render = eng.render_events
    monkeypatch.setattr(eng, "render_events",
                        lambda records: rendered.append(render(records)) or rendered[-1])
    _run(["--out", str(tmp_path), "speculative-update"])
    lines = (tmp_path / "speculative_update_trace.txt").read_text().splitlines()
    assert len(rendered) == 1 and lines == rendered[0]
    assert {line.split()[1] for line in lines} == {"fetch", "resolve", "squash", "commit"}
