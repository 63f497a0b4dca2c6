"""Command-line front end: one subcommand per experiment.

All artifacts are deterministic functions of config + seed (JSON with sorted
keys, no timestamps), so reruns are byte-identical. The argument parser is
built once, at import; `main` only parses and dispatches.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import pathlib
import random
import sys

from . import attacks, scanner
from .config import ConfigFileError, load_config
from .engine import POLICIES, SimulationError
from .predictor import Mode, PredictorConfig, PredictorState
from .program import ProgramError
from .timing import LatencyModel, NoiseKind

POLICY_CHOICES = {p.name: p for p in POLICIES}
MODE_CHOICES = [m.value for m in Mode]
NOISE_CHOICES = [n.value for n in NoiseKind]
CANONICAL_REGISTERS = {canon for canon, _ in scanner.REGISTERS.values()}
# defense-eval runs the nested loop under each of the five policies and keeps
# every run's records, so its time and memory grow linearly with
# --iterations; the bound caps both
MAX_ITERATIONS = 100_000
# probe-ghr tries every preamble length up to --max-n; ghr_depth is at most
# 256, so 256 reaches every configurable depth
MAX_PROBE_N = 256
# covert --bits and --random-bits: one trial per bit, capping trials, trace rows and
# artifacts; at every size bound the slowest, one-level sidechannel-v2, takes about 1.2 s
MAX_BITS = 10_000


class UsageError(Exception):
    """A command line that the parser refuses: exit status 2."""


class CommandError(Exception):
    """A command that cannot finish: exit status 1."""


# domain errors reported as a one-line message and exit status 1
DOMAIN_ERRORS = (attacks.ProbeError, attacks.AttackError, attacks.TransmissionError,
                 ConfigFileError, ProgramError, SimulationError, CommandError)


class Context:
    def __init__(self, config, seed, out, policy):
        self.config = config
        self.seed = seed
        self.out = pathlib.Path(out)
        self.policy = policy
        self._out_made = False

    def write(self, name: str, text) -> pathlib.Path:
        """Write artifact `name` as UTF-8, a lone surrogate as its byte: `text`,
        or what the function `text` writes to the open file."""
        path = self.out / name
        try:
            if not self._out_made:
                self.out.mkdir(parents=True, exist_ok=True)
                self._out_made = True
            with path.open("w", encoding="utf-8", errors="surrogateescape") as file:
                text(file) if callable(text) else file.write(text)
        except OSError as exc:
            raise CommandError(f"{exc.filename or path}: {exc.strerror}") from exc
        return path

    def write_json(self, name: str, doc) -> pathlib.Path:
        return self.write(name, json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# option values: each converter raises ValueError, which `_option` reports
# as a usage error naming the option

def _integer(low=None, high=None):
    def convert(text):
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid integer.") from None
        if (low is not None and value < low) or (high is not None and value > high):
            bounds = f"x>={low}" if high is None else f"{low}<=x<={high}"
            raise ValueError(f"{value} is not in the range {bounds}.")
        return value
    return convert


def _choice(values):
    def convert(text):
        if text not in values:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, values))}.")
        return text
    return convert


def _sigma(text):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid float.") from None
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{value} is not a finite number >= 0")
    return value


def _bit_string(text):
    if text == "":
        raise ValueError("must hold at least one bit")
    if not set(text) <= {"0", "1"}:
        raise ValueError(f"{text!r} is not a string of 0s and 1s")
    return text


def _registers(text):
    names = tuple(r.strip().upper() for r in text.split(",") if r.strip())
    if not names:
        raise ValueError("name at least one register")
    bad = [r for r in names if r not in CANONICAL_REGISTERS]
    if bad:
        raise ValueError(f"{', '.join(bad)}: not a 64-bit general-purpose "
                         "register (RAX to R15)")
    return names


def _input_file(text):
    path = pathlib.Path(text)
    if not path.exists():
        raise ValueError(f"File {text!r} does not exist.")
    if path.is_dir():
        raise ValueError(f"File {text!r} is a directory.")
    return text


def _out_dir(text):
    if pathlib.Path(text).is_file():
        raise ValueError(f"Directory {text!r} is a file.")
    return text


def _checked(name, convert):
    def check(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise UsageError(f"Invalid value for '{name}': {exc}") from None
    return check


def _option(parser, flag, convert, **kwargs):
    return parser.add_argument(flag, type=_checked(flag, convert), **kwargs)


def _choice_option(parser, flag, values, **kwargs):
    return _option(parser, flag, _choice(values), metavar="{" + ",".join(values) + "}",
                   **kwargs)


def _model(noise: str, sigma: float, seed: int) -> LatencyModel:
    try:
        return LatencyModel(noise=NoiseKind(noise), noise_param=sigma, seed=seed)
    except ValueError as exc:  # --sigma that does not suit --noise
        raise UsageError(f"Invalid value for '--sigma': {exc}") from exc


# ---------------------------------------------------------------------------
# commands: each takes the Context and its own options, by name

def cmd_speculative_update(obj):
    """Check whether a squashed speculative branch leaves a PHT update."""
    doc = attacks.speculative_update_scenario(obj.policy, obj.config, obj.seed)
    events = doc.pop("events")
    obj.write("speculative_update_trace.txt", "\n".join(events) + "\n")
    obj.write_json("speculative_update.json", doc)
    print(f"policy={doc['policy']} entry {doc['entry_before']} -> "
          f"{doc['entry_after']}: {doc['verdict']}")


def cmd_probe_mode(obj, actual):
    """Infer the active prediction mode from misprediction patterns."""
    predictor = PredictorState(obj.config)
    if Mode(actual) is Mode.HISTORY:
        attacks.activate_history_mode(predictor)
    detected = attacks.probe_mode(predictor)
    obj.write_json("probe_mode.json", {"actual": actual, "detected": detected.value})
    print(f"actual={actual} detected={detected.value}")
    if detected is not Mode(actual):
        raise CommandError("probe disagrees with configured mode")


def cmd_probe_ghr(obj, max_n):
    """Measure the global history depth via PHT collisions."""
    predictor = PredictorState(obj.config)
    attacks.activate_history_mode(predictor)
    measured = attacks.probe_ghr_depth(predictor, max_n)
    obj.write_json("probe_ghr.json", {
        "configured_depth": obj.config.ghr_depth,
        "measured_depth": measured,
    })
    print(f"configured={obj.config.ghr_depth} measured={measured}")


def cmd_covert(obj, bits, message, mode, noise, sigma):
    """Transmit bits through speculative PHT updates and decode them."""
    if message is None:
        rng = random.Random(obj.seed)
        message = "".join(rng.choice("01") for _ in range(bits))
    result = attacks.covert_send_receive(
        message, Mode(mode), latency_model=_model(noise, sigma, obj.seed),
        config=obj.config, policy=obj.policy, seed=obj.seed)
    obj.write("covert_trace.csv", result.trace.to_csv())
    obj.write_json("covert.json", {
        "mode": mode, "bits": result.bits_sent, "errors": result.errors,
        "error_rate": result.errors / result.bits_sent if result.bits_sent else 0.0,
        "message": message, "decoded": result.decoded,
    })
    print(f"mode={mode} bits={result.bits_sent} errors={result.errors}")


def cmd_sidechannel(obj, variant, secret, random_bits, mode, noise, sigma, poison):
    """Recover a victim secret through side channel `variant`: v1, the
    conditional-trigger gadget, or v2, BTB poisoning (if `poison`) toward one."""
    rng = random.Random(obj.seed)
    bits = ([rng.randint(0, 1) for _ in range(random_bits)] if random_bits
            else [int(c) for c in secret])
    model = _model(noise, sigma, obj.seed)
    if variant == "v1":
        result = attacks.side_channel_v1(bits, Mode(mode), latency_model=model,
                                         config=obj.config, policy=obj.policy, seed=obj.seed)
    else:
        result = attacks.side_channel_v2(bits, Mode(mode), latency_model=model, config=obj.config,
                                         policy=obj.policy, seed=obj.seed, poison=poison)
    obj.write(f"sidechannel_{variant}_trace.csv", result.trace.to_csv())
    obj.write_json(f"sidechannel_{variant}.json", {
        "mode": mode, "ground_truth": result.ground_truth, "recovered": result.recovered,
        "accuracy": result.accuracy, "trials": result.trials})
    print(f"mode={mode} trials={result.trials} accuracy={result.accuracy:.3f}")


def cmd_defense_eval(obj, iterations):
    """Compare total mispredictions of the update policies on a nested loop."""
    counts = attacks.defense_eval(POLICIES, config=obj.config, iterations=iterations,
                                  seed=obj.seed)
    obj.write_json("defense_eval.json", counts)
    for name in sorted(counts):
        print(f"{name:25s} {counts[name]:4d} mispredictions")


def _bundled_corpus() -> list[pathlib.Path]:
    root = pathlib.Path(__file__).parent / "data" / "corpus"
    return sorted(p for p in root.iterdir() if p.name.endswith(".disasm"))


def _write_json(file, reports: list[scanner.GadgetReport]) -> None:
    """`reports` as `json.dumps(sort_keys=True, indent=2)` lays them out, in chunks."""
    file.write("[")
    for i, report in enumerate(reports):
        file.write(",\n  " if i else "\n  ")
        file.writelines(report.json_chunks(1))
    file.write("\n]\n" if reports else "]\n")


def _write_csv(file, reports: list[scanner.GadgetReport]) -> None:
    """Every report's sites as CSV rows, each led by its binary's name."""
    rows = csv.writer(file, lineterminator="\n")
    rows.writerow(["binary", *scanner.CSV_HEADER])
    for report in reports:
        rows.writerows([report.binary_name, *row] for row in report.csv_rows())


def _scan_file(path: pathlib.Path, registers, window: int, mode: str) -> scanner.GadgetReport:
    """The report of one listing, named by its file name's bytes read as UTF-8 as its
    lines are; its records are freed on return. The file is closed before the scans run."""
    try:
        with path.open(encoding="utf-8", errors="surrogateescape") as lines:
            records = scanner.parse_disasm(lines)
    except scanner.DisasmParseError as exc:
        raise CommandError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise CommandError(f"{path}: {exc.strerror}") from exc
    name = path.name.encode(sys.getfilesystemencoding(), sys.getfilesystemencodeerrors())
    return scanner.build_report(name.decode("utf-8", "surrogateescape"), records, registers,
                                window, mode)


def cmd_scan(obj, files, registers, window, mode):
    """Scan normalized disassembly for trigger/transmitter gadget patterns."""
    listing = _checked("[FILES]...", _input_file)
    paths = [pathlib.Path(listing(f)) for f in files] or _bundled_corpus()
    # A listing's records are long-lived tuples that hold no reference cycle:
    # reference counting frees them when _scan_file returns, so a cyclic
    # collection during the scan would only walk them again. Only the
    # command knows how long a listing lives, so it pauses the collector
    # here rather than in the library.
    enabled = gc.isenabled()
    gc.disable()
    try:
        reports = []
        for path in paths:
            report = _scan_file(path, registers, window, mode)
            reports.append(report)
            shown = report.binary_name.encode("utf-8", "surrogateescape")  # \xff for a byte 0xff
            # and \xe9 for an é that stdout's encoding cannot hold
            encoding = sys.stdout.encoding or "utf-8"
            shown = shown.decode("utf-8", "backslashreplace").encode(encoding, "backslashreplace")
            print(f"{shown.decode(encoding)}: v2={report.v2_count} "
                  f"ss={report.smotherspectre_count} v1={report.v1_count}")
        obj.write("report.json", lambda file: _write_json(file, reports))
        obj.write("report.csv", lambda file: _write_csv(file, reports))
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# the parser, built once at import

def _build_parser() -> tuple[argparse.ArgumentParser, set[str]]:
    """The parser of every command line, and the flags of its global options."""
    shared = {"allow_abbrev": False, "exit_on_error": False,
              "formatter_class": argparse.ArgumentDefaultsHelpFormatter}
    parser = argparse.ArgumentParser(
        prog="bpusim", description="Branch prediction unit simulator and attack "
        "experiment harness.", **shared)
    global_options = [
        _option(parser, "--config", _input_file, dest="config_path", metavar="FILE",
                help="Predictor config file (key = value lines)."),
        _option(parser, "--seed", _integer(), default=0, help="Seed for every stochastic choice."),
        _option(parser, "--out", _out_dir, default="out", help="Artifact output directory."),
        _choice_option(parser, "--policy", list(POLICY_CHOICES), default=POLICIES[0].name,
                       help="PHT update policy."),
    ]
    commands = parser.add_subparsers(title="commands", metavar="COMMAND")

    def command(name, run, doc, **bound):
        sub = commands.add_parser(name, help=doc, description=doc, **shared)
        sub.set_defaults(run=run, **bound)
        return sub

    def noise_options(sub):
        _choice_option(sub, "--noise", NOISE_CHOICES, default="none",
                       help="Noise added to each probe latency.")
        _option(sub, "--sigma", _sigma, default=0.0, help="Scale of the noise.")

    command("speculative-update", cmd_speculative_update, cmd_speculative_update.__doc__)
    _choice_option(command("probe-mode", cmd_probe_mode, cmd_probe_mode.__doc__), "--actual",
                   MODE_CHOICES, default=Mode.ONE_LEVEL.value,
                   help="Prediction mode to set up before probing.")
    _option(command("probe-ghr", cmd_probe_ghr, cmd_probe_ghr.__doc__), "--max-n",
            _integer(1, MAX_PROBE_N), default=32, help="Largest preamble length to try.")
    sub = command("covert", cmd_covert, cmd_covert.__doc__)
    _option(sub, "--bits", _integer(1, MAX_BITS), default=1024,
            help="Number of random message bits.")
    _option(sub, "--message", _bit_string, help="Explicit 0/1 message (overrides --bits).")
    _choice_option(sub, "--mode", MODE_CHOICES, default=Mode.HISTORY.value,
                   help="Prediction mode of the channel.")
    noise_options(sub)
    for variant, doc in (("v1", "Recover a victim secret via the conditional-trigger gadget."),
                         ("v2", "Recover a victim secret via BTB poisoning toward a gadget.")):
        sub = command(f"sidechannel-{variant}", cmd_sidechannel, doc, variant=variant)
        _option(sub, "--secret", _bit_string, default="1101110001", help="Victim secret bits.")
        _option(sub, "--random-bits", _integer(0, MAX_BITS), default=0,
                help="Use this many random secret bits instead of --secret.")
        _choice_option(sub, "--mode", MODE_CHOICES, default=Mode.ONE_LEVEL.value,
                       help="Prediction mode of the channel.")
        if variant == "v2":
            sub.add_argument("--poison", action=argparse.BooleanOptionalAction, default=True,
                             help="Whether the attacker poisons the victim's BTB slot.")
        else:  # v1 poisons nothing
            sub.set_defaults(poison=None)
        noise_options(sub)
    _option(command("defense-eval", cmd_defense_eval, cmd_defense_eval.__doc__), "--iterations",
            _integer(0, MAX_ITERATIONS), default=15, help="Inner loop iterations of the workload.")
    sub = command("scan", cmd_scan, cmd_scan.__doc__)
    sub.add_argument("files", nargs="*", metavar="FILES",
                     help="Listings to scan; the bundled corpus when none is given.")
    _option(sub, "--registers", _registers, default=",".join(scanner.DEFAULT_TRACKED),
            help="Comma-separated tracked 64-bit registers.")
    _option(sub, "--window", _integer(1), default=16,
            help="Instructions after a trigger to search for a transmitter.")
    _choice_option(sub, "--mode", ["v1", "v2", "ss", "all"], default="all",
                   help="Gadget patterns to look for.")
    return parser, {flag for action in global_options for flag in action.option_strings}


PARSER, GLOBAL_FLAGS = _build_parser()


def _parse(argv: list[str]) -> dict:
    """The options of one command line by name; `run` is its command."""
    # argparse sets an unknown option aside and reads the value after it as
    # the command name; name the option instead
    i = 0
    while i < len(argv) and argv[i].startswith("-") and argv[i] not in ("-h", "--help", "--"):
        flag, eq, _ = argv[i].partition("=")
        if flag not in GLOBAL_FLAGS:
            raise UsageError(f"No such option '{flag}'.")
        i += 1 if eq else 2
    namespace, extras = PARSER.parse_known_args(argv)
    options = vars(namespace)
    extras = [arg for arg in extras if arg != "--"]  # ends the options, not an argument
    for arg in extras:
        if arg.startswith("-"):
            raise UsageError(f"No such option '{arg.partition('=')[0]}'.")
    if "run" not in options:
        raise UsageError("Missing command.")
    if extras:
        if options["run"] is not cmd_scan:
            raise UsageError(f"Got unexpected extra argument ({' '.join(extras)})")
        # argparse fills a nargs="*" positional from one run of arguments and
        # sets the rest aside; scan takes files on both sides of an option
        options["files"] = [*options["files"], *extras]
    return options


def _error(exc: Exception, code: int) -> int:
    sys.stdout.flush()  # what the command printed comes first
    print(f"Error: {exc}", file=sys.stderr)
    return code


def _run(argv: list[str]) -> int:
    try:
        options = _parse(argv)
        run, config_path = options.pop("run"), options.pop("config_path")
        try:
            config = load_config(config_path) if config_path else PredictorConfig()
        except OSError as exc:
            raise CommandError(f"{config_path}: {exc.strerror}") from exc
        obj = Context(config, options.pop("seed"), options.pop("out"),
                      POLICY_CHOICES[options.pop("policy")])
        run(obj, **options)
    except (UsageError, argparse.ArgumentError) as exc:
        return _error(exc, 2)
    except DOMAIN_ERRORS as exc:
        return _error(exc, 1)
    return 0


def main(argv=None, standalone_mode=True):
    """Run one `bpusim` command line. Returns its exit status: 0, 1 when
    the command fails, 2 when the command line is refused. In standalone
    mode, as the console script runs it, it exits with that status."""
    try:
        code = _run(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # --help, after printing the help
        code = exc.code
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
