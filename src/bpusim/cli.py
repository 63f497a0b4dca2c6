"""Command-line front end: one subcommand per experiment.

All artifacts are deterministic functions of config + seed (JSON with sorted
keys, no timestamps), so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import gc
import importlib.resources
import io
import json
import math
import pathlib
import random

import click

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
# defense-eval's largest loop: about 6 s and 180 MB for the five policies
MAX_ITERATIONS = 100_000
# probe-ghr's longest run: at ghr_depth 256 with 65,536 history entries the
# trainer and prober first collide at N = 256, and all 256 lengths take about
# 1.1-1.4 s, 20 MB (2-CPU Xeon)
MAX_PROBE_N = 256
# covert --bits and the side channels' --random-bits: at this bound one-level
# sidechannel-v1 and sidechannel-v2 take about 0.3-0.35 s and 20 MB,
# history-mode sidechannel-v1 under shadow-pht about 0.25 s, and
# history-mode covert about 0.2-0.3 s (2-CPU Xeon, CPython 3.11)
MAX_BITS = 10_000

# domain errors reported as a one-line message and a non-zero exit status
DOMAIN_ERRORS = (attacks.ProbeError, attacks.AttackError, attacks.TransmissionError,
                 ConfigFileError, ProgramError, SimulationError)


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DOMAIN_ERRORS as exc:
            raise click.ClickException(str(exc)) from exc


class Context:
    def __init__(self, config, seed, out, policy):
        self.config = config
        self.seed = seed
        self.out = pathlib.Path(out)
        self.policy = policy

    def write(self, name: str, text: str) -> pathlib.Path:
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        path.write_text(text)
        return path

    def write_json(self, name: str, doc) -> pathlib.Path:
        return self.write(name, json.dumps(doc, sort_keys=True, indent=2) + "\n")


@click.group(cls=_Group)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Predictor config file (key = value lines).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for every stochastic choice.")
@click.option("--out", type=click.Path(file_okay=False), default="out",
              show_default=True, help="Artifact output directory.")
@click.option("--policy", type=click.Choice(list(POLICY_CHOICES)), default=POLICIES[0].name,
              show_default=True, help="PHT update policy.")
@click.pass_context
def main(ctx, config_path, seed, out, policy):
    """Branch prediction unit simulator and attack experiment harness."""
    config = load_config(config_path) if config_path else PredictorConfig()
    ctx.obj = Context(config, seed, out, POLICY_CHOICES[policy])


def _model(noise: str, sigma: float, seed: int) -> LatencyModel:
    try:
        return LatencyModel(noise=NoiseKind(noise), noise_param=sigma, seed=seed)
    except ValueError as exc:  # --sigma that does not suit --noise
        raise click.BadParameter(str(exc), param_hint="'--sigma'") from exc


def _sigma(ctx, param, value):
    if not math.isfinite(value) or value < 0:
        raise click.BadParameter(f"{value} is not a finite number >= 0")
    return value


def _bit_string(ctx, param, value):
    if value == "":
        raise click.BadParameter("must hold at least one bit")
    if value is not None and not set(value) <= {"0", "1"}:
        raise click.BadParameter(f"{value!r} is not a string of 0s and 1s")
    return value


def _registers(ctx, param, value):
    names = tuple(r.strip().upper() for r in value.split(",") if r.strip())
    if not names:
        raise click.BadParameter("name at least one register")
    bad = [r for r in names if r not in CANONICAL_REGISTERS]
    if bad:
        raise click.BadParameter(f"{', '.join(bad)}: not a 64-bit general-purpose "
                                 "register (RAX to R15)")
    return names


@main.command("speculative-update")
@click.pass_obj
def cmd_speculative_update(obj):
    """Check whether a squashed speculative branch leaves a PHT update."""
    doc = attacks.speculative_update_scenario(obj.policy, obj.config, obj.seed)
    events = doc.pop("events")
    obj.write("speculative_update_trace.txt", "\n".join(events) + "\n")
    obj.write_json("speculative_update.json", doc)
    click.echo(f"policy={doc['policy']} entry {doc['entry_before']} -> "
               f"{doc['entry_after']}: {doc['verdict']}")


@main.command("probe-mode")
@click.option("--actual", type=click.Choice(MODE_CHOICES), default=Mode.ONE_LEVEL.value,
              show_default=True, help="Prediction mode to set up before probing.")
@click.pass_obj
def cmd_probe_mode(obj, actual):
    """Infer the active prediction mode from misprediction patterns."""
    predictor = PredictorState(obj.config)
    if Mode(actual) is Mode.HISTORY:
        attacks.activate_history_mode(predictor)
    detected = attacks.probe_mode(predictor)
    obj.write_json("probe_mode.json", {"actual": actual, "detected": detected.value})
    click.echo(f"actual={actual} detected={detected.value}")
    if detected is not Mode(actual):
        raise click.ClickException("probe disagrees with configured mode")


@main.command("probe-ghr")
@click.option("--max-n", type=click.IntRange(min=1, max=MAX_PROBE_N), default=32,
              show_default=True, help="Largest preamble length to try.")
@click.pass_obj
def cmd_probe_ghr(obj, max_n):
    """Measure the global history depth via PHT collisions."""
    predictor = PredictorState(obj.config)
    attacks.activate_history_mode(predictor)
    measured = attacks.probe_ghr_depth(predictor, max_n)
    obj.write_json("probe_ghr.json", {
        "configured_depth": obj.config.ghr_depth,
        "measured_depth": measured,
    })
    click.echo(f"configured={obj.config.ghr_depth} measured={measured}")


@main.command("covert")
@click.option("--bits", type=click.IntRange(min=1, max=MAX_BITS), default=1024, show_default=True,
              help="Number of random message bits.")
@click.option("--message", default=None, callback=_bit_string,
              help="Explicit 0/1 message (overrides --bits).")
@click.option("--mode", type=click.Choice(MODE_CHOICES), default=Mode.HISTORY.value,
              show_default=True)
@click.option("--noise", type=click.Choice(NOISE_CHOICES), default="none",
              show_default=True)
@click.option("--sigma", type=float, default=0.0, show_default=True, callback=_sigma)
@click.pass_obj
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
    click.echo(f"mode={mode} bits={result.bits_sent} errors={result.errors}")


def _secret_option(secret, random_bits, seed):
    if random_bits:
        rng = random.Random(seed)
        return [rng.randint(0, 1) for _ in range(random_bits)]
    return [int(c) for c in secret]


def _emit_sidechannel(obj, name, mode, result):
    obj.write(f"{name}_trace.csv", result.trace.to_csv())
    obj.write_json(f"{name}.json", {
        "mode": mode,
        "ground_truth": result.ground_truth,
        "recovered": result.recovered,
        "accuracy": result.accuracy,
        "trials": result.trials,
    })
    click.echo(f"mode={mode} trials={result.trials} accuracy={result.accuracy:.3f}")


@main.command("sidechannel-v1")
@click.option("--secret", default="1101110001", show_default=True, callback=_bit_string)
@click.option("--random-bits", type=click.IntRange(min=0, max=MAX_BITS), default=0,
              help="Use this many random secret bits instead of --secret.")
@click.option("--mode", type=click.Choice(MODE_CHOICES), default=Mode.ONE_LEVEL.value,
              show_default=True)
@click.option("--noise", type=click.Choice(NOISE_CHOICES), default="none",
              show_default=True)
@click.option("--sigma", type=float, default=0.0, show_default=True, callback=_sigma)
@click.pass_obj
def cmd_sidechannel_v1(obj, secret, random_bits, mode, noise, sigma):
    """Recover a victim secret via the conditional-trigger gadget."""
    bits = _secret_option(secret, random_bits, obj.seed)
    result = attacks.side_channel_v1(
        bits, Mode(mode), latency_model=_model(noise, sigma, obj.seed),
        config=obj.config, policy=obj.policy, seed=obj.seed)
    _emit_sidechannel(obj, "sidechannel_v1", mode, result)


@main.command("sidechannel-v2")
@click.option("--secret", default="1101110001", show_default=True, callback=_bit_string)
@click.option("--random-bits", type=click.IntRange(min=0, max=MAX_BITS), default=0,
              help="Use this many random secret bits instead of --secret.")
@click.option("--mode", type=click.Choice(MODE_CHOICES), default=Mode.ONE_LEVEL.value,
              show_default=True)
@click.option("--poison/--no-poison", default=True, show_default=True,
              help="Whether the attacker poisons the victim's BTB slot.")
@click.option("--noise", type=click.Choice(NOISE_CHOICES), default="none",
              show_default=True)
@click.option("--sigma", type=float, default=0.0, show_default=True, callback=_sigma)
@click.pass_obj
def cmd_sidechannel_v2(obj, secret, random_bits, mode, poison, noise, sigma):
    """Recover a victim secret via BTB poisoning toward a gadget."""
    bits = _secret_option(secret, random_bits, obj.seed)
    result = attacks.side_channel_v2(
        bits, Mode(mode), latency_model=_model(noise, sigma, obj.seed),
        config=obj.config, policy=obj.policy, seed=obj.seed, poison=poison)
    _emit_sidechannel(obj, "sidechannel_v2", mode, result)


@main.command("defense-eval")
@click.option("--iterations", type=click.IntRange(min=0, max=MAX_ITERATIONS), default=15,
              show_default=True, help="Inner loop iterations of the workload.")
@click.pass_obj
def cmd_defense_eval(obj, iterations):
    """Compare total mispredictions of the update policies on a nested loop."""
    counts = attacks.defense_eval(POLICIES, config=obj.config, iterations=iterations,
                                  seed=obj.seed)
    obj.write_json("defense_eval.json", counts)
    for name in sorted(counts):
        click.echo(f"{name:25s} {counts[name]:4d} mispredictions")


def _bundled_corpus() -> list[pathlib.Path]:
    root = importlib.resources.files("bpusim") / "data" / "corpus"
    return sorted(p for p in root.iterdir() if p.name.endswith(".disasm"))


def _csv_field(value: str) -> str:
    """`value` as one CSV field, quoted as the report's `csv.writer` quotes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value])
    return buf.getvalue()[:-1]


def _scan_file(path: pathlib.Path, registers, window: int, mode: str) -> scanner.GadgetReport:
    """The report of one listing; its records are freed on return."""
    try:
        records = scanner.parse_disasm(path.read_text(encoding="utf-8"))
    except (scanner.DisasmParseError, UnicodeDecodeError) as exc:
        raise click.ClickException(f"{path}: {exc}") from exc
    return scanner.build_report(path.name, records, registers, window, mode)


@main.command("scan")
@click.argument("files", nargs=-1, type=click.Path(exists=True, dir_okay=False))
@click.option("--registers", default=",".join(scanner.DEFAULT_TRACKED), callback=_registers,
              show_default=True, help="Comma-separated tracked 64-bit registers.")
@click.option("--window", type=click.IntRange(min=1), default=16, show_default=True)
@click.option("--mode", type=click.Choice(["v1", "v2", "ss", "all"]), default="all",
              show_default=True)
@click.pass_obj
def cmd_scan(obj, files, registers, window, mode):
    """Scan normalized disassembly for trigger/transmitter gadget patterns."""
    paths = [pathlib.Path(f) for f in files] or _bundled_corpus()
    # A listing's records are long-lived tuples that hold no reference cycle:
    # reference counting frees them when _scan_file returns, so a cyclic
    # collection during the scan would only walk them again. Only the
    # command knows how long a listing lives, so it pauses the collector
    # here rather than in the library.
    enabled = gc.isenabled()
    gc.disable()
    try:
        reports = []
        csv_rows = []
        for path in paths:
            report = _scan_file(path, registers, window, mode)
            reports.append(report.to_dict())
            body = report.to_csv().splitlines()
            header, rows = body[0], body[1:]
            if not csv_rows:
                csv_rows.append("binary," + header)
            binary = _csv_field(path.name)
            csv_rows.extend(f"{binary},{row}" for row in rows)
            click.echo(f"{path.name}: v2={report.v2_count} "
                       f"ss={report.smotherspectre_count} v1={report.v1_count}")
        obj.write_json("report.json", reports)
        obj.write("report.csv", "\n".join(csv_rows) + "\n")
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    main()
