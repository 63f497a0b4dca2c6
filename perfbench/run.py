"""Benchmark of bpusim's CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload is a closed loop in this one
process: it calls `bpusim.cli.main` with generated arguments, waits for the
command to finish, checks its artifacts, and repeats until S seconds have
passed. A round is one pass over the workload's command lines.

--trace 0 prints the end-to-end metrics: `units_per_s` (median over
rounds), `setup_s` (median over fresh interpreters), `peak_rss_mb` and
`success_ratio`. Both times are rescaled against a reference measured next
to them, which cancels the host's speed drift; the host-time figures go to
the report file. --trace 1 runs untraced rounds for S seconds, then exactly
one traced round, and prints the per-layer metrics of that round.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A fuller record (metadata,
exact simulated statistics, artifact digests, every round) goes to
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS, Tracer
from workloads import ROOT, SRC, WORKLOADS, CheckFailed, digest, make_workload

OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 15
# Host speed drifts by tens of percent under co-tenant load, so times are
# rescaled by a reference kernel run next to them (see `normalized`). Each
# kernel takes about this long on an uncontended 2-CPU host.
REF_NOMINAL_S = 0.045
# Set-up time is dominated by process start and imports, which the compute
# kernel does not track; it is rescaled by a bare interpreter start instead.
SPAWN_REFERENCE = "import argparse, json, subprocess; print('ready', flush=True)"
SPAWN_NOMINAL_S = 0.04

END_TO_END_UNITS = {"units_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "success_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program source, or set-up failed)."""


def load_cli():
    """Import `bpusim.cli` from the checkout's `src/`, never from elsewhere."""
    if not (SRC / "bpusim" / "cli.py").is_file():
        raise BenchError(f"no bpusim source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from bpusim import cli

    if pathlib.Path(cli.__file__).resolve().parent != SRC / "bpusim":
        raise BenchError(f"bpusim was imported from {cli.__file__}, not {SRC}")
    return cli


def workdir(workload) -> pathlib.Path:
    return OUT / workload.name


# ---------------------------------------------------------------------------
# one round: every command line of the workload, each timed and checked

def invoke(cli, argv: list[str]) -> tuple[float, str | None]:
    """Host seconds of one `bpusim` command and its error, if it failed."""
    sink = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv, standalone_mode=False)
        if code not in (None, 0):
            error = f"exit code {code}"
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, error


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def compute_kernel_seconds() -> float:
    """Host seconds of a fixed pure-Python loop: arithmetic, small objects,
    dict and list traffic, like the simulator's own code."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    live = []
    x = 1
    for i in range(90_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        pair = _Pair(x & 1023, i)
        table[pair.key] = table.get(pair.key, 0) + pair.value
        live.append(pair)
        if len(live) > 64:
            live.clear()
    return time.perf_counter() - t0


def copy_kernel_seconds() -> float:
    """Host seconds of copying tails of a long list, like the scanner's
    `records[i + 1:]` slices."""
    items = [(i,) for i in range(35_000)]
    t0 = time.perf_counter()
    for start in range(0, len(items), 40):
        items[start:]  # the copy is the work being timed
    return time.perf_counter() - t0


REFERENCES = {"compute": compute_kernel_seconds, "copy": copy_kernel_seconds}


def normalized(seconds: float, ref_s: float) -> float:
    """`seconds` rescaled to a host on which the reference kernel takes
    REF_NOMINAL_S, given that it took `ref_s` next to the measurement;
    cancels the host's speed drift under co-tenant load."""
    return seconds * REF_NOMINAL_S / ref_s


def run_round(cli, workload, inputs: dict, expected_digests: list | None) -> list[dict]:
    """Run each command line once; the first round's artifact digests are
    the expectation for later rounds (the CLI promises byte-identical reruns).
    The workload's reference kernel runs before and after each command."""
    reference = REFERENCES[workload.reference]
    out = workdir(workload) / "artifacts"
    rows = []
    ref_before = reference()
    for i, argv in enumerate(workload.invocations(inputs, out)):
        for name in workload.artifacts:
            (out / name).unlink(missing_ok=True)
        seconds, error = invoke(cli, argv)
        ref_after = reference()
        units, stats = 0, {}
        if error is None:
            try:
                units, stats = workload.check(argv, out, inputs)
                stats["sha256"] = digest(out, workload.artifacts)
                expected = expected_digests[i] if expected_digests else None
                if expected is not None and stats["sha256"] != expected:
                    raise CheckFailed("artifacts differ from the first round's bytes")
            except CheckFailed as exc:
                error, units = str(exc), 0
        ref_s = (ref_before + ref_after) / 2
        rows.append({"seconds": seconds, "ref_s": ref_s, "norm_s": normalized(seconds, ref_s),
                     "units": units, "error": error, "stats": stats})
        ref_before = ref_after
    return rows


def rate(rows: list[dict], key: str = "norm_s") -> float:
    return sum(r["units"] for r in rows) / sum(r[key] for r in rows)


def measure(cli, workload, inputs: dict, seconds: float) -> list[list[dict]]:
    """Rounds until `seconds` have passed, at least one."""
    rounds: list[list[dict]] = []
    digests = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rows = run_round(cli, workload, inputs, digests)
        if digests is None:
            digests = [r["stats"].get("sha256") for r in rows]
        rounds.append(rows)
    return rounds


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters, each importing bpusim.cli and making inputs

def _spawn_seconds(argv: list[str], env: dict) -> float:
    """Host seconds from starting `argv` until it prints `ready`."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise BenchError(f"{argv[1]} exited with code {code} before it was ready")
    return elapsed


def setup_seconds(workload_name: str, seed: int, samples: int) -> tuple[list[float], list[float]]:
    """Host seconds of each set-up sample, and of a reference interpreter
    started right after each one (stdlib imports only, no bpusim)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time the import as installed code runs it
    probe = [sys.executable, __file__, "--setup-probe", "--workload", workload_name,
             "--seed", str(seed)]
    reference = [sys.executable, "-c", SPAWN_REFERENCE]
    times, refs = [], []
    for _ in range(samples):
        times.append(_spawn_seconds(probe, env))
        refs.append(_spawn_seconds(reference, env))
    return times, refs


# ---------------------------------------------------------------------------
# run metadata

def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines() -> int:
    """Non-blank lines of the Python files under src/."""
    return sum(1 for path in SRC.rglob("*.py")
               for line in path.read_text().splitlines() if line.strip())


def metadata() -> dict:
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "src_nonblank_lines": src_lines(),
        "model_validation": "unvalidated: the repository holds no hardware reference "
                            "results, so no model error is given",
    }


# ---------------------------------------------------------------------------

def traced_round(cli, workload, inputs: dict, rounds: list) -> tuple[list[dict], dict, dict]:
    """One round under the tracer; per-layer metrics and engine counts."""
    tracer = Tracer()
    tracer.install()
    try:
        rows = run_round(cli, workload, inputs, [r["stats"].get("sha256") for r in rounds[0]])
    finally:
        tracer.uninstall()
    traced_wall = sum(r["norm_s"] for r in rows)
    untraced_wall = statistics.median(sum(r["norm_s"] for r in rr) for rr in rounds)
    tracer.write_spans(workdir(workload) / "spans.csv")
    return rows, tracer.metrics(traced_wall, untraced_wall), dict(tracer.engine)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = load_cli()
    workload = make_workload(args.workload)
    if args.setup_probe:
        workload.make_inputs(args.seed, workdir(workload))
        print("ready", flush=True)
        return 0

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "unit": workload.unit, "size": workload.size, "metadata": metadata()}
    if not args.trace:
        record["setup_s_samples"], record["setup_ref_s"] = setup_seconds(
            workload.name, args.seed, SETUP_SAMPLES)
    inputs = workload.make_inputs(args.seed, workdir(workload))
    rounds = measure(cli, workload, inputs, args.seconds)
    record["exact"] = [r["stats"] for r in rounds[0]]
    if args.trace:
        traced, metrics, record["engine"] = traced_round(cli, workload, inputs, rounds)
        rounds.append(traced)

    invocations = [r for rows in rounds for r in rows]
    failed = sum(1 for r in invocations if r["error"] is not None)
    if not args.trace:
        metrics = {
            "units_per_s": statistics.median(rate(rows) for rows in rounds),
            "setup_s": (statistics.median(record["setup_s_samples"]) * SPAWN_NOMINAL_S
                        / statistics.median(record["setup_ref_s"])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_ratio": 1 - failed / len(invocations),
        }
        record["host_time"] = {
            "units_per_s": statistics.median(rate(rows, "seconds") for rows in rounds),
            "setup_s": statistics.median(record["setup_s_samples"]),
        }
    units = ({name: unit for name, (unit, _) in LAYER_METRICS.items()} if args.trace
             else END_TO_END_UNITS)
    record["fail_ratio"] = failed / len(invocations)
    record["errors"] = sorted({r["error"] for r in invocations if r["error"]})
    record["rounds"] = [[{k: r[k] for k in ("seconds", "ref_s", "norm_s", "units", "error")}
                         for r in rows]
                        for rows in rounds]
    record["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}
    path = workdir(workload) / f"report-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": len(invocations),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
