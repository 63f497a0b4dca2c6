"""Span tracing of bpusim's layers from outside the program.

`Tracer.install` replaces module attributes and class methods of the
program with wrappers that record one span per call: name, start, end and
parent span. Spans stay in memory until `write_spans`. The engine wrapper
also reads counts off the `RunResult` that `engine.run` returns.
"""

from __future__ import annotations

import array
import functools
import importlib
import statistics
import time

# (module, owner attribute or None for a module function, attribute, span name)
TRACED = (
    ("bpusim.cli", None, "main", "cli.main"),
    ("bpusim.attacks", None, "side_channel_v1", "attacks.side_channel_v1"),
    ("bpusim.attacks", None, "covert_send_receive", "attacks.covert_send_receive"),
    ("bpusim.attacks", "BranchHarness", "execute", "attacks.harness_execute"),
    ("bpusim.engine", None, "run", "engine.run"),
    ("bpusim.predictor", "PredictorState", "predict", "predictor.predict"),
    ("bpusim.predictor", "PredictorState", "record_resolution", "predictor.record_resolution"),
    ("bpusim.predictor", "PredictorState", "apply_counter_update",
     "predictor.apply_counter_update"),
    ("bpusim.predictor", "PredictorState", "randomize_reset", "predictor.randomize_reset"),
    ("bpusim.timing", "LatencySampler", "measure", "timing.measure"),
    ("bpusim.scanner", None, "parse_disasm", "scanner.parse_disasm"),
    ("bpusim.scanner", None, "scan_v2", "scanner.scan_v2"),
    ("bpusim.scanner", None, "scan_v1", "scanner.scan_v1"),
    ("bpusim.scanner", None, "scan_smotherspectre", "scanner.scan_smotherspectre"),
    ("bpusim.scanner", None, "build_report", "scanner.report"),
    ("bpusim.scanner", "GadgetReport", "to_json", "scanner.report.to_json"),
    ("bpusim.scanner", "GadgetReport", "to_csv", "scanner.report.to_csv"),
)

# metric name -> (unit, better); the per-layer metrics of a traced run
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "attacks.self_s": ("s", "lower"),
    "attacks.trials": ("count", "higher"),
    "attacks.harness_execute.calls": ("count", "lower"),
    "attacks.harness_execute.self_s": ("s", "lower"),
    "engine.run.calls": ("count", "lower"),
    "engine.run.self_s": ("s", "lower"),
    "engine.run.ms_p50": ("ms", "lower"),
    "engine.run.ms_p99": ("ms", "lower"),
    "engine.ticks": ("count", "lower"),
    "engine.active_ticks": ("count", "lower"),
    "engine.idle_tick_ratio": ("ratio", "lower"),
    "engine.ticks_per_s": ("1/s", "higher"),
    "engine.events": ("count", "lower"),
    "engine.squashes": ("count", "lower"),
    "engine.speculative_resolutions": ("count", "lower"),
    "engine.mispredictions": ("count", "lower"),
    "predictor.predict.calls": ("count", "lower"),
    "predictor.predict.self_s": ("s", "lower"),
    "predictor.record_resolution.calls": ("count", "lower"),
    "predictor.record_resolution.self_s": ("s", "lower"),
    "predictor.apply_counter_update.calls": ("count", "lower"),
    "predictor.apply_counter_update.self_s": ("s", "lower"),
    "predictor.randomize_reset.calls": ("count", "lower"),
    "predictor.randomize_reset.self_s": ("s", "lower"),
    "timing.measure.calls": ("count", "lower"),
    "timing.measure.self_s": ("s", "lower"),
    "scanner.parse_disasm.self_s": ("s", "lower"),
    "scanner.parse_disasm.lines_per_s": ("1/s", "higher"),
    "scanner.scan_v2.calls": ("count", "lower"),
    "scanner.scan_v2.self_s": ("s", "lower"),
    "scanner.scan_v1.self_s": ("s", "lower"),
    "scanner.scan_smotherspectre.self_s": ("s", "lower"),
    "scanner.report.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.engine = {"ticks": 0, "active_ticks": 0, "events": 0, "squashes": 0,
                       "speculative_resolutions": 0, "mispredictions": 0}
        self.trials = 0
        self.parsed_lines = 0

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, on_return=None):
        nid = self._name_id(name)
        hook_nid = self._name_id("trace.hook")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None:
                # the hook's own span keeps its cost out of the caller's self time
                hook = self._open(hook_nid)
                try:
                    on_return(result)
                finally:
                    self._close(hook)
            return result

        return traced

    def install(self) -> None:
        hooks = {"engine.run": self._count_run,
                 "attacks.side_channel_v1": self._count_trials,
                 "attacks.covert_send_receive": self._count_trials,
                 "scanner.parse_disasm": self._count_lines}
        for module, owner, attr, name in TRACED:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = target.__dict__[attr]
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(original, name, hooks.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    # -- counts read off return values -------------------------------------

    def _count_run(self, returned) -> None:
        result, _ = returned
        counts = self.engine
        counts["ticks"] += result.ticks
        counts["events"] += len(result.events)
        counts["active_ticks"] += len({e.split(" ", 1)[0] for e in result.events})
        for per_process in result.summary.values():
            for key in ("squashes", "speculative_resolutions", "mispredictions"):
                counts[key] += per_process[key]

    def _count_trials(self, result) -> None:
        self.trials += getattr(result, "trials", None) or getattr(result, "bits_sent", 0)

    def _count_lines(self, records) -> None:
        self.parsed_lines += len(records)

    # -- analysis --------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        dur = self.durations()
        own = self.self_times()
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        self_s: dict[str, float] = {}
        run_ms = []
        for i, nid in enumerate(self.name_of):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + dur[i]
            self_s[name] = self_s.get(name, 0.0) + own[i]
            if name == "engine.run":
                run_ms.append(dur[i] * 1e3)

        def layer_self(prefix: str) -> float:
            return sum((v for k, v in self_s.items()
                        if k == prefix or k.startswith(prefix + ".")), 0.0)

        m = {
            "cli.self_s": self_s.get("cli.main", 0.0),
            "attacks.self_s": layer_self("attacks"),
            "attacks.trials": self.trials,
            "scanner.report.self_s": layer_self("scanner.report"),
            "trace.overhead_ratio": traced_wall / untraced_wall,
        }
        for name in ("attacks.harness_execute", "engine.run", "predictor.predict",
                     "predictor.record_resolution", "predictor.apply_counter_update",
                     "predictor.randomize_reset", "timing.measure", "scanner.scan_v2"):
            m[name + ".calls"] = calls.get(name, 0)
            m[name + ".self_s"] = self_s.get(name, 0.0)
        for name in ("scanner.parse_disasm", "scanner.scan_v1", "scanner.scan_smotherspectre"):
            m[name + ".self_s"] = self_s.get(name, 0.0)
        parse_s = inclusive.get("scanner.parse_disasm", 0.0)
        m["scanner.parse_disasm.lines_per_s"] = self.parsed_lines / parse_s if parse_s else 0.0
        for key, value in self.engine.items():
            m["engine." + key] = value
        ticks, run_s = self.engine["ticks"], inclusive.get("engine.run", 0.0)
        m["engine.idle_tick_ratio"] = 1 - self.engine["active_ticks"] / ticks if ticks else 0.0
        m["engine.ticks_per_s"] = ticks / run_s if run_s else 0.0
        m["engine.run.ms_p50"] = statistics.median(run_ms) if run_ms else 0.0
        m["engine.run.ms_p99"] = (statistics.quantiles(run_ms, n=100)[98]
                                  if len(run_ms) >= 2 else 0.0)
        return {name: m[name] for name in LAYER_METRICS}

    def write_spans(self, path) -> None:
        """One CSV row per span: id, parent id, name, start and end seconds."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as f:
            f.write("id,parent,name,start_s,end_s\n")
            for i, (nid, p, s, e) in enumerate(zip(self.name_of, self.parent,
                                                   self.start, self.end)):
                f.write(f"{i},{p},{self.names[nid]},{s - t0:.9f},{e - t0:.9f}\n")
