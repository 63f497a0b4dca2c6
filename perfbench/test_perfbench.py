"""Self-test of the benchmark: each workload passes its checks at a tiny
size, the tiled listing reproduces the corpus manifest, wrong expectations
count as failures, and the traced round reports every per-layer metric.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from workloads import CORPUS, TILE_FILES, TILE_STRIDE, make_workload, tile_listing

TINY = {"sc-v1-policies": 3, "covert-history": 16, "scan-tiled": 2}


@pytest.fixture
def cli(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return run.load_cli()


def _setup(name: str, seed: int = 0):
    workload = make_workload(name, TINY[name])
    return workload, workload.make_inputs(seed, run.workdir(workload))


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_workload_passes_its_checks(cli, name):
    workload, inputs = _setup(name)
    first = run.run_round(cli, workload, inputs, None)
    again = run.run_round(cli, workload, inputs, [r["stats"]["sha256"] for r in first])
    for row in first + again:
        assert row["error"] is None
        assert row["units"] > 0
    assert [r["units"] for r in first] == [r["units"] for r in again]


def test_sc_v1_covers_every_policy(cli):
    workload, inputs = _setup("sc-v1-policies")
    rows = run.run_round(cli, workload, inputs, None)
    assert [r["stats"]["policy"] for r in rows] == list(workloads.POLICIES)
    assert all(r["units"] == TINY["sc-v1-policies"] for r in rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tiling_at_k1_reproduces_manifest(seed):
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    text, truth = tile_listing(1, seed)
    for key in ("v2_count", "smotherspectre_count", "v1_count"):
        assert truth[key] == sum(manifest[name][key] for name in TILE_FILES)
    assert truth["bit_offsets"] == manifest["corpus_v2.disasm"]["bit_offsets"]

    def shape(site, offset):
        return (offset, site["classification"], site["register"],
                tuple(site["bit_positions"]), site["smotherspectre"])

    planted = []
    for name in TILE_FILES:
        origin = workloads._corpus_lines(name)[0][0] & ~0xFFF
        planted += [shape(s, int(s["addr"], 16) - origin) for s in manifest[name]["sites"]]
    tiled = [shape(s, int(s["addr"], 16) % TILE_STRIDE) for s in truth["gadget_sites"]]
    assert sorted(tiled) == sorted(planted)
    lines = [line for name in TILE_FILES
             for line in (CORPUS / name).read_text().splitlines()
             if line.split("#", 1)[0].strip()]
    assert text.count("\n") == len(lines)


def test_tiled_listing_scans_to_its_truth():
    run.load_cli()
    from bpusim import scanner

    for k in (1, 3):
        text, truth = tile_listing(k, seed=5)
        report = json.loads(scanner.build_report("t", scanner.parse_disasm(text)).to_json())
        assert {key: report[key] for key in truth} == truth


def test_wrong_expected_count_makes_fail_ratio_positive(cli):
    workload, inputs = _setup("scan-tiled")
    inputs["truth"]["v2_count"] += 1
    rows = run.run_round(cli, workload, inputs, None)
    failed = sum(1 for r in rows if r["error"] is not None)
    assert failed / len(rows) > 0
    assert "v2_count" in rows[0]["error"]


def test_changed_artifact_bytes_count_as_failure(cli):
    workload, inputs = _setup("covert-history")
    rows = run.run_round(cli, workload, inputs, [{"covert.json": "0" * 64}])
    assert rows[0]["error"] is not None


@pytest.mark.parametrize("name", ["covert-history", "scan-tiled"])
def test_traced_round_reports_every_layer_metric(cli, name):
    import bpusim.attacks
    import bpusim.cli

    workload, inputs = _setup(name)
    originals = (bpusim.cli.main, bpusim.attacks.BranchHarness.execute)
    rounds = [run.run_round(cli, workload, inputs, None)]
    rows, metrics, engine = run.traced_round(cli, workload, inputs, rounds)
    assert (bpusim.cli.main, bpusim.attacks.BranchHarness.execute) == originals
    assert all(r["error"] is None for r in rows)  # same bytes as untraced
    assert list(metrics) == list(tracer.LAYER_METRICS)
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["cli.self_s"] > 0
    if name == "covert-history":
        assert metrics["attacks.trials"] == metrics["engine.run.calls"] == 16
        assert metrics["predictor.randomize_reset.calls"] == 0
        assert engine["ticks"] == metrics["engine.ticks"] > engine["active_ticks"] > 0
    else:
        assert metrics["scanner.scan_v2.calls"] == 2
        assert metrics["engine.run.calls"] == 0


def test_refuses_to_run_without_program_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in workloads.ROOT.joinpath("perfbench").glob("*.py"):
        shutil.copy(path, bench)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-tiled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracer.LAYER_METRICS
