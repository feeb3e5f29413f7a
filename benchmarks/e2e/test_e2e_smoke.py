"""Smoke test of the end-to-end benchmark: ``--quick`` runs of every
workload print every metric ``BENCHMARK.json`` declares, with finite values.

Invoked explicitly (``pytest benchmarks/e2e -q``): it boots real server
subprocesses and takes about a minute, so it stays outside tier-1's
``testpaths``.  The runner modules are not named ``bench_*``/``test_*``, so
``pytest benchmarks/ --benchmark-only`` collects only this file — and skips
it, since it uses no ``benchmark`` fixture.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_quick(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "11", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_declared_metric(workload, trace):
    result = run_quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"]), entry["name"]
        if not trace:
            assert metric["value"] > 0, entry["name"]


def test_command_refuses_a_tree_without_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command exits non-zero and prints no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
