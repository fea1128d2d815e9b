"""Smoke test of the benchmark: every workload at minimal length.

    python3 -m pytest -q perfbench/test_smoke.py     (from the repo root)

Asserts that each workload prints every end-to-end metric of
BENCHMARK.json with a unit, that no op failed (fail_frac 0), and that a
traced run prints every per-layer metric.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    detail, result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert detail["fail_frac"] == 0.0


def test_per_layer_metrics():
    detail, result = run_bench("sweep-paper", 1)
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names <= set(result["metrics"])
    assert all(result["metrics"][n]["unit"] for n in names)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["sim.sweep.rows"]["value"] > 0


def test_refuses_without_sources():
    """In a directory holding only BENCHMARK.json and perfbench/, the
    command exits nonzero and prints no result."""
    bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "ident-ladder", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
