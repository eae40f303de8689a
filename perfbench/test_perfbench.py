"""Self-tests of the benchmark: tiny runs of every workload, CPU accounting.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    completed = run_bench(
        "--workload", workload, "--seed", "0", "--seconds", "0",
        "--trace", trace, "--tiny",
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in wanted}
    for entry in wanted:
        reported = result["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"]
        assert math.isfinite(reported["value"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = run_bench(
        "--workload", "downlink-ber", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


CPU_PROBE = """
import json, sys
sys.path.insert(0, {bench!r})
import pb_harness as harness
harness.bootstrap()
from repro.sim.executor import ExecutionPlan
from repro.sim.sweep import sweep
from pb_sweep import PointBer

evaluate = PointBer(60, 16)
sweep("warm", [1.0, 2.0], evaluate, rng=1, execution=ExecutionPlan(workers=2))
baseline = set(harness.descendants())
before = harness.tree_cpu_seconds()
result = sweep("cpu", [float(v) for v in range(8)], evaluate, rng=0,
               execution=ExecutionPlan(workers=2))
harness.settle(baseline)
spent = harness.tree_cpu_seconds() - before
meta = result.metadata["_execution"]
print(json.dumps({{
    "cpu_s": spent,
    "chunk_s": sum(chunk["seconds"] for chunk in meta["chunks"]),
    "backend": meta["backend"],
}}))
harness.stop_helpers()
"""


def test_tree_cpu_counts_pool_workers():
    """A workers=2 pass reports at least the chunk seconds its workers ran."""
    completed = subprocess.run(
        [sys.executable, "-c", CPU_PROBE.format(bench=str(BENCH_DIR))],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["backend"] == "process"
    # Chunk seconds are worker wall time; with fewer cores than workers a
    # chunk also spends time waiting for a core.
    share = min(1.0, len(os.sched_getaffinity(0)) / 2)
    assert report["cpu_s"] >= 0.9 * share * report["chunk_s"]
