"""Run one benchmark workload and print its metrics (see README.md).

    python3 perfbench/run.py --workload downlink-ber --seed 0 --seconds 10 --trace 0

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  The exit
status is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pb_harness as harness

WORKLOADS = {
    "downlink-ber": "pb_downlink",
    "isac-sensing": "pb_isac",
    "sweep-store": "pb_sweep",
    "serve-jobs": "pb_serve",
}
#: Fresh-process set-ups per metrics run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: A metrics run passes until ``--seconds`` is spent, but never fewer times.
MIN_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smallest inputs (the self-tests)"
    )
    parser.add_argument(
        "--write-pins", action="store_true",
        help="re-pin the first pass's output digests (default seed only)",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load(name: str):
    return importlib.import_module(WORKLOADS[name]).Workload


def timed_pass(workload, traced: bool, baseline: "set[int]") -> harness.PassResult:
    workload.prepare(traced)
    cpu_before = harness.tree_cpu_seconds()
    started = time.perf_counter()
    result = workload.run_pass(traced)
    result.wall_s = time.perf_counter() - started
    harness.settle(baseline)
    result.cpu_s = harness.tree_cpu_seconds() - cpu_before
    workload.cleanup(traced)
    return result


def measure_setup(args, host: harness.HostSpeed) -> "list[float]":
    """Process start to first timed operation, in fresh processes, each
    rescaled to the reference host speed."""
    command = [
        sys.executable, str(harness.BENCH_DIR / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--probe-setup",
    ] + (["--tiny"] if args.tiny else [])
    samples = []
    speed = host.reference_seconds()
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=harness.ROOT
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - started
            probe.stdout.read()
            code = probe.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit status {code}")
        after = host.reference_seconds()
        samples.append(elapsed * host.scale(speed, after))
        speed = after
    return samples


def run_metrics(workload, seconds: float, host: harness.HostSpeed):
    """Untraced passes until ``seconds`` is spent.

    The reference computation is timed before the first pass and after
    each one; every timing of a pass is multiplied by its host-speed
    factor, so the metrics read as on the reference host.
    """
    baseline = set(harness.descendants())
    passes = []
    deadline = time.perf_counter() + seconds
    speed = host.reference_seconds()
    with harness.TreeMemory() as memory:
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            result = timed_pass(workload, False, baseline)
            after = host.reference_seconds()
            result.scale = host.scale(speed, after)
            speed = after
            passes.append(result)
    latencies = [
        value * result.scale for result in passes for value in result.latencies_s
    ]
    metrics = {
        "trials_per_s": (
            harness.median([p.frames / (p.wall_s * p.scale) for p in passes]),
            "trials/s"),
        "cpu_s_per_ktrial": (
            harness.median([p.cpu_s * p.scale / p.frames * 1e3 for p in passes]),
            "CPU-s/ktrial"),
        "peak_rss_mb": (memory.peak_mb(), "MB"),
        "job_latency_p50_s": (harness.quantile(latencies, 0.5), "s"),
        "job_latency_p90_s": (harness.quantile(latencies, 0.9), "s"),
    }
    print(f"passes: {len(passes)}  jobs timed: {len(latencies)}")
    print(
        f"host-speed factor: median {harness.median([p.scale for p in passes]):.4g}"
        f"  unscaled trials/s: {harness.median([p.frames / p.wall_s for p in passes]):.6g}"
    )
    return metrics, passes


def run_traced(workload, seconds: float):
    """Untraced and traced passes, interleaved, until ``seconds`` is spent."""
    baseline = set(harness.descendants())
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(timed_pass(workload, False, baseline))
        traced.append(timed_pass(workload, True, baseline))
    metrics = workload.layer_metrics(untraced)
    plain = harness.median([p.wall_s for p in untraced])
    metrics["bench.trace_overhead_pct"] = (
        (harness.median([p.wall_s for p in traced]) - plain) / plain * 100.0, "%"
    )
    return metrics, untraced + traced


def check(args, workload, passes) -> "tuple[int, int]":
    bad = workload.check(passes)
    if args.seed == harness.DEFAULT_SEED and not args.tiny:
        if args.write_pins:
            harness.write_pins(args.workload, passes[0].outputs)
        bad |= harness.unpinned_keys(args.workload, passes[0].outputs)
    return harness.count_failed(passes, bad)


def probe_other_layers(args, work_dir: pathlib.Path):
    """Per-layer metrics of the layers this workload does not exercise.

    Each other workload runs at its smallest size, one untraced and one
    traced pass, so every traced run prints the full per-layer table.
    """
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        if name == args.workload:
            continue
        probe_dir = work_dir / name
        probe_dir.mkdir()
        other = load(name)(args.seed, True, probe_dir)
        try:
            other.setup()
            layer, passes = run_traced(other, 0.0)
            bad = other.check(passes)
        finally:
            other.close()
        layer.pop("bench.trace_overhead_pct")
        metrics.update(layer)
        more_attempted, more_failed = harness.count_failed(passes, bad)
        attempted += more_attempted
        failed += more_failed
    return metrics, attempted, failed


def execute(args, work_dir: pathlib.Path) -> int:
    workload = load(args.workload)(args.seed, args.tiny, work_dir)
    if args.probe_setup:
        try:
            workload.setup()
            print("ready", flush=True)
        finally:
            workload.close()
        return 0
    print("env " + json.dumps(harness.env_stamp(args.seed), sort_keys=True), flush=True)
    host = None if args.trace else harness.HostSpeed()
    setup_samples = [] if args.trace else measure_setup(args, host)
    try:
        workload.setup()
        if args.trace:
            metrics, passes = run_traced(workload, args.seconds)
            print(f"stage table, traced replay of {args.workload}:")
            print(workload.stage_table())
        else:
            metrics, passes = run_metrics(workload, args.seconds, host)
            metrics["setup_s"] = (harness.median(setup_samples), "s")
        attempted, failed = check(args, workload, passes)
    finally:
        workload.close()
    if args.trace:
        other, more_attempted, more_failed = probe_other_layers(args, work_dir)
        metrics.update(other)
        attempted += more_attempted
        failed += more_failed
    print(
        f"operations: {attempted}  failed: {failed}  "
        f"failed_ratio: {failed / attempted:.6g}"
    )
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<42} {value:>16.6g}  {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.bootstrap()
    import repro

    if harness.SRC not in pathlib.Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {harness.SRC}")
    work_dir = harness.WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        return execute(args, work_dir)
    finally:
        harness.stop_helpers()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
