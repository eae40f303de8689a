"""``serve-jobs``: a ``repro serve`` process fed by two closed-loop clients.

The server runs as a subprocess with a fresh cache dir and its default
plan, which runs the per-frame engine path.  Two clients, one connection
per core of a 2-core box, each submit small two-point ``ber_sweep`` jobs
back to back (closed loop).  Every job's second point is also the other
client's, so in-flight dedup and store hits occur.  Each pass draws
fresh job specs from the seed, so no pass is answered from an earlier
pass's cache entries.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

import pb_harness as harness
from pb_downlink import batched_plan

NAME = "serve-jobs"
CLIENTS = 2
JOBS_PER_CLIENT = 10
FRAMES = 12
PAYLOAD_SYMBOLS = 16
START_TIMEOUT_S = 60.0


@dataclass
class _Job:
    latency_s: float
    points: list


class Workload(harness.Workload):
    name = NAME

    def __init__(self, seed: int, tiny: bool, work_dir) -> None:
        self.seed = seed
        self.work_dir = pathlib.Path(work_dir)
        self.jobs_per_client = 2 if tiny else JOBS_PER_CLIENT
        self.frames = 2 if tiny else FRAMES
        self.passes = 0
        self.specs: "dict[tuple, tuple[dict, int]]" = {}
        self.process = None
        self.clients: list = []
        self.rejected = 0
        self.trace: "dict[str, list[float]]" = {
            name: [] for name in ("admission_s", "first_point_s", "gap_s", "status_rtt_s")
        }
        self.counter_deltas = {
            "points_computed": 0, "points_deduped": 0, "jobs_rejected": 0,
            "store_hits": 0, "store_misses": 0,
        }
        self.traced_passes = 0

    def jobs(self, pass_index: int) -> "list[list[dict]]":
        """Pass ``pass_index``'s jobs, per client, drawn from the seed."""
        rng = np.random.default_rng([self.seed, 31, pass_index])
        per_client: "list[list[dict]]" = [[] for _ in range(CLIENTS)]
        for _ in range(self.jobs_per_client):
            seed = int(rng.integers(0, 2**31))
            shared = float(rng.uniform(0.0, 12.0))
            for jobs in per_client:
                jobs.append({
                    "kind": "ber_sweep",
                    "frames": self.frames,
                    "payload_symbols": PAYLOAD_SYMBOLS,
                    "seed": seed,
                    "sweep": {
                        "field": "snr_db",
                        "values": [float(rng.uniform(0.0, 12.0)), shared],
                    },
                })
        return per_client

    def setup(self) -> None:
        from repro.serve.client import ServeClient

        self.log_path = self.work_dir / "serve.log"
        self.log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(self.work_dir / "serve-cache")],
            stdout=self.log, stderr=subprocess.STDOUT, cwd=harness.ROOT,
        )
        self.address = self._wait_for_address()
        self.clients = [ServeClient(*self.address) for _ in range(CLIENTS)]
        # First-call caches in the server belong to setup.
        self.clients[0].run({
            "kind": "ber", "frames": 1, "payload_symbols": PAYLOAD_SYMBOLS,
            "seed": 2**40 + self.seed,
        })

    def _wait_for_address(self) -> "tuple[str, int]":
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("serving on "):
                    host, _, port = line.split()[-1].rpartition(":")
                    return host, int(port)
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            "repro serve did not announce its address:\n" + self.log_path.read_text()
        )

    def _status_counters(self) -> "dict[str, int]":
        status = self.clients[0].status()
        counters = status["counters"]
        session = status["store"]["session"]
        return {
            "points_computed": counters["points_computed"],
            "points_deduped": counters["points_deduped"],
            "jobs_rejected": counters["jobs_rejected"],
            "store_hits": session["hits"],
            "store_misses": session["misses"],
        }

    def prepare(self, traced: bool) -> None:
        if traced:
            self.counters_before = self._status_counters()

    def cleanup(self, traced: bool) -> None:
        if traced:
            after = self._status_counters()
            for name, value in after.items():
                self.counter_deltas[name] += value - self.counters_before[name]
            self.traced_passes += 1

    def run_pass(self, traced: bool) -> harness.PassResult:
        pass_index = self.passes
        self.passes += 1
        jobs = self.jobs(pass_index)
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            futures = [
                pool.submit(self._client_loop, self.clients[number], jobs[number], traced)
                for number in range(CLIENTS)
            ]
            served = [future.result() for future in futures]
        result = harness.PassResult(frames=0, latencies_s=[])
        for number, client_jobs in enumerate(served):
            for job_index, job in enumerate(client_jobs):
                result.latencies_s.append(job.latency_s)
                for point_index, point in enumerate(job.points):
                    key = (pass_index, number, job_index, point_index)
                    result.outputs[key] = point
                    self.specs[key] = (jobs[number][job_index], point_index)
                    result.frames += self.frames
        return result

    def _client_loop(self, client, jobs: "list[dict]", traced: bool) -> "list[_Job]":
        served = []
        for job in jobs:
            served.append(self._run_job(client, job, traced))
            if traced:
                # One control-plane request between jobs, while the other
                # client's job runs.
                started = time.perf_counter()
                client.status()
                self.trace["status_rtt_s"].append(time.perf_counter() - started)
        return served

    def _run_job(self, client, job: dict, traced: bool) -> _Job:
        from repro.serve.client import JobResult
        from repro.serve.protocol import JobRejected

        points = len(job["sweep"]["values"])
        submitted = time.perf_counter()
        try:
            client_id = client.submit(job)
        except JobRejected:
            self.rejected += 1
            return _Job(time.perf_counter() - submitted, [None] * points)
        accepted = time.perf_counter()
        payloads: "dict[int, dict]" = {}
        arrivals: "list[float]" = []
        for message in client.events(client_id):
            if message.get("type") == "point":
                payloads[int(message["index"])] = message["payload"]
                arrivals.append(time.perf_counter())
        latency = time.perf_counter() - submitted
        if traced and arrivals:
            self.trace["admission_s"].append(accepted - submitted)
            self.trace["first_point_s"].append(arrivals[0] - accepted)
            self.trace["gap_s"] += list(np.diff(arrivals))
        return _Job(latency, [
            JobResult(kind=job["kind"], points=[payloads[index]], meta=[{}]).ber_points()[0]
            if index in payloads else None
            for index in range(points)
        ])

    def check(self, passes: "list[harness.PassResult]") -> "set":
        """Served points that differ from a direct engine run of the same spec.

        A point that failed, was rejected or is missing counts as failed.
        """
        from repro.serve.protocol import parse_job
        from repro.sim.engine import run_downlink_trials

        direct: dict = {}
        bad = set()
        for result in passes:
            for key, point in result.outputs.items():
                job, index = self.specs[key]
                spec = parse_job(job).points[index]
                if spec not in direct:
                    direct[spec] = run_downlink_trials(
                        spec.trial_config(), rng=spec.seed, execution=batched_plan()
                    )
                if point is None or point != direct[spec]:
                    bad.add(key)
        return bad

    def layer_metrics(self, untraced: "list[harness.PassResult]") -> "dict":
        trace = self.trace
        deltas = self.counter_deltas
        lookups = deltas["store_hits"] + deltas["store_misses"]
        return {
            "serve.admission_ms_p50": (harness.median(trace["admission_s"]) * 1e3, "ms"),
            "serve.first_point_ms_p50": (
                harness.median(trace["first_point_s"]) * 1e3, "ms"),
            "serve.point_gap_ms_p50": (harness.median(trace["gap_s"]) * 1e3, "ms"),
            "serve.status_rtt_ms_p90": (
                harness.quantile(trace["status_rtt_s"], 0.9) * 1e3, "ms"),
            "serve.points_computed": (
                deltas["points_computed"] / self.traced_passes, "count"),
            "serve.points_deduped": (
                deltas["points_deduped"] / self.traced_passes, "count"),
            "serve.store_hit_ratio": (
                deltas["store_hits"] / lookups if lookups else 0.0, "ratio"),
            "serve.rejected": (deltas["jobs_rejected"] + self.rejected, "count"),
        }

    def close(self) -> None:
        from repro.errors import ServeError
        from repro.serve.client import ServeClient

        for client in self.clients:
            client.close()
        if self.process is None:
            return
        try:
            with ServeClient(*self.address) as control:
                control.shutdown_server()
        except (OSError, ServeError, AttributeError):
            pass
        try:
            self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30.0)
        self.log.close()
