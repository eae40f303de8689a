"""``sweep-store``: many tiny downlink points through ``sweep`` with a store.

Each pass makes four ``sweep(..., store=ExperimentStore,
execution=ExecutionPlan(workers=2))`` calls of 16 points.  A seed-chosen
half of every sweep's points is already in the pass's fresh store
(copied from a template built during setup), so the timed pass reads
hits beside computing and fsync-writing misses.  The engine work per
point is tiny, so the time goes to ``sim.executor`` (pool start,
dispatch, IPC) and to ``store`` (fingerprint, get, fsync'd put).
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import time

import numpy as np

import pb_harness as harness
from pb_downlink import batched_plan, downlink_config
from repro.store import ExperimentStore

NAME = "sweep-store"
SWEEPS = 4
POINTS = 16
WORKERS = 2
POINT_FRAMES = 2
POINT_SYMBOLS = 4


class PointBer:
    """Sweep ``evaluate``: downlink BER of one tiny point at ``snr_db``.

    A module-level callable class, so pool workers can unpickle it and
    the store fingerprints it by name and state.
    """

    def __init__(self, frames: int, payload_symbols: int) -> None:
        self.frames = frames
        self.payload_symbols = payload_symbols

    def point(self, snr_db: float, stream, execution):
        from repro.sim.engine import run_downlink_trials

        config = downlink_config(snr_db, self.frames, self.payload_symbols)
        return run_downlink_trials(config, rng=stream, execution=execution)

    def __call__(self, snr_db: float, stream) -> float:
        return self.point(snr_db, stream, batched_plan()).ber


class TimingStore(ExperimentStore):
    """An ``ExperimentStore`` that times its own ``get`` and ``put`` calls."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.get_hit_s: "list[float]" = []
        self.get_miss_s: "list[float]" = []
        self.put_s: "list[float]" = []
        self.bytes_written = 0
        self.last_get_end = 0.0

    def get(self, fingerprint):
        started = time.perf_counter()
        record = super().get(fingerprint)
        self.last_get_end = time.perf_counter()
        (self.get_miss_s if record is None else self.get_hit_s).append(
            self.last_get_end - started
        )
        return record

    def put(self, fingerprint, kind, payload, **kwargs):
        started = time.perf_counter()
        path = super().put(fingerprint, kind, payload, **kwargs)
        self.put_s.append(time.perf_counter() - started)
        self.bytes_written += path.stat().st_size
        return path


class ChunkLog:
    """``ExecutionPlan.progress`` hook: (arrival time, ChunkTiming) per chunk."""

    def __init__(self) -> None:
        self.arrivals: "list[tuple[float, object]]" = []

    def __call__(self, timing) -> None:
        self.arrivals.append((time.perf_counter(), timing))


class Workload(harness.Workload):
    name = NAME

    def __init__(self, seed: int, tiny: bool, work_dir) -> None:
        rng = np.random.default_rng([seed, 21])
        self.work_dir = pathlib.Path(work_dir)
        sweeps = 2 if tiny else SWEEPS
        points = 4 if tiny else POINTS
        self.evaluate = PointBer(POINT_FRAMES, POINT_SYMBOLS)
        step = 12.0 / points
        self.params = [
            [float(-4.0 + index * step + rng.uniform(0.0, step)) for index in range(points)]
            for _ in range(sweeps)
        ]
        self.sweep_seeds = [int(value) for value in rng.integers(0, 2**31, sweeps)]
        self.prefilled = [
            {int(index) for index in rng.permutation(points)[: points // 2]}
            for _ in range(sweeps)
        ]
        self.passes = 0
        self.bad_hit_sweeps: "set[int]" = set()
        self.trace: "dict[str, list[float]]" = {
            name: [] for name in (
                "pool_start_s", "efficiency", "overhead_s", "speedup",
                "point_overhead_s", "fingerprint_s", "get_hit_s", "get_miss_s", "put_s",
            )
        }
        self.faults = {"retries": 0, "pool_rebuilds": 0, "timeouts": 0}
        self.hits = self.misses = self.bytes_written = 0

    def setup(self) -> None:
        from repro.sim.executor import ExecutionPlan
        from repro.sim.sweep import sweep
        from repro.store import ReplayRecipe

        self.plan = ExecutionPlan(workers=WORKERS)
        # Every point once (this also starts the forkserver and a first
        # pool), then the seeded half re-put into the template store.
        full = ExperimentStore(self.work_dir / "full")
        self.reference = [
            sweep(NAME, params, self.evaluate, rng=seed, execution=self.plan,
                  store=full).values
            for params, seed in zip(self.params, self.sweep_seeds)
        ]
        seeded = {
            params[index]
            for params, chosen in zip(self.params, self.prefilled)
            for index in chosen
        }
        self.template = self.work_dir / "template"
        template = ExperimentStore(self.template)
        for fingerprint in full.fingerprints():
            record = full.get(fingerprint)
            if record["payload"]["parameter"] in seeded:
                replay = record.get("replay")
                template.put(
                    fingerprint, record["kind"], record["payload"],
                    replay=ReplayRecipe.decode(replay) if replay else None,
                )
        if len(template.fingerprints()) != len(seeded):
            raise RuntimeError("sweep-store template does not hold the seeded half")
        shutil.rmtree(full.root)

    def prepare(self, traced: bool) -> None:
        self.pass_dir = self.work_dir / f"pass-{self.passes}"
        self.passes += 1
        shutil.copytree(self.template, self.pass_dir)

    def _sweeps(self, store, plan, traced: bool) -> harness.PassResult:
        from repro.sim.sweep import sweep

        result = harness.PassResult(frames=0, latencies_s=[])
        for number, (params, seed) in enumerate(zip(self.params, self.sweep_seeds)):
            log = ChunkLog()
            started = time.perf_counter()
            swept = sweep(
                NAME, params, self.evaluate, rng=seed,
                execution=dataclasses.replace(plan, progress=log) if traced else plan,
                store=store,
            )
            result.latencies_s.append(time.perf_counter() - started)
            result.frames += len(params) * POINT_FRAMES
            for index, value in enumerate(swept.values):
                result.outputs[(number, index)] = value
            meta = swept.metadata["_execution"]
            if meta["store"]["hits"] != len(self.prefilled[number]):
                self.bad_hit_sweeps.add(number)
            if traced:
                self._note_execution(meta, log, store.last_get_end)
        return result

    def _note_execution(self, meta: "dict", log: ChunkLog, map_started: float) -> None:
        chunk_s = sum(chunk["seconds"] for chunk in meta["chunks"])
        workers = meta["workers"]
        self.trace["efficiency"].append(chunk_s / (workers * meta["total_seconds"]))
        self.trace["overhead_s"].append(meta["total_seconds"] - chunk_s / workers)
        arrival, first = log.arrivals[0]
        self.trace["pool_start_s"].append(arrival - map_started - first.seconds)
        for name in self.faults:
            self.faults[name] += meta["faults"][name]

    def run_pass(self, traced: bool) -> harness.PassResult:
        store = TimingStore(self.pass_dir) if traced else ExperimentStore(self.pass_dir)
        result = self._sweeps(store, self.plan, traced)
        if traced:
            self.trace["get_hit_s"] += store.get_hit_s
            self.trace["get_miss_s"] += store.get_miss_s
            self.trace["put_s"] += store.put_s
            self.hits += len(store.get_hit_s)
            self.misses += len(store.get_miss_s)
            self.bytes_written += store.bytes_written
            self.parallel_wall = sum(result.latencies_s)
        return result

    def cleanup(self, traced: bool) -> None:
        shutil.rmtree(self.pass_dir)
        if traced:
            self._trace_extras()

    def _trace_extras(self) -> None:
        """Per-layer timings taken outside the traced pass's wall time."""
        from repro.sim.executor import ExecutionPlan
        from repro.store import fingerprint
        from repro.utils.rng import SeedSpec

        # The sweep-point work unit, fingerprinted through the public call.
        for params, seed in zip(self.params, self.sweep_seeds):
            spec = SeedSpec.from_rng(seed)
            for index, parameter in enumerate(params):
                started = time.perf_counter()
                fingerprint("sweep-point", {
                    "evaluate": self.evaluate, "parameter": parameter,
                    "seed": spec.child(index),
                })
                self.trace["fingerprint_s"].append(time.perf_counter() - started)
        # The same misses at workers=1.
        serial_dir = self.work_dir / "serial"
        shutil.copytree(self.template, serial_dir)
        serial = self._sweeps(ExperimentStore(serial_dir), ExecutionPlan(), False)
        shutil.rmtree(serial_dir)
        self.trace["speedup"].append(sum(serial.latencies_s) / self.parallel_wall)
        # Engine-call wall minus its chunk seconds, on the parent.
        spec = SeedSpec.from_rng(self.sweep_seeds[0])
        for index, parameter in enumerate(self.params[0]):
            log = ChunkLog()
            started = time.perf_counter()
            self.evaluate.point(parameter, spec.stream(index), batched_plan(progress=log))
            wall = time.perf_counter() - started
            self.trace["point_overhead_s"].append(
                wall - sum(timing.seconds for _, timing in log.arrivals)
            )

    def check(self, passes: "list[harness.PassResult]") -> "set":
        """Operation keys that failed a check.

        Every point must equal the value computed during setup (hits and
        misses alike), each sweep must hit exactly the seeded half, and
        the first sweep is recomputed serially without a store.
        """
        from repro.sim.executor import ExecutionPlan
        from repro.sim.sweep import sweep

        bad = harness.inconsistent_keys(passes)
        for key, value in passes[0].outputs.items():
            number, index = key
            if value != self.reference[number][index]:
                bad.add(key)
        for number in self.bad_hit_sweeps:
            bad |= {(number, index) for index in range(len(self.params[number]))}
        serial = sweep(
            NAME, self.params[0], self.evaluate, rng=self.sweep_seeds[0],
            execution=ExecutionPlan(),
        ).values
        bad |= {
            (0, index) for index, value in enumerate(serial)
            if value != self.reference[0][index]
        }
        return bad

    def layer_metrics(self, untraced: "list[harness.PassResult]") -> "dict":
        trace = self.trace
        puts = len(trace["put_s"])
        return {
            "sim.engine.point_overhead_ms": (
                harness.median(trace["point_overhead_s"]) * 1e3, "ms"),
            "sim.executor.pool_start_s": (harness.median(trace["pool_start_s"]), "s"),
            "sim.executor.parallel_efficiency": (
                harness.median(trace["efficiency"]), "ratio"),
            "sim.executor.overhead_s": (harness.median(trace["overhead_s"]), "s"),
            "sim.executor.speedup_vs_serial": (harness.median(trace["speedup"]), "ratio"),
            "sim.executor.retries": (self.faults["retries"], "count"),
            "sim.executor.pool_rebuilds": (self.faults["pool_rebuilds"], "count"),
            "sim.executor.timeouts": (self.faults["timeouts"], "count"),
            "store.fingerprint_us_p50": (harness.median(trace["fingerprint_s"]) * 1e6, "us"),
            "store.get_hit_us_p50": (harness.median(trace["get_hit_s"]) * 1e6, "us"),
            "store.get_miss_us_p50": (harness.median(trace["get_miss_s"]) * 1e6, "us"),
            "store.put_ms_p50": (harness.median(trace["put_s"]) * 1e3, "ms"),
            "store.hit_ratio": (self.hits / (self.hits + self.misses), "ratio"),
            "store.bytes_written_per_point": (self.bytes_written / puts, "B"),
        }
