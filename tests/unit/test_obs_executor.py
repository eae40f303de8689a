"""Observability through the executor: merged logs, worker metrics, traces.

The acceptance scenario for the observability layer: a parallel, faulted
Monte-Carlo run must produce ONE merged JSON-lines log and ONE Chrome
trace file, with chunk spans, retry events, and store traffic all
attributable to the correct chunk/trial indices — while the computed
values stay bit-identical to a serial, observability-off run.

Injection helpers mirror ``test_faults.py``: module-level (picklable),
failing exactly once via a durable flag file.
"""

import json
import os

import pytest

from repro import obs
from repro.obs import tracing
from repro.sim.executor import ExecutionPlan, map_trials, strip_execution
from repro.sim.sweep import sweep
from repro.utils.rng import SeedSpec


def _values(spec, indices):
    return [float(spec.stream(index).uniform()) for index in indices]


def _echo_chunk(payload, spec, indices):
    return _values(spec, indices)


def _counting_chunk(payload, spec, indices):
    """A chunk that also increments a metric inside the worker."""
    obs.inc("test.trials", len(indices))
    obs.observe("test.trial_seconds", 0.001 * len(indices))
    return _values(spec, indices)


def _crash_once_chunk(payload, spec, indices):
    """Raise the first time the chosen trial index is dispatched."""
    flag_path, crash_index = payload
    if crash_index in indices and not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("tripped")
            handle.flush()
            os.fsync(handle.fileno())
        raise RuntimeError(f"injected fault at trial {crash_index}")
    return _values(spec, indices)


def _sweep_eval(parameter, stream):
    return parameter + stream.uniform()


@pytest.fixture()
def obs_run(tmp_path):
    """Full observability: JSON-lines into a shared file + tracing on."""
    log_file = tmp_path / "run.log"
    trace_dir = tmp_path / "traces"
    run = obs.configure(
        log_format="json",
        log_file=str(log_file),
        trace_dir=str(trace_dir),
        run_id=None,
        export_env=True,  # pool workers must join this run
    )
    return run, log_file, trace_dir


def _read_log(log_file):
    return [json.loads(line) for line in log_file.read_text().splitlines() if line]


class TestMergedTelemetry:
    def test_faulted_parallel_run_produces_one_log_and_one_trace(self, obs_run):
        run, log_file, trace_dir = obs_run
        flag = log_file.parent / "crash.flag"
        plan = ExecutionPlan(workers=4, chunk_size=4, max_retries=2)
        spec = SeedSpec.from_rng(11)

        results, report = map_trials(
            _crash_once_chunk, (str(flag), 7), 20, spec, plan
        )

        # Values recovered bit-identically despite the injected fault.
        baseline, _ = map_trials(_echo_chunk, None, 20, SeedSpec.from_rng(11), None)
        assert results == baseline
        assert report.retries == 1

        events = _read_log(log_file)
        assert events, "expected a merged JSON-lines log"
        # One run id across parent and all workers.
        assert {event["run"] for event in events} == {run}

        # The retry event is attributed to the chunk owning trial 7
        # (chunk_size=4 -> trial 7 lives in chunk 1).
        [retry] = [e for e in events if e["event"] == "executor.chunk.retry"]
        assert retry["chunk"] == 1
        assert retry["kind"] == "raise"
        assert "injected fault at trial 7" in retry["error"]

        # Dispatch events carry the chunk's starting trial index.
        dispatches = [e for e in events if e["event"] == "executor.chunk.dispatch"]
        assert {(e["chunk"], e["start_index"]) for e in dispatches} >= {
            (0, 0), (1, 4), (2, 8), (3, 12), (4, 16)
        }
        # Chunk 1 was dispatched twice: original + retry.
        assert sum(1 for e in dispatches if e["chunk"] == 1) == 2

        # Exactly one trace file for the whole run, with worker spans.
        [trace_file] = sorted(trace_dir.glob("trace_*.json"))
        assert trace_file == tracing.trace_path(trace_dir, run)
        spans = tracing.read_trace_events(trace_file)
        chunk_spans = [s for s in spans if s["name"] == "pool.chunk"]
        assert {s["args"]["chunk"] for s in chunk_spans} == {0, 1, 2, 3, 4}
        assert len({s["pid"] for s in chunk_spans}) > 1  # spans from workers
        [retry_mark] = [s for s in spans if s["name"] == "executor.chunk.retry"]
        assert retry_mark["args"]["chunk"] == 1

    def test_worker_metrics_merge_into_parent(self, obs_run):
        _, _, _ = obs_run
        plan = ExecutionPlan(workers=2, chunk_size=5)
        map_trials(_counting_chunk, None, 20, SeedSpec.from_rng(3), plan)
        snap = obs.snapshot()
        # Counters incremented inside worker processes arrive in full.
        assert snap["counters"]["test.trials"] == 20
        assert snap["counters"]["executor.trials.completed"] == 20
        assert snap["counters"]["executor.chunks.completed"] == 4
        assert snap["histograms"]["test.trial_seconds"]["count"] == 4

    def test_serial_path_counts_once(self, obs_run):
        map_trials(_counting_chunk, None, 12, SeedSpec.from_rng(3), None)
        snap = obs.snapshot()
        # Serial chunks increment the parent registry directly; the
        # chunk-delta merge must not double-count them.
        assert snap["counters"]["test.trials"] == 12
        assert snap["counters"]["executor.trials.completed"] == 12


class TestPoolLeaseTelemetry:
    def test_pool_starts_and_reuses_counted(self, obs_run):
        plan = ExecutionPlan(workers=2, chunk_size=2)
        map_trials(_echo_chunk, None, 8, SeedSpec.from_rng(1), plan)
        counters = obs.snapshot()["counters"]
        assert counters["executor.pool.starts"] == 1
        assert "executor.pool.reuses" not in counters
        map_trials(_echo_chunk, None, 8, SeedSpec.from_rng(2), plan)
        counters = obs.snapshot()["counters"]
        assert counters["executor.pool.starts"] == 1
        assert counters["executor.pool.reuses"] == 1

    def test_pool_counters_silent_while_disabled(self):
        obs.reset()
        plan = ExecutionPlan(workers=2, chunk_size=2)
        map_trials(_echo_chunk, None, 8, SeedSpec.from_rng(1), plan)
        map_trials(_echo_chunk, None, 8, SeedSpec.from_rng(2), plan)
        assert obs.snapshot()["counters"] == {}

    def test_cli_profile_shows_pool_start(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        assert main(["ber", "--frames", "8", "--workers", "2", "--profile"], out=out) == 0
        assert "executor.pool.starts" in out.getvalue()


class TestStoreTelemetry:
    def test_sweep_cache_traffic_in_log(self, obs_run, tmp_path):
        from repro.store import ExperimentStore

        _, log_file, _ = obs_run
        store = ExperimentStore(tmp_path / "cache")
        params = [1.0, 2.0, 3.0]

        sweep("warmup", params, _sweep_eval, rng=5, store=store)
        cold = [e for e in _read_log(log_file) if e["event"] == "sweep.cache"]
        assert cold[-1]["hits"] == 0 and cold[-1]["misses"] == 3

        sweep("warm", params, _sweep_eval, rng=5, store=store)
        events = _read_log(log_file)
        warm = [e for e in events if e["event"] == "sweep.cache"]
        assert warm[-1]["hits"] == 3 and warm[-1]["misses"] == 0

        snap = obs.snapshot()
        assert snap["counters"]["store.hits"] == 3
        assert snap["counters"]["store.misses"] == 3
        assert "store.corrupt_misses" not in snap["counters"]
        assert snap["counters"]["store.puts"] == 3
        assert snap["histograms"]["store.fingerprint_seconds"]["count"] >= 6
        hits = [e for e in events if e["event"] == "store.hit"]
        assert len(hits) == 3
        assert all(e["kind"] == "sweep-point" for e in hits)

    def test_corrupt_entry_classified(self, obs_run, tmp_path):
        from repro.store import ExperimentStore

        store = ExperimentStore(tmp_path / "cache")
        store.put("a" * 64, "unit", {"x": 1})
        [record_path] = [
            p for p in (tmp_path / "cache").rglob("*.json")
            if p.name != "index.json"
        ]
        record_path.write_text("{not json")
        assert store.get("a" * 64) is None
        snap = obs.snapshot()
        assert snap["counters"]["store.corrupt_misses"] == 1
        assert snap["counters"]["store.misses"] == 1


class TestDeterminismWithObsEnabled:
    def test_parallel_equals_serial_with_full_telemetry(self, obs_run):
        serial, _ = map_trials(_echo_chunk, None, 24, SeedSpec.from_rng(9), None)
        parallel, _ = map_trials(
            _echo_chunk, None, 24, SeedSpec.from_rng(9),
            ExecutionPlan(workers=3, chunk_size=4),
        )
        assert serial == parallel

    def test_sweep_metadata_unchanged_by_obs(self, obs_run):
        with_obs = sweep("s", [1.0, 2.0], _sweep_eval, rng=2)
        obs.reset()
        without = sweep("s", [1.0, 2.0], _sweep_eval, rng=2)
        assert with_obs.values == without.values
        assert strip_execution(with_obs.metadata) == strip_execution(without.metadata)
