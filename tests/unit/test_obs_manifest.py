"""Run-manifest ledger: lifecycle, durability, hooks, report/diff."""

import io
import json
import os

import numpy as np
import pytest

from repro import obs
from repro.obs import manifest, metrics
from repro.obs.report import render_diff, render_run_report, render_runs_table


def enable(**kwargs):
    kwargs.setdefault("export_env", False)
    kwargs.setdefault("stream", io.StringIO())
    return obs.configure(**kwargs)


@pytest.fixture(autouse=True)
def _manifest_isolation():
    yield
    manifest.discard()


class TestLifecycle:
    def test_begin_writes_running_manifest_immediately(self, tmp_path):
        recorder = manifest.begin(tmp_path, command="ber")
        data = manifest.load(tmp_path, recorder.run_id)
        assert data["status"] == "running"
        assert data["schema_version"] == manifest.MANIFEST_SCHEMA_VERSION
        assert "wall_clock_s" not in data

    def test_finalize_marks_complete_with_wall_clock(self, tmp_path):
        recorder = manifest.begin(tmp_path, argv=["ber", "--frames", "4"],
                                  command="ber")
        path = manifest.finalize(0)
        assert path == recorder.path
        data = manifest.load(tmp_path, recorder.run_id)
        assert data["status"] == "complete"
        assert data["exit_code"] == 0
        assert data["wall_clock_s"] >= 0.0
        assert data["argv"] == ["ber", "--frames", "4"]
        assert manifest.active() is None

    def test_crash_leaves_partial_marked_manifest(self, tmp_path):
        recorder = manifest.begin(tmp_path, command="soak")
        # Simulated crash: the process dies before finalize.
        manifest.discard()
        data = manifest.load(tmp_path, recorder.run_id)
        assert data["status"] == "running"

    def test_no_tmp_leftovers_after_finalize(self, tmp_path):
        manifest.begin(tmp_path)
        manifest.finalize(0)
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_repeat_runs_get_distinct_ledger_entries(self, tmp_path):
        first = manifest.begin(tmp_path, run_id="rsame")
        manifest.finalize(0)
        second = manifest.begin(tmp_path, run_id="rsame")
        manifest.finalize(0)
        assert first.run_id != second.run_id
        assert len(manifest.list_runs(tmp_path)) == 2

    def test_adopts_obs_run_id(self, tmp_path):
        run_id = enable()
        recorder = manifest.begin(tmp_path)
        assert recorder.run_id == run_id

    def test_finalize_without_active_recorder_is_noop(self):
        assert manifest.finalize(0) is None

    def test_notes_without_active_recorder_are_noops(self):
        manifest.note_adaptive({"frames": 1})
        manifest.note_cache(hit=True)
        manifest.note_store_put("f" * 64)
        manifest.note_sweep("s", 1, 0, 1)


class TestSchemaVersioning:
    def test_newer_schema_rejected(self, tmp_path):
        path = manifest.manifest_path(tmp_path, "future")
        with open(path, "w") as handle:
            json.dump({"schema_version": manifest.MANIFEST_SCHEMA_VERSION + 1,
                       "run_id": "future"}, handle)
        with pytest.raises(ValueError, match="schema"):
            manifest.load(tmp_path, "future")

    def test_missing_schema_rejected(self, tmp_path):
        path = manifest.manifest_path(tmp_path, "legacy")
        with open(path, "w") as handle:
            json.dump({"run_id": "legacy"}, handle)
        with pytest.raises(ValueError, match="schema_version"):
            manifest.load(tmp_path, "legacy")

    def test_unknown_run_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            manifest.load(tmp_path, "ghost")

    def test_list_runs_empty_dir(self, tmp_path):
        assert manifest.list_runs(tmp_path / "missing") == []


class TestHooks:
    def test_map_trials_notes_execution(self, tmp_path):
        from repro.sim.executor import ExecutionPlan, map_trials

        recorder = manifest.begin(tmp_path, command="test")
        map_trials(_double_chunk, None, 10, 0, ExecutionPlan(chunk_size=4))
        manifest.finalize(0)
        data = manifest.load(tmp_path, recorder.run_id)
        assert data["execution"]["maps"] == 1
        assert data["execution"]["trials"] == 10
        assert data["execution"]["chunks"] == 3
        assert data["execution"]["faults"]["retries"] == 0

    def test_records_requested_and_effective_workers(self, tmp_path, monkeypatch):
        import os

        from repro.sim.executor import ExecutionPlan, map_trials

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        recorder = manifest.begin(tmp_path, command="test")
        map_trials(_double_chunk, None, 16, 0, ExecutionPlan(workers=4))
        manifest.finalize(0)
        data = manifest.load(tmp_path, recorder.run_id)
        assert data["execution"]["workers"] == {"requested": 4, "effective": 2}

    def test_store_traffic_and_fingerprints_recorded(self, tmp_path):
        from repro.store import ExperimentStore

        store = ExperimentStore(tmp_path / "cache")
        recorder = manifest.begin(tmp_path / "ledger")
        fingerprint = "a" * 64
        assert store.get(fingerprint) is None  # miss
        store.put(fingerprint, "test-kind", {"value": 1.0})
        assert store.get(fingerprint) is not None  # hit
        manifest.finalize(0)
        data = manifest.load(tmp_path / "ledger", recorder.run_id)
        assert data["store"]["hits"] == 1
        assert data["store"]["misses"] == 1
        assert data["store"]["puts"] == 1
        assert data["store"]["fingerprints_seen"] == 1
        assert data["store"]["fingerprint_sample"] == [fingerprint]

    def test_sweep_notes_label_and_cache_split(self, tmp_path):
        from repro.sim.sweep import sweep
        from repro.store import ExperimentStore

        store = ExperimentStore(tmp_path / "cache")
        recorder = manifest.begin(tmp_path / "ledger")
        sweep("warmup", [1.0, 2.0, 3.0], _sweep_eval, rng=0, store=store)
        sweep("warm", [1.0, 2.0, 3.0], _sweep_eval, rng=0, store=store)
        manifest.finalize(0)
        data = manifest.load(tmp_path / "ledger", recorder.run_id)
        labels = {entry["label"]: entry for entry in data["sweeps"]}
        assert labels["warmup"]["store_misses"] == 3
        assert labels["warm"]["store_hits"] == 3

    def test_adaptive_trajectories_recorded(self, tmp_path):
        from repro.sim.adaptive import AdaptiveConfig, run_adaptive_trials

        recorder = manifest.begin(tmp_path)
        run_adaptive_trials(
            _adaptive_chunk, None,
            AdaptiveConfig(min_frames=8, max_frames=16, batch_frames=8,
                           target_rel_width=0.5),
            rng=0,
            counts=_adaptive_counts,
        )
        manifest.finalize(0)
        data = manifest.load(tmp_path, recorder.run_id)
        assert len(data["adaptive"]) == 1
        assert data["adaptive"][0]["frames"] >= 8
        assert "reason" in data["adaptive"][0]

    def test_metrics_snapshot_is_per_run_delta(self, tmp_path):
        enable()
        metrics.inc("pre.existing", 100)
        recorder = manifest.begin(tmp_path)
        metrics.inc("during.run", 3)
        manifest.finalize(0)
        data = manifest.load(tmp_path, recorder.run_id)
        assert data["metrics"]["counters"] == {"during.run": 3}

    def test_fault_event_cap_counts_drops(self, tmp_path):
        recorder = manifest.begin(tmp_path)
        events = [{"kind": "retry", "chunk": i}
                  for i in range(manifest.MAX_FAULT_EVENTS + 5)]
        recorder.note_execution(_FakeReport(events))
        manifest.finalize(0)
        data = manifest.load(tmp_path, recorder.run_id)
        assert len(data["fault_events"]) == manifest.MAX_FAULT_EVENTS
        assert data["fault_events_dropped"] == 5


class _FakeReport:
    def __init__(self, events):
        self._events = events

    def as_metadata(self):
        return {
            "num_trials": 0, "total_seconds": 0.0, "chunks": [],
            "faults": {"retries": len(self._events), "pool_rebuilds": 0,
                       "timeouts": 0, "events": self._events},
        }


def _double_chunk(payload, spec, indices):
    return [float(index) for index in indices]


def _sweep_eval(parameter, rng):
    return float(parameter * 2.0)


def _adaptive_chunk(payload, spec, indices):
    return [(int(spec.stream(index).random() < 0.3), 5) for index in indices]


def _adaptive_counts(result):
    return result


class TestDeterminism:
    def test_results_bit_exact_with_manifest_active(self, tmp_path):
        """Telemetry is one-way: recording a manifest changes nothing."""
        from repro.sim.executor import ExecutionPlan, map_trials

        def run():
            results, _report = map_trials(
                _noise_chunk, None, 32, 1234, ExecutionPlan(chunk_size=8)
            )
            return results

        baseline = run()
        enable()
        manifest.begin(tmp_path)
        with_manifest = run()
        manifest.finalize(0)
        assert with_manifest == baseline


def _noise_chunk(payload, spec, indices):
    return [float(spec.stream(index).standard_normal()) for index in indices]


class TestReportRendering:
    def _finalized(self, tmp_path, during=None, **kwargs):
        recorder = manifest.begin(tmp_path, **kwargs)
        if during is not None:
            during()
        manifest.note_cache(hit=True, fingerprint="b" * 64)
        manifest.note_adaptive({
            "frames": 120, "rounds": 3, "errors": 4, "bits": 600,
            "ci_low": 0.002, "ci_high": 0.02, "rel_width": 0.9,
            "reason": "ci_width",
        })
        manifest.finalize(0)
        return manifest.load(tmp_path, recorder.run_id)

    def test_report_contains_key_sections(self, tmp_path):
        enable()
        data = self._finalized(
            tmp_path, argv=["ber", "--frames", "9"], command="ber",
            config_fingerprint="cafe" * 16,
            during=lambda: metrics.observe("stage.seconds", 0.3),
        )
        text = render_run_report(data)
        assert "ber --frames 9" in text
        assert "stop=ci_width" in text
        assert "1 hits" in text
        assert "stage.seconds" in text
        assert "complete" in text

    def test_runs_table_lists_every_run(self, tmp_path):
        first = self._finalized(tmp_path, command="ber")
        second = self._finalized(tmp_path, command="robustness")
        table = render_runs_table([first, second])
        assert first["run_id"] in table
        assert second["run_id"] in table
        assert "robustness" in table

    def test_runs_table_empty(self):
        assert "no runs" in render_runs_table([])

    def test_diff_flags_config_change(self, tmp_path):
        a = self._finalized(tmp_path, config_fingerprint="aaaa")
        b = self._finalized(tmp_path, config_fingerprint="bbbb")
        text = render_diff(a, b)
        assert "[CHANGED]" in text
        assert "aaaa -> bbbb" in text

    def test_diff_reports_counter_deltas(self, tmp_path):
        enable()
        a = self._finalized(tmp_path)
        b = self._finalized(
            tmp_path, during=lambda: metrics.inc("extra.counter", 5)
        )
        text = render_diff(a, b)
        assert "extra.counter" in text

    def test_manifest_with_retired_fault_slot_renders_and_diffs(self, tmp_path):
        """Manifests written while ``serial_recovered_chunks`` existed."""
        new = self._finalized(tmp_path)
        old = self._finalized(tmp_path)
        old["execution"]["faults"]["serial_recovered_chunks"] = 0
        assert "0 retries" in render_run_report(old)
        assert "faults:" not in render_diff(old, new)
        old["execution"]["faults"]["retries"] = 1
        assert "faults:" in render_diff(old, new)


class TestAtomicWriteAlias:
    def test_public_alias_round_trips(self, tmp_path):
        from repro.store import atomic_write_bytes

        target = tmp_path / "nested" / "blob.json"
        atomic_write_bytes(target, b'{"ok": true}')
        assert json.loads(target.read_text()) == {"ok": True}
        assert not [n for n in os.listdir(target.parent)
                    if n.endswith(".tmp")]
