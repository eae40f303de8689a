"""Observability layer: runtime switch, events, metrics, tracing."""

import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import metrics, runtime, tracing


def enable(**kwargs):
    """Configure obs for a test without touching the real environment."""
    kwargs.setdefault("export_env", False)
    kwargs.setdefault("stream", io.StringIO())
    return obs.configure(**kwargs)


@pytest.fixture()
def obs_off(monkeypatch):
    """Force the disabled-by-default state for tests that assert it.

    The CI obs-determinism job runs the whole suite under
    ``REPRO_LOG=json``, which the session-level isolation fixture
    faithfully re-applies — so "disabled by default" must be staged
    explicitly here.
    """
    for name in (
        runtime.LOG_ENV, runtime.LOG_FILE_ENV,
        runtime.TRACE_DIR_ENV, runtime.RUN_ID_ENV,
    ):
        monkeypatch.delenv(name, raising=False)
    runtime.reset()


class TestRuntime:
    def test_disabled_by_default(self, obs_off):
        assert not obs.enabled()
        assert obs.run_id() is None
        assert obs.worker_config() is None

    def test_configure_enables_and_mints_run_id(self):
        run = enable()
        assert obs.enabled()
        assert obs.run_id() == run
        assert run.startswith("r")

    def test_configure_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            obs.configure(log_format="xml", export_env=False)

    def test_reset_disables(self):
        enable()
        obs.reset()
        assert not obs.enabled()
        assert obs.run_id() is None

    def test_export_env_mirrors_config(self, tmp_path):
        run = obs.configure(
            log_format="json", trace_dir=str(tmp_path), export_env=True
        )
        assert os.environ[runtime.LOG_ENV] == "json"
        assert os.environ[runtime.RUN_ID_ENV] == run
        assert os.environ[runtime.TRACE_DIR_ENV] == str(tmp_path)

    def test_configure_from_env_adopts_run_id(self, tmp_path):
        enabled = runtime.configure_from_env(
            {"REPRO_LOG": "json", "REPRO_RUN_ID": "r-parent"}
        )
        assert enabled
        assert obs.run_id() == "r-parent"
        assert runtime.log_format() == "json"

    def test_configure_from_env_noop_when_unset(self, obs_off):
        assert not runtime.configure_from_env({})
        assert not obs.enabled()

    def test_worker_config_round_trip(self, tmp_path):
        run = enable(log_format="json", trace_dir=str(tmp_path))
        config = obs.worker_config()
        obs.reset()
        obs.apply_worker_config(config)
        assert obs.enabled()
        assert obs.run_id() == run
        assert runtime.trace_dir() == str(tmp_path)

    def test_apply_worker_config_none_is_noop(self, obs_off):
        obs.apply_worker_config(None)
        assert not obs.enabled()


class TestEvents:
    def test_log_noop_while_disabled(self, obs_off, capsys):
        obs.log("nope", x=1)
        assert capsys.readouterr().err == ""

    def test_json_format(self):
        stream = io.StringIO()
        run = enable(log_format="json", stream=stream)
        obs.log("unit.test", alpha=1, beta="two")
        record = json.loads(stream.getvalue())
        assert record["event"] == "unit.test"
        assert record["run"] == run
        assert record["alpha"] == 1
        assert record["beta"] == "two"
        assert record["pid"] == os.getpid()
        assert "ts" in record and "mono" in record

    def test_console_format(self):
        stream = io.StringIO()
        run = enable(log_format="console", stream=stream)
        obs.log("unit.test", value=0.5)
        line = stream.getvalue()
        assert f"[{run}]" in line
        assert "unit.test" in line
        assert "value=0.5" in line

    def test_log_file_appends_whole_lines(self, tmp_path):
        target = tmp_path / "run.log"
        enable(log_format="json", log_file=str(target))
        obs.log("first", n=1)
        obs.log("second", n=2)
        lines = target.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["first", "second"]

    def test_broken_stream_is_silent(self):
        class Broken:
            def write(self, text):
                raise OSError("sink gone")

        enable(stream=Broken())
        obs.log("dropped")  # must not raise

    def test_non_serializable_field_stringified(self):
        stream = io.StringIO()
        enable(log_format="json", stream=stream)
        obs.log("odd", thing=object())
        assert "object" in json.loads(stream.getvalue())["thing"]


class TestMetrics:
    def test_noop_while_disabled(self, obs_off):
        obs.inc("never")
        obs.set_gauge("never", 1.0)
        obs.observe("never", 0.5)
        snap = obs.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_counters_gauges_histograms(self):
        enable()
        obs.inc("c", 2)
        obs.inc("c")
        obs.set_gauge("g", 4.5)
        obs.observe("h", 0.003)
        obs.observe("h", 2.0)
        snap = obs.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 4.5
        hist = snap["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(2.003)
        assert hist["min"] == pytest.approx(0.003)
        assert hist["max"] == pytest.approx(2.0)
        assert sum(hist["bucket_counts"]) == 2

    def test_histogram_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            metrics.Histogram((2.0, 1.0))

    def test_diff_snapshots_isolates_a_window(self):
        enable()
        obs.inc("c", 5)
        obs.observe("h", 0.1)
        before = obs.snapshot()
        obs.inc("c", 2)
        obs.observe("h", 0.2)
        delta = metrics.diff_snapshots(before, obs.snapshot())
        assert delta["counters"] == {"c": 2}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == pytest.approx(0.2)

    def test_diff_keeps_a_counter_made_at_zero_in_the_window(self):
        """A pool worker's first chunk must ship the counters it made,
        zero or not, or the merged profile loses them."""
        enable()
        obs.inc("old", 0)
        before = obs.snapshot()
        obs.inc("old", 0)
        obs.inc("new", 0)
        delta = metrics.diff_snapshots(before, obs.snapshot())
        assert delta["counters"] == {"new": 0}

    def test_diff_rejects_changed_edges(self):
        a = {"counters": {}, "gauges": {},
             "histograms": {"h": {"edges": [1.0], "bucket_counts": [1, 0],
                                  "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5}}}
        b = {"counters": {}, "gauges": {},
             "histograms": {"h": {"edges": [2.0], "bucket_counts": [2, 0],
                                  "count": 2, "sum": 1.0, "min": 0.5, "max": 0.5}}}
        with pytest.raises(ValueError):
            metrics.diff_snapshots(a, b)

    def test_merge_is_order_independent(self):
        enable()
        obs.observe("h", 0.1)
        obs.inc("c", 1)
        first = obs.snapshot()
        metrics._reset()
        obs.observe("h", 5.0)
        obs.inc("c", 2)
        second = obs.snapshot()
        ab = metrics.merge_snapshots(first, second)
        ba = metrics.merge_snapshots(second, first)
        assert ab["counters"] == ba["counters"] == {"c": 3}
        assert ab["histograms"]["h"]["count"] == 2
        assert ab["histograms"]["h"] == ba["histograms"]["h"]

    def test_merge_into_registry_folds_worker_delta(self):
        enable()
        obs.inc("c", 1)
        delta = {"counters": {"c": 4}, "gauges": {"g": 9.0},
                 "histograms": {}}
        metrics.merge_into_registry(delta)
        snap = obs.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 9.0


class TestSnapshotAlgebra:
    """Hardening for merge/diff: malformed inputs fail loudly, clean
    inputs obey the algebraic laws the executor's fold relies on."""

    EDGES = (0.1, 1.0, 10.0)

    def _snap(self, values=(), counter=0):
        snap = {"counters": {}, "gauges": {}, "histograms": {}}
        if counter:
            snap["counters"]["c"] = counter
        if values:
            histogram = metrics.Histogram(self.EDGES)
            for value in values:
                histogram.observe(value)
            snap["histograms"]["h"] = histogram.as_dict()
        return snap

    def test_merge_rejects_bucket_count_length_mismatch(self):
        bad = {"counters": {}, "gauges": {},
               "histograms": {"h": {"edges": [1.0, 2.0],
                                    "bucket_counts": [1, 2],  # want 3
                                    "count": 3, "sum": 1.0}}}
        with pytest.raises(ValueError, match="bucket counts"):
            metrics.merge_snapshots(metrics.empty_snapshot(), bad)
        with pytest.raises(ValueError, match="bucket counts"):
            metrics.diff_snapshots(metrics.empty_snapshot(), bad)
        with pytest.raises(ValueError, match="bucket counts"):
            metrics.merge_into_registry(bad)

    def test_merge_rejects_missing_and_unsorted_edges(self):
        for edges in ([], [2.0, 1.0]):
            bad = {"counters": {}, "gauges": {},
                   "histograms": {"h": {"edges": edges,
                                        "bucket_counts": [0] * (len(edges) + 1),
                                        "count": 0, "sum": 0.0}}}
            with pytest.raises(ValueError, match="edges"):
                metrics.merge_snapshots(metrics.empty_snapshot(), bad)

    def test_merge_rejects_mismatched_edges(self):
        a = self._snap(values=[0.5])
        b = self._snap(values=[0.5])
        b["histograms"]["h"]["edges"] = [0.2, 1.0, 10.0]
        with pytest.raises(ValueError, match="mismatched edges"):
            metrics.merge_snapshots(a, b)

    def test_merge_tolerates_missing_min_max(self):
        sparse = {"counters": {}, "gauges": {},
                  "histograms": {"h": {"edges": list(self.EDGES),
                                       "bucket_counts": [0, 1, 0, 0],
                                       "count": 1, "sum": 0.5}}}
        merged = metrics.merge_snapshots(self._snap(values=[5.0]), sparse)
        hist = merged["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["min"] == pytest.approx(5.0)
        assert hist["max"] == pytest.approx(5.0)

    def test_gauge_conflict_takes_extra_value(self):
        a = {"counters": {}, "gauges": {"g": 1.0}, "histograms": {}}
        b = {"counters": {}, "gauges": {"g": 9.0}, "histograms": {}}
        assert metrics.merge_snapshots(a, b)["gauges"]["g"] == 9.0
        assert metrics.merge_snapshots(b, a)["gauges"]["g"] == 1.0

    def test_empty_snapshot_is_merge_identity(self):
        snap = self._snap(values=[0.05, 0.5, 50.0], counter=7)
        empty = metrics.empty_snapshot()
        left = metrics.merge_snapshots(empty, snap)
        right = metrics.merge_snapshots(snap, empty)
        assert left == right
        assert left["counters"] == snap["counters"]
        assert left["histograms"]["h"] == snap["histograms"]["h"]

    def test_diff_of_identical_snapshots_is_empty(self):
        snap = self._snap(values=[0.5, 2.0], counter=3)
        delta = metrics.diff_snapshots(snap, snap)
        assert delta["counters"] == {}
        assert delta["histograms"] == {}

    @given(
        values_a=st.lists(st.integers(0, 100).map(float), max_size=20),
        values_b=st.lists(st.integers(0, 100).map(float), max_size=20),
        count_a=st.integers(0, 1000),
        count_b=st.integers(0, 1000),
    )
    @settings(deadline=None, max_examples=50)
    def test_merge_commutes(self, values_a, values_b, count_a, count_b):
        a = self._snap(values_a, count_a)
        b = self._snap(values_b, count_b)
        assert metrics.merge_snapshots(a, b) == metrics.merge_snapshots(b, a)

    @given(
        values=st.lists(
            st.lists(st.integers(0, 100).map(float), max_size=10),
            min_size=3, max_size=3,
        ),
        counts=st.lists(st.integers(0, 1000), min_size=3, max_size=3),
    )
    @settings(deadline=None, max_examples=50)
    def test_merge_associates(self, values, counts):
        a, b, c = (self._snap(v, n) for v, n in zip(values, counts))
        left = metrics.merge_snapshots(metrics.merge_snapshots(a, b), c)
        right = metrics.merge_snapshots(a, metrics.merge_snapshots(b, c))
        assert left == right

    @given(
        before_values=st.lists(st.integers(0, 100).map(float), max_size=10),
        extra_values=st.lists(st.integers(0, 100).map(float), max_size=10),
        before_count=st.integers(0, 1000),
        extra_count=st.integers(0, 1000),
    )
    @settings(deadline=None, max_examples=50)
    def test_diff_inverts_merge_for_flows(
        self, before_values, extra_values, before_count, extra_count
    ):
        """merge(before, x) then diff(before, .) recovers x's flows."""
        before = self._snap(before_values, before_count)
        extra = self._snap(extra_values, extra_count)
        after = metrics.merge_snapshots(before, extra)
        delta = metrics.diff_snapshots(before, after)
        assert delta["counters"] == extra["counters"]
        if extra_values and "h" in delta["histograms"]:
            hist = delta["histograms"]["h"]
            want = extra["histograms"]["h"]
            assert hist["count"] == want["count"]
            assert hist["bucket_counts"] == want["bucket_counts"]
            assert hist["sum"] == pytest.approx(want["sum"])


class TestTracing:
    def test_span_noop_without_trace_dir(self, obs_off, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        enable()
        with obs.span("unit.block", x=1):
            pass  # no trace dir -> no trace file anywhere
        assert obs.trace_path() is None
        assert list(tmp_path.iterdir()) == []

    def test_span_observes_stage_seconds_without_trace_dir(self):
        enable()
        for _ in range(3):
            with obs.span("unit.stage"):
                pass
        hist = obs.snapshot()["histograms"]["unit.stage.seconds"]
        assert hist["count"] == 3
        assert hist["edges"] == list(obs.DEFAULT_SECONDS_BUCKETS)
        assert hist["min"] >= 0.0

    def test_failed_span_still_observes_its_duration(self):
        enable()
        with pytest.raises(RuntimeError):
            with obs.span("unit.fail"):
                raise RuntimeError("boom")
        assert obs.snapshot()["histograms"]["unit.fail.seconds"]["count"] == 1

    def test_span_writes_complete_event(self, tmp_path):
        enable(trace_dir=str(tmp_path))
        with obs.span("unit.block", chunk=3):
            pass
        [trace_file] = sorted(tmp_path.glob("trace_*.json"))
        [event] = tracing.read_trace_events(trace_file)
        assert event["name"] == "unit.block"
        assert event["ph"] == "X"
        assert event["args"]["chunk"] == 3
        assert event["pid"] == os.getpid()
        assert event["dur"] >= 0

    def test_span_records_error_type(self, tmp_path):
        enable(trace_dir=str(tmp_path))
        with pytest.raises(RuntimeError):
            with obs.span("unit.fail"):
                raise RuntimeError("boom")
        [trace_file] = sorted(tmp_path.glob("trace_*.json"))
        [event] = tracing.read_trace_events(trace_file)
        assert event["args"]["error"] == "RuntimeError"

    def test_instant_event(self, tmp_path):
        enable(trace_dir=str(tmp_path))
        obs.instant("unit.mark", reason="retry")
        [trace_file] = sorted(tmp_path.glob("trace_*.json"))
        [event] = tracing.read_trace_events(trace_file)
        assert event["ph"] == "i"
        assert event["args"]["reason"] == "retry"

    def test_reader_tolerates_torn_line(self, tmp_path):
        enable(trace_dir=str(tmp_path))
        obs.instant("kept")
        [trace_file] = sorted(tmp_path.glob("trace_*.json"))
        with open(trace_file, "a") as handle:
            handle.write('{"name": "torn", "ph"')  # writer killed mid-write
        events_read = tracing.read_trace_events(trace_file)
        assert [e["name"] for e in events_read] == ["kept"]

    def test_export_run_strict_json(self, tmp_path):
        run = enable(trace_dir=str(tmp_path))
        with obs.span("unit.block"):
            pass
        obs.write_metrics_snapshot()
        target = obs.export_run(tmp_path)
        data = json.loads(target.read_text())
        assert data["otherData"]["run"] == run
        assert [e["name"] for e in data["traceEvents"]] == ["unit.block"]
        assert "metrics" in data

    def test_export_run_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            obs.export_run(tmp_path)

    def test_list_runs_orders_by_mtime(self, tmp_path):
        (tmp_path / "trace_r-old.json").write_text("[\n")
        os.utime(tmp_path / "trace_r-old.json", (1, 1))
        (tmp_path / "trace_r-new.json").write_text("[\n")
        assert obs.list_runs(tmp_path) == ["r-old", "r-new"]


class TestDisabledOverheadShape:
    """The disabled path must not evaluate anything expensive."""

    def test_span_returns_shared_null_object(self, obs_off):
        assert obs.span("a") is obs.span("b")

    def test_events_and_metrics_early_return(self, obs_off):
        # A value whose str()/json encoding would raise proves the
        # helpers never touch their arguments while disabled.
        class Explosive:
            def __str__(self):
                raise AssertionError("evaluated while disabled")

        obs.log("event", field=Explosive())
        obs.inc("counter")
        obs.observe("histogram", 1.0)
