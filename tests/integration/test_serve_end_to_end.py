"""End-to-end serve integration: a real TCP server, the synchronous client.

Each test stands up a live :class:`repro.serve.server.ServerThread` on an
ephemeral port and talks to it through :class:`repro.serve.client.ServeClient`
— the full wire path: NDJSON framing, session dispatch, scheduler,
executor pool, store, and the streamed reassembly on the client side.

The determinism pins here are the PR's acceptance criteria:

* streamed results are **bit-identical** to the one-shot batch path for
  the same job spec (golden-anchored, so a silent engine change that
  shifts the numbers fails loudly);
* two concurrent identical submissions share **one** computation
  (asserted via the scheduler's dedup counters);
* a mid-stream client disconnect cancels that client's queued work
  without poisoning the shared pool for other clients;
* a saturated queue rejects deterministically with a retry hint.

Timing discipline: the single-worker servers pin determinism by keeping a
gate job occupying the only pool slot; everything submitted behind it is
provably still queued, so dedup/cancel assertions never race.
"""

import threading
import time

import pytest

from repro.serve.client import ServeClient
from repro.serve.protocol import JobRejected, parse_job
from repro.serve.server import ServeConfig, ServerThread
from repro.sim.engine import run_downlink_trials
from repro.sim.executor import ExecutionPlan
from repro.sim.robustness import RobustnessConfig, run_robustness_sweep
from repro.impair import ImpairmentSpec
from repro.sim.scenario import default_office_scenario

#: Small enough to stream in seconds, large enough to produce errors at 9 m.
BER_JOB = {"kind": "ber", "frames": 40, "seed": 0, "distance_m": 9.0}

#: Golden anchor for BER_JOB (pins the engine output, not just equality).
BER_GOLDEN = {"bit_errors": 23, "bits_total": 3200}


def serve_client(handle, **kwargs):
    return ServeClient(handle.host, handle.port, **kwargs)


class TestStreamedBitIdentity:
    def test_ber_job_matches_batch_path_and_golden(self):
        with ServerThread(ServeConfig(pool_workers=2)) as handle:
            with serve_client(handle) as client:
                result = client.run(BER_JOB)
        streamed = result.ber_point()
        # Golden anchor first: catches engine drift even if both paths
        # drift together at the API level.
        assert streamed.bit_errors == BER_GOLDEN["bit_errors"]
        assert streamed.bits_total == BER_GOLDEN["bits_total"]
        # Then full bit-identity against the direct batch computation.
        spec = parse_job(BER_JOB).points[0]
        batch = run_downlink_trials(spec.trial_config(), rng=BER_JOB["seed"])
        assert streamed == batch

    @pytest.mark.parametrize("plan, chunks", [
        (ExecutionPlan(), 1),
        (ExecutionPlan(workers=2, chunk_size=10), 4),
    ])
    def test_point_sends_one_progress_frame_per_chunk(self, plan, chunks):
        with ServerThread(ServeConfig(pool_workers=1, execution=plan)) as handle:
            with serve_client(handle) as client:
                result = client.run(BER_JOB)
        assert result.progress_frames == chunks
        assert result.ber_point().bit_errors == BER_GOLDEN["bit_errors"]

    def test_ber_sweep_matches_per_point_batch_runs(self):
        job = {
            "kind": "ber_sweep", "frames": 20, "seed": 1,
            "sweep": {"field": "symbol_bits", "values": [3, 5]},
        }
        with ServerThread(ServeConfig(pool_workers=2)) as handle:
            with serve_client(handle) as client:
                result = client.run(job)
        streamed = result.ber_points()
        assert len(streamed) == 2
        for spec, point in zip(parse_job(job).points, streamed):
            assert point == run_downlink_trials(spec.trial_config(), rng=1)

    def test_robustness_curve_matches_batch_sweep(self):
        job = {
            "kind": "robustness", "range_m": 2.0, "impair": "interference:0.5",
            "severities": [0.0, 1.0], "frames": 4, "downlink_bits": 10,
            "uplink_bits": 4, "seed": 0,
        }
        with ServerThread(ServeConfig(pool_workers=2)) as handle:
            with serve_client(handle) as client:
                curve = client.run(job).degradation_curve()
        batch = run_robustness_sweep(
            RobustnessConfig(
                scenario=default_office_scenario(tag_range_m=2.0),
                impairments=ImpairmentSpec.parse("interference:0.5"),
                severities=(0.0, 1.0),
                num_frames=4,
                downlink_bits=10,
                uplink_bits=4,
            ),
            rng=0,
        )
        assert curve.to_markdown() == batch.to_markdown()

    def test_serve_and_batch_share_store_entries(self, tmp_path):
        # Warm the cache through the serve path, then confirm a direct
        # batch run of the same spec is a pure store hit.
        cache_dir = str(tmp_path / "cache")
        job = {"kind": "ber", "frames": 8, "seed": 2}
        with ServerThread(ServeConfig(pool_workers=1,
                                      cache_dir=cache_dir)) as handle:
            with serve_client(handle) as client:
                streamed = client.run(job).ber_point()
        from repro.store import ExperimentStore

        store = ExperimentStore(cache_dir)
        spec = parse_job(job).points[0]
        assert store.contains(spec.fingerprint())
        warm = run_downlink_trials(spec.trial_config(), rng=2, store=store)
        assert warm == streamed
        assert store.session_hits == 1


class TestConcurrencyContracts:
    def test_concurrent_identical_submissions_share_one_computation(self):
        # One pool worker + a long blocker occupying the only slot: both
        # identical submissions land while their point is provably still
        # queued, so the second must subscribe instead of recompute.
        blocker = {"kind": "ber", "frames": 400, "seed": 7}
        dup = {"kind": "ber", "frames": 8, "seed": 3}
        with ServerThread(ServeConfig(pool_workers=1)) as handle:
            with serve_client(handle) as blocker_client, \
                    serve_client(handle) as first, \
                    serve_client(handle) as second:
                blocker_id = blocker_client.submit(blocker)
                first_id = first.submit(dup, job_id="dup-1")
                second_id = second.submit(dup, job_id="dup-2")

                results = {}

                def drain(client, client_id, key):
                    results[key] = [
                        m for m in client.events(client_id)
                        if m.get("type") == "point"
                    ]

                collectors = [
                    threading.Thread(target=drain, args=(first, first_id, "first")),
                    threading.Thread(target=drain, args=(second, second_id, "second")),
                ]
                for collector in collectors:
                    collector.start()
                drain(blocker_client, blocker_id, "blocker")
                for collector in collectors:
                    collector.join(timeout=60.0)
                    assert not collector.is_alive()
                status = second.status()

        (point_1,) = results["first"]
        (point_2,) = results["second"]
        assert point_1["payload"] == point_2["payload"]
        assert point_1["shared"] is True and point_2["shared"] is True
        counters = status["counters"]
        # blocker + dup computed once each; the duplicate subscribed.
        assert counters["points_computed"] == 2
        assert counters["points_deduped"] == 1
        assert counters["jobs_completed"] == 3
        assert status["inflight"]["shared"] == 1

    def test_disconnect_cancels_queued_work_without_poisoning_pool(self):
        blocker = {"kind": "ber", "frames": 400, "seed": 11}
        doomed = {
            "kind": "ber_sweep", "frames": 8, "seed": 12,
            "sweep": {"field": "distance_m", "values": [2.0, 4.0, 6.0]},
        }
        follow_up = {"kind": "ber", "frames": 8, "seed": 2}
        with ServerThread(ServeConfig(pool_workers=1)) as handle:
            victim = serve_client(handle)
            victim.submit(blocker, job_id="blocker")
            victim.submit(doomed, job_id="doomed")
            # Drop the socket mid-stream: the blocker point may be
            # running (it finishes into the pool), but every sweep point
            # is still queued behind it and must be cancelled.
            victim.close()
            with serve_client(handle) as watcher:
                deadline = 60.0
                start = time.monotonic()
                while True:
                    counters = watcher.status()["counters"]
                    if counters["points_cancelled"] >= 3:
                        break
                    assert time.monotonic() - start < deadline, counters
                    time.sleep(0.05)
                assert counters["jobs_cancelled"] == 2
                # The pool still serves other clients, bit-identically.
                streamed = watcher.run(follow_up).ber_point()
        spec = parse_job(follow_up).points[0]
        assert streamed == run_downlink_trials(spec.trial_config(), rng=2)

    def test_saturated_queue_rejects_with_retry_hint(self):
        blocker = {"kind": "ber", "frames": 400, "seed": 21}
        overflow = {"kind": "ber", "frames": 8, "seed": 22}
        config = ServeConfig(pool_workers=1, max_pending=1, retry_after_s=1.5)
        with ServerThread(config) as handle:
            with serve_client(handle) as client:
                blocker_id = client.submit(blocker)
                with pytest.raises(JobRejected) as rejected:
                    client.submit(overflow)
                assert rejected.value.retry_after_s == pytest.approx(1.5)
                # The admitted job still completes after the rejection.
                points = [
                    m for m in client.events(blocker_id)
                    if m.get("type") == "point"
                ]
                assert len(points) == 1


class TestControlPlane:
    def test_status_metrics_ping_and_error_frames(self):
        with ServerThread(ServeConfig(pool_workers=1)) as handle:
            with serve_client(handle) as client:
                client.ping()
                status = client.status()
                assert status["protocol"] == 1
                assert status["sessions"] == 1
                assert status["pending_points"] == 0
                metrics = client.metrics()
                assert "enabled" in metrics
            # Protocol violations answer with an error frame, not a drop.
            with serve_client(handle) as client:
                client._send({"type": "no-such-type"})
                reply = client._recv()
                assert reply["type"] == "error"
                assert "unknown message type" in reply["message"]
                client.ping()  # session still alive afterwards

    def test_status_store_block_matches_cache_stats_schema(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with ServerThread(ServeConfig(pool_workers=1,
                                      cache_dir=cache_dir)) as handle:
            with serve_client(handle) as client:
                client.run({"kind": "ber", "frames": 8, "seed": 2})
                store_stats = client.status()["store"]
        # Same document the CLI prints for `repro cache stats --json`.
        assert set(store_stats) == {
            "root", "entries", "kinds", "total_bytes", "array_files",
            "tmp_files", "corrupt", "session", "journal_entries",
            "journal_orphans",
        }
        assert store_stats["entries"] == 1
        assert store_stats["session"]["misses"] == 1

    def test_status_identity_fields(self):
        from repro import __version__

        with ServerThread(ServeConfig(pool_workers=1)) as handle:
            with serve_client(handle) as client:
                status = client.status()
        assert status["version"] == __version__
        assert status["uptime_s"] >= 0.0
        assert "run_id" in status
        assert status["running_points"] == 0

    def test_http_status_mirrors_ndjson_status(self):
        """`GET /status` and the NDJSON status frame expose the same
        document (modulo each transport's own envelope key)."""
        import json
        import urllib.request

        config = ServeConfig(pool_workers=1, metrics_port=0)
        with ServerThread(config) as handle:
            exporter = handle.server.exporter
            assert exporter is not None
            url = f"http://{exporter.host}:{exporter.port}"
            with urllib.request.urlopen(f"{url}/healthz", timeout=10) as reply:
                assert reply.read() == b"ok\n"
            with serve_client(handle) as client:
                client.run({"kind": "ber", "frames": 8, "seed": 2})
                ndjson_status = client.status()
                with urllib.request.urlopen(
                    f"{url}/status", timeout=10
                ) as reply:
                    http_status = json.loads(reply.read())
                with urllib.request.urlopen(
                    f"{url}/metrics", timeout=10
                ) as reply:
                    exposition = reply.read().decode()
        assert set(http_status) - {"pid"} == set(ndjson_status) - {"type"}
        assert http_status["version"] == ndjson_status["version"]
        assert http_status["counters"]["points_computed"] == 1
        from repro.obs.exporter import validate_exposition

        validate_exposition(exposition)

    def test_client_shutdown_frame_stops_server(self):
        with ServerThread(ServeConfig(pool_workers=1)) as handle:
            with serve_client(handle) as client:
                client.run({"kind": "ber", "frames": 8, "seed": 2})
                client.shutdown_server()
            handle._thread.join(timeout=30.0)
            assert not handle._thread.is_alive()
