"""Deterministic unit tests for the serve scheduler.

These drive :class:`repro.serve.scheduler.JobScheduler` directly on a
private event loop with synthetic point specs (anything with ``kind``,
``fingerprint()`` and ``compute(execution, store, fingerprint)``
schedules), so the dedup / backpressure / cancellation / drain
contracts are pinned without TCP or real simulations.  Gated specs (a ``threading.Event`` the pool
thread blocks on) make the interleavings deterministic: with one pool
worker, everything submitted behind the gate is provably queued.
"""

import asyncio
import importlib
import threading
import time

from test_faults import _gone, _stall_once_pid_chunk

from repro.serve.protocol import ParsedJob, parse_job
from repro.serve.scheduler import JobScheduler
from repro.sim.executor import ExecutionPlan, map_trials
from repro.store import ExperimentStore

# The package re-exports ``fingerprint`` over its submodule's name.
store_fingerprint = importlib.import_module("repro.store.fingerprint")


class FakeSpec:
    """A synthetic schedulable point; fingerprint is keyed by name."""

    kind = "fake"

    def __init__(self, name, *, gate=None, fail=False, computed=None,
                 calls=None):
        self.name = name
        self.gate = gate
        self.fail = fail
        self.computed = computed
        self.calls = calls

    def fingerprint(self):
        return f"fp-{self.name}"

    def compute(self, execution, store, fingerprint=None):
        if self.calls is not None:
            self.calls.append(self.name)
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0), "test gate never released"
        if self.fail:
            raise RuntimeError("synthetic point failure")
        if self.computed is not None:
            self.computed.append(self.name)
        return {"name": self.name}


class StallingSpec(FakeSpec):
    """A point whose trial map stalls one worker past any deadline."""

    def __init__(self, name, payload):
        super().__init__(name)
        self.payload = payload

    def compute(self, execution, store, fingerprint=None):
        values, _report = map_trials(
            _stall_once_pid_chunk, self.payload, 2, rng=9, plan=execution
        )
        return {"name": self.name, "values": values}


class FakeSession:
    """Collects scheduler deliveries in order."""

    def __init__(self):
        self.messages = []
        self.finished = []

    def send(self, message):
        self.messages.append(message)

    def finish_job(self, job):
        self.finished.append(job.client_id)

    def of_type(self, message_type):
        return [m for m in self.messages if m["type"] == message_type]


class FakeStore:
    """Just enough store surface for the scheduler's ``cached`` flag."""

    def __init__(self):
        self.known = set()

    def contains(self, fingerprint):
        return fingerprint in self.known


def job_of(*specs, kind="fake"):
    return ParsedJob(kind=kind, points=tuple(specs))


async def eventually(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        await asyncio.sleep(0.005)


async def settled(scheduler):
    await eventually(lambda: scheduler._pending == 0)


class TestScheduler:
    def test_single_point_streams_point_then_done(self):
        async def scenario():
            scheduler = JobScheduler(pool_workers=1, max_pending=8)
            session = FakeSession()
            reply, job = scheduler.submit(session, "job-1", job_of(FakeSpec("a")))
            assert reply["type"] == "accepted"
            assert reply["points"] == 1
            await settled(scheduler)
            (point,) = session.of_type("point")
            assert point["index"] == 0
            assert point["payload"] == {"name": "a"}
            assert point["fingerprint"] == "fp-a"
            assert point["shared"] is False
            assert point["cached"] is False
            assert session.of_type("done") == [
                {"type": "done", "id": "job-1", "points": 1},
            ]
            assert session.finished == ["job-1"]
            assert scheduler.counters["jobs_completed"] == 1
            assert scheduler.counters["points_computed"] == 1
            assert len(scheduler.inflight) == 0
            await scheduler.close()

        asyncio.run(scenario())

    def test_concurrent_duplicates_share_one_computation(self):
        async def scenario():
            # One pool worker pinned on a gate guarantees the duplicate
            # submissions overlap while the point is still in flight.
            gate = threading.Event()
            computed = []
            scheduler = JobScheduler(pool_workers=1, max_pending=8)
            session_a, session_b = FakeSession(), FakeSession()
            scheduler.submit(
                session_a, "block", job_of(FakeSpec("block", gate=gate))
            )
            scheduler.submit(
                session_a, "dup-a", job_of(FakeSpec("dup", computed=computed))
            )
            scheduler.submit(
                session_b, "dup-b", job_of(FakeSpec("dup", computed=computed))
            )
            assert scheduler.counters["points_submitted"] == 2
            assert scheduler.counters["points_deduped"] == 1
            gate.set()
            await settled(scheduler)
            # Exactly one computation, delivered to both subscribers.
            assert computed == ["dup"]
            for session, client_id in ((session_a, "dup-a"), (session_b, "dup-b")):
                points = [
                    m for m in session.of_type("point") if m["id"] == client_id
                ]
                assert len(points) == 1
                assert points[0]["payload"] == {"name": "dup"}
                assert points[0]["shared"] is True
            assert scheduler.counters["points_computed"] == 2  # block + dup
            assert scheduler.counters["jobs_completed"] == 3
            await scheduler.close()

        asyncio.run(scenario())

    def test_saturated_queue_rejects_deterministically(self):
        async def scenario():
            gate = threading.Event()
            scheduler = JobScheduler(
                pool_workers=1, max_pending=2, retry_after_s=2.0
            )
            session = FakeSession()
            scheduler.submit(session, "j1", job_of(FakeSpec("a", gate=gate)))
            scheduler.submit(session, "j2", job_of(FakeSpec("b", gate=gate)))
            reply, job = scheduler.submit(session, "j3", job_of(FakeSpec("c")))
            assert job is None
            assert reply["type"] == "rejected"
            assert "queue full" in reply["reason"]
            # backlog = pending / (pool_workers * max_pending) = 1 round.
            assert reply["retry_after_s"] == 2.0
            assert scheduler.counters["jobs_rejected"] == 1
            # The rejected point left no trace.
            assert scheduler.inflight.peek("fp-c") is None
            assert scheduler._pending == 2
            gate.set()
            await settled(scheduler)
            await scheduler.close()

        asyncio.run(scenario())

    def test_admission_is_all_or_nothing_and_dedup_is_free(self):
        async def scenario():
            gate = threading.Event()
            scheduler = JobScheduler(pool_workers=1, max_pending=2)
            session = FakeSession()
            scheduler.submit(session, "j1", job_of(FakeSpec("a", gate=gate)))
            # Two new points would overflow: the whole job bounces, not half.
            reply, _ = scheduler.submit(
                session, "j2", job_of(FakeSpec("b"), FakeSpec("c"))
            )
            assert reply["type"] == "rejected"
            assert scheduler._pending == 1
            assert scheduler.inflight.fingerprints() == ["fp-a"]
            # A duplicate of the in-flight point costs no capacity, so a
            # (dup + one new) job fits where (two new) did not.
            reply, _ = scheduler.submit(
                session, "j3", job_of(FakeSpec("a", gate=gate), FakeSpec("d"))
            )
            assert reply["type"] == "accepted"
            assert scheduler._pending == 2
            gate.set()
            await settled(scheduler)
            await scheduler.close()

        asyncio.run(scenario())

    def test_cancel_drops_queued_points_before_they_run(self):
        async def scenario():
            gate = threading.Event()
            computed = []
            scheduler = JobScheduler(pool_workers=1, max_pending=8)
            session = FakeSession()
            scheduler.submit(
                session, "block", job_of(FakeSpec("block", gate=gate,
                                                  computed=computed))
            )
            _, job = scheduler.submit(
                session, "victim",
                job_of(FakeSpec("v1", computed=computed),
                       FakeSpec("v2", computed=computed)),
            )
            assert scheduler.cancel_job(job) == 2
            assert scheduler.counters["points_cancelled"] == 2
            assert scheduler._pending == 1
            gate.set()
            await settled(scheduler)
            # The cancelled points never reached the pool.
            assert computed == ["block"]
            # No frame ever went out for the cancelled job (the accepted
            # reply is returned to the session layer, not delivered here).
            assert [m for m in session.messages if m.get("id") == "victim"] == []
            assert scheduler.counters["jobs_completed"] == 1
            await scheduler.close()

        asyncio.run(scenario())

    def test_cancel_one_subscriber_keeps_shared_task_alive(self):
        async def scenario():
            gate = threading.Event()
            computed = []
            scheduler = JobScheduler(pool_workers=1, max_pending=8)
            session_a, session_b = FakeSession(), FakeSession()
            scheduler.submit(
                session_a, "block", job_of(FakeSpec("block", gate=gate))
            )
            scheduler.submit(
                session_a, "keep", job_of(FakeSpec("dup", computed=computed))
            )
            _, job_b = scheduler.submit(
                session_b, "drop", job_of(FakeSpec("dup", computed=computed))
            )
            # The deduped subscriber leaves; the task must survive for A.
            assert scheduler.cancel_job(job_b) == 0
            assert scheduler.counters["points_cancelled"] == 0
            gate.set()
            await settled(scheduler)
            assert computed == ["dup"]
            keep_points = [
                m for m in session_a.of_type("point") if m["id"] == "keep"
            ]
            assert len(keep_points) == 1
            assert session_b.of_type("point") == []
            await scheduler.close()

        asyncio.run(scenario())

    def test_running_point_finishes_after_cancel(self):
        async def scenario():
            gate = threading.Event()
            computed = []
            scheduler = JobScheduler(pool_workers=1, max_pending=8)
            session = FakeSession()
            _, job = scheduler.submit(
                session, "j1", job_of(FakeSpec("a", gate=gate,
                                               computed=computed))
            )
            await eventually(lambda: job.tasks[0].state == "running")
            # Running work is never yanked out of the pool: cancel just
            # unsubscribes, the result still lands (and would hit the store).
            assert scheduler.cancel_job(job) == 0
            gate.set()
            await settled(scheduler)
            assert computed == ["a"]
            assert session.of_type("point") == []
            assert session.of_type("done") == []
            assert scheduler.counters["points_computed"] == 1
            assert scheduler.counters["jobs_completed"] == 0
            await scheduler.close()

        asyncio.run(scenario())

    def test_point_failure_quarantines_point_and_job_completes(self):
        async def scenario():
            gate = threading.Event()
            calls = []
            scheduler = JobScheduler(pool_workers=1, max_pending=8)
            session = FakeSession()
            scheduler.submit(
                session, "bad",
                job_of(FakeSpec("boom", gate=gate, fail=True, calls=calls),
                       FakeSpec("tail")),
            )
            gate.set()
            await settled(scheduler)
            # The poisoned point is reported per-point, not as a job kill,
            # after exactly one attempt: retries belong to the executor.
            (failed,) = session.of_type("failed")
            assert failed["index"] == 0
            assert failed["error"] == "RuntimeError: synthetic point failure"
            assert calls == ["boom"]
            assert scheduler.counters["points_failed"] == 1
            assert scheduler.counters["points_quarantined"] == 1
            assert "fp-boom" in scheduler.status()["quarantined"]
            # The rest of the job still streamed, and done names the loss.
            (tail,) = session.of_type("point")
            assert tail["payload"] == {"name": "tail"}
            (done,) = session.of_type("done")
            assert done["failed"] == [0]
            assert scheduler.counters["jobs_completed"] == 1
            # The pool still serves fresh work afterwards...
            fresh = FakeSession()
            reply, _ = scheduler.submit(fresh, "good", job_of(FakeSpec("ok")))
            assert reply["type"] == "accepted"
            await settled(scheduler)
            assert fresh.of_type("point")[0]["payload"] == {"name": "ok"}
            assert fresh.of_type("done") != []
            # ...and resubmitting the quarantined point answers instantly
            # from quarantine instead of burning pool time again.
            again = FakeSession()
            reply, _ = scheduler.submit(
                again, "again", job_of(FakeSpec("boom", fail=True))
            )
            assert reply["type"] == "accepted"
            await eventually(lambda: again.of_type("done") != [])
            (refailed,) = again.of_type("failed")
            assert refailed["index"] == 0
            assert scheduler.counters["points_quarantined"] == 1  # unchanged
            await scheduler.close()

        asyncio.run(scenario())

    def test_stalled_worker_is_killed_by_the_plan_deadline(self, tmp_path):
        async def scenario():
            # The plan the scheduler hands to compute is the only
            # deadline: past it the executor kills the stuck worker
            # process and, with no retries left, raises ExecutorError.
            plan = ExecutionPlan(
                workers=2, chunk_size=1, max_retries=0, chunk_timeout_s=3.0
            )
            scheduler = JobScheduler(
                execution=plan, pool_workers=1, max_pending=8
            )
            pid_path = tmp_path / "stall.pid"
            payload = (str(tmp_path / "stall.flag"), str(pid_path), 1)
            session = FakeSession()
            scheduler.submit(
                session, "stuck", job_of(StallingSpec("wedge", payload))
            )
            # The chunk sleeps 60 s, so only the deadline ends it in time.
            await eventually(lambda: session.of_type("done") != [], timeout=30.0)
            (failed,) = session.of_type("failed")
            error = failed["error"]
            assert error.startswith("ExecutorError: ")
            assert "[timeout]" in error
            shown = error.split("trial indices: ", 1)[1].split(")", 1)[0]
            assert "1" in shown.split(", ")
            assert _gone(int(pid_path.read_text()))
            assert session.of_type("done")[0]["failed"] == [0]
            fresh = FakeSession()
            scheduler.submit(fresh, "after", job_of(FakeSpec("alive")))
            await settled(scheduler)
            assert fresh.of_type("point")[0]["payload"] == {"name": "alive"}
            await scheduler.close()

        asyncio.run(scenario())

    def test_priority_orders_queued_points(self):
        async def scenario():
            gate = threading.Event()
            computed = []
            scheduler = JobScheduler(pool_workers=1, max_pending=8)
            session = FakeSession()
            scheduler.submit(
                session, "block", job_of(FakeSpec("block", gate=gate,
                                                  computed=computed))
            )
            scheduler.submit(
                session, "late", job_of(FakeSpec("low", computed=computed)),
                priority=5,
            )
            scheduler.submit(
                session, "soon", job_of(FakeSpec("high", computed=computed)),
                priority=0,
            )
            gate.set()
            await settled(scheduler)
            # Lower priority number first, despite later submission.
            assert computed == ["block", "high", "low"]
            await scheduler.close()

        asyncio.run(scenario())

    def test_drain_rejects_new_work_and_waits_for_pending(self):
        async def scenario():
            gate = threading.Event()
            scheduler = JobScheduler(pool_workers=1, max_pending=8)
            session = FakeSession()
            scheduler.submit(session, "j1", job_of(FakeSpec("a", gate=gate)))
            drain = asyncio.ensure_future(scheduler.drain())
            await asyncio.sleep(0)  # let drain() flip the flag
            reply, job = scheduler.submit(session, "j2", job_of(FakeSpec("b")))
            assert job is None
            assert reply["type"] == "rejected"
            assert reply["reason"] == "draining"
            assert not drain.done()
            gate.set()
            await drain
            # The admitted point still streamed out before drain returned.
            assert len(session.of_type("point")) == 1
            await scheduler.close()

        asyncio.run(scenario())

    def test_store_hit_marks_point_cached(self):
        async def scenario():
            store = FakeStore()
            store.known.add("fp-warm")
            scheduler = JobScheduler(pool_workers=1, max_pending=8, store=store)
            session = FakeSession()
            scheduler.submit(session, "j1", job_of(FakeSpec("warm")))
            scheduler.submit(session, "j2", job_of(FakeSpec("cold")))
            await settled(scheduler)
            by_fp = {m["fingerprint"]: m for m in session.of_type("point")}
            assert by_fp["fp-warm"]["cached"] is True
            assert by_fp["fp-cold"]["cached"] is False
            await scheduler.close()

        asyncio.run(scenario())

    def test_computed_point_is_fingerprinted_once(self, tmp_path, monkeypatch):
        # Admission fingerprints the point; compute reuses that key for
        # the store probe and put instead of fingerprinting it again.
        calls = []
        real = store_fingerprint.fingerprint

        def counting(kind, unit):
            calls.append(kind)
            return real(kind, unit)

        monkeypatch.setattr(store_fingerprint, "fingerprint", counting)

        async def scenario():
            store = ExperimentStore(str(tmp_path / "cache"))
            scheduler = JobScheduler(pool_workers=1, max_pending=8, store=store)
            session = FakeSession()
            parsed = parse_job({"kind": "ber", "frames": 4, "seed": 5})
            scheduler.submit(session, "j1", parsed)
            await settled(scheduler)
            (point,) = session.of_type("point")
            assert point["cached"] is False
            assert store.contains(point["fingerprint"])
            await scheduler.close()

        asyncio.run(scenario())
        assert calls == ["downlink-trials"]

    def test_status_shape(self):
        async def scenario():
            scheduler = JobScheduler(pool_workers=3, max_pending=7)
            status = scheduler.status()
            assert status["pending_points"] == 0
            assert status["max_pending"] == 7
            assert status["pool_workers"] == 3
            assert status["draining"] is False
            assert status["execution"] == {
                "workers": 1, "max_retries": 2, "chunk_timeout_s": None,
            }
            assert status["quarantined"] == []
            assert set(status["counters"]) == {
                "jobs_accepted", "jobs_rejected", "jobs_cancelled",
                "jobs_completed", "points_submitted", "points_computed",
                "points_deduped", "points_cancelled", "points_failed",
                "points_quarantined", "journal_records", "journal_replayed",
            }
            assert status["inflight"] == {"created": 0, "shared": 0, "active": 0}
            await scheduler.close()

        asyncio.run(scenario())
