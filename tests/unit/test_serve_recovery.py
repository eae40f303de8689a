"""Unit tests for crash recovery: scheduler journaling + server resume.

The scheduler half runs on synthetic point specs with a real
:class:`JobJournal` in a tmp dir, pinning the write-ahead discipline
(one record write before compute, nothing written on delivery, removal
at done / cancel).  The server half stands up a real
:class:`ServerThread` over a pre-seeded journal and pins the ``--resume``
replay contract: incomplete jobs resubmit, points delivered before the
crash come back as store hits, points an earlier build's record marks
completed are never re-scheduled, records whose fingerprints drifted are
dropped loudly, and the journal ends empty.
"""

import asyncio
import dataclasses
import json
import threading
import time

import repro.store.cache as store_cache
from repro.serve.journal import JobJournal
from repro.serve.protocol import ParsedJob, parse_job
from repro.serve.scheduler import JobScheduler
from repro.serve.server import ServeConfig, ServerThread
from repro.sim.executor import ExecutionPlan
from repro.store import ExperimentStore


class FakeSpec:
    kind = "fake"

    def __init__(self, name, *, gate=None):
        self.name = name
        self.gate = gate

    def fingerprint(self):
        return f"fp-{self.name}"

    def compute(self, execution, store, fingerprint=None):
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0), "test gate never released"
        return {"name": self.name}


class FakeSession:
    def __init__(self):
        self.messages = []

    def send(self, message):
        self.messages.append(message)

    def finish_job(self, job):
        pass


def job_of(*specs):
    return ParsedJob(kind="fake", points=tuple(specs))


async def eventually(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        await asyncio.sleep(0.005)


class TestSchedulerJournaling:
    def test_submit_journals_write_ahead_and_done_retires(self, tmp_path):
        async def scenario():
            journal = JobJournal(tmp_path)
            gate = threading.Event()
            scheduler = JobScheduler(
                pool_workers=1, max_pending=8, journal=journal
            )
            session = FakeSession()
            raw = {"kind": "fake", "what": "ever"}
            _, job = scheduler.submit(
                session, "j1", job_of(FakeSpec("a", gate=gate), FakeSpec("b")),
                raw_job=raw,
            )
            # Write-ahead: the record is on disk while nothing computed.
            record = journal.get(job.journal_id)
            assert record is not None
            assert record.job == raw
            assert record.fingerprints == ("fp-a", "fp-b")
            assert record.remaining() == (0, 1)
            assert scheduler.counters["journal_records"] == 1
            gate.set()
            await eventually(lambda: scheduler._pending == 0)
            # Fully delivered: the record is gone.
            await eventually(lambda: journal.get(job.journal_id) is None)
            await scheduler.close()

        asyncio.run(scenario())

    def test_journaled_job_makes_one_durable_write(self, tmp_path, monkeypatch):
        writes = []
        atomic_write = store_cache.atomic_write_bytes

        def counting_write(path, data):
            writes.append(path)
            atomic_write(path, data)

        monkeypatch.setattr(store_cache, "atomic_write_bytes", counting_write)

        async def scenario():
            journal = JobJournal(tmp_path)
            gate = threading.Event()
            scheduler = JobScheduler(
                pool_workers=1, max_pending=8, journal=journal
            )
            session = FakeSession()
            # First point free, second gated: delivering the first must
            # leave the write-ahead record exactly as admission wrote it.
            _, job = scheduler.submit(
                session, "j1",
                job_of(FakeSpec("fast"), FakeSpec("slow", gate=gate)),
                raw_job={"kind": "fake"},
            )
            path = journal.root / f"{job.journal_id}.json"
            admitted = path.read_bytes()
            await eventually(lambda: any(
                message["type"] == "point" for message in session.messages
            ))
            assert path.read_bytes() == admitted
            gate.set()
            await eventually(lambda: scheduler._pending == 0)
            await eventually(lambda: not path.exists())
            await scheduler.close()
            assert writes == [path]

        asyncio.run(scenario())

    def test_cancel_retires_the_record(self, tmp_path):
        async def scenario():
            journal = JobJournal(tmp_path)
            gate = threading.Event()
            scheduler = JobScheduler(
                pool_workers=1, max_pending=8, journal=journal
            )
            session = FakeSession()
            scheduler.submit(
                session, "block", job_of(FakeSpec("block", gate=gate)),
                raw_job={"kind": "fake"},
            )
            _, victim = scheduler.submit(
                session, "victim", job_of(FakeSpec("v")),
                raw_job={"kind": "fake"},
            )
            assert journal.get(victim.journal_id) is not None
            scheduler.cancel_job(victim)
            # An explicitly cancelled job must not replay at next restart:
            # a reconnecting client resubmits (and re-journals) itself.
            assert journal.get(victim.journal_id) is None
            gate.set()
            await eventually(lambda: scheduler._pending == 0)
            await scheduler.close()

        asyncio.run(scenario())

    def test_no_journal_without_raw_job(self, tmp_path):
        async def scenario():
            journal = JobJournal(tmp_path)
            scheduler = JobScheduler(
                pool_workers=1, max_pending=8, journal=journal
            )
            _, job = scheduler.submit(
                FakeSession(), "j1", job_of(FakeSpec("a"))
            )
            assert job.journal_id is None
            assert not journal.incomplete()
            await eventually(lambda: scheduler._pending == 0)
            await scheduler.close()

        asyncio.run(scenario())


#: Two fast points; distinct seeds keep the fingerprints distinct.
SWEEP_JOB = {
    "kind": "ber_sweep", "frames": 2, "distance_m": 3.0,
    "sweep": {"field": "seed", "values": [11, 12]},
}


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.02)


class TestServerResume:
    def _seed_journal(self, cache_dir, job, completed=()):
        """Plant the record a crashed server would have left behind."""
        parsed = parse_job(job)
        fingerprints = [spec.fingerprint() for spec in parsed.points]
        journal = JobJournal(cache_dir)
        record = journal.record(
            kind=parsed.kind, job=job, fingerprints=fingerprints,
        )
        if completed:
            # Completion marks as a record written by an earlier build
            # carries them.
            record = dataclasses.replace(record, completed=tuple(completed))
            (journal.root / f"{record.journal_id}.json").write_text(
                json.dumps(record.encode())
            )
        return journal, record, parsed, fingerprints

    def test_resume_replays_incomplete_job_into_store(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        journal, record, _parsed, fingerprints = self._seed_journal(
            cache_dir, SWEEP_JOB
        )
        with ServerThread(ServeConfig(
            pool_workers=1, cache_dir=cache_dir, resume=True,
        )) as handle:
            assert handle.server.replayed_jobs == 1
            assert handle.server.scheduler.counters["journal_replayed"] == 1
            # Replay finishes: record retired, every point in the store.
            wait_for(lambda: journal.get(record.journal_id) is None)
            store = ExperimentStore(cache_dir)
            for fingerprint in fingerprints:
                assert store.contains(fingerprint)

    def test_resume_serves_delivered_point_from_store(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        # Point 0 was delivered, so its result landed in the store, before
        # the "crash"; the record is as admission wrote it.
        parsed = parse_job(SWEEP_JOB)
        parsed.points[0].compute(ExecutionPlan(), ExperimentStore(cache_dir))
        journal, record, _parsed, fingerprints = self._seed_journal(
            cache_dir, SWEEP_JOB
        )
        assert record.completed == ()
        with ServerThread(ServeConfig(
            pool_workers=1, cache_dir=cache_dir, resume=True,
        )) as handle:
            wait_for(lambda: journal.get(record.journal_id) is None)
            server = handle.server
            assert server.scheduler.counters["points_submitted"] == 2
            # Point 0 is a store hit; only point 1 computes.
            assert server.store.session_misses == 1
            assert server.store.session_hits == 1
            for fingerprint in fingerprints:
                assert server.store.contains(fingerprint)

    def test_resume_skips_completed_points(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        # Point 0 landed in the store before the "crash"...
        parsed = parse_job(SWEEP_JOB)
        store = ExperimentStore(cache_dir)
        parsed.points[0].compute(ExecutionPlan(), store)
        # ...and a record from an earlier build marks it delivered.
        journal, record, _parsed, fingerprints = self._seed_journal(
            cache_dir, SWEEP_JOB, completed=(0,)
        )
        with ServerThread(ServeConfig(
            pool_workers=1, cache_dir=cache_dir, resume=True,
        )) as handle:
            wait_for(lambda: journal.get(record.journal_id) is None)
            counters = handle.server.scheduler.counters
            # Only the missing point was ever scheduled.
            assert counters["points_submitted"] == 1
            assert counters["journal_replayed"] == 1
            store = ExperimentStore(cache_dir)
            for fingerprint in fingerprints:
                assert store.contains(fingerprint)

    def test_resume_drops_record_with_drifted_fingerprints(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        parsed = parse_job(SWEEP_JOB)
        journal = JobJournal(cache_dir)
        record = journal.record(
            kind=parsed.kind, job=SWEEP_JOB,
            fingerprints=["0" * 64 for _ in parsed.points],  # drifted
        )
        with ServerThread(ServeConfig(
            pool_workers=1, cache_dir=cache_dir, resume=True,
        )) as handle:
            assert handle.server.replayed_jobs == 0
            assert handle.server.scheduler.counters["points_submitted"] == 0
        # Dropped loudly, not left to replay wrong forever.
        assert journal.get(record.journal_id) is None

    def test_start_without_resume_leaves_journal_alone(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        journal, record, _parsed, _fps = self._seed_journal(
            cache_dir, SWEEP_JOB
        )
        with ServerThread(ServeConfig(
            pool_workers=1, cache_dir=cache_dir, resume=False,
        )) as handle:
            assert handle.server.replayed_jobs == 0
        assert journal.get(record.journal_id) is not None
