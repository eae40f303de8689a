"""Serve scheduler: priority queue, backpressure, dedup, self-protection.

The scheduler owns the computational heart of the server.  Its contract:

* **Single-threaded control plane.**  All scheduler state is mutated on
  the event loop only.  Each point's blocking ``compute`` runs in a
  ``ThreadPoolExecutor`` (``pool_workers`` slots, created once) and
  reports back via the loop, so no locks are needed beyond the
  :class:`repro.store.InFlightRegistry`'s own.
* **One recovery stack.**  Retries, per-chunk deadlines and killing a
  stuck worker process come only from the server's
  :class:`repro.sim.executor.ExecutionPlan` (``workers``,
  ``max_retries``, ``chunk_timeout_s``), which every point's
  ``compute`` receives.  The scheduler runs a point exactly once.
* **Priority + FIFO.**  Queued points order by ``(priority, sequence)``:
  lower priority number first, submission order within a priority.
* **Bounded backpressure.**  At most ``max_pending`` points may be
  queued or running.  A submit that would exceed the bound is rejected
  *deterministically* — never partially admitted, never queued hidden —
  with a ``retry_after_s`` hint sized to the backlog.  (Journal replay
  on ``--resume`` submits with ``force=True``: recovering previously
  admitted work must never bounce off its own backlog.)
* **In-flight dedup.**  Points are keyed by store fingerprint (the same
  fingerprint the engines cache results under).  A submit whose
  fingerprint is already queued/running subscribes to the existing
  :class:`PointTask` instead of creating work; every subscriber receives
  the one result.  Completed fingerprints leave the registry — from then
  on the durable store dedupes.
* **Cancellation.**  Dropping a job (client request or disconnect)
  unsubscribes it from its tasks.  A queued task with no subscribers
  left is cancelled before it ever claims a pool slot; a *running* task
  finishes (its result still lands in the store, so the work is not
  wasted) but delivers to nobody.
* **Poison-point quarantine.**  A point whose compute raises — an
  :class:`repro.errors.ExecutorError` once the plan's retries are spent,
  or any other error — is reported to every subscriber as a per-point
  ``failed`` frame: the rest of the job keeps streaming and the job
  still reaches ``done`` (with a ``failed`` index list).  The
  fingerprint joins an in-memory quarantine: resubmitting it answers
  instantly with ``failed`` instead of burning pool time again.
* **Durable journal.**  With a :class:`repro.serve.journal.JobJournal`
  attached, an accepted job is journaled write-ahead (one fsync'd write,
  before its first point can reach the pool) and its record is removed
  at ``done``/cancel.  Delivery writes nothing: a delivered point's
  result is already in the store, which a ``repro serve --resume``
  replay reads back as a hit.
* **Graceful drain.**  ``drain()`` stops admissions and waits for every
  pending point to resolve, so shutdown never truncates a stream.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
from typing import Any, Optional

from repro import obs
from repro.obs import runtime as _obs_runtime
from repro.sim.executor import ExecutionPlan
from repro.store.inflight import InFlightRegistry

__all__ = ["PointTask", "Job", "JobScheduler"]


class PointTask:
    """One unit of schedulable work: a point spec plus its subscribers."""

    __slots__ = (
        "fingerprint", "spec", "subscribers", "state", "cached", "priority",
    )

    def __init__(self, fingerprint: str, spec, priority: int = 0) -> None:
        self.fingerprint = fingerprint
        self.spec = spec
        self.subscribers: "list[tuple[Job, int]]" = []
        self.state = "queued"  # queued | running | done | cancelled
        self.cached = False
        self.priority = priority


class Job:
    """One accepted submission: its session, identity, and progress."""

    def __init__(self, session, client_id: str, job_id: str, kind: str,
                 num_points: int) -> None:
        self.session = session
        self.client_id = client_id
        self.job_id = job_id
        self.kind = kind
        self.num_points = num_points
        self.tasks: "list[PointTask]" = []
        self.remaining = num_points
        self.cancelled = False
        self.failed: "list[int]" = []
        self.journal_id: "str | None" = None


class JobScheduler:
    """Shared executor-pool front end for every client session.

    Construct on the event loop (``__init__`` captures the running
    loop); ``submit``/``cancel_job``/``status`` are loop-thread-only.
    """

    def __init__(
        self,
        *,
        execution: "ExecutionPlan | None" = None,
        store=None,
        pool_workers: int = 2,
        max_pending: int = 256,
        retry_after_s: float = 1.0,
        journal=None,
    ) -> None:
        from concurrent.futures import ThreadPoolExecutor

        if pool_workers < 1:
            raise ValueError(f"pool_workers must be >= 1, got {pool_workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.execution = execution if execution is not None else ExecutionPlan()
        self.store = store
        self.journal = journal
        self.pool_workers = pool_workers
        self.max_pending = max_pending
        self.retry_after_s = retry_after_s
        self.inflight = InFlightRegistry()
        self._quarantined: "dict[str, str]" = {}
        self._loop = asyncio.get_running_loop()
        self._queue: "asyncio.PriorityQueue" = asyncio.PriorityQueue()
        self._sequence = itertools.count()
        self._job_ids = itertools.count(1)
        self._pending = 0  # queued + running, non-cancelled
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        # A private pool, never the loop's default executor: that one
        # caps its threads at os.cpu_count() + 4 whatever pool_workers says.
        self._pool = ThreadPoolExecutor(
            max_workers=pool_workers, thread_name_prefix="repro-serve"
        )
        self._workers = [
            asyncio.ensure_future(self._worker()) for _ in range(pool_workers)
        ]
        self._running = 0
        self.counters = {
            "jobs_accepted": 0,
            "jobs_rejected": 0,
            "jobs_cancelled": 0,
            "jobs_completed": 0,
            "points_submitted": 0,
            "points_computed": 0,
            "points_deduped": 0,
            "points_cancelled": 0,
            "points_failed": 0,
            "points_quarantined": 0,
            "journal_records": 0,
            "journal_replayed": 0,
        }

    # -- admission -----------------------------------------------------------

    def submit(self, session, client_id: str, parsed, priority: int = 0,
               *, raw_job: "dict[str, Any] | None" = None,
               point_indices: "tuple[int, ...] | None" = None,
               journal_record=None,
               force: bool = False,
               ) -> "tuple[dict[str, Any], Optional[Job]]":
        """Admit (or reject) a parsed job; returns ``(reply, job|None)``.

        Admission is all-or-nothing: the capacity check counts every
        *new* point the job would enqueue (deduped and quarantined points
        are free), and a rejection leaves the scheduler exactly as it
        was.  ``raw_job`` is the submitted job object for write-ahead
        journaling and ``point_indices`` the submit-time subset that
        produced ``parsed`` (recorded so a replay can re-select it);
        ``journal_record`` re-attaches an existing record during
        ``--resume`` replay; ``force`` bypasses the capacity check
        (replay of already-admitted work only).
        """
        if self._draining:
            self.counters["jobs_rejected"] += 1
            return {
                "type": "rejected", "id": client_id,
                "reason": "draining", "retry_after_s": None,
            }, None
        fingerprints = [spec.fingerprint() for spec in parsed.points]
        new_points = sum(
            1 for fingerprint in fingerprints
            if self.inflight.peek(fingerprint) is None
            and fingerprint not in self._quarantined
        )
        if not force and self._pending + new_points > self.max_pending:
            self.counters["jobs_rejected"] += 1
            retry_after = self._retry_after()
            if _obs_runtime._enabled:
                obs.inc("serve.jobs.rejected")
                obs.log(
                    "serve.job.rejected", id=client_id,
                    pending=self._pending, new_points=new_points,
                    retry_after_s=retry_after,
                )
            return {
                "type": "rejected", "id": client_id,
                "reason": (
                    f"queue full ({self._pending} pending, "
                    f"{new_points} new points over the {self.max_pending} cap)"
                ),
                "retry_after_s": retry_after,
            }, None

        job = Job(
            session, client_id, f"job-{next(self._job_ids)}",
            parsed.kind, len(parsed.points),
        )
        # Write-ahead: the journal record must hit disk before any point
        # can reach the pool, or a crash in between loses the job.
        if journal_record is not None:
            job.journal_id = journal_record.journal_id
        elif self.journal is not None and raw_job is not None:
            record = self.journal.record(
                kind=parsed.kind, job=raw_job, fingerprints=fingerprints,
                point_indices=point_indices,
            )
            job.journal_id = record.journal_id
            self.counters["journal_records"] += 1
            if _obs_runtime._enabled:
                obs.inc("serve.journal.records")
        prefailed: "list[tuple[int, str, str]]" = []
        for index, (spec, fingerprint) in enumerate(
            zip(parsed.points, fingerprints)
        ):
            quarantine_error = self._quarantined.get(fingerprint)
            if quarantine_error is not None:
                prefailed.append((index, fingerprint, quarantine_error))
                continue
            task, created = self.inflight.claim(
                fingerprint,
                lambda fingerprint=fingerprint, spec=spec: PointTask(
                    fingerprint, spec, priority
                ),
            )
            task.subscribers.append((job, index))
            job.tasks.append(task)
            if created:
                self._pending += 1
                self._idle.clear()
                self.counters["points_submitted"] += 1
                self._queue.put_nowait((priority, next(self._sequence), task))
            else:
                self.counters["points_deduped"] += 1
                if _obs_runtime._enabled:
                    obs.inc("serve.points.deduped")
        if prefailed:
            # Deliver after the caller has sent its `accepted` reply (the
            # session enqueues that synchronously once submit returns).
            self._loop.call_soon(self._deliver_prefailed, job, prefailed)
        self.counters["jobs_accepted"] += 1
        if _obs_runtime._enabled:
            obs.inc("serve.jobs.accepted")
            obs.log(
                "serve.job.accepted", id=client_id, job_id=job.job_id,
                kind=job.kind, points=job.num_points,
            )
        return {
            "type": "accepted", "id": client_id, "job_id": job.job_id,
            "kind": job.kind, "points": job.num_points,
        }, job

    def _retry_after(self) -> float:
        """Deterministic resubmission hint scaled to the backlog."""
        backlog_rounds = self._pending / (self.pool_workers * self.max_pending)
        return round(self.retry_after_s * max(1.0, backlog_rounds), 3)

    # -- cancellation --------------------------------------------------------

    def cancel_job(self, job: Job, reason: str = "client request") -> int:
        """Unsubscribe ``job`` everywhere; returns points actually cancelled.

        Queued tasks nobody else wants are cancelled outright (lazy heap
        removal — the worker skips them on pop).  Running tasks finish to
        keep the pool healthy; their results land in the store.  The
        job's journal record is retired: an explicitly cancelled (or
        disconnected) job must not be replayed at the next restart — a
        reconnecting self-healing client resubmits and re-journals.
        """
        if job.cancelled:
            return 0
        job.cancelled = True
        cancelled = 0
        for task in job.tasks:
            task.subscribers = [
                (subscriber, index) for subscriber, index in task.subscribers
                if subscriber is not job
            ]
            if not task.subscribers and task.state == "queued":
                task.state = "cancelled"
                self.inflight.discard(task.fingerprint)
                self._finish_pending()
                cancelled += 1
        if job.journal_id is not None and self.journal is not None:
            self.journal.finish(job.journal_id)
        self.counters["jobs_cancelled"] += 1
        self.counters["points_cancelled"] += cancelled
        if _obs_runtime._enabled:
            obs.inc("serve.jobs.cancelled")
            obs.inc("serve.points.cancelled", cancelled)
            obs.log(
                "serve.job.cancelled", id=job.client_id, job_id=job.job_id,
                reason=reason, points_cancelled=cancelled,
            )
        return cancelled

    def _finish_pending(self) -> None:
        self._pending -= 1
        if self._pending == 0:
            self._idle.set()

    # -- the worker loop -----------------------------------------------------

    async def _worker(self) -> None:
        while True:
            _priority, _sequence, task = await self._queue.get()
            if task.state == "cancelled":
                continue
            await self._run_task(task)

    async def _run_task(self, task: PointTask) -> None:
        task.state = "running"
        self._running += 1
        store = self.store
        task.cached = store is not None and store.contains(task.fingerprint)
        error: "Exception | None" = None
        try:
            payload = await self._loop.run_in_executor(
                self._pool, task.spec.compute, self._plan_for(task), store,
                task.fingerprint,
            )
        except Exception as compute_error:
            error = compute_error
        finally:
            task.state = "done"
            self._running -= 1
            self.inflight.discard(task.fingerprint)
        if error is not None:
            self._quarantine(task, error)
        else:
            self.counters["points_computed"] += 1
            if _obs_runtime._enabled:
                obs.inc("serve.points.computed")
            self._deliver(task, payload)
        self._finish_pending()

    def _plan_for(self, task: PointTask) -> ExecutionPlan:
        """The shared plan, with a thread-safe progress bridge chained in.

        The executor's parent-side ``progress`` hook fires in the pool
        thread; the bridge trampolines onto the loop so subscribers get
        ``progress`` frames while the point is still computing.
        """
        loop = self._loop
        inner = self.execution.progress

        def hook(timing):
            if inner is not None:
                inner(timing)
            loop.call_soon_threadsafe(
                self._notify_progress, task, timing.num_trials
            )

        return dataclasses.replace(self.execution, progress=hook)

    def _notify_progress(self, task: PointTask, trials: int) -> None:
        for job, index in task.subscribers:
            if job.cancelled:
                continue
            job.session.send({
                "type": "progress", "id": job.client_id, "point": index,
                "trials": trials,
            })

    # -- delivery ------------------------------------------------------------

    def _deliver(self, task: PointTask, payload) -> None:
        shared = len(task.subscribers) > 1
        for job, index in list(task.subscribers):
            if job.cancelled:
                continue
            job.session.send({
                "type": "point", "id": job.client_id, "index": index,
                "kind": task.spec.kind, "payload": payload,
                "fingerprint": task.fingerprint,
                "shared": shared, "cached": task.cached,
            })
            self._finish_point(job)

    def _quarantine(self, task: PointTask, error: Exception) -> None:
        """Poison-point containment: fail the point, never the job or pool."""
        message = f"{type(error).__name__}: {error}"
        self._quarantined[task.fingerprint] = message
        self.counters["points_failed"] += 1
        self.counters["points_quarantined"] += 1
        if _obs_runtime._enabled:
            obs.inc("serve.points.failed")
            obs.inc("serve.recovery.quarantined")
            obs.log(
                "serve.point.quarantined",
                fingerprint=task.fingerprint,
                error=message,
            )
        for job, index in list(task.subscribers):
            if job.cancelled:
                continue
            self._fail_point(job, index, task.fingerprint, message)

    def _deliver_prefailed(self, job: Job,
                           prefailed: "list[tuple[int, str, str]]") -> None:
        """Answer quarantined points of a fresh submit without pool time."""
        if job.cancelled:
            return
        for index, fingerprint, message in prefailed:
            self._fail_point(job, index, fingerprint, message)

    def _fail_point(self, job: Job, index: int, fingerprint: str,
                    message: str) -> None:
        job.failed.append(index)
        job.session.send({
            "type": "failed", "id": job.client_id, "index": index,
            "fingerprint": fingerprint, "error": message,
        })
        self._finish_point(job)

    def _finish_point(self, job: Job) -> None:
        """Account one resolved (delivered or failed) point of ``job``."""
        job.remaining -= 1
        if job.remaining > 0:
            return
        self.counters["jobs_completed"] += 1
        if _obs_runtime._enabled:
            obs.inc("serve.jobs.completed")
        done: "dict[str, Any]" = {
            "type": "done", "id": job.client_id, "points": job.num_points,
        }
        if job.failed:
            done["failed"] = sorted(job.failed)
        job.session.send(done)
        if job.journal_id is not None and self.journal is not None:
            self.journal.finish(job.journal_id)
        job.session.finish_job(job)

    # -- lifecycle -----------------------------------------------------------

    async def drain(self) -> None:
        """Stop admissions and wait for every pending point to resolve."""
        self._draining = True
        await self._idle.wait()

    async def close(self) -> None:
        """Drain, then tear the worker tasks and thread pool down."""
        await self.drain()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._pool.shutdown(wait=True)

    # -- introspection -------------------------------------------------------

    def status(self) -> "dict[str, Any]":
        payload: "dict[str, Any]" = {
            "pending_points": self._pending,
            "running_points": self._running,
            "max_pending": self.max_pending,
            "pool_workers": self.pool_workers,
            "execution": {
                "workers": self.execution.workers,
                "max_retries": self.execution.max_retries,
                "chunk_timeout_s": self.execution.chunk_timeout_s,
            },
            "draining": self._draining,
            "quarantined": sorted(self._quarantined),
            "counters": dict(self.counters),
            "inflight": self.inflight.stats().as_dict(),
        }
        if self.store is not None:
            payload["store"] = self.store.stats_payload()
        return payload
