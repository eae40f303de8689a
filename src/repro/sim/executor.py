"""Parallel Monte-Carlo execution with a bit-exact determinism contract.

Every Monte-Carlo engine in :mod:`repro.sim` iterates RNG-independent
trials, so the work fans out over processes — but reproducibility is a
first-class requirement: the figures in EXPERIMENTS.md are pinned to
seeds.  This layer therefore guarantees

    ``workers=1`` == ``workers=2`` == ``workers=8``, bit for bit,

for any chunking of the trial range.  Two ingredients make that hold:

1. **Index-keyed seeding** — trial ``i``'s generator is derived from
   ``(root SeedSequence, i)`` via :class:`repro.utils.rng.SeedSpec`, so
   it does not matter which worker or chunk runs the trial.
2. **Order-restoring reassembly** — chunks may *complete* in any order,
   but per-trial results are re-assembled by trial index before any
   reduction, so floating-point reductions see one canonical order.

Chunks (not single trials) are the unit of dispatch so process start-up
and per-task pickling are amortised over many trials.  Wall-clock data —
per-chunk timings, backend, worker count — is inherently *not*
deterministic, so it is kept out of result payloads and reported through
:class:`ExecutionReport` / the ``metadata["_execution"]`` side channel;
:func:`strip_execution` removes it for bitwise comparisons.

**Fault tolerance.**  Long seed-pinned sweeps die ugly when a single
worker is OOM-killed mid-campaign, so the process backend survives the
three failure modes a pool can exhibit:

* a chunk *raises* in its worker — the chunk is resubmitted, up to
  ``ExecutionPlan.max_retries`` times; determinism makes the re-run
  bit-identical to what the failed attempt would have produced;
* a worker *dies* (OOM kill, ``os._exit``) — the broken pool is torn
  down and rebuilt, completed chunk results are kept, and only the
  unfinished chunks are resubmitted (rebuilds are bounded too);
* a chunk *hangs* past ``ExecutionPlan.chunk_timeout_s`` — the pool is
  killed to reclaim the stuck worker and the chunk retries under an
  exponentially backed-off deadline.

When a chunk exhausts every retry, the map aborts with
:class:`repro.errors.ExecutorError` naming the failed trial indices.
Every retry, rebuild and timeout is counted on the
:class:`ExecutionReport` (and thus lands in
``metadata["_execution"]["faults"]``).

**Pool lifetime.**  Starting a pool costs tens of milliseconds, more than
a small sweep's whole trial map, so a map *leases* its pool instead of
owning it.  A pool that finishes a map with nothing pending and nothing
exhausted is parked in an idle slot keyed by ``(process, workers, start
method, obs.worker_config())``; the next map with the same key takes it
(and its warm workers) out of the slot.  Two concurrent maps never share
a pool: the second one finds no parked pool and starts its own, and
both are parked when they finish, so a key holds at most one pool per
map that ran at once.  A pool that broke, timed out or still holds
chunks is killed exactly as before, never parked.  Each parked pool
shuts down after :data:`POOL_IDLE_RETIRE_S` of idleness on its own
timer, so a finished program neither keeps idle workers nor blocks its
forkserver from stopping.  A parked pool keeps the forkserver up until
its retirement has shut it down and released its queues' named
semaphores, so stopping the forkserver and then the resource tracker
never leaks them.  Leasing changes which processes run a chunk, never
what a chunk computes, so results stay bit-identical.  A pool never has
more workers than the cores this process may run on.

**Backend choice.**  For small maps a pool costs more than it saves, so
``map_trials`` keeps a per-process :class:`_CostModel`, fed only by maps
that ran without a fault: the per-trial seconds of each *cost key* (the
chunk function plus the payload's leading type), preferably measured
in-process, and the pool's effective per-map overhead (wall time minus
the in-process cost of its trials spread over the workers, measured on
warm pools only).  A ``workers > 1`` map runs in-process when its
estimated serial time is no more than its estimated pool time on a warm
pool, and otherwise on the pool, starting one if none is parked; either
way in chunks coarse enough that dispatch stays a small share of each.
A map with no estimate yet runs on the pool as before and takes the
measurement; a key measured only in pool workers next starts in-process
to measure itself there.  An in-process map re-checks after every chunk
with the time it measured, and sends the remaining chunks to the pool
once they are worth it, so a cost estimate that is too low costs at most
one chunk.  In-process maps retry a raising chunk like the pool does,
but a chunk that kills the process kills the caller: a plan with
``chunk_timeout_s`` (a deadline needs a worker process) and a cost key
that once needed a retry, rebuild or timeout always use the pool.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import pickle
import threading
import time
import types
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable, Sequence

from repro import obs
from repro.errors import ChunkFailure, ExecutorError
from repro.obs import manifest as _obs_manifest
from repro.obs import runtime as _obs_runtime
from repro.utils.rng import SeedSpec

#: Chunk functions are module-level callables so they survive pickling:
#: ``chunk_fn(payload, seed_spec, indices) -> list[per-trial result]``.
ChunkFn = "Callable[[Any, SeedSpec, Sequence[int]], list]"

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: Per-attempt growth factor for ``chunk_timeout_s`` deadlines, so a
#: slow-but-correct chunk eventually gets enough time to finish.
TIMEOUT_BACKOFF = 2.0

#: Modules imported into the forkserver before the first fork, so workers
#: inherit the heavy imports (numpy, the engine stack) instead of paying
#: them per process.  The engine's uplink and localization chunks import
#: their radar stack on first call, so it is listed too: a worker that
#: imported it inside a chunk would charge the import to the cost model's
#: per-trial seconds.  Import failures are silently ignored by the server.
_FORKSERVER_PRELOAD = (
    "repro.sim.executor",
    "repro.sim.engine",
    "repro.radar.fmcw",
    "repro.core.uplink",
    "repro.core.localization",
)

#: Seconds a parked pool waits for its next map before it shuts down.
#: A constant rather than a plan option: it bounds how long a program
#: that has finished its last map keeps idle worker processes alive.
POOL_IDLE_RETIRE_S = 1.0

#: The largest share of a chunk's time that its dispatch may take when
#: the cost model sizes chunks.
DISPATCH_SHARE = 0.1


@cache
def default_start_method() -> str:
    """The start method used when :data:`START_METHOD_ENV` names none.

    ``fork`` is fast but deprecated in multi-threaded parents on Python
    3.12+ (and no longer the Linux default on 3.14), so the default is the
    warning-free ``forkserver`` where available (POSIX), else ``spawn``.
    Results are bit-identical under *any* start method — trial seeding is
    index-keyed, never inherited — and ``forkserver``/``spawn`` workers
    start from a clean import state, so parent-process global mutations
    cannot leak into trials the way ``fork`` snapshots allow.  Set
    :data:`START_METHOD_ENV` (``REPRO_MP_START_METHOD``) to override.
    Resolved once per process; the variable is read on every map.
    """
    import multiprocessing

    if "forkserver" in multiprocessing.get_all_start_methods():
        return "forkserver"
    return "spawn"


@dataclass(frozen=True)
class ChunkTiming:
    """Wall-clock record for one dispatched chunk (progress-hook payload).

    A chunk always covers at least one trial — :func:`chunk_indices`
    cannot produce an empty chunk — so construction rejects
    ``num_trials < 1`` rather than ever carrying a fabricated
    ``start_index`` sentinel for a chunk that ran nothing.
    """

    chunk_index: int
    start_index: int
    num_trials: int
    seconds: float

    def __post_init__(self) -> None:
        if self.chunk_index < 0:
            raise ValueError(f"chunk_index must be >= 0, got {self.chunk_index}")
        if self.start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {self.start_index}")
        if self.num_trials < 1:
            raise ValueError(
                f"a chunk covers at least one trial, got num_trials={self.num_trials}"
            )
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")

    def as_dict(self) -> "dict[str, Any]":
        return {
            "chunk_index": self.chunk_index,
            "start_index": self.start_index,
            "num_trials": self.num_trials,
            "seconds": self.seconds,
        }


@dataclass
class ExecutionReport:
    """How a trial map actually ran: backend, chunking, timing, faults.

    ``backend`` is ``"serial"`` (``workers=1``), ``"process"`` (the
    pool), ``"inprocess"`` (a ``workers > 1`` map the cost model ran in
    this process), ``"escalated"`` (begun in-process, finished on the
    pool) or ``"serial-fallback:<reason>"`` (no pool could be used).
    ``workers`` is the pool size that ran chunks (1 when none did) and
    ``requested_workers`` the plan's.

    The fault counters record *recovered* trouble — retries that
    succeeded, pools that were rebuilt.  Unrecoverable failures never
    produce a report; they raise :class:`repro.errors.ExecutorError`
    instead.
    """

    backend: str
    workers: int
    chunk_size: int
    num_trials: int
    chunks: "list[ChunkTiming]" = field(default_factory=list)
    total_seconds: float = 0.0
    retries: int = 0
    pool_rebuilds: int = 0
    timeouts: int = 0
    fault_events: "list[dict[str, Any]]" = field(default_factory=list)
    requested_workers: int = 1

    def as_metadata(self) -> "dict[str, Any]":
        """Plain-dict form for ``SweepResult.metadata['_execution']``."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "requested_workers": self.requested_workers,
            "chunk_size": self.chunk_size,
            "num_trials": self.num_trials,
            "total_seconds": self.total_seconds,
            "chunks": [chunk.as_dict() for chunk in self.chunks],
            "faults": {
                "retries": self.retries,
                "pool_rebuilds": self.pool_rebuilds,
                "timeouts": self.timeouts,
                "events": [dict(event) for event in self.fault_events],
            },
        }


@dataclass(frozen=True)
class ExecutionPlan:
    """How to run a Monte-Carlo trial map.

    ``workers=1`` (the default) runs serially in-process — no pool, no
    pickling, safe everywhere (Windows spawn semantics, frozen CI
    runners).  ``workers>1`` fans chunks out over a
    ``ProcessPoolExecutor`` of at most ``workers`` and at most the
    usable cores, leased warm from the previous map with the same
    worker count, start method and observability configuration when one
    is parked, unless the measured cost model finds the map cheaper
    in-process (see the module docstring); results are bit-identical
    either way.  The start method comes from :data:`START_METHOD_ENV`,
    else :func:`default_start_method`.

    ``chunk_size`` balances scheduling granularity against dispatch
    overhead; ``None`` picks ``ceil(n / (4 * workers))`` so each worker
    sees ~4 chunks for decent load balancing, or coarser chunks once
    the cost model has measured the dispatch cost.  ``progress`` is called in
    the parent process once per finished chunk with a
    :class:`ChunkTiming` (completion order, not index order), under
    every backend; a retried chunk reports only its final successful
    attempt (exactly once per chunk).  The serve subsystem chains onto
    it to push ``progress`` frames while a point is still running.

    The fault knobs govern ``workers>1`` plans only; an in-process map
    of such a plan retries a raising chunk under ``max_retries`` too,
    and a plan with ``chunk_timeout_s`` always runs on the pool:

    ``max_retries``
        How many times a failed chunk is resubmitted before it counts as
        exhausted.  A chunk is a pure function of
        ``(payload, spec, indices)``, so a successful retry is
        bit-identical to what the failed attempt would have returned.
        The same budget bounds pool rebuilds after a worker death.
    ``chunk_timeout_s``
        Optional per-chunk deadline (measured from dispatch).  A chunk
        past its deadline is treated as failed: the pool is killed to
        reclaim the stuck worker and the chunk retries with the deadline
        scaled by :data:`TIMEOUT_BACKOFF` per prior attempt.

    Once any chunk exhausts its retries the map raises
    :class:`repro.errors.ExecutorError` naming the failing trial indices.
    """

    workers: int = 1
    chunk_size: "int | None" = None
    progress: "Callable[[ChunkTiming], None] | None" = None
    max_retries: int = 2
    chunk_timeout_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.chunk_timeout_s is not None and not self.chunk_timeout_s > 0:
            raise ValueError(
                f"chunk_timeout_s must be positive, got {self.chunk_timeout_s}"
            )

    def resolved_chunk_size(self, num_trials: int) -> int:
        """The chunk size in effect for ``num_trials`` trials before the
        cost model coarsens it (``chunk_size=None`` only)."""
        if self.chunk_size is not None:
            return self.chunk_size
        return _default_chunk_size(num_trials, self.workers)


def _default_chunk_size(num_trials: int, workers: int) -> int:
    """``ceil(n / (4 * workers))``: about four chunks per worker."""
    if workers <= 1:
        return max(1, num_trials)
    return max(1, math.ceil(num_trials / (4 * workers)))


def _usable_cores() -> int:
    """The cores this process may run on (its affinity mask), at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def chunk_indices(num_trials: int, chunk_size: int, start: int = 0) -> "list[range]":
    """Split ``range(start, start + num_trials)`` into contiguous chunks.

    The chunks partition ``start..start+num_trials-1`` exactly — every
    index in exactly one chunk, in ascending order — which the property
    suite (``tests/property/test_property_executor.py``) holds as an
    invariant.  ``start`` offsets the whole window without changing any
    trial's identity: trial ``i`` is always seeded from ``(root, i)``, so
    the adaptive driver can dispatch round ``r`` as the window
    ``[r*batch, (r+1)*batch)`` and stay bit-identical to one flat run.
    """
    if num_trials < 0:
        raise ValueError(f"num_trials must be non-negative, got {num_trials}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    stop = start + num_trials
    return [
        range(lo, min(lo + chunk_size, stop))
        for lo in range(start, stop, chunk_size)
    ]


def _obs_worker_init(config) -> None:
    """Pool-worker initializer: join the parent's observability run.

    Explicit hand-off (rather than environment inheritance) because a
    ``forkserver`` started before the parent enabled observability holds
    a stale environment snapshot.  ``config`` is ``None`` while
    observability is disabled, making this a no-op.
    """
    obs.apply_worker_config(config)


def _timed_chunk(
    chunk_fn,
    payload,
    spec: SeedSpec,
    indices: "Sequence[int]",
    chunk_number: "int | None" = None,
    collect_metrics: bool = False,
):
    """Run one chunk, returning (results, wall seconds, metrics delta).

    The span and the metrics delta attribute the chunk's telemetry to
    ``chunk_number`` / its trial indices.  ``collect_metrics`` is set
    only when the chunk runs in a *worker* process: the delta of the
    worker's registry around the chunk is shipped back with the results
    so the parent can fold it in (in-process chunks mutate the parent's
    registry directly, so shipping a delta would double count).
    """
    before = (
        obs.snapshot() if (collect_metrics and _obs_runtime._enabled) else None
    )
    start = time.perf_counter()
    with obs.span(
        "pool.chunk",
        chunk=chunk_number,
        start_index=indices[0] if len(indices) else None,
        trials=len(indices),
    ):
        results = list(chunk_fn(payload, spec, indices))
    elapsed = time.perf_counter() - start
    if len(results) != len(indices):
        raise RuntimeError(
            f"chunk function returned {len(results)} results for {len(indices)} trials"
        )
    delta = None
    if before is not None:
        delta = obs.diff_snapshots(before, obs.snapshot())
    return results, elapsed, delta


def _is_picklable(*objects: Any) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def _run_in_process(
    chunk_fn,
    payload,
    spec: SeedSpec,
    chunks: "list[range]",
    plan: ExecutionPlan,
    observer: "_ExecutionObserver",
    timings: "list[ChunkTiming]",
    *,
    first: int = 0,
    backend: str = "serial",
    escalate: "Callable[[float, int, int], bool] | None" = None,
) -> "tuple[list, int]":
    """Run ``chunks[first:]`` in this process, in order.

    Under ``backend="serial"`` a raising chunk propagates as it is.  The
    ``"inprocess"`` backend retries it up to ``plan.max_retries`` times
    and then raises :class:`ExecutorError`, as the pool does, and after
    each chunk asks ``escalate(measured seconds per trial, trials left,
    chunks left)`` whether to stop here.  Returns ``(results, number of
    the first chunk not run)``.
    """
    results: "list" = []
    spent = 0.0
    done = left = 0
    if escalate is not None:
        left = sum(len(indices) for indices in chunks[first:])
    for number in range(first, len(chunks)):
        indices = chunks[number]
        attempt = 0
        while True:
            observer.chunk_dispatched(number, indices, attempt=attempt, backend=backend)
            try:
                chunk_results, elapsed, _delta = _timed_chunk(
                    chunk_fn, payload, spec, indices, chunk_number=number
                )
                break
            except Exception as error:
                if backend == "serial":
                    raise
                attempt += 1
                will_retry = attempt <= plan.max_retries
                observer.chunk_failed(
                    number, kind="raise", attempt=attempt,
                    error=_describe_error(error), will_retry=will_retry,
                )
                if not will_retry:
                    raise ExecutorError([ChunkFailure(
                        chunk_index=number, indices=tuple(indices), attempts=attempt,
                        kind="raise", error=_describe_error(error),
                    )]) from error
        _chunk_done(plan, observer, timings, number, indices, elapsed)
        results.extend(chunk_results)
        if escalate is not None and number + 1 < len(chunks):
            spent += elapsed
            done += len(indices)
            left -= len(indices)
            if escalate(spent / done, left, len(chunks) - number - 1):
                return results, number + 1
    return results, len(chunks)


def _chunk_done(
    plan: ExecutionPlan,
    observer: "_ExecutionObserver",
    timings: "list[ChunkTiming]",
    number: int,
    indices: "Sequence[int]",
    elapsed: float,
) -> None:
    """Report one finished chunk: telemetry, its timing, the plan's hook."""
    observer.chunk_completed(number, indices, elapsed)
    timing = ChunkTiming(
        chunk_index=number,
        start_index=indices[0],
        num_trials=len(indices),
        seconds=elapsed,
    )
    timings.append(timing)
    if plan.progress is not None:
        plan.progress(timing)


class _ExecutionObserver:
    """The single funnel for execution telemetry.

    Every chunk-lifecycle transition — dispatch, completion, failure,
    timeout, pool rebuild — is reported here exactly once.  The observer
    forwards it to :mod:`repro.obs` (structured event + metric + trace
    marker, all no-ops while observability is disabled) *and* accumulates
    the counters that :meth:`ExecutionReport.as_metadata` later exposes,
    so the report is derived from the same stream the logs show rather
    than being plumbed in parallel.
    """

    __slots__ = ("retries", "pool_rebuilds", "timeouts", "events")

    def __init__(self) -> None:
        self.retries = 0
        self.pool_rebuilds = 0
        self.timeouts = 0
        self.events: "list[dict[str, Any]]" = []

    def chunk_dispatched(
        self, number: int, indices: "Sequence[int]", *, attempt: int, backend: str
    ) -> None:
        if not _obs_runtime._enabled:
            return
        obs.log(
            "executor.chunk.dispatch",
            chunk=number,
            start_index=indices[0] if len(indices) else None,
            trials=len(indices),
            attempt=attempt,
            backend=backend,
        )
        obs.inc("executor.chunks.dispatched")

    def chunk_completed(
        self, number: int, indices: "Sequence[int]", seconds: float
    ) -> None:
        if not _obs_runtime._enabled:
            return
        obs.log(
            "executor.chunk.complete",
            chunk=number,
            start_index=indices[0] if len(indices) else None,
            trials=len(indices),
            seconds=round(seconds, 6),
        )
        obs.inc("executor.chunks.completed")
        obs.inc("executor.trials.completed", len(indices))
        obs.observe("executor.chunk_seconds", seconds)

    def chunk_failed(
        self,
        number: int,
        *,
        kind: str,
        attempt: int,
        error: str,
        will_retry: bool,
    ) -> None:
        """One failed attempt of one chunk (raise / timeout)."""
        self.events.append(
            {"chunk_index": number, "kind": kind, "attempt": attempt, "error": error}
        )
        if kind == "timeout":
            self.timeouts += 1
        if will_retry:
            self.retries += 1
        if not _obs_runtime._enabled:
            return
        obs.log(
            "executor.chunk.retry" if will_retry else "executor.chunk.exhausted",
            chunk=number,
            kind=kind,
            attempt=attempt,
            error=error,
        )
        obs.inc("executor.retries" if will_retry else "executor.chunks.exhausted")
        if kind == "timeout":
            obs.inc("executor.timeouts")
        obs.instant("executor.chunk.retry", chunk=number, kind=kind, attempt=attempt)

    def pool_started(self) -> None:
        """A new pool was made (a first start or a rebuild)."""
        if _obs_runtime._enabled:
            obs.inc("executor.pool.starts")

    def pool_reused(self) -> None:
        """A map leased a parked pool instead of starting one."""
        if _obs_runtime._enabled:
            obs.inc("executor.pool.reuses")

    def ran_in_process(self) -> None:
        """The cost model ran a ``workers > 1`` map in this process."""
        if _obs_runtime._enabled:
            obs.inc("executor.inprocess")

    def escalated(self) -> None:
        """An in-process map sent its remaining chunks to the pool."""
        if _obs_runtime._enabled:
            obs.inc("executor.escalations")

    def pool_rebuilt(self, *, broken: bool) -> None:
        self.pool_rebuilds += 1
        if not _obs_runtime._enabled:
            return
        obs.log("executor.pool.rebuild", broken=broken)
        obs.inc("executor.pool_rebuilds")
        obs.instant("executor.pool.rebuild", broken=broken)


def _describe_error(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _start_method() -> str:
    """The pool start method: :data:`START_METHOD_ENV`, else the default."""
    return os.environ.get(START_METHOD_ENV) or default_start_method()


def _resolve_context(method: str):
    """The multiprocessing context for ``method``."""
    import multiprocessing

    context = multiprocessing.get_context(method)
    if method == "forkserver":
        try:
            # Only effective before the (shared) forkserver starts; later
            # calls are harmless no-ops, import failures server-side too.
            context.set_forkserver_preload(list(_FORKSERVER_PRELOAD))
        except Exception:
            pass
    return context


def _kill(pool) -> None:
    """Tear a pool down hard — stuck or dead workers included."""
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def _usable(pool) -> bool:
    """Whether a parked pool can take work: not broken, every worker alive."""
    if getattr(pool, "_broken", False) or getattr(pool, "_shutdown_thread", False):
        return False
    return all(
        process.is_alive()
        for process in (getattr(pool, "_processes", None) or {}).values()
    )


class _IdlePool:
    """A parked pool with its retirement timer.

    ``hold_fd`` is a duplicate of the forkserver's "alive" descriptor
    (``None`` under other start methods).  The forkserver exits only
    once every copy is closed, and the workers' copies close as they
    exit, before the parent has freed the pool's queues.  Holding one
    more copy until retirement is complete means a caller that stops
    the forkserver and then the resource tracker never stops the
    tracker while the pool's semaphores are still registered.
    """

    __slots__ = ("pool", "timer", "token", "hold_fd")

    def __init__(self, pool, timer, token: int, hold_fd: "int | None") -> None:
        self.pool = pool
        self.timer = timer
        self.token = token
        self.hold_fd = hold_fd


_idle_lock = threading.Lock()
_idle_pools: "dict[tuple, list[_IdlePool]]" = {}
_park_tokens = itertools.count()


def _pool_key(workers: int, method: str, worker_config) -> tuple:
    """The idle-slot key: pools are interchangeable only within one key.

    The owning process id comes first, so a ``fork``-started child that
    inherited this module's slots never leases its parent's pools.
    """
    config = None if worker_config is None else tuple(sorted(worker_config.items()))
    return (os.getpid(), workers, method, config)


def _hold_forkserver() -> "int | None":
    from multiprocessing import forkserver

    alive_fd = getattr(forkserver._forkserver, "_forkserver_alive_fd", None)
    if alive_fd is None:
        return None
    try:
        return os.dup(alive_fd)
    except OSError:
        return None


def _release(hold_fd: "int | None") -> None:
    if hold_fd is not None:
        os.close(hold_fd)


def _lease_pool(key: tuple):
    """Take the most recently parked usable pool for ``key``, or ``None``."""
    while True:
        with _idle_lock:
            slots = _idle_pools.get(key)
            if not slots:
                return None
            parked = slots.pop()
            if not slots:
                del _idle_pools[key]
        parked.timer.cancel()
        _release(parked.hold_fd)
        if _usable(parked.pool):
            return parked.pool
        _kill(parked.pool)


def _park_pool(key: tuple, pool) -> None:
    """Park an idle pool for the next map with ``key``.

    A key's pools are only ever started by maps that found none parked,
    so it never holds more than one pool per map that ran at once; each
    retires on its own idle timer.
    """
    with _idle_lock:
        token = next(_park_tokens)
        # The timer carries (key, token), never the pool: the slot is the
        # pool's only owner, and a lease that empties it leaves the timer
        # nothing to retire.
        timer = threading.Timer(POOL_IDLE_RETIRE_S, _retire_pool, (key, token))
        timer.daemon = True
        _pid, _workers, method, _config = key
        hold_fd = _hold_forkserver() if method == "forkserver" else None
        _idle_pools.setdefault(key, []).append(_IdlePool(pool, timer, token, hold_fd))
        timer.start()


def _retire_pool(key: tuple, token: int) -> None:
    """Shut down the parked pool ``token`` if no map has leased it since."""
    with _idle_lock:
        slots = _idle_pools.get(key, [])
        parked = next((idle for idle in slots if idle.token == token), None)
        if parked is None:
            return
        slots.remove(parked)
        if not slots:
            del _idle_pools[key]
    # A graceful shutdown joins the pool's manager thread and frees its
    # queues, which unregisters their named semaphores; only then may the
    # forkserver (and a resource tracker stopped after it) go.
    try:
        parked.pool.shutdown(wait=True)
    finally:
        _release(parked.hold_fd)


@atexit.register
def _retire_all() -> None:
    """Retire every parked pool while the interpreter is still whole.

    A pool still parked at exit would otherwise be freed during module
    teardown, when ``concurrent.futures`` can no longer run its callbacks.
    """
    with _idle_lock:
        parked = [
            (key, idle.token) for key, slots in _idle_pools.items() for idle in slots
        ]
    for key, token in parked:
        _retire_pool(key, token)


class _PoolRunner:
    """One fault-tolerant trial map over a leased process pool.

    Owns the retry/rebuild/timeout state machine described in the module
    docstring, and the pool it leased or started until ``run()`` parks
    or kills it.  ``run()`` runs ``chunks[first:]``, appends their
    timings to ``timings`` and returns their per-trial results, or
    raises :class:`ExecutorError`; completed chunks are never recomputed
    across retries or rebuilds.  ``warm`` tells whether it leased a
    parked pool.
    """

    def __init__(
        self, chunk_fn, payload, spec, chunks, plan, key, observer: _ExecutionObserver,
        timings: "list[ChunkTiming]", first: int = 0,
    ):
        self.chunk_fn = chunk_fn
        self.payload = payload
        self.spec = spec
        self.chunks = chunks
        self.numbers = range(first, len(chunks))
        self.plan = plan
        self.observer = observer
        self.attempts = [0] * len(chunks)  # failed attempts charged per chunk
        self.completed: "dict[int, list]" = {}
        self.timings = timings
        self.exhausted: "dict[int, ChunkFailure]" = {}
        self.pool_breaks = 0
        self.pool = None
        self.warm = False
        self.pending: "dict[Any, int]" = {}  # future -> chunk number
        self.deadlines: "dict[Any, float]" = {}  # future -> monotonic deadline
        self.key = key
        _pid, self.workers, self.method, _config = key
        self.worker_config = obs.worker_config()

    # -- pool lifecycle ------------------------------------------------------

    def _make_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        self.observer.pool_started()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_resolve_context(self.method),
            initializer=_obs_worker_init,
            initargs=(self.worker_config,),
        )

    def _acquire_pool(self) -> None:
        self.pool = _lease_pool(self.key)
        self.warm = self.pool is not None
        if self.pool is None:
            self.pool = self._make_pool()
        else:
            self.observer.pool_reused()

    def _kill_pool(self) -> None:
        """Tear the pool down hard — stuck or dead workers included."""
        if self.pool is None:
            return
        _kill(self.pool)
        self.pool = None

    # -- bookkeeping ---------------------------------------------------------

    def _failure(self, number: int, kind: str, error: BaseException) -> ChunkFailure:
        return ChunkFailure(
            chunk_index=number,
            indices=tuple(self.chunks[number]),
            attempts=self.attempts[number],
            kind=kind,
            error=_describe_error(error),
        )

    def _charge(self, number: int, kind: str, error: BaseException, retry: "list[int]") -> None:
        """Record a chunk-level failure; queue a retry or mark it exhausted."""
        self.attempts[number] += 1
        will_retry = self.attempts[number] <= self.plan.max_retries
        self.observer.chunk_failed(
            number,
            kind=kind,
            attempt=self.attempts[number],
            error=_describe_error(error),
            will_retry=will_retry,
        )
        if will_retry:
            retry.append(number)
        else:
            self.exhausted[number] = self._failure(number, kind, error)

    def _complete(self, number: int, chunk_results: list, elapsed: float, delta) -> None:
        if delta is not None:
            # Fold the worker's per-chunk metrics back into this process.
            obs.merge_into_registry(delta)
        self.completed[number] = chunk_results
        _chunk_done(
            self.plan, self.observer, self.timings, number, self.chunks[number], elapsed
        )

    def _submit(self, number: int) -> None:
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        self.observer.chunk_dispatched(
            number, self.chunks[number], attempt=self.attempts[number], backend="process"
        )
        try:
            future = self.pool.submit(
                _timed_chunk, self.chunk_fn, self.payload, self.spec,
                list(self.chunks[number]), number, True,
            )
        except BrokenProcessPool as error:
            # A worker died before this chunk was queued: a failed future
            # sends it down the drain loop's rebuild path with the rest.
            future = Future()
            future.set_exception(error)
        self.pending[future] = number
        if self.plan.chunk_timeout_s is not None:
            deadline_s = self.plan.chunk_timeout_s * (TIMEOUT_BACKOFF ** self.attempts[number])
            self.deadlines[future] = time.monotonic() + deadline_s

    # -- the drain loop ------------------------------------------------------

    def _drain_once(self) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        wait_timeout = None
        if self.deadlines:
            wait_timeout = max(0.0, min(self.deadlines.values()) - time.monotonic())
        done, _ = wait(set(self.pending), timeout=wait_timeout, return_when=FIRST_COMPLETED)

        retry: "list[int]" = []
        pool_broken: "BaseException | None" = None
        for future in done:
            number = self.pending.pop(future)
            self.deadlines.pop(future, None)
            try:
                chunk_results, elapsed, delta = future.result()
            except BrokenProcessPool as error:
                # The pool died under this chunk (or a neighbour); the
                # culprit is unknowable, so nobody's retry budget is
                # charged — the *rebuild* budget bounds this path.
                pool_broken = error
                retry.append(number)
            except Exception as error:
                self._charge(number, "raise", error, retry)
            else:
                self._complete(number, chunk_results, elapsed, delta)

        timed_out = False
        if self.deadlines:
            now = time.monotonic()
            for future in [f for f, d in list(self.deadlines.items()) if d <= now]:
                number = self.pending.pop(future)
                del self.deadlines[future]
                timed_out = True
                limit_s = self.plan.chunk_timeout_s * (TIMEOUT_BACKOFF ** self.attempts[number])
                self._charge(
                    number,
                    "timeout",
                    TimeoutError(f"chunk {number} exceeded its {limit_s:.3g} s deadline"),
                    retry,
                )

        if pool_broken is not None or timed_out:
            # The pool is unusable (broken) or hosts a stuck worker
            # (timeout): every in-flight chunk is lost either way.
            # Resubmit them uncharged on a fresh pool.
            retry.extend(self.pending.values())
            self.pending.clear()
            self.deadlines.clear()
            self._kill_pool()
            if pool_broken is not None:
                self.pool_breaks += 1
                if self.pool_breaks > max(1, self.plan.max_retries):
                    # Rebuild budget exhausted: everything unfinished
                    # fails as pool-broken.
                    for number in retry:
                        self.exhausted.setdefault(
                            number, self._failure(number, "pool-broken", pool_broken)
                        )
                    return
            self.observer.pool_rebuilt(broken=pool_broken is not None)
            self.pool = self._make_pool()

        for number in retry:
            if number not in self.exhausted:
                self._submit(number)

    def run(self) -> list:
        self._acquire_pool()
        clean = False
        try:
            for number in self.numbers:
                self._submit(number)
            while self.pending:
                self._drain_once()
                if self.exhausted:
                    failures = [self.exhausted[k] for k in sorted(self.exhausted)]
                    raise ExecutorError(failures)
            clean = True
        finally:
            # Only a pool that ends with nothing pending and nothing
            # exhausted is parked; a killed-and-rebuilt pool's successor
            # is clean, its stuck predecessor is long gone.
            if clean:
                _park_pool(self.key, self.pool)
                self.pool = None
            else:
                self._kill_pool()
        results: "list" = []
        for number in self.numbers:
            results.extend(self.completed[number])
        return results


def _cost_key(chunk_fn, payload) -> tuple:
    """The chunk function plus the payload's leading type.

    A leading function or class stands for itself, so a sweep's chunk
    keeps one estimate per module-level ``evaluate``.
    """
    lead = payload[0] if isinstance(payload, tuple) and payload else payload
    if not isinstance(lead, (type, types.FunctionType)):
        lead = type(lead)
    return (chunk_fn, lead)


class _CostModel:
    """The measured costs behind ``map_trials``' backend choice.

    One per process, thread-safe.  ``trial_s`` holds each cost key's
    seconds per trial and whether they were measured in this process:
    a pool worker's chunk seconds include its share of contention for
    the cores, so they overstate what the trial costs in-process, and
    once in-process seconds exist a pool map only lowers them.
    ``pool_s`` holds, per pool key, the latest effective ``(per-map
    overhead, per-chunk dispatch)`` seconds of a map that leased a
    parked pool: its wall time minus ``n·τ/workers``.  A newly started
    pool is not measured: its start is paid once per pool, not per map,
    and a heavy key whose pool had retired would stay in-process behind
    it.  Nor is a cost key's first map on a pool: its workers import the
    payload's modules as they unpickle it, outside the chunk timings, a
    one-time cost (89 ms for a benchmark sweep under pytest, against
    1-3 ms of warm overhead) that would otherwise keep heavy maps
    in-process.  ``pooled`` holds the keys that ran on a pool.  Only
    maps without a retry, rebuild or timeout feed the model; a cost key
    that had one lands in ``faulted`` and always runs on the pool.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.trial_s: "dict[tuple, tuple[float, bool]]" = {}
        self.pool_s: "dict[tuple, tuple[float, float]]" = {}
        self.pooled: "set[tuple]" = set()
        self.faulted: "set[tuple]" = set()

    def reset(self) -> None:
        """Forget every estimate (a fresh process's state)."""
        with self.lock:
            self.trial_s.clear()
            self.pool_s.clear()
            self.pooled.clear()
            self.faulted.clear()

    def _estimates(self, cost_key: tuple, pool_key: tuple):
        with self.lock:
            return self.trial_s.get(cost_key), self.pool_s.get(pool_key)

    def chunk_size(self, cost_key: tuple, pool_key: tuple, num_trials: int) -> int:
        """Chunks coarse enough that dispatch is at most
        :data:`DISPATCH_SHARE` of each, never finer than the default and
        never fewer than two per worker, so a map begun in-process still
        has a chunk for every worker when it escalates after its first."""
        workers = pool_key[1]
        size = _default_chunk_size(num_trials, workers)
        trial, pool_s = self._estimates(cost_key, pool_key)
        if trial and trial[0] and pool_s:
            wanted = math.ceil(pool_s[1] / (DISPATCH_SHARE * trial[0]))
            size = max(size, min(wanted, num_trials // (2 * workers)))
        return size

    def choose(
        self, cost_key: tuple, pool_key: tuple, num_trials: int, plan: ExecutionPlan
    ) -> "float | None":
        """The pool overhead an in-process run beats, or ``None`` for the pool.

        In-process when ``n·τ <= n·τ/workers + overhead``; a pool of one
        worker never beats it.  A key whose ``τ`` was only measured in
        pool workers also starts in-process, so its first chunk measures
        ``τ`` here and escalation decides the rest.  The pool whenever a
        deadline needs a worker process, the key once had a fault, or an
        estimate is missing.
        """
        if plan.chunk_timeout_s is not None:
            return None
        with self.lock:
            if cost_key in self.faulted:
                return None
        workers = pool_key[1]
        if workers == 1:
            return 0.0
        trial, pool_s = self._estimates(cost_key, pool_key)
        if trial is None or pool_s is None:
            return None
        (trial_s, measured_here), overhead_s = trial, pool_s[0]
        serial_s = num_trials * trial_s
        if not measured_here or serial_s <= serial_s / workers + overhead_s:
            return overhead_s
        return None

    def record(
        self,
        cost_key: tuple,
        observer: "_ExecutionObserver",
        timings: "list[ChunkTiming]",
        ran_here: int,
        pool: "tuple[tuple, bool, float, int] | None" = None,
    ) -> None:
        """Learn from a finished map whose first ``ran_here`` chunks ran
        in-process; ``pool`` is ``(pool key, warm, wall seconds,
        workers)`` of the pool run of the others."""
        with self.lock:
            if observer.retries or observer.pool_rebuilds or observer.timeouts:
                self.faulted.add(cost_key)
                return
            here, there = timings[:ran_here], timings[ran_here:]
            if here:
                trial = (_per_trial(here), True)
            else:
                trial = (_per_trial(there), False)
                known = self.trial_s.get(cost_key)
                # Sharing the cores slows a worker's trial by less than
                # ``2·workers``; a larger gap means the key's work grew,
                # and the next map measures it in-process again.
                if known is not None and trial[0] <= 2 * pool[3] * known[0]:
                    trial = (min(known[0], trial[0]), known[1])
            self.trial_s[cost_key] = trial
            if pool is not None:
                pool_key, warm, wall_s, workers = pool
                measured = warm and cost_key in self.pooled
                self.pooled.add(cost_key)
                if measured:
                    trials = sum(timing.num_trials for timing in there)
                    overhead_s = max(0.0, wall_s - trials * trial[0] / workers)
                    self.pool_s[pool_key] = (overhead_s, overhead_s / len(there))

    def fault(self, cost_key: tuple) -> None:
        with self.lock:
            self.faulted.add(cost_key)


def _per_trial(timings: "list[ChunkTiming]") -> float:
    return sum(t.seconds for t in timings) / sum(t.num_trials for t in timings)


_costs = _CostModel()


def _run_costed(
    chunk_fn, payload, spec, chunks, plan, cost_key, pool_key, overhead_s,
    observer, timings,
) -> "tuple[str, list, int, int]":
    """A ``workers > 1`` map under the cost model.

    ``overhead_s`` is :meth:`_CostModel.choose`'s answer: ``None`` runs
    on the pool; a number runs in-process and escalates to the pool once
    the measured remaining work outweighs that pool overhead.  Returns
    ``(backend, results, first chunk still to run in-process, pool
    workers used)``; the last chunks are left to the caller only when
    the pool could not be started.
    """
    results: "list" = []
    first, backend = 0, "process"
    workers = pool_key[1]
    if overhead_s is not None:
        observer.ran_in_process()
        results, first = _run_in_process(
            chunk_fn, payload, spec, chunks, plan, observer, timings,
            backend="inprocess",
            escalate=lambda trial_s, left, chunks_left: (
                left * trial_s * (1 - 1 / min(workers, chunks_left)) > overhead_s
                and _is_picklable(chunk_fn, payload, spec)
            ),
        )
        if first == len(chunks):
            _costs.record(cost_key, observer, timings, len(timings))
            return "inprocess", results, first, 1
        observer.escalated()
        backend = "escalated"
    ran_here = len(timings)
    runner = _PoolRunner(
        chunk_fn, payload, spec, chunks, plan, pool_key, observer, timings, first
    )
    pool_started = time.perf_counter()
    try:
        results += runner.run()
    except (OSError, ImportError, PermissionError) as error:
        # Pool creation refused (sandbox, missing semaphores): the caller
        # runs the rest in-process.  The observer keeps any events from a
        # partial pool run for transparency.
        del timings[ran_here:]
        return f"serial-fallback:{type(error).__name__}", results, first, 1
    pool_wall_s = time.perf_counter() - pool_started
    busy = min(workers, len(chunks) - first)
    _costs.record(
        cost_key, observer, timings, ran_here,
        pool=(pool_key, runner.warm, pool_wall_s, busy),
    )
    return backend, results, len(chunks), workers


def map_trials(
    chunk_fn,
    payload: Any,
    num_trials: int,
    rng: "int | SeedSpec | Any" = 0,
    plan: "ExecutionPlan | None" = None,
    *,
    start_trial: int = 0,
) -> "tuple[list, ExecutionReport]":
    """Run ``num_trials`` index-keyed trials, possibly across processes.

    ``chunk_fn(payload, seed_spec, indices)`` must be a module-level
    function that derives trial ``i``'s generator as
    ``seed_spec.stream(i)`` and returns one result per index, in order.
    Returns ``(per-trial results in trial order, ExecutionReport)``;
    the result list is identical for every ``workers`` / ``chunk_size``
    choice.

    ``start_trial`` shifts the dispatched window to trials
    ``[start_trial, start_trial + num_trials)`` without changing any
    trial's seed — trial ``i`` is always ``(root, i)``-keyed, so running
    the same index range in one call or across several (the adaptive
    driver's incremental rounds) produces bit-identical per-trial
    results.

    A ``workers > 1`` plan runs in-process, on the pool, or begun
    in-process and escalated to the pool, as the measured cost model
    (module docstring) decides; ``ExecutionReport.backend`` says which.
    Falls back to the serial backend (noted in the report) when the
    payload is unpicklable or the platform refuses to give us a pool, so
    callers never have to special-case restricted environments.  Worker
    crashes, chunk exceptions, and timeouts are retried per the plan's
    fault knobs (see :class:`ExecutionPlan`); only retry exhaustion
    raises :class:`repro.errors.ExecutorError`, which names the failing
    trial indices.
    """
    if num_trials < 0:
        raise ValueError(f"num_trials must be non-negative, got {num_trials}")
    if start_trial < 0:
        raise ValueError(f"start_trial must be non-negative, got {start_trial}")
    plan = plan or ExecutionPlan()
    spec = SeedSpec.from_rng(rng)
    chunk_size = plan.resolved_chunk_size(num_trials)
    chunks = chunk_indices(num_trials, chunk_size, start_trial)
    workers = min(plan.workers, _usable_cores(), max(1, len(chunks)))
    parallel = plan.workers > 1 and len(chunks) > 1
    cost_key = overhead_s = None
    if parallel:
        cost_key = _cost_key(chunk_fn, payload)
        pool_key = _pool_key(workers, _start_method(), obs.worker_config())
        overhead_s = _costs.choose(cost_key, pool_key, num_trials, plan)
        # Pickling is checked only where a pool will run chunks: an
        # in-process map checks it before it escalates.
        if overhead_s is None and not _is_picklable(chunk_fn, payload, spec):
            cost_key = None
        elif plan.chunk_size is None and plan.chunk_timeout_s is None:
            # A deadline is per chunk, so a deadline plan keeps its chunks.
            chunk_size = _costs.chunk_size(cost_key, pool_key, num_trials)
            chunks = chunk_indices(num_trials, chunk_size, start_trial)

    started = time.perf_counter()
    observer = _ExecutionObserver()
    timings: "list[ChunkTiming]" = []
    obs.log(
        "executor.map.start",
        trials=num_trials,
        chunks=len(chunks),
        workers=workers,
        requested_workers=plan.workers,
        chunk_size=chunk_size,
    )
    results: "list" = []
    first, pool_workers = 0, 1
    backend = "serial-fallback:unpicklable" if parallel else "serial"
    if cost_key is not None:
        try:
            backend, results, first, pool_workers = _run_costed(
                chunk_fn, payload, spec, chunks, plan, cost_key, pool_key,
                overhead_s, observer, timings,
            )
        except ExecutorError:
            _costs.fault(cost_key)
            raise
    if first < len(chunks):
        rest, _ = _run_in_process(
            chunk_fn, payload, spec, chunks, plan, observer, timings, first=first
        )
        results += rest
    total_seconds = time.perf_counter() - started
    obs.log(
        "executor.map.done",
        trials=num_trials,
        backend=backend,
        seconds=round(total_seconds, 6),
        retries=observer.retries,
        pool_rebuilds=observer.pool_rebuilds,
        timeouts=observer.timeouts,
    )
    report = ExecutionReport(
        backend=backend,
        workers=pool_workers,
        chunk_size=chunk_size,
        num_trials=num_trials,
        chunks=timings,
        total_seconds=total_seconds,
        retries=observer.retries,
        pool_rebuilds=observer.pool_rebuilds,
        timeouts=observer.timeouts,
        fault_events=observer.events,
        requested_workers=plan.workers,
    )
    _obs_manifest.note_execution(report)
    return results, report


def strip_execution(metadata: "dict[str, Any]") -> "dict[str, Any]":
    """Metadata minus the volatile ``_execution`` timing side channel.

    Result *values* are bit-identical across worker counts; wall-clock
    records are not and never can be.  Comparisons of sweeps run under
    different plans should compare ``strip_execution(metadata)``.
    """
    return {key: value for key, value in metadata.items() if key != "_execution"}


def sweep_results_equal(a, b) -> bool:
    """Bitwise equality of two ``SweepResult`` objects, timing excluded."""
    return (
        a.label == b.label
        and a.parameters == b.parameters
        and a.values == b.values
        and strip_execution(a.metadata) == strip_execution(b.metadata)
    )
