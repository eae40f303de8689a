"""Generic parameter-sweep helper with reproducible per-point seeding.

Sweeps run on the :mod:`repro.sim.executor` layer: each point's RNG is
index-keyed off the root seed (point ``i`` -> ``SeedSpec.stream(i)``),
so the values are bit-identical for any ``workers`` choice and editing
one point's workload does not perturb the others.  Per-chunk wall-clock
timings land in ``SweepResult.metadata["_execution"]`` — a volatile side
channel that :func:`repro.sim.executor.strip_execution` removes when
comparing results across execution plans.

Passing ``store=`` (an :class:`repro.store.ExperimentStore`) makes the
sweep *incremental*: every point is fingerprinted over ``(evaluate
identity, parameter, its child SeedSpec)``, cached points are loaded
instead of recomputed, and only the misses are dispatched to the
executor.  Because seeding is index-keyed, editing one point's parameter
invalidates exactly that point — the rest hit the cache.  Cache traffic
is reported in ``metadata["_execution"]["store"]`` (volatile, stripped
alongside the timings).

Sweeps inherit the executor's fault tolerance through the ``execution``
plan: crashed workers and failed chunks are retried bit-identically (the
recovery counters land in ``metadata["_execution"]["faults"]``), and
retry exhaustion raises :class:`repro.errors.ExecutorError` naming the
failing point indices — see :class:`repro.sim.executor.ExecutionPlan`'s
``max_retries`` / ``chunk_timeout_s`` knobs.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro import obs
from repro.errors import StoreError
from repro.obs import manifest as _obs_manifest
from repro.obs import runtime as _obs_runtime
from repro.sim.executor import ChunkTiming, ExecutionPlan, _is_picklable, map_trials
from repro.sim.results import SweepResult
from repro.utils.rng import SeedSpec


class _SweepProgress:
    """Parent-side progress hook emitting ``sweep.progress`` events.

    Wraps (and chains to) any user-supplied ``ExecutionPlan.progress``
    callback; runs only in the parent process, once per finished chunk,
    so the ETA estimate costs nothing on the workers.  Telemetry only —
    nothing here feeds back into values or seeds.
    """

    def __init__(self, label: str, total: int,
                 inner: "Callable[[ChunkTiming], None] | None",
                 cached: int):
        self.label = label
        self.total = total
        self.inner = inner
        self.cached = cached
        # Cache hits are already done when dispatch starts; folding them
        # in keeps done/total consistent with the sweep.start point count
        # (a warm sweep no longer "restarts" its progress fraction).
        self.done = cached
        self._started = time.perf_counter()

    def __call__(self, timing: ChunkTiming) -> None:
        self.done += timing.num_trials
        obs.inc("sweep.points.completed", timing.num_trials)
        elapsed = time.perf_counter() - self._started
        remaining = max(self.total - self.done, 0)
        # ETA extrapolates only over dispatched work — hits cost nothing.
        computed = self.done - self.cached
        eta_s = (elapsed / computed) * remaining if computed else None
        obs.log(
            "sweep.progress",
            label=self.label,
            done=self.done,
            total=self.total,
            dispatched=self.total - self.cached,
            cached=self.cached,
            eta_s=round(eta_s, 3) if eta_s is not None else None,
        )
        if self.inner is not None:
            self.inner(timing)


def _with_progress(
    execution: "ExecutionPlan | None", label: str, total: int, cached: int
) -> "ExecutionPlan | None":
    """The execution plan with a sweep-progress reporter chained in.

    ``total`` is the *full* point count (matching ``sweep.start``);
    ``cached`` is how many of those were served from the store before
    dispatch, so progress events stay monotone on warm caches.
    """
    if not _obs_runtime._enabled:
        return execution
    plan = execution if execution is not None else ExecutionPlan()
    return dataclasses.replace(
        plan, progress=_SweepProgress(label, total, plan.progress, cached)
    )


def _sweep_chunk(payload, spec: SeedSpec, positions) -> "list[float]":
    """Evaluate sweep points ``indices[position]``, each on its own stream.

    ``indices`` lists the points this sweep dispatches (every point, or
    the store's misses); a point's stream is keyed by its sweep index,
    so its value is bit-identical whichever other points run with it.
    """
    evaluate, params, indices = payload
    results = []
    for position in positions:
        index = indices[position]
        results.append(float(evaluate(params[index], spec.stream(index))))
    return results


def _replay_sweep_point(payload) -> "dict[str, Any]":
    """Recompute one cached sweep point (``repro cache verify`` hook)."""
    evaluate, parameter, point_spec = payload
    return {
        "parameter": float(parameter),
        "value": float(evaluate(parameter, point_spec.generator())),
    }


def _point_fingerprint(evaluate, parameter: float, point_spec: SeedSpec) -> str:
    from repro.store.fingerprint import fingerprint

    return fingerprint(
        "sweep-point",
        {"evaluate": evaluate, "parameter": parameter, "seed": point_spec},
    )


class _SeriesEvaluate:
    """Picklable adapter binding a grid ``evaluate`` to one series context."""

    def __init__(self, evaluate: "Callable[[Any, float, np.random.Generator], float]", context: Any):
        self.evaluate = evaluate
        self.context = context

    def __call__(self, parameter: float, stream: np.random.Generator) -> float:
        return self.evaluate(self.context, parameter, stream)


def _sweep_values(
    params: "list[float]",
    evaluate,
    spec: SeedSpec,
    execution: "ExecutionPlan | None",
    store,
    label: str,
) -> "tuple[list[float], dict[str, Any]]":
    """Values for every point, serving hits from ``store`` when given.

    Returns ``(values, execution-metadata)``.  Without a store, or when
    the work unit cannot be fingerprinted — lambdas, closures, exotic
    contexts (noted under ``["store"]["status"]``) — every point is a
    miss, so ``store=`` never changes *whether* a sweep runs, only how
    fast.  Only fingerprinted misses are written back.
    """
    started = time.perf_counter()
    values: "list[float | None]" = [None] * len(params)
    fingerprints = None
    store_meta = None
    if store is not None:
        store_meta = {"root": str(store.root), "status": "ok"}
        try:
            fingerprints = [
                _point_fingerprint(evaluate, parameter, spec.child(index))
                for index, parameter in enumerate(params)
            ]
        except StoreError as error:
            store_meta["status"] = f"disabled:{error}"
    if fingerprints is None:
        misses = list(range(len(params)))
    else:
        misses = []
        for index, point_fingerprint in enumerate(fingerprints):
            record = store.get(point_fingerprint)
            if record is not None:
                values[index] = float(record["payload"]["value"])
            else:
                misses.append(index)
        if _obs_runtime._enabled:
            obs.log(
                "sweep.cache",
                label=label,
                hits=len(params) - len(misses),
                misses=len(misses),
            )
            obs.inc("sweep.points.cached", len(params) - len(misses))

    if misses:
        plan = _with_progress(
            execution, label, len(params), cached=len(params) - len(misses)
        )
        computed, report = map_trials(
            _sweep_chunk, (evaluate, params, misses), len(misses), spec, plan
        )
        for index, value in zip(misses, computed):
            values[index] = value
        if fingerprints is not None:
            from repro.store.cache import ReplayRecipe

            replayable = _is_picklable(evaluate)
            for index in misses:
                replay = None
                if replayable:
                    replay = ReplayRecipe(
                        entry="repro.sim.sweep:_replay_sweep_point",
                        payload=(evaluate, params[index], spec.child(index)),
                    )
                store.put(
                    fingerprints[index],
                    "sweep-point",
                    {"parameter": params[index], "value": values[index]},
                    replay=replay,
                )
        execution_meta = report.as_metadata()
    else:
        execution_meta = {
            "backend": "cache",
            "workers": 0,
            "chunk_size": 0,
            "num_trials": 0,
            "total_seconds": time.perf_counter() - started,
            "chunks": [],
        }
    if store_meta is not None:
        store_meta["hits"] = len(params) - len(misses)
        store_meta["misses"] = len(misses)
        execution_meta["store"] = store_meta
    return values, execution_meta


def sweep(
    label: str,
    parameters: "Sequence[float]",
    evaluate: "Callable[[float, np.random.Generator], float]",
    *,
    rng: "int | np.random.Generator | SeedSpec | None" = 0,
    metadata: "dict[str, Any] | None" = None,
    execution: "ExecutionPlan | None" = None,
    store=None,
) -> SweepResult:
    """Evaluate ``evaluate(parameter, rng)`` over a parameter list.

    Each point receives an independent child RNG keyed by its index, so
    (a) the whole sweep is reproducible from one seed, (b) editing one
    point's workload does not perturb the others, and (c) the result is
    the same whether points run serially or across a process pool.  With
    ``execution.workers > 1`` the ``evaluate`` callable must be picklable
    (module-level function or picklable callable object); unpicklable
    callables fall back to the serial backend, noted in
    ``metadata["_execution"]["backend"]``.

    ``store`` (an :class:`repro.store.ExperimentStore`) caches each
    point's value under its canonical fingerprint: re-running the sweep
    serves hits from disk and computes only the misses, bit-identically
    to an uncached run.
    """
    params = [float(p) for p in parameters]
    if not params:
        raise ValueError("parameters must be non-empty")
    spec = SeedSpec.from_rng(rng)
    if _obs_runtime._enabled:
        obs.log(
            "sweep.start", label=label, points=len(params), cached=store is not None
        )
    started = time.perf_counter()
    values, execution_meta = _sweep_values(params, evaluate, spec, execution, store, label)
    if _obs_manifest._active is not None:
        store_meta = execution_meta.get("store", {})
        _obs_manifest.note_sweep(
            label,
            len(params),
            store_meta.get("hits", 0),
            store_meta.get("misses", len(params) if store is None else 0),
        )
    if _obs_runtime._enabled:
        obs.log(
            "sweep.done",
            label=label,
            points=len(params),
            seconds=round(time.perf_counter() - started, 6),
            backend=execution_meta.get("backend"),
        )
    combined = dict(metadata or {})
    combined["_execution"] = execution_meta
    return SweepResult(
        label=label,
        parameters=params,
        values=values,
        metadata=combined,
    )


def sweep_grid(
    series: "dict[str, Any]",
    parameters: "Sequence[float]",
    evaluate: "Callable[[Any, float, np.random.Generator], float]",
    *,
    rng: "int | np.random.Generator | SeedSpec | None" = 0,
    execution: "ExecutionPlan | None" = None,
    store=None,
) -> "list[SweepResult]":
    """Sweep the same parameter list for several labelled series.

    ``series`` maps label -> series context object passed to ``evaluate``;
    returns one :class:`SweepResult` per series.  Series ``k`` sweeps
    under seed child ``k`` of the root — the same derivation the serial
    implementation has always used — so grid results are reproducible
    and worker-count independent too.  ``store`` caches per point, as in
    :func:`sweep`; the series context is folded into each point's
    fingerprint, so different series never share cache entries.
    """
    if not series:
        raise ValueError("series must be non-empty")
    parent = SeedSpec.from_rng(rng)
    results = []
    for series_index, (label, context) in enumerate(series.items()):
        results.append(
            sweep(
                label,
                parameters,
                _SeriesEvaluate(evaluate, context),
                rng=parent.child(series_index),
                metadata={"series": label},
                execution=execution,
                store=store,
            )
        )
    return results
