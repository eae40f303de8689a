"""Process-safe metrics: counters, gauges, fixed-bucket histograms.

Each *process* owns one registry (module-global, lock-guarded).  Worker
processes cannot share memory with the parent, so cross-process safety is
by **serialization, not sharing**: the executor snapshots a worker's
registry around each chunk (:func:`snapshot` / :func:`diff_snapshots`)
and ships the delta back alongside the chunk results, where the parent
folds it in with :func:`merge_into_registry`.  Counters and histogram
buckets add, so the merged totals are independent of chunk completion
order — aggregation is deterministic even though scheduling is not.

Histograms use **fixed bucket edges** (chosen at first observation,
identical in every process for a given metric) for the same reason: two
snapshots with the same edges merge bucket-by-bucket, with no
re-binning and no order sensitivity.  :data:`DEFAULT_SECONDS_BUCKETS`
suits wall-clock timings from sub-millisecond DSP up to minutes-long
chunks.

The mutation helpers (:func:`inc`, :func:`set_gauge`, :func:`observe`)
are no-ops while observability is disabled — one flag check, nothing
else — so instrumented hot paths cost nothing in the default
configuration.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any

from repro.obs import runtime

#: Edges (upper bounds, seconds) for duration histograms.  The last
#: implicit bucket is +inf.
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


class Histogram:
    """Counts of observations against fixed, sorted upper-bound edges."""

    __slots__ = ("edges", "bucket_counts", "count", "total", "minimum", "maximum")

    def __init__(self, edges: "tuple[float, ...]" = DEFAULT_SECONDS_BUCKETS):
        edges = tuple(float(e) for e in edges)
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"histogram edges must be sorted and non-empty, got {edges}")
        self.edges = edges
        self.bucket_counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def as_dict(self) -> "dict[str, Any]":
        return {
            "edges": list(self.edges),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }


class MetricsRegistry:
    """One process's metrics; see the module docstring for the model."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: "dict[str, int | float]" = {}
        self._gauges: "dict[str, float]" = {}
        self._histograms: "dict[str, Histogram]" = {}

    def inc(self, name: str, amount: "int | float" = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(
        self, name: str, value: float, edges: "tuple[float, ...] | None" = None
    ) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(edges or DEFAULT_SECONDS_BUCKETS)
                self._histograms[name] = histogram
            histogram.observe(value)

    def snapshot(self) -> "dict[str, Any]":
        """A plain, JSON-safe, key-sorted copy of everything recorded."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: self._histograms[name].as_dict()
                    for name in sorted(self._histograms)
                },
            }


_registry = MetricsRegistry()


def _reset() -> None:
    global _registry
    _registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """This process's registry (mainly for tests and the CLI printer)."""
    return _registry


def inc(name: str, amount: "int | float" = 1) -> None:
    """Add to a counter (no-op while disabled)."""
    if not runtime._enabled:
        return
    _registry.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge to its latest value (no-op while disabled)."""
    if not runtime._enabled:
        return
    _registry.set_gauge(name, value)


def observe(name: str, value: float, edges: "tuple[float, ...] | None" = None) -> None:
    """Record one histogram observation (no-op while disabled)."""
    if not runtime._enabled:
        return
    _registry.observe(name, value, edges)


def snapshot() -> "dict[str, Any]":
    """Snapshot this process's registry (empty shells while disabled)."""
    return _registry.snapshot()


def empty_snapshot() -> "dict[str, Any]":
    return {"counters": {}, "gauges": {}, "histograms": {}}


def _check_histogram_dict(name: str, data: "dict[str, Any]") -> None:
    """Reject malformed histogram dicts before arithmetic touches them.

    ``zip`` over mismatched ``bucket_counts`` would silently truncate —
    corrupting totals without an error — so shape problems must fail
    loudly at the boundary where snapshots from other processes (or old
    on-disk payloads) enter.
    """
    edges = data.get("edges")
    counts = data.get("bucket_counts")
    if not edges:
        raise ValueError(f"histogram {name!r} snapshot has no edges")
    if list(edges) != sorted(float(e) for e in edges):
        raise ValueError(f"histogram {name!r} snapshot edges are not sorted")
    if counts is None or len(counts) != len(edges) + 1:
        raise ValueError(
            f"histogram {name!r} snapshot has {0 if counts is None else len(counts)}"
            f" bucket counts for {len(edges)} edges (want {len(edges) + 1})"
        )


def _copy_histogram_dict(data: "dict[str, Any]") -> "dict[str, Any]":
    return {
        "edges": list(data.get("edges", ())),
        "bucket_counts": list(data.get("bucket_counts", ())),
        "count": data.get("count", 0),
        "sum": data.get("sum", 0.0),
        "min": data.get("min"),
        "max": data.get("max"),
    }


def diff_snapshots(
    before: "dict[str, Any]", after: "dict[str, Any]"
) -> "dict[str, Any]":
    """What happened between two snapshots of the *same* registry.

    Counters and histogram buckets subtract exactly.  A counter first
    made inside the window is kept even at 0, so a pool worker's delta
    names the same counters the serial path does.  Gauges keep the
    ``after`` value (a gauge is a level, not a flow).  A histogram's
    min/max cannot be un-merged, so the delta keeps the ``after``
    extremes — a superset bound, documented as such.
    """
    delta = empty_snapshot()
    before_counters = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        changed = value - before_counters.get(name, 0)
        if changed or name not in before_counters:
            delta["counters"][name] = changed
    delta["gauges"] = dict(after.get("gauges", {}))
    before_histograms = before.get("histograms", {})
    for name, data in after.get("histograms", {}).items():
        _check_histogram_dict(name, data)
        previous = before_histograms.get(name)
        if previous is None:
            delta["histograms"][name] = _copy_histogram_dict(data)
            continue
        _check_histogram_dict(name, previous)
        if list(previous["edges"]) != list(data["edges"]):
            raise ValueError(f"histogram {name!r} changed edges between snapshots")
        changed_count = data.get("count", 0) - previous.get("count", 0)
        if not changed_count:
            continue
        delta["histograms"][name] = {
            "edges": list(data["edges"]),
            "bucket_counts": [
                now - then
                for now, then in zip(data["bucket_counts"], previous["bucket_counts"])
            ],
            "count": changed_count,
            "sum": data.get("sum", 0.0) - previous.get("sum", 0.0),
            "min": data.get("min"),
            "max": data.get("max"),
        }
    return delta


def merge_snapshots(
    base: "dict[str, Any]", extra: "dict[str, Any]"
) -> "dict[str, Any]":
    """Combine two snapshots from *different* registries into one.

    Counters and histograms add; gauges take the ``extra`` value.
    Merging is associative and commutative for counters/histograms, so
    any fold order over worker deltas yields the same totals.
    """
    merged = {
        "counters": dict(base.get("counters", {})),
        "gauges": dict(base.get("gauges", {})),
        "histograms": {},
    }
    for name, data in base.get("histograms", {}).items():
        _check_histogram_dict(name, data)
        merged["histograms"][name] = _copy_histogram_dict(data)
    for name, value in extra.get("counters", {}).items():
        merged["counters"][name] = merged["counters"].get(name, 0) + value
    merged["gauges"].update(extra.get("gauges", {}))
    for name, data in extra.get("histograms", {}).items():
        _check_histogram_dict(name, data)
        mine = merged["histograms"].get(name)
        if mine is None:
            merged["histograms"][name] = _copy_histogram_dict(data)
            continue
        if list(mine["edges"]) != list(data["edges"]):
            raise ValueError(f"histogram {name!r} has mismatched edges; cannot merge")
        mine["bucket_counts"] = [
            a + b for a, b in zip(mine["bucket_counts"], data["bucket_counts"])
        ]
        mine["count"] += data.get("count", 0)
        mine["sum"] += data.get("sum", 0.0)
        for key, pick in (("min", min), ("max", max)):
            values = [v for v in (mine[key], data.get(key)) if v is not None]
            mine[key] = pick(values) if values else None
    for section in ("counters", "gauges", "histograms"):
        merged[section] = dict(sorted(merged[section].items()))
    return merged


def merge_into_registry(delta: "dict[str, Any]") -> None:
    """Fold a worker's snapshot delta into this process's registry."""
    if delta is None:
        return
    for name, value in delta.get("counters", {}).items():
        _registry.inc(name, value)
    for name, value in delta.get("gauges", {}).items():
        _registry.set_gauge(name, value)
    for name, data in delta.get("histograms", {}).items():
        _check_histogram_dict(name, data)
        with _registry._lock:
            histogram = _registry._histograms.get(name)
            if histogram is None:
                histogram = Histogram(tuple(data["edges"]))
                _registry._histograms[name] = histogram
            if list(histogram.edges) != list(data["edges"]):
                raise ValueError(
                    f"histogram {name!r} has mismatched edges; cannot merge"
                )
            histogram.bucket_counts = [
                a + b for a, b in zip(histogram.bucket_counts, data["bucket_counts"])
            ]
            histogram.count += data.get("count", 0)
            histogram.total += data.get("sum", 0.0)
            minimum = data.get("min")
            maximum = data.get("max")
            if minimum is not None and minimum < histogram.minimum:
                histogram.minimum = minimum
            if maximum is not None and maximum > histogram.maximum:
                histogram.maximum = maximum
