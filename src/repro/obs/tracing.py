"""Lightweight spans exported as Chrome ``trace_event`` JSON.

``with span("pool.chunk", chunk=3):`` measures a region, observes its
duration into the ``pool.chunk.seconds`` histogram whenever telemetry
is on, and, when tracing is on, appends one complete (``ph: "X"``)
trace event to the run's trace file; spans nest
naturally — Chrome/Perfetto reconstruct the hierarchy from the ``ts`` /
``dur`` overlap per (pid, tid) track, so worker-process spans land on
their own tracks automatically.  :func:`instant` marks point events
(retries, rebuilds, cache hits) on the same timeline.

The live file (``<REPRO_TRACE_DIR>/trace_<run-id>.json``) uses the
Chrome *JSON Array Format* in streaming form: a ``[`` header, then one
event object per line, each appended with a single ``O_APPEND`` write so
concurrent processes interleave whole events.  Chrome explicitly accepts
a missing closing ``]``, so the live file is loadable as-is in
``about:tracing``; ``repro obs export`` (:func:`export_run`) rewrites it
into strict ``{"traceEvents": [...]}`` JSON with the run's metrics
snapshot attached.

Timestamps are wall-clock microseconds (``time.time() * 1e6``) so events
from different processes share one timeline; durations are measured with
``perf_counter`` in the emitting process.  Wall clock is telemetry only —
nothing here flows into results or fingerprints.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from typing import Any

from repro.obs import metrics, runtime

#: Open append-mode descriptor for the current trace file (lazy).
_trace_fd: "tuple[str, int] | None" = None
_trace_lock = threading.Lock()


def _reset() -> None:
    global _trace_fd
    if _trace_fd is not None:
        try:
            os.close(_trace_fd[1])
        except OSError:
            pass
    _trace_fd = None


def trace_path(
    trace_dir: "str | os.PathLike[str] | None" = None,
    run_id: "str | None" = None,
) -> "pathlib.Path | None":
    """Where the current (or named) run's trace file lives."""
    directory = trace_dir if trace_dir is not None else runtime.trace_dir()
    run = run_id if run_id is not None else runtime.run_id()
    if directory is None or run is None:
        return None
    return pathlib.Path(directory) / f"trace_{run}.json"


def ensure_trace_file() -> "pathlib.Path | None":
    """Create the run's trace file (with its ``[`` header) if needed.

    Called by :func:`repro.obs.runtime.configure` callers *before* any
    workers spawn, so the existence check below never races across
    processes in practice; a late double header would still be tolerated
    by :func:`read_trace_events`.
    """
    path = trace_path()
    if path is None:
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        if not path.exists() or path.stat().st_size == 0:
            with open(path, "a", encoding="utf-8") as handle:
                if handle.tell() == 0:
                    handle.write("[\n")
    except OSError:
        return None
    return path


def _descriptor() -> "int | None":
    global _trace_fd
    path = trace_path()
    if path is None:
        return None
    key = str(path)
    if _trace_fd is not None and _trace_fd[0] == key:
        return _trace_fd[1]
    with _trace_lock:
        if _trace_fd is not None and _trace_fd[0] == key:
            return _trace_fd[1]
        _reset()
        if ensure_trace_file() is None:
            return None
        try:
            fd = os.open(key, os.O_WRONLY | os.O_APPEND)
        except OSError:
            return None
        _trace_fd = (key, fd)
        return fd


def _write_event(event: "dict[str, Any]") -> None:
    fd = _descriptor()
    if fd is None:
        return
    try:
        os.write(fd, (json.dumps(event, default=str) + ",\n").encode("utf-8"))
    except OSError:
        pass


class _Span:
    """One active span, live whenever telemetry is enabled.

    On exit it observes its duration into the ``<name>.seconds``
    histogram (so ``--profile`` lists per-stage time without a trace
    dir) and, when tracing is on, appends one ``X`` event.
    """

    __slots__ = ("name", "args", "_wall_us", "_start")

    def __init__(self, name: str, args: "dict[str, Any]"):
        self.name = name
        self.args = args
        self._wall_us = 0.0
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._wall_us = time.time() * 1e6
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration_s = time.perf_counter() - self._start
        metrics.observe(self.name + ".seconds", duration_s)
        if runtime.trace_dir() is None:
            return
        duration_us = duration_s * 1e6
        args = dict(self.args)
        if exc_type is not None:
            args["error"] = exc_type.__name__
        _write_event(
            {
                "name": self.name,
                "ph": "X",
                "ts": self._wall_us,
                "dur": duration_us,
                "pid": os.getpid(),
                "tid": threading.get_ident() % 2**31,
                "args": args,
            }
        )


class _NullSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, **args: Any):
    """A context manager timing one region (no-op unless telemetry is on)."""
    if not runtime._enabled:
        return _NULL_SPAN
    return _Span(name, args)


def instant(name: str, **args: Any) -> None:
    """Mark a point event on the trace timeline (no-op unless tracing is on)."""
    if not runtime._enabled or runtime.trace_dir() is None:
        return
    _write_event(
        {
            "name": name,
            "ph": "i",
            "s": "p",
            "ts": time.time() * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident() % 2**31,
            "args": args,
        }
    )


# -- export ------------------------------------------------------------------


def read_trace_events(path: "str | os.PathLike[str]") -> "list[dict[str, Any]]":
    """Parse a live trace file back into a list of event dicts.

    Tolerates the streaming artifacts: header lines, trailing commas,
    and (from a writer killed mid-``write``) a torn final line, which is
    skipped rather than raised.
    """
    events: "list[dict[str, Any]]" = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            text = line.strip().rstrip(",")
            if not text or text in ("[", "]"):
                continue
            try:
                events.append(json.loads(text))
            except ValueError:
                continue
    return events


def metrics_snapshot_path(
    trace_dir: "str | os.PathLike[str]", run_id: str
) -> pathlib.Path:
    """Where a run's end-of-process metrics snapshot lives."""
    return pathlib.Path(trace_dir) / f"metrics_{run_id}.json"


def write_metrics_snapshot(
    trace_dir: "str | os.PathLike[str] | None" = None,
    run_id: "str | None" = None,
    snapshot: "dict[str, Any] | None" = None,
) -> "pathlib.Path | None":
    """Persist the current metrics registry next to the run's trace file."""
    from repro.obs import metrics

    directory = trace_dir if trace_dir is not None else runtime.trace_dir()
    run = run_id if run_id is not None else runtime.run_id()
    if directory is None or run is None:
        return None
    path = metrics_snapshot_path(directory, run)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = snapshot if snapshot is not None else metrics.snapshot()
    path.write_text(json.dumps({"run": run, "metrics": data}, indent=2, sort_keys=True))
    return path


def list_runs(trace_dir: "str | os.PathLike[str]") -> "list[str]":
    """Run ids with a trace file in ``trace_dir``, oldest first by mtime."""
    directory = pathlib.Path(trace_dir)
    if not directory.is_dir():
        return []
    traces = sorted(
        directory.glob("trace_*.json"), key=lambda p: (p.stat().st_mtime, p.name)
    )
    return [p.stem[len("trace_"):] for p in traces]


def export_run(
    trace_dir: "str | os.PathLike[str]",
    run_id: "str | None" = None,
    out: "str | os.PathLike[str] | None" = None,
) -> pathlib.Path:
    """Finalize one run into a strict Chrome-trace JSON export.

    ``run_id=None`` picks the most recent run in ``trace_dir``.  The
    export carries ``traceEvents`` plus the run's metrics snapshot (when
    one was written) under ``metrics``; the result loads directly in
    ``about:tracing`` / Perfetto.
    """
    if run_id is None:
        runs = list_runs(trace_dir)
        if not runs:
            raise FileNotFoundError(f"no trace files under {trace_dir}")
        run_id = runs[-1]
    source = pathlib.Path(trace_dir) / f"trace_{run_id}.json"
    if not source.exists():
        raise FileNotFoundError(f"no trace file for run {run_id!r} under {trace_dir}")
    events = read_trace_events(source)
    export: "dict[str, Any]" = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run": run_id},
    }
    snapshot_path = metrics_snapshot_path(trace_dir, run_id)
    if snapshot_path.exists():
        try:
            export["metrics"] = json.loads(snapshot_path.read_text())["metrics"]
        except (OSError, ValueError, KeyError):
            pass
    target = (
        pathlib.Path(out)
        if out is not None
        else pathlib.Path(trace_dir) / f"export_{run_id}.json"
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(export, indent=2, sort_keys=True, default=str))
    return target
