"""Unified observability: structured logs, metrics, and span tracing.

One import gives instrumented code the whole surface::

    from repro import obs

    obs.log("store.hit", fingerprint=fp[:12])          # JSON-lines / console
    obs.inc("store.hits")                              # process-safe counter
    obs.observe("executor.chunk_seconds", elapsed)     # fixed-bucket histogram
    with obs.span("pool.chunk", chunk=i):              # Chrome-trace span
        ...

Everything is **off by default** and near-free while off: each helper
checks one module-level flag and returns before evaluating anything
(``benchmarks/bench_obs_overhead.py`` holds that to < 2% on a real
sweep).  Enable via the environment (``REPRO_LOG=json|console``,
``REPRO_LOG_FILE=...``, ``REPRO_TRACE_DIR=...``), the CLI
(``--log-json`` / ``--profile`` / ``--trace-dir``), or
:func:`obs.configure`.

Telemetry is strictly one-way: events carry wall-clock timestamps, but
nothing observability produces ever flows into results, seeds, or
fingerprints — the bit-exact determinism contract of
:mod:`repro.sim.executor` holds with everything enabled.

Module map: :mod:`repro.obs.runtime` (state and configuration),
:mod:`repro.obs.events` (the JSON-lines/console event log),
:mod:`repro.obs.metrics` (counters, gauges, histograms, cross-process
merge), :mod:`repro.obs.tracing` (spans, trace files, ``obs export``),
:mod:`repro.obs.exporter` (HTTP ``/metrics`` Prometheus exposition +
``/healthz`` + ``/status``), :mod:`repro.obs.manifest` (the durable
per-run manifest ledger), :mod:`repro.obs.report` (``repro obs
runs/report/diff`` rendering).
"""

from repro import _exports
from repro.obs.runtime import (
    LOG_ENV,
    LOG_FILE_ENV,
    RUN_ID_ENV,
    TRACE_DIR_ENV,
    apply_worker_config,
    configure,
    configure_from_env,
    enabled,
    reset,
    run_id,
    tracing_enabled,
    worker_config,
)
from repro.obs.events import log
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    inc,
    merge_into_registry,
    merge_snapshots,
    observe,
    registry,
    set_gauge,
    snapshot,
)
from repro.obs.tracing import (
    export_run,
    instant,
    list_runs,
    metrics_snapshot_path,
    read_trace_events,
    span,
    trace_path,
    write_metrics_snapshot,
)
# Submodules with their own namespaced APIs (obs.manifest.begin,
# obs.exporter.render_..., ...).  The manifest is imported last: it
# depends on runtime/metrics above and lazily reaches into repro.store
# only at write time, so this stays cycle-free.  Every run uses these
# modules, so they load eagerly (``runtime`` applies ``REPRO_LOG`` and
# ``REPRO_TRACE_DIR`` at import); the HTTP exporter (``obs.exporter``
# and its names) loads on first use.
from repro.obs import manifest
from repro.obs.manifest import MANIFEST_DIR_ENV, MANIFEST_SCHEMA_VERSION

__all__ = [
    "LOG_ENV",
    "LOG_FILE_ENV",
    "RUN_ID_ENV",
    "TRACE_DIR_ENV",
    "apply_worker_config",
    "configure",
    "configure_from_env",
    "enabled",
    "reset",
    "run_id",
    "tracing_enabled",
    "worker_config",
    "log",
    "DEFAULT_SECONDS_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "inc",
    "merge_into_registry",
    "merge_snapshots",
    "observe",
    "registry",
    "set_gauge",
    "snapshot",
    "MANIFEST_DIR_ENV",
    "MANIFEST_SCHEMA_VERSION",
    "MetricsExporter",
    "exporter",
    "manifest",
    "render_exposition",
    "export_run",
    "instant",
    "list_runs",
    "metrics_snapshot_path",
    "read_trace_events",
    "span",
    "trace_path",
    "write_metrics_snapshot",
]

_EXPORTS = {"repro.obs.exporter": ("MetricsExporter", "render_exposition")}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
