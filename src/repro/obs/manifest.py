"""Run-manifest ledger: one durable, schema-versioned record per run.

A *manifest* is the post-mortem counterpart to the live exporter: when a
run starts, :func:`begin` writes ``manifest_<run_id>.json`` (status
``"running"``) into the ledger directory, and the engines note facts
into the active :class:`RunRecorder` as they happen — executor fault
events from each :class:`~repro.sim.executor.ExecutionReport`, adaptive
stopping trajectories, store cache traffic and the fingerprints it
touched, sweep point counts.  :func:`finalize` stamps the exit code,
wall clock, and the final merged metrics snapshot and rewrites the file
with status ``"complete"``.

Durability uses the store's fsync'd atomic-write discipline
(:func:`repro.store.cache.atomic_write_bytes`, imported lazily to keep
``repro.obs`` import-light and cycle-free): a crash mid-run leaves the
last good ``"running"`` manifest — partial but valid JSON — never a
torn file.

Like the BENCH artifacts, manifests carry a schema version
(:data:`MANIFEST_SCHEMA_VERSION`); :func:`load` rejects files written
by a newer schema instead of misreading them.

Every ``note_*`` helper is a no-op returning after one global-is-None
check while no recorder is active, so instrumented paths stay inside
the disabled-telemetry overhead budget.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.obs import runtime as _runtime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.executor import ExecutionReport

__all__ = [
    "MANIFEST_DIR_ENV",
    "MANIFEST_SCHEMA_VERSION",
    "RunRecorder",
    "active",
    "begin",
    "discard",
    "finalize",
    "list_runs",
    "load",
    "manifest_path",
    "note_adaptive",
    "note_cache",
    "note_execution",
    "note_store_put",
    "note_sweep",
]

MANIFEST_SCHEMA_VERSION = 1

#: Environment equivalent of ``--manifest-dir`` on run subcommands.
MANIFEST_DIR_ENV = "REPRO_MANIFEST_DIR"

#: Caps keep a manifest readable no matter how long the run was; drops
#: beyond each cap are counted, never silent.
MAX_FAULT_EVENTS = 256
MAX_ADAPTIVE_TRAJECTORIES = 256
MAX_SWEEPS = 64
MAX_FINGERPRINT_SAMPLE = 32


def manifest_path(ledger_dir: "str | os.PathLike", run_id: str) -> str:
    return os.path.join(os.fspath(ledger_dir), f"manifest_{run_id}.json")


class RunRecorder:
    """Accumulates one run's facts; thread-safe (serve notes from pool
    threads)."""

    def __init__(
        self,
        ledger_dir: str,
        run_id: str,
        *,
        argv: "list[str] | None" = None,
        command: "str | None" = None,
        config_fingerprint: "str | None" = None,
    ) -> None:
        self.ledger_dir = ledger_dir
        self.run_id = run_id
        self.argv = list(argv) if argv is not None else None
        self.command = command
        self.config_fingerprint = config_fingerprint
        self.started_unix = time.time()
        self._started_monotonic = time.monotonic()
        self._lock = threading.Lock()
        self._execution = {
            "maps": 0,
            "trials": 0,
            "chunks": 0,
            "seconds": 0.0,
            "faults": {
                "retries": 0,
                "pool_rebuilds": 0,
                "timeouts": 0,
            },
        }
        self._fault_events: "list[dict[str, Any]]" = []
        self._fault_events_dropped = 0
        self._adaptive: "list[dict[str, Any]]" = []
        self._adaptive_dropped = 0
        self._sweeps: "list[dict[str, Any]]" = []
        self._sweeps_dropped = 0
        self._store = {"hits": 0, "misses": 0, "puts": 0}
        self._fingerprints: "set[str]" = set()
        self._fingerprints_seen = 0
        # Registry baseline: the finalized manifest records this *run's*
        # metrics (diff vs. begin), not whatever the process accumulated
        # before — several runs can share one process (tests, notebooks).
        from repro.obs import metrics as _metrics

        self._metrics_before = _metrics.snapshot()

    @property
    def path(self) -> str:
        return manifest_path(self.ledger_dir, self.run_id)

    # -- notes ---------------------------------------------------------------

    def note_execution(self, report: "ExecutionReport") -> None:
        meta = report.as_metadata()
        faults = meta.get("faults", {})
        with self._lock:
            self._execution["maps"] += 1
            self._execution["trials"] += int(meta.get("num_trials", 0))
            self._execution["chunks"] += len(meta.get("chunks", ()))
            self._execution["seconds"] += float(meta.get("total_seconds", 0.0))
            for key in self._execution["faults"]:
                self._execution["faults"][key] += int(faults.get(key, 0))
            for event in faults.get("events", ()):
                if len(self._fault_events) >= MAX_FAULT_EVENTS:
                    self._fault_events_dropped += 1
                else:
                    self._fault_events.append(dict(event))

    def note_adaptive(self, trajectory: "dict[str, Any]") -> None:
        with self._lock:
            if len(self._adaptive) >= MAX_ADAPTIVE_TRAJECTORIES:
                self._adaptive_dropped += 1
            else:
                self._adaptive.append(dict(trajectory))

    def note_sweep(self, label: str, points: int, hits: int, misses: int) -> None:
        with self._lock:
            if len(self._sweeps) >= MAX_SWEEPS:
                self._sweeps_dropped += 1
            else:
                self._sweeps.append({
                    "label": label,
                    "points": int(points),
                    "store_hits": int(hits),
                    "store_misses": int(misses),
                })

    def note_cache(self, *, hit: bool, fingerprint: "str | None" = None) -> None:
        with self._lock:
            self._store["hits" if hit else "misses"] += 1
            if fingerprint is not None:
                self._note_fingerprint(fingerprint)

    def note_store_put(self, fingerprint: "str | None" = None) -> None:
        with self._lock:
            self._store["puts"] += 1
            if fingerprint is not None:
                self._note_fingerprint(fingerprint)

    def _note_fingerprint(self, fingerprint: str) -> None:
        if fingerprint not in self._fingerprints:
            self._fingerprints_seen += 1
            if len(self._fingerprints) < MAX_FINGERPRINT_SAMPLE:
                self._fingerprints.add(fingerprint)

    # -- persistence ---------------------------------------------------------

    def as_manifest(self, status: str) -> "dict[str, Any]":
        from repro import __version__

        with self._lock:
            data: "dict[str, Any]" = {
                "schema_version": MANIFEST_SCHEMA_VERSION,
                "run_id": self.run_id,
                "status": status,
                "command": self.command,
                "argv": self.argv,
                "version": __version__,
                "python": sys.version.split()[0],
                "config_fingerprint": self.config_fingerprint,
                "started_unix": self.started_unix,
                "execution": json.loads(json.dumps(self._execution)),
                "fault_events": [dict(e) for e in self._fault_events],
                "fault_events_dropped": self._fault_events_dropped,
                "adaptive": [dict(t) for t in self._adaptive],
                "adaptive_dropped": self._adaptive_dropped,
                "sweeps": [dict(s) for s in self._sweeps],
                "sweeps_dropped": self._sweeps_dropped,
                "store": {
                    **self._store,
                    "fingerprints_seen": self._fingerprints_seen,
                    "fingerprint_sample": sorted(self._fingerprints),
                },
            }
        return data

    def write(self, status: str, **extra: Any) -> str:
        """Atomically (fsync'd) persist the manifest; returns its path."""
        from repro.store.cache import atomic_write_bytes

        data = self.as_manifest(status)
        data.update(extra)
        os.makedirs(self.ledger_dir, exist_ok=True)
        payload = json.dumps(data, indent=2, sort_keys=True).encode("utf-8")
        atomic_write_bytes(self.path, payload)
        return self.path

    def finalize(
        self,
        exit_code: int = 0,
        *,
        metrics_snapshot: "dict[str, Any] | None" = None,
    ) -> str:
        """Stamp the final record and rewrite with status ``complete``."""
        if metrics_snapshot is None:
            from repro.obs import metrics as _metrics

            metrics_snapshot = _metrics.diff_snapshots(
                self._metrics_before, _metrics.snapshot()
            )
        return self.write(
            "complete",
            exit_code=int(exit_code),
            wall_clock_s=round(time.monotonic() - self._started_monotonic, 6),
            finished_unix=time.time(),
            metrics=metrics_snapshot,
        )


# -- module-global active recorder ------------------------------------------

_active: "RunRecorder | None" = None


def active() -> "RunRecorder | None":
    return _active


def begin(
    ledger_dir: "str | os.PathLike",
    *,
    run_id: "str | None" = None,
    argv: "list[str] | None" = None,
    command: "str | None" = None,
    config_fingerprint: "str | None" = None,
) -> RunRecorder:
    """Open a run record and persist it immediately (status ``running``).

    Adopts the observability run id when one is configured so traces,
    metrics snapshots, and the manifest all share a key; otherwise mints
    a fresh id.  Replaces any previously active recorder without
    finalizing it (the old file keeps its last written status).
    """
    global _active
    if run_id is None:
        run_id = _runtime.run_id() or _runtime._mint_run_id()
    # Several runs can share one process (and thus one obs run id);
    # each still gets its own ledger entry.
    if os.path.exists(manifest_path(ledger_dir, run_id)):
        attempt = 2
        while os.path.exists(manifest_path(ledger_dir, f"{run_id}-b{attempt}")):
            attempt += 1
        run_id = f"{run_id}-b{attempt}"
    recorder = RunRecorder(
        os.fspath(ledger_dir),
        run_id,
        argv=argv,
        command=command,
        config_fingerprint=config_fingerprint,
    )
    recorder.write("running")
    _active = recorder
    return recorder


def finalize(
    exit_code: int = 0,
    *,
    metrics_snapshot: "dict[str, Any] | None" = None,
) -> "str | None":
    """Finalize and deactivate the active recorder; returns its path."""
    global _active
    if _active is None:
        return None
    path = _active.finalize(exit_code, metrics_snapshot=metrics_snapshot)
    _active = None
    return path


def discard() -> None:
    """Drop the active recorder without writing (tests, error paths)."""
    global _active
    _active = None


# -- hook points (each is one None-check when no recorder is active) ---------


def note_execution(report: "ExecutionReport") -> None:
    if _active is not None:
        _active.note_execution(report)


def note_adaptive(trajectory: "dict[str, Any]") -> None:
    if _active is not None:
        _active.note_adaptive(trajectory)


def note_sweep(label: str, points: int, hits: int, misses: int) -> None:
    if _active is not None:
        _active.note_sweep(label, points, hits, misses)


def note_cache(*, hit: bool, fingerprint: "str | None" = None) -> None:
    if _active is not None:
        _active.note_cache(hit=hit, fingerprint=fingerprint)


def note_store_put(fingerprint: "str | None" = None) -> None:
    if _active is not None:
        _active.note_store_put(fingerprint)


# -- ledger reading ----------------------------------------------------------


def list_runs(ledger_dir: "str | os.PathLike") -> "list[str]":
    """Run ids with a manifest under ``ledger_dir``, oldest first."""
    ledger_dir = os.fspath(ledger_dir)
    if not os.path.isdir(ledger_dir):
        return []
    entries = []
    for name in os.listdir(ledger_dir):
        if name.startswith("manifest_") and name.endswith(".json"):
            path = os.path.join(ledger_dir, name)
            entries.append((os.path.getmtime(path), name[len("manifest_"):-len(".json")]))
    return [run_id for _, run_id in sorted(entries)]


def load(ledger_dir: "str | os.PathLike", run_id: str) -> "dict[str, Any]":
    """Read one manifest, checking the schema version.

    Raises ``FileNotFoundError`` for an unknown run id and
    ``ValueError`` for a manifest written by a newer (or missing)
    schema version.
    """
    path = manifest_path(ledger_dir, run_id)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"manifest {path} is not a JSON object")
    version = data.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"manifest {path} has no valid schema_version")
    if version > MANIFEST_SCHEMA_VERSION:
        raise ValueError(
            f"manifest {path} uses schema v{version}; this build reads "
            f"up to v{MANIFEST_SCHEMA_VERSION}"
        )
    return data
