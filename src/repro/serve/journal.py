"""Durable job journal: a write-ahead ledger for accepted serve jobs.

The scheduler (PR 7) is careful about many failure modes — disconnects,
backpressure, drain — but a *server crash* silently lost every accepted
job: clients saw a dead socket and the work-in-progress evaporated.  This
module closes that gap.  Every accepted job is recorded in the cache
directory **before** its first point reaches the pool (write-ahead) and
the record is removed once the whole job has streamed out: one fsync'd
write per job, whatever its size.  The content-addressed store, not the
record, is the completion ledger.  ``repro serve --resume`` replays
incomplete records on startup: points delivered before the crash come
back instantly as store hits (their results landed before delivery; the
engines' own fingerprints find them), so only genuinely missing points
recompute, and the reassembled stream is bit-identical to an
uninterrupted run.  A record's ``completed`` list is read-only: this
build writes it empty, and replay still skips what records left by
earlier builds list there.

Records live under ``<cache-root>/journal/<journal_id>.json``, one JSON
object per file, written with the store's fsync'd atomic-write discipline
(:func:`repro.store.cache.atomic_write_bytes`) — a crash can orphan a
record but never corrupt one.  A record stores the *raw submitted job
object*, not derived state: replay re-validates it through
:func:`repro.serve.protocol.parse_job`, and the recomputed per-point
fingerprints must match the ones journaled on admission (a mismatch means
the code drifted across the restart, and the record is dropped loudly
rather than replayed wrong).

Orphans — records whose ``pid`` no longer names a live process — are what
``repro cache stats`` counts and ``repro cache clear`` sweeps, mirroring
the store's ``*.tmp`` orphan handling.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import time
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ServeError

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JOURNAL_DIRNAME",
    "JournalRecord",
    "JobJournal",
    "journal_stats",
    "sweep_orphaned_journal",
]

JOURNAL_SCHEMA_VERSION = 1

#: Subdirectory of the cache root holding journal records.
JOURNAL_DIRNAME = "journal"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process on this host (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, just not ours
    except OSError:
        return False
    return True


@dataclass(frozen=True)
class JournalRecord:
    """One accepted job's durable state.

    ``job`` is the raw submitted job object (the replay source of truth);
    ``point_indices`` is the optional submit-time subset (a resuming
    client requesting only its gap); ``fingerprints`` are the per-point
    engine fingerprints computed on admission; ``completed`` holds the
    indices (positions within ``fingerprints``) a record written by an
    earlier build marked delivered (this build leaves it empty).
    """

    journal_id: str
    kind: str
    job: "dict[str, Any]"
    fingerprints: "tuple[str, ...]"
    completed: "tuple[int, ...]" = ()
    point_indices: "tuple[int, ...] | None" = None
    state: str = "running"
    pid: int = 0
    created_unix: float = 0.0

    def remaining(self) -> "tuple[int, ...]":
        """Point indices the record does not list as ``completed``."""
        done = set(self.completed)
        return tuple(
            index for index in range(len(self.fingerprints))
            if index not in done
        )

    def encode(self) -> "dict[str, Any]":
        return {
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "journal_id": self.journal_id,
            "kind": self.kind,
            "job": self.job,
            "fingerprints": list(self.fingerprints),
            "completed": sorted(self.completed),
            "point_indices": (
                None if self.point_indices is None else list(self.point_indices)
            ),
            "state": self.state,
            "pid": self.pid,
            "created_unix": self.created_unix,
        }

    @classmethod
    def decode(cls, data: "dict[str, Any]") -> "JournalRecord":
        """Rebuild a record from its on-disk form.

        Unknown schema versions are rejected *loudly* — a journal written
        by a newer server must never be silently misread or dropped.
        """
        if not isinstance(data, dict):
            raise ServeError("journal record must be a JSON object")
        version = data.get("schema_version")
        if version != JOURNAL_SCHEMA_VERSION:
            raise ServeError(
                f"journal record schema_version {version!r} is not supported "
                f"(this build reads version {JOURNAL_SCHEMA_VERSION}); "
                "refusing to guess at its meaning"
            )
        try:
            journal_id = data["journal_id"]
            kind = data["kind"]
            job = data["job"]
            fingerprints = data["fingerprints"]
            completed = data["completed"]
            point_indices = data.get("point_indices")
            state = data["state"]
            pid = data["pid"]
            created_unix = data["created_unix"]
        except KeyError as error:
            raise ServeError(f"journal record missing field {error}") from None
        if not isinstance(job, dict):
            raise ServeError("journal record job must be a JSON object")
        if not isinstance(fingerprints, list) or not all(
            isinstance(item, str) for item in fingerprints
        ):
            raise ServeError("journal record fingerprints must be strings")
        if not isinstance(completed, list) or not all(
            isinstance(item, int) and not isinstance(item, bool)
            for item in completed
        ):
            raise ServeError("journal record completed must be integers")
        if point_indices is not None and (
            not isinstance(point_indices, list)
            or not all(
                isinstance(item, int) and not isinstance(item, bool)
                for item in point_indices
            )
        ):
            raise ServeError("journal record point_indices must be integers")
        if state not in ("running", "done"):
            raise ServeError(f"journal record state {state!r} is not valid")
        return cls(
            journal_id=str(journal_id),
            kind=str(kind),
            job=job,
            fingerprints=tuple(fingerprints),
            completed=tuple(sorted(completed)),
            point_indices=(
                None if point_indices is None else tuple(point_indices)
            ),
            state=str(state),
            pid=int(pid),
            created_unix=float(created_unix),
        )


@dataclass
class JournalStats:
    """What a journal directory holds (feeds ``repro cache stats``)."""

    entries: int = 0
    orphaned: int = 0
    unreadable: int = 0
    orphan_ids: "list[str]" = field(default_factory=list)


class JobJournal:
    """The write-ahead ledger rooted in one cache directory.

    All mutation goes through :func:`repro.store.cache.atomic_write_bytes`
    (fsync'd temp + rename), so a record on disk is always either the
    previous or the next complete state — never torn.  One journal object
    belongs to one server process; ids embed the pid plus a monotonic
    sequence so concurrent servers sharing a cache directory never
    collide.
    """

    def __init__(self, cache_root: "str | os.PathLike[str]") -> None:
        self.root = pathlib.Path(cache_root) / JOURNAL_DIRNAME
        self._sequence = itertools.count(1)

    # -- paths ---------------------------------------------------------------

    def _path(self, journal_id: str) -> pathlib.Path:
        if not journal_id or "/" in journal_id or journal_id.startswith("."):
            raise ServeError(f"invalid journal id {journal_id!r}")
        return self.root / f"{journal_id}.json"

    def _write(self, record: JournalRecord) -> None:
        from repro.store.cache import atomic_write_bytes

        encoded = json.dumps(
            record.encode(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        atomic_write_bytes(self._path(record.journal_id), encoded)

    # -- lifecycle -----------------------------------------------------------

    def record(
        self,
        *,
        kind: str,
        job: "dict[str, Any]",
        fingerprints: "list[str] | tuple[str, ...]",
        point_indices: "tuple[int, ...] | None" = None,
    ) -> JournalRecord:
        """Journal one accepted job (write-ahead: call before scheduling)."""
        record = JournalRecord(
            journal_id=f"{os.getpid():x}-{time.time_ns():x}-"
                       f"{next(self._sequence)}",
            kind=kind,
            job=job,
            fingerprints=tuple(fingerprints),
            point_indices=point_indices,
            state="running",
            pid=os.getpid(),
            created_unix=time.time(),
        )
        self._write(record)
        return record

    def finish(self, journal_id: str) -> None:
        """Remove a fully-delivered (or explicitly abandoned) job's record."""
        try:
            self._path(journal_id).unlink()
        except OSError:
            pass

    def adopt(self, record: JournalRecord) -> JournalRecord:
        """Re-own a crashed server's record under the current pid.

        Called on ``--resume`` so a concurrently-running ``cache clear``
        never mistakes an actively-replaying record for an orphan.
        """
        adopted = replace(record, pid=os.getpid())
        self._write(adopted)
        return adopted

    # -- inspection ----------------------------------------------------------

    def get(self, journal_id: str) -> "JournalRecord | None":
        """Load one record; ``None`` when absent or unreadable JSON.

        Schema-version mismatches still raise — see
        :meth:`JournalRecord.decode`.
        """
        try:
            raw = self._path(journal_id).read_bytes()
        except OSError:
            return None
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        return JournalRecord.decode(data)

    def _paths(self) -> "list[pathlib.Path]":
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    def incomplete(self) -> "list[JournalRecord]":
        """Every journaled job not yet finished, oldest first.

        Unreadable files are skipped (atomic writes make them impossible
        to *create*, but a journal directory is user-visible disk);
        unknown schema versions propagate loudly from ``decode``.
        """
        records = []
        for path in self._paths():
            try:
                data = json.loads(path.read_bytes().decode("utf-8"))
            except (OSError, ValueError, UnicodeDecodeError):
                continue
            record = JournalRecord.decode(data)
            if record.state == "running":
                records.append(record)
        records.sort(key=lambda record: (record.created_unix, record.journal_id))
        return records

    def orphans(self) -> "list[JournalRecord]":
        """Incomplete records whose recording server is no longer alive."""
        return [
            record for record in self.incomplete()
            if not _pid_alive(record.pid)
        ]


# -- store integration (lazy-imported by repro.store.cache) ------------------


def journal_stats(cache_root: "str | os.PathLike[str]") -> JournalStats:
    """Scan a cache directory's journal for ``repro cache stats``.

    Never raises: a stats scan over a shared cache directory must not
    fail because one record is unreadable or from a newer build —
    those are counted as ``unreadable`` instead.
    """
    stats = JournalStats()
    root = pathlib.Path(cache_root) / JOURNAL_DIRNAME
    if not root.is_dir():
        return stats
    for path in sorted(root.glob("*.json")):
        try:
            record = JournalRecord.decode(
                json.loads(path.read_bytes().decode("utf-8"))
            )
        except (OSError, ValueError, UnicodeDecodeError, ServeError):
            stats.unreadable += 1
            continue
        stats.entries += 1
        if record.state == "running" and not _pid_alive(record.pid):
            stats.orphaned += 1
            stats.orphan_ids.append(record.journal_id)
    return stats


def sweep_orphaned_journal(cache_root: "str | os.PathLike[str]") -> int:
    """Delete orphaned journal records; returns how many were removed.

    Only records provably abandoned (dead pid) are touched — a live
    server's in-flight ledger survives a concurrent ``cache clear``.
    Unreadable files are left alone (they may belong to a newer build).
    """
    stats = journal_stats(cache_root)
    root = pathlib.Path(cache_root) / JOURNAL_DIRNAME
    removed = 0
    for journal_id in stats.orphan_ids:
        try:
            (root / f"{journal_id}.json").unlink()
            removed += 1
        except OSError:
            pass
    return removed
