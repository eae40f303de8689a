"""Unit tests for the durable job journal (repro.serve.journal).

Everything here runs against a throwaway cache directory — no server, no
sockets.  The contracts pinned: write-ahead records are atomic and
re-readable, finishing is idempotent, unknown schema versions are
rejected loudly, and orphan detection keys strictly on the recording pid
being dead.
"""

import json
import os

import pytest

from repro.errors import ServeError
from repro.serve.journal import (
    JOURNAL_SCHEMA_VERSION,
    JobJournal,
    JournalRecord,
    journal_stats,
    sweep_orphaned_journal,
)

#: A pid that provably does not exist: above the default pid_max.
DEAD_PID = 2 ** 22 + 54321

JOB = {"kind": "ber", "frames": 4, "seed": 0}


def make_journal(tmp_path) -> JobJournal:
    return JobJournal(tmp_path / "cache")


class TestJournalRecord:
    def test_encode_decode_round_trip(self):
        record = JournalRecord(
            journal_id="abc-1", kind="ber", job=JOB,
            fingerprints=("f1", "f2", "f3"), completed=(1,),
            point_indices=(0, 2, 4), state="running", pid=123,
            created_unix=42.5,
        )
        assert JournalRecord.decode(record.encode()) == record

    def test_remaining_excludes_completed(self):
        record = JournalRecord(
            journal_id="abc-1", kind="ber", job=JOB,
            fingerprints=("f1", "f2", "f3"), completed=(0, 2),
        )
        assert record.remaining() == (1,)

    def test_unknown_schema_version_rejected_loudly(self):
        encoded = JournalRecord(
            journal_id="abc-1", kind="ber", job=JOB, fingerprints=("f1",),
        ).encode()
        encoded["schema_version"] = JOURNAL_SCHEMA_VERSION + 1
        with pytest.raises(ServeError, match="schema_version"):
            JournalRecord.decode(encoded)

    def test_missing_field_rejected(self):
        encoded = JournalRecord(
            journal_id="abc-1", kind="ber", job=JOB, fingerprints=("f1",),
        ).encode()
        del encoded["fingerprints"]
        with pytest.raises(ServeError, match="missing field"):
            JournalRecord.decode(encoded)

    def test_bad_types_rejected(self):
        base = JournalRecord(
            journal_id="abc-1", kind="ber", job=JOB, fingerprints=("f1",),
        ).encode()
        for key, value in [
            ("job", "not-a-dict"),
            ("fingerprints", [1, 2]),
            ("completed", [True]),  # bools are not point indices
            ("point_indices", ["0"]),
            ("state", "bogus"),
        ]:
            broken = dict(base)
            broken[key] = value
            with pytest.raises(ServeError):
                JournalRecord.decode(broken)


class TestJobJournal:
    def test_record_is_written_ahead_and_readable(self, tmp_path):
        journal = make_journal(tmp_path)
        record = journal.record(kind="ber", job=JOB, fingerprints=["f1", "f2"])
        on_disk = journal.get(record.journal_id)
        assert on_disk == record
        assert on_disk.pid == os.getpid()
        assert on_disk.state == "running"
        assert on_disk.remaining() == (0, 1)

    def test_finish_removes_the_record(self, tmp_path):
        journal = make_journal(tmp_path)
        record = journal.record(kind="ber", job=JOB, fingerprints=["f1"])
        journal.finish(record.journal_id)
        assert journal.get(record.journal_id) is None
        journal.finish(record.journal_id)  # repeat: no-op

    def test_incomplete_is_oldest_first_and_skips_unreadable(self, tmp_path):
        journal = make_journal(tmp_path)
        first = journal.record(kind="ber", job=JOB, fingerprints=["f1"])
        second = journal.record(kind="ber", job=JOB, fingerprints=["f2"])
        (journal.root / "garbage.json").write_bytes(b"{not json")
        ids = [record.journal_id for record in journal.incomplete()]
        assert ids == [first.journal_id, second.journal_id]

    def test_adopt_reowns_under_current_pid(self, tmp_path):
        journal = make_journal(tmp_path)
        record = journal.record(kind="ber", job=JOB, fingerprints=["f1"])
        crashed = JournalRecord.decode(
            {**record.encode(), "pid": DEAD_PID}
        )
        journal._write(crashed)
        assert journal.orphans() != []
        adopted = journal.adopt(crashed)
        assert adopted.pid == os.getpid()
        assert journal.orphans() == []

    def test_invalid_journal_id_rejected(self, tmp_path):
        journal = make_journal(tmp_path)
        for bad in ("", "../escape", ".hidden", "a/b"):
            with pytest.raises(ServeError):
                journal._path(bad)


class TestOrphanHandling:
    def _orphan(self, journal: JobJournal) -> JournalRecord:
        record = journal.record(kind="ber", job=JOB, fingerprints=["f1"])
        dead = JournalRecord.decode({**record.encode(), "pid": DEAD_PID})
        journal._write(dead)
        return dead

    def test_stats_counts_orphans_and_unreadable(self, tmp_path):
        journal = make_journal(tmp_path)
        self._orphan(journal)
        journal.record(kind="ber", job=JOB, fingerprints=["f2"])  # live: ours
        (journal.root / "noise.json").write_bytes(b"\xff\xfe")
        stats = journal_stats(tmp_path / "cache")
        assert stats.entries == 2
        assert stats.orphaned == 1
        assert stats.unreadable == 1

    def test_newer_schema_counts_unreadable_never_raises(self, tmp_path):
        journal = make_journal(tmp_path)
        record = journal.record(kind="ber", job=JOB, fingerprints=["f1"])
        future = {**record.encode(), "schema_version": 999}
        (journal.root / f"{record.journal_id}.json").write_text(
            json.dumps(future)
        )
        stats = journal_stats(tmp_path / "cache")
        assert stats.entries == 0
        assert stats.unreadable == 1

    def test_sweep_removes_only_dead_pid_records(self, tmp_path):
        journal = make_journal(tmp_path)
        dead = self._orphan(journal)
        alive = journal.record(kind="ber", job=JOB, fingerprints=["f2"])
        assert sweep_orphaned_journal(tmp_path / "cache") == 1
        assert journal.get(dead.journal_id) is None
        assert journal.get(alive.journal_id) is not None

    def test_stats_on_missing_directory_is_empty(self, tmp_path):
        stats = journal_stats(tmp_path / "nonexistent")
        assert stats.entries == 0
        assert stats.orphaned == 0
        assert sweep_orphaned_journal(tmp_path / "nonexistent") == 0
