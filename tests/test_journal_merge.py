"""Journal-shard merge edge cases and writer-lock liveness (repro.journal).

The fleet's crash story leans on two journal features added with it:
per-worker shards merged last-wins into the authoritative journal, and
stale-``.lock``-sidecar reclaim with holder liveness in the error. The
edge cases here are exactly the ones a SIGKILL mid-anything produces:
torn shard tails, the same cell finished in several shards, merging
while the writer lock is held, and a merge repeated after a restart.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.errors import JournalLockedError
from repro.journal import (
    JournalShard,
    RunJournal,
    SHARD_SCHEMA,
    list_runs,
    list_shards,
    shard_path,
)


@pytest.fixture()
def jdir(tmp_path):
    return tmp_path / "journals"


def _entry(ok=True, label="cell", **extra):
    payload = {"label": label, "ok": ok, "error": None if ok else "boom"}
    payload.update(extra)
    return payload


class TestJournalShard:
    def test_header_entries_and_seq(self, jdir):
        with JournalShard.open("run1", "w1", jdir) as shard:
            assert shard.record("k0", _entry()) == 0
            assert shard.record("k1", _entry()) == 1
        lines = [
            json.loads(line)
            for line in shard_path("run1", "w1", jdir).read_text().splitlines()
        ]
        assert lines[0]["schema"] == SHARD_SCHEMA
        assert "key" not in lines[0]
        assert [ln["key"] for ln in lines[1:]] == ["k0", "k1"]
        assert [ln["seq"] for ln in lines[1:]] == [0, 1]

    def test_reopen_resumes_sequence_past_existing(self, jdir):
        with JournalShard.open("run1", "w1", jdir) as shard:
            shard.record("k0", _entry())
            shard.record("k1", _entry())
        # A reconnected worker reopens its shard: new entries must rank
        # above everything already in it.
        with JournalShard.open("run1", "w1", jdir) as shard:
            assert shard.record("k2", _entry()) == 2

    def test_shards_are_not_runs(self, jdir):
        jdir.mkdir(parents=True)
        RunJournal.create("run1", jdir).close()
        with JournalShard.open("run1", "w1", jdir):
            pass
        assert set(list_runs(jdir)) == {"run1"}
        assert [p.name for p in list_shards("run1", jdir)] == [
            "run1.shard-w1.jsonl"
        ]

    def test_run_id_is_not_a_pattern(self, jdir):
        """``[``, ``*`` and ``?`` in a free-form run id are literal."""
        shards = (("a[1]", "w1"), ("a1", "w2"), ("a*", "w3"), ("ab", "w4"))
        for run_id, worker in shards:
            with JournalShard.open(run_id, worker, jdir):
                pass
        assert [p.name for p in list_shards("a[1]", jdir)] == ["a[1].shard-w1.jsonl"]
        assert [p.name for p in list_shards("a1", jdir)] == ["a1.shard-w2.jsonl"]
        assert [p.name for p in list_shards("a*", jdir)] == ["a*.shard-w3.jsonl"]
        assert list_shards("a?", jdir) == []


class TestShardMerge:
    def test_merge_recovers_shard_entries(self, jdir):
        with JournalShard.open("run1", "w1", jdir) as shard:
            shard.record("cell-a", _entry(label="a"))
            shard.record("cell-b", _entry(label="b"))
        journal = RunJournal.create("run1", jdir)
        try:
            assert journal.merge_shards() == 2
            assert journal.completed("cell-a")["label"] == "a"
            # Provenance: merged entries carry their shard of origin.
            assert journal.lookup("cell-b")["shard"] == "run1.shard-w1.jsonl"
        finally:
            journal.close()

    def test_torn_tail_keeps_everything_before_it(self, jdir):
        with JournalShard.open("run1", "w1", jdir) as shard:
            shard.record("cell-a", _entry(label="a"))
            shard.record("cell-b", _entry(label="b"))
        path = shard_path("run1", "w1", jdir)
        with open(path, "a") as fh:
            fh.write('{"key": "cell-c", "seq": 2, "lab')  # SIGKILL mid-append
        journal = RunJournal.create("run1", jdir)
        try:
            assert journal.merge_shards() == 2
            assert journal.completed("cell-a") is not None
            assert journal.completed("cell-b") is not None
            assert journal.lookup("cell-c") is None
        finally:
            journal.close()

    def test_duplicate_keys_across_shards_highest_seq_wins(self, jdir):
        # The same cell finished on two workers (a reassignment whose
        # first RESULT was lost): the later sequence number wins.
        with JournalShard.open("run1", "w1", jdir) as shard:
            shard.record("cell-a", _entry(label="from-w1"))
        with JournalShard.open("run1", "w2", jdir) as shard:
            shard.record("padding", _entry())
            shard.record("cell-a", _entry(label="from-w2"))  # seq 1 > seq 0
        journal = RunJournal.create("run1", jdir)
        try:
            assert journal.merge_shards() == 2
            assert journal.completed("cell-a")["label"] == "from-w2"
        finally:
            journal.close()

    def test_equal_seq_ties_break_by_shard_name(self, jdir):
        with JournalShard.open("run1", "wa", jdir) as shard:
            shard.record("cell-a", _entry(label="from-wa"))
        with JournalShard.open("run1", "wb", jdir) as shard:
            shard.record("cell-a", _entry(label="from-wb"))
        journal = RunJournal.create("run1", jdir)
        try:
            journal.merge_shards()
            # Both entries have seq 0; the lexically last shard name wins
            # deterministically regardless of merge order.
            assert journal.completed("cell-a")["label"] == "from-wb"
        finally:
            journal.close()

    def test_merge_skips_keys_already_ok_in_journal(self, jdir):
        journal = RunJournal.create("run1", jdir)
        try:
            journal.record("cell-a", _entry(label="authoritative"))
            with JournalShard.open("run1", "w1", jdir) as shard:
                shard.record("cell-a", _entry(label="stale-shard"))
            assert journal.merge_shards() == 0
            assert journal.completed("cell-a")["label"] == "authoritative"
        finally:
            journal.close()

    def test_merge_upgrades_failed_journal_entry(self, jdir):
        journal = RunJournal.create("run1", jdir)
        try:
            journal.record("cell-a", _entry(ok=False, label="failed-local"))
            with JournalShard.open("run1", "w1", jdir) as shard:
                shard.record("cell-a", _entry(label="ok-remote"))
            assert journal.merge_shards() == 1
            assert journal.completed("cell-a")["label"] == "ok-remote"
        finally:
            journal.close()

    def test_merge_while_writer_lock_held(self, jdir):
        # The merge runs *through* the live journal handle — the lock it
        # already holds is the one that makes the merge safe.
        journal = RunJournal.create("run1", jdir)
        try:
            with JournalShard.open("run1", "w1", jdir) as shard:
                shard.record("cell-a", _entry())
            assert journal.merge_shards() == 1
            # A second writer is still locked out mid-merge-era.
            with pytest.raises(JournalLockedError) as excinfo:
                RunJournal.open("run1", jdir, create=False)
            assert excinfo.value.holder_alive is True
            assert "alive" in str(excinfo.value)
        finally:
            journal.close()

    def test_restart_mid_merge_is_idempotent(self, jdir):
        # Coordinator dies between merging and deleting shards: the next
        # incarnation re-merges the same shards into the same journal.
        with JournalShard.open("run1", "w1", jdir) as shard:
            shard.record("cell-a", _entry(label="a"))
            shard.record("cell-b", _entry(label="b"))
        journal = RunJournal.create("run1", jdir)
        journal.merge_shards()
        journal.close()  # "crash" after merge, before shard cleanup

        journal = RunJournal.open("run1", jdir, create=False)
        try:
            assert journal.merge_shards() == 0  # nothing to re-apply
            assert journal.completed("cell-a")["label"] == "a"
            raw = (jdir / "run1.jsonl").read_text()
            assert raw.count('"key": "cell-a"') == 1
        finally:
            journal.close()

    def test_remove_merged_deletes_shards(self, jdir):
        with JournalShard.open("run1", "w1", jdir) as shard:
            shard.record("cell-a", _entry())
        journal = RunJournal.create("run1", jdir)
        try:
            assert journal.merge_shards(remove_merged=True) == 1
            assert list_shards("run1", jdir) == []
        finally:
            journal.close()

    def test_merge_from_missing_path_is_harmless(self, jdir):
        journal = RunJournal.create("run1", jdir)
        try:
            assert journal.merge_from([jdir / "does-not-exist.jsonl"]) == 0
        finally:
            journal.close()


class TestWriterLockLiveness:
    def test_live_holder_reported_alive(self, jdir):
        journal = RunJournal.create("run1", jdir)
        try:
            with pytest.raises(JournalLockedError) as excinfo:
                RunJournal.open("run1", jdir, create=False)
            err = excinfo.value
            assert err.holder_alive is True
            assert f"pid {os.getpid()}" in err.holder
            assert "alive" in str(err)
            assert "no longer alive" not in str(err)
        finally:
            journal.close()

    def test_stale_sidecar_from_dead_holder_is_reclaimed(self, jdir):
        journal = RunJournal.create("run1", jdir)
        journal.close()
        # Forge the aftermath of SIGKILL: the sidecar still names a
        # writer PID, but that process is gone (and the kernel released
        # its flock with it). Use a real, definitely-dead PID.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        lock = jdir / "run1.jsonl.lock"
        lock.write_text(f"pid {proc.pid} since 2026-01-01T00:00:00\n")

        journal = RunJournal.open("run1", jdir, create=False)
        try:
            assert journal.reclaimed_stale_lock is True
        finally:
            journal.close()

    def test_own_pid_in_sidecar_is_not_a_reclaim(self, jdir):
        journal = RunJournal.create("run1", jdir)
        journal.close()  # sidecar still records this (live) process
        journal = RunJournal.open("run1", jdir, create=False)
        try:
            assert journal.reclaimed_stale_lock is False
        finally:
            journal.close()

    def test_unparseable_sidecar_reports_unknown_liveness(self, jdir):
        journal = RunJournal.create("run1", jdir)
        try:
            # Clobber the sidecar *content* (the flock is on the fd, not
            # the bytes): the next contender can't tell who holds it.
            (jdir / "run1.jsonl.lock").write_text("scribble\n")
            with pytest.raises(JournalLockedError) as excinfo:
                RunJournal.open("run1", jdir, create=False)
            assert excinfo.value.holder_alive is None
        finally:
            journal.close()
