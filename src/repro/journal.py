"""``repro.journal`` — append-only run journals for checkpoint/resume.

A *run journal* records, one JSON line per event, what a sweep or chaos
campaign has accomplished so far. Because every entry is flushed to the
OS as it is appended, a run killed at any instant (Ctrl-C, SIGTERM, OOM)
leaves a journal describing exactly the cells that completed; rerunning
with ``--resume <run-id>`` rehydrates those outcomes from the journal
and executes only the remainder.

Format (``<cache-dir>/journals/<run-id>.jsonl``)::

    {"schema": "repro-run-journal-v1", "run_id": "...", ...}   # header
    {"key": "<cell key>", "ok": true, "result": {...}, ...}    # entries

Replay is **idempotent**: loading dedupes by ``key`` (last entry wins),
so duplicate appends — a resumed run re-recording a cell, or two
interleaved half-written campaigns — never corrupt the recovered state.
Entries whose ``ok`` is false are kept for forensics but are *not*
resumable: failed cells always re-execute.

Journals are plain files under the cache dir; deleting them is always
safe (the cost is recomputation, never correctness).

**Shards** (PR 9): a fleet worker journals the cells it completes into
a private *shard* — ``<run-id>.shard-<worker-id>.jsonl`` next to the
authoritative journal — because the coordinator (or the network between
them) can die while the worker keeps computing. :class:`JournalShard`
is the append-only writer; :meth:`RunJournal.merge_shards` folds every
shard back into the authoritative journal, last-wins by each entry's
worker-local ``seq`` (ties broken by shard name, so the merge order is
a pure function of the on-disk bytes). The merge is idempotent and
crash-tolerant: re-running it after a coordinator killed mid-merge
appends only what is still missing, and last-wins replay makes any
duplicate appends harmless.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

try:  # advisory journal locking (POSIX; a no-op where flock is missing)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.errors import JournalLockedError

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalLockedError",
    "JournalShard",
    "RunJournal",
    "journal_dir",
    "list_runs",
    "list_shards",
    "new_run_id",
    "SHARD_SCHEMA",
    "shard_path",
]

JOURNAL_SCHEMA = "repro-run-journal-v1"
SHARD_SCHEMA = "repro-journal-shard-v1"


def _pid_alive(pid: int) -> bool:
    """Is ``pid`` a live process we could signal? (liveness, not identity)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by someone else
        return True
    except OSError:
        return False
    return True


def _parse_holder_pid(holder: str) -> Optional[int]:
    """Extract the PID from a ``pid N since ...`` lock-sidecar line."""
    parts = holder.split()
    if len(parts) >= 2 and parts[0] == "pid":
        try:
            return int(parts[1])
        except ValueError:
            return None
    return None


def journal_dir(cache_dir: Optional[Path] = None) -> Path:
    """Where journals live: ``<cache-dir>/journals``.

    The cache dir honors ``REPRO_CACHE_DIR`` exactly like the result
    cache (see :mod:`repro.experiments.common`), so sweep workers,
    tests, and resumed runs all agree on the location. The path is
    resolved to an absolute one for the same reason sweep workers are
    pinned to a resolved cache dir: a process whose working directory
    differs from the parent's must not journal somewhere else.
    """
    if cache_dir is None:
        cache_dir = Path(os.environ.get("REPRO_CACHE_DIR", ".exp_cache"))
    return Path(cache_dir).resolve() / "journals"


def new_run_id() -> str:
    """A fresh, filesystem-safe run id (time-ordered + collision salt)."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    salt = os.urandom(3).hex()
    return f"run-{stamp}-{salt}"


def list_runs(directory: Optional[Path] = None) -> Dict[str, Path]:
    """Known run ids → journal paths, newest last (shards excluded)."""
    directory = directory or journal_dir()
    if not directory.is_dir():
        return {}
    paths = sorted(
        (p for p in directory.glob("*.jsonl") if ".shard-" not in p.name),
        key=lambda p: p.stat().st_mtime,
    )
    return {p.stem: p for p in paths}


def shard_path(
    run_id: str, worker_id: str, directory: Optional[Path] = None
) -> Path:
    """Where worker ``worker_id``'s shard for ``run_id`` lives.

    Shards sit next to the authoritative journal so a coordinator
    resuming a run finds them with one glob; ``worker_id`` must be
    filesystem-safe (the fleet sanitizes ids before opening shards).
    """
    directory = directory or journal_dir()
    return Path(directory) / f"{run_id}.shard-{worker_id}.jsonl"


def list_shards(run_id: str, directory: Optional[Path] = None) -> List[Path]:
    """Every journal shard for ``run_id``, sorted by shard name.

    Name order (not mtime) so that merge tie-breaking is a pure
    function of the on-disk bytes, independent of filesystem timing.
    Names are matched by prefix and suffix, not as a glob: a run id is
    free-form, so ``[``, ``*`` and ``?`` in it are plain characters.
    """
    directory = directory or journal_dir()
    directory = Path(directory)
    if not directory.is_dir():
        return []
    prefix = f"{run_id}.shard-"
    with os.scandir(directory) as entries:
        names = sorted(
            entry.name
            for entry in entries
            if entry.name.startswith(prefix) and entry.name.endswith(".jsonl")
        )
    return [directory / name for name in names]


class JournalShard:
    """A fleet worker's private append-only slice of a run journal.

    Workers cannot append to the authoritative journal — it is
    single-writer and lives on the coordinator's host — so each worker
    journals the cells it completes into its own shard and the
    coordinator folds shards back in with
    :meth:`RunJournal.merge_shards`. Entries carry a worker-local
    monotonic ``seq`` so the merge can order duplicates without
    trusting wall clocks across hosts.

    Reopening an existing shard (a worker restarted after a crash)
    resumes ``seq`` past the highest value on disk, so a restarted
    worker never reuses sequence numbers.
    """

    def __init__(self, path: Path, run_id: str, worker_id: str) -> None:
        self.path = path
        self.run_id = run_id
        self.worker_id = worker_id
        self._fh = None
        self._seq = 0
        self._lock = threading.Lock()

    @classmethod
    def open(
        cls,
        run_id: str,
        worker_id: str,
        directory: Optional[Path] = None,
    ) -> "JournalShard":
        """Open (or create) this worker's shard, resuming ``seq``."""
        directory = directory or journal_dir()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = shard_path(run_id, worker_id, directory)
        shard = cls(path, run_id, worker_id)
        fresh = True
        if path.exists():
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    fresh = False
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue  # torn tail of a killed worker
                    seq = entry.get("seq")
                    if isinstance(seq, int) and seq >= shard._seq:
                        shard._seq = seq + 1
        shard._fh = open(path, "a")
        if fresh:
            shard._fh.write(
                json.dumps(
                    {
                        "schema": SHARD_SCHEMA,
                        "run_id": run_id,
                        "worker_id": worker_id,
                        "created": time.time(),
                    }
                )
                + "\n"
            )
            shard._fh.flush()
        return shard

    def record(self, key: str, entry: dict) -> int:
        """Append one entry (flushed immediately); returns its ``seq``."""
        with self._lock:
            assert self._fh is not None, "shard is closed"
            seq = self._seq
            self._seq += 1
            payload = {"key": key, "seq": seq, **entry}
            self._fh.write(json.dumps(payload, default=str) + "\n")
            self._fh.flush()
            return seq

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.flush()
                finally:
                    self._fh.close()
                    self._fh = None

    def __enter__(self) -> "JournalShard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RunJournal:
    """One run's append-only completion log.

    Use :meth:`create` for a new run and :meth:`open` to resume one.
    ``record`` appends and flushes a single entry; ``completed`` answers
    "has this key already succeeded?" for the resume path.

    Entries live in the file, not in memory: the journal keeps, per key,
    only the byte offset of its last entry's line and whether that entry
    succeeded, and every lookup reads that one line back. A journal of
    large entries (the job server's, whose terminal records carry whole
    results) therefore costs a fixed few dozen bytes per key.
    """

    def __init__(self, path: Path, run_id: str) -> None:
        self.path = path
        self.run_id = run_id
        #: key → (offset of its last entry's line, whether that entry is ok)
        self._index: Dict[str, Tuple[int, bool]] = {}
        #: lines past the header that the index does not point at
        #: (superseded entries, blank lines, torn tails): what compact drops
        self._stale = 0
        self._fh = None
        self._lock = threading.Lock()
        self._lock_fh = None
        #: True when the ``.lock`` sidecar we acquired still recorded a
        #: dead holder PID — a stale sidecar left by a SIGKILLed writer
        #: (the flock itself died with it) that we reclaimed safely.
        self.reclaimed_stale_lock = False

    # -- lifecycle ---------------------------------------------------------

    def _acquire_writer_lock(self) -> None:
        """Become this journal's single live writer (advisory ``flock``).

        Two server replicas (or a replica plus a CLI resume) must never
        interleave appends to one journal: last-wins replay is only
        sound when appends are totally ordered by a single writer. The
        lock lives in a ``<run-id>.jsonl.lock`` sidecar and is held for
        the journal's open lifetime; the kernel releases it when the
        holder dies (even via SIGKILL), so there is no stale-lease
        recovery problem. Raises :class:`JournalLockedError` when
        another live process (or another open journal in this process)
        already holds it — the error reports the recorded holder PID
        *and* whether that PID is still alive, so an operator can tell
        a genuine second writer from a lock inherited by a stray child.

        A sidecar whose recorded holder is dead but whose flock is free
        (the normal aftermath of SIGKILL) is reclaimed silently;
        :attr:`reclaimed_stale_lock` records that it happened.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return
        lock_path = self.path.parent / (self.path.name + ".lock")
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        lock_fh = open(lock_path, "a+")
        try:
            fcntl.flock(lock_fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            try:
                lock_fh.seek(0)
                holder = lock_fh.read(256).strip()
            except OSError:
                holder = ""
            lock_fh.close()
            holder_pid = _parse_holder_pid(holder)
            holder_alive = None if holder_pid is None else _pid_alive(holder_pid)
            raise JournalLockedError(
                self.run_id, lock_path, holder, holder_alive=holder_alive
            ) from None
        # We hold the flock. If the sidecar still names a dead PID, the
        # previous writer was killed without unwinding — the kernel
        # already released its flock, so taking over is safe; note the
        # reclaim for observability.
        try:
            lock_fh.seek(0)
            previous = lock_fh.read(256).strip()
        except OSError:
            previous = ""
        previous_pid = _parse_holder_pid(previous)
        if (
            previous_pid is not None
            and previous_pid != os.getpid()
            and not _pid_alive(previous_pid)
        ):
            self.reclaimed_stale_lock = True
        # Diagnostics for the *next* contender's error message.
        lock_fh.seek(0)
        lock_fh.truncate()
        lock_fh.write(f"pid {os.getpid()} since {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        lock_fh.flush()
        self._lock_fh = lock_fh

    def _release_writer_lock(self) -> None:
        if self._lock_fh is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_UN)
        finally:
            self._lock_fh.close()
            self._lock_fh = None

    @classmethod
    def create(
        cls, run_id: Optional[str] = None, directory: Optional[Path] = None
    ) -> "RunJournal":
        """Start a new journal (overwrites nothing; fails if it exists)."""
        run_id = run_id or new_run_id()
        directory = directory or journal_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{run_id}.jsonl"
        if path.exists():
            raise FileExistsError(
                f"journal for run {run_id!r} already exists at {path}; "
                f"use --resume {run_id} or pick another --run-id"
            )
        journal = cls(path, run_id)
        journal._acquire_writer_lock()
        journal._fh = open(path, "ab")
        journal._append(
            {"schema": JOURNAL_SCHEMA, "run_id": run_id, "created": time.time()}
        )
        return journal

    @classmethod
    def open(
        cls,
        run_id: str,
        directory: Optional[Path] = None,
        create: bool = True,
    ) -> "RunJournal":
        """Load an existing journal for resuming (optionally creating it).

        Duplicate keys in the file are deduped last-wins, making journal
        replay idempotent under duplicate appends. Loading indexes the
        file; it keeps no entry.
        """
        directory = directory or journal_dir()
        path = directory / f"{run_id}.jsonl"
        if not path.exists():
            if not create:
                known = ", ".join(list_runs(directory)) or "<none>"
                raise FileNotFoundError(
                    f"no journal for run {run_id!r} under {directory} "
                    f"(known runs: {known})"
                )
            return cls.create(run_id, directory)
        journal = cls(path, run_id)
        journal._acquire_writer_lock()
        offset, line, lines = 0, b"\n", 0
        with open(path, "rb") as fh:
            for line in fh:
                lines += 1
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # torn tail of a killed run — everything before it is good
                key = entry.get("key")
                if key is not None:
                    journal._index[key] = (start, bool(entry.get("ok")))
        journal._stale = lines - 1 - len(journal._index)
        journal._fh = open(path, "ab")
        if not line.endswith(b"\n"):
            # A killed run's torn tail: the next entry starts a line of its own.
            journal._fh.write(b"\n")
            journal._fh.flush()
        return journal

    def compact(self) -> None:
        """Rewrite the file as its header plus the last entry per key.

        That is all the index keeps, so a reopen reads the same entries
        from a file that no longer grows with every superseded entry.
        A journal with nothing to drop is left as it is.
        The new file is written beside the journal, synced, and swapped
        in with ``os.replace`` while the writer lock is held: a crash
        leaves the old file or the new one, never a mix. Lookups take no
        lock, so compact before other threads read the journal (the job
        store does it on opening).
        """
        with self._lock:
            assert self._fh is not None, "journal is closed"
            if self._stale <= 0:
                return
            tmp = self.path.with_name(self.path.name + ".compact")
            index: Dict[str, Tuple[int, bool]] = {}
            try:
                with open(self.path, "rb") as src, open(tmp, "wb") as out:
                    first = src.readline()
                    try:
                        header = json.loads(first)
                    except ValueError:
                        header = None
                    if isinstance(header, dict) and "key" not in header:
                        out.write(first)
                    # Every indexed line ends in a newline: ``open`` ends a
                    # torn tail before it appends.
                    for key, (offset, ok) in self._index.items():
                        src.seek(offset)
                        index[key] = (out.tell(), ok)
                        out.write(src.readline())
                    out.flush()
                    os.fsync(out.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
            self._fh.close()
            self._fh = open(self.path, "ab")
            self._index = index
            self._stale = 0

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.flush()
                finally:
                    self._fh.close()
                    self._fh = None
            self._release_writer_lock()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recording and lookup ---------------------------------------------

    def _append(self, payload: dict) -> int:
        """Write one line (flushed); returns the offset it starts at."""
        assert self._fh is not None, "journal is closed"
        offset = self._fh.tell()
        self._fh.write(json.dumps(payload, default=str).encode() + b"\n")
        self._fh.flush()
        return offset

    def _read(self, offset: int) -> dict:
        # A separate handle: appends may go on meanwhile (the fleet
        # records from its own thread), and an offset is only indexed
        # once its line is flushed.
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            return json.loads(fh.readline())

    def record(self, key: str, entry: dict) -> None:
        """Append one entry (idempotent: the latest entry per key wins)."""
        payload = {"key": key, **entry}
        with self._lock:
            if key in self._index:
                self._stale += 1
            self._index[key] = (self._append(payload), bool(entry.get("ok")))

    def lookup(self, key: str) -> Optional[dict]:
        """The last entry recorded for ``key``, read back from the file."""
        slot = self._index.get(key)
        return None if slot is None else self._read(slot[0])

    def completed(self, key: str) -> Optional[dict]:
        """The entry for ``key`` if it recorded a *successful* outcome."""
        slot = self._index.get(key)
        return self._read(slot[0]) if slot is not None and slot[1] else None

    def completed_keys(self) -> Dict[str, dict]:
        return {k: self._read(offset) for k, (offset, ok) in self._index.items() if ok}

    def entries(self) -> Dict[str, dict]:
        """Every keyed entry, deduped last-wins (success *and* failure)."""
        return {k: self._read(offset) for k, (offset, _ok) in self._index.items()}

    def keys(self) -> List[str]:
        """Every recorded key, in the order each was first recorded."""
        return list(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    # -- shard merge --------------------------------------------------------

    def merge_from(self, paths: Sequence[Path]) -> int:
        """Fold worker journal shards into this journal; returns #appended.

        For each key the winning shard entry is the one with the
        highest ``(seq, shard name)`` — last-wins by each worker's local
        sequence, ties broken by shard name so the outcome is a pure
        function of the on-disk bytes. Torn tails (a worker killed
        mid-append) and unreadable shards are skipped, never fatal.

        Idempotent and crash-tolerant: keys this journal already
        records as successful are skipped, so re-running the merge
        after a coordinator died mid-merge appends only what is still
        missing, and last-wins replay makes any duplicates harmless.
        """
        winners: Dict[str, Tuple[Tuple[int, str], dict]] = {}
        for path in paths:
            path = Path(path)
            try:
                fh = open(path)
            except OSError:
                continue  # shard vanished (GC raced us) — nothing to merge
            with fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue  # torn tail of a killed worker
                    key = entry.get("key")
                    if key is None:
                        continue  # shard header
                    seq = entry.get("seq")
                    rank = (seq if isinstance(seq, int) else -1, path.name)
                    best = winners.get(key)
                    if best is None or rank >= best[0]:
                        winners[key] = (rank, {**entry, "shard": path.name})
        merged = 0
        for key in sorted(winners):
            _, entry = winners[key]
            if self._index.get(key, (0, False))[1]:
                continue  # already authoritative — idempotent re-merge
            self.record(key, {k: v for k, v in entry.items() if k != "key"})
            merged += 1
        return merged

    def merge_shards(self, remove_merged: bool = False) -> int:
        """Merge every on-disk shard of this run; returns #appended.

        With ``remove_merged`` the shards are deleted afterwards —
        safe because their entries now live in the authoritative
        journal (and deleting a journal file only ever costs
        recomputation, never correctness).
        """
        paths = list_shards(self.run_id, self.path.parent)
        merged = self.merge_from(paths)
        if remove_merged:
            for path in paths:
                try:
                    path.unlink()
                except OSError:
                    pass  # already gone, or racing a late writer append
        return merged

    # -- interrupt safety --------------------------------------------------

    @contextmanager
    def signal_guard(
        self, on_signal: Optional[Callable[[int], None]] = None
    ) -> Iterator[None]:
        """Make SIGINT/SIGTERM resumable while a campaign runs.

        Synchronous path (no running asyncio loop): converts the first
        SIGTERM into a :class:`KeyboardInterrupt` so the normal unwind
        path (pool teardown, journal close) runs, and flushes the
        journal on the way out. Entries are already flushed per-append;
        the guard exists so a TERM'd run dies through Python's exception
        machinery instead of mid-write.

        Asyncio path: when a loop is running in this thread, a bare
        ``signal.signal`` handler would raise ``KeyboardInterrupt`` at
        an arbitrary bytecode boundary — mid-request, mid-callback —
        bypassing the loop entirely (the old ``exit 130`` path). The
        guard instead installs handlers via ``loop.add_signal_handler``
        so the signal is delivered *between* loop callbacks: it flushes
        the journal, then invokes ``on_signal(signum)`` (the job
        server passes its drain initiator) or, with no callback,
        cancels the current task so the signal unwinds through
        ``CancelledError`` like a normal async cancellation.

        No-op when not called from the main thread (signal handlers can
        only be installed there).
        """
        if threading.current_thread() is not threading.main_thread():
            yield
            return

        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            loop = None

        if loop is not None:
            task = asyncio.current_task()

            def on_loop_signal(signum: int) -> None:
                with self._lock:
                    if self._fh is not None:
                        self._fh.flush()
                if on_signal is not None:
                    on_signal(signum)
                elif task is not None:
                    task.cancel(f"terminated by signal {signum}")

            installed = []
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, on_loop_signal, sig)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError, ValueError, OSError):
                    pass  # pragma: no cover - non-unix event loops
            try:
                yield
            finally:
                for sig in installed:
                    try:
                        loop.remove_signal_handler(sig)
                    except (NotImplementedError, RuntimeError, ValueError):
                        pass  # pragma: no cover
                with self._lock:
                    if self._fh is not None:
                        self._fh.flush()
            return

        def on_term(signum, frame):
            if on_signal is not None:
                on_signal(signum)
                return
            raise KeyboardInterrupt(f"terminated by signal {signum}")

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, on_term)
            except (ValueError, OSError):  # pragma: no cover - exotic platforms
                pass
        try:
            yield
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            with self._lock:
                if self._fh is not None:
                    self._fh.flush()
