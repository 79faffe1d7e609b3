"""The run cache's storage: one SQLite database in WAL mode.

One file (``root/cache.sqlite``), one table keyed by job key.  Each row
holds the entry dict from :meth:`RunCache._make_entry` as JSON in
``data``, with ``format`` and ``stored_at`` copied into their own
columns so the hot paths never parse the full entry.  The ``payload``
column holds what a warm hit replays: the part of the entry's payload
that the job's ``from_cached`` reads.  A job type names those keys in a
class attribute ``replay_keys`` (see ``repro/parallel/jobs.py``); one
that declares none, and any row written before the column was trimmed,
holds the whole payload there, which replays the same.  ``data`` always
holds the whole entry, so ``verify``, ``gc`` and :meth:`read` see every
field.

* **Covering reads** — ``read_many`` is one statement per batch: the
  keys go in as one JSON array, ``json_each`` walks it in order and a
  ``LEFT JOIN`` probes the ``entries_replay`` index, which holds
  ``key``, ``format`` and ``payload`` and nothing else: a probe of the
  table itself walks leaf cells that also hold the ~1.2 kB ``data``
  column, which costs about twice as much.  SQLite keeps the index in
  step with every write, and a store written before it existed gets it
  when first opened.  The rows come back one per key, in order, as
  ``(format, payload text)``; the caller parses the texts with one
  ``json.loads`` (:meth:`SqliteStore.parse_payloads`), which is what
  makes 10^4–10^6 warm lookups per campaign practical (measured by
  perfbench's ``cache_warm`` workload).
* **Batched stores** — ``write_many`` is a single transaction around
  ``executemany``, amortizing the fsync.
* **Concurrent writers** — WAL mode lets the serial runner, pool
  parents, remote workers and ``repro cache gc`` interleave;
  ``busy_timeout`` turns lock contention into a wait instead of an
  error, including on first open (see :meth:`SqliteStore._enable_wal`).

This class is the only code that knows the SQL; :class:`RunCache` moves
entries in and out of it without caring where they live.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .store import CORRUPT

__all__ = ["CORRUPT", "DB_FILENAME", "SqliteStore"]

#: Database filename under the cache root.
DB_FILENAME = "cache.sqlite"

#: How long a connection waits on another's lock before giving up
#: (``connect(timeout=)``, ``busy_timeout`` and the first-open retry).
_BUSY_TIMEOUT_S = 30.0

_SCHEMA = """\
CREATE TABLE IF NOT EXISTS entries (
    key       TEXT PRIMARY KEY,
    format    TEXT NOT NULL,
    stored_at REAL NOT NULL,
    payload   TEXT NOT NULL,
    data      TEXT NOT NULL
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS entries_replay ON entries (key, format, payload);
"""

#: The warm read: one row per key of a JSON array, in array order
#: (``json_each``'s ``key`` is the element's index).  ``INDEXED BY``
#: because the planner would otherwise probe the primary key; a key
#: with no row reads ``(NULL, 'null')``, so every text parses.
_READ_MANY = (
    "SELECT e.format, coalesce(e.payload, 'null')"
    " FROM json_each(?) AS wanted"
    " LEFT JOIN entries AS e INDEXED BY entries_replay"
    " ON e.key = wanted.value"
    " ORDER BY wanted.key"
)

_INSERT = (
    "INSERT OR REPLACE INTO entries"
    " (key, format, stored_at, payload, data) VALUES (?, ?, ?, ?, ?)"
)


def _close(conn: sqlite3.Connection, pid: int, thread: int) -> None:
    """Close *conn* when its store is dropped — but only in the process
    and thread that opened it: a forked child must not close its
    parent's connection, and sqlite3 refuses a foreign thread."""
    if os.getpid() == pid and threading.get_ident() == thread:
        conn.close()


class SqliteStore:
    """Run-cache entries in a single WAL-mode SQLite database.

    An *entry* is the JSON-able dict built by
    :meth:`RunCache._make_entry` (``format``/``key``/``stored_at``/
    ``job_type``/``job_pickle``/``payload``); the store moves entries in
    and out without interpreting them.  Writes name the replay payload
    of the ``payload`` column beside the entry.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.path = self.root / DB_FILENAME
        # sqlite3 connections are not shareable across threads/forked
        # children; keep one per thread and re-open lazily after fork.
        self._local = threading.local()

    # -- connection handling -------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        pid = getattr(self._local, "pid", None)
        if conn is not None and pid == os.getpid():
            return conn
        self.root.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S)
        self._enable_wal(conn)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_S * 1000)}")
        conn.executescript(_SCHEMA)
        self._local.conn = conn
        self._local.pid = os.getpid()
        # A connection is in a reference cycle with its own statement
        # cache: unclosed, a dropped store's connection (and the file
        # handles it holds) would wait for a full collection.
        weakref.finalize(
            self, _close, conn, os.getpid(), threading.get_ident()
        )
        return conn

    @staticmethod
    def _enable_wal(conn: sqlite3.Connection) -> None:
        """Switch the database to WAL, waiting out a concurrent opener.

        On a file that is already WAL this is an instant no-op.  On a
        fresh (rollback-journal) file the switch needs the write lock
        and *ignores the busy handler*: if another connection holds the
        lock — N processes opening one fresh directory at once — SQLite
        raises ``database is locked`` immediately instead of waiting, so
        the wait every other statement gets from ``busy_timeout`` is
        spelled out here, inside the same budget.
        """
        deadline = time.monotonic() + _BUSY_TIMEOUT_S
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                busy = exc.sqlite_errorcode & 0xFF == sqlite3.SQLITE_BUSY
                if not busy or time.monotonic() >= deadline:
                    raise
                time.sleep(0.005)

    # -- single entries --------------------------------------------------

    def read(self, key: str) -> dict[str, Any] | None:
        """The parsed entry, ``None`` when absent, :data:`CORRUPT` when
        present but unparseable."""
        row = self._conn().execute(
            "SELECT data FROM entries WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        return self._parse(row[0])

    @staticmethod
    def _parse(data: str) -> dict[str, Any]:
        try:
            entry = json.loads(data)
        except ValueError:
            return CORRUPT
        return entry if isinstance(entry, dict) else CORRUPT

    def write(self, key: str, entry: dict[str, Any]) -> None:
        """Store one raw *entry*, its whole payload in the ``payload``
        column (the layout a job without ``replay_keys`` gets)."""
        self.write_many([(key, entry, entry.get("payload"))])

    def keys(self) -> Iterator[str]:
        """Every stored key, in sorted order."""
        if not self.path.exists():
            return iter(())
        rows = self._conn().execute(
            "SELECT key FROM entries ORDER BY key"
        ).fetchall()
        return iter([r[0] for r in rows])

    def items(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """Every ``(key, entry)`` in key order, from one statement; an
        entry that does not parse is :data:`CORRUPT`."""
        if not self.path.exists():
            return
        for key, data in self._conn().execute(
            "SELECT key, data FROM entries ORDER BY key"
        ):
            yield key, self._parse(data)

    def summary(self) -> tuple[int, float | None, float | None]:
        """``(entries, oldest stored_at, newest stored_at)`` straight
        from the columns — no entry is parsed."""
        if not self.path.exists():
            return 0, None, None
        return self._conn().execute(
            "SELECT COUNT(*), MIN(stored_at), MAX(stored_at) FROM entries"
        ).fetchone()

    def size_bytes(self) -> int:
        """On-disk footprint of the store's files."""
        total = 0
        # WAL mode spreads live data over cache.sqlite{,-wal,-shm}.
        for suffix in ("", "-wal", "-shm"):
            try:
                total += Path(str(self.path) + suffix).stat().st_size
            except OSError:
                continue
        return total

    # -- batched operations ---------------------------------------------

    def read_many(self, keys: Sequence[str]) -> list[tuple[str | None, str]]:
        """Batched read of what a warm hit needs, in one statement.

        One ``(format, payload text)`` per key, in order, straight from
        the covering index: ``payload`` is the replay payload the row
        was written with, unparsed (:meth:`parse_payloads` parses a
        batch of them at once).  A key with no row reads ``(None,
        "null")``.  Use :meth:`read` for a complete entry.
        """
        if not keys:
            return []
        return self._conn().execute(_READ_MANY, (json.dumps(keys),)).fetchall()

    @staticmethod
    def parse_payloads(texts: list[str]) -> list[Any]:
        """Parse many payload JSON strings with **one** ``json.loads``.

        Joining into a single array and parsing once stays in the C
        decoder for the whole batch — per-call overhead is most of the
        cost of 10^4 tiny parses.  Any corrupt row poisons the joined
        parse, so fall back to per-entry parsing (returning ``CORRUPT``
        sentinels for the bad ones) only on that rare path.
        """
        try:
            return json.loads(f"[{','.join(texts)}]") if texts else []
        except ValueError:
            out: list[Any] = []
            for text in texts:
                try:
                    out.append(json.loads(text))
                except ValueError:
                    out.append(CORRUPT)
            return out

    def write_many(
        self, items: Iterable[tuple[str, dict[str, Any], Any]]
    ) -> None:
        """Store ``(key, entry, replay payload)`` items in one
        transaction: the entry goes to ``data``, the replay payload to
        the ``payload`` column."""
        conn = self._conn()
        with conn:
            conn.executemany(
                _INSERT,
                (self._row(key, entry, replay)
                 for key, entry, replay in items),
            )

    def delete_many(self, keys: Sequence[str]) -> None:
        if not keys:
            return
        conn = self._conn()
        with conn:
            conn.executemany(
                "DELETE FROM entries WHERE key = ?", [(k,) for k in keys]
            )

    @staticmethod
    def _row(
        key: str, entry: dict[str, Any], replay: Any
    ) -> tuple[str, str, float, str, str]:
        stored = entry.get("stored_at")
        return (
            key,
            str(entry.get("format", "")),
            float(stored) if isinstance(stored, (int, float)) else 0.0,
            json.dumps(replay, sort_keys=True),
            json.dumps(entry, sort_keys=True),
        )
