"""The run cache's storage: one SQLite database in WAL mode.

One file (``root/cache.sqlite``), one table keyed by job key.  Each row
holds the entry dict from :meth:`RunCache._make_entry` as JSON in
``data``, with ``format``, ``stored_at`` and ``payload`` copied into
their own columns so the hot paths never parse the full entry:

* **Batched lookups** — ``read_many`` is chunked ``SELECT … WHERE key
  IN (…)`` statements over the ``format``/``payload`` columns, which is
  what makes 10^4–10^6 warm lookups per campaign practical (measured by
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

__all__ = ["CORRUPT", "DB_FILENAME", "SqliteStore"]

#: Sentinel returned by :meth:`SqliteStore.read` for an entry that exists
#: but cannot be parsed — distinct from ``None`` (no entry at all) so
#: ``fetch`` can report ``"stale"`` (re-execute and overwrite) rather
#: than ``"miss"``.
CORRUPT: Any = object()

#: Database filename under the cache root.
DB_FILENAME = "cache.sqlite"

#: How long a connection waits on another's lock before giving up
#: (``connect(timeout=)``, ``busy_timeout`` and the first-open retry).
_BUSY_TIMEOUT_S = 30.0

#: Max keys per ``IN (…)`` clause — comfortably under SQLite's default
#: 32766 bound-parameter limit while keeping statements cacheable.
_SELECT_CHUNK = 500

_SCHEMA = """\
CREATE TABLE IF NOT EXISTS entries (
    key       TEXT PRIMARY KEY,
    format    TEXT NOT NULL,
    stored_at REAL NOT NULL,
    payload   TEXT NOT NULL,
    data      TEXT NOT NULL
) WITHOUT ROWID
"""

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

    An *entry* is the JSON-able dict built by :meth:`RunCache.put`
    (``format``/``key``/``stored_at``/``job_type``/``job_pickle``/
    ``payload``); the store moves entries in and out without
    interpreting them.
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
        with conn:
            conn.execute(_SCHEMA)
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
        conn = self._conn()
        with conn:
            conn.execute(_INSERT, self._row(key, entry))

    def keys(self) -> Iterator[str]:
        """Every stored key, in sorted order."""
        if not self.path.exists():
            return iter(())
        rows = self._conn().execute(
            "SELECT key FROM entries ORDER BY key"
        ).fetchall()
        return iter([r[0] for r in rows])

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

    def read_many(self, keys: Sequence[str]) -> list[dict[str, Any] | None]:
        """Batched read, trimmed to the fetch-classification fields.

        Returns entries of the shape ``{"format", "key", "payload"}`` —
        what :meth:`RunCache._classify` consumes — by reading the
        ``format`` and ``payload`` *columns* instead of parsing the full
        entry JSON (whose base64 job pickle dominates parse time but is
        only needed by ``verify``; use :meth:`read` for complete
        entries).  One result per key, in order.
        """
        if not keys:
            return []
        conn = self._conn()
        found: dict[str, tuple[str, str]] = {}
        for start in range(0, len(keys), _SELECT_CHUNK):
            chunk = keys[start : start + _SELECT_CHUNK]
            marks = ",".join("?" * len(chunk))
            for key, fmt, payload in conn.execute(
                f"SELECT key, format, payload FROM entries"
                f" WHERE key IN ({marks})",
                tuple(chunk),
            ):
                found[key] = (fmt, payload)
        payloads = self._parse_payloads([v[1] for v in found.values()])
        parsed = {
            key: {"format": fmt, "key": key, "payload": value}
            if isinstance(value, dict)
            else CORRUPT
            for (key, (fmt, _)), value in zip(found.items(), payloads)
        }
        return [parsed.get(k) for k in keys]

    @staticmethod
    def _parse_payloads(texts: list[str]) -> list[Any]:
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

    def write_many(self, items: Iterable[tuple[str, dict[str, Any]]]) -> None:
        conn = self._conn()
        with conn:
            conn.executemany(
                _INSERT, (self._row(key, entry) for key, entry in items)
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
        key: str, entry: dict[str, Any]
    ) -> tuple[str, str, float, str, str]:
        stored = entry.get("stored_at")
        return (
            key,
            str(entry.get("format", "")),
            float(stored) if isinstance(stored, (int, float)) else 0.0,
            json.dumps(entry.get("payload"), sort_keys=True),
            json.dumps(entry, sort_keys=True),
        )
