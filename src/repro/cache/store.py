"""On-disk content-addressed store for classified sweep outcomes.

:class:`RunCache` is the cache the sweep engine talks to: it builds
entries, classifies lookups (``hit`` / ``miss`` / ``stale``) and owns
the maintenance surface (``stats`` / ``gc`` / ``verify``).  Where the
entries live is one decision behind one class,
:class:`~repro.cache.sqlite_store.SqliteStore` — a single SQLite
database at ``root/cache.sqlite`` in WAL mode whose batched
``read_many``/``write_many`` run as one statement / one transaction.
``RunCache.store`` is that object, and it is the seam a test (or a
fault-injecting wrapper) substitutes.

An entry is the classified outcome payload produced by the job's
``cache_payload()`` — violations, hang/abort flags, digests, perf
counters minus ``wall_s``, final virtual time — never a raw
``SimulationResult`` (traces are large, and pickled kernel state would
rot across versions), plus a base64-pickled copy of the job itself,
which is what lets ``repro cache verify`` re-execute a sample of entries
and diff the stored payload against a fresh run field by field.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from ..obs.slot import active as _spans_active
from . import KEY_FORMAT

__all__ = [
    "CORRUPT",
    "RunCache",
    "VerifyResult",
    "default_cache_dir",
    "diff_payload",
]

#: Sentinel the store's ``read`` returns for an entry that exists but
#: cannot be parsed — distinct from ``None`` (no entry at all) so
#: ``fetch`` can report ``"stale"`` (re-execute and overwrite) rather
#: than ``"miss"``.
CORRUPT: Any = object()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``$XDG_CACHE_HOME/repro/runs``
    if that is set, else ``~/.cache/repro/runs``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "runs"


def diff_payload(
    stored: dict[str, Any], fresh: dict[str, Any]
) -> list[str]:
    """Field-by-field differences between two outcome payloads.

    Returns human-readable ``field: stored != fresh`` lines; empty means
    the payloads agree.  Comparison happens after a JSON round-trip of
    the fresh side so types match what the store serialized (tuples
    become lists, etc.).
    """
    fresh = json.loads(json.dumps(fresh))
    diffs = []
    for name in sorted(set(stored) | set(fresh)):
        if name not in stored:
            diffs.append(f"{name}: missing from stored entry")
        elif name not in fresh:
            diffs.append(f"{name}: missing from fresh run")
        elif stored[name] != fresh[name]:
            diffs.append(f"{name}: stored {stored[name]!r} != fresh {fresh[name]!r}")
    return diffs


@dataclass
class VerifyResult:
    """Outcome of re-executing one cached entry (``repro cache verify``)."""

    key: str
    job_label: str
    ok: bool
    #: ``field: stored != fresh`` lines when the payload disagrees.
    diffs: list[str] = field(default_factory=list)
    #: Set when the entry could not be re-executed at all.
    error: str | None = None

    def format(self) -> str:
        head = f"{'OK  ' if self.ok else 'FAIL'} {self.key[:12]}  {self.job_label}"
        if self.error:
            return f"{head}\n      {self.error}"
        return "\n".join([head] + [f"      {d}" for d in self.diffs])


class RunCache:
    """A content-addressed store of classified sweep outcomes."""

    def __init__(self, root: Path, *, backend: str | None = None) -> None:
        # Not a choice: perfbench/adapter.py (frozen benchmark code) and
        # the remote hello's cache spec both spell the one store by name.
        if backend not in (None, "sqlite"):
            raise ValueError(
                f"unknown cache backend {backend!r} (the store is sqlite)"
            )
        # Imported here: a process that never opens a store never loads
        # sqlite3.
        from .sqlite_store import SqliteStore

        self.root = Path(root)
        self.store = SqliteStore(self.root)

    @classmethod
    def at(cls, where: "RunCache | Path | str | bool | None") -> "RunCache":
        """Coerce a path-ish argument to a cache (``None``/``True`` →
        the default directory; see :func:`default_cache_dir`)."""
        if isinstance(where, RunCache):
            return where
        if where is None or where is True:
            return cls(default_cache_dir())
        return cls(Path(where))

    # -- read side ----------------------------------------------------

    def fetch(self, key: str) -> tuple[str, dict[str, Any] | None]:
        """Look up *key*: :meth:`get_many` of one key.

        *status* is ``"hit"`` (payload usable), ``"miss"`` (no entry),
        or ``"stale"`` (an entry exists but is corrupt or from another
        key-format version — callers re-execute and overwrite it).
        """
        return self.get_many([key])[0]

    def get_many(
        self, keys: Sequence[str]
    ) -> list[tuple[str, dict[str, Any] | None]]:
        """Batched :meth:`fetch`: one ``(status, payload)`` per key, in
        order.  One store statement per call — the covering read of
        :meth:`SqliteStore.read_many` — and one ``json.loads`` over all
        the payload texts it returns, then each row is classified in the
        same pass: no format is a miss, a foreign format or a payload
        that is not an object is stale.  This is what the streaming
        sweep pipeline issues per chunk instead of one read per job.  A
        hit's payload is the replay payload :meth:`put_many` stored
        (every key the job's ``from_cached`` reads), not necessarily
        the whole of it.
        """
        recorder = _spans_active()
        if recorder is None:
            return self._get_many(keys)
        with recorder.span(
            "cache.get_many", "cache", attrs={"keys": len(keys)}
        ) as span:
            classified = self._get_many(keys)
            span.attrs["hits"] = sum(
                1 for status, _ in classified if status == "hit"
            )
        return classified

    def _get_many(
        self, keys: Sequence[str]
    ) -> list[tuple[str, dict[str, Any] | None]]:
        rows = self.store.read_many(keys)
        payloads = self.store.parse_payloads([text for _, text in rows])
        return [
            ("hit", payload)
            if fmt == KEY_FORMAT and type(payload) is dict
            else ("miss", None) if fmt is None else ("stale", None)
            for (fmt, _), payload in zip(rows, payloads)
        ]

    def keys(self) -> Iterator[str]:
        """Every key currently stored, sorted."""
        return self.store.keys()

    def entry(self, key: str) -> dict[str, Any] | None:
        """The full raw entry (metadata included), or ``None``."""
        e = self.store.read(key)
        return None if e is None or e is CORRUPT else e

    # -- write side ---------------------------------------------------

    @staticmethod
    def _make_entry(key: str, payload: dict[str, Any], job: Any) -> dict[str, Any]:
        """The entry format.

        The job is pickled alongside (base64) so ``verify`` can later
        re-execute the entry without reconstructing its spec by hand.
        """
        return {
            "format": KEY_FORMAT,
            "key": key,
            "stored_at": time.time(),
            "job_type": f"{type(job).__module__}.{type(job).__qualname__}",
            "job_pickle": base64.b64encode(
                pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii"),
            "payload": payload,
        }

    def put(self, key: str, payload: dict[str, Any], job: Any) -> None:
        """Store *payload* under *key*: :meth:`put_many` of one item."""
        self.put_many([(key, payload, job)])

    def put_many(
        self, items: Iterable[tuple[str, dict[str, Any], Any]]
    ) -> None:
        """Store ``(key, payload, job)`` items in one transaction.

        The entry keeps the whole payload.  The store's ``payload``
        column gets what a warm hit replays: the keys the job's type
        names in ``replay_keys``, or the whole payload when it names
        none (the cache contract in ``repro/parallel/jobs.py``).
        """
        count = 0

        def _rows() -> Iterator[tuple[str, dict[str, Any], dict[str, Any]]]:
            nonlocal count
            for key, payload, job in items:
                count += 1
                keep = getattr(job, "replay_keys", None)
                replay = (
                    payload if keep is None
                    else {name: payload[name] for name in keep}
                )
                yield key, self._make_entry(key, payload, job), replay

        recorder = _spans_active()
        if recorder is None:
            self.store.write_many(_rows())
        else:
            with recorder.span("cache.put_many", "cache") as span:
                self.store.write_many(_rows())
                span.attrs["stores"] = count

    # -- maintenance --------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Entry count, age range and disk footprint (``repro cache stats``)."""
        entries, oldest, newest = self.store.summary()
        return {
            "root": str(self.root),
            "format": KEY_FORMAT,
            "entries": entries,
            "total_bytes": self.store.size_bytes(),
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def gc(self, *, max_age_s: float | None = None) -> dict[str, int]:
        """Drop stale-format entries, and (optionally) entries older than
        *max_age_s* seconds; returns removal counts."""
        removed_stale = 0
        removed_old = 0
        now = time.time()
        doomed: list[str] = []
        # The full entries, not the columns: a row whose ``data`` no
        # longer parses must keep being found and dropped.
        for key, entry in self.store.items():
            if entry is CORRUPT or entry.get("format") != KEY_FORMAT:
                doomed.append(key)
                removed_stale += 1
                continue
            if max_age_s is not None:
                stored = entry.get("stored_at")
                if not isinstance(stored, (int, float)) or (
                    now - stored > max_age_s
                ):
                    doomed.append(key)
                    removed_old += 1
        self.store.delete_many(doomed)
        return {"removed_stale": removed_stale, "removed_old": removed_old}

    def drop_legacy_files(self) -> int:
        """Delete the sharded-JSON layout older versions wrote here
        (``<2 hex digits>/<key>.json`` plus ``.lock``; nothing reads
        them any more); returns the number of files removed."""
        removed = 0
        for shard in self.root.glob("[0-9a-f][0-9a-f]"):
            if shard.is_dir():
                removed += sum(1 for _ in shard.glob("*.json"))
                shutil.rmtree(shard, ignore_errors=True)
        lock = self.root / ".lock"
        if lock.exists():
            lock.unlink()
            removed += 1
        return removed

    def verify(
        self, *, sample: int | None = None, seed: int = 0
    ) -> list[VerifyResult]:
        """Re-execute (a sample of) stored entries and diff the payloads.

        For each selected entry: unpickle the stored job, recompute its
        key (a mismatch means *key drift* — the key no longer covers the
        job, or the code version/mutation salt changed under it), run the
        job fresh via ``cache_payload()``, and compare payloads with
        :func:`diff_payload`.  Hung/failing entries come back with
        ``ok=False`` rather than raising, so one bad entry cannot hide
        the rest.
        """
        keys = list(self.keys())
        if sample is not None and sample < len(keys):
            keys = random.Random(seed).sample(keys, sample)
        results: list[VerifyResult] = []
        for key in keys:
            results.append(self._verify_one(key))
        return results

    def _verify_one(self, key: str) -> VerifyResult:
        entry = self.entry(key)
        if entry is None:
            return VerifyResult(key, "?", False, error="unreadable entry")
        label = entry.get("job_type", "?")
        if entry.get("format") != KEY_FORMAT:
            return VerifyResult(
                key, label, False,
                error=f"format {entry.get('format')!r} != {KEY_FORMAT!r}",
            )
        try:
            job = pickle.loads(base64.b64decode(entry["job_pickle"]))
        except Exception as exc:  # noqa: BLE001 - any unpickle failure
            return VerifyResult(key, label, False, error=f"unpicklable job: {exc}")
        # The keys load where a runner gets a cache (``with_cache``);
        # ``repro cache verify`` opens a store with no runner.
        from .keys import job_key

        recomputed = job_key(job)
        if recomputed != key:
            return VerifyResult(
                key, label, False,
                error=(
                    "key drift: stored under "
                    f"{key[:12]}… but recomputes to "
                    f"{(recomputed or 'None')[:12]}…"
                ),
            )
        try:
            _, fresh = job.cache_payload()
        except Exception as exc:  # noqa: BLE001 - job execution failed
            return VerifyResult(key, label, False, error=f"re-execution failed: {exc}")
        diffs = diff_payload(entry.get("payload", {}), fresh)
        return VerifyResult(key, label, not diffs, diffs=diffs)
