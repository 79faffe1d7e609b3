"""The content-addressed run cache (:mod:`repro.cache`).

The cache's whole correctness contract is *invisibility*: a sweep run
with the cache off, cold, or warm — serial or pooled — must produce the
byte-identical report, and anything that can change a run's outcome
(mutation switches, jitter specs, policy seeds, the scenario itself)
must change the key.  This suite pins both directions, plus the store
contract underneath (batched lookups in order, sorted keys, rows that
no longer parse classified ``stale`` on both read paths, concurrent
writers and concurrent first-open), the maintenance surface (``verify``
catching corruption, ``gc`` dropping stale formats and legacy files) and
the CLI split (report on stdout, cache accounting on stderr).
"""

from __future__ import annotations

import base64
import gc
import json
import multiprocessing
import os
import pickle
import re
import sqlite3
import threading
from dataclasses import dataclass, replace
from types import SimpleNamespace

import pytest

import repro
from repro import mutation, perf
from repro.cache import RunCache, job_key, job_keys, keys, sqlite_store
from repro.cache.store import CORRUPT, KEY_FORMAT
from repro.cli import main
from repro.faults import explore, run_campaign
from repro.faults.campaign import CampaignJob
from repro.faults.explorer import Window, WindowJob
from repro.faults.schedule import KillSpec
from repro.fuzz import fuzz
from repro.fuzz.config import FuzzConfig, JitterSpec
from repro.fuzz.driver import FuzzJob
from repro.parallel import (
    FleetRunner,
    RingScenario,
    SerialRunner,
    StandardRingInvariants,
    SweepError,
    make_runner,
    with_cache,
)
from repro.protocols import ProtocolCompareJob, run_compare_protocols
from tests.conftest import (
    RING_INVARIANTS,
    RING_SCENARIO,
    factory_for,
    outcome_fields,
)


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


@pytest.fixture
def cache(cache_dir):
    return RunCache(cache_dir)


def _delta(before):
    return perf.CACHE.delta(before)


def _campaign(cache=None, runner=None, runs=6):
    return run_campaign(
        RING_SCENARIO,
        seeds=range(runs),
        horizon=2e-5,
        invariants=RING_INVARIANTS,
        cache=cache,
        runner=runner,
    )


def _fill(cache, n=5):
    """Store n synthetic entries; returns their keys (sorted)."""
    jobs = [("probe", i) for i in range(n)]
    keys = [f"{i:02x}" * 32 for i in range(n)]
    cache.put_many(
        (key, {"value": i}, job) for i, (key, job) in enumerate(zip(keys, jobs))
    )
    return sorted(keys)


def _rewrite_row(cache, key, entry):
    """Rewrite *key*'s row behind the cache's back, with raw SQL.

    *entry* is a dict (re-serialized into the ``data``, ``payload`` and
    ``format`` columns) or a string written verbatim into ``data`` and
    ``payload`` to make the row unparseable.  Both columns every time:
    ``read`` parses one, ``read_many`` the other.
    """
    if isinstance(entry, dict):
        row = (json.dumps(entry), json.dumps(entry["payload"]), entry["format"])
    else:
        row = (entry, entry, KEY_FORMAT)
    conn = sqlite3.connect(cache.store.path)
    with conn:
        conn.execute(
            "UPDATE entries SET data = ?, payload = ?, format = ?"
            " WHERE key = ?",
            (*row, key),
        )
    conn.close()


# ---------------------------------------------------------------------------
# Reports are byte-identical: off vs cold vs warm, serial and pooled
# ---------------------------------------------------------------------------


class TestTransparency:
    def test_explore_off_cold_warm_identical(self, cache_dir):
        off = explore(RING_SCENARIO, invariants=RING_INVARIANTS)
        before = perf.CACHE.snapshot()
        cold = explore(RING_SCENARIO, invariants=RING_INVARIANTS, cache=cache_dir)
        d = _delta(before)
        assert d["hits"] == 0 and d["misses"] == d["stores"] > 0
        before = perf.CACHE.snapshot()
        warm = explore(RING_SCENARIO, invariants=RING_INVARIANTS, cache=cache_dir)
        d = _delta(before)
        assert d["misses"] == d["stores"] == 0
        assert d["hits"] == len(warm.outcomes) > 0
        assert off.format() == cold.format() == warm.format()
        assert outcome_fields(off) == outcome_fields(cold) == outcome_fields(warm)

    def test_explore_warm_pooled_identical(self, cache_dir):
        serial = explore(RING_SCENARIO, invariants=RING_INVARIANTS, cache=cache_dir)
        before = perf.CACHE.snapshot()
        pooled = explore(
            RING_SCENARIO,
            invariants=RING_INVARIANTS,
            cache=cache_dir,
            runner=FleetRunner(workers=2),
        )
        d = _delta(before)
        assert d["hits"] == len(pooled.outcomes) and d["misses"] == 0
        assert outcome_fields(serial) == outcome_fields(pooled)

    def test_cold_pooled_stores_cross_the_boundary(self, cache_dir):
        before = perf.CACHE.snapshot()
        pooled = explore(
            RING_SCENARIO,
            invariants=RING_INVARIANTS,
            cache=cache_dir,
            runner=FleetRunner(workers=2),
        )
        d = _delta(before)
        # Lookups and stores happen parent-side, so even a pooled cold
        # run records exact counters and a usable store.
        assert d["misses"] == d["stores"] == len(pooled.outcomes)
        warm = explore(RING_SCENARIO, invariants=RING_INVARIANTS, cache=cache_dir)
        assert outcome_fields(pooled) == outcome_fields(warm)

    def test_campaign_off_cold_warm_identical(self, cache_dir):
        kw = dict(seeds=range(12), horizon=3e-5, invariants=RING_INVARIANTS)
        off = run_campaign(RING_SCENARIO, **kw)
        cold = run_campaign(RING_SCENARIO, cache=cache_dir, **kw)
        warm = run_campaign(RING_SCENARIO, cache=cache_dir, **kw)
        assert off.format() == cold.format() == warm.format()
        # kills carry floats through the JSON round-trip: exact equality.
        assert [r.kills for r in off.runs] == [r.kills for r in warm.runs]

    def test_fuzz_off_cold_warm_identical(self, cache_dir):
        kw = dict(runs=10, seed=3, invariants=RING_INVARIANTS, min_kills=1)
        off = fuzz(RING_SCENARIO, **kw)
        cold = fuzz(RING_SCENARIO, cache=cache_dir, **kw)
        before = perf.CACHE.snapshot()
        warm = fuzz(RING_SCENARIO, cache=cache_dir, **kw)
        assert _delta(before)["hits"] == 10
        assert off.format(verbose=True) == cold.format(verbose=True)
        assert cold.format(verbose=True) == warm.format(verbose=True)
        # Digests are part of the payload — warm outcomes carry the
        # exact fingerprints a fresh run would have computed.
        assert [o.digest for o in off.outcomes] == [o.digest for o in warm.outcomes]


# ---------------------------------------------------------------------------
# Key discipline: the determinism surface is fully covered
# ---------------------------------------------------------------------------


def _window_job(**kw):
    defaults = dict(
        factory=RING_SCENARIO,
        windows=(Window(rank=1, probe="post_recv", hit=1),),
        invariants=RING_INVARIANTS,
    )
    defaults.update(kw)
    return WindowJob(**defaults)


class TestKeys:
    def test_key_is_stable(self):
        assert job_key(_window_job()) == job_key(_window_job())

    def test_scenario_fields_change_key(self):
        base = job_key(_window_job())
        other = _window_job(factory=replace(RING_SCENARIO, seed=7))
        assert job_key(other) != base
        assert job_key(_window_job(invariants=())) != base

    def test_mutation_toggle_changes_key(self):
        base = job_key(_window_job())
        with mutation.enabled("ring_no_dedup"):
            weakened = job_key(_window_job())
        assert weakened != base
        assert job_key(_window_job()) == base  # restored on exit

    def test_jitter_and_policy_seed_change_key(self):
        cfg = FuzzConfig(scenario=RING_SCENARIO)
        base = job_key(FuzzJob(config=cfg, index=0))
        jittered = replace(cfg, jitter=JitterSpec(seed=1, latency=0.1))
        reseeded = replace(cfg, policy_seed=5)
        assert job_key(FuzzJob(config=jittered, index=0)) != base
        assert job_key(FuzzJob(config=reseeded, index=0)) != base

    def test_fuzz_index_is_display_only(self):
        cfg = FuzzConfig(scenario=RING_SCENARIO)
        assert job_key(FuzzJob(config=cfg, index=0)) == job_key(
            FuzzJob(config=cfg, index=42)
        )

    def test_store_written_under_the_old_version_is_all_misses(
        self, cache_dir, monkeypatch
    ):
        # The package version salts every key.  1.0.0 -> 1.1.0 shipped the
        # coordinator agreement: the same job now sends other messages, so
        # a persisted 1.0.0 store (CI restores one by prefix) must never
        # serve a hit.
        from repro.cache import keys

        assert keys.__version__ == repro.__version__ != "1.0.0"
        monkeypatch.setattr(keys, "__version__", "1.0.0")
        old = explore(RING_SCENARIO, invariants=RING_INVARIANTS, cache=cache_dir)
        monkeypatch.undo()
        before = perf.CACHE.snapshot()
        new = explore(RING_SCENARIO, invariants=RING_INVARIANTS, cache=cache_dir)
        d = _delta(before)
        assert d["hits"] == 0 and d["misses"] == d["stores"] == len(new.outcomes)
        assert len(old.outcomes) == len(new.outcomes)

    def test_keep_results_vetoes_caching(self, cache_dir):
        assert job_key(_window_job(keep_results=True)) is None
        before = perf.CACHE.snapshot()
        rep = explore(
            RING_SCENARIO,
            invariants=RING_INVARIANTS,
            keep_results=True,
            cache=cache_dir,
        )
        d = _delta(before)
        assert d["hits"] == d["misses"] == d["stores"] == 0
        assert all(o.result is not None for o in rep.outcomes)

    def test_closure_factory_is_uncacheable(self):
        # factory_for returns a local closure: not addressable by name,
        # so the job must run uncached rather than risk a wrong key.
        assert job_key(_window_job(factory=factory_for())) is None


# ---------------------------------------------------------------------------
# Store maintenance: stale entries, gc, verify
# ---------------------------------------------------------------------------


class TestStore:
    def _populate(self, cache_dir):
        explore(RING_SCENARIO, invariants=RING_INVARIANTS, cache=cache_dir)
        return RunCache.at(cache_dir)

    def test_stale_format_reexecuted_and_overwritten(self, cache_dir):
        cache = self._populate(cache_dir)
        key = next(cache.keys())
        _rewrite_row(cache, key, {**cache.entry(key), "format": "repro.cache/0"})
        assert cache.fetch(key) == ("stale", None)
        assert cache.get_many([key]) == [("stale", None)]
        before = perf.CACHE.snapshot()
        explore(RING_SCENARIO, invariants=RING_INVARIANTS, cache=cache_dir)
        d = _delta(before)
        assert d["stale"] == 1 and d["stores"] == 1
        assert cache.fetch(key)[0] == "hit"

    def test_corrupt_json_counts_stale(self, cache_dir):
        cache = self._populate(cache_dir)
        key = next(cache.keys())
        _rewrite_row(cache, key, "{not json")
        assert cache.store.read(key) is CORRUPT
        assert cache.fetch(key) == ("stale", None)
        assert cache.get_many([key]) == [("stale", None)]
        before = perf.CACHE.snapshot()
        explore(RING_SCENARIO, invariants=RING_INVARIANTS, cache=cache_dir)
        d = _delta(before)
        assert d["stale"] == 1 and d["stores"] == 1
        assert cache.fetch(key)[0] == "hit"

    def test_gc_drops_stale_and_old(self, cache_dir):
        cache = self._populate(cache_dir)
        n = cache.stats()["entries"]
        key = next(cache.keys())
        _rewrite_row(cache, key, "{not json")
        counts = cache.gc()
        assert counts == {"removed_stale": 1, "removed_old": 0}
        assert cache.stats()["entries"] == n - 1
        counts = cache.gc(max_age_s=0.0)
        assert counts["removed_old"] == n - 1
        assert cache.stats()["entries"] == 0

    def test_verify_all_green_then_catches_corruption(self, cache_dir):
        cache = self._populate(cache_dir)
        results = cache.verify(sample=4, seed=1)
        assert len(results) == 4 and all(r.ok for r in results)
        key = next(cache.keys())
        entry = cache.entry(key)
        entry["payload"]["hung"] = not entry["payload"]["hung"]
        _rewrite_row(cache, key, entry)
        bad = [r for r in cache.verify() if not r.ok]
        assert len(bad) == 1 and bad[0].key == key
        assert any("hung" in d for d in bad[0].diffs)

    def test_verify_detects_key_drift(self, cache_dir):
        cache = self._populate(cache_dir)
        keys = list(cache.keys())
        # Re-file an entry under another entry's key: the stored job no
        # longer hashes to the name it is stored under.
        a, b = keys[0], keys[1]
        _rewrite_row(cache, b, cache.entry(a))
        drifted = [r for r in cache.verify() if r.error and "key drift" in r.error]
        assert [r.key for r in drifted] == [b]


# ---------------------------------------------------------------------------
# A cold sweep stores every window, a warm one answers them all
# ---------------------------------------------------------------------------

#: The Fig. 2 ring in its marker variant, every non-root window: 147 jobs.
FIG2_SCENARIO = RingScenario(nprocs=8, iters=10)
FIG2_INVARIANTS = StandardRingInvariants(10, 8)


def _fig2_explore(cache_dir):
    before = perf.CACHE.snapshot()
    report = explore(FIG2_SCENARIO, invariants=FIG2_INVARIANTS,
                     ranks=list(range(1, 8)), cache=cache_dir)
    d = _delta(before)
    return report, (d["hits"], d["misses"], d["stores"])


class TestColdWarmSweep:
    def test_cold_sweep_misses_and_stores_every_window(self, cache_dir):
        cold, counts = _fig2_explore(cache_dir)
        assert counts == (0, 147, 147)
        assert cold.summary() == {"windows": 147, "runs": 147, "ok": 147,
                                  "hangs": 0, "violations": 0}

    def test_warm_sweep_hits_every_window_byte_identically(self, cache_dir):
        cold, _ = _fig2_explore(cache_dir)
        warm, counts = _fig2_explore(cache_dir)
        assert counts == (147, 0, 0)
        assert warm.format() == cold.format()


# ---------------------------------------------------------------------------
# The sweep-facing contract: warm results identical, serial and pooled
# ---------------------------------------------------------------------------


class TestSweepContract:
    def test_cold_warm_byte_identical(self, cache):
        off = _campaign()
        before = perf.CACHE.snapshot()
        cold = _campaign(cache=cache)
        d = perf.CACHE.delta(before)
        assert d["hits"] == 0 and d["misses"] == d["stores"] > 0
        before = perf.CACHE.snapshot()
        warm = _campaign(cache=cache)
        d = perf.CACHE.delta(before)
        assert d["misses"] == d["stores"] == 0 and d["hits"] > 0
        assert off.format() == cold.format() == warm.format()

    def test_warm_pooled_identical(self, cache):
        serial = _campaign(cache=cache)
        pooled = _campaign(
            cache=cache,
            runner=with_cache(FleetRunner(workers=2), cache),
        )
        assert serial.format() == pooled.format()


# ---------------------------------------------------------------------------
# Store primitives: batched ops, sorted keys, stats, the one store
# ---------------------------------------------------------------------------

# The table as it has been since the SQLite store shipped, spelled out
# here on purpose: a cache.sqlite written by an earlier version must stay
# warm, so a schema or entry-format change has to fail a test.
_SCHEMA_PIN = """\
CREATE TABLE entries (
    key       TEXT PRIMARY KEY,
    format    TEXT NOT NULL,
    stored_at REAL NOT NULL,
    payload   TEXT NOT NULL,
    data      TEXT NOT NULL
) WITHOUT ROWID
"""


class TestStorePrimitives:
    def test_get_many_preserves_order_and_misses(self, cache):
        keys = _fill(cache)
        probe = [keys[3], "ff" * 32, keys[0]]
        statuses = [s for s, _ in cache.get_many(probe)]
        assert statuses == ["hit", "miss", "hit"]

    def test_get_many_hits_every_key_at_campaign_scale(self, cache):
        # 10^4 campaign-shaped entries, read back by one batched lookup.
        keys = [f"{i:064x}" for i in range(10_000)]
        cache.put_many(
            (key, {"hung": False, "violations": [], "digest": key[:16],
                   "seed": i}, ("entry", i))
            for i, key in enumerate(keys)
        )
        got = cache.get_many(keys)
        assert {status for status, _ in got} == {"hit"}
        assert [payload["seed"] for _, payload in got] == list(range(10_000))

    def test_keys_sorted(self, cache):
        expected = _fill(cache)
        assert list(cache.keys()) == expected

    def test_corrupt_entry_classified_stale(self, cache):
        (key,) = _fill(cache, n=1)
        _rewrite_row(cache, key, "not json {")
        assert cache.store.read(key) is CORRUPT
        assert cache.fetch(key) == ("stale", None)
        assert cache.get_many([key]) == [("stale", None)]

    def test_stats(self, cache):
        _fill(cache)
        s = cache.stats()
        assert "backend" not in s
        assert s["format"] == KEY_FORMAT
        assert s["entries"] == 5
        assert s["total_bytes"] > 0
        assert s["oldest_mtime"] <= s["newest_mtime"]

    def test_stats_of_a_missing_directory(self, cache_dir):
        s = RunCache(cache_dir).stats()
        assert s["entries"] == 0 and s["oldest_mtime"] is None
        assert not cache_dir.exists()  # looking does not create a store

    def test_backend_argument_only_names_the_one_store(self, cache_dir):
        with pytest.raises(ValueError, match="unknown cache backend"):
            RunCache(cache_dir, backend="json")
        pinned = RunCache(cache_dir, backend="sqlite")
        plain = RunCache(cache_dir)
        assert pinned.store.path == plain.store.path == cache_dir / "cache.sqlite"
        keys = _fill(pinned)
        assert [s for s, _ in plain.get_many(keys)] == ["hit"] * 5

    def test_store_from_an_earlier_version_stays_warm(self, tmp_path):
        cold = _campaign(cache=RunCache(tmp_path / "new"), runs=3)
        src = sqlite3.connect(tmp_path / "new" / "cache.sqlite")
        rows = src.execute(
            "SELECT key, format, stored_at, payload, data FROM entries"
        ).fetchall()
        src.close()
        assert {r[1] for r in rows} == {"repro.cache/1"}
        (tmp_path / "old").mkdir()
        old = sqlite3.connect(tmp_path / "old" / "cache.sqlite")
        with old:
            old.execute(_SCHEMA_PIN)
            old.executemany("INSERT INTO entries VALUES (?, ?, ?, ?, ?)", rows)
        old.close()
        before = perf.CACHE.snapshot()
        warm = _campaign(cache=RunCache(tmp_path / "old"), runs=3)
        d = perf.CACHE.delta(before)
        assert d["hits"] == len(rows) and d["misses"] == d["stale"] == 0
        assert warm.format() == cold.format()

    def test_legacy_json_directory_opens_empty_and_gc_cleans_it(
        self, cache_dir, capsys
    ):
        # What the old default left behind: shards of *.json and .lock.
        for key in ("ab" * 32, "ab" + "cd" * 31, "0f" * 32):
            shard = cache_dir / key[:2]
            shard.mkdir(parents=True, exist_ok=True)
            (shard / f"{key}.json").write_text("{}")
        (cache_dir / ".lock").touch()
        cache = RunCache(cache_dir)
        assert list(cache.keys()) == []
        assert cache.fetch("ab" * 32) == ("miss", None)
        keys = _fill(cache, n=2)
        assert main(["cache", "--cache-dir", str(cache_dir), "gc"]) == 0
        assert capsys.readouterr().out == (
            "removed 0 stale-format and 0 expired entr(ies), "
            "4 legacy file(s)\n"
        )
        left = sorted(p.name for p in cache_dir.iterdir())
        assert [n for n in left if not n.startswith("cache.sqlite")] == []
        assert list(cache.keys()) == keys
        assert main(["cache", "--cache-dir", str(cache_dir), "gc"]) == 0
        assert "0 legacy file(s)" in capsys.readouterr().out


def _pinned_store(root, rows):
    """A ``cache.sqlite`` as an earlier version wrote it: the pinned
    table, no index, holding *rows*."""
    root.mkdir(parents=True)
    conn = sqlite3.connect(root / "cache.sqlite")
    with conn:
        conn.execute(_SCHEMA_PIN)
        conn.executemany("INSERT INTO entries VALUES (?, ?, ?, ?, ?)", rows)
    conn.close()


class TestCoveringRead:
    """``read_many`` probes the ``entries_replay`` index, on a fresh
    store and on one an earlier version wrote, which gets the index when
    first opened; the table and the rest of the store behave as before."""

    @pytest.fixture(params=["fresh", "pinned"])
    def store(self, request, tmp_path):
        fresh = RunCache(tmp_path / "fresh")
        _campaign(cache=fresh, runs=4)
        if request.param == "fresh":
            return fresh
        src = sqlite3.connect(fresh.store.path)
        rows = src.execute(
            "SELECT key, format, stored_at, payload, data FROM entries"
        ).fetchall()
        src.close()
        _pinned_store(tmp_path / "pinned", rows)
        return RunCache(tmp_path / "pinned")

    def test_the_read_names_the_covering_index(self, store):
        keys = list(store.keys())
        assert [s for s, _ in store.get_many(keys)] == ["hit"] * 4
        conn = store.store._conn()
        plan = " | ".join(
            row[-1] for row in conn.execute(
                "EXPLAIN QUERY PLAN " + sqlite_store._READ_MANY,
                (json.dumps(keys),),
            )
        )
        assert "USING COVERING INDEX entries_replay" in plan, plan
        (table,) = conn.execute(
            "SELECT sql FROM sqlite_master WHERE name = 'entries'"
        ).fetchone()
        assert table.strip() == _SCHEMA_PIN.strip()

    def test_maintenance_and_stale_rows_behave_as_before(self, store):
        keys = list(store.keys())
        assert store.stats()["entries"] == len(keys) == 4
        assert all(r.ok for r in store.verify(sample=2, seed=0))
        stale, corrupt = keys[0], keys[1]
        old_format = {**store.entry(stale), "format": "repro.cache/0"}
        _rewrite_row(store, stale, old_format)
        _rewrite_row(store, corrupt, "{not json")
        # The raw-SQL rewrites reached the index the read probes.
        assert store.store._conn().execute(
            "PRAGMA integrity_check"
        ).fetchall() == [("ok",)]
        probe = [stale, "ff" * 20, corrupt, keys[2]]
        assert store.get_many(probe) == [
            ("stale", None), ("miss", None), ("stale", None),
            store.get_many([keys[2]])[0],
        ]
        assert store.fetch(stale) == store.fetch(corrupt) == ("stale", None)
        assert store.gc() == {"removed_stale": 2, "removed_old": 0}
        assert store.stats()["entries"] == 2
        assert [s for s, _ in store.get_many(keys)] == [
            "miss", "miss", "hit", "hit"
        ]


# ---------------------------------------------------------------------------
# Maintenance: gc and verify
# ---------------------------------------------------------------------------


class TestMaintenance:
    def test_gc_drops_stale_format_and_old(self, cache):
        keys = _fill(cache, n=3)
        # Stale format: rewrite one raw entry under an older format tag.
        entry = cache.entry(keys[0])
        entry["format"] = "repro.cache/0"
        cache.store.write(keys[0], entry)
        # Old entry: push one stored_at into the distant past.
        entry = cache.entry(keys[1])
        entry["stored_at"] = 1.0
        cache.store.write(keys[1], entry)
        assert cache.stats()["oldest_mtime"] == 1.0
        counts = cache.gc(max_age_s=86400.0)
        assert counts == {"removed_stale": 1, "removed_old": 1}
        assert list(cache.keys()) == [keys[2]]

    def test_verify_catches_payload_corruption(self, cache):
        _campaign(cache=cache, runs=2)
        key = next(iter(cache.keys()))
        entry = cache.entry(key)
        entry["payload"]["hung"] = not entry["payload"]["hung"]
        cache.store.write(key, entry)
        results = {r.key: r for r in cache.verify()}
        assert not results[key].ok
        assert any("hung" in d for d in results[key].diffs)
        assert all(r.ok for k, r in results.items() if k != key)

    def test_verify_catches_key_drift(self, cache):
        _campaign(cache=cache, runs=1)
        key = next(iter(cache.keys()))
        drifted = "ab" * 32
        cache.store.write(drifted, cache.entry(key))
        bad = [r for r in cache.verify() if r.key == drifted]
        assert len(bad) == 1 and not bad[0].ok
        assert "key drift" in (bad[0].error or "")

    def test_verify_catches_unpicklable_job(self, cache):
        _campaign(cache=cache, runs=1)
        key = next(iter(cache.keys()))
        entry = cache.entry(key)
        entry["job_pickle"] = base64.b64encode(b"junk").decode("ascii")
        cache.store.write(key, entry)
        (r,) = cache.verify()
        assert not r.ok and "unpicklable" in (r.error or "")


# ---------------------------------------------------------------------------
# Concurrency: parallel writers may interleave, never tear — including
# when they are all the first to open the directory
# ---------------------------------------------------------------------------


def _batch(wid: int, n: int = 8):
    return [
        (f"{wid:02x}{i:02x}" * 16, {"w": wid, "i": i}, ("job", wid, i))
        for i in range(n)
    ]


class TestConcurrentWriters:
    def test_parallel_put_many_batches(self, cache):
        threads = [
            threading.Thread(target=cache.put_many, args=(_batch(w),))
            for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        keys = list(cache.keys())
        assert len(keys) == 32
        statuses = [s for s, _ in cache.get_many(keys)]
        assert statuses == ["hit"] * 32


def _first_open_writer(root, wid, barrier, errors):
    try:
        barrier.wait(60)
        RunCache(root).put_many(_batch(wid, n=4))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        errors.put(f"writer {wid}: {exc!r}")


class TestFirstOpen:
    """N openers of one fresh directory: the switch to WAL needs the
    write lock and SQLite does not wait for it on its own."""

    def test_waits_for_a_held_write_lock(self, cache_dir):
        cache_dir.mkdir()
        holder = sqlite3.connect(
            cache_dir / "cache.sqlite", isolation_level=None
        )
        holder.execute("BEGIN IMMEDIATE")  # rollback-journal mode, locked
        holder.execute("CREATE TABLE held (x)")
        errors: list[BaseException] = []

        def open_and_write():
            try:
                RunCache(cache_dir).put_many(_batch(0))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        writer = threading.Thread(target=open_and_write)
        writer.start()
        writer.join(0.3)
        # Still waiting — not dead with "database is locked".
        assert writer.is_alive() and errors == []
        holder.execute("COMMIT")
        holder.close()
        writer.join(60)
        assert not writer.is_alive() and errors == []
        keys = [key for key, _payload, _job in _batch(0)]
        assert [s for s, _ in RunCache(cache_dir).get_many(keys)] == ["hit"] * 8

    def test_barrier_release_onto_fresh_directories(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        writers = 8
        for trial in range(30):
            root = tmp_path / f"fresh-{trial}"
            barrier = ctx.Barrier(writers)
            errors = ctx.Queue()
            procs = [
                ctx.Process(
                    target=_first_open_writer, args=(root, w, barrier, errors)
                )
                for w in range(writers)
            ]
            for p in procs:
                p.start()
            for p in procs:
                p.join(60)
            assert errors.empty(), errors.get()
            assert [p.exitcode for p in procs] == [0] * writers
            keys = sorted(k for w in range(writers) for k, _, _ in _batch(w, n=4))
            cache = RunCache(root)
            assert list(cache.keys()) == keys
            assert [s for s, _ in cache.get_many(keys)] == ["hit"] * len(keys)


# ---------------------------------------------------------------------------
# A dropped store closes its connection (the connection is in a reference
# cycle with its own statement cache; unclosed, only a full collection
# would free it and the database file handles it holds)
# ---------------------------------------------------------------------------


class TestConnectionLifetime:
    def test_dropped_cache_leaves_no_sqlite_garbage(self, cache_dir):
        gc.collect()
        gc.disable()
        try:
            cache = RunCache(cache_dir)
            keys = _fill(cache)
            assert [s for s, _ in cache.get_many(keys)] == ["hit"] * len(keys)
            del cache
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            found = sorted(
                type(o).__qualname__
                for o in gc.garbage
                if type(o).__module__ == "sqlite3"
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert found == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_leaves_the_parents_connection_open(self, cache_dir):
        cache = RunCache(cache_dir)  # not the fixture: the child drops it
        keys = _fill(cache)
        conn = cache.store._conn()
        pid = os.fork()
        if pid == 0:  # the child drops its copy of the store
            code = 1
            try:
                inherited = cache.store._local.conn
                del cache
                gc.collect()
                inherited.total_changes  # raises if the child closed it
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert cache.store._conn() is conn
        assert [s for s, _ in cache.get_many(keys)] == ["hit"] * len(keys)
        cache.put_many(_batch(9))
        assert len(list(cache.keys())) == len(keys) + 8


# ---------------------------------------------------------------------------
# The cache stage's pass-through semantics
# ---------------------------------------------------------------------------


class TestCachedRunner:  # a cached runner, i.e. with_cache / make_runner
    def test_uncacheable_jobs_pass_through_untouched(self, cache_dir):
        runner = with_cache(SerialRunner(), cache_dir)
        jobs = [
            _window_job(factory=factory_for()),  # closure: uncacheable
            _window_job(),  # cacheable
        ]
        before = perf.CACHE.snapshot()
        first = runner.run(jobs)
        d = _delta(before)
        assert d["misses"] == d["stores"] == 1  # only the cacheable one
        second = runner.run(jobs)
        assert _delta(before)["hits"] == 1
        assert outcome_fields_like(first) == outcome_fields_like(second)

    def test_mixed_order_preserved(self, cache_dir):
        runner = make_runner(cache=cache_dir)
        windows = [Window(rank=r, probe="post_recv", hit=1) for r in (1, 2, 3)]
        jobs = [_window_job(windows=(w,)) for w in windows]
        runner.run([jobs[1]])  # warm exactly one key
        outs = runner.run(jobs)
        assert [o.windows[0].rank for o in outs] == [1, 2, 3]


    def test_sweep_error_names_positions_in_the_submitted_jobs(self, cache):
        # Only the misses reach the pool; the error must still name the
        # lost job by its place in the sweep, as the uncached twin in
        # tests/test_parallel.py does — not by its place among the misses.
        runner = with_cache(
            FleetRunner(workers=1, chunk_size=1, retries=0), cache
        )
        assert runner.run([_CachedSquare(x) for x in (1, 2, 3)]) == [1, 4, 9]
        with pytest.raises(SweepError) as exc_info:
            runner.run([_CachedSquare(x) for x in (1, 2, -1, 3)])
        assert exc_info.value.indices == [2]
        assert "(indices [2])" in str(exc_info.value)


@dataclass(frozen=True)
class _CachedSquare:
    """A job inside the cache contract; a negative ``x`` kills the
    worker process that executes it."""

    x: int

    def __call__(self):
        return self.cache_payload()[0]

    def cache_payload(self):
        if self.x < 0:
            os._exit(13)
        return self.x * self.x, {"square": self.x * self.x}

    def from_cached(self, payload):
        return payload["square"]


def outcome_fields_like(outcomes):
    return [(o.windows, o.hung, o.aborted, o.violations) for o in outcomes]


# ---------------------------------------------------------------------------
# CLI: stdout byte-identical, accounting on stderr, cache subcommand
# ---------------------------------------------------------------------------


class TestCli:
    ARGS = ["explore", "--nprocs", "4", "--iters", "3"]

    def test_stdout_identical_and_stderr_accounting(self, cache_dir, capsys):
        rc = main(self.ARGS)
        plain = capsys.readouterr()
        assert rc == 0 and "[cache]" not in plain.err
        cached = self.ARGS + ["--cache", "--cache-dir", str(cache_dir)]
        main(cached)
        cold = capsys.readouterr()
        main(cached)
        warm = capsys.readouterr()
        assert plain.out == cold.out == warm.out
        assert "misses=" in cold.err and "hits=0" in cold.err
        assert "misses=0" in warm.err and "hits=0" not in warm.err

    def test_campaign_replays_warm_through_sqlite(self, cache_dir, capsys):
        # A 200-run campaign, cold then warm: the warm replay answers
        # every run from the store and prints the identical report.
        argv = ["campaign", "--nprocs", "4", "--iters", "3", "--runs", "200",
                "--cache", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert cold.out == warm.out
        assert re.search(r"^\[cache\] hits=200 misses=0 ", warm.err, re.M)
        assert (cache_dir / "cache.sqlite").is_file()

    def test_progress_goes_to_stderr(self, cache_dir, capsys):
        main(self.ARGS + ["--progress"])
        captured = capsys.readouterr()
        assert "[explore]" in captured.err
        assert "[explore]" not in captured.out

    def test_limit_caps_enumeration(self, capsys):
        main(self.ARGS + ["--limit", "2"])
        out = capsys.readouterr().out
        assert "over 2 window(s)" in out

    def test_cache_subcommands(self, cache_dir, capsys):
        main(self.ARGS + ["--cache", "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        rc = main(["cache", "--cache-dir", str(cache_dir), "stats"])
        out = capsys.readouterr().out
        assert rc == 0 and "entries:" in out
        rc = main([
            "cache", "--cache-dir", str(cache_dir), "verify", "--sample", "3"
        ])
        out = capsys.readouterr().out
        assert rc == 0 and "3 ok, 0 failing" in out
        rc = main(["cache", "--cache-dir", str(cache_dir), "gc"])
        assert rc == 0

    def test_cache_verify_fails_on_corruption(self, cache_dir, capsys):
        main(self.ARGS + ["--cache", "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        cache = RunCache.at(cache_dir)
        key = next(cache.keys())
        entry = cache.entry(key)
        entry["payload"]["violations"] = ["fabricated"]
        _rewrite_row(cache, key, entry)
        rc = main(["cache", "--cache-dir", str(cache_dir), "verify"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out and "violations" in out

    def test_stats_output(self, cache_dir, capsys):
        _fill(RunCache(cache_dir), n=2)
        assert main(["cache", "--cache-dir", str(cache_dir), "stats"]) == 0
        out = capsys.readouterr().out
        assert "backend" not in out
        assert "entries:  2" in out
        assert "bytes" in out

    # The flag is spelled in pieces so a repo-wide grep for the removed
    # names stays empty.
    @pytest.mark.parametrize("argv", [
        ["cache", "migrate", "--to", "sqlite"],
        ["cache", "--backend", "sqlite", "stats"],
        ["campaign", "--cache", "--cache" + "-backend", "sqlite"],
    ])
    def test_removed_store_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Protocol participation in the key surface (PR 8 regression)
# ---------------------------------------------------------------------------


class TestProtocolKeying:
    """``protocol`` is a determinism-relevant spec field: jobs that
    differ only in the recovery family must never share a cache entry —
    a cached RTS outcome served for a shrink/repair run would be a
    silent wrong answer at campaign scale."""

    def _job(self, protocol, **kw):
        from repro.protocols import ProtocolCompareJob

        base = dict(nprocs=5, iters=4, seed=1, horizon=2e-5)
        base.update(kw)
        return ProtocolCompareJob(protocol=protocol, **base)

    def test_protocol_distinguishes_job_keys(self):
        from repro.protocols import PROTOCOLS

        keys = {job_key(self._job(p)) for p in PROTOCOLS}
        assert len(keys) == len(PROTOCOLS)

    def test_ring_scenario_protocol_distinguishes_job_keys(self):
        from repro.faults.campaign import CampaignJob
        from repro.parallel import RingScenario

        def key_for(protocol):
            return job_key(
                CampaignJob(
                    factory=RingScenario(
                        nprocs=5, iters=4, protocol=protocol
                    ),
                    seed=1,
                    horizon=2e-5,
                    kills_per_run=1,
                    eligible_ranks=(1, 2, 3, 4),
                )
            )

        assert key_for("rts") != key_for("shrink_repair")
        # ...while everything else equal still dedups.
        assert key_for("rts") == key_for("rts")

    def test_spares_distinguish_job_keys(self):
        assert job_key(
            self._job("partial_restart", spares=2)
        ) != job_key(self._job("partial_restart", spares=3))

    def test_cached_rts_outcome_not_served_for_other_protocol(self, cache):
        runner = make_runner(None, cache=cache)
        (rts_rec,) = runner.run([self._job("rts")])
        before = perf.CACHE.snapshot()
        (sr_rec,) = runner.run([self._job("shrink_repair")])
        d = perf.CACHE.delta(before)
        assert d["hits"] == 0 and d["misses"] == 1 and d["stores"] == 1
        assert sr_rec.protocol == "shrink_repair"
        assert rts_rec.kills == sr_rec.kills  # same schedule, fresh run
        # And the warm hit goes to the *right* entry.
        before = perf.CACHE.snapshot()
        (again,) = runner.run([self._job("shrink_repair")])
        assert perf.CACHE.delta(before)["hits"] == 1
        assert again == sr_rec


def test_job_key_still_covers_pickled_jobs(cache):
    """Sanity anchor: entries written through the public API recompute
    to their own key (the property `verify` leans on)."""
    _campaign(cache=cache, runs=2)
    for key in cache.keys():
        entry = cache.entry(key)
        job = pickle.loads(base64.b64decode(entry["job_pickle"]))
        assert job_key(job) == key


# ---------------------------------------------------------------------------
# The replay subset: the payload column holds what from_cached reads,
# the entry keeps the whole payload
# ---------------------------------------------------------------------------


def _sweep_texts(cache):
    """The reports of the three cached sweep kinds, run over *cache*."""
    return (
        _campaign(cache=cache, runs=6).format(),
        explore(
            RING_SCENARIO, invariants=RING_INVARIANTS, cache=cache
        ).format(),
        run_compare_protocols(
            nprocs=4, iters=3, seeds=range(2), horizon=2e-5, cache=cache
        ).format(),
    )


def _columns(cache):
    """``{key: (payload column, data column)}`` read with raw SQL."""
    conn = sqlite3.connect(cache.store.path)
    rows = conn.execute("SELECT key, payload, data FROM entries").fetchall()
    conn.close()
    return {key: (payload, data) for key, payload, data in rows}


_REPLAY_CAMPAIGN = CampaignJob(
    factory=RING_SCENARIO, seed=3, horizon=2e-5, kills_per_run=2,
    invariants=RING_INVARIANTS,
)

#: One real job of every cacheable kind.
REPLAY_JOBS = {
    "campaign": _REPLAY_CAMPAIGN,
    "window": _window_job(),
    "compare": ProtocolCompareJob(
        protocol="rts", nprocs=5, iters=4, seed=1, horizon=2e-5
    ),
    "fuzz": FuzzJob(
        config=FuzzConfig(
            scenario=RING_SCENARIO,
            policy="random",
            policy_seed=9,
            faults=(KillSpec("time", 2, time=1.5e-05),),
        ),
        invariants=RING_INVARIANTS,
    ),
}


class TestReplaySubset:
    def test_rows_in_the_old_layout_replay_as_hits(self, cache):
        off = _sweep_texts(None)
        cold = _sweep_texts(cache)
        assert cold == off
        # Put the whole payload back in every payload column, as code
        # that did not trim it wrote the row.
        columns = _columns(cache)
        conn = sqlite3.connect(cache.store.path)
        with conn:
            conn.executemany(
                "UPDATE entries SET payload = ? WHERE key = ?",
                [
                    (json.dumps(json.loads(data)["payload"]), key)
                    for key, (_, data) in columns.items()
                ],
            )
        conn.close()
        widened = _columns(cache)
        assert all(
            len(widened[key][0]) > len(payload)
            for key, (payload, _) in columns.items()
        )
        before = perf.CACHE.snapshot()
        warm = _sweep_texts(cache)
        d = _delta(before)
        assert d["hits"] == len(columns) and d["misses"] == d["stale"] == 0
        assert warm == cold

    def test_entry_keeps_the_whole_payload_and_verifies(self, cache):
        _sweep_texts(cache)
        columns = _columns(cache)
        for key, (payload, _) in columns.items():
            entry = cache.entry(key)
            job = pickle.loads(base64.b64decode(entry["job_pickle"]))
            whole = entry["payload"]
            assert "digest" in whole and "final_time" in whole
            assert "digest" not in job.replay_keys
            subset = {k: whole[k] for k in job.replay_keys}
            assert json.loads(payload) == subset
        results = cache.verify()
        assert len(results) == len(columns)
        assert all(r.ok for r in results), [r.format() for r in results]

    @pytest.mark.parametrize("kind", sorted(REPLAY_JOBS))
    def test_from_cached_gives_the_same_outcome_from_the_subset(
        self, cache, kind
    ):
        job = REPLAY_JOBS[kind]
        _, payload = job.cache_payload()
        (key,) = job_keys([job])
        cache.put_many([(key, payload, job)])
        ((status, replayed),) = cache.get_many([key])
        whole = cache.entry(key)["payload"]
        assert status == "hit"
        assert whole == json.loads(json.dumps(payload))
        keep = getattr(job, "replay_keys", None)
        if kind == "fuzz":
            assert keep is None and replayed == whole
        else:
            assert "digest" not in replayed
            assert replayed == {k: whole[k] for k in keep}
        assert job.from_cached(replayed) == job.from_cached(whole)

    def test_put_is_put_many_of_one_item(self, cache):
        job = REPLAY_JOBS["campaign"]
        _, payload = job.cache_payload()
        cache.put("ab" * 32, payload, job)
        cache.put_many([("cd" * 32, payload, job)])
        one, batch = (_columns(cache)[k][0] for k in ("ab" * 32, "cd" * 32))
        assert one == batch
        assert json.loads(one) == {k: payload[k] for k in job.replay_keys}


#: The 100-seed kill campaign the benchmark's cache workloads sweep.
SWEEP_SCENARIO = RingScenario(
    nprocs=8, iters=6, variant="ft_marker", termination="validate_all"
)
SWEEP_SEEDS = range(100_000, 100_100)


def _sweep(cache):
    return run_campaign(
        SWEEP_SCENARIO,
        seeds=SWEEP_SEEDS,
        horizon=8e-5,
        kills_per_run=2,
        invariants=StandardRingInvariants(6, 8),
        cache=cache,
    )


def _sweep_jobs():
    invariants = StandardRingInvariants(6, 8)
    return [
        CampaignJob(
            factory=SWEEP_SCENARIO, seed=seed, horizon=8e-5,
            kills_per_run=2, invariants=invariants,
        )
        for seed in SWEEP_SEEDS
    ]


@pytest.fixture(scope="module")
def sweep_cache(tmp_path_factory):
    cache = RunCache(tmp_path_factory.mktemp("sweep") / "cache")
    _sweep(cache)
    return cache


class TestWarmPathGates:
    """Exact, machine-independent bounds on what a warm hit reads."""

    def test_payload_column_holds_the_replay_subset(self, sweep_cache):
        conn = sqlite3.connect(sweep_cache.store.path)
        count, mean = conn.execute(
            "SELECT COUNT(*), AVG(LENGTH(payload)) FROM entries"
        ).fetchone()
        conn.close()
        # 385.5 bytes with the whole payload in the column.
        assert count == 100 and mean <= 130

    def test_one_json_parse_per_read(self, sweep_cache, monkeypatch):
        parses = []
        reads = []
        read_many = sweep_cache.store.read_many

        def loads(text):
            parses.append(len(text))
            return json.loads(text)

        def counted_read_many(batch):
            reads.append(len(batch))
            return read_many(batch)

        counted = SimpleNamespace(loads=loads, dumps=json.dumps)
        monkeypatch.setattr(sqlite_store, "json", counted)
        monkeypatch.setattr(sweep_cache.store, "read_many", counted_read_many)
        keys_ = job_keys(_sweep_jobs())
        got = sweep_cache.get_many(keys_ * 6)  # 600 keys, one SELECT
        assert [s for s, _ in got] == ["hit"] * 600
        assert len(parses) == len(reads) == 1
        before = perf.CACHE.snapshot()
        _sweep(sweep_cache)
        assert _delta(before)["hits"] == 100
        assert len(reads) >= 2 and len(parses) == len(reads)

    def test_one_encoder_per_dataclass_type(self, sweep_cache, monkeypatch):
        compiled = []
        encoder_for = keys._encoder_for

        def counted_encoder_for(cls):
            compiled.append(cls)
            return encoder_for(cls)

        monkeypatch.setattr(keys, "_ENCODERS", {})
        monkeypatch.setattr(keys, "_encoder_for", counted_encoder_for)
        jobs = _sweep_jobs()
        first = job_keys(jobs)
        assert sorted(cls.__name__ for cls in compiled) == [
            "CampaignJob", "RingScenario", "StandardRingInvariants"
        ]
        assert job_keys(jobs) == first
        before = perf.CACHE.snapshot()
        _sweep(sweep_cache)
        assert _delta(before)["hits"] == 100
        assert len(compiled) == 3
