"""The content-addressed run cache (:mod:`repro.cache`).

The cache's whole correctness contract is *invisibility*: a sweep run
with the cache off, cold, or warm — serial or pooled — must produce the
byte-identical report, and anything that can change a run's outcome
(mutation switches, jitter specs, policy seeds, the scenario itself)
must change the key.  This suite pins both directions, plus the
maintenance surface (``verify`` catching corruption, ``gc`` dropping
stale formats) and the CLI split (report on stdout, cache accounting on
stderr).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import repro
from repro import mutation, perf
from repro.cache import CachedRunner, RunCache, job_key
from repro.cli import main
from repro.faults import explore, run_campaign
from repro.faults.explorer import Window, WindowJob
from repro.fuzz import fuzz
from repro.fuzz.config import FuzzConfig, JitterSpec
from repro.fuzz.driver import FuzzJob
from repro.parallel import ProcessPoolRunner
from tests.conftest import (
    RING_INVARIANTS,
    RING_SCENARIO,
    factory_for,
    outcome_fields,
)


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


def _delta(before):
    return perf.CACHE.delta(before)


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
            runner=ProcessPoolRunner(workers=2),
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
            runner=ProcessPoolRunner(workers=2),
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
        assert job_key(_window_job(trace=False)) != base

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
        path = cache._path(key)
        entry = json.loads(path.read_text())
        entry["format"] = "repro.cache/0"
        path.write_text(json.dumps(entry))
        assert cache.fetch(key) == ("stale", None)
        before = perf.CACHE.snapshot()
        explore(RING_SCENARIO, invariants=RING_INVARIANTS, cache=cache_dir)
        d = _delta(before)
        assert d["stale"] == 1 and d["stores"] == 1
        assert cache.fetch(key)[0] == "hit"

    def test_corrupt_json_counts_stale(self, cache_dir):
        cache = self._populate(cache_dir)
        key = next(cache.keys())
        cache._path(key).write_text("{not json")
        assert cache.fetch(key) == ("stale", None)

    def test_gc_drops_stale_and_old(self, cache_dir):
        cache = self._populate(cache_dir)
        n = cache.stats()["entries"]
        key = next(cache.keys())
        cache._path(key).write_text("{not json")
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
        path = cache._path(key)
        entry = json.loads(path.read_text())
        entry["payload"]["hung"] = not entry["payload"]["hung"]
        path.write_text(json.dumps(entry))
        bad = [r for r in cache.verify() if not r.ok]
        assert len(bad) == 1 and bad[0].key == key
        assert any("hung" in d for d in bad[0].diffs)

    def test_verify_detects_key_drift(self, cache_dir):
        cache = self._populate(cache_dir)
        keys = list(cache.keys())
        # Re-file an entry under another entry's key: the stored job no
        # longer hashes to the name it is stored under.
        a, b = keys[0], keys[1]
        cache._path(b).write_text(
            json.dumps({**cache.entry(a), "key": a})
        )
        drifted = [r for r in cache.verify() if r.error and "key drift" in r.error]
        assert [r.key for r in drifted] == [b]


# ---------------------------------------------------------------------------
# CachedRunner pass-through semantics
# ---------------------------------------------------------------------------


class TestCachedRunner:
    def test_uncacheable_jobs_pass_through_untouched(self, cache_dir):
        runner = CachedRunner(cache=RunCache.at(cache_dir))
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
        runner = CachedRunner(cache=RunCache.at(cache_dir))
        windows = [Window(rank=r, probe="post_recv", hit=1) for r in (1, 2, 3)]
        jobs = [_window_job(windows=(w,)) for w in windows]
        runner.run([jobs[1]])  # warm exactly one key
        outs = runner.run(jobs)
        assert [o.windows[0].rank for o in outs] == [1, 2, 3]


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
        path = cache._path(key)
        entry = json.loads(path.read_text())
        entry["payload"]["violations"] = ["fabricated"]
        path.write_text(json.dumps(entry))
        rc = main(["cache", "--cache-dir", str(cache_dir), "verify"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out and "violations" in out
