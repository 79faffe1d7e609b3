"""Sweep telemetry: serial==pooled canonical identity, cache delegation,
schema validation, and offline aggregation.
"""

from __future__ import annotations

import pytest

from repro.cache.keys import job_key
from repro.faults import explore, run_campaign
from repro.fuzz import fuzz
from repro.obs import (
    TELEMETRY,
    TelemetryJob,
    outcome_class,
    records,
    summarize,
)
from repro.parallel import RingScenario, StandardRingInvariants

POOL_WORKERS = 2

SCENARIO = RingScenario(nprocs=4, iters=3)
INVARIANTS = StandardRingInvariants(3, 4)


def campaign_telemetry(path, workers=None):
    run_campaign(
        SCENARIO,
        seeds=range(8),
        horizon=2e-5,
        invariants=INVARIANTS,
        workers=workers,
        telemetry=str(path),
    )
    return path


# ---------------------------------------------------------------------------
# The determinism contract: canonical serial == canonical pooled
# ---------------------------------------------------------------------------


def test_campaign_canonical_serial_vs_pooled(tmp_path):
    serial = campaign_telemetry(tmp_path / "serial.jsonl")
    pooled = campaign_telemetry(tmp_path / "pooled.jsonl",
                                workers=POOL_WORKERS)
    assert records.canon(serial, TELEMETRY) == records.canon(pooled, TELEMETRY)


def test_explore_canonical_serial_vs_pooled(tmp_path):
    def run(path, workers):
        explore(
            SCENARIO, invariants=INVARIANTS, workers=workers,
            telemetry=str(path),
        )
        return path

    serial = run(tmp_path / "serial.jsonl", None)
    pooled = run(tmp_path / "pooled.jsonl", POOL_WORKERS)
    assert records.canon(serial, TELEMETRY) == records.canon(pooled, TELEMETRY)


def test_fuzz_canonical_serial_vs_pooled(tmp_path):
    from repro.parallel import make_runner

    def run(path, workers):
        fuzz(
            SCENARIO, runs=8, seed=3, runner=make_runner(workers),
            shrink_failures=False, telemetry=str(path),
        )
        return path

    serial = run(tmp_path / "serial.jsonl", None)
    pooled = run(tmp_path / "pooled.jsonl", POOL_WORKERS)
    assert records.canon(serial, TELEMETRY) == records.canon(pooled, TELEMETRY)


def test_progress_batching_keeps_global_indices(tmp_path):
    """Batched explore (progress enabled) must still number jobs by their
    sweep-global submission index."""
    plain, batched = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    explore(SCENARIO, invariants=INVARIANTS, telemetry=str(plain))
    explore(SCENARIO, invariants=INVARIANTS, telemetry=str(batched),
            progress=lambda done, total: None)
    assert records.canon(plain, TELEMETRY) == records.canon(batched, TELEMETRY)


# ---------------------------------------------------------------------------
# Schema and content
# ---------------------------------------------------------------------------


def test_telemetry_schema_valid(tmp_path):
    path = campaign_telemetry(tmp_path / "t.jsonl")
    assert records.errors(path, TELEMETRY) == []
    header, jobs = records.read(path, TELEMETRY)
    assert header["kind"] == "campaign"
    assert header["runs"] == 8 == len(jobs)
    assert sorted(rec["index"] for rec in jobs) == list(range(8))
    for rec in jobs:
        assert rec["t_end"] >= rec["t_start"]
        assert rec["wall_s"] == rec["t_end"] - rec["t_start"]
        assert rec["cache"] is None  # cache off in this sweep


def test_telemetry_errors_flag_corruption(tmp_path):
    path = campaign_telemetry(tmp_path / "t.jsonl")
    text = path.read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    # Duplicate a job line: duplicate index + count mismatch.
    bad.write_text("\n".join(text + [text[-1]]) + "\n")
    assert records.errors(bad, TELEMETRY)


def test_outcome_class():
    class O:  # noqa: E742 - tiny stand-in
        hung = False
        violations = ()
        aborted = False

    o = O()
    assert outcome_class(o) == "ok"
    o.aborted = True
    assert outcome_class(o) == "abort"
    o.violations = ("bad",)
    assert outcome_class(o) == "violation"
    o.hung = True
    assert outcome_class(o) == "hang"


# ---------------------------------------------------------------------------
# Cache integration
# ---------------------------------------------------------------------------


def test_telemetry_job_shares_cache_key():
    """A wrapped job must key identically to the bare job, so telemetry
    and plain sweeps share cache entries (cache_key_delegate)."""
    from repro.faults.campaign import CampaignJob

    job = CampaignJob(factory=SCENARIO, seed=7, horizon=2e-5,
                      invariants=INVARIANTS)
    bare = job_key(job)
    assert bare is not None
    assert job_key(TelemetryJob(job=job, index=3)) == bare
    assert job_key(TelemetryJob(job=job, index=99)) == bare


def test_telemetry_records_cache_hits(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = tmp_path / "cold.jsonl"
    warm = tmp_path / "warm.jsonl"

    def run(path):
        run_campaign(
            SCENARIO, seeds=range(4), horizon=2e-5, invariants=INVARIANTS,
            cache=str(cache_dir), telemetry=str(path),
        )

    run(cold)
    run(warm)
    cold_recs = [
        r for r in records.read(cold, TELEMETRY)[1] if r.get("kind") == "job"
    ]
    warm_recs = [
        r for r in records.read(warm, TELEMETRY)[1] if r.get("kind") == "job"
    ]
    assert all(r["cache"] == "miss" for r in cold_recs)
    assert all(r["cache"] == "hit" for r in warm_recs)
    # Outcomes are identical either way; only the cache column differs.
    strip = lambda rs: [(r["index"], r["outcome"]) for r in rs]  # noqa: E731
    assert strip(cold_recs) == strip(warm_recs)


def test_warm_cache_entries_usable_without_telemetry(tmp_path):
    """Entries stored by a telemetry run answer a bare run (and vice
    versa): the wrapper never splits the cache namespace."""
    from repro import perf

    cache_dir = tmp_path / "cache"
    run_campaign(SCENARIO, seeds=range(4), horizon=2e-5,
                 invariants=INVARIANTS, cache=str(cache_dir),
                 telemetry=str(tmp_path / "t.jsonl"))
    before = perf.CACHE.snapshot()
    run_campaign(SCENARIO, seeds=range(4), horizon=2e-5,
                 invariants=INVARIANTS, cache=str(cache_dir))
    delta = perf.CACHE.delta(before)
    assert delta["hits"] == 4 and delta["misses"] == 0


# ---------------------------------------------------------------------------
# Aggregation (`repro report`)
# ---------------------------------------------------------------------------


def test_summarize(tmp_path):
    path = campaign_telemetry(tmp_path / "t.jsonl")
    summary = summarize(path, top=3)
    assert summary.kind == "campaign"
    assert summary.runs == 8
    assert sum(summary.outcomes.values()) == 8
    assert len(summary.slowest) == 3
    assert summary.wall_percentiles["max"] >= summary.wall_percentiles["p50"]
    assert sum(int(w["jobs"]) for w in summary.workers.values()) == 8
    text = summary.format()
    assert "campaign sweep, 8 job(s)" in text
    assert "cache: off" in text


def test_summarize_counts_cache(tmp_path):
    path = tmp_path / "warm.jsonl"
    cache_dir = tmp_path / "cache"
    for _ in range(2):
        run_campaign(SCENARIO, seeds=range(4), horizon=2e-5,
                     invariants=INVARIANTS, cache=str(cache_dir),
                     telemetry=str(path))
    summary = summarize(path)
    assert summary.cache["hit"] == 4
    assert "100% hit rate" in summary.format()
