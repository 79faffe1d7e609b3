"""Sweep telemetry: serial==pooled canonical identity, cache
dispositions, schema validation, the job lines as a view of the job
spans, and offline aggregation.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.faults import explore, run_campaign
from repro.faults.campaign import CampaignJob
from repro.fuzz import fuzz
from repro.obs import (
    SPANS,
    TELEMETRY,
    SpanRecorder,
    outcome_class,
    records,
    recording,
    spans_to_records,
    summarize,
)
from repro.parallel import RingScenario, StandardRingInvariants, make_runner
from repro.parallel.runner import sweep

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
    versa): telemetry never splits the cache namespace."""
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
# Job lines are a view of the job spans
# ---------------------------------------------------------------------------

#: A campaign whose six runs take all four outcome classes.
MIXED = RingScenario(nprocs=4, iters=3, variant="ft_no_marker",
                     termination="root_bcast")

#: ``records.canon`` of :func:`mixed_campaign`, recorded when each job
#: was still timed by a wrapper of its own; ``CACHE`` stands for the
#: disposition: ``null`` uncached, ``"miss"`` cold, ``"hit"`` warm.
PINNED_CANON = [
    '{"cache":CACHE,"index":0,"kind":"job","outcome":"violation"}',
    '{"cache":CACHE,"index":1,"kind":"job","outcome":"ok"}',
    '{"cache":CACHE,"index":2,"kind":"job","outcome":"abort"}',
    '{"cache":CACHE,"index":3,"kind":"job","outcome":"hang"}',
    '{"cache":CACHE,"index":4,"kind":"job","outcome":"ok"}',
    '{"cache":CACHE,"index":5,"kind":"job","outcome":"ok"}',
    '{"format":"repro.telemetry/1","kind":"campaign","runs":6}',
]


def mixed_campaign(path, workers=None, cache=None):
    run_campaign(
        MIXED, seeds=range(12, 18), horizon=2e-5, kills_per_run=2,
        eligible_ranks=range(4), invariants=INVARIANTS, workers=workers,
        cache=cache, telemetry=str(path),
    )
    return records.canon(path, TELEMETRY)


@pytest.mark.parametrize("workers", [None, POOL_WORKERS])
def test_canon_of_a_fixed_campaign_is_pinned(tmp_path, workers):
    store = str(tmp_path / "cache")
    for name, cache, disposition in (
        ("uncached", None, "null"),
        ("cold", store, '"miss"'),
        ("warm", store, '"hit"'),
    ):
        assert mixed_campaign(tmp_path / f"{name}.jsonl", workers, cache) == [
            line.replace("CACHE", disposition) for line in PINNED_CANON
        ], name


def test_a_callers_recorder_keeps_every_span_it_would_without_telemetry(
    tmp_path,
):
    """``--telemetry --spans``: the sweep reads its job lines off the
    caller's recorder and takes nothing out of it."""

    def recorded(telemetry):
        with recording(SpanRecorder(kind="campaign")) as recorder:
            run_campaign(
                SCENARIO, seeds=range(8), horizon=2e-5,
                invariants=INVARIANTS, workers=POOL_WORKERS,
                telemetry=telemetry,
            )
        path = tmp_path / "spans.jsonl"
        path.write_text(records.dumps(spans_to_records(recorder)))
        counts = Counter(
            span.cat for span in recorder.spans if span.cat in ("chunk", "net")
        )
        return records.canon(path, SPANS), counts

    canon, counts = recorded(str(tmp_path / "t.jsonl"))
    assert (canon, counts) == recorded(None)
    assert len(canon) == 8 and counts["chunk"] > 0 and counts["net"] > 0
    _, jobs = records.read(tmp_path / "t.jsonl", TELEMETRY)
    assert len([rec for rec in jobs if rec["kind"] == "job"]) == 8


def test_a_telemetry_only_stream_holds_one_window_of_spans(
    tmp_path, monkeypatch,
):
    """Without a caller's recorder the sweep records into its own and
    drops each window's spans once their lines are written; the lines of
    pooled jobs name the worker that ran them."""
    #: Spans a recorder holds after each recording call, and the spans
    #: those calls added.
    held: list[int] = []
    added: list[int] = []

    def counting(method):
        def counted(self, *args, **kwargs):
            before = len(self.spans)
            out = method(self, *args, **kwargs)
            held.append(len(self.spans))
            added.append(len(self.spans) - before)
            return out
        return counted

    monkeypatch.setattr(SpanRecorder, "begin", counting(SpanRecorder.begin))
    monkeypatch.setattr(
        SpanRecorder, "chunk_absorb", counting(SpanRecorder.chunk_absorb)
    )

    def streamed(runs, path):
        held.clear()
        added.clear()
        jobs = (
            CampaignJob(factory=SCENARIO, seed=seed, horizon=2e-5,
                        invariants=INVARIANTS)
            for seed in range(runs)
        )
        for _ in sweep(jobs, total=runs, kind="campaign",
                       runner=make_runner(POOL_WORKERS), telemetry=str(path),
                       window=8):
            pass
        return max(held), sum(added)

    one_window, _ = streamed(8, tmp_path / "one.jsonl")
    most, recorded = streamed(40, tmp_path / "t.jsonl")
    assert most <= one_window and recorded >= 5 * one_window
    assert records.errors(tmp_path / "t.jsonl", TELEMETRY) == []
    _, body = records.read(tmp_path / "t.jsonl", TELEMETRY)
    workers = {rec["worker"] for rec in body if rec["kind"] == "job"}
    assert len([rec for rec in body if rec["kind"] == "job"]) == 40
    assert os.getpid() not in workers and len(workers) >= 2


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
