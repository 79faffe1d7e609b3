"""The streaming sweep pipeline (``run_stream`` and ``stream=True``).

PR 7's contract: a streamed sweep must be *observationally identical*
to a materialized one — same values in the same submission order, same
report text, same canonical telemetry, same cache hits — while holding
only a bounded window of jobs and results in memory.  This suite pins
both halves: equivalence (streamed == materialized == pooled, byte for
byte) and boundedness (jobs are built lazily, never all at once).
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro import perf
from repro.cache import RunCache
from repro.cli import main
from repro.faults import (
    CampaignReport,
    CampaignSummary,
    ExplorationSummary,
    explore,
    run_campaign,
)
from repro.fuzz import FuzzSummary, fuzz
from repro.obs import canonical_lines
from repro.parallel import ProcessPoolRunner, SerialRunner, with_cache
from repro.parallel.runner import DEFAULT_STREAM_WINDOW
from tests.conftest import (
    RING_INVARIANTS as INVARIANTS,
    RING_SCENARIO as SCENARIO,
)


@dataclass(frozen=True)
class SquareJob:
    x: int

    def __call__(self) -> int:
        return self.x * self.x


class Factory:
    """Job generator that counts how many jobs were ever constructed —
    the probe for 'streaming never materializes the whole sweep'."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.built = 0

    def __iter__(self):
        for x in range(self.n):
            self.built += 1
            yield SquareJob(x)


# ---------------------------------------------------------------------------
# run_stream: equivalence and boundedness
# ---------------------------------------------------------------------------


class TestRunStream:
    def test_serial_matches_run(self):
        jobs = [SquareJob(x) for x in (3, 1, 2)]
        assert list(SerialRunner().run_stream(iter(jobs))) == [9, 1, 4]

    def test_pooled_matches_run_in_submission_order(self):
        runner = ProcessPoolRunner(workers=2, chunk_size=2)
        got = list(runner.run_stream(SquareJob(x) for x in range(40)))
        assert got == [x * x for x in range(40)]

    def test_serial_is_fully_lazy(self):
        factory = Factory(1000)
        stream = SerialRunner().run_stream(iter(factory))
        next(stream)
        assert factory.built == 1

    def test_windowed_stream_is_bounded(self, tmp_path):
        for runner in (
            ProcessPoolRunner(workers=2),
            # A cached serial runner batches its lookups per window too.
            with_cache(SerialRunner(), tmp_path / "c"),
        ):
            factory = Factory(1000)
            stream = runner.run_stream(iter(factory), window=8)
            next(stream)
            assert factory.built == 8  # one window, not the whole sweep

    def test_default_pool_window_floor(self):
        assert ProcessPoolRunner(workers=2)._stream_window() >= (
            DEFAULT_STREAM_WINDOW
        )

    def test_job_retries_accumulate_across_windows(self):
        runner = ProcessPoolRunner(workers=2)
        results = list(
            runner.run_stream((SquareJob(x) for x in range(20)), window=6)
        )
        assert len(results) == 20
        assert runner.job_retries == [0] * 20

    def test_empty_stream(self):
        assert list(SerialRunner().run_stream(iter(()))) == []
        assert list(ProcessPoolRunner(workers=2).run_stream(iter(()))) == []


# ---------------------------------------------------------------------------
# stream=True sweeps: byte-identical to materialized, serial and pooled
# ---------------------------------------------------------------------------


def _campaign(runs=12, **kw):
    return run_campaign(
        SCENARIO,
        seeds=range(runs),
        horizon=2e-5,
        invariants=INVARIANTS,
        **kw,
    )


class TestStreamedSweeps:
    def test_campaign_summary_matches_report(self):
        mat = _campaign()
        streamed = _campaign(stream=True)
        assert isinstance(mat, CampaignReport)
        assert isinstance(streamed, CampaignSummary)
        assert streamed.summary() == mat.summary()
        assert streamed.format() == mat.format()
        assert len(streamed.failures) == len(mat.failures)

    def test_campaign_streamed_serial_equals_pooled(self):
        serial = _campaign(stream=True)
        pooled = _campaign(stream=True, runner=ProcessPoolRunner(workers=2))
        assert serial.format() == pooled.format()

    def test_explore_summary_matches_report(self):
        mat = explore(SCENARIO, invariants=INVARIANTS)
        streamed = explore(SCENARIO, invariants=INVARIANTS, stream=True)
        assert isinstance(streamed, ExplorationSummary)
        assert streamed.summary() == mat.summary()
        assert streamed.format() == mat.format()

    def test_explore_pairs_streamed_total(self):
        mat = explore(SCENARIO, invariants=INVARIANTS, pairs=True)
        streamed = explore(
            SCENARIO, invariants=INVARIANTS, pairs=True, stream=True
        )
        assert streamed.format() == mat.format()

    def test_fuzz_summary_matches_report(self):
        mat = fuzz(SCENARIO, runs=15, seed=2)
        streamed = fuzz(SCENARIO, runs=15, seed=2, stream=True)
        assert isinstance(streamed, FuzzSummary)
        assert streamed.summary() == mat.summary()
        assert streamed.format() == mat.format()
        assert len(streamed.shrunk) == len(mat.shrunk)

    def test_streamed_telemetry_canonically_identical(self, tmp_path):
        a, b = tmp_path / "mat.jsonl", tmp_path / "str.jsonl"
        _campaign(telemetry=str(a))
        _campaign(stream=True, telemetry=str(b))
        assert list(canonical_lines(str(a))) == list(canonical_lines(str(b)))

    def test_streamed_telemetry_pooled(self, tmp_path):
        a, b = tmp_path / "ser.jsonl", tmp_path / "pool.jsonl"
        _campaign(stream=True, telemetry=str(a))
        _campaign(
            stream=True,
            telemetry=str(b),
            runner=ProcessPoolRunner(workers=2),
        )
        assert list(canonical_lines(str(a))) == list(canonical_lines(str(b)))

    def test_streamed_cache_hits_batched(self, tmp_path):
        cache = RunCache(tmp_path / "c")
        cold = _campaign(stream=True, cache=cache)
        before = perf.CACHE.snapshot()
        warm = _campaign(stream=True, cache=cache)
        d = perf.CACHE.delta(before)
        assert d["hits"] == 12 and d["misses"] == d["stores"] == 0
        assert warm.format() == cold.format() == _campaign().format()


class TestLongCampaign:  # 300 runs
    def test_materialized_counts_every_run(self):
        assert _campaign(runs=300).summary() == {
            "runs": 300, "ok": 300, "hangs": 0, "violations": 0, "aborts": 0
        }

    def test_streamed_report_is_byte_identical(self):
        streamed = _campaign(runs=300, stream=True)
        assert streamed.format() == _campaign(runs=300).format()


# ---------------------------------------------------------------------------
# CLI --stream
# ---------------------------------------------------------------------------


class TestStreamCli:
    def _run(self, capsys, argv):
        rc = main(argv)
        return rc, capsys.readouterr().out

    def test_campaign_stream_flag_identical_stdout(self, capsys):
        base = ["campaign", "--nprocs", "4", "--iters", "3", "--runs", "8"]
        rc1, mat = self._run(capsys, base)
        rc2, streamed = self._run(capsys, base + ["--stream"])
        assert (rc1, mat) == (rc2, streamed)

    def test_fuzz_stream_flag_identical_stdout(self, capsys):
        base = ["fuzz", "--nprocs", "4", "--iters", "3", "--runs", "10"]
        rc1, mat = self._run(capsys, base)
        rc2, streamed = self._run(capsys, base + ["--stream"])
        assert (rc1, mat) == (rc2, streamed)
