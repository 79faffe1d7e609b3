"""The streaming sweep pipeline (``run_stream`` and ``stream=True``).

Every sweep streams: jobs are built lazily and pulled through bounded
windows, and each result is folded into the one report class of its
kind.  ``stream=True`` only decides whether the report also keeps the
ok runs.  The contract: a ``stream=True`` report is *observationally
identical* to a kept one — same report text, same failures, same
canonical telemetry, same cache hits — while holding O(failures)
results.  This suite pins both halves: equivalence (streamed == kept ==
pooled, byte for byte) and boundedness (jobs are built lazily, never
all at once).
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro import perf
from repro.cache import RunCache
from repro.faults import explore, run_campaign
from repro.fuzz import fuzz
from repro.obs import TELEMETRY, records
from repro.parallel import (
    FleetRunner,
    RingScenario,
    SerialRunner,
    with_cache,
)
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
        runner = FleetRunner(workers=2, chunk_size=2)
        got = list(runner.run_stream(SquareJob(x) for x in range(40)))
        assert got == [x * x for x in range(40)]

    def test_windowed_stream_is_bounded(self, tmp_path):
        for runner in (
            FleetRunner(workers=2),
            SerialRunner(),
            # A cached serial runner batches its lookups per window too.
            with_cache(SerialRunner(), tmp_path / "c"),
        ):
            factory = Factory(1000)
            stream = runner.run_stream(iter(factory), window=8)
            next(stream)
            assert factory.built == 8  # one window, not the whole sweep

    def test_default_pool_window_floor(self):
        assert FleetRunner(workers=2)._stream_window() >= (
            DEFAULT_STREAM_WINDOW
        )

    def test_job_retries_hold_the_current_window(self):
        runner = FleetRunner(workers=2)
        stream = runner.run_stream((SquareJob(x) for x in range(20)), window=6)
        assert next(stream) == 0
        assert runner.job_retries == [0] * 6
        assert len(list(stream)) == 19
        assert runner.job_retries == [0] * 2  # the last window: 18, 19

    def test_empty_stream(self):
        assert list(SerialRunner().run_stream(iter(()))) == []
        assert list(FleetRunner(workers=2).run_stream(iter(()))) == []


# ---------------------------------------------------------------------------
# stream=True sweeps: byte-identical to kept reports, serial and pooled
# ---------------------------------------------------------------------------


def _campaign(runs=12, **kw):
    return run_campaign(
        SCENARIO,
        seeds=range(runs),
        horizon=2e-5,
        invariants=INVARIANTS,
        **kw,
    )


#: One sweep per report kind, and the attribute its kept runs live in.
#: The naive ring's campaign and the explore sweep both have failures,
#: so the failure lists compared below are not trivially empty.
SWEEPS = {
    "campaign": (
        lambda **kw: run_campaign(
            RingScenario(4, 3, variant="naive"),
            seeds=range(12),
            horizon=2e-5,
            **kw,
        ),
        "runs",
    ),
    "explore": (
        lambda **kw: explore(
            RingScenario(4, 3, variant="naive", termination="root_bcast"),
            **kw,
        ),
        "outcomes",
    ),
    "fuzz": (lambda **kw: fuzz(SCENARIO, runs=15, seed=2, **kw), "outcomes"),
}


class TestStreamedSweeps:
    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_stream_report_matches_kept(self, kind):
        run, kept_attr = SWEEPS[kind]
        kept = run()
        streamed = run(stream=True)
        assert type(streamed) is type(kept)
        assert streamed.summary() == kept.summary()
        assert streamed.format() == kept.format()
        assert streamed.failures == kept.failures
        # O(failures): the streamed report kept no run at all.
        assert getattr(streamed, kept_attr) == []
        assert len(getattr(kept, kept_attr)) == kept.summary()["runs"]

    def test_fuzz_verbose_needs_the_kept_outcomes(self):
        kept = fuzz(SCENARIO, runs=5, seed=2)
        assert kept.format(verbose=True).count(" ok  ") == 5
        with pytest.raises(ValueError, match="stream=True"):
            fuzz(SCENARIO, runs=5, seed=2, stream=True).format(verbose=True)

    def test_campaign_streamed_serial_equals_pooled(self):
        serial = _campaign(stream=True)
        pooled = _campaign(stream=True, runner=FleetRunner(workers=2))
        assert serial.format() == pooled.format()

    def test_explore_pairs_streamed_total(self):
        mat = explore(SCENARIO, invariants=INVARIANTS, pairs=True)
        streamed = explore(
            SCENARIO, invariants=INVARIANTS, pairs=True, stream=True
        )
        assert streamed.format() == mat.format()

    def test_streamed_telemetry_canonically_identical(self, tmp_path):
        a, b = tmp_path / "mat.jsonl", tmp_path / "str.jsonl"
        _campaign(telemetry=str(a))
        _campaign(stream=True, telemetry=str(b))
        assert records.canon(a, TELEMETRY) == records.canon(b, TELEMETRY)

    def test_streamed_telemetry_pooled(self, tmp_path):
        a, b = tmp_path / "ser.jsonl", tmp_path / "pool.jsonl"
        _campaign(stream=True, telemetry=str(a))
        _campaign(
            stream=True,
            telemetry=str(b),
            runner=FleetRunner(workers=2),
        )
        assert records.canon(a, TELEMETRY) == records.canon(b, TELEMETRY)

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
