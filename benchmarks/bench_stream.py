"""EXP-STREAM — the streaming sweep pipeline vs materialized batches.

``run_campaign(..., stream=True)`` folds runs into a summary as they
complete instead of building the full job and result lists, holding
O(window + failures) memory however large the campaign.  Its cost model
must be a wash: the same simulations execute either way, so streaming
may only add windowing overhead.  Two series pin that:

* ``bench_campaign_materialized`` — the classic list-in/list-out path;
* ``bench_campaign_streamed`` — the bounded-window generator path; the
  bench asserts the reports are byte-identical and tabulates what
  streaming costs over materializing (it is usually within noise of
  1.0x — the simulations dominate).

Both land in ``BENCH_simperf.json``; ``REPRO_BENCH_WORKERS`` fans the
runs across a pool in either mode.  The wall-clock ceiling on that
ratio is ``bench_campaign_streamed_ceiling``, marked ``perf``: tier-1
deselects it (a ratio of two wall times is not something a shared
machine can promise), ``pytest -m perf`` runs it.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import ascii_table
from repro.faults import run_campaign
from repro.parallel import RingScenario, StandardRingInvariants
from conftest import _PERF, emit, sweep_runner, timed

N = 4
ITERS = 3
RUNS = 300
SCENARIO = RingScenario(nprocs=N, iters=ITERS)
INVARIANTS = StandardRingInvariants(ITERS, N)
#: Streaming may not cost more than this over the materialized path.
OVERHEAD_CEILING = 1.25


def _campaign(stream: bool):
    return run_campaign(
        SCENARIO,
        seeds=range(RUNS),
        horizon=2e-5,
        invariants=INVARIANTS,
        runner=sweep_runner(),
        stream=stream,
    )


def _interleaved_overhead() -> float:
    """Streamed over materialized wall time, warmth-matched: alternate
    the two passes back-to-back and compare the best of each.  (The two
    timed series are minutes apart in a full bench session; machine-load
    drift between them exceeds the windowing overhead in question.)"""
    best = {False: float("inf"), True: float("inf")}
    for _ in range(3):
        for stream in (False, True):
            t0 = time.perf_counter()
            _campaign(stream=stream)
            best[stream] = min(best[stream], time.perf_counter() - t0)
    return best[True] / best[False] if best[False] > 0 else float("inf")


def bench_campaign_materialized(benchmark):
    reports = []
    timed(benchmark, lambda: reports.append(_campaign(stream=False)))
    s = reports[-1].summary()
    emit(
        f"campaign, materialized ({RUNS} runs, fig2 ring n={N})",
        ascii_table(
            ["runs", "ok", "hangs", "violations", "aborts"],
            [[s["runs"], s["ok"], s["hangs"], s["violations"], s["aborts"]]],
        ),
    )
    assert s["runs"] == RUNS


def bench_campaign_streamed(benchmark):
    reports = []
    timed(benchmark, lambda: reports.append(_campaign(stream=True)))
    streamed = reports[-1]
    assert streamed.format() == _campaign(stream=False).format()

    streamed_s = min(_PERF["bench_campaign_streamed"])
    rows = [["streamed", f"{streamed_s:.4f}", "-"]]
    mat_series = _PERF.get("bench_campaign_materialized")
    if mat_series:
        rows.insert(0, ["materialized", f"{min(mat_series):.4f}", "-"])
        rows[-1][-1] = f"{_interleaved_overhead():.2f}x"
    emit(
        "campaign, streamed (same runs through bounded windows; overhead "
        "from interleaved best-of-3)",
        ascii_table(["mode", "min wall s", "overhead"], rows),
    )


@pytest.mark.perf
def bench_campaign_streamed_ceiling():
    ratio = _interleaved_overhead()
    assert ratio <= OVERHEAD_CEILING, (
        f"streaming cost {ratio:.2f}x the materialized sweep "
        f"(ceiling: {OVERHEAD_CEILING}x, interleaved best-of-3)"
    )
