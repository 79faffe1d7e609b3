"""EXP-CACHE — the content-addressed run cache: cold vs warm sweeps.

The incremental-sweep claim of :mod:`repro.cache` is purely about wall
time: a warm re-run of an unchanged exploration answers every job from
its content-addressed key instead of executing the simulation, and the
report is byte-identical.  This bench pins both halves on the paper's
ring (the Fig. 2 scenario, explored exhaustively in its fault-tolerant
marker variant):

* ``bench_explore_cache_cold`` — every round sweeps into a **fresh**
  cache directory: full simulation cost plus key/store overhead (the
  honest price of turning the cache on for the first time);
* ``bench_explore_cache_warm`` — the directory is pre-populated once,
  every timed round is all hits.  The bench asserts the warm report
  equals the cold one and, when the cold series ran in the same
  session, that warm is at least **5x** faster.

The campaign-scale series: a synthetic store of 10^4 entries,
warm-looked-up via one ``get_many`` per round
(``bench_cache_lookup_sqlite``; ~20 indexed queries per batch).  Its
only assertion is exact: every key comes back a ``hit``.

All series land in ``BENCH_simperf.json`` with their ``cache_*``
counter deltas (see ``conftest.timed``), so the trajectory file records
the hit/miss traffic alongside the wall times.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.analysis import ascii_table
from repro.cache import RunCache
from repro.faults import explore
from repro.parallel import RingScenario, StandardRingInvariants
from conftest import _PERF, emit, timed

# The Fig. 2 ring, in the fault-tolerant marker variant the sweep
# engine exists to interrogate (the baseline variant aborts on the
# first kill, which would make most windows trivially identical).
N = 8
ITERS = 10
SCENARIO = RingScenario(nprocs=N, iters=ITERS)
INVARIANTS = StandardRingInvariants(ITERS, N)
SPEEDUP_FLOOR = 5.0


def _explore(cache_dir: Path):
    return explore(
        SCENARIO,
        invariants=INVARIANTS,
        ranks=list(range(1, N)),
        cache=cache_dir,
    )


def bench_explore_cache_cold(benchmark):
    dirs: list[str] = []
    reports = []

    def run_cold():
        # A fresh directory per round: every job misses and stores.
        d = tempfile.mkdtemp(prefix="repro-bench-cache-")
        dirs.append(d)
        reports.append(_explore(Path(d)))
        return reports[-1]

    try:
        timed(benchmark, run_cold)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
    s = reports[-1].summary()
    emit(
        f"run-cache cold sweep (fig2 ring, n={N}, {ITERS} iterations)",
        ascii_table(
            ["windows", "runs", "ok", "hangs", "violations"],
            [[s["windows"], s["runs"], s["ok"], s["hangs"], s["violations"]]],
        ),
    )
    assert s["ok"] == s["runs"] > 0  # the marker ring survives every window


def bench_explore_cache_warm(benchmark):
    d = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        populate = _explore(Path(d))  # untimed cold pass fills the store
        reports = []

        def run_warm():
            reports.append(_explore(Path(d)))
            return reports[-1]

        timed(benchmark, run_warm)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    warm = reports[-1]
    assert warm.format() == populate.format()  # byte-identical report
    rows = [["warm", f"{min(_PERF['bench_explore_cache_warm']):.4f}", "-"]]
    cold_series = _PERF.get("bench_explore_cache_cold")
    if cold_series:
        cold_s = min(cold_series)
        warm_s = min(_PERF["bench_explore_cache_warm"])
        speedup = cold_s / warm_s if warm_s > 0 else float("inf")
        rows.insert(0, ["cold", f"{cold_s:.4f}", "-"])
        rows[-1][-1] = f"{speedup:.1f}x"
        assert speedup >= SPEEDUP_FLOOR, (
            f"warm sweep only {speedup:.1f}x faster than cold "
            f"(floor: {SPEEDUP_FLOOR}x)"
        )
    emit(
        "run-cache warm sweep (same store, all hits)",
        ascii_table(["mode", "min wall s", "speedup"], rows),
    )


# ---------------------------------------------------------------------------
# Lookup series: one batched get_many at campaign scale
# ---------------------------------------------------------------------------

LOOKUP_ENTRIES = 10_000


def bench_cache_lookup_sqlite(benchmark):
    d = tempfile.mkdtemp(prefix="repro-bench-lookup-")
    try:
        # 10^4 entries with campaign-shaped payloads, stored untimed.
        cache = RunCache(Path(d))
        keys = [f"{i:064x}" for i in range(LOOKUP_ENTRIES)]
        cache.put_many(
            (
                key,
                {"hung": False, "violations": [], "digest": key[:16], "seed": i},
                ("bench-entry", i),
            )
            for i, key in enumerate(keys)
        )

        def lookup():
            got = cache.get_many(keys)
            assert all(status == "hit" for status, _ in got)
            return got

        timed(benchmark, lookup)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    emit(
        f"cache warm lookup ({LOOKUP_ENTRIES} entries, one get_many per round)",
        ascii_table(
            ["store", "min wall s"],
            [["sqlite", f"{min(_PERF['bench_cache_lookup_sqlite']):.4f}"]],
        ),
    )
