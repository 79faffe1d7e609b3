"""What a warm cache hit costs the sweep's parent process, as exact counters.

A warm replay executes no simulation: the submitting process keys each
job, reads the store, rebuilds each outcome from its replay payload and
folds it into the report.  Wall time moves with the host, so that work
is pinned by counts the program decides, over the benchmark's warm
campaign (the 100-seed, 8-rank ``validate_all`` kill campaign of
perfbench's ``cache_warm`` workload):

* **SQL statements** per store call, seen by
  ``sqlite3.Connection.set_trace_callback``: one per ``get_many``
  whatever the batch size (the covering read), ``BEGIN``, one
  ``INSERT`` per row and ``COMMIT`` per ``put_many``, and one per ``gc``
  of a store with nothing to drop, however many rows it holds.
* **interpreted instructions** per warm hit, counted by ``sys.settrace``
  opcode events in every Python frame of the replay, generated code
  (the key encoders) included, on CPython 3.11: bounded at the
  measured value plus 1 %.  A failure prints the ten functions with the
  most instructions per hit, which names the layer that grew.
* **flatness**: the same instructions per hit at 100 and at 2,000 jobs.
  The 2,000-job store is filled by ``put_many`` with synthetic replay
  payloads, not by running 2,000 simulations.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.cache import RunCache, job_keys
from repro.faults import run_campaign
from repro.faults.campaign import CampaignJob
from repro.parallel import RingScenario, StandardRingInvariants

SCENARIO = RingScenario(
    nprocs=8, iters=6, variant="ft_marker", termination="validate_all"
)
INVARIANTS = StandardRingInvariants(6, 8)
HORIZON = 8e-5
KILLS = 2
SEEDS = range(100_000, 100_100)
#: Interpreted instructions per warm hit of the 100-job replay, measured
#: on CPython 3.11.7 (the bound is this plus 1 %; 841.94 before the
#: covering read, the one-pass classification and the inline scalars).
INSTRUCTIONS_PER_HIT = 631.08


def _campaign(cache, seeds=SEEDS):
    return run_campaign(
        SCENARIO,
        seeds=seeds,
        horizon=HORIZON,
        kills_per_run=KILLS,
        invariants=INVARIANTS,
        cache=cache,
    )


def _jobs(seeds):
    """The jobs :func:`run_campaign` builds for *seeds* (same keys)."""
    return [
        CampaignJob(
            factory=SCENARIO, seed=seed, horizon=HORIZON,
            kills_per_run=KILLS, invariants=INVARIANTS,
        )
        for seed in seeds
    ]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """The 100-job campaign, run once into a fresh store."""
    cache = RunCache(tmp_path_factory.mktemp("sweep-cost") / "cache")
    _campaign(cache)
    return cache


@pytest.fixture(scope="module")
def synthetic_store(tmp_path_factory):
    """2,000 campaign jobs' keys, each holding a made-up replay payload:
    what a warm hit reads, without running a simulation."""
    cache = RunCache(tmp_path_factory.mktemp("sweep-cost-2000") / "cache")
    jobs = _jobs(range(2_000))
    cache.put_many(
        (
            key,
            {
                "kills": [[1 + job.seed % 7, 1e-6], [2, job.seed * 1e-9]],
                "hung": job.seed % 5 == 0,
                "aborted": False,
                "violations": [],
                "digest": key[:16],
                "final_time": 1e-5,
                "perf": {},
            },
            job,
        )
        for key, job in zip(job_keys(jobs), jobs)
    )
    return cache


def _statements(cache, action):
    """The SQL statements *action* runs on *cache*'s connection."""
    seen: list[str] = []
    conn = cache.store._conn()
    conn.set_trace_callback(seen.append)
    try:
        action()
    finally:
        conn.set_trace_callback(None)
    return seen


# ----------------------------------------------------------------------
# SQL statements per store call
# ----------------------------------------------------------------------


def test_one_statement_per_get_many(warm_store, synthetic_store):
    keys = job_keys(_jobs(SEEDS))
    seen = _statements(warm_store, lambda: warm_store.get_many(keys))
    assert len(seen) == 1, seen
    many = job_keys(_jobs(range(2_000)))
    got = []
    seen = _statements(
        synthetic_store, lambda: got.extend(synthetic_store.get_many(many))
    )
    assert len(seen) == 1, seen
    assert [status for status, _ in got] == ["hit"] * 2_000


def test_put_many_is_one_transaction(tmp_path):
    cache = RunCache(tmp_path / "cache")
    jobs = _jobs(SEEDS)
    rows = [
        (key, {"kills": [], "hung": False, "aborted": False,
               "violations": []}, job)
        for key, job in zip(job_keys(jobs), jobs)
    ]
    seen = _statements(cache, lambda: cache.put_many(rows))
    assert seen[0] == "BEGIN " and seen[-1] == "COMMIT", seen[:2] + seen[-1:]
    assert len(seen) == len(rows) + 2
    assert all(s.startswith("INSERT OR REPLACE") for s in seen[1:-1])


def test_gc_reads_the_store_in_one_statement(warm_store, synthetic_store):
    for cache, entries in ((warm_store, 100), (synthetic_store, 2_000)):
        counts = {}
        seen = _statements(cache, lambda: counts.update(cache.gc()))
        assert counts == {"removed_stale": 0, "removed_old": 0}
        assert cache.stats()["entries"] == entries
        assert len(seen) == 1, seen


# ----------------------------------------------------------------------
# Interpreted work per warm hit
# ----------------------------------------------------------------------


def _instructions(cache, seeds) -> tuple[float, str]:
    """Interpreted instructions per hit of one warm replay of *seeds*,
    and the ten functions with the most of them, one per line."""
    ops: Counter[str] = Counter()

    def opcode(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code.co_qualname] += 1
        return opcode

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcode

    _campaign(cache, seeds)  # warm every lazily built cache (the encoders)
    sys.settrace(call)
    try:
        report = _campaign(cache, seeds)
    finally:
        sys.settrace(None)
    assert report.summary()["runs"] == len(seeds)
    top = "\n".join(
        f"{n / len(seeds):8.1f}  {name}" for name, n in ops.most_common(10)
    )
    return sum(ops.values()) / len(seeds), top


bytecode_counts = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="bytecode counts are CPython 3.11's",
)


@bytecode_counts
def test_instructions_per_warm_hit(warm_store):
    per_hit, top = _instructions(warm_store, SEEDS)
    bound = INSTRUCTIONS_PER_HIT * 1.01
    assert per_hit <= bound, (
        f"{per_hit:.1f} interpreted instructions per warm hit (bound "
        f"{bound:.1f}); most per hit:\n{top}"
    )


@bytecode_counts
def test_warm_hit_cost_is_flat_in_the_number_of_jobs(synthetic_store):
    """An interpreted O(n) per hit shows here without a clock: twenty
    times the jobs, the same instructions per hit."""
    small, _ = _instructions(synthetic_store, range(100))
    large, top = _instructions(synthetic_store, range(2_000))
    assert large <= small * 1.01, (
        f"{small:.1f} interpreted instructions per warm hit at 100 jobs, "
        f"{large:.1f} at 2,000; most per hit at 2,000:\n{top}"
    )
