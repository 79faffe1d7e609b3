"""The seven end-to-end workloads.

Closed loop, one generator process, at most 2 workers.  A workload object
is built from ``(seed, quick, rec, expect)`` — every input derives from
the seed — and offers ``repeat()``, which runs the workload once, **checks
its output** and returns how many of its simulations failed.  The harness
calls ``repeat()`` once untimed (warm-up) and then times it.

Every repeat is compared with an in-process serial reference, summarized
as ``expect``: the digest of its report, the messages its simulations
sent and their summed virtual time.  Given ``expect=None`` a workload
makes the reference itself — the three that *are* in-process serial runs
adopt their first repeat, the sweeps run a serial campaign in
``__init__`` and time it as ``reference_s`` so it can be kept out of
``setup_s`` — and later rounds of the same run are handed that ``expect``.

``quick`` shrinks the sizes for the schema-and-checks smoke; quick
numbers are stamped as such and ``compare.py`` refuses them.
"""

from __future__ import annotations

import random
import tempfile
from typing import Any

import adapter
import host
from spans import Recorder

#: Nominal virtual seconds of one ring hop (send + match + recv) under the
#: default cost model; only used to place kills inside the ring phase.
HOP_S = 1.46e-6

WORKERS = 2

Expect = dict[str, Any]


def seeds_for(cls: type, seed: int, quick: bool) -> range:
    """The campaign seeds of sweep workload *cls* at benchmark *seed*."""
    return adapter.sweep_seeds(seed, cls.quick_count if quick else cls.count)


def _sweep_inputs(seeds: range) -> dict[str, Any]:
    return {
        "nprocs": adapter.SWEEP_NPROCS,
        "iters": adapter.SWEEP_ITERS,
        "kills_per_run": adapter.SWEEP_KILLS,
        "horizon": adapter.SWEEP_HORIZON,
        "first_seed": seeds[0],
        "seeds": len(seeds),
    }


class _Workload:
    """What the harness relies on; sweeps inherit ``inputs()`` as is."""

    pinned = True
    #: seconds spent on a reference run in ``__init__`` (kept out of set-up)
    reference_s = 0.0

    def __init__(self, rec: Recorder, expect: Expect | None) -> None:
        self.rec = rec
        self.expect = expect
        #: the adapter's dict for the latest repeat (read by the probes)
        self.last: dict[str, Any] = {}

    def agrees(self, text: str, messages: int, sim_time: float) -> bool:
        """Does an in-process serial run match the reference?  The first
        one *is* the reference when none was handed in."""
        mine = {
            "digest": adapter.digest(text),
            "sim_messages": messages,
            "sim_time_us": sim_time * 1e6,
        }
        if self.expect is None:
            self.expect = mine
        return mine == self.expect

    def inputs(self) -> dict[str, Any]:
        return _sweep_inputs(self.seeds)

    def close(self) -> None:
        pass


class _Ring(_Workload):
    """One ``ft_marker`` ring with 2 non-root ranks killed mid-run."""

    sims = 1
    termination: str

    def __init__(
        self, seed: int, quick: bool, rec: Recorder, expect: Expect | None = None
    ) -> None:
        super().__init__(rec, expect)
        self.nprocs, self.iters = self.quick_size if quick else self.size
        rng = random.Random(seed)
        ring_phase = self.nprocs * self.iters * HOP_S
        self.kills = [
            (victim, rng.uniform(0.2, 0.6) * ring_phase)
            for victim in rng.sample(range(1, self.nprocs), 2)
        ]

    def repeat(self, instrumented: bool = False) -> int:
        out = adapter.run_ring(
            self.rec,
            nprocs=self.nprocs,
            iters=self.iters,
            termination=self.termination,
            kills=self.kills,
            instrumented=instrumented,
        )
        self.last = out
        ok = (
            self.agrees(out["text"], out["messages"], out["final_time"])
            and not out["problems"]
            and len(out["failed_ranks"]) == len(self.kills)
        )
        return 0 if ok else 1

    def inputs(self) -> dict[str, Any]:
        return {
            "nprocs": self.nprocs,
            "iters": self.iters,
            "termination": self.termination,
            "kills": self.kills,
        }


class RingValidateN48(_Ring):
    size = (48, 5)
    quick_size = (16, 5)
    termination = "validate_all"


class RingP2pN256(_Ring):
    size = (256, 64)
    quick_size = (32, 10)
    termination = "root_bcast"


class ProtocolsCompare(_Workload):
    """All four recovery families on shared kill schedules, serial."""

    count = 20
    quick_count = 4

    def __init__(
        self, seed: int, quick: bool, rec: Recorder, expect: Expect | None = None
    ) -> None:
        super().__init__(rec, expect)
        self.seeds = seeds_for(type(self), seed, quick)
        #: one baseline plus one run per seed, for each of four families
        self.sims = 4 * (len(self.seeds) + 1)

    def repeat(self, instrumented: bool = False) -> int:
        out = adapter.compare_protocols(
            self.rec, self.seeds, instrumented=instrumented
        )
        self.last = out
        agrees = self.agrees(out["text"], out["messages"], out["sim_time"])
        if not agrees or out["runs"] != self.sims:
            return self.sims
        return out["bad"]


class _Campaign(_Workload):
    """Shared shape of the sweep workloads: unless ``expect`` is given, a
    serial reference campaign in ``__init__`` (pinned to one CPU while it
    runs, like any single-process simulation); then the same seeds through
    the workload's own path."""

    pinned = False
    count = 200
    quick_count = 24

    def __init__(
        self, seed: int, quick: bool, rec: Recorder, expect: Expect | None = None
    ) -> None:
        super().__init__(rec, expect)
        self.seeds = seeds_for(type(self), seed, quick)
        self.sims = len(self.seeds)
        if expect is None:
            with host.one_cpu():
                ref = adapter.campaign(rec, self.seeds, keep_results=True)
            if ref["bad"]:
                raise RuntimeError(f"serial reference: {ref['bad']} bad runs")
            self.reference_s = ref["wall_s"]
            self.agrees(
                ref["text"], ref["session"]["messages_sent"], ref["sim_time"]
            )

    def run(self, instrumented: bool) -> dict[str, Any]:
        raise NotImplementedError

    def expected_cache(self) -> dict[str, int]:
        return {"hits": 0, "misses": 0, "stale": 0, "stores": 0}

    def check(self, out: dict[str, Any]) -> int:
        if (
            adapter.digest(out["text"]) != self.expect["digest"]
            or out["runs"] != self.sims
            or out["cache"] != self.expected_cache()
        ):
            return self.sims
        return out["bad"]

    def repeat(self, instrumented: bool = False) -> int:
        self.last = self.run(instrumented)
        return self.check(self.last)


class CampaignPool(_Campaign):
    def run(self, instrumented: bool) -> dict[str, Any]:
        runner = adapter.pool_runner(self.rec, WORKERS)
        return adapter.campaign(
            self.rec, self.seeds, runner=runner, instrumented=instrumented
        )


class CampaignRemote(_Campaign):
    def __init__(
        self, seed: int, quick: bool, rec: Recorder, expect: Expect | None = None
    ) -> None:
        self.fleet = adapter.Fleet(rec, WORKERS)
        try:
            super().__init__(seed, quick, rec, expect)
        except BaseException:
            self.fleet.close()
            raise

    def run(self, instrumented: bool) -> dict[str, Any]:
        runner = adapter.remote_runner(self.rec, self.fleet.addresses)
        return adapter.campaign(
            self.rec, self.seeds, runner=runner, instrumented=instrumented
        )

    def close(self) -> None:
        self.fleet.close()


class CacheCold(_Campaign):
    """Every repeat fills a fresh, empty SQLite store: the write side."""

    pinned = True
    count = 100

    def run(self, instrumented: bool) -> dict[str, Any]:
        with tempfile.TemporaryDirectory(prefix="perfbench-cold-") as tmp:
            return adapter.campaign(
                self.rec,
                self.seeds,
                cache=adapter.sqlite_cache(tmp),
                instrumented=instrumented,
            )

    def expected_cache(self) -> dict[str, int]:
        return {"hits": 0, "misses": self.sims, "stale": 0, "stores": self.sims}


class CacheWarm(_Campaign):
    """The store is filled once in set-up; every repeat replays the
    campaign ``REPLAYS`` times against it: the read side."""

    pinned = True
    count = 100
    REPLAYS = 100
    QUICK_REPLAYS = 5

    def __init__(
        self, seed: int, quick: bool, rec: Recorder, expect: Expect | None = None
    ) -> None:
        super().__init__(seed, quick, rec, expect)
        self.replays = self.QUICK_REPLAYS if quick else self.REPLAYS
        self.tmp = tempfile.TemporaryDirectory(prefix="perfbench-warm-")
        try:
            self.cache = adapter.sqlite_cache(self.tmp.name)
            fill = adapter.campaign(rec, self.seeds, cache=self.cache)
            if (
                adapter.digest(fill["text"]) != self.expect["digest"]
                or fill["cache"]["stores"] != self.sims
            ):
                raise RuntimeError(f"store fill went wrong: {fill['cache']}")
        except BaseException:
            self.tmp.cleanup()
            raise
        self.lookups = self.sims
        self.sims *= self.replays

    def inputs(self) -> dict[str, Any]:
        return {**super().inputs(), "replays": self.replays}

    def run(self, instrumented: bool) -> dict[str, Any]:
        total = {"hits": 0, "misses": 0, "stale": 0, "stores": 0}
        out: dict[str, Any] = {}
        wrong = 0
        for _ in range(self.replays):
            out = adapter.campaign(
                self.rec, self.seeds, cache=self.cache,
                instrumented=instrumented,
            )
            wrong += (
                adapter.digest(out["text"]) != self.expect["digest"]
                or out["bad"] > 0
            )
            for key, value in out["cache"].items():
                total[key] += value
        out["cache"] = total
        out["runs"] *= self.replays
        out["bad"] = wrong * self.lookups
        return out

    def expected_cache(self) -> dict[str, int]:
        return {"hits": self.sims, "misses": 0, "stale": 0, "stores": 0}

    def close(self) -> None:
        self.tmp.cleanup()


WORKLOADS = {
    "ring_validate_n48": RingValidateN48,
    "ring_p2p_n256": RingP2pN256,
    "protocols_compare": ProtocolsCompare,
    "campaign_pool": CampaignPool,
    "campaign_remote": CampaignRemote,
    "cache_cold": CacheCold,
    "cache_warm": CacheWarm,
}
