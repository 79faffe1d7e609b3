"""Shared pytest fixtures, helpers, and the test-taxonomy hook.

Two tiers of tests exist (``docs/testing.md``):

* **tier1** — the fast default set, run on every commit (``pytest``);
  every test not marked ``slow`` lands here automatically via
  :func:`pytest_collection_modifyitems`.
* **slow** — long fuzz campaigns and the campaign-scale RSS check,
  deselected by default (``addopts`` carries ``-m 'not slow'``); select
  them with ``pytest -m slow``.

The module-level helpers below are the single home of the small
scenario/invariant specs that several suites used to each define for
themselves (``tests/test_parallel.py``, ``tests/test_exploration.py``,
the fuzz tests); import them as ``from tests.conftest import ...``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

import pytest

from repro.core import (
    RingConfig,
    RingVariant,
    Termination,
    make_ring_main,
    make_rootft_main,
)
from repro.parallel import (
    RingScenario,
    StandardRingInvariants,
    WorkerServer,
)
from repro.simmpi import CostModel, Simulation, SimulationResult

# ---------------------------------------------------------------------------
# Taxonomy: everything not marked slow is tier1
# ---------------------------------------------------------------------------


def pytest_collection_modifyitems(config, items) -> None:
    for item in items:
        if not item.get_closest_marker("slow"):
            item.add_marker(pytest.mark.tier1)


#: Both agreement algorithms, for ``parametrize("mode", AGREEMENT_MODES)``.
#: The ids predate the coordinator protocol and are kept so test names are
#: stable: "full" is the FloodSet oracle, "early" the early-deciding
#: default (the coordinator protocol; the ``mode="early"`` FloodSet variant
#: it replaced no longer exists).
AGREEMENT_MODES = [
    pytest.param("full", id="full"),
    pytest.param("coordinator", id="early"),
]

# ---------------------------------------------------------------------------
# Simulation drivers
# ---------------------------------------------------------------------------


def run_sim(
    main: Callable[..., Any] | Sequence[Callable[..., Any]],
    nprocs: int,
    *,
    seed: int = 0,
    kills: Sequence[tuple[int, float]] = (),
    injectors: Sequence[Any] = (),
    on_deadlock: str = "raise",
    **sim_kwargs: Any,
) -> SimulationResult:
    """One-line simulation driver used throughout the tests."""
    sim = Simulation(nprocs=nprocs, seed=seed, **sim_kwargs)
    for rank, time in kills:
        sim.kill(rank, at_time=time)
    for inj in injectors:
        sim.add_injector(inj)
    return sim.run(main, on_deadlock=on_deadlock)


def factory_for(variant=RingVariant.FT_MARKER, rootft=False, nprocs=4,
                max_iter=3, term=Termination.VALIDATE_ALL, **sim_kw):
    """Closure-style ring scenario factory (serial sweeps only — use
    :data:`RING_SCENARIO` / :class:`~repro.parallel.RingScenario` when
    the factory must cross a process boundary)."""
    def factory():
        cfg = RingConfig(max_iter=max_iter, variant=variant, termination=term)
        main = make_rootft_main(cfg) if rootft else make_ring_main(cfg)
        return Simulation(nprocs=nprocs, **sim_kw), main

    return factory


# ---------------------------------------------------------------------------
# Canonical small-ring specs (picklable: safe for pooled runners)
# ---------------------------------------------------------------------------

#: The 4-rank, 3-iteration marker ring most sweep/fuzz tests target.
RING_SCENARIO = RingScenario(nprocs=4, iters=3)

#: Its matching full invariant battery.
RING_INVARIANTS = StandardRingInvariants(3, 4)


# ---------------------------------------------------------------------------
# Report comparators (serial-vs-parallel equivalence assertions)
# ---------------------------------------------------------------------------


def campaign_fields(report):
    """Every per-run field of a campaign report that must survive a
    process boundary unchanged."""
    return [
        (r.seed, r.kills, r.hung, r.aborted, r.violations, r.result)
        for r in report.runs
    ]


def outcome_fields(report):
    """Every per-window field of an exploration report, likewise."""
    return [
        (o.windows, o.hung, o.aborted, o.violations, o.result)
        for o in report.outcomes
    ]


def windowed_campaign(
    factory, seeds, horizon, window, invariants=(), **sweep_kw
):
    """A campaign driven through ``sweep(..., window=window)`` and folded
    with :meth:`~repro.faults.CampaignReport.add`: the entry point's
    pipeline with an explicit in-flight window (``run_campaign`` always
    takes the runner's default).  ``sweep_kw`` goes to ``sweep``
    (``runner=``, ``cache=``, ``telemetry=``)."""
    from repro.faults import CampaignReport
    from repro.faults.campaign import CampaignJob
    from repro.parallel.runner import sweep

    report = CampaignReport()
    for run in sweep(
        (
            CampaignJob(
                factory=factory,
                seed=seed,
                horizon=horizon,
                invariants=invariants,
            )
            for seed in seeds
        ),
        total=len(seeds),
        kind="campaign",
        window=window,
        **sweep_kw,
    ):
        report.add(run)
    return report


@pytest.fixture
def worker_addr():
    """Address of a loopback sweep worker served from a thread of the
    test process (so it sees the test's monkeypatches and mutations)."""
    server = WorkerServer(("127.0.0.1", 0))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server.address
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture
def zero_cost() -> CostModel:
    """A cost model where time never advances (pure-ordering tests)."""
    from repro.simmpi import ZERO_COST

    return ZERO_COST
