"""Whether a sweep job records a trace is derived from who reads it
(:func:`repro.parallel.jobs.trace_needed`).

What is held to account here:

* the rule itself, and that the three job classes act on it;
* the ``reads_trace = False`` declarations: every battery that makes one
  is run against results whose trace raises on any read, so an invariant
  that starts looking at the trace fails here instead of silently
  passing on an empty one;
* an invariant that declares nothing gets the whole trace;
* a stored digest fingerprints the run, however the job was built;
* reports do not depend on any of it, on any runner.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import Any

import pytest

from repro import mutation
from repro.analysis.digest import result_digest
from repro.faults import explore, run_campaign
from repro.faults.campaign import CampaignJob
from repro.faults.explorer import Window, WindowJob, enumerate_windows
from repro.faults.injector import CompositeInjector, KillAtTime
from repro.faults.schedule import KillSpec
from repro.fuzz.config import FuzzConfig
from repro.fuzz.driver import FuzzJob
from repro.parallel import (
    FleetRunner,
    GenericInvariants,
    RingScenario,
    StandardRingInvariants,
    scenarios,
)
from repro.parallel.jobs import check_invariants, trace_needed
from repro.protocols import ProtocolCompareJob, run_compare_protocols
from repro.simmpi.trace import TraceKind
from tests.conftest import RING_INVARIANTS, RING_SCENARIO, factory_for

NAIVE_SCENARIO = RingScenario(
    nprocs=4, iters=3, variant="naive", termination="root_bcast"
)
_WINDOW = (Window(rank=1, probe="post_recv", hit=2),)


def count_sends(result) -> str:
    """An invariant that reads the trace and declares nothing."""
    return f"sends={result.trace.count(TraceKind.SEND_POST)}"


@dataclass(frozen=True)
class UndeclaredSpec:
    """An invariant factory that declares nothing."""

    def __call__(self):
        return [count_sends]


@dataclass(frozen=True)
class TraceLengthSpec:
    """Declares it does not read the trace, then reports its length —
    the probe that shows whether a run was traced."""

    reads_trace = False

    def __call__(self):
        return [lambda result: f"trace_len={len(result.trace)}"]


# ---------------------------------------------------------------------------
# The rule
# ---------------------------------------------------------------------------


class TestRule:
    @pytest.mark.parametrize("spec, expected", [
        (None, False),
        ((), False),
        ([], False),
        (RING_INVARIANTS, False),
        (GenericInvariants(), False),
        ((count_sends,), True),
        (UndeclaredSpec(), True),
        (lambda: [count_sends], True),
    ])
    def test_invariants_alone(self, spec, expected):
        assert trace_needed(spec, keep_results=False, digest=False) is expected

    @pytest.mark.parametrize("spec", [(), RING_INVARIANTS])
    def test_returning_the_result_or_digesting_it_needs_the_trace(self, spec):
        assert trace_needed(spec, keep_results=True, digest=False)
        assert trace_needed(spec, keep_results=False, digest=True)

    def test_the_declaration_is_no_part_of_a_specs_identity(self):
        for spec in (RING_INVARIANTS, GenericInvariants()):
            assert "reads_trace" not in {
                f.name for f in dataclasses.fields(spec)
            }

    def test_the_rule_lives_in_one_function_all_three_jobs_call(self):
        for cls in (CampaignJob, WindowJob, ProtocolCompareJob):
            source = inspect.getsource(cls._execute)
            assert source.count("trace_needed(") == 1, cls
            assert source.count("trace.enabled = False") == 1, cls

    @pytest.mark.parametrize("make_job", [
        lambda **kw: CampaignJob(
            factory=RING_SCENARIO, seed=1, horizon=8e-6, **kw
        ),
        lambda **kw: WindowJob(factory=RING_SCENARIO, windows=_WINDOW, **kw),
    ], ids=["campaign", "window"])
    def test_jobs_trace_exactly_when_it_says_so(self, make_job):
        untraced = make_job(invariants=TraceLengthSpec())()
        assert untraced.violations == ["trace_len=0"]
        kept = make_job(invariants=TraceLengthSpec(), keep_results=True)()
        assert kept.violations == [f"trace_len={len(kept.result.trace)}"]
        assert len(kept.result.trace) > 0
        digested, _payload = make_job(
            invariants=TraceLengthSpec()
        ).cache_payload()
        assert digested.violations == kept.violations

    def test_a_factory_that_switched_tracing_off_is_left_alone(self):
        job = WindowJob(
            factory=factory_for(trace_enabled=False),
            windows=_WINDOW,
            invariants=(count_sends,),
            keep_results=True,
        )
        assert len(job().result.trace) == 0


# ---------------------------------------------------------------------------
# (a) The declarations, against a trace that raises on any read
# ---------------------------------------------------------------------------


class PoisonedTrace:
    """Stands in for ``result.trace``; any read is a test failure."""

    def _read(self, *args: Any, **kw: Any):
        raise AssertionError(
            "an invariant battery declaring reads_trace = False read "
            "result.trace"
        )

    # Dunders are looked up on the type; every other read (``filter``,
    # ``count``, ``keys``, ``format``, ``dropped``…) lands in __getattr__.
    __len__ = __iter__ = __getitem__ = __bool__ = __contains__ = _read
    __getattr__ = _read


#: One instance per declaring class (and per parameter that selects
#: different invariants inside it).
DECLARED = [
    StandardRingInvariants(3, 4),
    StandardRingInvariants(3, 4, allow_root_loss=True),
    GenericInvariants(),
]


def _sample_results():
    """Passing, violating, hung and aborted runs of the 4-rank ring."""
    passing = run_campaign(
        RING_SCENARIO, seeds=range(12), horizon=8e-6, keep_results=True
    )
    with mutation.enabled("ring_no_dedup"):
        violating = run_campaign(
            RING_SCENARIO, seeds=range(12), horizon=8e-6, keep_results=True
        )
    hanging = explore(NAIVE_SCENARIO, keep_results=True, max_windows=12)
    root_loss = explore(RING_SCENARIO, ranks=[0], keep_results=True)
    return [r.result for r in passing.runs + violating.runs] + [
        o.result for o in hanging.outcomes + root_loss.outcomes
    ]


class TestDeclarationsHold:
    def test_every_declaring_class_is_covered(self):
        declaring = {
            cls
            for cls in vars(scenarios).values()
            if inspect.isclass(cls)
            and vars(cls).get("reads_trace") is False
        }
        assert declaring == {type(spec) for spec in DECLARED}

    def test_the_poison_works(self):
        poisoned = PoisonedTrace()
        for read in (
            len, iter, bool, list, lambda t: t[0], lambda t: t.filter(),
            lambda t: t.count(TraceKind.SEND_POST), lambda t: t.keys(),
            lambda t: t.format(), lambda t: t.dropped,
        ):
            with pytest.raises(AssertionError, match="reads_trace"):
                read(poisoned)

    def test_batteries_never_read_the_trace(self):
        results = _sample_results()
        seen = set()
        for spec in DECLARED:
            for result in results:
                expected = check_invariants(spec, result)
                poisoned = dataclasses.replace(result, trace=PoisonedTrace())
                assert check_invariants(spec, poisoned) == expected
                seen.update(v.split(":")[0].split(" ")[0] for v in expected)
            assert check_invariants(spec, results[0]) == []
        # The sample really exercises the violating branches: a hang, a
        # survivor left behind, a duplicate, an out-of-order root, and
        # missing completions.
        assert {"hang", "survivors", "marker", "root", "only"} <= seen


# ---------------------------------------------------------------------------
# (b) An undeclared invariant gets the full trace through every sweep
# ---------------------------------------------------------------------------


def _direct_sends(factory, injectors) -> str:
    sim, main = factory()
    sim.add_injector(CompositeInjector(injectors))
    return count_sends(sim.run(main, on_deadlock="return"))


class TestUndeclaredInvariantSeesTheTrace:
    @pytest.mark.parametrize(
        "spec", [(count_sends,), UndeclaredSpec()], ids=["sequence", "factory"]
    )
    def test_campaign_and_explore(self, spec):
        campaign = run_campaign(
            RING_SCENARIO, seeds=range(10), horizon=8e-6, invariants=spec
        )
        for run in campaign.runs:
            assert run.violations == [_direct_sends(
                RING_SCENARIO, [KillAtTime(rank=r, time=t) for r, t in run.kills]
            )]
        explored = explore(RING_SCENARIO, spec)
        assert len(explored.outcomes) == 28
        for outcome in explored.outcomes:
            assert outcome.violations == [_direct_sends(
                RING_SCENARIO, [w.injector() for w in outcome.windows]
            )]
        counts = {o.violations[0] for o in explored.outcomes}
        assert len(counts) > 1 and "sends=0" not in counts


# ---------------------------------------------------------------------------
# One run, one fingerprint
# ---------------------------------------------------------------------------


class TestDigestFingerprintsTheRun:
    def test_window_job_has_no_hand_set_trace_switch(self):
        # ``WindowJob(trace=False).cache_payload()`` used to digest an
        # empty trace: same run, second fingerprint.
        names = {f.name for f in dataclasses.fields(WindowJob)}
        assert "trace" not in names
        assert "trace" not in inspect.signature(explore).parameters

    @pytest.mark.parametrize("invariants", [(), RING_INVARIANTS],
                             ids=["no_invariants", "declared"])
    def test_campaign_and_window_payload_digest(self, invariants):
        for make_job in (
            lambda **kw: CampaignJob(
                factory=RING_SCENARIO, seed=3, horizon=8e-6,
                invariants=invariants, **kw,
            ),
            lambda **kw: WindowJob(
                factory=RING_SCENARIO, windows=_WINDOW,
                invariants=invariants, **kw,
            ),
        ):
            kept = make_job(keep_results=True)().result
            assert len(kept.trace) > 0
            _outcome, payload = make_job().cache_payload()
            assert payload["digest"] == result_digest(kept)

    @pytest.mark.parametrize("protocol", ["rts", "shrink_repair"])
    def test_compare_payload_digest(self, protocol):
        job = ProtocolCompareJob(
            protocol=protocol, nprocs=4, iters=3, seed=2, horizon=8e-6
        )
        sim, main = RingScenario(nprocs=4, iters=3, protocol=protocol)()
        sim.add_injector(CompositeInjector(
            KillAtTime(rank=r, time=t) for r, t in job._kills()
        ))
        traced = sim.run(main, on_deadlock="return")
        assert len(traced.trace) > 0
        record, payload = job.cache_payload()
        assert payload["digest"] == result_digest(traced)
        assert record == job()


# ---------------------------------------------------------------------------
# The explorer's reference run always traces
# ---------------------------------------------------------------------------


class TestReferenceRunTraces:
    def test_windows_do_not_depend_on_the_factorys_trace_setting(self):
        traced = enumerate_windows(factory_for())
        assert len(traced) == 28
        assert enumerate_windows(factory_for(trace_enabled=False)) == traced

    def test_untraced_factory_is_not_a_vacuous_green_report(self):
        def factory():
            sim, main = NAIVE_SCENARIO()
            sim.runtime.trace.enabled = False
            return sim, main

        report = explore(factory, StandardRingInvariants(3, 4))
        assert report.format() == explore(
            NAIVE_SCENARIO, StandardRingInvariants(3, 4)
        ).format()
        assert report.summary()["windows"] > 0 and report.hangs


# ---------------------------------------------------------------------------
# (c) Reports are the same with every trace forced on, on every runner
# ---------------------------------------------------------------------------


def _reports(runner=None) -> list[str]:
    kw = {"runner": runner}
    reports = []
    for scenario in (RING_SCENARIO, NAIVE_SCENARIO):
        reports.append(run_campaign(
            scenario, seeds=range(50), horizon=8e-6,
            invariants=RING_INVARIANTS, **kw,
        ).format())
        reports.append(explore(scenario, RING_INVARIANTS, **kw).format())
    reports.append(run_compare_protocols(
        nprocs=4, iters=3, seeds=range(50), horizon=8e-6, **kw
    ).format())
    return reports


def _force_trace(monkeypatch, traced: bool = True) -> None:
    """Every job traces (or, with ``traced=False``, none does), as
    before the rule existed: the one name the shared run reads is
    patched.  Pool workers are forked from, and the loopback worker is
    a thread of, this process."""
    monkeypatch.setattr(
        "repro.faults.campaign.trace_needed", lambda *a, **kw: traced
    )


#: One job of each sweep kind, for the forcing check.
FORCED_KINDS = {
    "campaign": lambda: CampaignJob(
        factory=RING_SCENARIO, seed=1, horizon=8e-6,
        invariants=RING_INVARIANTS,
    ),
    "window": lambda: WindowJob(
        factory=RING_SCENARIO, windows=_WINDOW, invariants=RING_INVARIANTS
    ),
    "compare": lambda: ProtocolCompareJob(
        protocol="rts", nprocs=4, iters=3, seed=1, horizon=8e-6
    ),
    "fuzz": lambda: FuzzJob(
        config=FuzzConfig(
            scenario=RING_SCENARIO,
            faults=(KillSpec("time", 2, time=5e-6),),
        ),
    ),
}

RUNNERS = {
    "serial": lambda addr: None,
    "pool": lambda addr: FleetRunner(workers=2),
    "remote": lambda addr: FleetRunner(addresses=[addr]),
}


class TestReportsDoNotDependOnIt:
    @pytest.fixture(scope="class")
    def derived_serial(self):
        return _reports()

    @pytest.mark.parametrize("make_job", FORCED_KINDS.values(),
                             ids=FORCED_KINDS.keys())
    def test_forcing_works(self, make_job, monkeypatch):
        job = make_job()
        for traced in (False, True):
            _force_trace(monkeypatch, traced)
            _record, result = job._execute()
            assert (len(result.trace) > 0) is traced

    @pytest.mark.parametrize("runner, forced", [
        pytest.param(runner, forced, id=f"{mode}-{runner}")
        for runner in RUNNERS
        for forced, mode in ((False, "derived"), (True, "forced"))
        if forced or runner != "serial"  # derived serial is the reference
    ])
    def test_reports(
        self, runner, forced, derived_serial, worker_addr, monkeypatch
    ):
        if forced:
            _force_trace(monkeypatch)
        assert _reports(RUNNERS[runner](worker_addr)) == derived_serial

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_keep_results_still_returns_full_traces(self, runner, worker_addr):
        campaign = run_campaign(
            RING_SCENARIO, seeds=range(4), horizon=8e-6,
            invariants=RING_INVARIANTS, keep_results=True,
            runner=RUNNERS[runner](worker_addr),
        )
        explored = explore(
            RING_SCENARIO, RING_INVARIANTS, max_windows=4,
            keep_results=True, runner=RUNNERS[runner](worker_addr),
        )
        for kept in campaign.runs + explored.outcomes:
            assert kept.result.trace.count(TraceKind.SEND_POST) > 0
            assert kept.result.trace.count(TraceKind.FAILURE) == 1
