"""Fault-injection framework mechanics (paper §III-E)."""

from __future__ import annotations

import pytest

from repro.core import RingConfig, Termination, make_ring_main
from repro.faults import (
    CompositeInjector,
    KillAtCall,
    KillAtProbe,
    KillAtTime,
    KillRandomly,
    Window,
    enumerate_windows,
    explore,
    run_campaign,
)
from repro.faults.campaign import CampaignJob, draw_kills
from repro.faults.explorer import WindowJob
from repro.faults.injector import FaultInjector
from repro.parallel import RingScenario
from repro.protocols import PROTOCOLS, ProtocolCompareJob
from repro.simmpi import Simulation
from repro.analysis import no_hang, standard_ring_invariants
from tests.conftest import RING_INVARIANTS, RING_SCENARIO, run_sim


async def counting_main(mpi):
    for i in range(10):
        mpi.probe_point("tick")
        await mpi.compute(1e-7)
    return mpi.probe_counts.get("tick")


class TestInjectors:
    def test_kill_at_time(self):
        r = run_sim(counting_main, 2, injectors=[KillAtTime(rank=1, time=3.5e-7)],
                    on_deadlock="return")
        assert r.failed_ranks == {1}
        assert r.value(0) == 10

    def test_kill_at_probe_hit(self):
        r = run_sim(counting_main, 2,
                    injectors=[KillAtProbe(rank=1, probe="tick", hit=4)],
                    on_deadlock="return")
        assert r.failed_ranks == {1}
        # The victim died exactly at its 4th tick.
        failures = r.trace.filter(rank=1)
        assert r.outcomes[1].state == "failed"

    def test_kill_at_probe_wrong_name_never_fires(self):
        r = run_sim(counting_main, 2,
                    injectors=[KillAtProbe(rank=1, probe="nope", hit=1)])
        assert r.failed_ranks == set()

    def test_kill_at_call(self):
        r = run_sim(counting_main, 2,
                    injectors=[KillAtCall(rank=1, call_no=5)],
                    on_deadlock="return")
        assert r.failed_ranks == {1}

    def test_kill_at_call_filters_op(self):
        async def main(mpi):
            comm = mpi.comm_world
            if comm.rank == 0:
                comm.send(1, dest=1)
                comm.send(2, dest=1)
                return "alive"
            await comm.recv(source=0)
            await comm.recv(source=0)

        r = run_sim(main, 2,
                    injectors=[KillAtCall(rank=1, call_no=2, op="recv")],
                    on_deadlock="return")
        assert r.failed_ranks == {1}
        assert r.value(0) == "alive"

    def test_kill_randomly_respects_protect_and_cap(self):
        inj = KillRandomly(rate=1.0, seed=1, max_failures=2, protect=(0,))
        r = run_sim(counting_main, 5, injectors=[inj], on_deadlock="return")
        assert len(r.failed_ranks) == 2
        assert 0 not in r.failed_ranks

    def test_kill_randomly_rate_zero(self):
        inj = KillRandomly(rate=0.0, seed=1)
        r = run_sim(counting_main, 3, injectors=[inj])
        assert r.failed_ranks == set()

    def test_kill_randomly_invalid_rate(self):
        with pytest.raises(ValueError):
            KillRandomly(rate=1.5)

    def test_composite(self):
        inj = CompositeInjector([
            KillAtProbe(rank=1, probe="tick", hit=2),
            KillAtProbe(rank=2, probe="tick", hit=5),
        ])
        r = run_sim(counting_main, 3, injectors=[inj], on_deadlock="return")
        assert r.failed_ranks == {1, 2}


class _PollsEveryChild(CompositeInjector):
    """The composite as it was before event-only injectors stopped
    being polled: the reference for the call sequence."""

    def polled(self):
        return True

    def should_kill(self, proc, op=None, probe=None):
        return any(
            i.should_kill(proc, op=op, probe=probe) for i in self.injectors
        )


class TestPolling:
    """An injector that acts only through the events ``arm()`` scheduled
    (``KillAtTime``) is never consulted at an MPI call or probe point;
    the ones that answer there are asked exactly as before."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every ``should_kill`` call: (class, rank, op, probe, answer)."""
        seen = []

        def spy_on(cls):
            inner = cls.__dict__["should_kill"]

            def should_kill(self, proc, op=None, probe=None):
                answer = inner(self, proc, op=op, probe=probe)
                seen.append((type(self).__name__, proc.rank, op, probe, answer))
                return answer

            monkeypatch.setattr(cls, "should_kill", should_kill)

        for cls in (FaultInjector, KillAtCall, KillAtProbe):
            spy_on(cls)
        return seen

    def test_kill_at_time_only_campaign_job_polls_nothing(self, calls):
        run = CampaignJob(
            factory=RING_SCENARIO, seed=3, horizon=2e-5, kills_per_run=2,
            invariants=RING_INVARIANTS,
        )()
        assert len(run.kills) == 2 and run.ok
        assert calls == []  # 150 of them at the commit before

    def test_mixed_composite_polls_the_same_sequence(self, calls):
        def run(composite):
            del calls[:]
            sim, main = RingScenario(nprocs=6, iters=4)()
            sim.add_injector(composite([
                KillAtTime(rank=3, time=1.2e-5),
                KillAtProbe(rank=1, probe="post_recv", hit=2),
                KillAtCall(rank=4, call_no=9),
            ]))
            result = sim.run(main, on_deadlock="return")
            assert result.failed_ranks == {1, 3, 4}
            return list(calls), result.trace.keys()

        reference, reference_trace = run(_PollsEveryChild)
        sequence, trace = run(CompositeInjector)
        assert len(reference) == 341 and len(sequence) == 227
        assert sequence == [c for c in reference if c[0] != "KillAtTime"]
        assert trace == reference_trace


def ring_factory():
    cfg = RingConfig(max_iter=3, termination=Termination.VALIDATE_ALL)
    return Simulation(nprocs=4), make_ring_main(cfg)


class TestExplorer:
    def test_enumerate_windows_matches_reference(self):
        windows = enumerate_windows(ring_factory)
        # root: post_send/post_recv/pre_termination; non-roots: recv/send
        # per iteration + pre_termination.
        per_nonroot = [w for w in windows if w.rank == 1]
        assert len(per_nonroot) == 3 * 2 + 1
        assert {w.probe for w in windows if w.rank == 0} == {
            "root_post_send", "root_post_recv", "pre_termination"
        }

    def test_filtering(self):
        wins = enumerate_windows(ring_factory, probes=["post_recv"], ranks=[2])
        assert all(w.rank == 2 and w.probe == "post_recv" for w in wins)
        assert len(wins) == 3

    def test_run_window_outcome(self):
        out = WindowJob(
            ring_factory,
            (Window(rank=2, probe="post_recv", hit=2),),
            invariants=[no_hang],
        )()
        assert out.ok
        assert not out.hung

    def test_explore_summary_counts(self):
        rep = explore(
            ring_factory,
            invariants=standard_ring_invariants(3, 4),
            ranks=[1, 2, 3],
        )
        s = rep.summary()
        assert s["runs"] == s["windows"] == len(rep.reference_windows)
        assert s["ok"] == s["runs"]
        assert rep.failures == []
        assert "ok" in rep.format()

    def test_explore_max_windows_cap(self):
        rep = explore(ring_factory, ranks=[1], max_windows=2)
        assert len(rep.reference_windows) == 2

    def test_explore_keep_results(self):
        rep = explore(ring_factory, ranks=[1], max_windows=1,
                      keep_results=True)
        assert rep.outcomes[0].result is not None

    def test_window_str(self):
        assert str(Window(2, "post_recv", 3)) == "r2@post_recv#3"


class TestCampaign:
    def test_campaign_runs_and_reports(self):
        def factory():
            cfg = RingConfig(max_iter=4, termination=Termination.VALIDATE_ALL,
                             work_per_iter=1e-6)
            return Simulation(nprocs=4), make_ring_main(cfg)

        rep = run_campaign(
            factory,
            seeds=range(8),
            horizon=8e-6,
            invariants=standard_ring_invariants(4, 4),
        )
        s = rep.summary()
        assert s["runs"] == 8
        assert s["ok"] == 8
        assert "campaign" in rep.format()
        # Kills were actually placed (deterministically per seed).
        assert all(len(r.kills) == 1 for r in rep.runs)
        assert all(1 <= r.kills[0][0] <= 3 for r in rep.runs)

    def test_campaign_rejects_too_many_kills(self):
        def factory():
            return Simulation(nprocs=2), lambda mpi: None

        with pytest.raises(ValueError):
            run_campaign(factory, seeds=[1], horizon=1.0, kills_per_run=5)

    def test_campaign_deterministic_per_seed(self):
        def factory():
            cfg = RingConfig(max_iter=3, termination=Termination.VALIDATE_ALL,
                             work_per_iter=1e-6)
            return Simulation(nprocs=4), make_ring_main(cfg)

        r1 = run_campaign(factory, seeds=[42], horizon=5e-6)
        r2 = run_campaign(factory, seeds=[42], horizon=5e-6)
        assert r1.runs[0].kills == r2.runs[0].kills


class TestSharedDraw:
    """A campaign and a protocol comparison draw their kills with one
    function: the same seed, ring size, horizon and kill count place
    the same ``(rank, time)`` kills in both."""

    @pytest.mark.parametrize("nprocs, k, seed", [(4, 1, 0), (6, 2, 7), (8, 3, 11)])
    def test_campaign_and_comparison_face_one_kill_list(self, nprocs, k, seed):
        horizon = 2e-5
        run = CampaignJob(
            factory=RingScenario(nprocs=nprocs, iters=3),
            seed=seed, horizon=horizon, kills_per_run=k,
        )()
        kills = draw_kills(seed, range(1, nprocs), k, horizon)
        assert len(kills) == k and run.kills == kills
        for protocol in PROTOCOLS:
            record = ProtocolCompareJob(
                protocol=protocol, nprocs=nprocs, iters=3, seed=seed,
                horizon=horizon, kills_per_run=k,
            )()
            assert record.kills == kills, protocol

    def test_more_kills_than_eligible_ranks_raise(self):
        with pytest.raises(ValueError, match="exceeds eligible ranks"):
            CampaignJob(
                factory=RingScenario(nprocs=3, iters=2), seed=0,
                horizon=1e-5, kills_per_run=3,
            )()
        with pytest.raises(ValueError, match="exceeds eligible ranks"):
            CampaignJob(
                factory=RingScenario(nprocs=5, iters=2), seed=0,
                horizon=1e-5, kills_per_run=3, eligible_ranks=(1, 2),
            )()
        with pytest.raises(ValueError, match="exceeds eligible ranks"):
            ProtocolCompareJob(
                protocol="rts", nprocs=3, iters=2, kills_per_run=3
            )()
