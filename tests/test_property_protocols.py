"""Property-based tests for the distributed protocols under random faults.

These are the heavyweight correctness checks: hypothesis draws failure
schedules (victims, times, detection latencies, consensus mode, scheduler
seed) and asserts the system-level invariants the paper's design promises
— consensus agreement, ring progress without hangs or duplicates, farm
completeness.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import standard_ring_invariants
from repro.apps import FarmConfig, expected_results, make_farm_mains
from repro.core import RingConfig, Termination, make_ring_main, make_rootft_main
from repro.faults import KillAtTime
from repro.ft import comm_shrink, comm_validate_all
from repro.parallel import RingScenario
from repro.protocols import (
    ABORT_REPLICAS_EXHAUSTED,
    ABORT_RING_ALONE,
    ABORT_ROOT_LOST,
    ABORT_SPARES_EXHAUSTED,
)
from repro.simmpi import ErrorHandler, Simulation
from repro.simmpi.trace import TraceKind

COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def kills_strategy(nprocs: int, horizon: float, max_kills: int,
                   include_root: bool = False):
    lo = 0 if include_root else 1
    return st.lists(
        st.tuples(
            st.integers(lo, nprocs - 1),
            st.floats(min_value=0, max_value=horizon, allow_nan=False),
        ),
        max_size=max_kills,
        unique_by=lambda kv: kv[0],
    )


class TestConsensusAgreement:
    @given(
        kills=kills_strategy(6, horizon=3e-5, max_kills=4, include_root=True),
        delay=st.sampled_from([0.0, 1e-5, 4e-5]),
        lat=st.sampled_from([0.0, 3e-7, 2e-6]),
        seed=st.integers(0, 3),
    )
    @settings(**COMMON)
    def test_survivors_agree(self, kills, delay, lat, seed):
        """One schedule, both algorithms: each keeps agreement and validity,
        and the coordinator protocol decides exactly what the FloodSet
        oracle does whenever nobody dies while either instance runs."""

        async def main(mpi, mode):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            await mpi.compute(delay)
            proposal = comm.known_failed_comm_ranks()
            t0 = mpi.now
            await comm_validate_all(comm, mode=mode)
            return proposal, frozenset(comm.validated), t0, mpi.now

        decided = {}
        quiet = True
        for mode in ("coordinator", "full"):
            sim = Simulation(nprocs=6, seed=seed, policy="random",
                             detection_latency=lat)
            for rank, t in kills:
                sim.kill(rank, at_time=t)
            r = sim.run(lambda mpi: main(mpi, mode), on_deadlock="return")
            assert not r.hung, (mode, r.deadlock)
            done = list(r.values().values())
            decisions = {decision for _p, decision, _t0, _t1 in done}
            assert len(decisions) <= 1, mode  # agreement among survivors
            if not done:
                continue
            (decision,) = decisions
            first_start = min(t0 for _p, _d, t0, _t1 in done)
            last_decide = max(t1 for _p, _d, _t0, t1 in done)
            died = {ev.rank: ev.time
                    for ev in r.trace.filter(kind=TraceKind.FAILURE)}
            # Validity: every survivor's proposal is in, and nothing that
            # had not failed by the time the decision was taken.
            for proposal, _d, _t0, _t1 in done:
                assert proposal <= decision, mode
            assert all(died.get(f, 1.0) <= last_decide for f in decision), mode
            quiet &= not any(
                first_start <= t <= last_decide for t in died.values()
            )
            decided[mode] = decision
        if quiet and len(decided) == 2:
            assert decided["coordinator"] == decided["full"]


class TestRingUnderRandomFaults:
    @given(
        kills=kills_strategy(5, horizon=1.2e-5, max_kills=3),
        seed=st.integers(0, 3),
        lat=st.sampled_from([0.0, 5e-7, 2e-6]),
    )
    @settings(**COMMON)
    def test_marker_ring_invariants(self, kills, seed, lat):
        cfg = RingConfig(max_iter=5, termination=Termination.VALIDATE_ALL,
                         work_per_iter=1e-6)
        sim = Simulation(nprocs=5, seed=seed, policy="random",
                         detection_latency=lat)
        for rank, t in kills:
            sim.kill(rank, at_time=t)
        r = sim.run(make_ring_main(cfg), on_deadlock="return")
        for inv in standard_ring_invariants(5, 5):
            violation = inv(r)
            assert violation is None, (violation, kills, seed, lat)

    @given(
        kills=kills_strategy(5, horizon=1.2e-5, max_kills=2,
                             include_root=True),
        seed=st.integers(0, 3),
    )
    @settings(**COMMON)
    def test_rootft_ring_invariants(self, kills, seed):
        cfg = RingConfig(max_iter=5, work_per_iter=1e-6)
        sim = Simulation(nprocs=5, seed=seed, policy="random")
        for rank, t in kills:
            sim.kill(rank, at_time=t)
        r = sim.run(make_rootft_main(cfg), on_deadlock="return")
        for inv in standard_ring_invariants(5, 5, allow_root_loss=True):
            violation = inv(r)
            assert violation is None, (violation, kills, seed)


class TestRecoveryFamiliesUnderRandomFaults:
    """The :mod:`repro.protocols` families on hypothesis-drawn schedules.

    The contract is *no silent wrong answer*: whatever the schedule,
    every family either completes with the correct survivor state (all
    markers logged exactly once at a root) or aborts with one of its
    documented classification codes — and the shared ring battery holds
    either way.
    """

    PROTOCOL_ABORTS = {
        "shrink_repair": {ABORT_RING_ALONE},
        "replication": {ABORT_REPLICAS_EXHAUSTED},
        "partial_restart": {
            ABORT_RING_ALONE,
            ABORT_SPARES_EXHAUSTED,
            ABORT_ROOT_LOST,
        },
    }

    @given(
        protocol=st.sampled_from(
            ["shrink_repair", "replication", "partial_restart"]
        ),
        kills=kills_strategy(5, horizon=3e-5, max_kills=3),
        lat=st.sampled_from([0.0, 5e-7, 2e-6]),
    )
    @settings(**COMMON)
    def test_correct_state_or_classified_abort(self, protocol, kills, lat):
        scenario = RingScenario(
            nprocs=5, iters=5, detection_latency=lat, protocol=protocol
        )
        sim, main = scenario()
        for rank, t in kills:
            sim.kill(rank, at_time=t)
        r = sim.run(main, on_deadlock="return")
        assert not r.hung, (protocol, kills, lat, r.deadlock)
        for inv in standard_ring_invariants(5, 5):
            violation = inv(r)
            assert violation is None, (protocol, kills, lat, violation)
        if r.aborted is not None:
            assert r.aborted.code in self.PROTOCOL_ABORTS[protocol], (
                protocol, kills, lat, r.aborted,
            )
            return
        roots = [
            o.value
            for o in r.outcomes
            if o.state == "done"
            and isinstance(o.value, dict)
            and o.value["role"] == "root"
        ]
        assert roots, (protocol, kills, lat)
        for root in roots:
            markers = [m for m, _ in root["root_completions"]]
            assert markers == list(range(5)), (protocol, kills, lat)


class TestShrinkGroupOrder:
    """``comm_shrink`` preserves the survivors' relative rank order."""

    @given(
        victims=st.sets(st.integers(1, 5), max_size=3),
        lat=st.sampled_from([5e-7, 2e-6]),
    )
    @settings(**COMMON)
    def test_shrunken_group_is_ordered_subsequence(self, victims, lat):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            await mpi.compute(1e-4)  # outlive every kill + detection
            new = await comm_shrink(comm)
            return tuple(new.group)

        sim = Simulation(nprocs=6, detection_latency=lat)
        for i, rank in enumerate(sorted(victims)):
            sim.kill(rank, at_time=1e-5 + i * 1e-6)
        r = sim.run(main, on_deadlock="return")
        assert not r.hung, r.deadlock
        survivors = tuple(w for w in range(6) if w not in victims)
        groups = set(r.values().values())
        # Every survivor built the same communicator, its group is
        # exactly the survivor set, and world-rank order is preserved.
        assert groups == {survivors}


class TestFarmUnderRandomFaults:
    @given(
        kills=kills_strategy(5, horizon=1e-5, max_kills=2),
        seed=st.integers(0, 3),
    )
    @settings(**COMMON)
    def test_farm_completes_all_tasks(self, kills, seed):
        cfg = FarmConfig(num_tasks=10, work_per_task=1e-6)
        sim = Simulation(nprocs=5, seed=seed, policy="random")
        for rank, t in kills:
            sim.kill(rank, at_time=t)
        r = sim.run(make_farm_mains(cfg, 5), on_deadlock="return")
        assert not r.hung
        if r.aborted is None and r.outcomes[0].state == "done":
            assert r.value(0)["results"] == expected_results(cfg)
