"""Kernel metrics timelines and the RunReport summary.

The load-bearing invariant: ``metrics=True`` is strictly opt-in.  A
default-constructed simulation allocates **no** obs state (``Runtime.obs``
is ``None``, ``SimulationResult.metrics`` is ``None``) whether the trace
is on or off — the same zero-cost-when-disabled discipline the trace
uses (:func:`test_no_obs_state_with_trace_on_or_off`).
"""

from __future__ import annotations

import pytest

from repro.core import RingConfig, RingVariant, Termination, make_ring_main
from repro.faults import FailureSchedule
from repro.obs import KernelMetrics, make_scenario, run_report
from repro.simmpi import Simulation


def run_ring(metrics: bool, nprocs: int = 4, **sched):
    cfg = RingConfig(max_iter=3, termination=Termination.VALIDATE_ALL)
    sim = Simulation(nprocs=nprocs, metrics=metrics)
    if sched:
        s = FailureSchedule()
        s.at_probe(sched["rank"], sched["probe"], sched["hit"])
        sim.add_injector(s.injector())
    return sim.run(make_ring_main(cfg), on_deadlock="return")


# ---------------------------------------------------------------------------
# Opt-in contract
# ---------------------------------------------------------------------------


def test_metrics_default_off():
    sim = Simulation(nprocs=2)
    assert sim.runtime.obs is None
    result = sim.run(make_ring_main(RingConfig(max_iter=1)))
    assert result.metrics is None


def test_no_obs_state_with_trace_on_or_off():
    async def ping(mpi) -> None:  # 400 messages between two ranks
        comm = mpi.comm_world
        for i in range(400):
            if comm.rank == i % 2:
                comm.send(i, dest=1 - comm.rank)
            else:
                await comm.recv(source=1 - comm.rank)

    for trace in (True, False):
        sim = Simulation(nprocs=2, trace_enabled=trace)
        result = sim.run(ping)
        assert (len(result.trace) > 0) == trace
        assert sim.runtime.obs is None
        assert result.metrics is None


def test_metrics_opt_in_allocates():
    result = run_ring(metrics=True)
    assert isinstance(result.metrics, KernelMetrics)


def test_metrics_do_not_perturb_the_run():
    """The hooks observe; they must not change the schedule or the trace."""
    plain = run_ring(metrics=False)
    observed = run_ring(metrics=True)
    assert plain.trace.keys() == observed.trace.keys()
    assert plain.final_time == observed.final_time


# ---------------------------------------------------------------------------
# Series content
# ---------------------------------------------------------------------------


def test_series_populated():
    m = run_ring(metrics=True).metrics
    assert len(m.event_queue) > 0
    assert len(m.in_flight) > 0
    assert m.in_flight.last() == 0  # every message eventually done
    assert m.in_flight.maximum() >= 1
    assert any(len(s) for s in m.posted)
    # Sample times never precede the virtual epoch.  (They are *not*
    # globally monotone within a series: a fiber's local clock runs ahead
    # of the global event queue, and the Perfetto UI sorts by ts anyway.)
    for series in m.counter_series():
        assert all(t >= 0.0 for t in series.times)


def test_blocked_intervals_close():
    m = run_ring(metrics=True).metrics
    total = sum(len(iv) for iv in m.blocked_intervals)
    assert total > 0
    for ivs in m.blocked_intervals:
        for start, end in ivs:
            assert end >= start


def test_queue_sample_ranks_in_range():
    m = run_ring(metrics=True, nprocs=3).metrics
    assert len(m.posted) == 3 and len(m.unexpected) == 3


# ---------------------------------------------------------------------------
# RunReport
# ---------------------------------------------------------------------------


def test_run_report_clean_run():
    result = run_ring(metrics=True)
    rep = run_report(result)
    assert rep.nprocs == 4
    assert len(rep.ranks) == 4
    for r in rep.ranks:
        assert r.failed_s == 0.0
        assert r.busy_s >= 0.0 and r.blocked_s >= 0.0
        assert r.busy_s + r.blocked_s == pytest.approx(rep.final_time)
    assert rep.detection_latencies == []


def test_run_report_detection_latency():
    sim, main, nprocs = make_scenario("fig8")  # detection_latency=2us
    result = sim.run(main, on_deadlock="return", raise_app_errors=False)
    rep = run_report(result, nprocs=nprocs)
    assert rep.detection_latencies
    worst = max(lat for _o, _f, lat in rep.detection_latencies)
    assert worst == pytest.approx(2e-6)


def test_run_report_failed_time():
    result = run_ring(metrics=True, rank=2, probe="post_recv", hit=1)
    rep = run_report(result)
    failed = {r.rank: r.failed_s for r in rep.ranks}
    assert failed[2] >= 0.0
    assert all(failed[r] == 0.0 for r in (0, 1, 3))


def test_run_report_without_metrics_agrees_on_shape():
    """Trace-only fallback produces the same report structure (blocked
    accounting may differ at the margins, states and latencies match)."""
    with_m = run_report(run_ring(metrics=True))
    without = run_report(run_ring(metrics=False))
    assert [r.state for r in with_m.ranks] == [r.state for r in without.ranks]
    assert with_m.final_time == without.final_time
    assert with_m.detection_latencies == without.detection_latencies


def test_run_report_format_smoke():
    text = run_report(run_ring(metrics=True)).format()
    assert "run report: 4 rank(s)" in text
    assert "blocked(us)" in text


def test_consensus_timings_recorded():
    # A failure under validate_all termination drives the consensus
    # engine; the kernel hooks time every instance from first round entry
    # to decision.
    result = run_ring(metrics=True, rank=2, probe="post_recv", hit=1)
    rep = run_report(result)
    assert rep.consensus
    assert rep.validate_latencies
    for _rank, start, dur, rounds, how in rep.consensus:
        assert dur >= 0.0 and rounds >= 0 and start >= 0.0
        assert isinstance(how, str)
    # Rounds are protocol phases (contribute, decide) and ``how`` names
    # the algorithm and the deciding coordinator's term.
    assert {(rounds, how) for *_x, rounds, how in rep.consensus} == {
        (2, "coordinator:0")
    }


def test_comm_agree_is_observable_like_validate():
    from repro.ft import comm_agree, comm_shrink

    async def main(mpi):
        comm = mpi.comm_world
        await comm_agree(comm, comm.rank)
        await comm_shrink(comm)

    sim = Simulation(nprocs=4, metrics=True)
    sim.kill(0, at_time=3e-6)  # the coordinator, after its first DECIDEs landed
    rep = run_report(sim.run(main, on_deadlock="return"))
    by_rank: dict[int, list[tuple[int, str]]] = {}
    for rank, _start, dur, rounds, how in rep.consensus:
        assert dur > 0.0
        by_rank.setdefault(rank, []).append((rounds, how))
    # Two agreements per survivor: the first under rank 0, the second —
    # started towards rank 0, which is dead by then — after a takeover.
    assert by_rank[0] == [(2, "coordinator:0")]
    for rank in (1, 2, 3):
        assert by_rank[rank] == [(2, "coordinator:0"), (4, "coordinator:1")]
