"""The RunReport summary: one fold over a run's trace rows.

:func:`run_report` reads the trace alone, in one pass
(:func:`test_run_report_is_one_pass_over_the_rows`), and ``metrics=True``
is an alias of a traced run (:func:`test_metrics_alias_runs_traced`).
"""

from __future__ import annotations

import pytest

from repro.core import RingConfig, RingVariant, Termination, make_ring_main
from repro.faults import FailureSchedule
from repro.obs import make_scenario, run_report
from repro.simmpi import Simulation
from repro.simmpi.trace import Trace


def run_ring(nprocs: int = 4, **sched):
    cfg = RingConfig(max_iter=3, termination=Termination.VALIDATE_ALL)
    sim = Simulation(nprocs=nprocs)
    if sched:
        s = FailureSchedule()
        s.at_probe(sched["rank"], sched["probe"], sched["hit"])
        sim.add_injector(s.injector())
    return sim.run(make_ring_main(cfg), on_deadlock="return")


# ---------------------------------------------------------------------------
# RunReport
# ---------------------------------------------------------------------------


def test_run_report_clean_run():
    result = run_ring()
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
    result = run_ring(rank=2, probe="post_recv", hit=1)
    rep = run_report(result)
    failed = {r.rank: r.failed_s for r in rep.ranks}
    assert failed[2] >= 0.0
    assert all(failed[r] == 0.0 for r in (0, 1, 3))


def test_run_report_without_metrics_agrees_on_shape():
    """``metrics=True`` only turns the trace on, so the report of a
    traced run is the same with and without it."""
    cfg = RingConfig(max_iter=3, termination=Termination.VALIDATE_ALL)
    runs = [
        Simulation(nprocs=4, **kw).run(make_ring_main(cfg))
        for kw in ({}, {"metrics": True})
    ]
    assert run_report(runs[0]) == run_report(runs[1])


def test_run_report_format_smoke():
    text = run_report(run_ring()).format()
    assert "run report: 4 rank(s)" in text
    assert "blocked(us)" in text


def test_consensus_timings_recorded():
    # A failure under validate_all termination drives the consensus
    # engine; the fold times every instance from its start row to its
    # decide row.
    result = run_ring(rank=2, probe="post_recv", hit=1)
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

    sim = Simulation(nprocs=4)
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


def test_run_report_is_one_pass_over_the_rows(monkeypatch):
    """The report reads ``Trace.rows`` directly: a per-rank
    ``Trace.filter`` made it O(nprocs x rows)."""
    results = [run_ring(rank=2, probe="post_recv", hit=1)]
    for name in ("fig6", "fig8", "farm"):
        sim, main, _nprocs = make_scenario(name)
        results.append(sim.run(main, on_deadlock="return"))

    def refuse(*_args, **_kwargs):
        raise AssertionError("run_report must not filter the trace")

    monkeypatch.setattr(Trace, "filter", refuse)
    for result in results:
        assert run_report(result).ranks


def test_metrics_alias_runs_traced():
    """``metrics=True`` turns the trace on even against
    ``trace_enabled=False``, and the report then holds every agreement
    instance: an instrumented benchmark run reads ``consensus``."""
    sim = Simulation(nprocs=6, trace_enabled=False, metrics=True)
    sim.kill(3, at_time=4e-6)
    cfg = RingConfig(
        max_iter=3, variant=RingVariant.FT_MARKER,
        termination=Termination.VALIDATE_ALL,
    )
    result = sim.run(make_ring_main(cfg), on_deadlock="return")
    assert result.trace.enabled and len(result.trace) > 0
    rep = run_report(result, 6)
    assert rep.consensus
    assert {how for *_x, how in rep.consensus} <= {
        f"coordinator:{r}" for r in range(6)
    }


def test_a_capped_trace_reads_unknown_times():
    """A trace that dropped its oldest rows no longer holds rank 2's
    ``FAILURE`` row or the receives that were waited on: the report
    says the times are unknown instead of reading the rows kept."""
    sim, main, nprocs = make_scenario("fig7", trace_cap=10)
    result = sim.run(main, on_deadlock="return")
    assert result.trace.dropped > 0
    rep = run_report(result, nprocs)
    assert rep.dropped == result.trace.dropped
    assert [r.state for r in rep.ranks] == ["done", "done", "failed", "done"]
    for r in rep.ranks:
        assert r.busy_s is None and r.blocked_s is None and r.failed_s is None
    lines = rep.format().splitlines()
    assert lines[4].split() == ["2", "failed", "?", "?", "?"]
    assert lines[6] == (
        f"trace capped: {rep.dropped} older row(s) dropped, so the busy, "
        "blocked and failed times are unknown (?)"
    )
    sim, main, nprocs = make_scenario("fig7")
    whole = run_report(sim.run(main, on_deadlock="return"), nprocs)
    assert whole.dropped == 0 and whole.ranks[2].failed_s > 0.0
    assert "trace capped" not in whole.format()


def test_capped_summary_through_the_cli(capsys):
    from repro.cli import main

    assert main(["trace", "fig7", "--trace-cap", "10", "--summary"]) == 0
    err = capsys.readouterr().err
    assert "   2  failed            ?            ?           ?" in err
    assert "older row(s) dropped" in err
