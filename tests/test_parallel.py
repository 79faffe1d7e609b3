"""The process-pool sweep engine: runners, job model, and the
serial-vs-parallel equivalence guarantee.

The equivalence contract under test (docs/parallel.md): the same
campaign or exploration sweep produces an **identical** report — same
run order, kills, violations, summaries, formatted text — whether it
executes serially in-process, on one forked worker, or on several.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

import pytest

from repro.faults import explore, run_campaign
from repro.parallel import (
    FleetRunner,
    RingScenario,
    SerialRunner,
    StandardRingInvariants,
    SweepError,
    make_runner,
    resolve_invariants,
)
from repro.faults.campaign import CampaignJob
from repro.parallel.remote import _WorkerConn
from tests.conftest import (
    RING_INVARIANTS as INVARIANTS,
    RING_SCENARIO as SCENARIO,
    campaign_fields as _campaign_fields,
    outcome_fields as _outcome_fields,
)

# ---------------------------------------------------------------------------
# Picklable fixture jobs (module level: they must cross a process boundary).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquareJob:
    x: int

    def __call__(self) -> int:
        return self.x * self.x


@dataclass(frozen=True)
class PidJob:
    def __call__(self) -> int:
        return os.getpid()


@dataclass(frozen=True)
class BoomJob:
    def __call__(self) -> None:
        raise ValueError("boom")


@dataclass(frozen=True)
class WedgeJob:
    """Simulates a wedged worker: never finishes within any sane budget."""

    def __call__(self) -> None:
        time.sleep(600)


@dataclass(frozen=True)
class DieJob:
    """Simulates a crashed worker process (its connection closes)."""

    def __call__(self) -> None:
        os._exit(13)


_SEND = _WorkerConn.send


def _fail_kth_send(monkeypatch, k: int) -> None:
    """Make the *k*-th ``run`` frame sent in the sweep (counted across
    rounds) fail as a closed connection does: a worker lost while
    chunks were still being dispatched, placed by operation count
    instead of by timing."""
    sends = 0

    def send(conn, obj):
        nonlocal sends
        sends += 1
        if sends == k:
            raise BrokenPipeError("the worker's connection closed")
        return _SEND(conn, obj)

    monkeypatch.setattr(_WorkerConn, "send", send)


def _campaign(runner=None, workers=None, **kw):
    return run_campaign(
        SCENARIO,
        seeds=range(6),
        horizon=8e-6,
        invariants=INVARIANTS,
        runner=runner,
        workers=workers,
        **kw,
    )


def _explore(runner=None, workers=None):
    return explore(
        SCENARIO,
        invariants=INVARIANTS,
        ranks=[1, 2, 3],
        runner=runner,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# Runner semantics
# ---------------------------------------------------------------------------


class TestRunners:
    def test_serial_runner_submission_order(self):
        jobs = [SquareJob(x) for x in (3, 1, 2)]
        assert SerialRunner().run(jobs) == [9, 1, 4]

    def test_pool_results_in_submission_order(self):
        jobs = [SquareJob(x) for x in range(10)]
        got = FleetRunner(workers=2, chunk_size=2).run(jobs)
        assert got == [x * x for x in range(10)]

    def test_pool_actually_crosses_process_boundary(self):
        pids = FleetRunner(workers=1).run([PidJob(), PidJob()])
        assert all(pid != os.getpid() for pid in pids)

    def test_empty_batch(self):
        assert SerialRunner().run([]) == []
        assert FleetRunner(workers=2).run([]) == []

    def test_map_helper(self):
        assert SerialRunner().map(_double, [1, 2, 3]) == [2, 4, 6]
        assert FleetRunner(workers=2).map(_double, [1, 2, 3]) == [2, 4, 6]

    def test_make_runner_dispatch(self):
        assert isinstance(make_runner(None), SerialRunner)
        assert isinstance(make_runner(1), SerialRunner)
        pooled = make_runner(3, timeout=1.0, retries=2)
        assert isinstance(pooled, FleetRunner)
        assert pooled.workers == 3
        assert pooled.timeout == 1.0
        assert pooled.retries == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FleetRunner(workers=0)
        with pytest.raises(ValueError):
            FleetRunner(workers=2, chunk_size=0)
        with pytest.raises(ValueError):
            FleetRunner(workers=2, retries=-1)

    def test_application_error_propagates_and_is_not_retried(self):
        jobs = [SquareJob(1), BoomJob()]
        with pytest.raises(ValueError, match="boom"):
            FleetRunner(workers=2, chunk_size=1, retries=3).run(jobs)

    def test_wedged_worker_times_out_with_sweep_error(self):
        runner = FleetRunner(
            workers=2, chunk_size=1, timeout=0.5, retries=0
        )
        with pytest.raises(SweepError) as exc_info:
            runner.run([SquareJob(2), WedgeJob()])
        assert exc_info.value.indices == [1]

    def test_crashed_worker_is_retried_then_reported(self):
        runner = FleetRunner(workers=1, chunk_size=1, retries=1)
        with pytest.raises(SweepError):
            runner.run([DieJob()])

    def test_crashed_worker_does_not_poison_other_jobs(self):
        # The good jobs lost to the broken pool are retried and complete.
        runner = FleetRunner(workers=1, chunk_size=1, retries=1)
        with pytest.raises(SweepError) as exc_info:
            runner.run([SquareJob(5), DieJob(), SquareJob(7)])
        assert exc_info.value.indices == [1]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pool_breaking_at_the_kth_submit_is_a_lost_chunk(
        self, k, monkeypatch
    ):
        # Chunks [0, 1], [2, 3], [4] on one worker: the k-th send loses
        # the worker, so chunk k and every later one never reach it and
        # are lost, while the chunks sent before it complete.
        jobs = [SquareJob(i) for i in range(5)]
        chunks = [[0, 1], [2, 3], [4]]
        _fail_kth_send(monkeypatch, k)
        runner = FleetRunner(workers=1, chunk_size=2, retries=1)
        assert runner.run(jobs) == [i * i for i in range(5)]
        assert runner.job_retries == [
            int(c >= k - 1) for c, part in enumerate(chunks) for _ in part
        ]
        _fail_kth_send(monkeypatch, k)
        runner = FleetRunner(workers=1, chunk_size=2, retries=0)
        with pytest.raises(SweepError) as exc_info:
            runner.run(jobs)
        assert exc_info.value.indices == chunks[k - 1]

    @pytest.mark.parametrize("case", ["clean", "timed_out", "crashed"])
    def test_no_worker_outlives_its_round(self, case):
        # Every forked worker is reaped when its round ends, however it
        # ends.  waitpid (never -1: fixtures own other children) runs
        # before active_children(), which would reap a leftover itself.
        if case == "clean":
            runner = FleetRunner(workers=2, chunk_size=1)
            assert runner.run([SquareJob(x) for x in range(4)]) == [0, 1, 4, 9]
        else:
            runner = FleetRunner(
                workers=2, chunk_size=1, timeout=0.5, retries=0
            )
            job = WedgeJob() if case == "timed_out" else DieJob()
            with pytest.raises(SweepError):
                runner.run([SquareJob(2), job])
        pids = [row["pid"] for row in runner.worker_stats()]
        assert len(pids) == 2 and None not in pids
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert multiprocessing.active_children() == []

    def test_job_retries_not_shared_between_instances(self):
        # Regression: job_retries used to be a mutable *class* attribute,
        # so every runner aliased one list and a run on one instance
        # clobbered another's telemetry counts.
        for make in (SerialRunner, lambda: FleetRunner(workers=1)):
            a, b = make(), make()
            assert a.job_retries is not b.job_retries
            a.run([SquareJob(2)])
            assert a.job_retries == [0]
            assert b.job_retries == []
        assert SerialRunner().job_retries is not FleetRunner(
            workers=1
        ).job_retries


def _double(x: int) -> int:
    return 2 * x


# ---------------------------------------------------------------------------
# Job model
# ---------------------------------------------------------------------------


class TestJobModel:
    def test_sim_job_runs_and_reduces(self):
        job = CampaignJob(
            factory=SCENARIO, seed=1, horizon=8e-6, invariants=INVARIANTS
        )
        run = job()
        assert run.result is None and len(run.kills) == 1
        # The same job crosses a process boundary intact.
        assert FleetRunner(workers=1).run([job]) == [run]

    def test_invariant_factory_resolves(self):
        invs = resolve_invariants(INVARIANTS)
        assert len(invs) == 6
        assert resolve_invariants(None) == ()
        assert resolve_invariants([_no_op_invariant]) == (_no_op_invariant,)

    def test_ring_scenario_is_picklable_and_deterministic(self):
        import pickle

        spec = pickle.loads(pickle.dumps(SCENARIO))
        sim_a, main_a = spec()
        sim_b, main_b = SCENARIO()
        ra = sim_a.run(main_a, on_deadlock="return")
        rb = sim_b.run(main_b, on_deadlock="return")
        assert ra.trace.keys() == rb.trace.keys()


def _no_op_invariant(result):
    return None


# ---------------------------------------------------------------------------
# Serial vs parallel equivalence (the satellite's core contract)
# ---------------------------------------------------------------------------


class TestEquivalence:
    def test_campaign_identical_across_runners(self):
        serial = _campaign()
        pooled_1 = _campaign(runner=FleetRunner(workers=1))
        pooled_4 = _campaign(runner=FleetRunner(workers=4))
        assert _campaign_fields(serial) == _campaign_fields(pooled_1)
        assert _campaign_fields(serial) == _campaign_fields(pooled_4)
        assert serial.summary() == pooled_1.summary() == pooled_4.summary()
        assert serial.format() == pooled_1.format() == pooled_4.format()

    def test_explorer_identical_across_runners(self):
        serial = _explore()
        pooled_1 = _explore(runner=FleetRunner(workers=1))
        pooled_4 = _explore(runner=FleetRunner(workers=4))
        assert serial.reference_windows == pooled_1.reference_windows
        assert serial.reference_windows == pooled_4.reference_windows
        assert _outcome_fields(serial) == _outcome_fields(pooled_1)
        assert _outcome_fields(serial) == _outcome_fields(pooled_4)
        assert serial.summary() == pooled_1.summary() == pooled_4.summary()
        assert serial.format() == pooled_1.format() == pooled_4.format()

    def test_campaign_workers_argument(self):
        # The public `workers=` path (what the CLI uses) matches serial.
        serial = _campaign()
        pooled = _campaign(workers=2)
        assert serial.format() == pooled.format()
        assert _campaign_fields(serial) == _campaign_fields(pooled)

    def test_failure_reports_survive_the_boundary(self):
        # A naive-ring sweep produces hangs; the hang classification and
        # messages must come back from workers identical to serial.
        naive = RingScenario(nprocs=4, iters=3, variant="naive",
                             termination="root_bcast")
        invs = StandardRingInvariants(3, 4)
        serial = explore(naive, invariants=invs, ranks=[1, 2, 3],
                         probes=["post_recv"])
        pooled = explore(naive, invariants=invs, ranks=[1, 2, 3],
                         probes=["post_recv"], workers=2)
        assert serial.summary()["hangs"] > 0
        assert serial.format() == pooled.format()
        assert _outcome_fields(serial) == _outcome_fields(pooled)

    def test_keep_results_crosses_the_boundary(self):
        # keep_results ships full SimulationResults (traces, deadlock
        # exceptions) home from the workers; they must pickle faithfully.
        naive = RingScenario(nprocs=4, iters=3, variant="naive",
                             termination="root_bcast")
        serial = explore(naive, ranks=[1], probes=["post_recv"],
                         keep_results=True)
        pooled = explore(naive, ranks=[1], probes=["post_recv"],
                         keep_results=True, workers=2)
        for o_s, o_p in zip(serial.outcomes, pooled.outcomes):
            assert o_p.result is not None
            assert o_s.result.trace.keys() == o_p.result.trace.keys()
            if o_s.result.deadlock is not None:
                assert o_p.result.deadlock is not None
                assert o_p.result.deadlock.blocked == o_s.result.deadlock.blocked


class TestCampaignCli:
    def test_campaign_command_serial(self, capsys):
        from repro.cli import main

        rc = main(["campaign", "--nprocs", "4", "--iters", "3",
                   "--runs", "5", "--horizon", "8e-6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "campaign: 5 runs, 5 ok" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--nprocs", "4", "--iters", "3", "--runs", "5",
             "--horizon", "8e-6"],
            ["--nprocs", "6", "--iters", "4", "--runs", "20",
             "--horizon", "1e-5"],
        ],
        ids=["n4-runs5", "n6-runs20"],
    )
    def test_campaign_command_workers_match_serial(self, argv, capsys):
        from repro.cli import main

        rc = main(["campaign", *argv])
        serial_out = capsys.readouterr().out
        rc_w = main(["campaign", *argv, "--workers", "2"])
        pooled_out = capsys.readouterr().out
        assert rc == rc_w == 0
        assert serial_out == pooled_out

    def test_explore_command_workers(self, capsys):
        from repro.cli import main

        rc = main(["explore", "--nprocs", "4", "--iters", "3"])
        serial_out = capsys.readouterr().out
        rc_w = main(["explore", "--nprocs", "4", "--iters", "3",
                     "--workers", "2"])
        out = capsys.readouterr().out
        assert rc == rc_w == 0
        assert "explored" in out
        assert out == serial_out
