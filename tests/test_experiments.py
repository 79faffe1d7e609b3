"""The paper's evaluation, section by section: every EXPERIMENTS.md table.

Each ``TestX`` class is one ``EXP-X`` section of EXPERIMENTS.md and
asserts the literal rows that section prints — counts exactly, virtual
times to the printed precision, the heat L2 error to 4 digits — so a
table cannot drift from the code that produces it.  Every single ring
run goes through :func:`ring`, which runs it once per module: the Fig. 2
runs behind EXP-OV, the Fig. 6 windows behind EXP-F7 and EXP-ABL and
the Fig. 8 scenario behind EXP-F10 and EXP-ABL are shared, not
repeated.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.analysis import message_stats
from repro.apps import (
    AbftConfig,
    AllreduceConfig,
    FarmConfig,
    HeatConfig,
    expected_results,
    expected_sum,
    make_abft_main,
    make_allreduce_main,
    make_farm_mains,
    make_heat_main,
    reference_result,
)
from repro.core import (
    RingConfig,
    RingVariant,
    Termination,
    get_current_root,
    make_ring_main,
    make_rootft_main,
    to_left_of,
    to_right_of,
)
from repro.core.messages import TAG_DONE
from repro.faults import KillAtProbe, explore
from repro.ft import comm_validate_all
from repro.parallel import RingScenario, StandardRingInvariants
from repro.simmpi import ErrorHandler, TraceKind
from tests.conftest import run_sim

BASELINE = RingVariant.BASELINE
NAIVE = RingVariant.NAIVE
NO_MARKER = RingVariant.FT_NO_MARKER
MARKER = RingVariant.FT_MARKER
TAGGED = RingVariant.FT_TAGGED
NONE = Termination.NONE
BCAST = Termination.ROOT_BCAST
VALIDATE = Termination.VALIDATE_ALL

#: Virtual seconds as EXPERIMENTS.md prints them.
sci = "{:.3e}".format


def us(seconds: float) -> str:
    return f"{seconds * 1e6:.3f}"


@functools.cache
def ring(n, iters, variant=MARKER, term=BCAST, *, kills=(), latency=0.0,
         rootft=False):
    """One ring run, deadlocks returned; *kills* are ``(rank, probe, hit)``."""
    cfg = RingConfig(max_iter=iters, variant=variant, termination=term)
    main = make_rootft_main(cfg) if rootft else make_ring_main(cfg)
    return run_sim(
        main, n,
        injectors=[KillAtProbe(rank=r, probe=p, hit=h) for r, p, h in kills],
        detection_latency=latency,
        on_deadlock="return",
    )


@pytest.fixture(autouse=True, scope="module")
def _release_runs():
    yield
    ring.cache_clear()  # the cached results hold their traces


def markers(result) -> list[int]:
    return [m for m, _v in result.value(0)["root_completions"]]


def total(result, counter: str) -> int:
    return sum(result.value(i)[counter] for i in result.completed_ranks)


def survivors_finished(result, n: int) -> bool:
    return set(result.completed_ranks) == set(range(n)) - result.failed_ranks


def kill_at_times(failed):
    """Stagger kills inside every victim's compute window (< 1.0)."""
    return [(rank, 0.01 * (i + 1)) for i, rank in enumerate(failed)]


class TestF2:
    SIZES = (4, 8, 16, 32)

    def test_failure_free(self):
        rows = []
        for n in self.SIZES:
            r = ring(n, 10, BASELINE)
            final_value = r.value(0)["root_completions"][-1][1]
            rows.append((n, final_value, sci(r.final_time / 10),
                         sci(r.final_time)))
        assert rows == [
            (4, 4, "5.804e-06", "5.804e-05"),
            (8, 8, "1.163e-05", "1.163e-04"),
            (16, 16, "2.328e-05", "2.328e-04"),
            (32, 32, "4.657e-05", "4.657e-04"),
        ]

    def test_single_failure_aborts(self):
        for n in self.SIZES:
            cfg = RingConfig(max_iter=50, variant=BASELINE,
                             work_per_iter=1e-6)
            r = run_sim(make_ring_main(cfg), n, kills=[(n // 2, 5e-6)],
                        on_deadlock="return")
            assert (r.aborted is not None, r.failed_ranks) == (True, {n // 2})


class TestF4:
    N = 12

    def _run(self, failed):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank in failed:
                await mpi.compute(1.0)
                return None
            await mpi.compute(2.0)
            return (to_right_of(comm, comm.rank), to_left_of(comm, comm.rank))

        return run_sim(main, self.N, kills=kill_at_times(failed),
                       on_deadlock="return")

    def test_skip_patterns(self):
        patterns = {
            "one failure": [5],
            "pair adjacent": [5, 6],
            "run of four": [3, 4, 5, 6],
            "alternating": [1, 3, 5, 7, 9, 11],
            "all but two": [r for r in range(self.N) if r not in (0, 7)],
        }
        rows = []
        for name, failed in patterns.items():
            r = self._run(failed)
            alive = sorted(set(range(self.N)) - set(failed))
            closed = all(
                r.value(rank) == (alive[(i + 1) % len(alive)],
                                  alive[(i - 1) % len(alive)])
                for i, rank in enumerate(alive)
            )
            rows.append((name, len(failed), len(alive), closed))
        assert rows == [
            ("one failure", 1, 11, True),
            ("pair adjacent", 2, 10, True),
            ("run of four", 4, 8, True),
            ("alternating", 6, 6, True),
            ("all but two", 10, 2, True),
        ]

    def test_alone_aborts(self):
        assert self._run(list(range(1, self.N))).aborted is not None


class TestF5:
    def test_retarget_k_failures(self):
        rows = []
        for k in (1, 2, 3, 4):
            r = ring(8, 4, MARKER, VALIDATE, kills=tuple(
                (2 + j, "post_send", 1) for j in range(k)
            ))
            rep1 = r.value(1)  # the rank immediately left of the dead run
            rows.append((k, rep1["right"], rep1["right_retargets"],
                         markers(r) == [0, 1, 2, 3], r.hung))
        assert rows == [
            (1, 3, 1, True, False),
            (2, 4, 2, True, False),
            (3, 5, 3, True, False),
            (4, 6, 4, True, False),
        ]


#: Every control-loss window of the 4-rank, 4-iteration ring.
WINDOWS = [(rank, hit) for rank in (1, 2, 3) for hit in (1, 2, 3, 4)]


def control_loss(variant, rank, hit):
    """The Fig. 6 window: *rank* dies after receiving, before forwarding."""
    return ring(4, 4, variant, kills=((rank, "post_recv", hit),))


class TestF6:
    def test_hang_rate(self):
        rows, ran_through = [], {}
        for variant in (NAIVE, MARKER):
            hung = [w for w in WINDOWS if control_loss(variant, *w).hung]
            ran_through[variant] = [w for w in WINDOWS if w not in hung]
            rows.append((variant.value, len(WINDOWS), len(hung),
                         f"{100 * len(hung) / len(WINDOWS):.0f}%"))
        assert rows == [("naive", 12, 10, "83%"), ("ft_marker", 12, 0, "0%")]
        # The two naive survivors are final-iteration windows.
        assert ran_through[NAIVE] == [(2, 4), (3, 4)]

    def test_blocked_parties(self):
        # The figure's window: P2 dies holding iteration 1 and every
        # survivor is stuck.
        r = control_loss(NAIVE, 2, 2)
        assert (r.hung, sci(r.final_time),
                sorted(rank for rank, _ in r.deadlock.blocked)) == (
            True, "8.736e-06", [0, 1, 3]
        )


class TestF7:
    def test_recovery(self):
        for victim in (1, 2, 3):
            for hit in (1, 2, 3):
                r = control_loss(MARKER, victim, hit)
                row = (not r.hung, markers(r) == [0, 1, 2, 3],
                       total(r, "resends"))
                assert row == (True, True, 1), (victim, hit)

    def test_recovery_latency(self):
        clean = ring(4, 6)
        failed = ring(4, 6, kills=((2, "post_recv", 3),))
        assert (sci(clean.final_time), sci(failed.final_time),
                f"{failed.final_time / clean.final_time:.2f}") == (
            "3.658e-05", "3.201e-05", "0.88"
        )


LATENCIES = (0.0, 5e-7, 1e-6, 2e-6, 3e-6)


def fig8(variant, latency, term=BCAST):
    """The Fig. 8 scenario: rank 2 dies after forwarding iteration 1."""
    return ring(4, 4, variant, term, kills=((2, "post_send", 2),),
                latency=latency)


class TestF8:
    def test_duplicates_vs_detection_latency(self):
        rows = []
        for lat in LATENCIES:
            got = markers(fig8(NO_MARKER, lat))
            rows.append((lat, got, len(got) - len(set(got)), 3 not in got))
        assert rows == [
            (0.0, [0, 1, 2, 3], 0, False),
            (5e-7, [0, 1, 2, 3], 0, False),
            (1e-6, [0, 1, 2, 3], 0, False),
            (2e-6, [0, 1, 1, 2], 1, True),
            (3e-6, [0, 1, 1, 2], 1, True),
        ]

    def test_canonical_sequence(self):
        # Rank 1 resends iteration 1; rank 3 forwards it a second time.
        r = fig8(NO_MARKER, 2e-6)
        assert (r.value(0)["root_completions"], r.value(1)["resends"],
                r.value(3)["forwards"]) == (
            [(0, 4), (1, 4), (1, 3), (2, 3)], 1, 4
        )


class TestF10:
    def test_marker_dedup(self):
        rows = []
        for lat in LATENCIES:
            r = fig8(MARKER, lat)
            rows.append((lat, markers(r), total(r, "duplicates_discarded")))
        assert rows == [
            (0.0, [0, 1, 2, 3], 0),
            (5e-7, [0, 1, 2, 3], 0),
            (1e-6, [0, 1, 2, 3], 0),
            (2e-6, [0, 1, 2, 3], 1),
            (3e-6, [0, 1, 2, 3], 1),
        ]

    def test_vs_fig8_side_by_side(self):
        assert [markers(fig8(v, 2e-6)) for v in (NO_MARKER, MARKER)] == [
            [0, 1, 1, 2], [0, 1, 2, 3]
        ]


def nonroot_failures(n, nfail, term):
    return ring(n, 3, MARKER, term, kills=tuple(
        (1 + 2 * j, "post_recv", 2) for j in range(nfail)
    ))


def root_dies_at_termination(n, rootft=False):
    return ring(n, 3, kills=((0, "pre_termination", 1),), rootft=rootft)


class TestF11:
    def test_nonroot_failures(self):
        rows = []
        for n in (4, 8, 12):
            for nfail in (0, 1, 2):
                r = nonroot_failures(n, nfail, BCAST)
                rows.append((
                    n, len(r.failed_ranks), not r.hung,
                    survivors_finished(r, n),
                    r.trace.count(TraceKind.SEND_POST, tag=TAG_DONE),
                ))
        # T_D reaches every *reachable* rank: sends to known-dead ranks
        # fail locally ("Ignore fail.") and never hit the wire.
        assert rows == [
            (4, 0, True, True, 3), (4, 1, True, True, 2),
            (4, 2, True, True, 1),
            (8, 0, True, True, 7), (8, 1, True, True, 6),
            (8, 2, True, True, 5),
            (12, 0, True, True, 11), (12, 1, True, True, 10),
            (12, 2, True, True, 9),
        ]

    def test_root_death_aborts(self):
        for n in (4, 8):
            assert root_dies_at_termination(n).aborted is not None


class TestF12:
    N = 10

    def _elect(self, failed):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank in failed:
                await mpi.compute(1.0)
                return None
            await mpi.compute(2.0)
            return get_current_root(comm)

        return run_sim(main, self.N, kills=kill_at_times(failed),
                       on_deadlock="return")

    def test_lowest_alive_wins(self):
        cases = {
            "no failures": [],
            "root only": [0],
            "prefix of 3": [0, 1, 2],
            "scattered": [0, 3, 7],
            "all but highest": list(range(self.N - 1)),
        }
        elected = {}
        for name, failed in cases.items():
            r = self._elect(failed)
            elected[name] = {r.value(i) for i in r.completed_ranks}
        assert elected == {
            "no failures": {0},
            "root only": {1},
            "prefix of 3": {3},
            "scattered": {1},
            "all but highest": {9},
        }

    def test_election_is_local(self):
        r = self._elect([0, 1])
        assert r.trace.count(TraceKind.SEND_POST) == 0


class TestF13:
    def test_nonroot_failures(self):
        for n in (4, 8, 12):
            for nfail in (0, 1, 2):
                r = nonroot_failures(n, nfail, VALIDATE)
                assert (not r.hung, survivors_finished(r, n)) == (True, True)

    def test_root_failure_with_rootft(self):
        rows = []
        for window, hit in (("root_post_send", 2), ("root_post_recv", 2),
                            ("pre_termination", 1)):
            r = ring(5, 4, kills=((0, window, hit),), rootft=True)
            done = [m for i in r.completed_ranks
                    for m, _v in r.value(i)["root_completions"]]
            # Full progress: the last iteration completed at a surviving
            # root, or every survivor forwarded all 4 markers (its record
            # died with the old root — §III-D semantics).
            progressed = max(done, default=-1) == 3 or all(
                r.value(i)["cur_marker"] == 4 for i in r.completed_ranks
            )
            rows.append((f"{window}#{hit}", not r.hung, r.aborted is None,
                         progressed))
        assert rows == [
            ("root_post_send#2", True, True, True),
            ("root_post_recv#2", True, True, True),
            ("pre_termination#1", True, True, True),
        ]

    def test_vs_fig11_contract(self):
        def outcome(r):
            return ("aborted" if r.aborted else
                    "hung" if r.hung else "ran through")

        assert [outcome(root_dies_at_termination(4, rootft=rootft))
                for rootft in (False, True)] == ["aborted", "ran through"]


class TestOV:
    SIZES = (4, 8, 16, 32)

    def test_ft_vs_baseline(self):
        rows = []
        for n in self.SIZES:
            base, ft = ring(n, 10, BASELINE), ring(n, 10, MARKER, NONE)
            rows.append((n, us(base.final_time), us(ft.final_time),
                         f"{ft.final_time / base.final_time:.2f}",
                         message_stats(base).sends, message_stats(ft).sends))
        assert rows == [
            (4, "58.040", "58.040", "1.00", 40, 40),
            (8, "116.280", "116.280", "1.00", 80, 80),
            (16, "232.760", "232.760", "1.00", 160, 160),
            (32, "465.720", "465.720", "1.00", 320, 320),
        ]

    def test_termination_schemes(self):
        rows = []
        for n in self.SIZES:
            runs = [ring(n, 10, MARKER, term)
                    for term in (NONE, BCAST, VALIDATE)]
            rows.append((n, [us(r.final_time) for r in runs],
                         [message_stats(r).sends for r in runs]))
        # The root broadcast adds n-1 messages, the agreement 2(n-1).
        assert rows == [
            (4, ["58.040", "59.872", "59.543"], [40, 43, 46]),
            (8, ["116.280", "118.912", "117.783"], [80, 87, 94]),
            (16, ["232.760", "236.992", "234.263"], [160, 175, 190]),
            (32, ["465.720", "473.152", "467.223"], [320, 351, 382]),
        ]


def sweep(variant, rootft=False, pairs=False):
    """Every window (or window pair) of the 4-rank, 3-iteration ring, run
    against the full invariant battery; only *rootft* sweeps the root."""
    return explore(
        RingScenario(nprocs=4, iters=3, variant=variant.value, rootft=rootft),
        invariants=StandardRingInvariants(3, 4, allow_root_loss=rootft),
        ranks=None if rootft else [1, 2, 3],
        pairs=pairs,
    ).summary()


class TestSWEEP:
    def test_single_failures(self):
        rows = []
        for variant, rootft in ((NAIVE, False), (NO_MARKER, False),
                                (MARKER, False), (TAGGED, False),
                                (MARKER, True)):
            s = sweep(variant, rootft)
            rows.append(("rootft" if rootft else variant.value, s["windows"],
                         s["ok"], s["hangs"], s["violations"]))
        assert rows == [
            ("naive", 21, 6, 15, 15),
            ("ft_no_marker", 21, 21, 0, 0),
            ("ft_marker", 21, 21, 0, 0),
            ("ft_tagged", 21, 21, 0, 0),
            ("rootft", 28, 28, 0, 0),
        ]

    def test_double_failures(self):
        rows = []
        for rootft in (False, True):
            s = sweep(MARKER, rootft, pairs=True)
            rows.append(("rootft" if rootft else "ft_marker", s["runs"],
                         s["ok"], s["hangs"], s["violations"]))
        assert rows == [("ft_marker", 168, 168, 0, 0),
                        ("rootft", 322, 322, 0, 0)]


def validate_run(n, mode, kills=()):
    async def main(mpi):
        comm = mpi.comm_world
        comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
        if comm.rank in {rank for rank, _t in kills}:
            await mpi.compute(1.0)
            return None
        return await comm_validate_all(comm, mode=mode)

    return run_sim(main, n, kills=kills, on_deadlock="return")


class TestVAL:
    MODES = ("coordinator", "full")

    def test_message_cost(self):
        rows = []
        for n in (2, 4, 8, 16):
            for mode in self.MODES:
                r = validate_run(n, mode)
                rows.append((n, mode, r.trace.count(TraceKind.SEND_POST),
                             sci(r.final_time)))
        # One contribution and one DECIDE per non-coordinator member:
        # 2(n-1); the FloodSet oracle floods n rounds all-to-all: n²(n-1).
        assert rows == [
            (2, "coordinator", 2, "2.559e-06"),
            (2, "full", 4, "2.556e-06"),
            (4, "coordinator", 6, "2.559e-06"),
            (4, "full", 48, "5.112e-06"),
            (8, "coordinator", 14, "2.559e-06"),
            (8, "full", 448, "1.022e-05"),
            (16, "coordinator", 30, "2.559e-06"),
            (16, "full", 3840, "2.045e-05"),
        ]

    def test_resilience(self):
        for nfail in (1, 2, 3, 5):
            for mode in self.MODES:
                kills = [(i, 1e-7 * (i + 1)) for i in range(1, 1 + nfail)]
                r = validate_run(6, mode, kills)
                counts = {v for v in r.values().values() if v is not None}
                assert (r.hung, counts) == (False, {0}), (nfail, mode)

    def test_accumulates(self):
        async def main(mpi):
            comm = mpi.comm_world
            comm.set_errhandler(ErrorHandler.ERRORS_RETURN)
            if comm.rank in (1, 2):
                await mpi.compute(1.0 if comm.rank == 1 else 3.0)
                return None
            await mpi.compute(2.0)
            first = await comm_validate_all(comm)
            await mpi.compute(2.0)
            return (first, await comm_validate_all(comm))

        r = run_sim(main, 5, kills=[(1, 0.5), (2, 2.5)], on_deadlock="return")
        assert r.value(0) == (1, 2)


class TestABL:
    def test_dedup_scheme(self):
        rows = []
        for variant in (MARKER, TAGGED):
            r = fig8(variant, 2e-6)
            rows.append((markers(r) == [0, 1, 2, 3],
                         total(r, "duplicates_discarded"),
                         message_stats(r).sends))
        assert rows == [(True, 1, 17), (True, 1, 17)]

    def test_detection_latency(self):
        rows = []
        for lat in (0.0, 1e-6, 2e-6, 4e-6):
            r = fig8(MARKER, lat, VALIDATE)
            rows.append((lat, not r.hung, total(r, "resends"),
                         total(r, "duplicates_discarded"),
                         message_stats(r).drops, sci(r.final_time)))
        # Slow detection shifts the repair from preemption to dedup.
        assert rows == [
            (0.0, True, 1, 0, 0, "2.190e-05"),
            (1e-6, True, 1, 0, 0, "2.290e-05"),
            (2e-6, True, 1, 1, 0, "2.170e-05"),
            (4e-6, True, 1, 0, 1, "2.190e-05"),
        ]

    def test_watchdog(self):
        # Without its watchdog Irecv the Fig. 9 receive is the naive one.
        rows = [(label, len(WINDOWS),
                 sum(control_loss(variant, *w).hung for w in WINDOWS))
                for label, variant in (("with watchdog", MARKER),
                                       ("without watchdog", NAIVE))]
        assert rows == [("with watchdog", 12, 0), ("without watchdog", 12, 10)]

    def test_ibarrier_termination(self):
        """§III-C's rejected ibarrier-retry termination: fine failure-free,
        a consensus fallback after a mid-loop failure, and a proven hang
        when a failure splits the ranks between the two paths."""
        rows = []
        for kills in ((), ((2, "post_recv", 2),),
                      ((2, "pre_termination", 1),)):
            r = ring(4, 4, MARKER, Termination.IBARRIER, kills=kills)
            paths = ("(split)" if r.hung else
                     {r.value(i)["termination_path"]
                      for i in r.completed_ranks})
            rows.append((not r.hung, paths, message_stats(r).sends))
        assert rows == [
            (True, {"ibarrier"}, 28),
            (True, {"fallback"}, 18),
            (False, "(split)", 19),
        ]


class TestAPPS:
    N = 6
    HEAT_ROWS = [
        (0, True, 6, "0.0000"),
        (1, True, 5, "0.2343"),
        (2, True, 4, "0.2345"),
    ]

    def heat_rows(self):
        cfg = HeatConfig(cells_per_rank=8, steps=20)

        def fields(result):
            return {i: np.array(result.value(i)["field"])
                    for i in result.completed_ranks}

        ref = fields(run_sim(make_heat_main(cfg), self.N))
        rows = []
        for kills in ([], [(2, 8.5e-6)], [(2, 8.5e-6), (4, 14.5e-6)]):
            r = run_sim(make_heat_main(cfg), self.N, kills=kills,
                        on_deadlock="return")
            got = fields(r)
            err = np.sqrt(sum(np.sum((f - ref[i]) ** 2)
                              for i, f in got.items()))
            rows.append((len(kills), not r.hung, len(got), f"{err:.4f}"))
        return rows

    def test_heat_degradation(self):
        assert self.heat_rows() == self.HEAT_ROWS

    def test_allreduce_contributors(self):
        rows = []
        for nfail in (0, 1, 2):
            r = run_sim(
                make_allreduce_main(AllreduceConfig(vector_len=8)), self.N,
                injectors=[KillAtProbe(rank=2 + j, probe="post_recv", hit=1)
                           for j in range(nfail)],
                on_deadlock="return",
            )
            recs = [r.value(i)["allreduce"][0] for i in r.completed_ranks]
            contributors = recs[0]["contributors"]
            rows.append((
                not r.hung, len(contributors),
                all(rec["sum"] == recs[0]["sum"] for rec in recs),
                recs[0]["sum"] == expected_sum(contributors, 8),
            ))
        assert rows == [(True, 6, True, True), (True, 5, True, True),
                        (True, 4, True, True)]

    def test_farm_reassignment(self):
        cfg = FarmConfig(num_tasks=18, work_per_task=1e-6)
        rows = []
        for nfail in (0, 1, 2):
            r = run_sim(
                make_farm_mains(cfg, self.N), self.N,
                injectors=[KillAtProbe(rank=1 + j, probe="task_computed",
                                       hit=2) for j in range(nfail)],
                on_deadlock="return",
            )
            rep = r.value(0)
            rows.append((not r.hung, rep["results"] == expected_results(cfg),
                         rep["reassignments"], sci(r.final_time)))
        # Losing workers costs time, never answers.
        assert rows == [
            (True, True, 0, "1.812e-05"),
            (True, True, 1, "2.163e-05"),
            (True, True, 2, "2.555e-05"),
        ]

    def test_abft_recovery(self):
        cfg = AbftConfig(iterations=5)
        nprocs = 5  # 4 compute + 1 parity
        scenarios = {
            "failure-free": [],
            "1 compute dies": [(2, 3)],
            "parity dies": [(4, 3)],
            "2 compute die": [(1, 3), (2, 3)],
        }
        refs = [reference_result(cfg, nprocs, it)
                for it in range(cfg.iterations)]
        rows = {}
        for name, kills in scenarios.items():
            r = run_sim(
                make_abft_main(cfg), nprocs,
                injectors=[KillAtProbe(rank=rank, probe="computed", hit=hit)
                           for rank, hit in kills],
                on_deadlock="return",
            )
            rep = r.value(min(r.completed_ranks))
            exact = all(
                k in got["blocks"] and np.allclose(got["blocks"][k], want)
                for got, ref in zip(rep["results"], refs)
                for k, want in ref.items()
            )
            rows[name] = (not r.hung, exact, rep["recoveries"],
                          rep["degraded"])
        assert rows == {
            "failure-free": (True, True, 0, False),
            "1 compute dies": (True, True, 3, False),
            "parity dies": (True, True, 0, False),
            "2 compute die": (True, False, 0, True),
        }
