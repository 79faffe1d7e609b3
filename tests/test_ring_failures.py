"""The paper's failure scenarios, figure by figure (Figs. 5–11)."""

from __future__ import annotations

import pytest

from repro.core import (
    RingConfig,
    RingVariant,
    Termination,
    make_ring_main,
)
from repro.faults import KillAtProbe, KillAtTime
from repro.simmpi import Simulation
from tests.conftest import run_sim


def run_ring(
    variant,
    term=Termination.ROOT_BCAST,
    nprocs=4,
    max_iter=4,
    injectors=(),
    detection_latency=0.0,
    **kw,
):
    cfg = RingConfig(max_iter=max_iter, variant=variant, termination=term)
    return run_sim(
        make_ring_main(cfg),
        nprocs,
        injectors=injectors,
        on_deadlock="return",
        detection_latency=detection_latency,
        **kw,
    )


class TestFig5SendRight:
    def test_send_retargets_past_one_failure(self):
        r = run_ring(
            RingVariant.FT_MARKER,
            injectors=[KillAtProbe(rank=2, probe="post_send", hit=1)],
        )
        assert not r.hung
        rep = r.value(1)
        assert rep["right"] == 3  # rank 1 now sends past dead rank 2
        assert rep["right_retargets"] >= 1

    def test_send_retargets_past_consecutive_failures(self):
        r = run_ring(
            RingVariant.FT_MARKER,
            nprocs=6,
            injectors=[
                KillAtProbe(rank=2, probe="post_send", hit=1),
                KillAtProbe(rank=3, probe="post_send", hit=1),
            ],
        )
        assert not r.hung
        assert r.value(1)["right"] == 4
        comp = r.value(0)["root_completions"]
        assert [m for m, _ in comp] == [0, 1, 2, 3]


class TestFig6NaiveHang:
    def test_hangs_when_control_dies(self):
        # P2 dies after receiving, before forwarding: control lost; the
        # naive receive cannot wake P1, and the simulator proves the hang.
        r = run_ring(
            RingVariant.NAIVE,
            injectors=[KillAtProbe(rank=2, probe="post_recv", hit=2)],
        )
        assert r.hung
        blocked_ranks = {rank for rank, _ in r.deadlock.blocked}
        assert 0 in blocked_ranks or 1 in blocked_ranks

    def test_naive_survives_failure_without_control_loss(self):
        # If the victim dies after forwarding (control lives on) and its
        # downstream neighbor notices via its own receive error, the naive
        # design can sometimes squeak through; this pins one such window
        # to document that the hang is specifically a lost-control issue.
        r = run_ring(
            RingVariant.NAIVE,
            injectors=[KillAtProbe(rank=3, probe="post_send", hit=4)],
        )
        # Final iteration already forwarded: ring completed.
        comp = r.value(0)["root_completions"]
        assert [m for m, _ in comp] == [0, 1, 2, 3]


class TestFig7WatchdogResend:
    def test_ft_recv_recovers_same_window(self):
        r = run_ring(
            RingVariant.FT_MARKER,
            injectors=[KillAtProbe(rank=2, probe="post_recv", hit=2)],
        )
        assert not r.hung
        comp = r.value(0)["root_completions"]
        assert [m for m, _ in comp] == [0, 1, 2, 3]
        # Rank 1 noticed via its watchdog and resent (Fig. 7 arrow).
        assert r.value(1)["resends"] == 1

    def test_values_reflect_lost_increments(self):
        r = run_ring(
            RingVariant.FT_MARKER,
            injectors=[KillAtProbe(rank=2, probe="post_recv", hit=2)],
        )
        comp = dict(r.value(0)["root_completions"])
        assert comp[0] == 4          # before the failure: full circle
        assert comp[2] == comp[3] == 3  # after: rank 2's increment gone


class TestFig8Duplicates:
    #: Detection must lag the wire for the duplicate to materialize
    #: (paper Fig. 8 has P3 receive P2's message *before* P1 resends).
    LAT = 2e-6

    def test_no_marker_variant_duplicates_completion(self):
        r = run_ring(
            RingVariant.FT_NO_MARKER,
            injectors=[KillAtProbe(rank=2, probe="post_send", hit=2)],
            detection_latency=self.LAT,
        )
        assert not r.hung
        markers = [m for m, _ in r.value(0)["root_completions"]]
        assert len(markers) != len(set(markers))  # an iteration ran twice
        assert markers.count(1) == 2

    def test_duplicate_starves_final_iteration(self):
        # The duplicate shifts the root's completion window: the last real
        # iteration never completes as itself — the paper's "multiple
        # completions of the same ring iteration" corruption.
        r = run_ring(
            RingVariant.FT_NO_MARKER,
            injectors=[KillAtProbe(rank=2, probe="post_send", hit=2)],
            detection_latency=self.LAT,
        )
        markers = [m for m, _ in r.value(0)["root_completions"]]
        assert 3 not in markers


class TestFig10MarkerDedup:
    LAT = TestFig8Duplicates.LAT

    def test_marker_variant_discards_duplicate(self):
        r = run_ring(
            RingVariant.FT_MARKER,
            injectors=[KillAtProbe(rank=2, probe="post_send", hit=2)],
            detection_latency=self.LAT,
        )
        assert not r.hung
        markers = [m for m, _ in r.value(0)["root_completions"]]
        assert markers == [0, 1, 2, 3]
        total_discarded = sum(
            r.value(i)["duplicates_discarded"] for i in r.completed_ranks
        )
        assert total_discarded == 1

    def test_tagged_variant_also_safe(self):
        r = run_ring(
            RingVariant.FT_TAGGED,
            injectors=[KillAtProbe(rank=2, probe="post_send", hit=2)],
            detection_latency=self.LAT,
        )
        assert not r.hung
        markers = [m for m, _ in r.value(0)["root_completions"]]
        assert markers == [0, 1, 2, 3]


class TestFig11Termination:
    def test_nonroot_failure_during_termination_window(self):
        # Kill a rank after its last forward: survivors must still leave
        # the termination phase (the resend watchdog keeps them live).
        r = run_ring(
            RingVariant.FT_MARKER,
            term=Termination.ROOT_BCAST,
            injectors=[KillAtProbe(rank=3, probe="post_send", hit=4)],
        )
        assert not r.hung
        assert set(r.completed_ranks) == {0, 1, 2}

    def test_root_failure_in_termination_aborts(self):
        # Fig. 11 line 24: non-roots waiting for T_D abort when the root
        # dies.  Kill the root just before it broadcasts termination.
        cfg = RingConfig(max_iter=3, variant=RingVariant.FT_MARKER,
                         termination=Termination.ROOT_BCAST)
        r = run_sim(
            make_ring_main(cfg), 4,
            injectors=[KillAtProbe(rank=0, probe="pre_termination", hit=1)],
            on_deadlock="return",
        )
        assert r.aborted is not None

    def test_root_failure_mid_ring_hangs_without_rootft(self):
        # The Fig. 3 design *assumes* the root survives (§III); a root
        # death in the main loop drains the ring's control and the job
        # hangs — the motivation for §III-D (see test_ring_rootft).
        cfg = RingConfig(max_iter=6, variant=RingVariant.FT_MARKER,
                         termination=Termination.ROOT_BCAST,
                         work_per_iter=1e-6)
        r = run_sim(
            make_ring_main(cfg), 4,
            injectors=[KillAtProbe(rank=0, probe="root_post_send", hit=3)],
            on_deadlock="return",
        )
        assert r.hung

    def test_validate_all_termination_with_failures(self):
        r = run_ring(
            RingVariant.FT_MARKER,
            term=Termination.VALIDATE_ALL,
            nprocs=5,
            injectors=[KillAtProbe(rank=2, probe="post_recv", hit=3)],
        )
        assert not r.hung
        assert set(r.completed_ranks) == {0, 1, 3, 4}


class TestMultipleFailures:
    @pytest.mark.parametrize("term", [Termination.ROOT_BCAST,
                                      Termination.VALIDATE_ALL])
    def test_two_failures_distinct_iterations(self, term):
        r = run_ring(
            RingVariant.FT_MARKER,
            term=term,
            nprocs=6,
            max_iter=5,
            injectors=[
                KillAtProbe(rank=2, probe="post_recv", hit=2),
                KillAtProbe(rank=4, probe="post_send", hit=3),
            ],
        )
        assert not r.hung
        markers = [m for m, _ in r.value(0)["root_completions"]]
        assert markers == [0, 1, 2, 3, 4]

    def test_ring_shrinks_to_two(self):
        r = run_ring(
            RingVariant.FT_MARKER,
            term=Termination.VALIDATE_ALL,
            nprocs=4,
            max_iter=6,
            injectors=[
                KillAtProbe(rank=2, probe="post_recv", hit=1),
                KillAtProbe(rank=3, probe="post_recv", hit=2),
            ],
        )
        assert not r.hung
        markers = [m for m, _ in r.value(0)["root_completions"]]
        assert markers == list(range(6))
        # Two survivors: values are 1 injected + 1 increment.
        assert dict(r.value(0)["root_completions"])[5] == 2

    def test_time_based_kill_mid_ring(self):
        cfg = RingConfig(max_iter=8, variant=RingVariant.FT_MARKER,
                         termination=Termination.VALIDATE_ALL,
                         work_per_iter=1e-6)
        sim = Simulation(nprocs=5)
        sim.add_injector(KillAtTime(rank=3, time=4.3e-6))
        r = sim.run(make_ring_main(cfg), on_deadlock="return")
        assert not r.hung
        markers = [m for m, _ in r.value(0)["root_completions"]]
        assert markers == list(range(8))
