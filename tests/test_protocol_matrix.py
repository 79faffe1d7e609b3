"""Cross-protocol differential matrix (:mod:`repro.protocols`).

One logical workload — a 5-rank token ring pushing 6 markers — faces one
fixed set of fault schedules under all four recovery families:

* ``rts``              — the paper's run-through stabilization;
* ``shrink_repair``    — ULFM revoke / agree / shrink epochs;
* ``replication``      — active rank replicas with receiver-side dedup;
* ``partial_restart``  — respawn into the dead slot, recover the counter
  from the left neighbor (SNIPPETS ``partial-restart.c``).

The matrix pins the *shared* contract (survivors agree on the completed
set, no duplicate delivery, no hang) on identical ``(victim, time)``
schedules, then each protocol's own promise: replication's client sees
**zero recovery gap**, and partial restart's recruit resumes from the
**neighbor-held** counter rather than from zero.  The compare-protocols
study over the same schedules must be byte-identical serial vs pooled,
and its CLI report the same serial, pooled, cold-cached and warm-cached.
"""

from __future__ import annotations

import re

import pytest

from repro.analysis import perf_dict, standard_ring_invariants
from repro.cli import main as cli_main
from repro.faults import CompositeInjector, KillAtTime
from repro.fuzz.config import scenario_from_dict, scenario_to_dict
from repro.parallel import RingScenario
from repro.protocols import (
    ABORT_REPLICAS_EXHAUSTED,
    ABORT_ROOT_LOST,
    ABORT_SPARES_EXHAUSTED,
    PROTOCOLS,
    run_compare_protocols,
)

NPROCS = 5
ITERS = 6

#: Identical logical fault schedules every protocol must absorb.  All
#: victims are logical ranks 1..NPROCS-1 — the schedule vocabulary shared
#: by the families (replication maps rank ``v`` to replica 0 of logical
#: ``v``; partial restart's spares are never scheduled victims).
SCHEDULES = [
    (),
    ((2, 1.5e-5),),
    ((3, 8e-6),),
    ((2, 1.5e-5), (3, 2.5e-5)),
]


def _run(protocol: str, kills, **kw):
    scenario = RingScenario(
        nprocs=NPROCS,
        iters=ITERS,
        detection_latency=2e-6,
        protocol=protocol,
        **kw,
    )
    sim, main = scenario()
    if kills:
        sim.add_injector(
            CompositeInjector(KillAtTime(rank=v, time=t) for v, t in kills)
        )
    return sim.run(main, on_deadlock="return")


def _reports(result):
    return {
        o.rank: o.value
        for o in result.outcomes
        if o.state == "done" and isinstance(o.value, dict)
    }


class TestSharedInvariants:
    """The battery every family must pass on every shared schedule."""

    @pytest.mark.parametrize("kills", SCHEDULES, ids=repr)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_matrix(self, protocol, kills):
        result = _run(protocol, kills)
        assert not result.hung, (protocol, kills, result.deadlock)
        for inv in standard_ring_invariants(ITERS, NPROCS):
            violation = inv(result)
            assert violation is None, (protocol, kills, violation)
        # These schedules are survivable by construction: no aborts, and
        # some root logged every marker exactly once.
        assert result.aborted is None, (protocol, kills, result.aborted)
        roots = [
            v for v in _reports(result).values() if v["role"] == "root"
        ]
        assert roots, (protocol, kills)
        for root in roots:
            assert root["iterations_completed"] == ITERS
            markers = [m for m, _ in root["root_completions"]]
            assert markers == list(range(ITERS)), (protocol, kills)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_unsurvivable_schedules_abort_with_classified_code(
        self, protocol
    ):
        # Kill every non-root logical rank: rts recognizes its way down
        # to a self-ring, the others abort with their documented codes.
        kills = tuple((v, 5e-6 + v * 1e-6) for v in range(1, NPROCS))
        result = _run(protocol, kills)
        assert not result.hung, (protocol, result.deadlock)
        if result.aborted is not None:
            assert result.aborted.code in (
                ABORT_ROOT_LOST,
                ABORT_SPARES_EXHAUSTED,
                ABORT_REPLICAS_EXHAUSTED,
                61,  # ABORT_RING_ALONE
                -1,  # the rts driver's own ring-collapse abort
            ), (protocol, result.aborted)


class TestReplicationZeroGap:
    """A single replica loss must be invisible to the client timeline."""

    def test_failover_has_no_recovery_gap(self):
        base = _run("replication", ())
        for kills in SCHEDULES[1:]:
            faulted = _run("replication", kills)
            assert faulted.aborted is None
            # Zero-gap: nothing is retransmitted, respawned, or
            # re-executed, so the faulted run tracks the failure-free
            # baseline to within sub-detection-latency scheduling
            # jitter — orders of magnitude under any actual recovery
            # (compare shrink/repair's per-epoch re-execution).
            assert faulted.final_time <= base.final_time + 2e-6, kills
            for v in _reports(faulted).values():
                assert v["resends"] == 0

    def test_surviving_replica_absorbs_duplicates(self):
        faulted = _run("replication", ((2, 1.5e-5),))
        dups = sum(
            v["duplicates_discarded"] for v in _reports(faulted).values()
        )
        assert dups > 0  # the dedup shim did real work

    def test_both_replicas_dead_is_classified(self):
        result = _run(
            "replication", ((2, 1.5e-5), (2 + NPROCS, 1.6e-5))
        )
        assert result.aborted is not None
        assert result.aborted.code == ABORT_REPLICAS_EXHAUSTED


class TestPartialRestartNeighborState:
    """The recruit resumes from neighbor-held state, not from zero."""

    def test_recruit_recovers_neighbor_counter(self):
        result = _run("partial_restart", ((3, 2.0e-5),))
        assert result.aborted is None
        recruits = [
            v for v in _reports(result).values() if v["role"] == "recruit"
        ]
        assert len(recruits) == 1
        (rec,) = recruits
        assert rec["slot"] == 3
        # The left neighbor shipped a non-trivial marker: mid-run state,
        # recovered rather than recomputed.
        assert rec["recovered_marker"] is not None
        assert 0 < rec["recovered_marker"] <= ITERS
        assert rec["cur_marker"] >= rec["recovered_marker"]

    def test_spare_pool_bounds_recoveries(self):
        result = _run(
            "partial_restart",
            ((1, 1.0e-5), (2, 1.5e-5), (3, 2.0e-5)),
            spares=2,
        )
        assert result.aborted is not None
        assert result.aborted.code == ABORT_SPARES_EXHAUSTED

    def test_root_loss_is_classified(self):
        result = _run("partial_restart", ((0, 1.5e-5),))
        assert result.aborted is not None
        assert result.aborted.code == ABORT_ROOT_LOST


class TestCompareProtocolsDeterminism:
    """The study is byte-identical serial vs pooled on the same seeds."""

    def _study(self, workers=None):
        return run_compare_protocols(
            nprocs=NPROCS,
            iters=ITERS,
            seeds=range(6),
            horizon=4e-5,
            detection_latency=2e-6,
            workers=workers,
        )

    def test_serial_pooled_byte_identical(self):
        serial = self._study()
        pooled = self._study(workers=2)
        assert serial.format() == pooled.format()
        assert serial.records == pooled.records

    def test_summary_shape(self):
        rep = self._study()
        s = rep.summary()
        assert tuple(s) == PROTOCOLS
        for protocol in PROTOCOLS:
            d = s[protocol]
            assert d["runs"] == 6
            assert d["hangs"] == 0 and d["violations"] == 0
            assert d["hang_window"] == 0.0
        # Replication pays its overhead up front, failures or not.
        assert (
            s["replication"]["baseline_msgs"] > s["rts"]["baseline_msgs"]
        )
        # Zero-gap failover: replication's recovery latency is flat.
        assert (
            s["replication"]["recovery_latency"]["max"]
            <= s["shrink_repair"]["recovery_latency"]["max"]
        )

    def test_identical_schedules_across_protocols(self):
        rep = self._study()
        by_protocol = {
            p: [
                r.kills
                for r in rep.records
                if r.protocol == p and not r.baseline
            ]
            for p in PROTOCOLS
        }
        schedules = set(map(tuple, by_protocol.values()))
        assert len(schedules) == 1  # every family faced the same kills


class TestCompareProtocolsCli:
    ARGS = ["compare-protocols", "--nprocs", "5", "--runs", "12",
            "--detection-latency", "2e-6"]

    def test_serial_pooled_cold_and_warm_print_one_report(self, tmp_path, capsys):
        cached = ["--cache", "--cache-dir", str(tmp_path / "cache")]
        outs = []
        for extra in ([], ["--workers", "2"], cached, cached):
            assert cli_main(self.ARGS + extra) == 0
            outs.append(capsys.readouterr())
        serial, pooled, cold, warm = outs
        assert "protocol comparison: 4 protocols x 12 schedules" in serial.out
        assert serial.out == pooled.out == cold.out == warm.out
        assert re.search(r"^\[cache\] hits=[1-9][0-9]* misses=0 ", warm.err, re.M)


class TestScenarioPlumbing:
    """The protocol knob survives the fuzz spec round-trip and is
    rejected where it cannot apply."""

    def test_fuzz_spec_round_trip(self):
        spec = RingScenario(
            nprocs=NPROCS, iters=ITERS, protocol="partial_restart", spares=3
        )
        again = scenario_from_dict(scenario_to_dict(spec))
        assert again == spec

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            RingScenario(protocol="time_travel")

    def test_rootft_is_rts_only(self):
        with pytest.raises(ValueError, match="rootft"):
            RingScenario(rootft=True, protocol="shrink_repair")

    def test_app_scenarios_are_rts_only(self):
        from repro.parallel import AppScenario

        with pytest.raises(ValueError, match="rts"):
            AppScenario(app="heat1d", protocol="replication")

    @pytest.mark.parametrize("protocol", PROTOCOLS[1:])
    def test_protocol_runs_pay_their_own_messages(self, protocol):
        # Sanity: the families genuinely differ on the wire — message
        # counts are protocol-specific even on clean runs.
        rts = perf_dict(_run("rts", ()))
        other = perf_dict(_run(protocol, ()))
        assert other["messages_sent"] != rts["messages_sent"]
