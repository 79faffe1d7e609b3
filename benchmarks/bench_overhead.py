"""EXP-OV — failure-free overhead of the fault-tolerant ring.

The paper's design adds, per iteration: one posted watchdog ``Irecv``, the
marker field on the buffer, and neighbor-state queries.  This bench
quantifies the failure-free cost across ring sizes, in virtual time and in
message counts, against the Fig. 2 baseline — the "what does FT cost when
nothing fails" row every ABFT evaluation needs.
"""

from __future__ import annotations

from repro.analysis import ascii_table, message_stats
from repro.core import RingConfig, RingVariant, Termination
from conftest import emit, run_ring_scenario, timed

SIZES = [4, 8, 16, 32]
ITERS = 10


def bench_overhead_ft_vs_baseline(benchmark):
    rows = []

    def run_all():
        rows.clear()
        for n in SIZES:
            base = run_ring_scenario(
                RingConfig(max_iter=ITERS, variant=RingVariant.BASELINE), n
            )
            ft = run_ring_scenario(
                RingConfig(max_iter=ITERS, variant=RingVariant.FT_MARKER,
                           termination=Termination.NONE), n
            )
            rows.append([
                n,
                base.final_time,
                ft.final_time,
                ft.final_time / base.final_time,
                message_stats(base).sends,
                message_stats(ft).sends,
            ])
        return rows

    timed(benchmark, run_all)
    emit(
        "Failure-free overhead: FT ring (markers, no termination) vs baseline",
        ascii_table(
            ["ranks", "baseline virt", "FT virt", "slowdown",
             "baseline msgs", "FT msgs"],
            rows,
        ),
    )
    for _n, _bt, _ft, slowdown, bmsg, fmsg in rows:
        # Same wire messages (watchdogs are receives, not sends); small
        # constant-factor virtual-time overhead.
        assert fmsg == bmsg
        assert slowdown < 1.5


def bench_overhead_termination_schemes(benchmark):
    rows = []

    def run_all():
        rows.clear()
        for n in SIZES:
            for term, label in ((Termination.NONE, "none"),
                                (Termination.ROOT_BCAST, "root_bcast"),
                                (Termination.VALIDATE_ALL, "validate_all")):
                r = run_ring_scenario(
                    RingConfig(max_iter=ITERS, variant=RingVariant.FT_MARKER,
                               termination=term), n
                )
                rows.append([n, label, r.final_time,
                             message_stats(r).sends])
        return rows

    timed(benchmark, run_all)
    emit(
        "Termination-scheme cost (failure-free)",
        ascii_table(["ranks", "termination", "virt time", "messages"], rows),
    )
    # validate_all termination (a contribution and a DECIDE per member)
    # costs twice the linear root broadcast; both more than none.
    by = {}
    for n, label, _t, msgs in rows:
        by.setdefault(n, {})[label] = msgs
    for n, d in by.items():
        assert d["root_bcast"] - d["none"] == n - 1
        assert d["validate_all"] - d["none"] == 2 * (n - 1)
