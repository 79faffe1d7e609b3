"""EXP-SWEEP — paper §III-E: exhaustive failure-window coverage.

The paper asks how a developer can know they have addressed *all*
problematic fault scenarios.  This bench is this repository's answer:
enumerate every reachable failure window of the ring (every rank, every
iteration, every receive/send boundary) from the deterministic reference
run, inject a fail-stop at each — and at each *pair* — and check the full
invariant battery.  The table reports the complete coverage map per
design variant.

The per-window re-runs execute through the :mod:`repro.parallel` sweep
engine: serial by default, fanned over ``REPRO_BENCH_WORKERS`` processes
when set.  Scenario factories are picklable
:class:`~repro.parallel.RingScenario` specs, so the same bench measures
both the serial and the pooled path; the coverage tables are identical
either way.
"""

from __future__ import annotations

from repro.analysis import ascii_table
from repro.core import RingVariant
from repro.parallel import RingScenario, StandardRingInvariants
from repro.faults import explore
from conftest import emit, sweep_runner, timed

N = 4
ITERS = 3


def _scenario(variant=RingVariant.FT_MARKER, rootft=False) -> RingScenario:
    return RingScenario(
        nprocs=N, iters=ITERS, variant=variant.value, rootft=rootft
    )


def bench_sweep_single_failures(benchmark):
    rows = []
    runner = sweep_runner()

    def run_all():
        rows.clear()
        specs = [
            ("naive", RingVariant.NAIVE, False, [1, 2, 3], False),
            ("ft_no_marker", RingVariant.FT_NO_MARKER, False, [1, 2, 3], False),
            ("ft_marker", RingVariant.FT_MARKER, False, [1, 2, 3], False),
            ("ft_tagged", RingVariant.FT_TAGGED, False, [1, 2, 3], False),
            ("rootft", RingVariant.FT_MARKER, True, None, True),
        ]
        for name, variant, rootft, ranks, root_loss in specs:
            rep = explore(
                _scenario(variant, rootft),
                invariants=StandardRingInvariants(
                    ITERS, N, allow_root_loss=root_loss
                ),
                ranks=ranks,
                runner=runner,
            )
            s = rep.summary()
            rows.append([name, s["windows"], s["ok"], s["hangs"],
                         s["violations"]])
        return rows

    timed(benchmark, run_all)
    emit(
        "§III-E exhaustive single-failure sweep "
        f"(n={N}, {ITERS} iterations; rootft sweeps the root too)",
        ascii_table(
            ["design", "windows", "ok", "hangs", "violations"], rows
        ),
    )
    by = {row[0]: row for row in rows}
    assert by["naive"][3] > 0               # hangs (Fig. 6)
    assert by["ft_marker"][2] == by["ft_marker"][1]  # fully clean
    assert by["ft_tagged"][2] == by["ft_tagged"][1]
    assert by["rootft"][2] == by["rootft"][1]


def bench_sweep_double_failures(benchmark):
    rows = []
    runner = sweep_runner()

    def run_all():
        rows.clear()
        for name, rootft, root_loss in (("ft_marker", False, False),
                                        ("rootft", True, True)):
            rep = explore(
                _scenario(RingVariant.FT_MARKER, rootft),
                invariants=StandardRingInvariants(
                    ITERS, N, allow_root_loss=root_loss
                ),
                ranks=None if rootft else [1, 2, 3],
                pairs=True,
                runner=runner,
            )
            s = rep.summary()
            rows.append([name, s["runs"], s["ok"], s["hangs"],
                         s["violations"]])
        return rows

    timed(benchmark, run_all)
    emit(
        "§III-E exhaustive double-failure sweep (every window pair)",
        ascii_table(["design", "runs", "ok", "hangs", "violations"], rows),
    )
    assert all(ok == runs for _n, runs, ok, _h, _v in rows)
