"""Shared helpers for the benchmark harness.

Each ``bench_figN_*.py`` regenerates one figure of the paper: it runs the
corresponding scenario(s), prints the rows/series as an ASCII table (these
tables are embedded in EXPERIMENTS.md), asserts the *shape* the paper
reports, and times the simulation through pytest-benchmark.

Two cross-cutting services live here:

* **sweep fan-out** — :func:`sweep_runner` gives every sweep-style bench
  a :class:`repro.parallel.SweepRunner`.  Serial by default (CI-friendly
  on small machines); set ``REPRO_BENCH_WORKERS=N`` to fan the
  independent simulations of each sweep across ``N`` worker processes.
  The tables are identical either way — only wall time changes.
* **perf trajectory** — every series timed through :func:`timed` also
  lands in ``benchmarks/BENCH_simperf.json`` (series name → mean/min
  wall seconds and throughput) so future changes can be compared against
  a machine-readable baseline, not just the human tables.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Sequence

import pytest

from repro.core import RingConfig, make_ring_main, make_rootft_main
from repro.parallel import SweepRunner, make_runner
from repro.perf import CACHE, SESSION
from repro.simmpi import Simulation, SimulationResult, resolve_backend

#: series name -> list of observed wall-clock durations (seconds).
_PERF: dict[str, list[float]] = {}

#: series name -> kernel counter delta of the series' best (last) round.
_COUNTERS: dict[str, dict[str, Any]] = {}

_PERF_PATH = Path(__file__).resolve().parent / "BENCH_simperf.json"


def sweep_runner() -> SweepRunner:
    """The runner sweep-style benches execute their job batches on.

    ``REPRO_BENCH_WORKERS`` (default ``1`` → serial, in-process) selects
    the process-pool fan-out width.  Results are merged in submission
    order, so tables and assertions never depend on the setting.
    """
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    return make_runner(workers)


def run_ring_scenario(
    cfg: RingConfig,
    nprocs: int,
    *,
    injectors: Sequence[Any] = (),
    rootft: bool = False,
    detection_latency: float = 0.0,
    seed: int = 0,
    trace: bool = True,
) -> SimulationResult:
    """Build and run one ring simulation (deadlocks reported, not raised).

    ``trace=False`` uses the kernel's zero-cost disabled-trace path —
    for benches that classify by result fields only and never read
    ``result.trace``.
    """
    sim = Simulation(
        nprocs=nprocs, seed=seed, detection_latency=detection_latency,
        trace_enabled=trace,
    )
    for inj in injectors:
        sim.add_injector(inj)
    main = make_rootft_main(cfg) if rootft else make_ring_main(cfg)
    return sim.run(main, on_deadlock="return")


def _series_name() -> str:
    """Name of the currently executing bench (from pytest's env marker)."""
    current = os.environ.get("PYTEST_CURRENT_TEST", "unknown")
    # "benchmarks/bench_x.py::bench_name (call)" -> "bench_name"
    return current.split("::")[-1].split(" ")[0]


def timed(
    benchmark: Any, fn: Callable[[], Any], *, fibers: str | None = None
) -> Any:
    """Run *fn* under pytest-benchmark with a small fixed round count.

    The simulations are deterministic, so a handful of rounds measures
    harness wall-time without wasting the suite's budget.  Durations are
    also recorded for the ``BENCH_simperf.json`` perf trajectory, along
    with the kernel counter deltas (handoffs, events, matches — see
    :class:`repro.perf.PerfCounters`) observed across one round: the
    counters explain *why* a wall time moved (e.g. the same time with
    fewer handoffs means per-handoff cost went up).

    Every series is stamped with the fiber backend it ran on (*fibers*,
    or the process default when not given) — ``repro bench-diff``
    refuses to compare series recorded under different backends, since
    the handoff mechanism dominates kernel wall time.
    """
    name = _series_name()
    durations = _PERF.setdefault(name, [])
    backend = fibers if fibers is not None else resolve_backend(None)

    def instrumented() -> Any:
        before = SESSION.snapshot()
        cache_before = CACHE.snapshot()
        t0 = time.perf_counter()
        out = fn()
        durations.append(time.perf_counter() - t0)
        # Deterministic runs: every round's counters are identical, so
        # keeping the last round's delta loses nothing.
        counters = SESSION.delta(before)
        counters["fibers"] = backend
        # Run-cache traffic rides along (prefixed, only when nonzero) so
        # cold/warm series in BENCH_simperf.json are self-describing.
        counters.update(
            (f"cache_{k}", v)
            for k, v in CACHE.delta(cache_before).items()
            if v
        )
        _COUNTERS[name] = counters
        return out

    return benchmark.pedantic(instrumented, rounds=3, iterations=1,
                              warmup_rounds=1)


def emit(title: str, body: str) -> None:
    """Print a table block (shown by ``pytest -s``)."""
    print(f"\n=== {title} ===\n{body}")


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    """Write the machine-readable perf summary for the series that ran."""
    if not _PERF:
        return
    summary: dict[str, Any] = {}
    if _PERF_PATH.exists():  # partial runs update, not clobber, the file
        try:
            summary = json.loads(_PERF_PATH.read_text())
        except (OSError, ValueError):
            summary = {}
    updated = False
    for name, durations in sorted(_PERF.items()):
        if not durations:
            continue
        mean = sum(durations) / len(durations)
        summary[name] = {
            "mean_wall_s": mean,
            "min_wall_s": min(durations),
            "rounds": len(durations),
            "throughput_per_s": (1.0 / mean) if mean > 0 else None,
        }
        counters = _COUNTERS.get(name)
        if counters is not None:
            # Per-series kernel counters (one round's delta); wall_s here
            # is kernel-loop time, a subset of the harness wall time.
            summary[name]["counters"] = {
                k: round(v, 6) if isinstance(v, float) else v
                for k, v in counters.items()
            }
        updated = True
    if updated:
        _PERF_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True)
                              + "\n")
