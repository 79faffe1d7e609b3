"""Kernel performance counters and benchmark-baseline comparison.

Two related observability layers live here:

* :class:`PerfCounters` — cheap per-simulation counters (fiber handoffs,
  events executed, messages matched/unexpected/dropped,
  deliveries, host seconds in the loop and around it) incremented inline
  by the kernel.  Every
  :class:`~repro.simmpi.runtime.Simulation` run folds its counters into
  the process-wide :data:`SESSION` accumulator, which the benchmark
  harness snapshots around each series so ``BENCH_simperf.json`` carries
  a counters block alongside the wall times.  Later PRs (adaptive
  scheduling, perf-regression gating) key off these numbers.

* :func:`diff_benchmarks` / :func:`format_diff` — compare two
  ``BENCH_simperf.json`` files and flag regressions beyond a threshold
  (the ``repro bench-diff`` subcommand and ``benchmarks/compare.py``
  both wrap this; CI runs it as a soft, non-blocking step).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "BackendMismatch",
    "CACHE",
    "CacheCounters",
    "PerfCounters",
    "SESSION",
    "SeriesDelta",
    "diff_benchmarks",
    "format_diff",
]


class PerfCounters:
    """Monotone counters over one simulation (or an accumulation of many).

    Increments happen on the kernel's hot path, so this is deliberately a
    bag of plain ints behind ``__slots__`` — no locks (the kernel is
    single-threaded-at-a-time by construction), no dicts, no properties.

    One non-numeric slot rides along: :attr:`fibers`, the name of the
    fiber backend the simulation ran on (``"thread"`` or ``"greenlet"``).
    It is provenance, not a measurement — :meth:`add` merges it by
    adoption (an empty label takes the other side's; two different labels
    collapse to ``"mixed"``) and :meth:`delta` skips it entirely, so the
    arithmetic paths stay pure-int over :data:`PerfCounters._NUMERIC`.
    """

    _NUMERIC = (
        "handoffs",
        "events_executed",
        "events_cancelled",
        "messages_sent",
        "messages_matched",
        "messages_unexpected",
        "messages_dropped",
        "deliveries",
        "wall_s",
        "setup_s",
        "teardown_s",
    )

    #: Host seconds: what the machine spent, not what the simulation did.
    #: :meth:`format` prints them as durations and
    #: :func:`repro.analysis.digest.perf_dict` drops them.
    HOST_SECONDS = ("wall_s", "setup_s", "teardown_s")

    __slots__ = _NUMERIC + ("fibers",)

    def __init__(self) -> None:
        #: Fibers picked to run: baton handoffs (≈ simulated MPI calls).
        self.handoffs = 0
        #: Events popped and executed by the main loop.
        self.events_executed = 0
        #: Always 0: events cannot be cancelled.  The slot stays because
        #: ``repro.analysis.digest.perf_dict`` feeds it to every digest.
        self.events_cancelled = 0
        #: Messages injected into the network (eager + active-message).
        self.messages_sent = 0
        #: Deliveries that matched a posted receive immediately, plus
        #: posted receives satisfied from the unexpected queue.
        self.messages_matched = 0
        #: Deliveries parked in the unexpected queue.
        self.messages_unexpected = 0
        #: Messages dropped because the destination had already failed.
        self.messages_dropped = 0
        #: Messages that reached a live destination's queues.
        self.deliveries = 0
        #: Host wall-clock seconds spent inside the simulation loop.
        self.wall_s = 0.0
        #: Host seconds creating and starting the fibers, before the loop.
        self.setup_s = 0.0
        #: Host seconds unwinding and releasing the fibers, after it.
        self.teardown_s = 0.0
        #: Fiber backend the counted simulations ran on (``""`` until a
        #: runtime stamps it; ``"mixed"`` after folding across backends).
        self.fibers = ""

    def add(self, other: "PerfCounters") -> None:
        """Fold *other* into this accumulator."""
        for name in self._NUMERIC:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if other.fibers:
            if not self.fibers:
                self.fibers = other.fibers
            elif self.fibers != other.fibers:
                self.fibers = "mixed"

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (JSON reports, assertions)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def format(self) -> str:
        """Human-readable counter report."""
        d = self.as_dict()
        seconds = {name: d.pop(name) for name in self.HOST_SECONDS}
        backend = d.pop("fibers")
        width = max(len(k) for k in d)
        lines = [f"{k:<{width}}  {v}" for k, v in d.items()]
        lines += [f"{k:<{width}}  {v:.6f}" for k, v in seconds.items()]
        wall = seconds["wall_s"]
        if backend:
            lines.append(f"{'fibers':<{width}}  {backend}")
        if wall > 0:
            rate = self.events_executed / wall
            lines.append(f"{'events_per_s':<{width}}  {rate:,.0f}")
            rate = self.handoffs / wall
            lines.append(f"{'handoffs_per_s':<{width}}  {rate:,.0f}")
        return "\n".join(lines)

    def snapshot(self) -> "PerfCounters":
        """An independent copy (delta bookkeeping in the bench harness)."""
        out = PerfCounters()
        out.add(self)
        return out

    def delta(self, since: "PerfCounters") -> dict[str, Any]:
        """``self - since`` as a dict (bench harness per-series blocks).

        Numeric slots only — the :attr:`fibers` provenance label is not
        subtractable; the bench harness stamps it on each series itself.
        """
        return {
            name: getattr(self, name) - getattr(since, name)
            for name in self._NUMERIC
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"PerfCounters({inner})"


#: Process-wide accumulator: every finished simulation adds its counters
#: here.  Worker processes of a pooled sweep accumulate into their *own*
#: session (counters do not cross the pool boundary); benchmark counter
#: blocks therefore reflect serial runs, which is the default.
SESSION = PerfCounters()


class CacheCounters:
    """Run-cache accounting (see :mod:`repro.cache`): hits, misses, stale
    entries, and stores, accumulated process-wide like :data:`SESSION`.

    Deliberately **separate** from :class:`PerfCounters`: per-simulation
    counters enter result digests and ``.repro.json`` expect blocks, so
    adding slots there would silently change every recorded fingerprint.
    Cache traffic is a property of the sweep harness, not of any one
    simulation, and must never leak into a deterministic report.

    Unlike the kernel counters, these are accurate for pooled and
    remote sweeps too: :meth:`repro.parallel.runner.SweepRunner.run`
    performs every lookup and store in the submitting process, so
    nothing is lost at the pool or socket boundary.
    """

    __slots__ = ("hits", "misses", "stale", "stores")

    def __init__(self) -> None:
        #: Jobs answered from the cache without executing a simulation.
        self.hits = 0
        #: Cacheable jobs whose key had no stored entry.
        self.misses = 0
        #: Entries present but unusable (corrupt file, format drift,
        #: payload that failed reconstruction) — re-executed like misses.
        self.stale = 0
        #: Fresh outcomes written back to the store.
        self.stores = 0

    def add(self, other: "CacheCounters") -> None:
        """Fold *other* into this accumulator."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (JSON reports, assertions)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def snapshot(self) -> "CacheCounters":
        """An independent copy (delta bookkeeping in harnesses)."""
        out = CacheCounters()
        out.add(self)
        return out

    def delta(self, since: "CacheCounters") -> dict[str, int]:
        """``self - since`` as a dict."""
        return {
            name: getattr(self, name) - getattr(since, name)
            for name in self.__slots__
        }

    def format(self) -> str:
        """One-line human summary (``repro`` CLI stderr reporting)."""
        return (
            f"hits={self.hits} misses={self.misses} "
            f"stale={self.stale} stores={self.stores}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"CacheCounters({inner})"


#: Process-wide cache accumulator (lookups/stores happen parent-side, so
#: this is exact even for pooled sweeps).
CACHE = CacheCounters()


# ----------------------------------------------------------------------
# Benchmark baseline comparison
# ----------------------------------------------------------------------

class BackendMismatch(ValueError):
    """Two benchmark files were recorded under different fiber backends.

    Wall times measured on the thread-baton backend and on the greenlet
    backend are not comparable — the handoff mechanism *is* the dominant
    cost in the kernel microbenchmarks — so :func:`diff_benchmarks`
    refuses the comparison instead of reporting a bogus regression or
    improvement.  Re-record one side, or compare the per-backend series
    (``*_threaded`` vs ``*_greenlet``) within a single file.
    """


def _series_backend(series: dict[str, Any]) -> str:
    """Fiber-backend label recorded with one series (``""`` if absent)."""
    counters = series.get("counters")
    if isinstance(counters, dict):
        return str(counters.get("fibers", "") or "")
    return ""


def _check_backends(base: dict[str, Any], new: dict[str, Any]) -> None:
    """Raise :class:`BackendMismatch` when shared series disagree on
    the fiber backend they were recorded under (unlabeled legacy series
    compare freely)."""
    for name in sorted(set(base) & set(new)):
        b = _series_backend(base[name])
        n = _series_backend(new[name])
        if b and n and b != n:
            raise BackendMismatch(
                f"series {name!r}: baseline recorded under fiber backend "
                f"{b!r} but current under {n!r}; wall times across fiber "
                "backends are not comparable (re-record one side with "
                "REPRO_FIBERS set, or diff the per-backend series instead)"
            )


@dataclass
class SeriesDelta:
    """Relative change of one benchmark series between two files."""

    name: str
    base_min_s: float | None
    new_min_s: float | None
    #: (new - base) / base; ``None`` when either side is missing.
    rel_change: float | None

    @property
    def status(self) -> str:
        if self.rel_change is None:
            return "added" if self.base_min_s is None else "removed"
        return (
            "regression" if self.rel_change > 0 else "improvement"
            if self.rel_change < 0 else "unchanged"
        )


def diff_benchmarks(
    baseline: dict[str, Any] | str | Path,
    current: dict[str, Any] | str | Path,
    *,
    metric: str = "min_wall_s",
) -> list[SeriesDelta]:
    """Compare two ``BENCH_simperf.json`` payloads series by series.

    Raises :class:`BackendMismatch` when any series common to both files
    carries a different ``counters.fibers`` label on each side — numbers
    from different fiber backends must never be diffed against each
    other.
    """
    base = _load(baseline)
    new = _load(current)
    _check_backends(base, new)
    out: list[SeriesDelta] = []
    for name in sorted(set(base) | set(new)):
        b = base.get(name, {}).get(metric)
        n = new.get(name, {}).get(metric)
        rel = ((n - b) / b) if (b and n is not None) else None
        out.append(SeriesDelta(name, b, n, rel))
    return out


def format_diff(
    deltas: Iterable[SeriesDelta], *, threshold: float = 0.20
) -> tuple[str, int]:
    """Render a comparison table; returns ``(text, n_flagged)``.

    A series is *flagged* when it regressed by more than *threshold*
    (relative).  Callers decide whether flags fail the build — CI runs
    this as a soft annotation step.
    """
    lines = [
        f"{'series':<45s} {'baseline':>10s} {'current':>10s} {'change':>8s}"
    ]
    flagged = 0
    for d in deltas:
        b = f"{d.base_min_s:.4f}" if d.base_min_s is not None else "-"
        n = f"{d.new_min_s:.4f}" if d.new_min_s is not None else "-"
        if d.rel_change is None:
            chg, mark = d.status, ""
        else:
            chg = f"{d.rel_change:+.1%}"
            mark = ""
            if d.rel_change > threshold:
                mark = "  << REGRESSION"
                flagged += 1
            elif d.rel_change < -threshold:
                mark = "  (faster)"
        lines.append(f"{d.name:<45s} {b:>10s} {n:>10s} {chg:>8s}{mark}")
    lines.append(
        f"{flagged} series regressed more than {threshold:.0%}"
        if flagged else f"no series regressed more than {threshold:.0%}"
    )
    return "\n".join(lines), flagged


def _load(src: dict[str, Any] | str | Path) -> dict[str, Any]:
    if isinstance(src, dict):
        return src
    return json.loads(Path(src).read_text())
