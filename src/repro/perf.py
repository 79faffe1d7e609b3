"""Kernel performance counters and run-cache accounting.

:class:`PerfCounters` holds cheap per-simulation counters (fiber
handoffs, events executed, messages matched/unexpected/dropped,
deliveries, host seconds in the loop and around it) incremented inline
by the kernel.  Every :class:`~repro.simmpi.runtime.Simulation` run
folds its counters into the process-wide :data:`SESSION` accumulator;
:class:`CacheCounters` / :data:`CACHE` do the same for run-cache
traffic.  Harnesses bracket a region with ``snapshot()`` / ``delta()``.
"""

from __future__ import annotations

from typing import Any, Self

__all__ = [
    "CACHE",
    "CacheCounters",
    "PerfCounters",
    "SESSION",
]


class _Counters:
    """A bag of numeric counters, one per entry of the subclass's
    ``__slots__``: folding, copying and subtracting iterate the slots."""

    __slots__ = ()

    def add(self, other: "_Counters") -> None:
        """Fold *other* into this accumulator."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (JSON reports, assertions)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def snapshot(self) -> Self:
        """An independent copy (delta bookkeeping in harnesses)."""
        out = type(self)()
        out.add(self)
        return out

    def delta(self, since: "_Counters") -> dict[str, Any]:
        """``self - since`` as a dict."""
        return {
            name: getattr(self, name) - getattr(since, name)
            for name in self.__slots__
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({inner})"


class PerfCounters(_Counters):
    """Monotone counters over one simulation (or an accumulation of many).

    Increments happen on the kernel's hot path, so this is deliberately a
    bag of plain ints behind ``__slots__`` — no locks (the kernel is
    single-threaded-at-a-time by construction), no dicts, no properties.
    """

    __slots__ = (
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

    #: The one fiber implementation every simulation runs on (a pooled
    #: OS thread per rank, :class:`repro.simmpi.fibers.Fiber`): a
    #: constant, not a counter, kept for host fingerprints that read it.
    fibers = "thread"

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

    def format(self) -> str:
        """Human-readable counter report."""
        d = self.as_dict()
        seconds = {name: d.pop(name) for name in self.HOST_SECONDS}
        width = max(len(k) for k in d)
        lines = [f"{k:<{width}}  {v}" for k, v in d.items()]
        lines += [f"{k:<{width}}  {v:.6f}" for k, v in seconds.items()]
        wall = seconds["wall_s"]
        if wall > 0:
            rate = self.events_executed / wall
            lines.append(f"{'events_per_s':<{width}}  {rate:,.0f}")
            rate = self.handoffs / wall
            lines.append(f"{'handoffs_per_s':<{width}}  {rate:,.0f}")
        return "\n".join(lines)


#: Process-wide accumulator: every finished simulation adds its counters
#: here.  Worker processes of a pooled sweep accumulate into their *own*
#: session (counters do not cross the pool boundary), so a delta taken
#: around a sweep counts only the simulations run in this process.
SESSION = PerfCounters()


class CacheCounters(_Counters):
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

    def format(self) -> str:
        """One-line human summary (``repro`` CLI stderr reporting)."""
        return (
            f"hits={self.hits} misses={self.misses} "
            f"stale={self.stale} stores={self.stores}"
        )


#: Process-wide cache accumulator (lookups/stores happen parent-side, so
#: this is exact even for pooled sweeps).
CACHE = CacheCounters()
