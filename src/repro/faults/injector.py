"""Fault injectors (paper §III-E).

An injector decides *when a process dies*.  Injectors are consulted by the
runtime at every MPI call and at every application probe point
(:meth:`FaultInjector.should_kill` — only those that override it are
asked), and may additionally arm virtual-time kill events.  All injectors
are deterministic given their parameters (and seed, where applicable), so
a failing scenario replays exactly.

Triggers provided:

* :class:`KillAtTime` — fail-stop at a virtual time (event-driven; the
  victim can die while blocked).
* :class:`KillAtCall` — die on the victim's *n*-th MPI call (optionally
  only if it is a specific operation).
* :class:`KillAtProbe` — die at the *k*-th hit of a named probe point.
  This is how the paper's precise windows ("after the receive, before the
  send") are targeted.
* :class:`KillRandomly` — seeded Bernoulli per MPI call, with a cap, for
  randomized campaigns.
* :class:`CompositeInjector` — combine any of the above.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simmpi.process import SimProcess
    from ..simmpi.runtime import Runtime


class FaultInjector:
    """Base class: by default never kills and arms nothing."""

    def arm(self, runtime: "Runtime") -> None:
        """Schedule any time-based kills (called once, before the run)."""

    def should_kill(
        self,
        proc: "SimProcess",
        op: str | None = None,
        probe: str | None = None,
    ) -> bool:
        """Return True to fail-stop *proc* at this window."""
        return False

    def polled(self) -> bool:
        """Whether :meth:`should_kill` can ever answer True.  The runtime
        asks once, after arming: an injector that only acts through the
        events :meth:`arm` scheduled is never consulted at a window."""
        return type(self).should_kill is not FaultInjector.should_kill


@dataclass
class KillAtTime(FaultInjector):
    """Fail-stop *rank* at virtual time *time*."""

    rank: int
    time: float

    def arm(self, runtime: "Runtime") -> None:
        runtime.kill_at(self.rank, self.time)


@dataclass
class KillAtCall(FaultInjector):
    """Fail-stop *rank* on its *call_no*-th MPI call (1-based).

    If *op* is given, only calls of that operation count.
    """

    rank: int
    call_no: int
    op: str | None = None
    _count: int = field(default=0, repr=False)

    def should_kill(
        self,
        proc: "SimProcess",
        op: str | None = None,
        probe: str | None = None,
    ) -> bool:
        if proc.rank != self.rank or probe is not None or op is None:
            return False
        if self.op is not None and op != self.op:
            return False
        self._count += 1
        return self._count == self.call_no


@dataclass
class KillAtProbe(FaultInjector):
    """Fail-stop *rank* at the *hit*-th occurrence of probe *probe* (1-based)."""

    rank: int
    probe: str
    hit: int = 1

    def should_kill(
        self,
        proc: "SimProcess",
        op: str | None = None,
        probe: str | None = None,
    ) -> bool:
        if proc.rank != self.rank or probe != self.probe:
            return False
        return proc.probe_counts.get(self.probe, 0) == self.hit


@dataclass
class KillRandomly(FaultInjector):
    """Seeded random fail-stop: each MPI call of an eligible rank dies with
    probability *rate*, up to *max_failures* total.

    ``protect`` lists ranks that never die (e.g. the root for Fig. 11
    scenarios).
    """

    rate: float
    seed: int = 0
    max_failures: int = 1
    protect: Sequence[int] = ()
    _rng: random.Random = field(default=None, repr=False)  # type: ignore[assignment]
    _killed: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        self._rng = random.Random(self.seed)

    def should_kill(
        self,
        proc: "SimProcess",
        op: str | None = None,
        probe: str | None = None,
    ) -> bool:
        if probe is not None or op is None:
            return False
        if self._killed >= self.max_failures or proc.rank in self.protect:
            return False
        if self._rng.random() < self.rate:
            self._killed += 1
            return True
        return False


class CompositeInjector(FaultInjector):
    """Run several injectors as one (first positive answer wins)."""

    def __init__(self, injectors: Iterable[FaultInjector]) -> None:
        self.injectors = list(injectors)
        #: The children :meth:`should_kill` consults, in their original
        #: order (stateful ones advance exactly as if all were asked).
        self._polled = [i for i in self.injectors if i.polled()]

    def arm(self, runtime: "Runtime") -> None:
        for inj in self.injectors:
            inj.arm(runtime)

    def should_kill(
        self,
        proc: "SimProcess",
        op: str | None = None,
        probe: str | None = None,
    ) -> bool:
        return any(i.should_kill(proc, op=op, probe=probe) for i in self._polled)

    def polled(self) -> bool:
        return bool(self._polled)
