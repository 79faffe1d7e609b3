"""Serializable failure schedules.

A :class:`FailureSchedule` is a declarative, JSON-friendly description of
*who dies when* — the artifact a fault-injection campaign stores so any
interesting run replays exactly (determinism guarantee of the simulator).

Spec format (``to_dict``/``from_dict``)::

    {"kills": [
        {"trigger": "time",  "rank": 2, "time": 1.5e-6},
        {"trigger": "probe", "rank": 0, "probe": "post_recv", "hit": 2},
        {"trigger": "call",  "rank": 1, "call_no": 17, "op": "send"},
    ]}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .injector import (
    CompositeInjector,
    FaultInjector,
    KillAtCall,
    KillAtProbe,
    KillAtTime,
)


@dataclass(frozen=True)
class KillSpec:
    """One declarative kill."""

    trigger: str  # "time" | "probe" | "call"
    rank: int
    time: float | None = None
    probe: str | None = None
    hit: int = 1
    call_no: int | None = None
    op: str | None = None

    def __post_init__(self) -> None:
        if self.trigger == "time":
            if self.time is None:
                raise ValueError("time trigger needs 'time'")
        elif self.trigger == "probe":
            if not self.probe:
                raise ValueError("probe trigger needs 'probe'")
        elif self.trigger == "call":
            if self.call_no is None:
                raise ValueError("call trigger needs 'call_no'")
        else:
            raise ValueError(f"unknown trigger {self.trigger!r}")

    def injector(self) -> FaultInjector:
        """Materialize the corresponding injector."""
        if self.trigger == "time":
            assert self.time is not None
            return KillAtTime(rank=self.rank, time=self.time)
        if self.trigger == "probe":
            assert self.probe is not None
            return KillAtProbe(rank=self.rank, probe=self.probe, hit=self.hit)
        assert self.call_no is not None
        return KillAtCall(rank=self.rank, call_no=self.call_no, op=self.op)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"trigger": self.trigger, "rank": self.rank}
        if self.trigger == "time":
            out["time"] = self.time
        elif self.trigger == "probe":
            out["probe"] = self.probe
            out["hit"] = self.hit
        else:
            out["call_no"] = self.call_no
            if self.op is not None:
                out["op"] = self.op
        return out

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "KillSpec":
        return cls(
            trigger=d["trigger"],
            rank=d["rank"],
            time=d.get("time"),
            probe=d.get("probe"),
            hit=d.get("hit", 1),
            call_no=d.get("call_no"),
            op=d.get("op"),
        )


@dataclass
class FailureSchedule:
    """An ordered collection of :class:`KillSpec` entries."""

    kills: list[KillSpec] = field(default_factory=list)

    # -- construction helpers --------------------------------------------------

    def at_time(self, rank: int, time: float) -> "FailureSchedule":
        """Append a virtual-time kill (chainable)."""
        self.kills.append(KillSpec(trigger="time", rank=rank, time=time))
        return self

    def at_probe(self, rank: int, probe: str, hit: int = 1) -> "FailureSchedule":
        """Append a probe-window kill (chainable)."""
        self.kills.append(
            KillSpec(trigger="probe", rank=rank, probe=probe, hit=hit)
        )
        return self

    # -- use --------------------------------------------------------------------

    def injector(self) -> FaultInjector:
        """Materialize the whole schedule as one composite injector."""
        return CompositeInjector(spec.injector() for spec in self.kills)

    def victims(self) -> set[int]:
        """The ranks this schedule targets."""
        return {spec.rank for spec in self.kills}

    def __len__(self) -> int:
        return len(self.kills)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"kills": [spec.to_dict() for spec in self.kills]}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FailureSchedule":
        return cls(kills=[KillSpec.from_dict(k) for k in d.get("kills", [])])
