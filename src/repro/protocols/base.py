"""Shared plumbing for the protocol drivers.

Every protocol runs the *same logical workload* — the paper's token ring
(root injects value 1 with an iteration marker, each rank increments and
forwards, the root logs the completion) — and reports through the same
per-rank dictionary shape as :func:`repro.core.ring.ring_report`, so the
existing invariant battery (:func:`repro.analysis.standard_ring_invariants`)
classifies every protocol's runs without translation.  What differs is
purely the *recovery strategy*, which is the point of the comparison.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..core.state import RingStats

#: The supported protocol families, in comparison-report order.
PROTOCOLS: tuple[str, ...] = (
    "rts",
    "shrink_repair",
    "replication",
    "partial_restart",
)

#: Classified abort codes (distinct per pathology, asserted by tests).
ABORT_RING_ALONE = 61  # shrink left a single-rank ring
ABORT_SPARES_EXHAUSTED = 62  # partial restart ran out of spare ranks
ABORT_ROOT_LOST = 63  # partial restart does not restart the root slot
ABORT_REPLICAS_EXHAUSTED = 64  # both replicas of a logical rank died

#: Extra ring-communicator tags used by the protocol drivers (the core
#: ring owns 1-3; see :mod:`repro.core.messages`).
TAG_WATCHDOG = 9  # never carries data: ANY_SOURCE failure watchdog
TAG_RECOVER = 10  # neighbor-held state transfer to a recruited spare
TAG_RECRUIT = 11  # world-comm control: spare, join this slot
TAG_RETIRE = 12  # world-comm control: spare, job is done, exit
TAG_REPAIR = 13  # world-comm control: slot s is now world rank w


@dataclass(frozen=True)
class ProtocolRingConfig:
    """The logical ring workload, protocol-independent."""

    max_iter: int
    work_per_iter: float = 0.0


def protocol_report(
    *,
    rank: int,
    role: str,
    left: int,
    right: int,
    root: int,
    cur_marker: int,
    stats: RingStats,
    protocol: str,
    **extra: Any,
) -> dict[str, Any]:
    """Per-rank report in the :func:`repro.core.ring.ring_report` shape,
    plus the protocol name and protocol-specific fields."""
    out: dict[str, Any] = {
        "rank": rank,
        "role": role,
        "left": left,
        "right": right,
        "root": root,
        "cur_marker": cur_marker,
        "protocol": protocol,
    }
    out.update(stats.as_dict())
    out.update(extra)
    return out


def load_family(protocol: str) -> None:
    """Check *protocol* and import its family's module.

    Called where a run is set up (:class:`repro.parallel.RingScenario`,
    :func:`repro.protocols.run_compare_protocols`), so the process that
    forks the workers has the family loaded and no worker compiles it
    again in every round.  ``rts`` lives in :mod:`repro.core`.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol {protocol!r} (known: {PROTOCOLS})"
        )
    if protocol != "rts":
        importlib.import_module(f"{__package__}.{protocol}")


def ring_mains(
    protocol: str,
    cfg: ProtocolRingConfig,
    nprocs: int,
    *,
    spares: int = 2,
) -> tuple[int, "Callable[..., Any] | Sequence[Callable[..., Any]]"]:
    """Build the ``(physical nprocs, main-or-mains)`` pair for a protocol.

    ``nprocs`` is the *logical* ring size; replication doubles it and
    partial restart appends ``spares`` parked ranks.  The returned value
    plugs straight into :meth:`repro.simmpi.Simulation.run`.
    """
    if protocol == "shrink_repair":
        from .shrink_repair import make_shrink_repair_main

        return nprocs, make_shrink_repair_main(cfg)
    if protocol == "replication":
        from .replication import make_replication_mains

        return 2 * nprocs, make_replication_mains(cfg, nprocs)
    if protocol == "partial_restart":
        from .partial_restart import make_partial_restart_mains

        return nprocs + spares, make_partial_restart_mains(cfg, nprocs, spares)
    raise ValueError(
        f"unknown protocol {protocol!r} (known: {PROTOCOLS})"
    )
