"""``repro.protocols`` — recovery-protocol families beyond RTS.

The paper's run-through stabilization (RTS) ring is one point in the
FT-MPI design space.  This package implements the neighboring points as
first-class, scenario-pluggable strategies over the same simulated MPI,
so they can be compared head-to-head on identical fault schedules
(ROADMAP item 4):

``"rts"``
    The paper's model, unchanged: validate / recognized-failure
    semantics, implemented in :mod:`repro.core` (this package only
    routes to it).

``"shrink_repair"`` (:mod:`repro.protocols.shrink_repair`)
    ULFM-style: on failure, **revoke** the communicator, **agree** on
    the outcome, **shrink** to the survivors, and restart the broken
    iteration on the new communicator (Rocco & Palermo, 2209.01849).

``"replication"`` (:mod:`repro.protocols.replication`)
    Active rank replication (FTHP-MPI, 2504.09989): every logical rank
    runs twice; each send goes to both replicas of the destination and
    receivers de-duplicate by sequence number, so the loss of one
    replica is masked with **zero client-visible recovery gap**.

``"partial_restart"`` (:mod:`repro.protocols.partial_restart`)
    Checkpoint-free partial restart modeled on the SNIPPETS
    ``partial-restart.c`` ring: spare ranks are recruited into the
    failed slot of the *same* communicator (in-place reparation) and
    recover their counter from the neighbors that hold it.

Selection is by the ``protocol=`` knob on
:class:`repro.parallel.RingScenario`; the cross-protocol study lives in
:mod:`repro.protocols.compare` (``repro compare-protocols``).  The names
below load on first use (:mod:`repro._lazy`): a family's module is
imported only by a run that selects it.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": (
        "PROTOCOLS",
        "ABORT_REPLICAS_EXHAUSTED",
        "ABORT_RING_ALONE",
        "ABORT_ROOT_LOST",
        "ABORT_SPARES_EXHAUSTED",
        "ProtocolRingConfig",
        "ring_mains",
    ),
    "compare": (
        "CompareProtocolsReport",
        "ProtocolCompareJob",
        "run_compare_protocols",
    ),
    "partial_restart": ("make_partial_restart_mains",),
    "replication": ("ReplicatedRing", "make_replication_mains"),
    "shrink_repair": ("make_shrink_repair_main",),
})
