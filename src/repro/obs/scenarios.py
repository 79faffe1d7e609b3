"""Named scenario presets for ``repro trace``.

The paper's message-sequence figures each correspond to one small,
deterministic run; these presets rebuild them, traced, for the
exporters:

=========  ==========================================================
``fig2``   clean baseline ring (4 ranks, 3 iterations, no failures)
``fig6``   naive receive + root-bcast termination, rank 2 killed at
           its 2nd ``post_recv`` window — the proven hang
``fig7``   ft_marker ring under the same kill — failure detected,
           ring repaired, run completes
``fig8``   ft_no_marker ring, rank 2 killed at its 2nd ``post_send``
           with nonzero detection latency — the duplicate pathology
``ring``/``heat``/``farm``/``abft``  the bundled workloads at their
           CLI default sizes, failure-free
``shrink``/``replication``/``restart``  the fig7 shape (4 logical
           ranks, 4 iterations, rank 2 fail-stopped mid-run) driven by
           the alternative recovery families of :mod:`repro.protocols`
           instead of run-through stabilization
=========  ==========================================================

Each preset returns ``(sim, main, nprocs)``; run with
``on_deadlock="return"`` (fig6 hangs by design).
"""

from __future__ import annotations

from typing import Any

from ..simmpi import Simulation

__all__ = ["SCENARIOS", "make_scenario"]

#: Preset names, in help-text order.
SCENARIOS = (
    "fig2",
    "fig6",
    "fig7",
    "fig8",
    "ring",
    "heat",
    "farm",
    "abft",
    "shrink",
    "replication",
    "restart",
)

#: Preset name -> protocol family, for the recovery-protocol presets.
_PROTOCOL_PRESETS = {
    "shrink": "shrink_repair",
    "replication": "replication",
    "restart": "partial_restart",
}


def make_scenario(
    name: str,
    *,
    trace_cap: int | None = None,
) -> tuple[Simulation, Any, int]:
    """Build the named preset; returns ``(sim, main, nprocs)``."""
    from ..core import (
        RingConfig,
        RingVariant,
        Termination,
        make_ring_main,
    )
    from ..faults import FailureSchedule

    def sim_for(nprocs: int, **kw: Any) -> Simulation:
        return Simulation(nprocs=nprocs, trace_cap=trace_cap, **kw)

    if name == "fig2":
        cfg = RingConfig(max_iter=3, variant=RingVariant.BASELINE)
        return sim_for(4), make_ring_main(cfg), 4

    if name in ("fig6", "fig7", "fig8"):
        variant = {
            "fig6": RingVariant.NAIVE,
            "fig7": RingVariant.FT_MARKER,
            "fig8": RingVariant.FT_NO_MARKER,
        }[name]
        probe = "post_send" if name == "fig8" else "post_recv"
        latency = 2e-6 if name == "fig8" else 0.0
        cfg = RingConfig(
            max_iter=4, variant=variant, termination=Termination.ROOT_BCAST
        )
        sim = sim_for(4, detection_latency=latency)
        sched = FailureSchedule()
        sched.at_probe(2, probe, 2)
        sim.add_injector(sched.injector())
        return sim, make_ring_main(cfg), 4

    if name == "ring":
        cfg = RingConfig(max_iter=6)
        return sim_for(8), make_ring_main(cfg), 8

    if name == "heat":
        from ..apps import HeatConfig, make_heat_main

        return sim_for(6), make_heat_main(HeatConfig()), 6

    if name == "farm":
        from ..apps import FarmConfig, make_farm_mains

        return sim_for(5), make_farm_mains(FarmConfig(), 5), 5

    if name == "abft":
        from ..apps import AbftConfig, make_abft_main

        return sim_for(5), make_abft_main(AbftConfig()), 5

    if name in _PROTOCOL_PRESETS:
        from ..faults.injector import KillAtTime
        from ..protocols import ProtocolRingConfig, ring_mains

        nproc, main = ring_mains(
            _PROTOCOL_PRESETS[name], ProtocolRingConfig(max_iter=4), 4
        )
        sim = sim_for(nproc, detection_latency=2e-6)
        sim.add_injector(KillAtTime(rank=2, time=1.5e-5))
        return sim, main, nproc

    raise ValueError(f"unknown scenario {name!r} (known: {SCENARIOS})")
