"""Picklable scenario and invariant specs for the bundled workloads.

The CLI and the benchmarks used to describe scenarios as closures; a
process-pool sweep needs descriptions that *pickle*.  These dataclasses
are that serialization layer: plain-data fields in, ``(Simulation,
main)`` out, built fresh inside whichever process runs the job.

Enum-valued knobs are stored as their string values so a pickled spec
stays readable and stable across refactors of the enum classes.

What a spec runs is imported where the spec is built — the invariant
batteries with this module, a protocol family, the root-failure driver
or the apps by the scenario that selects them — so a forked worker that
runs it imports nothing itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..analysis.invariants import (
    no_hang,
    standard_ring_invariants,
    survivors_done,
)
from .. import core
from ..core import RingConfig, RingVariant, Termination, make_ring_main
from ..simmpi import Simulation
from .jobs import Invariant


@dataclass(frozen=True)
class RingScenario:
    """Picklable factory for the paper's ring in any design variant.

    Calling the instance returns a fresh ``(Simulation, main)`` pair —
    the :data:`~repro.parallel.jobs.ScenarioFactory` contract used by
    :func:`repro.faults.run_campaign` and :func:`repro.faults.explore`.
    """

    nprocs: int = 8
    iters: int = 6
    variant: str = RingVariant.FT_MARKER.value
    termination: str = Termination.VALIDATE_ALL.value
    rootft: bool = False
    seed: int = 0
    detection_latency: float = 0.0
    work_per_iter: float = 0.0
    #: Recovery protocol family (see :mod:`repro.protocols`): ``"rts"``
    #: runs the paper's ring; the other families share the same logical
    #: workload but recover differently.  ``nprocs`` stays the *logical*
    #: ring size — replication runs ``2 * nprocs`` physical ranks and
    #: partial restart ``nprocs + spares``.  The field participates in
    #: the run-cache key (``repro.cache.keys`` hashes every spec field),
    #: so an RTS outcome is never served for another protocol.
    protocol: str = "rts"
    #: Spare ranks for ``protocol="partial_restart"`` (ignored otherwise).
    spares: int = 2

    def __post_init__(self) -> None:
        from ..protocols.base import load_family

        load_family(self.protocol)
        if self.rootft:
            if self.protocol != "rts":
                raise ValueError("rootft applies to the rts protocol only")
            # The driver loads where the spec is built, as the apps do.
            from ..core import rootft  # noqa: F401

    def __call__(self) -> tuple[Simulation, Any]:
        if self.protocol != "rts":
            from ..protocols import ProtocolRingConfig, ring_mains

            nproc, main = ring_mains(
                self.protocol,
                ProtocolRingConfig(
                    max_iter=self.iters, work_per_iter=self.work_per_iter
                ),
                self.nprocs,
                spares=self.spares,
            )
            sim = Simulation(
                nprocs=nproc,
                seed=self.seed,
                detection_latency=self.detection_latency,
            )
            return sim, main
        cfg = RingConfig(
            max_iter=self.iters,
            variant=RingVariant(self.variant),
            termination=Termination(self.termination),
            work_per_iter=self.work_per_iter,
        )
        main = core.make_rootft_main(cfg) if self.rootft else make_ring_main(cfg)
        sim = Simulation(
            nprocs=self.nprocs,
            seed=self.seed,
            detection_latency=self.detection_latency,
        )
        return sim, main


#: App name -> builder, so :class:`AppScenario` stays a plain-data spec.
_APP_BUILDERS = {
    "heat1d": "_build_heat1d",
    "ring_allreduce": "_build_ring_allreduce",
    "abft_matvec": "_build_abft_matvec",
    "manager_worker": "_build_manager_worker",
}


@dataclass(frozen=True)
class AppScenario:
    """Picklable factory for the bundled domain applications.

    The same :data:`~repro.parallel.jobs.ScenarioFactory` contract as
    :class:`RingScenario`, covering the four workloads under
    :mod:`repro.apps`.  ``size`` and ``steps`` map onto each app's
    natural knobs:

    =================  =======================  ==================
    app                ``size``                 ``steps``
    =================  =======================  ==================
    heat1d             cells per rank           diffusion steps
    ring_allreduce     vector length            allreduce rounds
    abft_matvec        rows per rank            matvec iterations
    manager_worker     number of tasks          (unused)
    =================  =======================  ==================
    """

    app: str
    nprocs: int = 6
    size: int = 8
    steps: int = 5
    seed: int = 0
    detection_latency: float = 0.0
    #: The bundled apps implement their fault tolerance natively in RTS
    #: terms (validate / recognized-failure semantics); the alternative
    #: protocol families of :mod:`repro.protocols` are ring-workload
    #: strategies and do not retrofit onto them.  The field exists so app
    #: and ring specs share one knob vocabulary (and one cache-key
    #: surface), but only ``"rts"`` is accepted.
    protocol: str = "rts"

    def __post_init__(self) -> None:
        if self.app not in _APP_BUILDERS:
            raise ValueError(
                f"unknown app {self.app!r} (known: {sorted(_APP_BUILDERS)})"
            )
        if self.protocol != "rts":
            raise ValueError(
                f"app scenarios support protocol='rts' only, got "
                f"{self.protocol!r}; the alternative families in "
                "repro.protocols are ring strategies"
            )
        # The apps (and numpy) load where the spec is built, so a forked
        # worker that runs it imports nothing itself.
        from .. import apps  # noqa: F401

    def __call__(self) -> tuple[Simulation, Any]:
        sim = Simulation(
            nprocs=self.nprocs,
            seed=self.seed,
            detection_latency=self.detection_latency,
        )
        return sim, getattr(self, _APP_BUILDERS[self.app])()

    def _build_heat1d(self) -> Any:
        from ..apps import HeatConfig, make_heat_main

        return make_heat_main(
            HeatConfig(cells_per_rank=self.size, steps=self.steps)
        )

    def _build_ring_allreduce(self) -> Any:
        from ..apps import AllreduceConfig, make_allreduce_main

        return make_allreduce_main(
            AllreduceConfig(vector_len=self.size, rounds=self.steps)
        )

    def _build_abft_matvec(self) -> Any:
        from ..apps import AbftConfig, make_abft_main

        return make_abft_main(
            AbftConfig(rows_per_rank=self.size, iterations=self.steps)
        )

    def _build_manager_worker(self) -> Any:
        from ..apps import FarmConfig, make_farm_mains

        return make_farm_mains(FarmConfig(num_tasks=self.size), self.nprocs)


@dataclass(frozen=True)
class StandardRingInvariants:
    """Picklable stand-in for :func:`repro.analysis.standard_ring_invariants`.

    The underlying battery contains closures (which cannot pickle), so
    this spec carries only the parameters and rebuilds the battery inside
    the worker — the *invariant factory* form of
    :data:`repro.parallel.jobs.InvariantSpec`.
    """

    max_iter: int
    nprocs: int
    allow_root_loss: bool = False

    #: The battery classifies from rank outcomes and result flags alone
    #: (see :func:`repro.parallel.jobs.trace_needed`).  A class
    #: attribute, not a field: it is no part of the spec's identity.
    reads_trace = False

    def __call__(self) -> list[Invariant]:
        return standard_ring_invariants(
            self.max_iter, self.nprocs, allow_root_loss=self.allow_root_loss
        )


@dataclass(frozen=True)
class GenericInvariants:
    """Workload-agnostic battery: no hang, and every survivor finishes.

    The fuzzer's default classification for the domain apps, whose
    correctness contracts beyond liveness are app-specific (and live in
    their own test modules).
    """

    #: See :func:`repro.parallel.jobs.trace_needed`.
    reads_trace = False

    def __call__(self) -> list[Invariant]:
        return [no_hang, survivors_done]
