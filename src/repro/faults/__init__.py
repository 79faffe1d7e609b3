"""``repro.faults`` — deterministic fault injection and scenario coverage.

Three layers, in increasing thoroughness (paper §III-E):

* :mod:`~repro.faults.injector` — kill triggers (virtual time, n-th MPI
  call, named probe window, seeded random) attachable to a
  :class:`~repro.simmpi.runtime.Simulation`.
* :mod:`~repro.faults.campaign` — randomized campaigns over many seeds.
* :mod:`~repro.faults.explorer` — exhaustive enumeration of every
  reachable failure window (single and paired), with invariant checking:
  the "have I covered *all* scenarios?" tool the paper calls for.
"""

from .campaign import CampaignReport, CampaignRun, run_campaign
from .explorer import (
    ExplorationReport,
    ScenarioOutcome,
    Window,
    enumerate_windows,
    explore,
    run_window,
)
from .schedule import FailureSchedule, KillSpec
from .injector import (
    CompositeInjector,
    FaultInjector,
    KillAtCall,
    KillAtProbe,
    KillAtTime,
    KillRandomly,
)

__all__ = [
    "CampaignReport",
    "CampaignRun",
    "CompositeInjector",
    "ExplorationReport",
    "FailureSchedule",
    "FaultInjector",
    "KillAtCall",
    "KillAtProbe",
    "KillAtTime",
    "KillRandomly",
    "KillSpec",
    "ScenarioOutcome",
    "Window",
    "enumerate_windows",
    "explore",
    "run_campaign",
    "run_window",
]
