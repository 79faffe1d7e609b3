"""``repro.faults`` — deterministic fault injection and scenario coverage.

Three layers, in increasing thoroughness (paper §III-E):

* :mod:`~repro.faults.injector` — kill triggers (virtual time, n-th MPI
  call, named probe window, seeded random) attachable to a
  :class:`~repro.simmpi.runtime.Simulation`.
* :mod:`~repro.faults.campaign` — randomized campaigns over many seeds.
* :mod:`~repro.faults.explorer` — exhaustive enumeration of every
  reachable failure window (single and paired), with invariant checking:
  the "have I covered *all* scenarios?" tool the paper calls for.

The names below load on first use (:mod:`repro._lazy`): a campaign never
imports the explorer.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "campaign": ("CampaignReport", "CampaignRun", "run_campaign"),
    "explorer": (
        "ExplorationReport",
        "ScenarioOutcome",
        "Window",
        "enumerate_windows",
        "explore",
    ),
    "schedule": ("FailureSchedule", "KillSpec"),
    "injector": (
        "CompositeInjector",
        "FaultInjector",
        "KillAtCall",
        "KillAtProbe",
        "KillAtTime",
        "KillRandomly",
    ),
})
