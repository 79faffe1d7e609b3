"""``repro.fuzz`` — seeded schedule-space fuzzing with shrinking reproducers.

The exhaustive explorer (:mod:`repro.faults.explorer`) enumerates *fault
windows* but runs every scenario under one fixed scheduling policy and
exact LogGP costs, so schedule- and timing-dependent protocol bugs stay
invisible to it.  This package closes that gap:

* :class:`FuzzConfig` — one fully seeded perturbed run: a picklable
  scenario spec, a seeded scheduling policy, seeded timing jitter
  (:class:`~repro.simmpi.costmodel.JitteredCostModel`), and a fault
  schedule.  Serializes to the ``.repro.json`` replay format, so every
  failure is a one-command byte-identical reproduction.
* :func:`fuzz` — sample *N* configurations from a master seed, fan them
  out through the :class:`~repro.parallel.SweepRunner` engine (one
  picklable :class:`FuzzJob` each), classify outcomes with the standard
  invariant batteries, and shrink every failure.
* :func:`shrink` — delta-debugging minimizer: drop faults, zero jitter
  fields, and bisect seeds until the smallest configuration that still
  violates the invariant remains.
* :func:`replay` — re-run a saved configuration and check it reproduces
  the recorded violation byte-for-byte (trace digest + perf counters).

CLI: ``repro fuzz`` / ``repro replay`` (see ``docs/testing.md``).
"""

from .config import (
    FuzzConfig,
    JitterSpec,
    default_eligible_ranks,
    default_invariants,
    scenario_from_dict,
    scenario_to_dict,
    violations_of,
)
from .coverage import (
    CoverageJob,
    CoverageMap,
    CoverageOutcome,
    CoverageReport,
    coverage_cell,
    coverage_fuzz,
    mutate_config,
    shape_digest,
)
from .driver import (
    FuzzJob,
    FuzzOutcome,
    FuzzReport,
    ReplayResult,
    fuzz,
    iter_sample_configs,
    load_repro,
    perf_dict,
    replay,
    result_digest,
    sample_configs,
    write_repro,
)
from .shrink import ShrinkResult, shrink

__all__ = [
    "CoverageJob",
    "CoverageMap",
    "CoverageOutcome",
    "CoverageReport",
    "FuzzConfig",
    "FuzzJob",
    "FuzzOutcome",
    "FuzzReport",
    "JitterSpec",
    "ReplayResult",
    "ShrinkResult",
    "coverage_cell",
    "coverage_fuzz",
    "perf_dict",
    "default_eligible_ranks",
    "default_invariants",
    "fuzz",
    "iter_sample_configs",
    "load_repro",
    "mutate_config",
    "shape_digest",
    "replay",
    "result_digest",
    "sample_configs",
    "scenario_from_dict",
    "scenario_to_dict",
    "shrink",
    "violations_of",
    "write_repro",
]
