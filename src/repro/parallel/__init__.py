"""``repro.parallel`` — the process-pool sweep engine.

Fault-injection campaigns, the exhaustive window explorer, and the
fuzzer all execute many fully independent deterministic
simulations; this package runs such batches across a process pool while
guaranteeing that the merged results are **bit-identical to serial
order** (jobs are deterministic; results are placed by submission index,
never by completion order).

Layers:

* :mod:`~repro.parallel.runner` — :class:`SweepRunner` (whose
  ``run()`` puts the run cache, when one is set, in front of every
  runner, in the submitting process), :class:`SerialRunner`,
  :class:`ProcessPoolRunner` (chunked scheduling, per-job timeout,
  bounded retries for wedged workers), :func:`make_runner` /
  :func:`with_cache`, and :func:`sweep`, the one driver behind
  ``explore``, ``run_campaign``, ``fuzz`` and ``run_compare_protocols``
  (streamed or materialized, with or without telemetry).
* :mod:`~repro.parallel.transport` — the transport seam: the generic
  scheduling loop delegates chunk execution to a pluggable
  :class:`Transport` (local process pool, socket fleet), and
  ``run_chunk`` / ``run_jobs_traced``, the one place a job executes
  under a span.
* :mod:`~repro.parallel.remote` — the distributed backend:
  :class:`WorkerServer` (``repro worker serve``) and
  :class:`RemoteRunner` over length-prefixed compressed-pickle frames
  (``repro.remote/2``) with heartbeat liveness.
* :mod:`~repro.parallel.jobs` — the picklable job model
  (:class:`SimJob`, invariant specs) that lets scenario descriptions
  cross a process boundary.
* :mod:`~repro.parallel.scenarios` — picklable scenario/invariant specs
  for the bundled workloads (:class:`RingScenario`,
  :class:`StandardRingInvariants`).

See ``docs/parallel.md`` for the determinism and timeout/retry contract.
"""

from .jobs import (
    Invariant,
    ScenarioFactory,
    SimJob,
    check_invariants,
    resolve_invariants,
)
from .remote import (
    RemoteRunner,
    RemoteTransport,
    WorkerServer,
    parse_worker_addrs,
)
from .runner import (
    ProcessPoolRunner,
    SerialRunner,
    SweepError,
    SweepJob,
    SweepRunner,
    TransportRunner,
    make_runner,
    sweep,
    with_cache,
)
from .transport import LocalPoolTransport, Transport
from .scenarios import (
    AppScenario,
    GenericInvariants,
    RingScenario,
    StandardRingInvariants,
)

__all__ = [
    "AppScenario",
    "GenericInvariants",
    "Invariant",
    "LocalPoolTransport",
    "ProcessPoolRunner",
    "RemoteRunner",
    "RemoteTransport",
    "RingScenario",
    "ScenarioFactory",
    "SerialRunner",
    "SimJob",
    "StandardRingInvariants",
    "SweepError",
    "SweepJob",
    "SweepRunner",
    "Transport",
    "TransportRunner",
    "WorkerServer",
    "check_invariants",
    "make_runner",
    "parse_worker_addrs",
    "resolve_invariants",
    "sweep",
    "with_cache",
]
