"""The sweep job model: picklable descriptions of one simulation each.

Fan-out across a process pool forces a real serialization layer: a job
cannot be a bare closure, because closures do not pickle.  A sweep job
is any picklable zero-argument callable returning a picklable value.
The four bundled kinds (campaign, window, protocol comparison and fuzz
jobs) are dataclasses that share one run-and-classify path,
:class:`~repro.faults.campaign.ClassifiedJob`: build the simulation,
attach the kind's kills, run, apply the invariants, and reduce the
result to the kind's compact record inside the worker, so no trace
ships home.  The contract for what a job holds:

* a **scenario factory** is a picklable zero-argument callable returning
  ``(Simulation, main)`` — a module-level function, a
  ``functools.partial`` over one, or a dataclass instance with
  ``__call__`` (see :mod:`repro.parallel.scenarios`).  The factory itself
  crosses the process boundary; whatever it *returns* (closures included)
  never does — it is built and consumed inside the worker.
* **invariants** may be given either as a sequence of picklable callables
  or as a single picklable *invariant factory* — a zero-argument callable
  returning the sequence, resolved worker-side.  The factory form lets
  closure-built batteries like
  :func:`repro.analysis.standard_ring_invariants` ride along (wrap them
  in :class:`repro.parallel.scenarios.StandardRingInvariants`).
* whether a run **records a trace** is worked out from who will read it,
  never set by hand: :func:`trace_needed` is the one rule, and the
  shared run switches the simulation's trace off before ``sim.run``
  exactly when it says no.  A trace has four possible readers — the
  caller (``keep_results=True`` hands the whole result back), the run
  cache (``cache_payload()`` stores a digest that fingerprints the
  trace), the record itself (a fuzz outcome carries the digest), and
  the invariants.  An invariant spec that never touches
  ``result.trace`` says so with a plain class attribute ``reads_trace =
  False`` (the two bundled batteries in :mod:`repro.parallel.scenarios`
  do; ``tests/test_trace_need.py`` runs them against a trace that
  raises on any read); any other callable or non-empty sequence is
  assumed to read it and gets the full trace.

**Cache contract** (consumed by :mod:`repro.cache`): a job whose
classified outcome can be reused across sweeps provides

* ``cache_payload() -> (outcome, payload)`` — execute the job once and
  return both its normal result and a JSON-able dict capturing the
  classified outcome (violations, hang/abort flags, result digest, final
  time, perf counters minus ``wall_s``).  Called *where the trace
  exists* (worker-side under a pool), so digests are cheap;
* ``from_cached(payload) -> outcome`` — reconstruct the normal result
  from a payload that has been through a JSON round-trip.  Must be
  *exact*: a warm sweep's report is byte-identical to a cold one;
* optionally ``cacheable`` (property) — ``False`` vetoes caching for a
  particular instance (e.g. ``keep_results=True``, where the caller
  needs the full trace-bearing result that the cache never stores);
* optionally ``_cache_key_exclude`` (class attr) — field names left out
  of the cache key (display-only fields like a submission index);
* optionally ``replay_keys`` (class attr, a tuple of payload keys) —
  every key ``from_cached`` reads.  A warm hit then parses only those:
  the store's ``payload`` column holds that subset, while the stored
  entry keeps the whole payload for ``repro cache verify``.  A job
  without it (e.g. :class:`~repro.fuzz.driver.FuzzJob`, whose
  ``from_cached`` reads every key) replays the whole payload.  Name a
  key here whenever ``from_cached`` starts to read it.

:class:`~repro.faults.campaign.ClassifiedJob` implements
``cache_payload`` and ``cacheable`` once; each kind adds its
``from_cached``.  The key itself is derived in :mod:`repro.cache.keys`
from the job's dataclass fields plus version and mutation salts; a job
without the contract simply always executes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence, Union

if TYPE_CHECKING:
    from ..simmpi.runtime import Simulation, SimulationResult

#: Builds a fresh, un-run Simulation plus its per-rank main(s).
#: (Must be picklable to cross a process boundary.)
ScenarioFactory = Callable[[], "tuple[Simulation, Any]"]

#: An invariant inspects a result and returns a violation message or None.
Invariant = Callable[["SimulationResult"], "str | None"]

#: Invariants, given directly or via a worker-side factory.
InvariantSpec = Union[Sequence[Invariant], Callable[[], Sequence[Invariant]]]


def resolve_invariants(spec: Any) -> tuple[Invariant, ...]:
    """Materialize an :data:`InvariantSpec` into a tuple of invariants.

    A sequence passes through; a callable (never itself a sequence) is
    invoked — this is what lets a picklable factory stand in for a list
    of closures on the far side of a process boundary.
    """
    if spec is None:
        return ()
    if callable(spec):
        return tuple(spec())
    return tuple(spec)


def trace_needed(
    invariants: Any, *, keep_results: bool, digest: bool
) -> bool:
    """Does anybody read the trace of the run this job is about to do?

    Yes iff the job returns the result (``keep_results``), or is
    executing through ``cache_payload()`` (``digest`` — the stored
    digest fingerprints the trace), or its invariant spec might look:
    an empty spec reads nothing, a spec declaring ``reads_trace =
    False`` has promised not to, anything else is assumed to.
    """
    if keep_results or digest:
        return True
    if not callable(invariants) and not invariants:
        return False
    return getattr(invariants, "reads_trace", True)


def check_invariants(
    spec: Any, result: SimulationResult
) -> list[str]:
    """Apply a resolved invariant battery, collecting violation messages."""
    return [
        v for inv in resolve_invariants(spec) if (v := inv(result)) is not None
    ]


#: The outcome classes of a sweep job, in report-column order: the one
#: vocabulary of telemetry lines, job spans and ``repro report``.
OUTCOMES = ("ok", "hang", "violation", "abort")


def outcome_of(hung: bool, violations: Any, aborted: bool) -> str:
    """The one classification rule of a sweep job's run: a hang
    outranks an invariant violation, which outranks an abort.  The
    classes are :data:`OUTCOMES`."""
    if hung:
        return "hang"
    if violations:
        return "violation"
    if aborted:
        return "abort"
    return "ok"


def outcome_class(value: Any) -> str:
    """Classify a sweep result: its ``outcome`` string when it carries
    one (``ProtocolRunRecord``), else :func:`outcome_of` over the fields
    the other job shapes share (``ScenarioOutcome``, ``CampaignRun``,
    ``FuzzOutcome``)."""
    outcome = getattr(value, "outcome", None)
    if isinstance(outcome, str):
        return outcome
    return outcome_of(
        getattr(value, "hung", False),
        getattr(value, "violations", ()),
        getattr(value, "aborted", False),
    )
