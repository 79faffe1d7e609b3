"""Deterministic run fingerprints shared by fuzz replay and the run cache.

One blake2b digest covers everything deterministic about a finished
simulation: the final virtual time, the full semantic trace (event keys,
in order), each rank's terminal state, and the perf counters minus the
host-side slots (the host seconds ``wall_s`` / ``setup_s`` /
``teardown_s`` and the ``fibers`` backend label — none is a property of
the simulation, and none may enter a digest or a report compared across
runs).

These helpers used to live in :mod:`repro.fuzz.driver`; they moved here
so the fuzzer's replay verification and the content-addressed sweep
cache (:mod:`repro.cache`) share a single definition.  The digest
composition is pinned by the literal vectors in ``tests/test_digest.py``
and by ``.repro.json`` expect blocks already written to disk — change it
only with a replay-format version bump.

The trace enters as the text ``repr(ev.key())`` of each record, each
followed by a NUL; :meth:`~repro.simmpi.trace.TraceEvent.key` is the
reference.  Building that tuple only to ``repr`` it was most of a cold
sweep job's digest, so records are formatted directly: all records of
one *shape* (kind plus detail names in insertion order) share a writer
that formats time, rank and the name-sorted values into exactly that
text.  A writer's source depends on the number of detail names alone —
the kind and the names are bound in as arguments — so no trace text (a
detail name read from a JSONL file, say) ever reaches the compiler.
Loaded traces are outside input, so the shape memo is bounded.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..simmpi.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simmpi.runtime import SimulationResult
    from ..simmpi.trace import Trace

__all__ = ["perf_dict", "result_digest"]

#: ``writer(time, rank, detail) -> repr(key)`` for one record shape.
Writer = Callable[[Any, Any, dict], str]

#: Records with more detail names than this, or with a name that is not
#: a ``str``, are written through ``TraceEvent.key`` itself (the kernel's
#: records carry at most six names).
_MAX_ARITY = 16
#: The shape memo is emptied when it reaches this many entries.
_PLAN_CAP = 1024

#: ``(kind value, *detail names in insertion order) -> writer``.
_plans: dict[tuple[Any, ...], Writer] = {}


def perf_dict(result: "SimulationResult") -> dict[str, Any]:
    """The run's perf counters minus the host-side slots: the host
    seconds (``wall_s``, ``setup_s``, ``teardown_s``) and ``fibers``
    (which fiber backend suspended the call stacks).  They describe the
    machine the run happened on, not the simulation — traces are
    byte-identical across backends, so digests, ``.repro.json`` expect
    blocks, and cache payloads must stay backend-independent."""
    if result.perf is None:
        return {}
    d = result.perf.as_dict()
    for name in result.perf.HOST_SECONDS:
        d.pop(name, None)
    d.pop("fibers", None)
    return d


@functools.lru_cache(maxsize=_MAX_ARITY + 1)
def _writer_factory(n: int) -> Callable[..., Writer]:
    """``factory(kind_repr, *name_reprs, *names)`` returning the writer
    of records with *n* detail names, given in sorted order."""
    reprs = [f"s{i}" for i in range(n)]
    names = [f"k{i}" for i in range(n)]
    pairs = ", ".join(
        "({%s}, {repr(d[%s])!r})" % pair for pair in zip(reprs, names)
    )
    params = ", ".join(["c", *reprs, *names])
    return eval(  # noqa: S307 - the source is built from *n* alone
        'lambda %s: lambda t, r, d: f"({t!r}, {c}, {r!r}, (%s%s))"'
        % (params, pairs, "," if n == 1 else "")
    )


def _plan(ev: TraceEvent) -> Writer:
    """Build and memoise the writer for *ev*'s shape."""
    kind = ev.kind
    names = tuple(ev.detail)
    if len(names) > _MAX_ARITY or any(type(k) is not str for k in names):
        def writer(t: Any, r: Any, d: dict) -> str:
            return repr(TraceEvent(t, kind, r, d).key())
    else:
        order = sorted(names)
        writer = _writer_factory(len(order))(
            repr(kind.value), *map(repr, order), *order
        )
    if len(_plans) >= _PLAN_CAP:
        _plans.clear()
    _plans[(kind._value_, *names)] = writer
    return writer


def _record_texts(events: Iterable[TraceEvent]) -> list[str]:
    """``repr(ev.key())`` of each record, without building the key."""
    plans = _plans
    texts: list[str] = []
    append = texts.append
    for ev in events:
        d = ev.detail
        # Keyed on the kind's value, not the member: ``Enum.__hash__``
        # is Python-level.
        writer = plans.get((ev.kind._value_, *d))
        if writer is None:
            writer = _plan(ev)
        append(writer(ev.time, ev.rank, d))
    return texts


def _update_trace(h: "hashlib._Hash", trace: "Trace") -> None:
    """Feed the trace's identity keys, in order, each NUL-terminated,
    into *h* (nothing for an empty trace)."""
    texts = _record_texts(trace)
    if texts:
        texts.append("")
        h.update("\x00".join(texts).encode())


def result_digest(result: "SimulationResult") -> str:
    """Stable fingerprint of everything deterministic about a run.

    Covers the final virtual time, the full semantic trace (event keys,
    in order), each rank's terminal state, and the perf counters (minus
    the host-side slots, see :func:`perf_dict`).  Two runs of the same
    config — serial, pooled, replayed from disk, or reconstructed from
    the sweep cache — must produce the same digest; that equality is what
    ``repro replay`` and ``repro cache verify`` assert.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<d", result.final_time))
    _update_trace(h, result.trace)
    for out in result.outcomes:
        h.update(f"{out.rank}:{out.state}".encode())
        h.update(b"\x00")
    for name, value in sorted(perf_dict(result).items()):
        h.update(f"{name}={value}".encode())
        h.update(b"\x00")
    return h.hexdigest()
