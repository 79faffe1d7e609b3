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
reference.  Records are formatted straight from the trace's rows,
without building a view or a key: the writer of a shape id formats the
time text, the rank and the name-sorted values into exactly that text.
The writers of the kernel's shapes (:data:`~repro.simmpi.trace.SHAPES`)
are built once, and those of the shapes a trace interned for itself —
``proc.log`` names, a loaded JSONL file — per digest, so nothing outside
the trace grows with outside input.  A writer's source depends on the
number of detail names alone — the kind, the names and their positions
are bound in as arguments — so no trace text ever reaches the compiler.
Only 150 of a sweep run's ~340 times are distinct, so ``repr(time)`` is
memoised per trace, for non-zero floats only: ``0.0`` and ``-0.0``, and
``1``, ``1.0`` and ``True``, are equal dict keys with different reprs.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..simmpi.trace import SHAPES, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simmpi.runtime import SimulationResult
    from ..simmpi.trace import Shape, Trace

__all__ = ["perf_dict", "result_digest"]

#: ``writer(time text, row) -> repr(key)`` for the rows of one shape.
Writer = Callable[[str, tuple], str]

#: Shapes with more detail names than this are written through
#: ``TraceEvent.key`` itself (the kernel's carry at most six).
_MAX_ARITY = 16


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
    """``factory(kind_repr, *name_reprs, *row_indices)`` returning the
    writer of rows with *n* detail values, names given in sorted order."""
    reprs = [f"s{i}" for i in range(n)]
    indices = [f"i{i}" for i in range(n)]
    pairs = ", ".join(
        "({%s}, {repr(w[%s])!r})" % pair for pair in zip(reprs, indices)
    )
    params = ", ".join(["c", *reprs, *indices])
    return eval(  # noqa: S307 - the source is built from *n* alone
        'lambda %s: lambda t, w: f"({t}, {c}, {w[2]!r}, (%s%s))"'
        % (params, pairs, "," if n == 1 else "")
    )


def _writer(shape: "Shape") -> Writer:
    kind, names = shape
    if len(names) > _MAX_ARITY:
        def writer(t: str, w: tuple) -> str:
            detail = dict(zip(names, w[3:]))
            return repr(TraceEvent(w[0], kind, w[2], detail).key())
        return writer
    order = sorted(range(len(names)), key=names.__getitem__)
    return _writer_factory(len(names))(
        repr(kind.value),
        *(repr(names[i]) for i in order),
        *(3 + i for i in order),
    )


@functools.cache
def _kernel_writers() -> tuple[Writer, ...]:
    """The writers of :data:`SHAPES`, by shape id."""
    return tuple(map(_writer, SHAPES))


def _writers(shapes: "Sequence[Shape]") -> tuple[Writer, ...]:
    """The writer of each shape id of a trace's table."""
    kernel = _kernel_writers()
    if len(shapes) == len(kernel):
        return kernel
    return (*kernel, *map(_writer, shapes[len(kernel):]))


def _record_texts(trace: "Trace") -> list[str]:
    """``repr(ev.key())`` of each record, without building the key."""
    writers = _writers(trace.shapes)
    times: dict[float, str] = {}
    texts: list[str] = []
    append = texts.append
    for w in trace.rows:
        t = w[0]
        if type(t) is float and t:
            text = times.get(t)
            if text is None:
                text = times[t] = repr(t)
        else:
            text = repr(t)
        append(writers[w[1]](text, w))
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
