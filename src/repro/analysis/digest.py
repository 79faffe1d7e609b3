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
composition is pinned by ``.repro.json`` expect blocks already written
to disk — change it only with a replay-format version bump.
"""

from __future__ import annotations

import hashlib
import struct
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simmpi.runtime import SimulationResult
    from ..simmpi.trace import Trace

__all__ = ["perf_dict", "result_digest", "trace_digest"]


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


def _update_trace(h: "hashlib._Hash", trace: "Trace") -> None:
    """Feed the trace's identity keys, in order, into *h*."""
    for key in trace.keys():
        h.update(repr(key).encode())
        h.update(b"\x00")


def trace_digest(trace: "Trace") -> str:
    """Stable fingerprint of a trace alone (event keys, in order)."""
    h = hashlib.blake2b(digest_size=16)
    _update_trace(h, trace)
    return h.hexdigest()


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
