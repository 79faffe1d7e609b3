"""Communication cost models for the simulated network.

The default model is LogGP-flavoured [Alexandrov et al. 1995]:

* ``o``  — CPU overhead paid by the sender (and receiver) per message,
* ``L``  — wire latency between any pair of ranks,
* ``G``  — per-byte gap (inverse bandwidth).

A message of ``n`` bytes posted at sender-local time ``t`` occupies the
sender until ``t + o`` and arrives at the receiver at
``t + o + L + n * G``.  The model is deliberately simple — the paper's
content is protocol *behaviour*, not absolute performance — but it is
pluggable so benchmarks can sweep latency/bandwidth regimes.

:class:`JitteredCostModel` perturbs any of the three parameters with a
**seeded, per-message** multiplicative factor so the schedule-space
fuzzer (:mod:`repro.fuzz`) can explore timing-dependent interleavings;
the perturbation is a pure function of ``(jitter_seed, component, src,
dst, occurrence)``, so a run under jitter is exactly as reproducible as
one without.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Uniform LogGP-style cost model.

    Parameters
    ----------
    latency:
        Wire latency ``L`` in virtual seconds.
    byte_cost:
        Per-byte gap ``G`` in virtual seconds/byte.
    overhead:
        Per-message CPU overhead ``o`` in virtual seconds.
    """

    latency: float = 1e-6
    byte_cost: float = 1e-9
    overhead: float = 2e-7

    def __post_init__(self) -> None:
        if self.latency < 0 or self.byte_cost < 0 or self.overhead < 0:
            raise ValueError("cost model parameters must be non-negative")

    def send_overhead(self, src: int, dst: int, nbytes: int) -> float:
        """CPU time the sender spends injecting one message."""
        return self.overhead

    def recv_overhead(self, src: int, dst: int, nbytes: int) -> float:
        """CPU time the receiver spends extracting one message."""
        return self.overhead

    def transit_time(self, src: int, dst: int, nbytes: int) -> float:
        """Time from injection completion to arrival at the destination."""
        return self.latency + nbytes * self.byte_cost


def _unit_hash(seed: int, component: int, src: int, dst: int, occ: int) -> float:
    """Stable uniform draw in ``[0, 1)`` from a fully explicit key.

    Built on BLAKE2b rather than Python's salted ``hash`` so the same key
    yields the same draw in every process — a pooled fuzz worker and a
    local replay must agree byte-for-byte.
    """
    digest = hashlib.blake2b(
        struct.pack("<qqqqq", seed, component, src, dst, occ), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2.0**64


#: Component ids feeding :func:`_unit_hash` (stable; serialized in seeds).
_JIT_SEND, _JIT_RECV, _JIT_LATENCY, _JIT_BYTE = 0, 1, 2, 3


@dataclass(frozen=True)
class JitteredCostModel(CostModel):
    """Seeded multiplicative timing jitter around the uniform LogGP model.

    Each send overhead, receive overhead, and transit time is scaled by
    an independent factor ``1 + a * (2u - 1)`` where ``a`` is the
    component's jitter amplitude (``0 <= a <= 1``) and ``u`` is a stable
    hash of ``(jitter_seed, component, src, dst, occurrence)``.  The
    occurrence counter makes repeated messages on the same channel see
    *different* perturbations, while keeping the whole run a pure
    function of the seed: the simulator issues cost-model calls in a
    deterministic order, so the counters — and therefore every factor —
    replay exactly.

    A model with all amplitudes zero produces factors of exactly ``1.0``
    and is byte-identical to the plain :class:`CostModel`.

    Instances carry occurrence counters, so build a **fresh model per
    simulation** (the fuzzer's config layer does); a reused instance
    would continue its counters where the previous run left off.
    """

    jitter_seed: int = 0
    overhead_jitter: float = 0.0
    latency_jitter: float = 0.0
    byte_cost_jitter: float = 0.0
    #: Per-(component, src, dst) occurrence counters (mutable bookkeeping
    #: inside a frozen spec; excluded from equality).
    _counts: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("overhead_jitter", "latency_jitter", "byte_cost_jitter"):
            a = getattr(self, name)
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")

    def _factor(self, amplitude: float, component: int, src: int, dst: int) -> float:
        if amplitude == 0.0:
            return 1.0
        key = (component, src, dst)
        occ = self._counts.get(key, 0)
        self._counts[key] = occ + 1
        u = _unit_hash(self.jitter_seed, component, src, dst, occ)
        return 1.0 + amplitude * (2.0 * u - 1.0)

    def send_overhead(self, src: int, dst: int, nbytes: int) -> float:
        return self.overhead * self._factor(self.overhead_jitter, _JIT_SEND, src, dst)

    def recv_overhead(self, src: int, dst: int, nbytes: int) -> float:
        return self.overhead * self._factor(self.overhead_jitter, _JIT_RECV, src, dst)

    def transit_time(self, src: int, dst: int, nbytes: int) -> float:
        lat = self.latency * self._factor(self.latency_jitter, _JIT_LATENCY, src, dst)
        per_byte = self.byte_cost * self._factor(
            self.byte_cost_jitter, _JIT_BYTE, src, dst
        )
        return lat + nbytes * per_byte


#: A cost model in which every operation is free.  Useful for tests that
#: reason purely about orderings (all timestamps collapse to event order).
ZERO_COST = CostModel(latency=0.0, byte_cost=0.0, overhead=0.0)

#: The default model used by :class:`~repro.simmpi.runtime.Simulation`.
DEFAULT_COST = CostModel()
