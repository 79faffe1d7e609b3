"""Message envelopes and the per-process matching engine.

MPI matching semantics implemented here:

* A receive matches on ``(source, tag, context)`` with ``ANY_SOURCE`` /
  ``ANY_TAG`` wildcards.
* **Non-overtaking**: two messages sent on the same (source, destination,
  context) channel match posted receives in send order.  The transport
  enforces in-order delivery per channel, and the matching engine selects
  the *oldest* candidate (post order for receives, arrival order for
  unexpected messages), so the combination preserves MPI's rule.
* Messages arriving before a matching receive is posted park in the
  *unexpected queue*; receives posted with no matching arrival park in the
  *posted queue*.

Queues are **indexed by ``(source, tag)``** within each context: the
common non-wildcard receive resolves in one dict lookup instead of a
front-to-back scan, and an arriving message consults at most the four
posted buckets that could accept it (exact, source-wildcard,
tag-wildcard, both-wildcard).  Every queued entry carries a monotone
sequence number — post order for receives, arrival order for messages —
and cross-bucket candidates are decided by the minimum sequence, which
reproduces the old linear scan's earliest-first choice *exactly* (the
scan visited entries in exactly that order).  Within one bucket all
entries match the same criteria, so the head of its FIFO deque is always
the only candidate; per-channel in-order delivery makes that head the
lowest ``msg_id`` too, which is what non-overtaking requires.  Once
created, a bucket lives as long as its engine: a match leaves it empty
rather than deleting it, so the next receive posted on the channel
costs no new deque and no dict insert.

While a process has **no wildcard receive posted**, an arrival can only
match its exact ``(source, tag)`` bucket, so :meth:`MatchingEngine.deliver`
takes that bucket directly instead of comparing four.  The engine keeps
the count of posted receives whose source or tag is a wildcard: every
path by which a receive enters the posted queue (:meth:`post_recv`) or
leaves it (a match in :meth:`deliver`, :meth:`cancel_recv` — which the
runtime's cancel, detector sweep and revocation all go through) updates
it.  A count that ran low would let an exact match overtake an older
wildcard receive; ``tests/test_property_matching.py`` checks every
match against a linear scan and the count against the queue.

The engine is purely mechanical — failure semantics (erroring pending
receives whose peer died) live in the runtime, which owns the failure
knowledge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .constants import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .request import Request


@dataclass(slots=True)
class Message:
    """One message envelope traveling through the simulated network."""

    src: int
    dst: int
    tag: int
    context: int
    payload: Any
    nbytes: int
    #: Per-simulation send order (assigned by the runtime; deterministic).
    msg_id: int = 0
    #: Sender-local virtual time when the send was posted.
    send_time: float = 0.0
    #: Virtual time the message reaches the destination's queues.
    deliver_time: float = 0.0


class MatchingEngine:
    """Posted-receive and unexpected-message queues for one process.

    Queues are keyed by context id so that traffic on different
    communicators (and on the hidden collective contexts) never
    interferes; within a context they are indexed by ``(source, tag)``
    (see the module docstring for the candidate-selection rule).
    """

    __slots__ = ("rank", "_unexpected", "_posted", "_useq", "_pseq", "_wild")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        #: context -> (src, tag) -> deque[(arrival_seq, Message)]
        self._unexpected: dict[int, dict[tuple[int, int], deque]] = {}
        #: context -> (peer, tag) -> deque[(post_seq, Request)]
        self._posted: dict[int, dict[tuple[int, int], deque]] = {}
        self._useq = 0  # arrival order of unexpected messages
        self._pseq = 0  # post order of receives
        self._wild = 0  # posted receives with a wildcard source or tag

    # -- arrival path -----------------------------------------------------

    def deliver(self, msg: Message) -> "Request | None":
        """Offer an arriving message to the posted queue.

        Returns the matched receive request (not yet completed — the
        runtime completes it so it can stamp times and traces), or ``None``
        if the message was queued as unexpected.
        """
        buckets = self._posted.get(msg.context)
        if buckets:
            src, tag = msg.src, msg.tag
            if self._wild:
                key = None
                best_seq = -1
                for k in (
                    (src, tag),
                    (src, ANY_TAG),
                    (ANY_SOURCE, tag),
                    (ANY_SOURCE, ANY_TAG),
                ):
                    q = buckets.get(k)
                    if q:
                        seq = q[0][0]
                        if key is None or seq < best_seq:
                            key, best_seq = k, seq
                if key is not None and (key[0] == ANY_SOURCE or key[1] == ANY_TAG):
                    self._wild -= 1
            else:
                key = (src, tag)
            q = buckets.get(key)
            if q:
                return q.popleft()[1]
        ubuckets = self._unexpected.get(msg.context)
        if ubuckets is None:
            ubuckets = self._unexpected[msg.context] = {}
        q = ubuckets.get((msg.src, msg.tag))
        if q is None:
            q = ubuckets[(msg.src, msg.tag)] = deque()
        q.append((self._useq, msg))
        self._useq += 1
        return None

    # -- post path --------------------------------------------------------

    @staticmethod
    def _oldest_unexpected(
        buckets: dict[tuple[int, int], deque], source: int, tag: int
    ) -> tuple[int, int] | None:
        """The key of the bucket whose head is the oldest arrival a
        wildcard receive for ``(source, tag)`` accepts, or ``None``."""
        best_key = None
        best_seq = -1
        for key, q in buckets.items():
            if not q:
                continue
            if source != ANY_SOURCE and key[0] != source:
                continue
            if tag != ANY_TAG and key[1] != tag:
                continue
            seq = q[0][0]
            if best_key is None or seq < best_seq:
                best_key, best_seq = key, seq
        return best_key

    def post_recv(self, req: "Request", context: int) -> Message | None:
        """Post a receive; return an already-arrived matching message if any.

        When a message is returned the request is *not* queued; the runtime
        completes it immediately.  Otherwise the request joins the posted
        queue to await future arrivals.
        """
        source, tag = req.peer, req.tag
        wild = source == ANY_SOURCE or tag == ANY_TAG
        buckets = self._unexpected.get(context)
        if buckets:
            key = (
                self._oldest_unexpected(buckets, source, tag)
                if wild else (source, tag)
            )
            q = buckets.get(key)
            if q:
                return q.popleft()[1]
        pbuckets = self._posted.get(context)
        if pbuckets is None:
            pbuckets = self._posted[context] = {}
        pkey = (source, tag)
        q = pbuckets.get(pkey)
        if q is None:
            q = pbuckets[pkey] = deque()
        q.append((self._pseq, req))
        self._pseq += 1
        if wild:
            self._wild += 1
        return None

    def cancel_recv(self, req: "Request") -> bool:
        """Remove a posted receive; True if it was found (not yet matched)."""
        for buckets in self._posted.values():
            for key, q in buckets.items():
                for i, (_seq, r) in enumerate(q):
                    if r is req:
                        del q[i]
                        if key[0] == ANY_SOURCE or key[1] == ANY_TAG:
                            self._wild -= 1
                        return True
        return False

    # -- failure sweep support ---------------------------------------------

    def pending_recvs(self) -> list["Request"]:
        """All currently posted (unmatched) receive requests, in post order
        within each context (contexts in first-post order, as before)."""
        out: list[Request] = []
        for buckets in self._posted.values():
            entries = [e for q in buckets.values() for e in q]
            entries.sort(key=lambda e: e[0])
            out.extend(r for _seq, r in entries)
        return out

    def stats(self) -> dict[str, int]:
        """Queue depths, for runtime diagnostics and tests."""
        return {
            "posted": sum(
                len(q) for b in self._posted.values() for q in b.values()
            ),
            "unexpected": sum(
                len(q) for b in self._unexpected.values() for q in b.values()
            ),
        }
