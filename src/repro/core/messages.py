"""Ring message format and tags (paper Fig. 3 lines 1–4), and the two
enums a ring configuration names.

``RingMsg`` is the paper's ``ring_msg_t``: the accumulated value plus the
iteration *marker* used to detect and drop duplicate (resent) messages
(paper §III-B).  :class:`RingVariant` and :class:`Termination` select a
design stage and a termination scheme (see :mod:`repro.core.ring`); they
live here, with stdlib imports only, so the CLI parser lists their
values without loading the kernel.
"""

from __future__ import annotations

import copy as _copy
import enum
from dataclasses import dataclass
from typing import Any, Final

#: Tag for normal ring traffic (the paper's ``T_N``).
TAG_NORMAL: Final[int] = 1
#: Tag for the termination message (the paper's ``T_D``).
TAG_DONE: Final[int] = 2
#: Tag for resent ring traffic in the separate-tag dedup variant
#: (the paper's §III-B alternative to iteration markers).
TAG_RESEND: Final[int] = 3

#: Index of the normal receive in the two-request wait (paper ``Idx_N``).
IDX_NORMAL: Final[int] = 0
#: Index of the failure-watchdog receive (paper ``Idx_F``).
IDX_WATCHDOG: Final[int] = 1


_IMMUTABLE_SCALARS: Final = frozenset(
    {int, float, bool, complex, str, bytes, type(None)}
)


@dataclass(frozen=True, slots=True)
class RingMsg:
    """One circulating ring buffer: ``{value; int marker}``.

    The paper's ``ring_msg_t`` carries an ``int`` value; applications
    reusing the ring machinery (e.g. the fault-tolerant ring allreduce in
    :mod:`repro.apps`) may carry any payload in ``value`` — the FT
    machinery only ever touches ``marker``.

    A message is a value: its fields cannot be assigned, so a rank that
    forwards one builds ``RingMsg(msg.value + 1, msg.marker)``.
    """

    value: Any
    marker: int

    def copy(self) -> "RingMsg":
        """A defensive copy; resends must not alias the live buffer.

        A message whose value is an immutable scalar (the paper's
        ``int``) cannot change at all, so it is its own copy.  Any other
        value — a dict, a list, an array — is deep-copied.
        """
        if type(self.value) in _IMMUTABLE_SCALARS:
            return self
        return RingMsg(_copy.deepcopy(self.value), self.marker)


class RingVariant(enum.Enum):
    """Which stage of the paper's design progression to run."""

    #: Paper Fig. 2: fault-unaware, ``MPI_ERRORS_ARE_FATAL``.
    BASELINE = "baseline"
    #: The flawed first-attempt receive (hangs in the Fig. 6 scenario).
    NAIVE = "naive"
    #: Fig. 9 without the marker check (duplicates in the Fig. 8 scenario).
    FT_NO_MARKER = "ft_no_marker"
    #: The full fault-tolerant design (Figs. 9 + 10).
    FT_MARKER = "ft_marker"
    #: §III-B alternative: resends travel on a separate tag.
    FT_TAGGED = "ft_tagged"


class Termination(enum.Enum):
    """Termination-detection scheme (paper §III-C/D)."""

    #: No termination protocol: ranks simply leave the loop.  Kept to
    #: demonstrate *why* termination detection is needed.
    NONE = "none"
    #: Fig. 11: root broadcasts ``T_D``; root failure aborts.
    ROOT_BCAST = "root_bcast"
    #: Fig. 13: non-blocking collective validate as the rendezvous.
    VALIDATE_ALL = "validate_all"
    #: §III-C's rejected alternative: ibarrier retry (falls back to the
    #: consensus validate when a failure makes collectives unusable).
    IBARRIER = "ibarrier"
