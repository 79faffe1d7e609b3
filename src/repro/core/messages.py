"""Ring message format and tags (paper Fig. 3 lines 1–4).

``RingMsg`` is the paper's ``ring_msg_t``: the accumulated value plus the
iteration *marker* used to detect and drop duplicate (resent) messages
(paper §III-B).
"""

from __future__ import annotations

import copy as _copy
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


@dataclass
class RingMsg:
    """One circulating ring buffer: ``{value; int marker}``.

    The paper's ``ring_msg_t`` carries an ``int`` value; applications
    reusing the ring machinery (e.g. the fault-tolerant ring allreduce in
    :mod:`repro.apps`) may carry any payload in ``value`` — the FT
    machinery only ever touches ``marker``.
    """

    value: Any
    marker: int

    def copy(self) -> "RingMsg":
        """A deep defensive copy; resends must not alias the live buffer.

        ``deepcopy`` hands back the very same object for an immutable
        scalar, so for those (the paper's ``int`` value) the call is
        skipped — twice per hop in ``ft_send_right``.
        """
        value = self.value
        if type(value) not in _IMMUTABLE_SCALARS:
            value = _copy.deepcopy(value)
        return RingMsg(value, self.marker)
