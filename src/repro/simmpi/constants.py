"""Wildcard and sentinel constants mirroring the MPI standard.

The numeric values follow the common MPICH/Open MPI convention of small
negative integers so that they can never collide with a real rank or tag
(ranks and tags are non-negative in this simulator).
"""

from __future__ import annotations

from typing import Final

#: Wildcard source rank for receive operations (``MPI_ANY_SOURCE``).
ANY_SOURCE: Final[int] = -1

#: Wildcard tag for receive operations (``MPI_ANY_TAG``).
ANY_TAG: Final[int] = -1

#: Null process sentinel (``MPI_PROC_NULL``).  Point-to-point operations
#: addressed to :data:`PROC_NULL` complete immediately and transfer no data.
#: Recognized failed ranks adopt these semantics per the run-through
#: stabilization proposal.
PROC_NULL: Final[int] = -2

#: Undefined value (``MPI_UNDEFINED``), e.g. the color for ranks that do not
#: join any communicator in a :meth:`Comm.split`.
UNDEFINED: Final[int] = -3

#: Rank of the root used by convention in examples and tests.
DEFAULT_ROOT: Final[int] = 0

#: Upper bound on user tags (``MPI_TAG_UB``).  Tags above this value are
#: reserved for internal protocols (collectives, consensus).
TAG_UB: Final[int] = 2**20


def is_valid_tag(tag: int) -> bool:
    """Return ``True`` if *tag* may be used by an application send."""
    return 0 <= tag <= TAG_UB
