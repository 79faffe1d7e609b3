"""The thread-local recorder slot the sweep pipeline's spans go to.

Every instrumentation site in :mod:`repro.parallel` and
:mod:`repro.cache` reads this slot (:func:`active`) and does nothing
more when it is empty, so a sweep that records no spans loads this
module and never the exporter, :mod:`repro.obs.spans`, which re-exports
both names.  The recorder is installed per *thread* (:func:`installed`)
so an in-process worker server — which executes chunks on its own
thread — never leaks spans into the parent's recorder.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .spans import SpanRecorder

__all__ = ["active", "installed"]

_STATE = threading.local()


def active() -> SpanRecorder | None:
    """The recorder installed on this thread, or ``None``.  This is the
    whole disabled-path cost: one thread-local read."""
    return getattr(_STATE, "recorder", None)


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install *recorder* as this thread's active recorder for the
    duration of the block."""
    previous = getattr(_STATE, "recorder", None)
    _STATE.recorder = recorder
    try:
        yield recorder
    finally:
        _STATE.recorder = previous
