"""The benchmark's own span recorder (the program is never edited).

One :class:`Recorder` per traced child process.  A span is opened around
each call the benchmark makes into a layer's public function; spans nest
by call order, share the recorder's ``workload`` id, stay in memory, and
are handed back to the parent when the child ends.  A layer's *self
time* is its span's duration minus the part its child spans cover.

The untraced pass uses :data:`OFF`, whose ``span()`` does nothing, so
end-to-end numbers never include a recorder.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator


class Recorder:
    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any] | None]:
        """Record a span around the block; yields its record (``None``
        when disabled), whose ``start``/``end`` are set once it closes."""
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        record = {
            "id": index,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def seconds(record: dict[str, Any]) -> float:
    return record["end"] - record["start"]


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Self seconds per span name: duration minus direct children."""
    child_total: dict[tuple[str, int], float] = {}
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            key = (s["workload"], s["parent"])
            child_total[key] = child_total.get(key, 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        if s["end"] is None:
            continue
        own = s["end"] - s["start"] - child_total.get((s["workload"], s["id"]), 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


#: The untraced pass's recorder: records nothing.
OFF = Recorder("", enabled=False)
