"""Orchestration span tracing for the sweep pipeline.

PR 5 made the *kernel* observable (Perfetto traces, per-rank metrics);
this module gives the *pipeline around it* — scheduler rounds, chunk
dispatch, ``repro.remote/3`` wire frames, worker-side execution, batched
cache lookups — the same treatment.  A :class:`SpanRecorder` collects
lightweight :class:`Span` records (monotonic start + duration, parent
id, category, free-form attrs) from instrumentation sites in
``repro.parallel`` and ``repro.cache``; workers record their own spans
and ship them back inside the ``done`` frame, where the parent absorbs
them under the dispatching chunk span (one track per worker).  Every
``job`` span is opened by one function,
:func:`repro.parallel.transport.run_jobs_traced`, whichever runner
executes the job, and a sweep's telemetry lines
(:mod:`repro.obs.telemetry`) are read off those spans.

Recording is strictly opt-in and zero-cost when off: every
instrumentation site does one thread-local read (:func:`active`) and a
``None`` check, the exact pattern the kernel's zero-cost-disabled
tracing uses (``tests/test_spans.py::TestNonPerturbation``).  The slot
it reads is :mod:`repro.obs.slot`, so a sweep that records nothing
never imports this module.  The recorder is installed per *thread*
(:func:`recording`) so an in-process worker server — which executes
chunks on its own thread — never leaks spans into the parent's
recorder.

Two stable export forms:

* ``repro.spans/1`` JSONL (:func:`spans_to_records`, then the
  :mod:`repro.obs.records` envelope under :data:`SPANS`): header line +
  one compact JSON object per span.  Its canonical view
  (``records.canon(path, SPANS)``) strips the volatile fields (times,
  ids, tracks) and keeps only the placement-independent ``job`` spans,
  so a serial, pooled, and remote sweep of the same jobs canonicalize
  to byte-identical text, as telemetry's does.  Under a cache, hits
  execute nothing and get no job span; executed jobs are
  indistinguishable from an uncached run's.
* Perfetto (:func:`spans_to_perfetto`): the pipeline as a process track
  (``pid=1``, beside the kernel's ``pid=0``) with one thread track per
  execution site (scheduler, each worker) and flow arrows
  chunk-dispatch → worker-exec → merge, validated by
  :func:`repro.obs.export.perfetto_errors`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, ContextManager, Iterable, Iterator

from . import records
from .slot import active, installed
from ..parallel.jobs import OUTCOMES

__all__ = [
    "CANONICAL_CATEGORIES",
    "SPANS",
    "SPANS_FORMAT",
    "SPAN_CATEGORIES",
    "SPAN_VOLATILE_KEYS",
    "Span",
    "SpanRecorder",
    "active",
    "recording",
    "spans_to_perfetto",
    "spans_to_records",
]

#: Header format tag; bump when the line layout changes.
SPANS_FORMAT = "repro.spans/1"

#: The span taxonomy (documented in docs/observability.md §5).
SPAN_CATEGORIES = (
    "sweep",      # the execution step of one run() (misses only, if cached)
    "round",      # one FleetRunner scheduling round
    "chunk",      # chunk dispatch: submit -> done/lost, parent side
    "exec",       # chunk execution, worker side (absorbed)
    "job",        # one job inside a chunk/serial loop (canonical)
    "merge",      # submission-order merge of a completed chunk
    "net",        # repro.remote/3 frame send/recv events
    "heartbeat",  # liveness probe of a silent worker
    "cache",      # one RunCache get_many/put_many batch
)

#: Fields the canonical view drops: timings, recorder-local
#: ids, and execution placement all legitimately differ across runs and
#: transports.
SPAN_VOLATILE_KEYS = frozenset({"t", "dur", "id", "parent", "track"})

#: Categories the canonical view keeps.  Only ``job`` spans are
#: placement-independent: serial sweeps have no rounds or frames, and
#: chunk boundaries move with chunk_size/worker count — but every job
#: that executes does so exactly once, with the same index and outcome
#: everywhere.
CANONICAL_CATEGORIES = frozenset({"job"})


@dataclass
class Span:
    """One timed operation.  ``t`` is seconds relative to the owning
    recorder's epoch; ``dur`` is 0.0 for instant events and open spans."""

    __slots__ = ("id", "name", "cat", "t", "dur", "parent", "track", "attrs")

    id: int
    name: str
    cat: str
    t: float
    dur: float
    parent: int | None
    track: str
    attrs: dict[str, Any]


#: The keys of every ``repro.spans/1`` body line: a span's fields.
_REQUIRED_KEYS = frozenset(Span.__slots__)


class SpanRecorder:
    """Collects spans for one sweep (or one worker-side chunk).

    Not thread-safe by design: each recorder belongs to the single
    thread it was installed on via :func:`recording`.  Workers create
    their own recorder per chunk and export it raw
    (:meth:`export_raw`); the parent splices those spans in with
    :meth:`chunk_absorb`.
    """

    def __init__(self, kind: str = "sweep", clock=time.monotonic) -> None:
        self.kind = kind
        self._clock = clock
        self._t0 = clock()
        self.spans: list[Span] = []
        self._last_id = 0
        self._last_flow = 0
        self._open_chunks: dict[int, Span] = {}

    def now(self) -> float:
        return self._clock() - self._t0

    def begin(
        self,
        name: str,
        cat: str,
        *,
        parent: int | None = None,
        track: str = "sweep",
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        self._last_id += 1
        span = Span(
            id=self._last_id,
            name=name,
            cat=cat,
            t=self.now(),
            dur=0.0,
            parent=parent,
            track=track,
            attrs=dict(attrs) if attrs else {},
        )
        self.spans.append(span)
        return span

    def end(self, span: Span) -> Span:
        span.dur = max(0.0, self.now() - span.t)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        cat: str,
        *,
        parent: int | None = None,
        track: str = "sweep",
        attrs: dict[str, Any] | None = None,
    ) -> Iterator[Span]:
        sp = self.begin(name, cat, parent=parent, track=track, attrs=attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    def event(
        self,
        name: str,
        cat: str,
        *,
        parent: int | None = None,
        track: str = "sweep",
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """An instant: a span with zero duration."""
        return self.begin(name, cat, parent=parent, track=track, attrs=attrs)

    # -- chunk lifecycle (parent side) ---------------------------------

    def chunk_begin(
        self, start: int, njobs: int, *, index: int | None = None
    ) -> Span:
        """Open the dispatch span for the chunk at batch offset *start*.

        Keyed by *start*: chunk starts are unique within a round, and
        rounds are sequential, so at most one dispatch per start is
        open at a time.  Each dispatch gets a fresh flow id — a retried
        chunk is a *new* dispatch, keeping every flow id's s/f arrows
        unique in the Perfetto export.  The ``start`` attr is *index*,
        the sweep-global position of the chunk's first job, when the
        batch is a stream window or the misses of a cached sweep.
        """
        self._last_flow += 1
        span = self.begin(
            "chunk.dispatch",
            "chunk",
            attrs={
                "start": start if index is None else index,
                "jobs": njobs,
                "flow": self._last_flow,
            },
        )
        self._open_chunks[start] = span
        return span

    def chunk_absorb(
        self, start: int, raw_spans: Iterable[dict[str, Any]], *, track: str
    ) -> None:
        """Splice a worker's exported spans in under the open dispatch
        span for *start*, onto the per-worker *track*.

        Worker ids are remapped to this recorder's sequence (raw lists
        are begin-ordered, so parents precede children); worker times
        are re-anchored at the dispatch timestamp (the two clock
        domains share no epoch — "starts when dispatched" is the honest
        approximation).  The worker's root exec span inherits the
        dispatch's flow id, closing the chunk→worker→merge arrows.
        """
        dispatch = self._open_chunks.get(start)
        anchor = dispatch.t if dispatch is not None else self.now()
        root_parent = dispatch.id if dispatch is not None else None
        flow = dispatch.attrs.get("flow") if dispatch is not None else None
        mapping: dict[int, int] = {}
        for raw in raw_spans:
            self._last_id += 1
            mapping[raw["id"]] = self._last_id
            attrs = dict(raw.get("attrs") or {})
            raw_parent = raw.get("parent")
            if raw_parent is None:
                parent = root_parent
                if flow is not None and raw.get("cat") == "exec":
                    attrs["flow"] = flow
            else:
                parent = mapping.get(raw_parent, root_parent)
            self.spans.append(Span(
                id=self._last_id,
                name=raw["name"],
                cat=raw["cat"],
                t=anchor + raw["t"],
                dur=raw["dur"],
                parent=parent,
                track=track,
                attrs=attrs,
            ))

    def chunk_end(self, start: int, status: str) -> Span | None:
        """Close the dispatch span for *start* with ``status`` ("done"
        or "lost").  Returns ``None`` if no dispatch is open (already
        closed, or opened by a different recorder)."""
        span = self._open_chunks.pop(start, None)
        if span is None:
            return None
        span.attrs["status"] = status
        return self.end(span)

    def chunk_merge(self, dispatch: Span) -> Span:
        """Mark the submission-order merge of a completed chunk (the
        flow arrow's finish point)."""
        return self.event(
            "chunk.merge",
            "merge",
            attrs={
                "start": dispatch.attrs.get("start"),
                "flow": dispatch.attrs.get("flow"),
            },
        )

    # -- export --------------------------------------------------------

    def export_raw(self) -> list[dict[str, Any]]:
        """Wire form for worker→parent shipping: plain dicts, no track
        (the parent assigns one per worker on absorb)."""
        return [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "cat": s.cat,
                "t": s.t,
                "dur": s.dur,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]


# ----------------------------------------------------------------------
# The active recorder: one thread-local slot (repro.obs.slot)
# ----------------------------------------------------------------------


def recording(
    recorder: SpanRecorder | None = None,
) -> ContextManager[SpanRecorder]:
    """Install *recorder* (or a fresh one) as this thread's active
    recorder for the duration of the block."""
    return installed(SpanRecorder() if recorder is None else recorder)


# ----------------------------------------------------------------------
# repro.spans/1 JSONL
# ----------------------------------------------------------------------


def spans_to_records(recorder: SpanRecorder) -> list[dict[str, Any]]:
    """Header + one dict per span, in recording order."""
    header = {
        "format": SPANS_FORMAT,
        "kind": recorder.kind,
        "spans": len(recorder.spans),
    }
    body = [
        {
            "id": s.id,
            "parent": s.parent,
            "name": s.name,
            "cat": s.cat,
            "t": round(s.t, 9),
            "dur": round(s.dur, 9),
            "track": s.track,
            "attrs": s.attrs,
        }
        for s in recorder.spans
    ]
    return [header] + body


def _span_rules(header: dict[str, Any], body: list[dict[str, Any]]) -> list[str]:
    """Exact per-line keys, id uniqueness, parent resolution, and the
    job-span attrs every canonical consumer relies on."""
    errors: list[str] = []
    if not isinstance(header.get("kind"), str) or not header.get("kind"):
        errors.append("header: kind missing or empty")
    ids: set[int] = set()
    parents: list[tuple[str, int]] = []
    for n, sp in enumerate(body, start=2):
        where = f"line {n}"
        missing = _REQUIRED_KEYS - sp.keys()
        extra = sp.keys() - _REQUIRED_KEYS
        if missing:
            errors.append(f"{where}: missing keys {sorted(missing)}")
        if extra:
            errors.append(f"{where}: unknown keys {sorted(extra)}")
        if missing:
            continue
        sid = sp["id"]
        if not isinstance(sid, int) or isinstance(sid, bool) or sid <= 0:
            errors.append(f"{where}: id must be a positive int")
        elif sid in ids:
            errors.append(f"{where}: duplicate id {sid}")
        else:
            ids.add(sid)
        if not isinstance(sp["name"], str) or not sp["name"]:
            errors.append(f"{where}: name missing or empty")
        if sp["cat"] not in SPAN_CATEGORIES:
            errors.append(f"{where}: unknown category {sp['cat']!r}")
        for key in ("t", "dur"):
            v = sp[key]
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                errors.append(f"{where}: {key} must be a number >= 0")
        if not isinstance(sp["track"], str) or not sp["track"]:
            errors.append(f"{where}: track missing or empty")
        parent = sp["parent"]
        if parent is not None:
            if not isinstance(parent, int) or isinstance(parent, bool):
                errors.append(f"{where}: parent must be an int or null")
            else:
                parents.append((where, parent))
        attrs = sp["attrs"]
        if not isinstance(attrs, dict) or any(
            not isinstance(k, str) for k in attrs
        ):
            errors.append(f"{where}: attrs must be a string-keyed object")
            continue
        if sp["cat"] == "job":
            index = attrs.get("index")
            if not isinstance(index, int) or isinstance(index, bool) or index < 0:
                errors.append(f"{where}: job span needs int attrs.index >= 0")
            if attrs.get("outcome") not in OUTCOMES:
                errors.append(
                    f"{where}: job span outcome {attrs.get('outcome')!r} "
                    f"not in {list(OUTCOMES)}"
                )
    for where, parent in parents:
        if parent not in ids:
            errors.append(f"{where}: parent {parent} not in stream")
    return errors


#: ``repro.spans/1``: every body line is one span and is counted.  The
#: canonical view is the :data:`CANONICAL_CATEGORIES` spans: a serial,
#: pooled, and remote sweep of the same jobs canonicalize
#: byte-identically — cached too: the view holds exactly the jobs the
#: store could not answer.
SPANS = records.Schema(
    format=SPANS_FORMAT,
    count_key="spans",
    rules=_span_rules,
    volatile=SPAN_VOLATILE_KEYS,
    canonical=lambda sp: sp.get("cat") in CANONICAL_CATEGORIES,
)


# ----------------------------------------------------------------------
# Perfetto export
# ----------------------------------------------------------------------

#: Pipeline spans live on their own process track, beside pid=0 (the
#: kernel trace from repro.obs.export) when both are loaded in one UI.
_PIPELINE_PID = 1

_US = 1e6


def spans_to_perfetto(source: Any) -> dict[str, Any]:
    """Render a span stream (a path, JSONL text or records; see
    :func:`repro.obs.records.read`) as a Chrome Trace Event document: one
    thread track per execution site (``track`` string, first-appearance
    order), duration slices for every span, and s/t/f flow arrows
    linking each chunk dispatch through its worker exec to the merge.
    Passes :func:`repro.obs.export.perfetto_errors`."""
    header, spans = records.read(source, SPANS)

    tracks: dict[str, int] = {}
    for sp in spans:
        track = sp.get("track", "sweep")
        if track not in tracks:
            tracks[track] = len(tracks) + 1

    events: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": _PIPELINE_PID, "tid": 0,
        "args": {"name": "repro sweep pipeline"},
    }]
    for track, tid in tracks.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": _PIPELINE_PID,
            "tid": tid, "args": {"name": track},
        })

    flows: dict[int, dict[str, dict[str, Any]]] = {}
    for sp in spans:
        tid = tracks[sp.get("track", "sweep")]
        attrs = sp.get("attrs") or {}
        args = {"span": sp.get("id"), "parent": sp.get("parent")}
        args.update(attrs)
        events.append({
            "name": sp.get("name", "?"), "cat": sp.get("cat", "?"),
            "ph": "X", "pid": _PIPELINE_PID, "tid": tid,
            "ts": round(float(sp.get("t", 0.0)) * _US, 3),
            "dur": round(float(sp.get("dur", 0.0)) * _US, 3),
            "args": args,
        })
        flow = attrs.get("flow")
        if isinstance(flow, int):
            flows.setdefault(flow, {})[sp.get("cat", "?")] = sp

    # chunk -> exec -> merge arrows.  Only complete triples are emitted:
    # a lost dispatch has no exec/merge leg, and the validator requires
    # every flow id to carry exactly one 's' and one 'f'.
    for flow_id in sorted(flows):
        legs = flows[flow_id]
        if not {"chunk", "exec", "merge"} <= legs.keys():
            continue
        for ph, cat in (("s", "chunk"), ("t", "exec"), ("f", "merge")):
            sp = legs[cat]
            ev = {
                "name": "chunk", "cat": "flow", "ph": ph,
                "pid": _PIPELINE_PID, "tid": tracks[sp.get("track", "sweep")],
                "ts": round(float(sp.get("t", 0.0)) * _US, 3),
                "id": flow_id,
            }
            if ph == "f":
                ev["bp"] = "e"
            events.append(ev)

    return {
        "displayTimeUnit": "ns",
        "otherData": {
            "producer": "repro.obs.spans",
            "kind": header.get("kind"),
            "spans": len(spans),
        },
        "traceEvents": events,
    }
