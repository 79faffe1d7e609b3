"""Trace exporters: Chrome Trace Event (Perfetto) JSON and stable JSONL.

**Perfetto** (:func:`trace_to_perfetto`) renders a recorded
:class:`~repro.simmpi.trace.Trace` as a Chrome Trace Event document that
https://ui.perfetto.dev (or ``chrome://tracing``) opens directly:

* one thread track per rank (``pid=0``, ``tid=rank``, named via ``M``
  metadata events);
* duration slices (``ph="X"``) for every receive wait
  (``RECV_POST`` -> ``RECV_COMPLETE``/``REQ_ERROR`` matched by request
  id) and every collective validate (``all_start`` -> ``all_decide`` per
  rank+instance);
* flow arrows (``ph="s"/"t"/"f"``, one flow id per message id) linking
  each ``SEND_POST`` through its ``DELIVER`` to the matching
  ``RECV_COMPLETE``;
* instant events (``ph="i"``) for ``FAILURE``/``DETECT``/``ABORT``/
  ``DEADLOCK``/``SEND_DROP``/``COLLECTIVE``/``PROBE``/``USER``;
* counter tracks (``ph="C"``) folded from the rows (:func:`_counters`):
  messages in flight, and each rank's posted-receive and
  unexpected-message queue depths.  A capped trace has none: a fold
  over a ring buffer starts from an unknown baseline.

Timestamps are virtual seconds scaled to microseconds (the trace-event
unit).  The document is emitted with sorted keys so identical runs export
byte-identical files (golden-tested).

**JSONL** (:func:`trace_to_jsonl` / :func:`load_trace_jsonl`) is the
stable machine-readable form, in the :mod:`repro.obs.records` envelope
under :data:`TRACE`: a header line (format tag, rank count, cap
accounting) followed by one JSON object per event.  Detail values that
JSON cannot represent natively (tuples, sets, frozensets) are tagged so
the loader rebuilds them exactly — the round trip preserves
``Trace.keys()`` byte-for-byte, which the determinism tests rely on.

:func:`perfetto_errors` validates a Perfetto document;
``records.errors(text, TRACE)`` validates a JSONL export.
"""

from __future__ import annotations

import json
from typing import Any

from ..simmpi.trace import Trace, TraceEvent, TraceKind
from . import records

__all__ = [
    "JSONL_FORMAT",
    "TRACE",
    "load_trace_jsonl",
    "perfetto_errors",
    "trace_to_jsonl",
    "trace_to_perfetto",
]

#: JSONL header format tag; bump when the line layout changes.
JSONL_FORMAT = "repro.trace/1"

#: Virtual seconds -> trace-event microseconds.
_US = 1e6

#: Kinds exported as instant events (everything not given a richer shape).
_INSTANT_KINDS = (
    TraceKind.FAILURE,
    TraceKind.DETECT,
    TraceKind.ABORT,
    TraceKind.DEADLOCK,
    TraceKind.SEND_DROP,
    TraceKind.COLLECTIVE,
    TraceKind.PROBE,
    TraceKind.USER,
    TraceKind.PROC_DONE,
)


# ----------------------------------------------------------------------
# Perfetto / Chrome Trace Event
# ----------------------------------------------------------------------


def _args(detail: dict[str, Any]) -> dict[str, Any]:
    """Trace-event ``args``: stringify anything JSON can't carry."""
    out: dict[str, Any] = {}
    for k, v in detail.items():
        if v is None or isinstance(v, (bool, int, float, str)):
            out[k] = v
        else:
            out[k] = repr(v)
    return out


def trace_to_perfetto(trace: Trace, nprocs: int) -> dict[str, Any]:
    """Convert *trace* into a Chrome Trace Event document (a dict),
    with counter tracks unless the trace dropped records."""
    events: list[dict[str, Any]] = []
    events.append({
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": "repro-sim"},
    })
    for r in range(nprocs):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": r,
            "args": {"name": f"rank {r}"},
        })

    # Pass 1: pair the interval-shaped events.
    recv_open: dict[tuple[int, int], TraceEvent] = {}
    validate_open: dict[tuple[int, Any, Any], TraceEvent] = {}
    for ev in trace:
        ts = ev.time * _US
        if ev.kind is TraceKind.RECV_POST:
            req = ev.detail.get("req")
            if req is not None:
                recv_open[(ev.rank, req)] = ev
        elif ev.kind in (TraceKind.RECV_COMPLETE, TraceKind.REQ_ERROR):
            req = ev.detail.get("req")
            post = recv_open.pop((ev.rank, req), None)
            if post is None:
                continue
            name = (
                "recv" if ev.kind is TraceKind.RECV_COMPLETE
                else "recv!fail_stop"
            )
            args = _args(post.detail)
            args.update(_args(ev.detail))
            events.append({
                "name": name, "cat": "recv", "ph": "X", "pid": 0,
                "tid": ev.rank, "ts": post.time * _US,
                # Post and completion times are summed along different
                # paths (fiber clock vs. arrival), so an instant match
                # can land one float ULP "before" its post; clamp.
                "dur": max(0.0, ts - post.time * _US), "args": args,
            })
        elif ev.kind is TraceKind.VALIDATE:
            op = ev.detail.get("op")
            key = (ev.rank, ev.detail.get("comm"), ev.detail.get("instance"))
            if op == "all_start":
                validate_open[key] = ev
            elif op == "all_decide":
                start = validate_open.pop(key, None)
                if start is None:
                    continue
                args = _args(start.detail)
                args.update(_args(ev.detail))
                events.append({
                    "name": "validate", "cat": "collective", "ph": "X",
                    "pid": 0, "tid": ev.rank, "ts": start.time * _US,
                    "dur": max(0.0, ts - start.time * _US), "args": args,
                })

    # A hung/killed rank's last wait never completes: close it visually
    # at the trace's end so the stall is visible in the UI.
    if len(trace):
        t_end = max(ev.time for ev in trace) * _US
        for (rank, _req), post in sorted(
            recv_open.items(), key=lambda kv: (kv[0][0], kv[1].time)
        ):
            events.append({
                "name": "recv!unfinished", "cat": "recv", "ph": "X",
                "pid": 0, "tid": rank, "ts": post.time * _US,
                "dur": max(0.0, t_end - post.time * _US),
                "args": _args(post.detail),
            })

    # Pass 2: sends, flows, and instants, in trace order.  Flow arrows
    # link only *matched* messages — ones whose id shows up in both a
    # DELIVER and a RECV_COMPLETE (active messages and unmatched sends
    # would otherwise open flows that never finish, which the validator
    # rejects and the UI renders as dangling arrows).
    sent: set[int] = set()
    delivered: set[int] = set()
    completed: set[int] = set()
    for ev in trace:
        msg = ev.detail.get("msg")
        if msg is None:
            continue
        if ev.kind is TraceKind.SEND_POST:
            sent.add(msg)
        elif ev.kind is TraceKind.DELIVER:
            delivered.add(msg)
        elif ev.kind is TraceKind.RECV_COMPLETE:
            completed.add(msg)
    # A capped (ring-buffer) trace may have lost one leg of a flow;
    # requiring all three keeps every emitted flow well-formed.
    flow_ok = sent & delivered & completed
    for ev in trace:
        ts = ev.time * _US
        if ev.kind is TraceKind.SEND_POST:
            msg = ev.detail.get("msg")
            events.append({
                "name": f"send->{ev.detail.get('dst')}", "cat": "send",
                "ph": "X", "pid": 0, "tid": ev.rank, "ts": ts, "dur": 0.0,
                "args": _args(ev.detail),
            })
            if msg in flow_ok:
                events.append({
                    "name": "msg", "cat": "flow", "ph": "s", "pid": 0,
                    "tid": ev.rank, "ts": ts, "id": msg,
                })
        elif ev.kind is TraceKind.DELIVER:
            msg = ev.detail.get("msg")
            events.append({
                "name": f"deliver<-{ev.detail.get('src')}", "cat": "deliver",
                "ph": "X", "pid": 0, "tid": ev.rank, "ts": ts, "dur": 0.0,
                "args": _args(ev.detail),
            })
            if msg in flow_ok:
                events.append({
                    "name": "msg", "cat": "flow", "ph": "t", "pid": 0,
                    "tid": ev.rank, "ts": ts, "id": msg,
                })
        elif ev.kind is TraceKind.RECV_COMPLETE:
            msg = ev.detail.get("msg")
            if msg in flow_ok:
                events.append({
                    "name": "msg", "cat": "flow", "ph": "f", "bp": "e",
                    "pid": 0, "tid": ev.rank, "ts": ts, "id": msg,
                })
        elif ev.kind in _INSTANT_KINDS:
            scope = "g" if ev.kind in (
                TraceKind.FAILURE, TraceKind.ABORT, TraceKind.DEADLOCK
            ) else "t"
            events.append({
                "name": ev.kind.value, "cat": "lifecycle", "ph": "i",
                "s": scope, "pid": 0, "tid": ev.rank, "ts": ts,
                "args": _args(ev.detail),
            })

    if not trace.dropped:
        events += _counters(trace, nprocs)

    return {
        "displayTimeUnit": "ns",
        "otherData": {
            "producer": "repro.obs",
            "nprocs": nprocs,
            "trace_dropped": trace.dropped,
        },
        "traceEvents": events,
    }


def _counters(trace: Trace, nprocs: int) -> list[dict[str, Any]]:
    """Counter events, one pass over the rows: ``in_flight`` (a
    ``SEND_POST`` less its ``DELIVER`` or ``SEND_DROP``), then each rank's
    ``posted_r*``, then its ``unexpected_r*``.

    A rank's queue depths are sampled after each of its ``RECV_POST``
    rows and each ``DELIVER`` of a plain send (an active message goes to
    its handler).  A ``RECV_COMPLETE`` of the same request or message in
    the next row is a match: the post took an unexpected message, the
    delivery a posted receive.  A ``REQ_ERROR`` takes a posted receive
    away.  An active-message handler bound to a plain-send context (the
    replication protocol's) is not in the trace, so its deliveries count
    as unexpected.
    """
    sends = trace.columns(TraceKind.SEND_POST, "msg")
    am = trace.columns(TraceKind.SEND_POST, "msg", "am")
    delivers = trace.columns(TraceKind.DELIVER, "msg")
    drops = trace.columns(TraceKind.SEND_DROP)
    posts = trace.columns(TraceKind.RECV_POST, "req")
    completes = trace.columns(TraceKind.RECV_COMPLETE, "req", "msg")
    errors = trace.columns(TraceKind.REQ_ERROR)
    rows = trace.rows

    def matched(i: int, rank: int, which: int, value: Any) -> bool:
        nxt = rows[i + 1] if i + 1 < len(rows) else None
        cols = completes.get(nxt[1]) if nxt is not None else None
        return cols is not None and nxt[2] == rank and nxt[cols[which]] == value

    in_flight: list[tuple[float, int]] = []
    n = 0
    am_msgs: set[Any] = set()
    posted = [0] * nprocs
    unexpected = [0] * nprocs
    samples: list[list[tuple[float, int, int]]] = [[] for _ in range(nprocs)]
    for i, row in enumerate(rows):
        sid, time, rank = row[1], row[0], row[2]
        if sid in sends:
            n += 1
            in_flight.append((time, n))
            if sid in am:
                am_msgs.add(row[am[sid][0]])
        elif sid in delivers or sid in drops:
            n -= 1
            in_flight.append((time, n))
            cols = delivers.get(sid)
            if cols is None or row[cols[0]] in am_msgs:
                continue
            if matched(i, rank, 1, row[cols[0]]):
                posted[rank] -= 1
            else:
                unexpected[rank] += 1
            samples[rank].append((time, posted[rank], unexpected[rank]))
        elif sid in posts:
            if matched(i, rank, 0, row[posts[sid][0]]):
                unexpected[rank] -= 1
            else:
                posted[rank] += 1
            samples[rank].append((time, posted[rank], unexpected[rank]))
        elif sid in errors:
            posted[rank] -= 1

    def track(name: str, points: Any) -> list[dict[str, Any]]:
        return [
            {"name": name, "cat": "metrics", "ph": "C", "pid": 0, "tid": 0,
             "ts": t * _US, "args": {"value": v}}
            for t, v in points
        ]

    out = track("in_flight", in_flight)
    for r in range(nprocs):
        out += track(f"posted_r{r}", ((t, p) for t, p, _u in samples[r]))
    for r in range(nprocs):
        out += track(f"unexpected_r{r}", ((t, u) for t, _p, u in samples[r]))
    return out


def dumps_perfetto(doc: dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, newline-terminated."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


_PHASES = frozenset("XiBEsftCM")

#: Per-phase structural requirements, beyond the common fields.
_SCOPES = frozenset(("t", "p", "g"))


def perfetto_errors(doc: Any) -> list[str]:
    """Validate a Chrome Trace Event document; return human-readable
    problems (empty list == valid).  Checks the structural contract the
    Perfetto UI relies on, not every optional nicety."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            errors.append(f"{where}: bad ph {ph!r}")
            continue
        for field, types in (("pid", int), ("tid", int)):
            if not isinstance(ev.get(field), types):
                errors.append(f"{where}: {field} missing or not an int")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: ts missing or negative")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            errors.append(f"{where}: name missing or empty")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X event needs dur >= 0")
        elif ph == "i":
            if ev.get("s") not in _SCOPES:
                errors.append(f"{where}: instant scope must be t/p/g")
        elif ph in ("s", "t", "f"):
            if not isinstance(ev.get("id"), (int, str)):
                errors.append(f"{where}: flow event needs an id")
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                errors.append(f"{where}: counter args must be numbers")
        elif ph == "M":
            args = ev.get("args")
            if not isinstance(args, dict) or "name" not in args:
                errors.append(f"{where}: metadata needs args.name")
    # Every flow id must have exactly one start and one finish.
    flows: dict[Any, list[str]] = {}
    for ev in events:
        if isinstance(ev, dict) and ev.get("ph") in ("s", "t", "f"):
            flows.setdefault(ev.get("id"), []).append(ev["ph"])
    for fid, phases in flows.items():
        if phases.count("s") != 1 or phases.count("f") != 1:
            errors.append(
                f"flow id {fid!r}: needs exactly one 's' and one 'f' "
                f"(got {phases})"
            )
    return errors


# ----------------------------------------------------------------------
# JSONL: stable export + exact round-trip loader
# ----------------------------------------------------------------------


def _encode(value: Any) -> Any:
    """JSON-encode a detail value, tagging non-JSON-native containers so
    the loader reconstructs the exact Python object."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, frozenset):
        return {"__frozenset__": sorted((_encode(v) for v in value),
                                        key=repr)}
    if isinstance(value, set):
        return {"__set__": sorted((_encode(v) for v in value), key=repr)}
    if isinstance(value, dict):
        if any(k in value for k in ("__tuple__", "__set__", "__frozenset__",
                                    "__dict__")):
            return {"__dict__": {k: _encode(v) for k, v in value.items()}}
        return {k: _encode(v) for k, v in value.items()}
    raise TypeError(
        f"cannot export detail value of type {type(value).__name__}"
    )


def _decode(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if isinstance(value, dict):
        if "__tuple__" in value and len(value) == 1:
            return tuple(_decode(v) for v in value["__tuple__"])
        if "__set__" in value and len(value) == 1:
            return set(_decode(v) for v in value["__set__"])
        if "__frozenset__" in value and len(value) == 1:
            return frozenset(_decode(v) for v in value["__frozenset__"])
        if "__dict__" in value and len(value) == 1:
            return {k: _decode(v) for k, v in value["__dict__"].items()}
        return {k: _decode(v) for k, v in value.items()}
    return value


def trace_to_jsonl(trace: Trace, nprocs: int | None = None) -> str:
    """Serialize *trace* as JSONL: one header line, one line per event.

    Identical traces export byte-identical text (golden-tested).  Floats
    round-trip exactly (``json`` uses shortest-round-trip repr).
    """
    header = {
        "format": JSONL_FORMAT,
        "nprocs": nprocs,
        "cap": trace.cap,
        "dropped": trace.dropped,
        "events": len(trace),
    }
    return records.dumps([header] + [
        {
            "t": ev.time,
            "kind": ev.kind.value,
            "rank": ev.rank,
            "detail": {k: _encode(v) for k, v in ev.detail.items()},
        }
        for ev in trace
    ])


def load_trace_jsonl(source: Any) -> tuple[Trace, dict[str, Any]]:
    """Load a JSONL export back into a :class:`Trace`.

    *source* is a path or a string of JSONL text.  Returns
    ``(trace, header)``.  The rebuilt trace satisfies
    ``loaded.keys() == original.keys()`` — the determinism identity the
    test suite pins.
    """
    header, body = records.read(source, TRACE)
    trace = Trace(enabled=True, cap=header.get("cap"))
    for rec in body:
        trace.record(
            rec["t"],
            TraceKind(rec["kind"]),
            rec["rank"],
            **{k: _decode(v) for k, v in rec["detail"].items()},
        )
    trace.dropped = int(header.get("dropped", 0))
    return trace, header


_KINDS = tuple(k.value for k in TraceKind)
_EVENT_FIELDS = {"t": records.NUMBER, "rank": int, "detail": dict}


def _trace_rules(header: dict[str, Any], body: list[dict[str, Any]]) -> list[str]:
    errors: list[str] = []
    for i, rec in enumerate(body, start=2):
        errors += records.field_errors(rec, f"line {i}", _EVENT_FIELDS)
        if rec.get("kind") not in _KINDS:
            errors.append(f"line {i}: unknown kind {rec.get('kind')!r}")
    return errors


#: ``repro.trace/1``: every body line is one event and is counted.
TRACE = records.Schema(
    format=JSONL_FORMAT, count_key="events", rules=_trace_rules
)
