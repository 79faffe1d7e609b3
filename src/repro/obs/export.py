"""Trace exporters: Chrome Trace Event (Perfetto) JSON and stable JSONL.

**Perfetto** (:func:`trace_to_perfetto`) renders a recorded
:class:`~repro.simmpi.trace.Trace` as a Chrome Trace Event document that
https://ui.perfetto.dev (or ``chrome://tracing``) opens directly:

* one thread track per rank (``pid=0``, ``tid=rank``, named via ``M``
  metadata events);
* duration slices (``ph="X"``) for every receive wait
  (``RECV_POST`` -> ``RECV_COMPLETE``/``REQ_ERROR`` matched by request
  id), every collective validate (``all_start`` -> ``all_decide`` per
  rank+instance), and — when kernel metrics are available — every
  blocked-fiber interval;
* flow arrows (``ph="s"/"t"/"f"``, one flow id per message id) linking
  each ``SEND_POST`` through its ``DELIVER`` to the matching
  ``RECV_COMPLETE``;
* instant events (``ph="i"``) for ``FAILURE``/``DETECT``/``ABORT``/
  ``DEADLOCK``/``SEND_DROP``/``COLLECTIVE``/``PROBE``/``USER``;
* counter tracks (``ph="C"``) from :class:`~repro.obs.metrics.KernelMetrics`
  series (event-queue depth, in-flight messages, blocked fibers,
  per-rank queue depths).

Timestamps are virtual seconds scaled to microseconds (the trace-event
unit).  The document is emitted with sorted keys so identical runs export
byte-identical files (golden-tested).

**JSONL** (:func:`trace_to_jsonl` / :func:`load_trace_jsonl`) is the
stable machine-readable form: a header line (format tag, rank count, cap
accounting) followed by one JSON object per event.  Detail values that
JSON cannot represent natively (tuples, sets, frozensets) are tagged so
the loader rebuilds them exactly — the round trip preserves
``Trace.keys()`` byte-for-byte, which the determinism tests rely on.

Both formats ship a validator (:func:`perfetto_errors` /
:func:`jsonl_errors`) used by the test suite and the CI smoke job.
"""

from __future__ import annotations

import json
from typing import Any

from ..simmpi.trace import Trace, TraceEvent, TraceKind

__all__ = [
    "JSONL_FORMAT",
    "jsonl_errors",
    "load_trace_jsonl",
    "perfetto_errors",
    "trace_to_jsonl",
    "trace_to_perfetto",
    "write_perfetto",
    "write_trace_jsonl",
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


def trace_to_perfetto(
    trace: Trace,
    nprocs: int,
    metrics: Any = None,
) -> dict[str, Any]:
    """Convert *trace* into a Chrome Trace Event document (a dict).

    ``metrics`` (a :class:`~repro.obs.metrics.KernelMetrics` or ``None``)
    adds counter tracks and blocked-interval slices when available.
    """
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

    # Counter tracks from kernel metrics (optional).
    if metrics is not None:
        for series in metrics.counter_series():
            for t, v in zip(series.times, series.values):
                events.append({
                    "name": series.name, "cat": "metrics", "ph": "C",
                    "pid": 0, "tid": 0, "ts": t * _US,
                    "args": {"value": v},
                })

    return {
        "displayTimeUnit": "ns",
        "otherData": {
            "producer": "repro.obs",
            "nprocs": nprocs,
            "trace_dropped": trace.dropped,
        },
        "traceEvents": events,
    }


def write_perfetto(
    trace: Trace, nprocs: int, path: Any, metrics: Any = None
) -> None:
    """Serialize :func:`trace_to_perfetto` to *path* (deterministic bytes)."""
    doc = trace_to_perfetto(trace, nprocs, metrics=metrics)
    from pathlib import Path

    Path(path).write_text(dumps_perfetto(doc))


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

    Lines are compact JSON with sorted keys; identical traces export
    byte-identical text (golden-tested).  Floats round-trip exactly
    (``json`` uses shortest-round-trip repr).
    """
    header = {
        "format": JSONL_FORMAT,
        "nprocs": nprocs,
        "cap": trace.cap,
        "dropped": trace.dropped,
        "events": len(trace),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for ev in trace:
        lines.append(json.dumps(
            {
                "t": ev.time,
                "kind": ev.kind.value,
                "rank": ev.rank,
                "detail": {k: _encode(v) for k, v in ev.detail.items()},
            },
            sort_keys=True,
            separators=(",", ":"),
        ))
    return "\n".join(lines) + "\n"


def write_trace_jsonl(trace: Trace, path: Any, nprocs: int | None = None) -> None:
    from pathlib import Path

    Path(path).write_text(trace_to_jsonl(trace, nprocs=nprocs))


def load_trace_jsonl(source: Any) -> tuple[Trace, dict[str, Any]]:
    """Load a JSONL export back into a :class:`Trace`.

    *source* is a path or a string of JSONL text.  Returns
    ``(trace, header)``.  The rebuilt trace satisfies
    ``loaded.keys() == original.keys()`` — the determinism identity the
    test suite pins.
    """
    from pathlib import Path

    if isinstance(source, str) and "\n" in source:
        text = source
    else:
        text = Path(source).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty JSONL trace")
    header = json.loads(lines[0])
    if header.get("format") != JSONL_FORMAT:
        raise ValueError(
            f"unsupported trace format {header.get('format')!r} "
            f"(want {JSONL_FORMAT!r})"
        )
    trace = Trace(enabled=True, cap=header.get("cap"))
    kinds = {k.value: k for k in TraceKind}
    for ln in lines[1:]:
        rec = json.loads(ln)
        trace.record(
            rec["t"],
            kinds[rec["kind"]],
            rec["rank"],
            **{k: _decode(v) for k, v in rec["detail"].items()},
        )
    trace.dropped = int(header.get("dropped", 0))
    return trace, header


def jsonl_errors(source: Any) -> list[str]:
    """Validate a JSONL trace export line by line (empty list == valid)."""
    from pathlib import Path

    if isinstance(source, str) and "\n" in source:
        text = source
    else:
        text = Path(source).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    errors: list[str] = []
    if not lines:
        return ["empty file"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"header: invalid JSON ({exc})"]
    if not isinstance(header, dict) or header.get("format") != JSONL_FORMAT:
        errors.append(f"header: format != {JSONL_FORMAT!r}")
    kinds = {k.value for k in TraceKind}
    for i, ln in enumerate(lines[1:], start=2):
        where = f"line {i}"
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: invalid JSON ({exc})")
            continue
        if not isinstance(rec, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(rec.get("t"), (int, float)):
            errors.append(f"{where}: t missing or not a number")
        if rec.get("kind") not in kinds:
            errors.append(f"{where}: unknown kind {rec.get('kind')!r}")
        if not isinstance(rec.get("rank"), int):
            errors.append(f"{where}: rank missing or not an int")
        if not isinstance(rec.get("detail"), dict):
            errors.append(f"{where}: detail missing or not an object")
    declared = header.get("events") if isinstance(header, dict) else None
    if isinstance(declared, int) and declared != len(lines) - 1:
        errors.append(
            f"header declares {declared} events, file has {len(lines) - 1}"
        )
    return errors
