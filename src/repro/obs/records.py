"""The JSONL record envelope of the trace, telemetry and span streams.

A stream is one header object — its ``format`` tag and, under the
schema's ``count_key``, how many of the body lines it counts — then
one JSON object per line.  Every writer encodes a record with
:func:`line` (compact, sorted keys), so identical records are identical
bytes.  A :class:`Schema` is the rest of one stream's contract, as
data, declared beside its producer:

* :data:`repro.obs.export.TRACE` — ``repro.trace/1``, the kernel trace;
* :data:`repro.obs.telemetry.TELEMETRY` — ``repro.telemetry/1``, one
  line per sweep job;
* :data:`repro.obs.spans.SPANS` — ``repro.spans/1``, pipeline spans.

:func:`read`, :func:`errors` and :func:`canon` take the schema and a
source: a path, JSONL text, or a list of records, header first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "NUMBER", "Schema", "canon", "dumps", "errors", "field_errors", "line",
    "read",
]

Record = dict[str, Any]

#: The field type of a JSON number.
NUMBER = (int, float)

#: How :func:`field_errors` names each field type.
_TYPE_NAMES = {int: "an int", NUMBER: "a number", dict: "an object"}


@dataclass(frozen=True)
class Schema:
    """One stream's contract beyond the envelope."""

    #: The header's ``format`` tag.
    format: str
    #: The header key that declares how many body lines it counts.
    count_key: str
    #: ``(header, body) -> problems`` for the stream's own header and
    #: line rules; ``body[i]`` is line ``i + 2``.  Must not raise.
    rules: Callable[[Record, list[Record]], list[str]]
    #: The ``kind`` of the body lines the header counts; ``None``: all.
    count_kind: str | None = None
    #: Keys the canonical view drops.
    volatile: frozenset[str] = frozenset()
    #: The records, header included, the canonical view keeps; ``None``
    #: when the stream has no canonical view.
    canonical: Callable[[Record], bool] | None = None


def line(record: Record) -> str:
    """*record* as one compact, sorted-key JSON line, without newline."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def dumps(records: Iterable[Record]) -> str:
    """A whole stream, header first: one :func:`line` per record."""
    return "".join(line(r) + "\n" for r in records)


def read(source: Any, schema: Schema) -> tuple[Record, list[Record]]:
    """Parse *source* into ``(header, body)``.

    Raises :class:`ValueError`, naming the line, when the source cannot
    be read, is empty, holds a line that is not a JSON object, or
    carries another format tag.  Blank lines are skipped and not
    numbered.
    """
    if isinstance(source, list):
        records = source
    else:
        if isinstance(source, str) and "\n" in source:
            text = source
        else:
            try:
                text = Path(source).read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise ValueError(f"unreadable: {exc}") from None
        records = []
        for n, ln in enumerate(
            (ln for ln in text.splitlines() if ln.strip()), start=1
        ):
            try:
                records.append(json.loads(ln))
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {n}: invalid JSON ({exc})") from None
    if not records:
        raise ValueError("empty stream (no header)")
    for n, rec in enumerate(records, start=1):
        if not isinstance(rec, dict):
            raise ValueError(f"line {n}: not a JSON object")
    header = records[0]
    if header.get("format") != schema.format:
        raise ValueError(
            f"line 1: format {header.get('format')!r}, want {schema.format!r}"
        )
    return header, records[1:]


def errors(source: Any, schema: Schema) -> list[str]:
    """Every problem of *source* under *schema*; empty when valid.
    Never raises on bad input."""
    try:
        header, body = read(source, schema)
    except ValueError as exc:
        return [str(exc)]
    declared = header.get(schema.count_key)
    counted = sum(schema.count_kind in (None, rec.get("kind")) for rec in body)
    problems = []
    if type(declared) is not int or declared != counted:  # bool is no count
        problems.append(
            f"header declares {schema.count_key}={declared!r}, "
            f"file has {counted}"
        )
    return problems + schema.rules(header, body)


def field_errors(
    record: Record, where: str, types: dict[str, Any]
) -> list[str]:
    """One problem per key of *types* whose value in *record* is missing
    or not of that type (``int``, :data:`NUMBER` or ``dict``)."""
    return [
        f"{where}: {key} missing or not {_TYPE_NAMES[t]}"
        for key, t in types.items()
        if not isinstance(record.get(key), t)
    ]


def canon(source: Any, schema: Schema) -> list[str]:
    """The determinism view: the records ``schema.canonical`` keeps,
    volatile keys dropped, as sorted :func:`line` strings."""
    if schema.canonical is None:
        raise ValueError(f"{schema.format} has no canonical view")
    header, body = read(source, schema)
    return sorted(
        line({k: v for k, v in rec.items() if k not in schema.volatile})
        for rec in (header, *body)
        if schema.canonical(rec)
    )
