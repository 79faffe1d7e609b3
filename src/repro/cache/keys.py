"""Canonical cache keys: one blake2b digest per sweep job.

A job outcome may be reused only when *everything* that determines it is
captured in the key.  PR 3 made every sweep job a pure function of a
picklable spec, so the key is a canonical serialization of the job
dataclass itself — scenario spec, policy + seed, cost/jitter parameters,
fault schedule, invariant spec, trace flag — salted with:

* the package version (``repro.__version__``) — a *code-version salt*:
  protocol or kernel changes ship as version bumps, which invalidate
  every entry at once (``repro cache verify`` exists to catch the
  in-between states of a development tree);
* the active mutation set (:func:`repro.mutation.active_set`), so a
  deliberately weakened build (``ring_no_dedup``, ``REPRO_MUTATIONS``)
  never reuses outcomes recorded by an intact one.

Canonicalization is strict by design: anything whose behaviour the key
cannot pin — a lambda, a closure, an unrecognized object — raises
:class:`Uncacheable`, and :func:`job_key` maps that to ``None`` (the job
simply runs uncached).  A wrong key silently serves a wrong result; *no*
key merely costs a re-run.

One encoder, :func:`_text`, writes the token — compact JSON with sorted
object keys, the grammar tabulated in ``docs/caching.md`` — straight to
text.  Keys are the largest term of a warm replay, and the jobs of one
sweep hold the same scenario, invariant and window objects, so
:func:`job_keys` encodes each distinct non-scalar object once per batch
(a memo that lives for that one call), each dataclass type gets one
generated encoder per process (:func:`_encoder_for`, reading the field
plan of :func:`_plan`), and the salts are hashed once per batch.
:func:`job_key` and :func:`canonical_token` are the one-object forms.
None of this may move a byte of any token: ``tests/test_cache_keys.py``
holds literal keys, the previous tree-then-``json.dumps`` canonicalizer
and the field-plan loop the generated encoders replaced as oracles.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import fields, is_dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from keyword import iskeyword
from typing import Any, Callable, Iterable

from .. import __version__
from ..mutation import active_set

__all__ = [
    "KEY_FORMAT",
    "Uncacheable",
    "canonical_token",
    "job_key",
    "job_keys",
]

#: Entry/key layout version; bump when the payload shape or the key
#: composition changes (old entries then read as stale, never as hits).
KEY_FORMAT = "repro.cache/1"


class Uncacheable(TypeError):
    """The object cannot be canonically serialized into a cache key."""


#: One encoding pass's memo: ``id(obj) -> (obj, text)`` for every
#: non-scalar already encoded.  Holding *obj* keeps its id from being
#: reused while the memo lives.
_Memo = dict[int, tuple[Any, str]]

_int_text = int.__repr__
_float_repr = float.__repr__
#: ``float.__repr__`` of the non-finite values -> what JSON text says.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(obj: float) -> str:
    text = _float_repr(obj)  # shortest round-trip: identity survives
    return _NON_FINITE.get(text, text)


def _qualname(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _plan(cls: type) -> tuple[str, tuple[tuple[str, str], ...]]:
    """The field plan of dataclass *cls*: the text that opens its token,
    and ``(name, text up to the value)`` per keyed field in sorted name
    order.  A class attribute ``_cache_key_exclude`` and a leading
    underscore keep a field out of the key."""
    exclude = set(getattr(cls, "_cache_key_exclude", ()))
    names = sorted(
        f.name
        for f in fields(cls)
        if f.name not in exclude and not f.name.startswith("_")
    )
    return (
        '{"__dc__":' + _quote(_qualname(cls)) + ',"fields":{',
        tuple(
            (name, ("," if i else "") + _quote(name) + ":")
            for i, name in enumerate(names)
        ),
    )


#: Dataclass type -> its generated encoder (see :func:`_encoder_for`).
#: Only types that reach the dataclass branch of :func:`_compound_text`
#: are entered, so looking one up first changes no branch.
_ENCODERS: dict[type, Callable[[Any, _Memo], str]] = {}


def _encoder_for(cls: type) -> Callable[[Any, _Memo], str]:
    """Generate and remember the encoder of dataclass *cls*.

    The function reads each field of :func:`_plan` in order and prices
    the exact types ``str``, ``int``, ``float``, ``bool`` and ``None``
    inline, as :func:`_text` would, then an object already in the memo;
    only a value outside all of those goes to :func:`_text`.  It then
    joins the plan's texts and the values' in one call.  Plan texts
    enter the source only as ``repr()`` string literals, and a field
    name only as an attribute when it is a plain identifier (else as a
    literal read through ``getattr``), so no name can inject code and
    every dataclass gets an encoder.
    """
    head, plan = _plan(cls)
    lines = ["def encode(o, memo):"]
    parts = [repr(head)]
    for i, (name, prefix) in enumerate(plan):
        v, t, s = f"v{i}", f"t{i}", f"s{i}"
        read = (
            f"o.{name}" if name.isidentifier() and not iskeyword(name)
            else f"getattr(o, {name!r})"
        )
        lines += [
            f"    {v} = {read}",
            f"    {t} = type({v})",
            f"    if {t} is str:",
            f"        {s} = quote({v})",
            f"    elif {t} is int:",
            f"        {s} = repr({v})",
            f"    elif {t} is float:",
            f"        {s} = non_finite.get({s} := repr({v}), {s})",
            f"    elif {v} is None:",
            f"        {s} = 'null'",
            f"    elif {t} is bool:",
            f"        {s} = 'true' if {v} else 'false'",
            f"    elif ({s} := memo.get(id({v}))) is not None:",
            f"        {s} = {s}[1]",
            "    else:",
            f"        {s} = text({v}, memo)",
        ]
        parts += [repr(prefix), s]
    parts.append(repr("}}"))
    lines.append("    return ''.join((" + ", ".join(parts) + "))")
    code = compile(
        "\n".join(lines), f"<cache-key encoder of {cls.__qualname__}>", "exec"
    )
    namespace = {
        "getattr": getattr, "type": type, "id": id, "repr": repr,
        "str": str, "int": int, "float": float, "bool": bool,
        "quote": _quote, "non_finite": _NON_FINITE, "text": _text,
    }
    exec(code, namespace)  # noqa: S102 - no name enters as code
    encode = namespace["encode"]
    _ENCODERS[cls] = encode
    return encode


def _text(obj: Any, memo: _Memo) -> str:
    """The canonical JSON text that pins *obj*'s identity exactly."""
    cls = type(obj)
    # Exact scalar types print what ``json.dumps`` prints; their
    # subclasses (IntEnum, str-mixin enums) go the long way round.
    if cls is str:
        return _quote(obj)
    if cls is int:
        return _int_text(obj)
    if cls is float:
        return _float_text(obj)
    if obj is None:
        return "null"
    if cls is bool:
        return "true" if obj else "false"
    known = memo.get(id(obj))
    if known is not None:
        return known[1]
    encode = _ENCODERS.get(cls)
    text = (
        encode(obj, memo) if encode is not None else _compound_text(obj, memo)
    )
    memo[id(obj)] = (obj, text)
    return text


def _compound_text(obj: Any, memo: _Memo) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return _int_text(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_text(x, memo) for x in obj]) + "]"
    if isinstance(obj, (set, frozenset)):
        # Order-independent listing: members sorted by canonical text.
        members = sorted([_text(x, memo) for x in obj])
        return '{"__set__":[' + ",".join(members) + "]}"
    if isinstance(obj, dict):
        items = sorted(
            ["[" + _text(k, memo) + "," + _text(v, memo) + "]"
             for k, v in obj.items()]
        )
        return '{"__map__":[' + ",".join(items) + "]}"
    if isinstance(obj, Enum):
        return (
            '{"__enum__":' + _quote(_qualname(type(obj)))
            + ',"value":' + _text(obj.value, memo) + "}"
        )
    if is_dataclass(obj) and not isinstance(obj, type):
        return _encoder_for(type(obj))(obj, memo)
    if isinstance(obj, functools.partial):
        return (
            '{"__partial__":[' + _text(obj.func, memo) + ","
            + _text(obj.args, memo) + "," + _text(obj.keywords, memo) + "]}"
        )
    if callable(obj):
        name = _qualname(obj if isinstance(obj, type) else type(obj))
        if isinstance(obj, type):
            raise Uncacheable(f"bare class {name} cannot be keyed")
        qual = getattr(obj, "__qualname__", "")
        mod = getattr(obj, "__module__", "")
        if not mod or not qual or "<lambda>" in qual or "<locals>" in qual:
            raise Uncacheable(
                f"callable {qual or obj!r} is not addressable by name "
                "(lambdas/closures cannot be cache-keyed)"
            )
        return '{"__fn__":' + _quote(f"{mod}.{qual}") + "}"
    raise Uncacheable(
        f"cannot canonicalize {type(obj).__name__} for a cache key"
    )


def canonical_token(obj: Any) -> str:
    """The canonical JSON string for *obj* (raises :class:`Uncacheable`)."""
    return _text(obj, {})


def job_keys(jobs: Iterable[Any]) -> list[str | None]:
    """One content-addressed key per job, ``None`` where uncacheable.

    A job participates in caching only when it implements the cache
    contract (``cache_payload``/``from_cached``, see
    ``repro/parallel/jobs.py``), does not veto via a false ``cacheable``
    property (e.g. ``keep_results=True`` jobs, whose result cannot be
    reduced to a JSON payload), and canonicalizes cleanly.

    The jobs of one sweep share most of what they hold (one scenario,
    one invariant spec, the same windows), so each distinct sub-object
    is encoded once per call: the memo lives exactly as long as this
    call, and a spec changed between two sweeps is read again.
    """
    memo: _Memo = {}
    salt = hashlib.blake2b(digest_size=20)
    for part in (KEY_FORMAT, __version__, ",".join(active_set())):
        salt.update(part.encode() + b"\x00")
    keys: list[str | None] = []
    for job in jobs:
        key = None
        if (
            hasattr(job, "cache_payload")
            and hasattr(job, "from_cached")
            and getattr(job, "cacheable", True)
        ):
            # A wrapper job (e.g. repro.obs.telemetry.TelemetryJob) may
            # nominate the job it wraps as its key identity: the wrapper
            # adds bookkeeping, not behaviour, so wrapped and bare runs
            # share cache entries.
            target = getattr(job, "cache_key_delegate", job)
            encode = _ENCODERS.get(type(target))
            try:
                token = (
                    encode(target, memo) if encode is not None
                    else _text(target, memo)
                )
            except Uncacheable:
                pass
            else:
                h = salt.copy()
                h.update(token.encode() + b"\x00")
                key = h.hexdigest()
        keys.append(key)
    return keys


def job_key(job: Any) -> str | None:
    """:func:`job_keys` for one job."""
    return job_keys((job,))[0]
