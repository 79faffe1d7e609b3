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
plan of :func:`_plan`), a job reuses the text of every field whose value
is the previous job's object (the batch form of :func:`_batch_for`,
generated for the types jobs are keyed as), the salts are hashed once
per batch, and while only a job's last field changes, only that field's
text is hashed.
:func:`job_key` and :func:`canonical_token` are the one-object forms.
None of this may move a byte of any token: ``tests/test_cache_keys.py``
holds literal keys, the previous tree-then-``json.dumps`` canonicalizer
and the field-plan loop the generated encoders replaced as oracles, and
checks every key of drawn batches against the job keyed alone.
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
from . import KEY_FORMAT

__all__ = [
    "KEY_FORMAT",
    "Uncacheable",
    "canonical_token",
    "job_key",
    "job_keys",
]

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


_Encoder = Callable[[Any, _Memo], str]

#: Dataclass type -> ``[encoder, batch form]``: its generated encoder
#: (see :func:`_encoder_for`), and the factory that binds its batch form
#: to one call's salted hash state, or ``None`` until a batch first keys
#: an object of the type (see :func:`_batch_for`).  Only types that
#: reach the dataclass branch of :func:`_compound_text` are entered, so
#: looking one up first changes no branch.
_ENCODERS: dict[type, list] = {}

#: What a batch form remembers of a field before its first object: no
#: field value ``is`` it.
_UNSEEN = object()


def _fields_source(
    cls: type,
) -> tuple[list[str], list[tuple[str, list[str]]]]:
    """The generated source both encoder forms of dataclass *cls* share.

    First the token's parts in order: the ``repr()`` of each text of
    :func:`_plan` (its head, then each field's text up to the value)
    and, after each field's, the name ``s<i>`` of its value's text.
    Then per field, in plan order, the expression that reads it from
    ``o`` and the lines that price its value ``v<i>`` into ``s<i>``.

    Plan texts enter the source only as ``repr()`` string literals, and
    a field name only as an attribute when it is a plain identifier
    (else as a literal read through ``getattr``), so no name can inject
    code and every dataclass gets an encoder.
    """
    head, plan = _plan(cls)
    parts = [repr(head)]
    fields_ = []
    for i, (name, prefix) in enumerate(plan):
        v, t, s = f"v{i}", f"t{i}", f"s{i}"
        read = (
            f"o.{name}" if name.isidentifier() and not iskeyword(name)
            else f"getattr(o, {name!r})"
        )
        parts += [repr(prefix), s]
        fields_.append((read, [
            f"{t} = type({v})",
            f"if {t} is str:",
            f"    {s} = quote({v})",
            f"elif {t} is int:",
            f"    {s} = repr({v})",
            f"elif {t} is float:",
            f"    {s} = non_finite.get({s} := repr({v}), {s})",
            f"elif {v} is None:",
            f"    {s} = 'null'",
            f"elif {t} is bool:",
            f"    {s} = 'true' if {v} else 'false'",
            f"elif ({s} := memo.get(id({v}))) is not None:",
            f"    {s} = {s}[1]",
            "else:",
            f"    {s} = text({v}, memo)",
        ]))
    return parts, fields_


def _compiled(cls: type, lines: list[str], what: str, name: str) -> Any:
    """Compile generated *lines* for *cls* and return the function
    *name* they define."""
    code = compile(
        "\n".join(lines), f"<cache-key {what} of {cls.__qualname__}>", "exec"
    )
    namespace = {
        "getattr": getattr, "type": type, "id": id, "repr": repr,
        "str": str, "int": int, "float": float, "bool": bool,
        "quote": _quote, "non_finite": _NON_FINITE, "text": _text,
        "unseen": _UNSEEN,
    }
    exec(code, namespace)  # noqa: S102 - no name enters as code
    return namespace[name]


def _encoder_for(cls: type) -> _Encoder:
    """Generate and remember the encoder of dataclass *cls*.

    ``encode(obj, memo)`` reads each field of :func:`_plan` in order and
    prices the exact types ``str``, ``int``, ``float``, ``bool`` and
    ``None`` inline, as :func:`_text` would, then an object already in
    the memo; only a value outside all of those goes to :func:`_text`.
    It then joins the plan's texts and the values' in one call.
    """
    parts, fields_ = _fields_source(cls)
    lines = ["def encode(o, memo):"]
    for i, (read, price) in enumerate(fields_):
        lines += [f"    v{i} = {read}", *("    " + line for line in price)]
    lines.append("    return ''.join((" + ", ".join([*parts, repr("}}")]) + "))")
    encode = _compiled(cls, lines, "encoder", "encode")
    _ENCODERS[cls] = [encode, None]
    return encode


def _batch_for(cls: type) -> Callable[[Any], _Encoder]:
    """Generate and remember the batch form of the encoder of dataclass
    *cls*, which :func:`_encoder_for` generated: compiled the first time
    a batch keys an object of *cls*, so a type only ever nested inside a
    job has none.

    ``batch(salt)`` returns a fresh ``key_of(obj, memo)``: the key of
    each object of one batch in turn, the digest of *salt* (a hash state
    of the salts) fed the token and a NUL, as :func:`job_keys` defines
    it.  It remembers the previous object's field values and their texts
    (``p<i>``, ``q<i>``), and a field whose value ``is`` the remembered
    one reuses its text.  It remembers the new values only once every
    field is priced, so a field that raises :class:`Uncacheable` leaves
    the memory as it was.  Holding the values keeps their ids from being
    reused, as the memo's entries do.  It also keeps ``rest``, *salt*'s
    state after the token text up to the last field's value, for the
    remembered values: a job that changes only its last field (a
    campaign's ``seed``) hashes only that field's text, and a change to
    any other field drops ``rest`` before it is priced, so ``rest`` is
    never older than the memory.
    """
    parts, fields_ = _fields_source(cls)
    width = len(fields_)
    held = [f"p{i}" for i in range(width)] + [f"q{i}" for i in range(width)]
    lines = ["def batch(salt):"]
    if width:
        lines += [
            "    " + " = ".join([*held[:width], "unseen"]),
            "    " + " = ".join([*held[width:], "None"]),
        ]
    lines += [
        "    rest = None",
        "    def key_of(o, memo):",
        "        nonlocal " + ", ".join([*held, "rest"]),
    ]
    for i, (read, price) in enumerate(fields_):
        lines += [
            f"        v{i} = {read}",
            f"        if v{i} is p{i}:",
            f"            s{i} = q{i}",
            "        else:",
            *(["            rest = None"] if i < width - 1 else []),
            *("            " + line for line in price),
        ]
    # What the batch form hashes once into ``rest`` (the text before the
    # last field's value), then per object (that value, "}}" and a NUL).
    lead = parts[:-1] if width else parts[:]
    end = repr("}}\0")
    tail = f"({parts[-1]} + {end})" if width else end
    lines += [
        *(f"        p{i} = v{i}; q{i} = s{i}" for i in range(width)),
        "        if rest is None:",
        "            rest = salt.copy()",
        "            rest.update(''.join((" + ", ".join(lead) + ")).encode())",
        "        h = rest.copy()",
        f"        h.update({tail}.encode())",
        "        return h.hexdigest()",
        "    return key_of",
    ]
    batch = _ENCODERS[cls][1] = _compiled(cls, lines, "batch form", "batch")
    return batch


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
    encoders = _ENCODERS.get(cls)
    text = (
        encoders[0](obj, memo) if encoders is not None
        else _compound_text(obj, memo)
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

    A job participates in caching only when its type implements the
    cache contract (``cache_payload``/``from_cached``, see
    ``repro/parallel/jobs.py``), it does not veto via a false
    ``cacheable`` property (e.g. ``keep_results=True`` jobs, whose
    result cannot be reduced to a JSON payload), and it canonicalizes
    cleanly.

    *jobs* is read to the end before the first key is derived, so every
    job of a lazy iterable is keyed as it stands once the whole batch
    exists, as it will run.  The jobs of one sweep share most of what
    they hold (one scenario, one invariant spec, the same windows), so
    each distinct sub-object is encoded once per call: the memo lives
    exactly as long as this call, and a spec changed between two sweeps
    is read again.  Per dataclass type, the batch form of the generated
    encoder remembers the previous job's field values and texts, and a
    field whose value ``is`` the remembered one reuses its text; while
    only the last field changes, the hash resumes after the text before
    it.  A campaign batch, whose jobs differ only in ``seed`` (last in
    sorted order), encodes and hashes one field per job.

    The key is the blake2b-160 digest of the salts, each followed by a
    NUL, then the job's canonical token and a NUL.
    """
    jobs = list(jobs)
    memo: _Memo = {}
    salt = hashlib.blake2b(digest_size=20)
    for part in (KEY_FORMAT, __version__, ",".join(active_set())):
        salt.update(part.encode() + b"\x00")
    #: Job type -> whether it implements the cache contract.
    contract: dict[type, bool] = {}
    #: Job type -> its batch form, bound to this call's salt
    #: (see :func:`_batch_for`).
    batches: dict[type, Callable[[Any, _Memo], str]] = {}
    keys: list[str | None] = []
    for job in jobs:
        cls = type(job)
        inside = contract.get(cls)
        if inside is None:
            inside = contract[cls] = (
                hasattr(cls, "cache_payload") and hasattr(cls, "from_cached")
            )
        key = None
        if inside and getattr(job, "cacheable", True):
            key_of = batches.get(cls)
            try:
                if key_of is not None:
                    key = key_of(job, memo)
                elif (generated := _ENCODERS.get(cls)) is not None:
                    batch = generated[1] or _batch_for(cls)
                    key_of = batches[cls] = batch(salt)
                    key = key_of(job, memo)
                else:
                    h = salt.copy()
                    h.update(_text(job, memo).encode() + b"\x00")
                    key = h.hexdigest()
            except Uncacheable:
                pass
        keys.append(key)
    return keys


def job_key(job: Any) -> str | None:
    """:func:`job_keys` for one job."""
    return job_keys((job,))[0]
