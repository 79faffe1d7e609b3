"""Small deterministic helpers shared across the simulator."""

from __future__ import annotations

from operator import attrgetter
from typing import Any

#: Fixed per-message envelope size added to every payload estimate.
ENVELOPE_BYTES = 32

#: Exact-type sizes for fixed-width scalars (the common ring payloads).
#: ``type(x)`` lookups here mirror the ``isinstance`` chain of
#: :func:`_body_nbytes` exactly for these types (bool before int, etc.).
_FIXED_SCALAR: dict[type, int] = {
    type(None): 0,
    bool: 1,
    int: 8,
    float: 8,
    complex: 16,
}

#: Shape key -> total wire size.  A *shape* captures exactly the parts of
#: a payload that determine its estimated size (see :func:`_shape_token`):
#: the ring re-measures the same ``RingMsg(value=int, marker=int)`` token
#: on every send, and the agreement protocol re-sends the same couple of
#: message shapes on every instance, so after the first structural walk
#: each repeat is one dict hit.  Sizes are always computed
#: by :func:`_body_nbytes` on a miss, so a cache hit is byte-identical to
#: the walk by construction.
_SHAPE_CACHE: dict[Any, int] = {}
_SHAPE_CACHE_MAX = 1024

#: Dataclass type -> ``attrgetter`` over its fields, for dataclasses of two
#: or more fields.  The token of a *flat* instance, every field a
#: fixed-width scalar, is ``(type, *field types)``, which
#: :func:`payload_nbytes` builds from the getter in C calls alone.  Bounded
#: like the shape cache (test suites define dataclasses by the hundred).
_FIELD_GETTERS: dict[type, Any] = {}

#: Container/scalar types that :func:`_body_nbytes` special-cases *before*
#: its dataclass branch; a dataclass subclassing one of these must keep
#: taking that earlier branch, so it is ineligible for the shape cache.
_NON_CACHEABLE_BASES = (
    bool, int, float, complex, str, bytes, bytearray, memoryview,
    list, tuple, set, frozenset, dict,
)

_SIMPLE_CONTAINERS = (tuple, list, set, frozenset)


def _shape_token(v: Any) -> Any:
    """A hashable key fragment that fully determines ``_body_nbytes(v)``.

    Returns ``None`` when no cheap size-determining key exists (dicts,
    mixed or nested containers, subclasses, objects) — the caller then
    falls back to the structural walk.  Tokens:

    * fixed-width scalar -> its exact type (constant size),
    * ``str`` -> the string itself (size is its UTF-8 length; interned
      protocol tags like ``"round"``/``"decide"`` repeat endlessly),
    * ``bytes``/``bytearray`` -> ``(type, len)``,
    * flat ``tuple``/``list``/``set``/``frozenset`` whose elements are all
      the *same* fixed-width scalar type -> ``(type, elem_type, len)``,
    * the same containers whose elements are all plain tuples of one
      fixed-width scalar shape -> ``(type, (tuple, *elem types), len)``
      (the agreement's ``frozenset`` of ``(int, int)`` pairs),
    * a dataclass whose fields all have tokens -> ``(type, *field tokens)``
      (see :func:`_dataclass_token`), so a wrapper such as the replication
      envelope around a ring message resolves in one lookup too.
    """
    t = type(v)
    if t in _FIXED_SCALAR:
        return t
    if t is str:
        return v
    if t is bytes or t is bytearray:
        return (t, len(v))
    if t in _SIMPLE_CONTAINERS:
        et = None
        for x in v:
            xt = type(x)
            if xt is tuple:
                xt = (tuple, *map(type, x))
            if et is None:
                if xt not in _FIXED_SCALAR and not (
                    type(xt) is tuple and all(e in _FIXED_SCALAR for e in xt[1:])
                ):
                    return None
                et = xt
            elif xt != et:
                return None
        return (t, et, len(v))
    fields = getattr(t, "__dataclass_fields__", None)
    if fields is not None:
        return _dataclass_token(v, t, fields)
    return None


def _dataclass_token(v: Any, t: type, fields: Any) -> Any:
    """``(type, *field tokens)`` for a dataclass instance, or ``None``.

    ``None`` too when :func:`_body_nbytes` would not reach its dataclass
    branch: an ``int`` ``nbytes`` attribute wins the walk, and a subclass
    of a container or scalar type takes that type's earlier branch.
    """
    if isinstance(getattr(v, "nbytes", None), int) or isinstance(
        v, _NON_CACHEABLE_BASES
    ):
        return None
    # Inline _shape_token for the common field kinds: this runs per send
    # on the kernel's hot path, and fixed scalars and short strings
    # resolve in one dict/type check.
    toks = []
    for f in fields:
        x = getattr(v, f)
        xt = type(x)
        if xt in _FIXED_SCALAR:
            toks.append(xt)
            continue
        tok = x if xt is str else _shape_token(x)
        if tok is None:
            return None
        toks.append(tok)
    return (t, *toks)


def payload_nbytes(payload: Any) -> int:
    """Deterministically estimate the wire size of a payload in bytes.

    The estimate feeds the cost model only — correctness never depends on
    it.  It intentionally avoids :mod:`pickle` (slow, version-dependent)
    in favour of a simple structural walk; repeated *shapes* (same
    dataclass type, same size-determining field tokens) are memoised
    because the ring and the consensus protocol re-measure identical
    tokens on every send.
    """
    t = type(payload)
    size = _FIXED_SCALAR.get(t)
    if size is not None:
        return ENVELOPE_BYTES + size
    get = _FIELD_GETTERS.get(t)
    if get is not None:
        # A flat instance's token, built without a Python frame.  Only
        # tokens are stored, and a bare type in one is always a fixed-width
        # scalar, so a hit means the instance is flat; the per-instance
        # guard of _dataclass_token (an int ``nbytes``) still applies.
        size = _SHAPE_CACHE.get((t, *map(type, get(payload))))
        if size is not None and not isinstance(
            getattr(payload, "nbytes", None), int
        ):
            return size
    fields = getattr(t, "__dataclass_fields__", None)
    if fields is not None:  # every send of the ring and the agreement
        if get is None and len(fields) > 1:
            _remember(_FIELD_GETTERS, t, attrgetter(*fields))
        key = _dataclass_token(payload, t, fields)
    else:
        key = _shape_token(payload)
    if key is None:
        return ENVELOPE_BYTES + _body_nbytes(payload)
    size = _SHAPE_CACHE.get(key)
    if size is None:
        size = ENVELOPE_BYTES + _body_nbytes(payload)
        _remember(_SHAPE_CACHE, key, size)
    return size


def _remember(memo: dict[Any, Any], key: Any, value: Any) -> None:
    """Store into a bounded memo: a full one starts over."""
    if len(memo) >= _SHAPE_CACHE_MAX:
        memo.clear()
    memo[key] = value


def _body_nbytes(obj: Any) -> int:
    if obj is None:
        return 0
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    nbytes = getattr(obj, "nbytes", None)  # numpy arrays and friends
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 8 + sum(_body_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 8 + sum(_body_nbytes(k) + _body_nbytes(v) for k, v in obj.items())
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is not None:
        return 8 + sum(_body_nbytes(getattr(obj, f)) for f in fields)
    slots = getattr(obj, "__slots__", None)
    if slots is not None:
        return 8 + sum(_body_nbytes(getattr(obj, s, None)) for s in slots)
    d = getattr(obj, "__dict__", None)
    if isinstance(d, dict):
        return 8 + sum(_body_nbytes(v) for v in d.values())
    return 64  # opaque object: flat guess
