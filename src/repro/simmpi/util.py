"""Small deterministic helpers shared across the simulator.

:func:`payload_nbytes` prices a message for the cost model's ``n*G``
term; :func:`_body_nbytes`, a structural walk, defines the size.  Each
exact payload type gets one *sizer* on first sight, which returns exactly
the walk's size for every instance of that type: whatever depends on the
type alone (the walk's branch, the fields, whether ``nbytes`` can win) is
decided once, and a send pays only for the instance's values.
"""

from __future__ import annotations

from keyword import iskeyword
from typing import Any, Callable

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

#: Exact payload type -> its sizer (see :func:`_sizer_for`); never holds
#: a :data:`_FIXED_SCALAR` type.  Bounded by :func:`_remember`, since test
#: suites define dataclasses by the hundred.
_SIZERS: dict[type, Callable[[Any], int]] = {}
_SIZERS_MAX = 1024

#: Container/scalar types that :func:`_body_nbytes` special-cases *before*
#: its dataclass branch; a dataclass subclassing one of these must keep
#: taking that earlier branch, so its fields do not decide its size.
_NON_CACHEABLE_BASES = (
    bool, int, float, complex, str, bytes, bytearray, memoryview,
    list, tuple, set, frozenset, dict,
)


def payload_nbytes(payload: Any) -> int:
    """Deterministically estimate the wire size of a payload in bytes.

    The estimate feeds the cost model only — correctness never depends on
    it.  It intentionally avoids :mod:`pickle` (slow, version-dependent)
    in favour of a simple structural walk, :func:`_body_nbytes`, which
    the payload type's sizer reproduces exactly.

    ``Runtime.post_send`` repeats these lines in its own frame (the hop's
    sizing); keep the two in step.  ``tests/test_util.py``'s property
    test checks both against the walk.
    """
    t = type(payload)
    size = _FIXED_SCALAR.get(t)
    if size is not None:
        return ENVELOPE_BYTES + size
    sizer = _SIZERS.get(t)
    if sizer is None:
        sizer = _sizer_for(t)
    return ENVELOPE_BYTES + sizer(payload)


def _sizer_for(t: type) -> Callable[[Any], int]:
    """Build and remember the sizer of exact payload type *t*.

    * exact ``str``: its UTF-8 length (:func:`_str_nbytes`);
    * exact ``list``/``tuple``/``set``/``frozenset``: 8 plus the element
      sizes (:func:`_elements_nbytes`);
    * a dataclass whose fields decide its size: 8 plus the field sizes
      (:func:`_dataclass_sizer`);
    * anything else — dicts, bytes-likes, arrays, subclasses, objects —
      is rare on the wire and is sized by the walk itself.
    """
    if t is str:
        sizer = _str_nbytes
    elif t is tuple or t is list or t is frozenset or t is set:
        sizer = _elements_nbytes
    elif _sized_by_fields(t):
        sizer = _dataclass_sizer(t)
    else:
        sizer = _body_nbytes
    _remember(_SIZERS, t, sizer)
    return sizer


def _sized_by_fields(t: type) -> bool:
    """Does the walk size every instance of *t* by its dataclass fields?

    Not when an earlier branch takes it (a scalar or container base),
    when the class itself answers ``nbytes`` (a default, property or
    slot), or when attribute lookup is overridden so any instance could.
    """
    return (
        getattr(t, "__dataclass_fields__", None) is not None
        and not issubclass(t, _NON_CACHEABLE_BASES)
        and not hasattr(t, "nbytes")
        and not hasattr(t, "__getattr__")
        and t.__getattribute__ is object.__getattribute__
    )


def _dataclass_sizer(t: type) -> Callable[[Any], int]:
    """8 plus the size of each field, in a function generated for *t*.

    The function reads each field by name and prices it inline — a
    :data:`_FIXED_SCALAR` lookup by exact type, else the type's own
    sizer — so a send pays for no tuple and no loop.  Field names are
    identifiers (a dataclass's always are; a class whose names are not
    is sized by the walk), so only names reach the compiler.  An
    instance with a ``__dict__`` may still carry its own ``int``
    ``nbytes``, which wins exactly as in the walk; with no class-level
    ``nbytes`` (see :func:`_sized_by_fields`) nothing else can.
    """
    names = tuple(t.__dataclass_fields__)
    if not all(n.isidentifier() and not iskeyword(n) for n in names):
        return _body_nbytes
    lines = ["def sizer(p):"]
    if t.__dictoffset__ != 0:
        lines += [
            "    own = getattr(p, 'nbytes', None)",
            "    if isinstance(own, int):",
            "        return own",
        ]
    for i, name in enumerate(names):
        lines += [
            f"    v{i} = p.{name}",
            f"    s{i} = get(type(v{i}))",
            f"    if s{i} is None:",
            f"        s{i} = size(v{i})",
        ]
    terms = ["8", *(f"s{i}" for i in range(len(names)))]
    lines.append("    return " + " + ".join(terms))
    code = compile("\n".join(lines), f"<sizer of {t.__qualname__}>", "exec")
    namespace = {"get": _FIXED_SCALAR.get, "size": _item_nbytes}
    exec(code, namespace)  # noqa: S102 - built from field names alone
    return namespace["sizer"]


def _item_nbytes(x: Any) -> int:
    """A field or element whose type has no fixed size: its sizer's."""
    t = type(x)
    return (_SIZERS.get(t) or _sizer_for(t))(x)


def _elements_nbytes(items: Any) -> int:
    """An exact list, tuple, set or frozenset: 8 plus its elements."""
    fixed, sizers = _FIXED_SCALAR, _SIZERS
    n = 8
    for x in items:
        t = type(x)
        size = fixed.get(t)
        n += size if size is not None else (sizers.get(t) or _sizer_for(t))(x)
    return n


def _str_nbytes(s: str) -> int:
    return len(s) if s.isascii() else len(s.encode("utf-8", errors="replace"))


def _remember(memo: dict[Any, Any], key: Any, value: Any) -> None:
    """Store into a bounded memo: a full one starts over."""
    if len(memo) >= _SIZERS_MAX:
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
