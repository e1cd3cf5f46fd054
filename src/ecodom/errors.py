"""The input boundary: one error type for bad input files, one strict
JSON reader, the hook that checks a record's values when it is made and
the bulk check of a column of floats.

Every loader raises a subclass of :class:`InputError`, and the CLI maps
that one type to exit code 2.  This module imports nothing from ecodom,
so any module can use it.
"""

import json
import math
import sys
from pathlib import Path

#: The ``default`` of a key that :func:`field` requires.
REQUIRED = object()


def checked(cls):
    """Class decorator: the named-tuple record ``cls`` runs its ``_check``
    method on every new record, ``_replace`` copies included.

    ``_replace`` builds its copy through ``_make``, which skips
    ``__new__``, so both are wrapped; ``_check`` raises ValueError.
    """
    new, make = cls.__new__, cls._make.__func__

    def __new__(klass, *args, **kwargs):
        record = new(klass, *args, **kwargs)
        record._check()
        return record

    def _make(klass, iterable):
        record = make(klass, iterable)
        record._check()
        return record

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(_make)
    return cls


class InputError(ValueError):
    """An input file or value is malformed, incomplete or out of range."""


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _float_sized_int(text: str) -> int:
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer {text[:20]}... is too large for a float")
    return value


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return doc


def read_json(source, error: type[InputError] = InputError) -> dict:
    """Parse a UTF-8 JSON file whose top level is an object.

    ``source`` is a path or an ``importlib.resources`` traversable.
    ``NaN``/``Infinity`` tokens and numbers beyond the float range are
    refused, so every number in the result converts to a finite float,
    and so are strings that cannot be written back as UTF-8 (a lone
    ``\\ud800`` escape) and an object that holds one key twice.  Any
    failure to parse raises ``error`` naming the file.
    """
    raw = source.read_bytes() if hasattr(source, "read_bytes") else Path(source).read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys,
                         parse_float=_finite_float, parse_int=_float_sized_int,
                         parse_constant=_reject_constant)
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:
        raise error(f"{source}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{source}: expected a JSON object at the top level")
    return doc


_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string",
               bool: "true or false", list: "a list", dict: "an object"}


def is_number(value) -> bool:
    """True for a finite int or float; a JSON ``true``/``false`` is not a number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def number(value) -> float:
    """A finite number as a float; anything else raises TypeError."""
    if not is_number(value):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def within(column, low: float | None = None, high: float | None = None) -> bool:
    """True when every value of the float ``column`` is finite and, where
    a bound is given, in [low, high]: a few passes of C-level builtins,
    not one comparison per value in Python."""
    # a sum of finite values is finite unless it overflows
    if not (math.isfinite(sum(column)) or all(map(math.isfinite, column))):
        return False
    return ((low is None or low <= min(column, default=low))
            and (high is None or max(column, default=high) <= high))


def field(doc, key: str, kind: type, default=REQUIRED):
    """``doc[key]`` checked against a JSON type, or ``default`` when absent.

    ``kind`` is ``float`` (any finite number, returned as a float),
    ``int``, ``str``, ``bool``, ``list`` or ``dict``; booleans match only
    ``bool``.  A missing required key raises ValueError, a wrong type
    TypeError; loaders turn both into their own InputError.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"expected an object holding {key!r}, got {doc!r}")
    if key not in doc:
        if default is REQUIRED:
            raise ValueError(f"missing field {key!r}")
        return default
    value = doc[key]
    if kind is float and is_number(value):
        return float(value)
    if (kind is float or not isinstance(value, kind)
            or (isinstance(value, bool) and kind is not bool)):
        raise TypeError(f"{key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value
