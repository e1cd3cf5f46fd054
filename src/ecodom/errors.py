"""The input boundary: one error type for bad input files, one strict
JSON reader, one walker of the declared format of every JSON document,
ranges included, and the bulk check of a column of floats.  A document's
rules across fields run in its own reader, after the walk.

Every loader raises a subclass of :class:`InputError`, and the CLI maps
that one type to exit code 2.  This module imports nothing from ecodom,
so any module can use it.
"""

import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

#: The ``default`` of a key that :func:`read_format` requires.
REQUIRED = object()


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
        text = raw.decode("utf-8")
        doc = json.loads(text, object_pairs_hook=_unique_keys,
                         parse_float=_finite_float, parse_int=_float_sized_int,
                         parse_constant=_reject_constant)
        # a lone surrogate comes only from a \uDxxx escape: the UTF-8
        # decode refuses an encoded one
        if "\\ud" in text or "\\uD" in text:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:
        raise error(f"{source}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{source}: expected a JSON object at the top level")
    return doc


class Range(NamedTuple):
    """A format's form of a number held to a range (see
    :func:`read_format`): a finite number, an integer when ``kind`` is
    int, in [low, high], a ``high`` of None being open and a bound named
    by ``low_open`` or ``high_open`` excluded."""

    low: float
    high: float | None = None
    low_open: bool = False
    high_open: bool = False
    kind: type = float

    def holds(self, value: float) -> bool:
        high = self.high
        return ((self.low < value if self.low_open else self.low <= value)
                and (high is None or (value < high if self.high_open else value <= high)))

    def rule(self, inside: str = "must be in") -> str:
        """The one wording of a range, in every file: ``must be >= 0``,
        ``must be > 0``, or, with both bounds, ``inside`` then the
        interval, ``must be in [0, 360)``; bounds are written by ``%g``,
        with no trailing ``.0``."""
        low, high = self.low, self.high
        if high is None:
            return f"must be {'>' if self.low_open else '>='} {low:g}"
        return (f"{inside} {'(' if self.low_open else '['}{low:g}, "
                f"{high:g}{')' if self.high_open else ']'}")


POSITIVE = Range(0.0, low_open=True)
NON_NEGATIVE = Range(0.0)
FRACTION = Range(0.0, 1.0)


_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string",
               bool: "true or false", list: "a list", dict: "an object"}
JSON_TYPES = (float, str, int, bool)


def is_number(value) -> bool:
    """True for a finite int or float; a JSON ``true``/``false`` is not a number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def within(column, low: float | None = None, high: float | None = None) -> bool:
    """True when every value of the float ``column`` is finite and, where
    a bound is given, in [low, high]: a few passes of C-level builtins,
    not one comparison per value in Python."""
    # a sum of finite values is finite unless it overflows
    if not (math.isfinite(sum(column)) or all(map(math.isfinite, column))):
        return False
    return ((low is None or low <= min(column, default=low))
            and (high is None or max(column, default=high) <= high))


def read_format(doc: dict, kind: str, formats: dict, error: type[InputError]):
    """The record of ``kind`` that the JSON object ``doc`` describes.

    ``formats`` maps each object kind to its record, the name of its
    entity and its keys, each ``(name, form, default)``, ``name`` a
    keyword of the record and ``default`` REQUIRED for a key that must be
    present.  A form is a JSON type (``float`` takes any finite number,
    as a float), a :class:`Range` (a number held to its range), an enum,
    an object kind's name, a list of one form or a tuple of forms (a JSON
    list, read to a tuple), a dict of forms (a table of exactly those
    keys), ``{int: form}`` (a table keyed by dwelling type) or a
    frozenset of a list form and one other (a JSON list read by the list
    form, any other value by the other).  ``null`` reads as absent for an
    optional object and for a key whose default is None.

    A missing key or a wrong type raises ``error`` at once, naming the key
    by its path.  Once the walk ends, the keys the format does not define
    are named together, by path; then every number read out of its range,
    as ``ENTITY.FIELD: RULE``: the entity is the name of the nearest
    object around it that has one, filled from its record (``wall {id}``),
    and the field the number's path within that object.
    """
    unknown: list[str] = []
    faults: list[list[str | None]] = []  # [entity, path, rule], the entity named last

    def read(value, form, where: str, label: str | None = None):
        # ``value`` at path ``where``, as ``form``; an error names it by
        # ``label``, a key of an object kind by its quoted path, else by its path
        label = where if label is None else label
        if isinstance(form, Range):
            number = _typed(value, form.kind, label)
            if not form.holds(number):
                faults.append([None, where, form.rule()])
            return number
        if isinstance(form, type):  # a JSON type or an enum
            if form in _KIND_NAMES:
                return _typed(value, form, label)
            return form(_typed(value, str, label))  # an enum, read from its value
        if isinstance(form, frozenset):  # the list form for a list, else the other
            form = next(f for f in form if (type(f) in (list, tuple)) == isinstance(value, list))
            return read(value, form, where, label)
        value = _typed(value, dict if isinstance(form, (str, dict)) else list, label)
        prefix = f"{where}." if where else ""
        if isinstance(form, str):  # an object kind
            record, entity, keys = formats[form]
            names = {name for name, _, _ in keys}
            unknown.extend(prefix + name for name in value if name not in names)
            first = len(faults)
            values = {}
            for name, item, default in keys:
                path = prefix + name
                if value.get(name) is None and default is not REQUIRED and (
                        name not in value or default is None or isinstance(item, str)):
                    values[name] = default  # absent, or a null the key accepts
                elif name not in value:
                    raise ValueError(f"missing field {path!r}")
                elif item in JSON_TYPES:
                    values[name] = _typed(value[name], item, repr(path))
                else:
                    values[name] = read(value[name], item, path, repr(path))
            if entity is not None:  # the faults within, not yet named, are this object's
                entity = entity.format_map(values)
                for fault in faults[first:]:
                    if fault[0] is None:
                        fault[0], fault[1] = entity, fault[1][len(prefix):]
            return record(**values)
        if isinstance(form, dict):  # a table
            by_type = int in form
            if by_type:  # 1, 2, 3 ...: not every text int() reads, such as " 1" or "01"
                form = {name: form[int] for name in value
                        if name.isascii() and name.isdigit() and name[0] != "0"}
            unknown.extend(prefix + name for name in value if name not in form)
            missing = [name for name in form if name not in value]
            if missing:
                raise ValueError(f"missing field {prefix + missing[0]!r}")
            return {int(name) if by_type else name: read(value[name], item, prefix + name)
                    for name, item in form.items()}
        forms = form * len(value) if isinstance(form, list) else form
        if len(value) != len(forms):
            raise TypeError(f"{label} must be a list of {len(form)} values, got {value!r}")
        return tuple(read(item, item_form, f"{where}[{i}]")
                     for i, (item, item_form) in enumerate(zip(value, forms)))

    try:
        record = read(doc, kind, "")
    except (TypeError, ValueError) as exc:
        raise error(f"missing or malformed field: {exc}") from exc
    if unknown:
        raise error(f"unknown key {', '.join(unknown)}")
    if faults:
        raise error("; ".join(f"{entity}.{path}: {rule}" for entity, path, rule in faults))
    return record


def load_json(source, read, error: type[InputError]):
    """``read`` of the JSON file ``source``; every ``error``, of its own
    subclass, names the file."""
    doc = read_json(source, error)
    try:
        return read(doc)
    except error as exc:
        raise type(exc)(f"{source}: {exc}") from None


def _typed(value, kind: type, label: str):
    """``value`` as the JSON type ``kind``; an error names it ``label``."""
    if kind is float and is_number(value):
        return float(value)
    if (kind is float or not isinstance(value, kind)
            or (isinstance(value, bool) and kind is not bool)):
        raise TypeError(f"{label} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value
