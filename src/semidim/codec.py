"""The one dataclass <-> JSON codec for the package's records.

A record is a dataclass that mixes in :class:`Record`.  ``as_dict`` writes
the constructor fields in declaration order, enums by value and arrays and
tuples as lists.  ``from_dict`` decodes each key by its field's declared
type and raises InvalidInputs on a missing, unknown or mistyped key, so
malformed input is rejected before any work starts.  Fields set in
``__post_init__`` (``init=False``) are derived from the others and are
neither written nor read.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import types
import typing

import numpy as np

from .errors import InvalidInputs


class Record:
    """Mixin that gives a dataclass its JSON form."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in _init_fields(type(self))}

    @classmethod
    def from_dict(cls, obj):
        return _decode_record(cls, obj, cls.__name__)

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


def _init_fields(cls) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if f.init]


def _encode(value):
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _expect(value, kind: type, where: str) -> None:
    # JSON true/false decode to bool, which Python counts as an int.
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise InvalidInputs(f"{where}: expected {kind.__name__}, got {value!r}")


def _decode_record(cls, obj, where: str):
    _expect(obj, dict, where)
    fields = {f.name: f for f in _init_fields(cls)}
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise InvalidInputs(f"{where}: unknown key(s) {unknown}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in obj:
            kwargs[name] = _decode(hints[name], obj[name], f"{where}.{name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise InvalidInputs(f"{where}: missing key {name!r}")
    return cls(**kwargs)


def _decode(tp, value, where: str):
    """``value`` read from JSON as declared type ``tp``; ``where`` names it in errors."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        *first, last = [a for a in args if a is not type(None)]
        for tp in first:  # alternatives are tried in declaration order
            try:
                return _decode(tp, value, where)
            except InvalidInputs:
                pass
        return _decode(last, value, where)
    if origin is tuple:
        _expect(value, list, where)
        item_types = [args[0]] * len(value) if args[-1] is Ellipsis else args
        if len(item_types) != len(value):
            raise InvalidInputs(f"{where}: expected {len(item_types)} items, got {len(value)}")
        return tuple(_decode(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(item_types, value)))
    if issubclass(tp, Record):
        return _decode_record(tp, value, where)
    if issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError:
            raise InvalidInputs(f"{where}: {value!r} is not a {tp.__name__}") from None
    if tp is np.ndarray:
        _expect(value, list, where)
        try:
            array = np.asarray(value)
        except ValueError:
            raise InvalidInputs(f"{where}: ragged array") from None
        if array.dtype.kind not in "biuf":
            raise InvalidInputs(f"{where}: expected numbers, got {value!r}")
        return array
    if tp is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise InvalidInputs(f"{where}: {value} is beyond the float64 range") from None
    _expect(value, tp, where)
    return value
