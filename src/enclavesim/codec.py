"""The one codec of every JSON record the program reads or writes: each
record declares its fields as (name, kind), and one encoder and one strict
decoder follow the rules of WIRE.md § JSON records. A decode error is a
ValueError (RecursionError for JSON nested too deeply), so it is within
`wire.DECODE_ERRORS`; its text shows at most 40 characters of a value."""

from __future__ import annotations

import dataclasses
import json
import operator
from typing import Callable, NamedTuple

from . import wire


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_RECORD_FILE = json.JSONEncoder(sort_keys=True, indent=2)


def canonical_json(obj) -> bytes:
    return _CANONICAL.encode(obj).encode("utf-8")


class Kind(NamedTuple):
    """A JSON form: encode(value) -> JSON, decode(JSON) -> value; else ValueError."""

    encode: Callable
    decode: Callable


def _refuse(expected: str, value):
    raise ValueError(f"expected {expected}, got {value!r:.40}")


def _exact(kind: type, expected: str, allowed=None) -> Kind:
    """Values of exactly type `kind` (so never a bool for an int), in `allowed` if given."""
    def check(value):
        if type(value) is kind and (allowed is None or value in allowed):
            return value
        _refuse(expected, value)
    return Kind(check, check)


STR = _exact(str, "a string")
U32 = _exact(int, "an integer in 0..2**32-1", range(1 << 32))
U64 = _exact(int, "an integer in 0..2**64-1", range(1 << 64))


def decimal(text: str) -> int:
    """The integer n that `text` writes as str(n) does; any other spelling
    that int() takes (a '+', leading zeros, '_', surrounding spaces,
    non-ASCII digits) is a ValueError, so each integer has one spelling."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"expected an integer written as str(n), got {text!r:.40}")
    return value


def const(text: str) -> Kind:
    return _exact(str, repr(text), (text,))


def hexbytes(size: int, max_size: int | None = None) -> Kind:
    """Bytes as lower-case hex: exactly `size` bytes, or `size` to `max_size`."""
    most = max_size or size
    length = f"{size}" if most == size else f"{size}..{most}"

    def encode(value: bytes) -> str:
        ok = type(value) is bytes and size <= len(value) <= most
        return value.hex() if ok else _refuse(f"{length} bytes", value)

    def decode(value) -> bytes:
        if type(value) is not str or not 2 * size <= len(value) <= 2 * most:
            _refuse(f"the lower-case hex of {length} bytes", value)
        raw = bytes.fromhex(value)
        return raw if raw.hex() == value else _refuse("lower-case hex", value)

    return Kind(encode, decode)


def optional(kind: Kind) -> Kind:
    """`kind`, or null for None."""
    return Kind(lambda value: None if value is None else kind.encode(value),
                lambda value: None if value is None else kind.decode(value))


def hexset(size: int) -> Kind:
    """A frozenset of `size`-byte values as a sorted list of distinct hex."""
    item = hexbytes(size)

    def decode(value) -> frozenset:
        if type(value) is not list:
            _refuse("a list", value)
        items = frozenset(map(item.decode, value))
        if any(a >= b for a, b in zip(value, value[1:])):
            _refuse("a sorted list free of duplicates", value)
        return items

    return Kind(lambda value: sorted(map(item.encode, value)), decode)


def mapping(key: Kind, item: Kind) -> Kind:
    """A dict as an object: its keys of the string kind `key`, values of `item`."""
    def decode(value) -> dict:
        if type(value) is not dict:
            _refuse("an object", value)
        return {key.decode(k): item.decode(v) for k, v in value.items()}

    return Kind(lambda value: {key.encode(k): item.encode(v) for k, v in value.items()},
                decode)


def packed(cls, size: int) -> Kind:
    """A fixed-size binary structure `cls` (`pack()`, `cls.unpack`) as hex."""
    raw = hexbytes(size)
    return Kind(lambda value: raw.encode(value.pack()),
                lambda value: cls.unpack(raw.decode(value)))


class Record:
    """A JSON object of exactly the fields (name, kind), read as a dict of its
    values or, with `cls`, the dataclass whose fields are these in order."""

    def __init__(self, *fields, cls=None):
        self.cls = cls
        self.keys = frozenset(name for name, _ in fields)
        attrs = [f.name for f in dataclasses.fields(cls)] if cls else [n for n, _ in fields]
        assert len(self.keys) == len(attrs) == len(fields)
        self._fields = [(name, kind.encode, kind.decode, attr)
                        for (name, kind), attr in zip(fields, attrs)]

    def encode(self, value, omit: str | None = None) -> dict:
        """value's JSON object; without the field `omit`, when one is named."""
        get, encoded, name = getattr if self.cls else operator.getitem, {}, None
        try:
            for name, encode, _, attr in self._fields:
                if name != omit:
                    encoded[name] = encode(get(value, attr))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        return encoded

    def decode(self, value):
        if type(value) is not dict:
            _refuse("an object", value)
        if value.keys() != self.keys:
            raise ValueError(f"unknown keys {sorted(value.keys() - self.keys)!r:.40}, "
                             f"missing keys {sorted(self.keys - value.keys())}")
        decoded, name = {}, None
        try:
            for name, _, decode, attr in self._fields:
                decoded[attr] = decode(value[name])
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        return self.cls(**decoded) if self.cls else decoded


def record(*fields):
    """Class decorator: the dataclass's RECORD is the Record of `fields`."""
    def attach(cls):
        cls.RECORD = Record(*fields, cls=cls)
        return cls
    return attach


def one_of(*records: Record) -> Kind:
    """The one of `records` whose keys a JSON object has exactly."""
    def pick(value) -> Record:
        keys = value.keys() if type(value) is dict else None
        for rec in records:
            if rec.keys == keys:
                return rec
        _refuse("an object of one of this record's forms", value)

    return Kind(lambda value: pick(value).encode(value), lambda value: pick(value).decode(value))


def pack(kind, value) -> bytes:
    """The wire form of `value`: the canonical JSON of its encoding."""
    return canonical_json(kind.encode(value))


def unpack(kind, payload: bytes):
    """The one decoder of wire records: `payload` must be the canonical JSON
    of its value, which must decode as `kind`."""
    value = wire.read_json(payload)
    if canonical_json(value) != payload:
        raise ValueError("payload is not the canonical JSON of its value")
    return kind.decode(value)


def dump(kind, value) -> bytes:
    """The record file of `value`: its encoding as JSON with sorted keys,
    indented by 2, and a final newline. `load` reads it back."""
    return _RECORD_FILE.encode(kind.encode(value)).encode("utf-8") + b"\n"


def load(kind, data: bytes):
    """A record file's value, which must decode as `kind`; its layout is
    free (`wire.read_json` refuses a repeated key)."""
    return kind.decode(wire.read_json(data))
