"""Field kinds: what one message field writes in each wire encoding.

Every protocol message is declared once, as a row of
:data:`repro.api.protocol.MESSAGES` listing its fields as
``(name, kind)`` pairs.  A :class:`Kind` owns everything one field type
means on the wire:

* ``to_json`` — value → JSON value (``None`` when the value already *is*
  its JSON form, which lets records skip the call);
* ``from_json`` — JSON value → value, checking the JSON type on the way,
  so a mistyped field raises ``TypeError``/``ValueError`` (the envelope
  decoder turns both into ``INVALID_REQUEST``) instead of being coerced;
* ``write(out, value, refs)`` — append the bin2 form to ``out``;
  ``refs`` is the request's ``(interner, defs)`` pair, ``None`` for
  responses, and only :data:`HANDLE_REF` reads it;
* ``read(reader)`` — parse the bin2 form back, raising only
  :class:`~repro.api.errors.ProtocolError` (or the exceptions the frame
  decoder wraps into one).

:func:`record` composes kinds into a dataclass's kind; the record's
four callables are closures built once at import over its fields'
callables, so encoding a message walks pre-bound functions, never a
table of kind names.  The bin2 primitives (varints, strings, the frame
:class:`Reader`, per-connection string interning) live here too,
because the kinds are built from them; :mod:`repro.persist` frames its
snapshot and WAL records with the same primitives.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields as dataclass_fields
from enum import Enum
from operator import attrgetter
from typing import Callable, NamedTuple

from repro.api.errors import ApiError, ErrorCode, ProtocolError
from repro.api.handles import FunctionHandle

#: One shared decoder/encoder pair for the whole wire layer.  ``json.loads``
#: and ``json.dumps`` build a fresh ``JSONDecoder``/``JSONEncoder`` whenever
#: non-default options are involved; the hot path reuses these instances
#: instead, and the compact separators drop the cosmetic whitespace from
#: every wire envelope (the canonical form tests compare is unaffected —
#: it re-serializes with its own options).
JSON_DECODER = json.JSONDecoder()
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))


def dumps_compact(obj) -> str:
    """Compact (separator-free) JSON text via the shared encoder instance."""
    return _JSON_ENCODER.encode(obj)


# ----------------------------------------------------------------------
# bin2 primitives
# ----------------------------------------------------------------------
def write_uvarint(out: bytearray, value: int, refs=None) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def write_svarint(out: bytearray, value: int, refs=None) -> None:
    # Zigzag, arbitrary precision: small magnitudes of either sign stay
    # one byte.
    zig = (value << 1) if value >= 0 else ((-value << 1) - 1)
    if zig < 0x80:
        out.append(zig)
    else:
        write_uvarint(out, zig)


def write_str(out: bytearray, text: str, refs=None) -> None:
    raw = text.encode()  # UTF-8; the argument-free call is the fastest form
    if len(raw) < 0x80:
        out.append(len(raw))
    else:
        write_uvarint(out, len(raw))
    out += raw


def _truncated() -> ProtocolError:
    return ProtocolError(ErrorCode.INVALID_REQUEST, "truncated binary frame")


class Reader:
    """Cursor over one frame's bytes; every read is bounds-checked.

    ``table`` is the connection's :class:`StringTable`, which interned
    request fields resolve against (``None`` where nothing is interned).
    """

    __slots__ = ("data", "pos", "end", "table")

    def __init__(self, data: bytes, pos: int = 0, table: "StringTable | None" = None) -> None:
        self.data = data
        self.pos = pos
        self.end = len(data)
        self.table = table

    def u8(self) -> int:
        pos = self.pos
        if pos >= self.end:
            raise _truncated()
        self.pos = pos + 1
        return self.data[pos]

    def uvarint(self) -> int:
        data = self.data
        pos = self.pos
        end = self.end
        result = 0
        shift = 0
        while True:
            if pos >= end:
                raise _truncated()
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise ProtocolError(
                    ErrorCode.INVALID_REQUEST, "varint exceeds 64 bits"
                )
        self.pos = pos
        return result

    def svarint(self) -> int:
        zig = self.uvarint()
        return (zig >> 1) if not zig & 1 else -((zig + 1) >> 1)

    def take(self, count: int) -> bytes:
        pos = self.pos
        stop = pos + count
        if stop > self.end:
            raise _truncated()
        self.pos = stop
        return self.data[pos:stop]

    def str_(self) -> str:
        raw = self.take(self.uvarint())
        try:
            return raw.decode()  # UTF-8, as write_str encodes
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, f"invalid UTF-8 in string: {exc}"
            ) from None

    def blob(self) -> bytes:
        return self.take(self.uvarint())

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"{self.end - self.pos} trailing bytes after message body",
            )


class StringInterner:
    """Encode side of the send-once string table (one per connection).

    The first :meth:`ref` for a string assigns the next id and appends
    ``(id, string)`` to the frame's definitions; later refs are just the
    id.  A definition is considered delivered once its frame has been
    handed to the transport, so an interner must live exactly as long as
    one connection — reconnecting means a fresh interner *and* a fresh
    ``hello`` (which resets the server's table).
    """

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def ref(self, text: str, defs: list[tuple[int, str]]) -> int:
        ident = self._ids.get(text)
        if ident is None:
            ident = len(self._ids)
            self._ids[text] = ident
            defs.append((ident, text))
        return ident


class StringTable:
    """Decode side: refs defined by earlier frames of the connection.

    Append-only between resets, so a body may be decoded *after* later
    frames' definitions were ingested (the worker-pool case) — existing
    refs never change meaning mid-connection.
    """

    __slots__ = ("_strings",)

    def __init__(self) -> None:
        self._strings: dict[int, str] = {}

    def define(self, ident: int, text: str) -> None:
        known = self._strings.get(ident)
        if known is not None and known != text:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"string ref {ident} redefined ({known!r} -> {text!r})",
            )
        self._strings[ident] = text

    def lookup(self, ident: int) -> str:
        text = self._strings.get(ident)
        if text is None:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"undefined string ref {ident} (table was reset?)",
            )
        return text

    def reset(self) -> None:
        self._strings.clear()


# ----------------------------------------------------------------------
# Kinds
# ----------------------------------------------------------------------
class Kind(NamedTuple):
    """One field type's JSON form, JSON type check and bin2 form."""

    to_json: Callable | None
    from_json: Callable
    write: Callable
    read: Callable


def _expect(json_type: type, what: str) -> Callable:
    # Exact type, so a JSON ``true`` is not an int and ``"3"`` is not one.
    def check(raw):
        if type(raw) is not json_type:
            raise TypeError(f"expected {what}, got {type(raw).__name__}")
        return raw

    return check


_expect_dict = _expect(dict, "an object")


def _expect_list(raw) -> list:
    if type(raw) not in (list, tuple):
        raise TypeError(f"expected an array, got {type(raw).__name__}")
    return raw


_expect_str = _expect(str, "a string")


def _strs_from_json(raw) -> tuple:
    # join raises TypeError on the first item that is not a string, so it
    # checks a whole array at C speed.
    "".join(_expect_list(raw))
    return tuple(raw)


STR = Kind(None, _expect_str, write_str, Reader.str_)
SVARINT = Kind(None, _expect(int, "an integer"), write_svarint, Reader.svarint)


def _write_handle_ref(out: bytearray, handle: FunctionHandle, refs) -> None:
    ident = refs[0].ref(handle.name, refs[1])
    if ident < 0x80:
        out.append(ident)
    else:
        write_uvarint(out, ident)
    if handle.revision is None:
        out.append(0)
    else:
        out.append(1)
        write_svarint(out, handle.revision)


def _read_handle_ref(r: Reader) -> FunctionHandle:
    name = r.table.lookup(r.uvarint())
    if r.u8():
        return FunctionHandle(name, r.svarint())
    return FunctionHandle(name)


def _write_handle(out: bytearray, handle: FunctionHandle, refs=None) -> None:
    write_str(out, handle.name)
    if handle.revision is None:
        out.append(0)
    else:
        out.append(1)
        write_svarint(out, handle.revision)


def _read_handle(r: Reader) -> FunctionHandle:
    name = r.str_()
    if r.u8():
        return FunctionHandle(name, r.svarint())
    return FunctionHandle(name)


#: A request's function handle: the name is sent once per connection,
#: then as its integer ref; the revision is a presence byte + svarint.
HANDLE_REF = Kind(
    FunctionHandle.to_json, FunctionHandle.from_json, _write_handle_ref, _read_handle_ref
)
#: A response's function handle, name inline (responses may be decoded
#: out of order under a worker pool, so they never intern).
HANDLE = Kind(FunctionHandle.to_json, FunctionHandle.from_json, _write_handle, _read_handle)


def _write_error(out: bytearray, error: ApiError, refs=None) -> None:
    write_str(out, error.code.value)
    write_str(out, error.detail)


#: A structured error: ``{"code", "detail"}``; two strings in bin2.
API_ERROR = Kind(
    ApiError.to_json,
    ApiError.from_json,
    _write_error,
    lambda r: ApiError(ErrorCode(r.str_()), r.str_()),
)


def code(members: tuple, what: str, to_json: Callable | None, from_json: Callable) -> Kind:
    """One of a fixed set of ``members``, as its index byte in bin2."""
    codes = {member: index for index, member in enumerate(members)}

    def write(out: bytearray, value, refs=None) -> None:
        try:
            out.append(codes[value])
        except KeyError:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, f"cannot binary-encode {what} {value!r}"
            ) from None

    def read(r: Reader):
        index = r.u8()
        if index >= len(members):
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, f"unknown {what} code {index}"
            )
        return members[index]

    return Kind(to_json, from_json, write, read)


BOOL = code((False, True), "boolean", None, _expect(bool, "a boolean"))


class WireEnum(str, Enum):
    """A ``str`` enum carried by a message field, with one validation point."""

    @classmethod
    def label(cls) -> str:
        """``QueryKind`` -> ``"query kind"``, for error messages."""
        return re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()

    @classmethod
    def coerce(cls, value):
        """Normalise a member or its string value; fail loudly otherwise."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown {cls.label()} {value!r}; expected {[k.value for k in cls]}"
            ) from None


def enum_code(enum_cls: type[WireEnum]) -> Kind:
    """A :class:`WireEnum`: its value in JSON, its member index in bin2."""
    return code(tuple(enum_cls), enum_cls.label(), attrgetter("value"), enum_cls.coerce)


def optional(kind: Kind) -> Kind:
    """``kind`` or ``None``: JSON ``null``; a presence byte in bin2."""
    to_json, from_json, write, read = kind

    def write_optional(out: bytearray, value, refs=None) -> None:
        if value is None:
            out.append(0)
        else:
            out.append(1)
            write(out, value, refs)

    return Kind(
        None if to_json is None else (lambda v: None if v is None else to_json(v)),
        lambda raw: None if raw is None else from_json(raw),
        write_optional,
        lambda r: read(r) if r.u8() else None,
    )


def boxed(kind: Kind) -> Kind:
    """``kind`` behind :func:`optional`'s presence byte, but never ``None``."""
    write, read = kind.write, kind.read

    def write_boxed(out: bytearray, value, refs=None) -> None:
        out.append(1)
        write(out, value, refs)

    def read_boxed(r: Reader):
        if not r.u8():
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "null in a non-null field")
        return read(r)

    return Kind(kind.to_json, kind.from_json, write_boxed, read_boxed)


def list_of(kind: Kind) -> Kind:
    """A tuple of ``kind``: a JSON array; a uvarint count then items."""
    to_json, from_json, write, read = kind

    def write_list(out: bytearray, values, refs=None) -> None:
        write_uvarint(out, len(values))
        for value in values:
            write(out, value, refs)

    return Kind(
        list if to_json is None else (lambda vs: [to_json(v) for v in vs]),
        _strs_from_json
        if from_json is _expect_str
        else (lambda raw: tuple([from_json(item) for item in _expect_list(raw)])),
        write_list,
        lambda r: tuple([read(r) for _ in range(r.uvarint())]),
    )


def _pair_from_json(raw) -> tuple[str, str]:
    if len(_expect_list(raw)) != 2:
        raise ValueError(f"expected a pair, got {len(raw)} items")
    return (STR.from_json(raw[0]), STR.from_json(raw[1]))


def _write_pair(out: bytearray, pair, refs=None) -> None:
    write_str(out, pair[0])
    write_str(out, pair[1])


#: A ``(str, str)`` pair (a CFG edge): a two-item array; two strings.
STR_PAIR = Kind(list, _pair_from_json, _write_pair, lambda r: (r.str_(), r.str_()))


def _map_from_json(raw) -> dict:
    for key, value in _expect_dict(raw).items():
        if type(key) is not str or type(value) is not int:
            raise TypeError(f"expected string keys and integer values, got {key!r}: {value!r}")
    return dict(raw)


def _write_map(out: bytearray, mapping: dict, refs=None) -> None:
    write_uvarint(out, len(mapping))
    for key, value in mapping.items():
        write_str(out, key)
        write_svarint(out, value)


#: ``str -> int``: a JSON object; a uvarint count then (str, svarint) pairs.
STR_INT_MAP = Kind(
    dict,
    _map_from_json,
    _write_map,
    # Keys are evaluated before values, so the reads stay in wire order.
    lambda r: {r.str_(): r.svarint() for _ in range(r.uvarint())},
)


def _write_bits(out: bytearray, values, refs=None) -> None:
    count = len(values)
    write_uvarint(out, count)
    bits = bytearray((count + 7) >> 3)
    for index, value in enumerate(values):
        if value:
            bits[index >> 3] |= 1 << (index & 7)
    out += bits


def _read_bits(r: Reader) -> tuple[bool, ...]:
    count = r.uvarint()
    bits = r.take((count + 7) >> 3)
    return tuple(
        [bool(bits[index >> 3] & (1 << (index & 7))) for index in range(count)]
    )


_BOOLS = frozenset((False, True))


def _bits_from_json(raw) -> tuple:
    # A set test checks the whole array at C speed; it lets the JSON
    # numbers 0 and 1 through, which compare equal to false and true.
    if type(raw) not in (list, tuple) or not _BOOLS.issuperset(raw):
        raise TypeError("expected an array of booleans")
    return tuple(raw)


#: A tuple of bools: a JSON array; a uvarint count then packed bits.
BITSET = Kind(list, _bits_from_json, _write_bits, _read_bits)


def _write_blob(out: bytearray, obj, refs=None) -> None:
    if obj is None:
        out.append(0)
        return
    out.append(1)
    raw = dumps_compact(obj).encode("utf-8")
    write_uvarint(out, len(raw))
    out += raw


def _read_blob(r: Reader):
    if not r.u8():
        return None
    raw = r.blob()
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"malformed embedded JSON blob: {exc}"
        ) from None


#: Irregular JSON data (metrics snapshots) or ``None``: itself in JSON; a
#: presence byte then compact JSON text in bin2.
JSON_BLOB = Kind(None, lambda raw: raw, _write_blob, _read_blob)


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
_REQUIRED = object()

#: A field default meaning "``None``, and then left out of the JSON body".
ABSENT = object()


def record(cls: type, fields) -> Kind:
    """The kind of dataclass ``cls``, from its ``(name, kind[, default])``
    fields in wire order.

    A field with a default may be omitted from a JSON body.  Decoding
    builds ``cls`` positionally, so its ``__post_init__`` still runs; the
    field list must therefore name every dataclass field, in order.
    Encoding to JSON copies the instance ``__dict__``, which for a frozen
    dataclass without slots holds exactly its fields, in that order.
    """
    names = tuple(field[0] for field in fields)
    declared = tuple(field.name for field in dataclass_fields(cls))
    if names != declared or "__slots__" in vars(cls):
        raise TypeError(f"{cls.__name__} needs its dataclass fields {declared} and no slots")
    kinds = [field[1] for field in fields]
    defaults = [field[2] if len(field) > 2 else _REQUIRED for field in fields]
    absent = tuple(name for name, default in zip(names, defaults) if default is ABSENT)
    converting = tuple((name, kind.to_json) for name, kind in zip(names, kinds) if kind.to_json)

    def to_json(obj) -> dict:
        body = obj.__dict__.copy()
        for name, convert in converting:
            body[name] = convert(body[name])
        for name in absent:
            if body[name] is None:
                del body[name]
        return body

    defaults = [None if default is ABSENT else default for default in defaults]
    return Kind(to_json, *_unrolled(cls, names, kinds, defaults))


def _unrolled(cls: type, names: tuple, kinds: list, defaults: list) -> tuple:
    """A record's ``(from_json, write, read)`` closures.

    Up to four fields there is one set of closures per arity, naming
    each field's callables directly: a loop over the fields costs about
    twice as much per message, which the codec microbench (Table W)
    shows on every small message.
    """
    get = attrgetter(*names)
    parsers = [kind.from_json for kind in kinds]
    writers = [kind.write for kind in kinds]
    readers = [kind.read for kind in kinds]
    if len(kinds) > 4:
        fields = tuple(zip(names, parsers, defaults))

        def from_json(raw):
            if type(raw) is not dict:
                _expect_dict(raw)
            return cls(
                *[parse(raw[n] if d is _REQUIRED else raw.get(n, d)) for n, parse, d in fields]
            )

        # Wider records write as groups of up to four unrolled fields.
        groups = [
            _unrolled(cls, names[i : i + 4], kinds[i : i + 4], defaults[i : i + 4])[1]
            for i in range(0, len(kinds), 4)
        ]

        def write(out, obj, refs=None):
            for write_group in groups:
                write_group(out, obj, refs)

        return from_json, write, lambda r: cls(*[read_field(r) for read_field in readers])
    pad = [None] * (4 - len(kinds))
    n0, n1, n2, n3 = list(names) + pad
    p0, p1, p2, p3 = parsers + pad
    d0, d1, d2, d3 = defaults + pad
    w0, w1, w2, w3 = writers + pad
    r0, r1, r2, r3 = readers + pad
    if len(kinds) == 1:

        def from_json(raw):
            if type(raw) is not dict:
                _expect_dict(raw)
            return cls(p0(raw[n0] if d0 is _REQUIRED else raw.get(n0, d0)))

        def write(out, obj, refs=None):
            w0(out, get(obj), refs)

        return from_json, write, lambda r: cls(r0(r))
    if len(kinds) == 2:

        def from_json(raw):
            if type(raw) is not dict:
                _expect_dict(raw)
            return cls(
                p0(raw[n0] if d0 is _REQUIRED else raw.get(n0, d0)),
                p1(raw[n1] if d1 is _REQUIRED else raw.get(n1, d1)),
            )

        def write(out, obj, refs=None):
            v0, v1 = get(obj)
            w0(out, v0, refs)
            w1(out, v1, refs)

        return from_json, write, lambda r: cls(r0(r), r1(r))
    if len(kinds) == 3:

        def from_json(raw):
            if type(raw) is not dict:
                _expect_dict(raw)
            return cls(
                p0(raw[n0] if d0 is _REQUIRED else raw.get(n0, d0)),
                p1(raw[n1] if d1 is _REQUIRED else raw.get(n1, d1)),
                p2(raw[n2] if d2 is _REQUIRED else raw.get(n2, d2)),
            )

        def write(out, obj, refs=None):
            v0, v1, v2 = get(obj)
            w0(out, v0, refs)
            w1(out, v1, refs)
            w2(out, v2, refs)

        return from_json, write, lambda r: cls(r0(r), r1(r), r2(r))

    def from_json(raw):
        if type(raw) is not dict:
            _expect_dict(raw)
        return cls(
            p0(raw[n0] if d0 is _REQUIRED else raw.get(n0, d0)),
            p1(raw[n1] if d1 is _REQUIRED else raw.get(n1, d1)),
            p2(raw[n2] if d2 is _REQUIRED else raw.get(n2, d2)),
            p3(raw[n3] if d3 is _REQUIRED else raw.get(n3, d3)),
        )

    def write(out, obj, refs=None):
        v0, v1, v2, v3 = get(obj)
        w0(out, v0, refs)
        w1(out, v1, refs)
        w2(out, v2, refs)
        w3(out, v3, refs)

    return from_json, write, lambda r: cls(r0(r), r1(r), r2(r), r3(r))
