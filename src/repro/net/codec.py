"""Binary wire codec for HyperFile messages.

The paper's prototype spoke UDP/TCP between PC/RTs; the simulated and
threaded transports pass Python objects by reference, but the asyncio
transport (:mod:`repro.net.asyncio_cluster`) needs real bytes.  This
codec serialises the inter-site messages — and everything reachable
from them: programs, patterns, work items, oids, termination credit —
into a compact tag-length-value format, with no pickle: only the closed
set of types below decodes, so a peer cannot instantiate anything else.

Every message is declared once, in :data:`MESSAGES`: its tag byte, its
class and its fields in wire order, each with a :class:`Wire` type (the
envelope header, the query patterns and a program's ops likewise; the
table in ``docs/ASYNC.md`` is checked against it).  Wire types come from
one closed set of primitives and combinators (:func:`optional`,
:func:`list_of`, :func:`pair`, :func:`record`, ...).  At import each
declaration is composed into one writer and one ``(data, pos)`` reader;
there is no other path.  Process-mode control values and store
snapshots reuse the same wire types.

Design notes:

* integers are zig-zag varints, so the common small values (filter
  indices, iteration counts) cost one byte;
* the decoder is total: a truncated or corrupt frame raises
  :class:`CodecError` rather than being mis-read, and nothing else
  escapes, so a transport needs to catch one exception type; a count,
  flag or presence byte takes only what the encoder writes;
* a query's program is serialised once per :class:`Program` and parsed
  once per process per query (:func:`_write_program`, :func:`_program_at`);
* names shorter than 64 bytes are interned both ways (``_NAMES``,
  ``_NAME_BYTES``) and decoded oids by their bytes (``_OIDS``), at most
  ``_INTERN_MAX`` entries each, and a frame's ``QueryId`` is the one the
  parsed-program table already holds, so nothing the codec remembers
  grows with the queries or sites it has seen.  Readers work on
  ``bytes``: a ``memoryview`` frame is copied once on entry, so no
  decoded value or table key aliases a buffer the transport may reuse.
"""

from __future__ import annotations

import re
import struct
import threading
from fractions import Fraction
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..cache import BloomFilter, SiteSummary
from ..core.objects import HFObject
from ..core.oid import Oid
from ..core.patterns import Any_, Bind, Literal, OneOf, Range, Regex, Use
from ..core.program import DerefOp, LoopOp, Op, Program, RetrieveOp, SelectOp
from ..core.tuples import HFTuple
from ..engine.items import WorkItem
from ..errors import HyperFileError
from ..faults.reliable import ReliableAck, ReliableData
from ..storage.blobstore import BlobRef
from ..termination.weights import Credit
from .messages import (
    BatchedQuery,
    BatchedResults,
    ControlMessage,
    DerefRequest,
    Envelope,
    FetchReply,
    FetchRequest,
    Heartbeat,
    PurgeContext,
    QueryId,
    ResultBatch,
    SeedFromSaved,
    ViewChange,
)


class CodecError(HyperFileError, ValueError):
    """Raised on malformed, truncated, or unsupported wire data."""


# -- value tags (pattern tags, 0x20 up, op tags, 0x30 up, and message tags,
# 0x40 up, are declared with their fields below) --------------------------

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_OID = 0x08
_T_FRACTION = 0x09
_T_BLOBREF = 0x0A
_T_CREDIT = 0x0B
#: A value tuple's tag, for process mode's control values, which walk
#: their tuples themselves (:mod:`repro.net.procserver`).
TUPLE_TAG = _T_TUPLE

#: Magnitude bound for one encoded integer (512-byte ints): generous for
#: anything a query ships — termination credit travels as a (mantissa,
#: exponent) pair, so no field grows with the depth of a pointer chain —
#: while still rejecting absurd lengths from corrupt frames.
MAX_VARINT_BITS = 4096

#: Largest exponent a credit may carry: a credit is halved once per work
#: message on its path, so this is the deepest chain of sequential hops a
#: query may make.  The detector's over-recovery check builds
#: ``1 << exponent``; the bound keeps that a 128 KiB integer at worst.
MAX_CREDIT_EXPONENT = 1 << 20

#: Deepest nesting of tuples / blob references inside one value.  Real
#: values nest two or three deep (emission lists, mark hints); the bound
#: keeps a frame of nothing but tuple tags from recursing the decoder
#: off the interpreter stack.
MAX_VALUE_DEPTH = 32

#: Every one-byte ``bytes``, so tags, flags and the varints whose zig-zag
#: form fits seven bits (most of a message) cost an index, not an
#: allocation.  The layout on the wire is unchanged.
_ONE_BYTE = tuple(bytes((i,)) for i in range(256))

#: Names shorter than this many UTF-8 bytes — site names, tuple types,
#: attachment keys — are interned in both directions: their one-byte
#: length prefix is their whole varint, and they recur in every frame.
_NAME_MAX = 64
#: Entries per intern table; a full table is emptied, so neither grows
#: with the sites or queries a process has seen.
_INTERN_MAX = 1024
#: Wire bytes of a name -> the ``str`` (decode).  Keys are ``bytes``,
#: never views: readers work on a ``bytes`` copy of the frame.
_NAMES: Dict[bytes, str] = {}
#: A name -> its length-prefixed UTF-8 wire bytes (encode).
_NAME_BYTES: Dict[str, bytes] = {}
#: Wire bytes of an oid value with short names (after its tag) -> the
#: ``Oid`` (decode).  The same oids recur in every frame of a database,
#: and an ``Oid`` outlives its frame (results, routing hints), so it is
#: built once, by its own constructor, and shared.
_OIDS: Dict[bytes, Oid] = {}
#: Taken only to insert; a hit is one ``dict.get`` and needs no lock.
_intern_lock = threading.Lock()


def _remember(table: Dict[Any, Any], key: Any, value: Any) -> None:
    with _intern_lock:
        if len(table) >= _INTERN_MAX:
            table.clear()
        table[key] = value


#: How the readers build the short-lived objects they return — a
#: ``WorkItem``, ``QueryId``, message or ``Envelope`` (all frozen
#: dataclasses): ``_new(cls)``, then one store per field into its
#: ``__dict__``.  The generated ``__init__`` / ``__post_init__`` would cost
#: as much as the rest of the decode, and every check they make the
#: reader has already made (an ``Envelope``'s ``size_bytes`` it fills in
#: itself).  An instance built this way holds a full ``__dict__``, about
#: 60 bytes more than a constructed one, so what outlives the frame — an
#: ``Oid`` — is constructed instead (and interned, see ``_OIDS``).
_new = object.__new__


def _construct(factory: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Build a domain object from decoded fields.

    The constructors validate their own arguments (an empty ``OneOf``, a
    regex that does not compile, a tuple with no type ...); on bytes from
    the wire such a rejection means the frame is malformed.
    """
    try:
        return factory(*args, **kwargs)
    except (ValueError, TypeError, re.error, RecursionError, OverflowError) as exc:
        raise CodecError(f"invalid {factory.__qualname__}: {exc}") from None


# --------------------------------------------------------------------------
# primitives: writers append to a list of byte chunks; ``*_at`` readers
# return ``(value, pos after it)`` and let a read past the end raise
# ``IndexError``, which the entry points turn into CodecError
# --------------------------------------------------------------------------


def _varint(value: int) -> bytes:
    """The zig-zag LEB128 bytes of ``value``."""
    if -64 <= value < 64:
        return _ONE_BYTE[value << 1 if value >= 0 else (-value << 1) - 1]
    if 0 < value < 8192:  # two bytes: most sequence numbers, ids, exponents
        return bytes(((value << 1) & 0x7F | 0x80, value >> 6))
    # Arbitrary precision: a credit's mantissa (the sum of many pieces)
    # and a user's Fraction or integer may be wider than 64 bits.  The
    # bit bound only guards against absurd/hostile values.
    if value.bit_length() > MAX_VARINT_BITS:
        raise CodecError(f"integer out of range: {value.bit_length()} bits")
    encoded = (value << 1) if value >= 0 else ((-value << 1) - 1)
    out = bytearray()
    while encoded > 0x7F:
        out.append((encoded & 0x7F) | 0x80)
        encoded >>= 7
    out.append(encoded)
    return bytes(out)


def _varint_at(data: bytes, pos: int, record: Any = None) -> Tuple[int, int]:
    b = data[pos]
    if b < 0x80:
        return (b >> 1) ^ -(b & 1), pos + 1
    encoded = b & 0x7F
    shift = 0
    while b >= 0x80:
        shift += 7
        if shift > MAX_VARINT_BITS:
            raise CodecError("varint too long")
        pos += 1
        b = data[pos]
        encoded |= (b & 0x7F) << shift
    return (encoded >> 1) ^ -(encoded & 1), pos + 1


def _write_count(chunks: List[bytes], value: int) -> None:
    if value < 0:
        raise CodecError(f"count {value} is negative")
    chunks.append(_ONE_BYTE[value << 1] if value < 64 else _varint(value))


def _count_at(data: bytes, pos: int, record: Any = None) -> Tuple[int, int]:
    b = data[pos]
    if b < 0x80 and not b & 1:
        return b >> 1, pos + 1
    value, pos = _varint_at(data, pos)
    if value < 0:
        raise CodecError(f"count {value} is negative")
    return value, pos


def _flag_at(data: bytes, pos: int, record: Any = None) -> Tuple[bool, int]:
    b = data[pos]
    if b > 1:
        raise CodecError(f"flag byte {b} is neither 0 nor 1")
    return b == 1, pos + 1


def _text(text: str) -> bytes:
    """The wire bytes of a text: varint length, then UTF-8."""
    try:
        raw = text.encode("utf-8")
    except (AttributeError, UnicodeError):
        raise CodecError(f"cannot encode {text!r} as text") from None
    return _varint(len(raw)) + raw


def _raw_at(data: bytes, pos: int, record: Any = None) -> Tuple[bytes, int]:
    length, pos = _varint_at(data, pos)
    end = pos + length
    if length < 0 or end > len(data):
        raise CodecError("truncated byte string")
    return data[pos:end], end


def _text_at(data: bytes, pos: int, record: Any = None) -> Tuple[str, int]:
    raw, pos = _raw_at(data, pos)
    try:
        return str(raw, "utf-8"), pos
    except UnicodeDecodeError:
        raise CodecError("text is not valid UTF-8") from None


def _name(text: str) -> bytes:
    """The wire bytes of a name (those of a text); cached when short."""
    encoded = _NAME_BYTES.get(text)
    if encoded is None:
        encoded = _text(text)
        if len(encoded) <= _NAME_MAX:
            _remember(_NAME_BYTES, text, encoded)
    return encoded


def _name_at(data: bytes, pos: int, record: Any = None) -> Tuple[str, int]:
    """The length-prefixed UTF-8 text at ``pos``, interned when short."""
    b = data[pos]
    if b < 2 * _NAME_MAX and not b & 1:  # a one-byte length below _NAME_MAX
        end = pos + 1 + (b >> 1)
        if end > len(data):
            raise CodecError("truncated byte string")
        key = data[pos + 1 : end]
        name = _NAMES.get(key)
        if name is None:
            try:
                name = str(key, "utf-8")
            except UnicodeDecodeError:
                raise CodecError("text is not valid UTF-8") from None
            _remember(_NAMES, key, name)
        return name, end
    return _text_at(data, pos)


_OID_TAG = _ONE_BYTE[_T_OID]
_CREDIT_TAG = _ONE_BYTE[_T_CREDIT]
_NO_HINT = _name("")


def _write_oid(chunks: List[bytes], oid: Oid) -> None:
    """An oid value, tag and all."""
    if type(oid) is not Oid and not isinstance(oid, Oid):
        raise CodecError(f"oid expected, not {type(oid).__name__}")
    hint = oid.presumed_site
    chunks += (
        _OID_TAG, _name(oid.birth_site), _varint(oid.local_id),
        _NO_HINT if hint is None else _name(hint),
    )


def _oid_at(data: bytes, pos: int, record: Any = None) -> Tuple[Oid, int]:
    """An oid value, tag and all; interned when both names are short
    (the key is the value's bytes after the tag: a birth name, the local
    id's varint, a hint name)."""
    if data[pos] != _T_OID:
        raise CodecError("oid expected")
    pos += 1
    key = None
    b = data[pos]
    if b < 2 * _NAME_MAX and not b & 1:
        end = pos + 1 + (b >> 1)
        while data[end] >= 0x80:
            end += 1
        b = data[end + 1]
        if b < 2 * _NAME_MAX and not b & 1:
            end += 2 + (b >> 1)
            key = data[pos:end]
            oid = _OIDS.get(key)
            if oid is not None and end <= len(data):
                return oid, end
    birth, pos = _name_at(data, pos)
    local_id, pos = _varint_at(data, pos)
    hint, pos = _name_at(data, pos)
    if not birth or local_id < 0:
        raise CodecError("oid needs a birth site and a non-negative local id")
    oid = Oid(birth, local_id, presumed_site=hint or None)
    if key is not None:
        _remember(_OIDS, key, oid)
    return oid, pos


def _write_credit(chunks: List[bytes], credit: Credit) -> None:
    exponent = credit.exponent
    if exponent > MAX_CREDIT_EXPONENT:
        raise CodecError(f"credit exponent {exponent} out of range")
    chunks += (_CREDIT_TAG, _varint(credit.mantissa), _varint(exponent))


def _credit_at(data: bytes, pos: int) -> Tuple[Credit, int]:
    """A credit value, its tag already read."""
    mantissa, pos = _varint_at(data, pos)
    exponent, pos = _varint_at(data, pos)
    # Only the normal form decodes: odd mantissa, or plain 0.
    if mantissa < 0 or not 0 <= exponent <= MAX_CREDIT_EXPONENT or (exponent and not mantissa & 1):
        raise CodecError(f"credit {mantissa}/2**{exponent} is not in normal form")
    return Credit(mantissa, exponent), pos


def _write_value(chunks: List[bytes], value: Any, depth: int = 0) -> None:
    if value is None:
        chunks.append(_ONE_BYTE[_T_NONE])
    elif value is True or value is False:
        chunks.append(_ONE_BYTE[_T_TRUE if value else _T_FALSE])
    elif isinstance(value, int):
        chunks += (_ONE_BYTE[_T_INT], _varint(value))
    elif isinstance(value, float):
        chunks += (_ONE_BYTE[_T_FLOAT], struct.pack(">d", value))
    elif isinstance(value, str):
        chunks += (_ONE_BYTE[_T_STR], _text(value))
    elif isinstance(value, (bytes, bytearray)):
        chunks += (_ONE_BYTE[_T_BYTES], _varint(len(value)), bytes(value))
    elif isinstance(value, Oid):
        _write_oid(chunks, value)
    elif type(value) is Credit:
        _write_credit(chunks, value)
    elif isinstance(value, Fraction):
        chunks += (_ONE_BYTE[_T_FRACTION], _varint(value.numerator), _varint(value.denominator))
    elif depth >= MAX_VALUE_DEPTH and isinstance(value, (BlobRef, tuple, list)):
        raise CodecError(f"value nested deeper than {MAX_VALUE_DEPTH}")
    elif isinstance(value, BlobRef):
        chunks.append(_ONE_BYTE[_T_BLOBREF])
        _write_value(chunks, value.oid, depth + 1)
        _write_value(chunks, value.key, depth + 1)
        chunks.append(_varint(value.size))
    elif isinstance(value, (tuple, list)):
        chunks += (_ONE_BYTE[_T_TUPLE], _varint(len(value)))
        for element in value:
            _write_value(chunks, element, depth + 1)
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}")


_CONSTANTS = {_T_NONE: None, _T_FALSE: False, _T_TRUE: True}


def _value_at(data: bytes, pos: int, record: Any = None, depth: int = 0) -> Tuple[Any, int]:
    tag = data[pos]
    if tag == _T_OID:
        return _oid_at(data, pos)
    pos += 1
    if tag in _CONSTANTS:
        return _CONSTANTS[tag], pos
    if tag == _T_INT:
        return _varint_at(data, pos)
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise CodecError("truncated float")
        return struct.unpack_from(">d", data, pos)[0], pos + 8
    if tag == _T_STR:
        return _text_at(data, pos)
    if tag == _T_BYTES:
        return _raw_at(data, pos)
    if tag == _T_CREDIT:
        return _credit_at(data, pos)
    if tag == _T_FRACTION:
        numerator, pos = _varint_at(data, pos)
        denominator, pos = _varint_at(data, pos)
        if denominator < 1:
            raise CodecError(f"fraction denominator {denominator}")
        return Fraction(numerator, denominator), pos
    if depth >= MAX_VALUE_DEPTH and tag in (_T_BLOBREF, _T_TUPLE):
        raise CodecError(f"value nested deeper than {MAX_VALUE_DEPTH}")
    if tag == _T_BLOBREF:
        oid, pos = _value_at(data, pos, None, depth + 1)
        key, pos = _value_at(data, pos, None, depth + 1)
        size, pos = _varint_at(data, pos)
        return BlobRef(oid, key, size), pos
    if tag == _T_TUPLE:
        length, pos = _varint_at(data, pos)
        if length < 0 or length > 1_000_000:
            raise CodecError(f"implausible tuple length {length}")
        values = []
        for _ in range(length):
            value, pos = _value_at(data, pos, None, depth + 1)
            values.append(value)
        return tuple(values), pos
    raise CodecError(f"unknown value tag 0x{tag:02x}")


# --------------------------------------------------------------------------
# wire types
# --------------------------------------------------------------------------


class Wire(NamedTuple):
    """A wire type: ``write(chunks, value)`` appends a value's bytes, and
    ``read(data, pos, record)`` returns the value at ``pos`` and the
    position after it.  ``kind`` and ``parts`` (the wire types it is made
    of) name it; ``limits`` are the kind's parameters (a list's bounds,
    a choice's values, a frame's tags)."""

    kind: str
    write: Callable[[List[bytes], Any], None]
    read: Callable[[bytes, int, Any], Tuple[Any, int]]
    parts: Tuple["Wire", ...] = ()
    limits: Tuple[Any, ...] = ()

    @property
    def name(self) -> str:
        """How ``docs/ASYNC.md``'s message table spells this type."""
        inner = [part.name for part in self.parts]
        if self.kind in ("choice", "frame"):
            inner += [str(limit).lower() for limit in self.limits]
        return f"{self.kind}({', '.join(inner)})" if inner else self.kind


def _write_count_plus_one(chunks: List[bytes], value: Optional[int]) -> None:
    if value is not None and value < 0:
        raise CodecError(f"count {value} is negative")
    chunks.append(_varint(0 if value is None else value + 1))


def _count_plus_one_at(data: bytes, pos: int, record: Any = None) -> Tuple[Optional[int], int]:
    value, pos = _count_at(data, pos)
    return (value - 1 if value else None), pos


def _str_at(data: bytes, pos: int, record: Any = None) -> Tuple[str, int]:
    if data[pos] != _T_STR:
        raise CodecError("text value expected")
    return _text_at(data, pos + 1)


VARINT = Wire("varint", lambda chunks, value: chunks.append(_varint(value)), _varint_at)
#: A varint that is never negative.
COUNT = Wire("count", _write_count, _count_at)
#: A bool, one byte: 0 or 1.
FLAG = Wire("flag", lambda chunks, value: chunks.append(_ONE_BYTE[1 if value else 0]), _flag_at)
#: A text that recurs (a site or type name): a text's bytes, interned.
NAME = Wire("name", lambda chunks, value: chunks.append(_name(value)), _name_at)
TEXT = Wire("text", lambda chunks, value: chunks.append(_text(value)), _text_at)
#: A text as a value (tag 0x05 first), where a value tuple holds one.
STR = Wire("str", lambda chunks, value: chunks.extend((_ONE_BYTE[_T_STR], _text(value))), _str_at)
#: An optional count: 0 for ``None``, else the count plus one.
COUNT_PLUS_ONE = Wire("count+1", _write_count_plus_one, _count_plus_one_at)
#: An oid value (tag 0x08 first).
OID = Wire("oid", _write_oid, _oid_at)
#: Any value of the closed set, tag first.
VALUE = Wire("value", _write_value, _value_at)


def nested_value(depth: int) -> Wire:
    """A value that sits ``depth`` tuples down in a value tuple: the
    nesting bound (:data:`MAX_VALUE_DEPTH`) counts from the outermost."""
    return Wire(
        "value",
        lambda chunks, value: _write_value(chunks, value, depth),
        lambda data, pos, record=None: _value_at(data, pos, None, depth),
    )


def optional(wire: Wire) -> Wire:
    """``wire``'s value or ``None``: a presence flag, then the value."""
    write_value, read_value = wire.write, wire.read

    def write(chunks: List[bytes], value: Any) -> None:
        chunks.append(_ONE_BYTE[value is not None])
        if value is not None:
            write_value(chunks, value)

    def read(data: bytes, pos: int, record: Any = None) -> Tuple[Any, int]:
        present = data[pos]
        if present > 1:
            raise CodecError(f"presence byte {present} is neither 0 nor 1")
        return read_value(data, pos + 1, record) if present else (None, pos + 1)

    return Wire("optional", write, read, (wire,))


def list_of(wire: Wire, *, lo: int = 0, hi: int = 100_000, tagged: bool = False, empty: Any = ()) -> Wire:
    """A tuple of ``wire`` values: a count in ``lo..hi``, then each value.
    ``tagged`` makes it a value tuple (tag 0x07 first, kind ``tuple``);
    ``empty`` is what no elements decode to."""
    write_element, read_element = wire.write, wire.read
    kind = "tuple" if tagged else "list"
    prefix = (_ONE_BYTE[_T_TUPLE],) if tagged else ()

    def write(chunks: List[bytes], values: Any) -> None:
        values = values or ()
        n = len(values)
        chunks += prefix
        chunks.append(_ONE_BYTE[n << 1] if n < 64 else _varint(n))
        for value in values:
            write_element(chunks, value)

    def read(data: bytes, pos: int, record: Any = None) -> Tuple[Any, int]:
        if tagged:
            if data[pos] != _T_TUPLE:
                raise CodecError(f"{kind}({wire.name}) expected")
            pos += 1
        n = data[pos]
        if n < 0x80 and not n & 1:  # a one-byte count: most lists
            n >>= 1
            pos += 1
        else:
            n, pos = _count_at(data, pos)
        if not lo <= n <= hi:
            raise CodecError(f"implausible {kind}({wire.name}) length {n}")
        if not n:
            return empty, pos
        values = []
        for _ in range(n):
            value, pos = read_element(data, pos, record)
            values.append(value)
        return tuple(values), pos

    return Wire(kind, write, read, (wire,), (lo, hi, empty))


def pair(first: Wire, second: Wire, *, tagged: bool = False) -> Wire:
    """Two values in a row; ``tagged`` makes them a value 2-tuple (tag
    0x07, count 2), as an element of a value tuple is."""
    write_first, read_first = first.write, first.read
    write_second, read_second = second.write, second.read
    prefix = bytes((_T_TUPLE, 4)) if tagged else b""  # 4: the varint of 2

    def write(chunks: List[bytes], value: Any) -> None:
        a, b = value
        if tagged:
            chunks.append(prefix)
        write_first(chunks, a)
        write_second(chunks, b)

    def read(data: bytes, pos: int, record: Any = None) -> Tuple[Any, int]:
        if tagged:
            if not data.startswith(prefix, pos):
                raise CodecError("a value 2-tuple expected")
            pos += 2
        a, pos = read_first(data, pos, record)
        b, pos = read_second(data, pos, record)
        return (a, b), pos

    return Wire("2-tuple" if tagged else "pair", write, read, (first, second))


def columns(first: Wire, second: Wire, *, lo: int, hi: int) -> Wire:
    """A list of ``(first, second)`` rows, held as two equal-length
    tuples: one per column, for two fields of the record."""
    rows = list_of(pair(first, second), lo=lo, hi=hi)

    def write(chunks: List[bytes], value: Tuple[Any, Any]) -> None:
        rows.write(chunks, tuple(zip(*value)))

    def read(data: bytes, pos: int, record: Any = None) -> Tuple[Any, int]:
        values, pos = rows.read(data, pos, record)
        return (tuple(zip(*values)) or ((), ())), pos

    return Wire("columns", write, read, (first, second), (lo, hi))


def choice(*values: Any) -> Wire:
    """One of ``values``, as its index: one byte."""
    codes = {value: _ONE_BYTE[code] for code, value in enumerate(values)}

    def write(chunks: List[bytes], value: Any) -> None:
        if value not in codes:
            raise CodecError(f"{value!r} is not one of {values}")
        chunks.append(codes[value])

    def read(data: bytes, pos: int, record: Any = None) -> Tuple[Any, int]:
        if data[pos] >= len(values):
            raise CodecError(f"choice code {data[pos]} is not one of {values}")
        return values[data[pos]], pos + 1

    return Wire("choice", write, read, (), values)


def frame(*tags: int) -> Wire:
    """A whole message as a length-prefixed inner frame, encoded once per
    message (:func:`preframe`); only a message of ``tags`` decodes."""

    def write(chunks: List[bytes], message: Any) -> None:
        inner = preframe(message)
        chunks += (_varint(len(inner)), inner)

    def read(data: bytes, pos: int, record: Any = None) -> Tuple[Any, int]:
        inner, pos = _raw_at(data, pos)
        # Checked before descending, so nesting cannot recurse.
        if not inner or inner[0] not in tags:
            raise CodecError(f"inner frame may only carry tags {[hex(tag) for tag in tags]}")
        return decode_message(inner), pos

    return Wire("frame", write, read, (), tuple(f"0x{tag:02x}" for tag in tags))


# --------------------------------------------------------------------------
# records: declared classes, built from their fields
# --------------------------------------------------------------------------


class Declared(NamedTuple):
    """A record on the wire: its tag byte, its class, and its fields in
    wire order, each a field name (or, for a wire type that spans two
    fields, a pair of names) with its wire type."""

    tag: int
    cls: type
    fields: Tuple[Tuple[Any, Wire], ...]


def _spread(first: str, second: str, read: Callable[..., Tuple[Any, int]]) -> Tuple[str, Callable[..., Any]]:
    """A record step for a wire type whose value spans two fields: it
    stores the second field itself and hands back the first."""

    def read_first(data: bytes, pos: int, into: Dict[str, Any]) -> Tuple[Any, int]:
        (value, into[second]), pos = read(data, pos, into)
        return value, pos

    return first, read_first


def record(
    cls: Optional[type], fields: Tuple[Tuple[Any, Wire], ...], *,
    construct: bool = False, context: Tuple[str, ...] = (), tag: Optional[int] = None,
) -> Wire:
    """A ``cls`` object as its ``fields`` (see :class:`Declared`), in
    order, after its ``tag`` byte if it has one: built straight into its
    ``__dict__`` (see ``_new``), by its validating constructor when
    ``construct`` (passed the ``context`` fields of the record around it
    too), or, when ``cls`` is ``None``, stored as fields of the record
    around it."""
    prefix = () if tag is None else (_ONE_BYTE[tag],)
    writes = tuple((attrgetter(*n) if isinstance(n, tuple) else attrgetter(n), w.write) for n, w in fields)
    reads = tuple((n, w.read) if isinstance(n, str) else _spread(*n, w.read) for n, w in fields)

    def write(chunks: List[bytes], obj: Any) -> None:
        chunks += prefix
        for get, write_field in writes:
            write_field(chunks, get(obj))

    def read_into(data: bytes, pos: int, into: Dict[str, Any]) -> int:
        for name, read_field in reads:
            into[name], pos = read_field(data, pos, into)
        return pos

    def read(data: bytes, pos: int, outer: Any = None) -> Tuple[Any, int]:
        if cls is None:
            return None, read_into(data, pos, outer)
        values = {name: outer[name] for name in context}
        pos = read_into(data, pos, values)
        return _construct(cls, **values), pos

    def read_new(data: bytes, pos: int, outer: Any = None) -> Tuple[Any, int]:
        obj = _new(cls)
        into = obj.__dict__
        for name, read_field in reads:
            into[name], pos = read_field(data, pos, into)
        return obj, pos

    parts = tuple(wire for _names, wire in fields)
    return Wire("record", write, read if cls is None or construct else read_new, parts)


def union(declared: Tuple[Declared, ...], *, construct: bool = False, context: Tuple[str, ...] = ()) -> Wire:
    """One of the ``declared`` records: its tag byte, then its fields."""
    writers: Dict[type, Callable[[List[bytes], Any], None]] = {}
    readers: List[Any] = [None] * 256
    for spec in declared:
        wire = record(spec.cls, spec.fields, construct=construct, context=context, tag=spec.tag)
        writers[spec.cls], readers[spec.tag] = wire.write, wire.read

    def write(chunks: List[bytes], value: Any) -> None:
        write_record = writers.get(type(value))
        if write_record is None:
            raise CodecError(f"cannot encode {type(value).__name__}")
        write_record(chunks, value)

    def read(data: bytes, pos: int, outer: Any = None) -> Tuple[Any, int]:
        read_record = readers[data[pos]]
        if read_record is None:
            raise CodecError(f"unknown tag 0x{data[pos]:02x}")
        return read_record(data, pos + 1, outer)

    return Wire("union", write, read)


# --------------------------------------------------------------------------
# patterns and programs
# --------------------------------------------------------------------------


PATTERN = union((
    Declared(0x20, Any_, ()),
    Declared(0x21, Literal, (("value", VALUE),)),
    Declared(0x22, Regex, (("pattern", TEXT),)),
    Declared(0x23, Range, (("lo", VALUE), ("hi", VALUE))),
    Declared(0x24, OneOf, (("values", list_of(nested_value(1), hi=1_000_000, tagged=True)),)),
    Declared(0x25, Bind, (("name", TEXT),)),
    Declared(0x26, Use, (("name", TEXT),)),
), construct=True)


def _loop_count_at(data: bytes, pos: int, record: Any = None) -> Tuple[Optional[int], int]:
    count, pos = _varint_at(data, pos)
    if count < -1:
        raise CodecError(f"loop count {count}")
    return (None if count == -1 else count), pos


#: A loop marker's count: ``-1`` for ``*`` (no bound).
_LOOP_COUNT = Wire(
    "loop count", lambda chunks, count: chunks.append(_varint(-1 if count is None else count)), _loop_count_at
)
#: A program's filters, each built with its position (``index``), and the
#: chain of loop markers enclosing each position.
_OP = union((
    Declared(0x30, SelectOp, (
        ("type_pattern", PATTERN), ("key_pattern", PATTERN), ("data_pattern", PATTERN),
    )),
    Declared(0x31, DerefOp, (("var", TEXT), ("keep_source", FLAG))),
    Declared(0x32, LoopOp, (("start", VARINT), ("count", _LOOP_COUNT))),
    Declared(0x33, RetrieveOp, (("type_pattern", PATTERN), ("key_pattern", PATTERN), ("target", TEXT))),
), construct=True, context=("index",))
_CHAIN = list_of(VARINT, hi=64)


#: Programs this process has parsed, by the query that carried them:
#: ``(seq, originator)`` -> (the ``QueryId``, the program section's bytes,
#: the Program parsed from exactly those bytes).  Later frames of the
#: query reuse both objects.  Bounded — the oldest entry goes when it is
#: full — so nothing here grows with queries served.
_PARSED_PROGRAMS: Dict[Tuple[int, str], Tuple[QueryId, bytes, Program]] = {}
_PARSED_PROGRAMS_MAX = 64
#: Longest section worth remembering (experiment queries are ~60 bytes), so
#: the table's bytes are bounded as well as its entries.
_PARSED_SECTION_MAX = 16 * 1024
#: Taken only to insert; a hit is one ``dict.get`` and needs no lock.
_parsed_programs_lock = threading.Lock()
#: Keys the parsed-program table for a program no query id precedes.
_NO_QID = QueryId(0, "")


def _write_program(chunks: List[bytes], program: Program) -> None:
    """Append ``program``'s section, serialising it on first use only.

    The section is the one part of a query's work messages that is the
    same in every message, so its bytes are kept on the (immutable)
    ``Program`` — the :func:`preframe` idea applied to a part of a
    message.  Only this function fills the slot: a program that came off
    the wire is re-emitted in canonical form, never as received.
    """
    section = program._wire_section
    if section is None:
        body = [_text(program.source), _text(program.result), _varint(program.size)]
        for op in program.ops:
            _OP.write(body, op)
        # Enclosing-loop chains (needed for iteration bookkeeping).
        for chain in program.enclosing:
            _CHAIN.write(body, chain)
        section = program._wire_section = b"".join(body)
    chunks.append(section)


def _program_at(data: bytes, pos: int, qid: QueryId) -> Tuple[Program, int]:
    """Read the program section of a message of query ``qid``.

    Every message of a query repeats the same section, so the first
    parse is remembered under ``qid`` and later messages are answered
    with the same immutable ``Program`` (as the in-process transports
    share one across sites) — but only when the bytes at hand *equal*
    the bytes that were parsed.  Anything else, a reused qid or a single
    flipped bit, takes the full parse below, so what the decoder accepts
    and rejects does not depend on what it has seen before.
    """
    key = (qid.seq, qid.originator)
    known = _PARSED_PROGRAMS.get(key)
    if known is not None and data.startswith(known[1], pos):
        return known[2], pos + len(known[1])
    begin = pos
    source, pos = _text_at(data, pos)
    result, pos = _text_at(data, pos)
    size, pos = _varint_at(data, pos)
    if size < 0 or size > 10_000:
        raise CodecError(f"implausible program size {size}")
    ops: List[Op] = []
    for index in range(1, size + 1):
        op, pos = _OP.read(data, pos, {"index": index})
        # A loop marker sends items back to a start at or before it.
        if type(op) is LoopOp and not 1 <= op.start <= index:
            raise CodecError(f"loop at {index} starts at {op.start}")
        ops.append(op)
    enclosing: List[Tuple[int, ...]] = []
    for index in range(1, size + 1):
        chain, pos = _CHAIN.read(data, pos)
        for loop in chain:
            # A position is enclosed only by loop markers at or after it.
            if not index <= loop <= size or not isinstance(ops[loop - 1], LoopOp):
                raise CodecError(f"position {index} is not inside a loop ending at {loop}")
        enclosing.append(chain)
    program = Program(source, result, ops, enclosing)
    if pos - begin <= _PARSED_SECTION_MAX:
        with _parsed_programs_lock:
            _PARSED_PROGRAMS.pop(key, None)
            while len(_PARSED_PROGRAMS) >= _PARSED_PROGRAMS_MAX:
                del _PARSED_PROGRAMS[next(iter(_PARSED_PROGRAMS))]
            _PARSED_PROGRAMS[key] = (qid, data[begin:pos], program)
    return program, pos


# --------------------------------------------------------------------------
# query ids, work items, termination attachments
# --------------------------------------------------------------------------


def _write_qid(chunks: List[bytes], qid: QueryId) -> None:
    chunks += (_varint(qid.seq), _name(qid.originator))


def _qid_at(data: bytes, pos: int, record: Any = None) -> Tuple[QueryId, int]:
    """A query id; the one the parsed-program table holds, if it has it."""
    seq, pos = _varint_at(data, pos)
    originator, pos = _name_at(data, pos)
    known = _PARSED_PROGRAMS.get((seq, originator))
    if known is not None:
        return known[0], pos
    qid = _new(QueryId)  # see _new
    fields = qid.__dict__
    fields["seq"] = seq
    fields["originator"] = originator
    return qid, pos


def _write_qid_program(chunks: List[bytes], qid_program: Tuple[QueryId, Program]) -> None:
    qid, program = qid_program
    chunks += (_varint(qid.seq), _name(qid.originator))
    if program._wire_section is None:
        _write_program(chunks, program)
    else:
        chunks.append(program._wire_section)


def _qid_program_at(data: bytes, pos: int, record: Any = None) -> Tuple[Tuple[QueryId, Program], int]:
    """A query id and the program section after it, both reused from the
    parsed-program table when the section's bytes are the ones it holds."""
    seq, pos = _varint_at(data, pos)
    originator, pos = _name_at(data, pos)
    known = _PARSED_PROGRAMS.get((seq, originator))
    if known is not None and data.startswith(known[1], pos):
        return (known[0], known[2]), pos + len(known[1])
    qid = QueryId(seq, originator) if known is None else known[0]
    program, pos = _program_at(data, pos, qid)
    return (qid, program), pos


def _program_in_at(data: bytes, pos: int, record: Dict[str, Any]) -> Tuple[Program, int]:
    """A program section on its own, remembered under the query id read
    before it in the same record (``record["qid"]``), if any."""
    return _program_at(data, pos, record.get("qid") or _NO_QID)


#: A work item's iteration stack: ``(loop marker, count)`` entries.
_ITERS = list_of(pair(VARINT, VARINT), hi=64)


def _write_item(chunks: List[bytes], item: WorkItem) -> None:
    _write_oid(chunks, item.oid)
    chunks.append(_varint(item.start))
    _ITERS.write(chunks, item.iters)


def _item_at(data: bytes, pos: int, record: Dict[str, Any]) -> Tuple[WorkItem, int]:
    """A work item of the record's program: only one it could have made.

    Its start must be a position of the program (or just past its last
    op), and its iteration stack may count each of the program's loops
    once, never below zero — a node would otherwise step the item into
    messages of its own, with no error anywhere.
    """
    program = record["program"]
    oid, pos = _oid_at(data, pos)
    start, pos = _varint_at(data, pos)
    if not 1 <= start <= len(program.ops) + 1:
        raise CodecError(f"work item start index {start} outside a {len(program.ops)}-op program")
    if data[pos] == 0:  # no iteration counts: most items
        iters: Tuple[Tuple[int, int], ...] = ()
        pos += 1
    else:
        iters, pos = _ITERS.read(data, pos)
        loops = program.loop_counts()
        if any(loop not in loops or count < 0 for loop, count in iters) or len(dict(iters)) < len(iters):
            raise CodecError(f"work item iteration stack {iters} does not fit its program")
    item = _new(WorkItem)  # see _new
    fields = item.__dict__
    fields["oid"] = oid
    fields["start"] = start
    fields["iters"] = iters
    return item, pos


def _write_term(chunks: List[bytes], term) -> None:
    n = len(term)
    chunks.append(_varint(n))
    for key, value in sorted(term.items()) if n > 1 else term.items():
        chunks.append(_name(key))
        if type(value) is Credit:
            _write_credit(chunks, value)
        else:
            _write_value(chunks, value)


def _term_at(data: bytes, pos: int, record: Any = None) -> Tuple[Dict[str, Any], int]:
    """A termination attachment: names, then values; a credit inline."""
    n, pos = _varint_at(data, pos)
    if n < 0 or n > 64:
        raise CodecError("implausible attachment size")
    term: Dict[str, Any] = {}
    for _ in range(n):
        key, pos = _name_at(data, pos)
        if data[pos] == _T_CREDIT:
            term[key], pos = _credit_at(data, pos + 1)
        else:
            term[key], pos = _value_at(data, pos)
    return term, pos


QID = Wire("qid", _write_qid, _qid_at)
#: A query id and its program section, fused so that a frame of a query
#: this process has seen reuses both from the parsed-program table.
QID_PROGRAM = Wire("qid+program", _write_qid_program, _qid_program_at)
#: A program section on its own, keyed by the record's ``qid``.
PROGRAM = Wire("program", _write_program, _program_in_at)
#: A work item that must fit the record's program.
ITEM = Wire("item", _write_item, _item_at)
TERM = Wire("term", _write_term, _term_at)


# --------------------------------------------------------------------------
# site summaries (caching layer piggyback) and objects
# --------------------------------------------------------------------------


def _write_bloom(chunks: List[bytes], bloom: BloomFilter) -> None:
    raw = bloom.to_bytes()
    chunks += (_varint(bloom.hashes), _varint(bloom.count), _varint(len(raw)), raw)


def _bloom_at(data: bytes, pos: int, record: Any = None) -> Tuple[BloomFilter, int]:
    hashes, pos = _varint_at(data, pos)
    if hashes < 1 or hashes > 64:
        raise CodecError(f"implausible bloom hash count {hashes}")
    count, pos = _count_at(data, pos)
    raw, pos = _raw_at(data, pos)
    if not raw:
        raise CodecError("empty bloom bit array")
    return BloomFilter.from_bytes(raw, hashes, count), pos


def dict_of(key: Wire, value: Wire, *, hi: int) -> Wire:
    """A mapping: a list of ``(key, value)`` pairs in key order."""
    items = list_of(pair(key, value), hi=hi)

    def read(data: bytes, pos: int, record: Any = None) -> Tuple[Dict[Any, Any], int]:
        pairs, pos = items.read(data, pos, record)
        return dict(pairs), pos

    def write(chunks: List[bytes], mapping: Dict[Any, Any]) -> None:
        items.write(chunks, sorted(mapping.items()))

    return Wire("dict", write, read, (key, value))


_BLOOM = Wire("bloom", _write_bloom, _bloom_at)
#: A caching layer's site summary (:class:`repro.cache.SiteSummary`).
SUMMARY = record(SiteSummary, (
    ("site", TEXT), ("epoch", COUNT), ("forward_count", COUNT), ("alloc_high", COUNT),
    ("holdings", _BLOOM), ("reach", dict_of(TEXT, _BLOOM, hi=1024)),
), construct=True)._replace(kind="summary", parts=())


def _write_object(chunks: List[bytes], obj: HFObject) -> None:
    _write_oid(chunks, obj.oid)
    chunks += (_varint(obj.size_bytes), _varint(len(obj.tuples)))
    for t in obj.tuples:
        chunks.append(_name(t.type))
        _write_value(chunks, t.key)
        _write_value(chunks, t.data)


def _object_at(data: bytes, pos: int, record: Any = None) -> Tuple[HFObject, int]:
    oid, pos = _oid_at(data, pos)
    size_hint, pos = _varint_at(data, pos)
    n, pos = _count_at(data, pos)
    if n > 1_000_000:
        raise CodecError(f"implausible tuple count {n}")
    tuples = []
    for _ in range(n):
        type_name, pos = _name_at(data, pos)
        key, pos = _value_at(data, pos)
        value, pos = _value_at(data, pos)
        tuples.append(_construct(HFTuple, type_name, key, value))
    return _construct(HFObject, oid, tuples, size_hint), pos


#: A whole object: its oid, size and tuples.
OBJECT = Wire("object", _write_object, _object_at)


# --------------------------------------------------------------------------
# messages and envelopes
# --------------------------------------------------------------------------


_RELIABLE_DATA, _RELIABLE_ACK = 0x47, 0x48

#: Every message on the wire.  Append only: a tag, a field's position and
#: its wire type are the frame layout.
MESSAGES: Tuple[Declared, ...] = (
    Declared(0x40, DerefRequest, ((("qid", "program"), QID_PROGRAM), ("item", ITEM), ("term", TERM))),
    Declared(0x41, ResultBatch, (
        ("qid", QID),
        ("oids", list_of(OID, hi=1_000_000, tagged=True)),
        ("emissions", list_of(pair(STR, nested_value(2), tagged=True), hi=1_000_000, tagged=True)),
        ("count_only", FLAG),
        ("count", COUNT),
        ("term", TERM),
        ("summary", optional(SUMMARY)),
    )),
    Declared(0x42, ControlMessage, (("qid", QID), ("kind", TEXT), ("payload", VALUE))),
    Declared(0x43, SeedFromSaved, ((("qid", "program"), QID_PROGRAM), ("source_qid", QID), ("term", TERM))),
    Declared(0x44, PurgeContext, (("qid", QID), ("incarnation", VARINT))),
    Declared(0x45, FetchRequest, (("request_id", VARINT), ("oid", OID), ("reply_to", TEXT))),
    Declared(0x46, FetchReply, (("request_id", VARINT), ("obj", optional(OBJECT)))),
    # The channel wraps application messages only; refusing its own
    # frames inside is also what keeps this recursion two levels deep.
    Declared(_RELIABLE_DATA, ReliableData, (
        ("seq", VARINT),
        ("payload", frame(*(tag for tag in range(0x40, 0x4D) if tag not in (_RELIABLE_DATA, _RELIABLE_ACK)))),
    )),
    Declared(_RELIABLE_ACK, ReliableAck, (("seq", VARINT),)),
    Declared(0x49, BatchedQuery, (
        (("qid", "program"), QID_PROGRAM),
        (("items", "terms"), columns(ITEM, TERM, lo=1, hi=100_000)),
        ("marked_hints", list_of(nested_value(1), hi=1_000_000, tagged=True)),
    )),
    Declared(0x4A, BatchedResults, (("batches", list_of(frame(0x41), lo=1)),)),
    Declared(0x4B, Heartbeat, (("origin", TEXT), ("counters", list_of(pair(TEXT, VARINT))))),
    Declared(0x4C, ViewChange, (
        ("epoch", VARINT), ("statuses", list_of(pair(TEXT, TEXT))), ("reason", TEXT),
    )),
)
MESSAGE = union(MESSAGES)

#: Wire codes for the QoS service classes (byte value = index + 1; 0 =
#: "QoS off").  Order matches :data:`repro.qos.PRIORITIES` and is part
#: of the frame layout — append only.
_PRIORITY_CODES = ("interactive", "batch")

#: The envelope header, between the sender's name and the message (the
#: fields are described on :class:`Envelope`; ``dst`` is not on the
#: wire, the receiver knows who it is).  Each field's absence (``None``)
#: is one zero byte, so a deployment with tracing, caching, replication
#: and QoS all off writes five zero bytes, matching the in-process
#: transports bit for bit.  A span entry of ``0`` stands for an untraced
#: cause inside a traced batch.
ENVELOPE_HEADER: Tuple[Tuple[str, Wire], ...] = (
    ("spans", list_of(VARINT, empty=None)),
    ("src_epoch", COUNT_PLUS_ONE),
    ("tried", list_of(NAME, empty=None)),
    ("priority", choice(None, *_PRIORITY_CODES)),
    ("pressure", COUNT_PLUS_ONE),
)
_HEADER = record(None, ENVELOPE_HEADER)
_header_of = attrgetter(*(name for name, _wire in ENVELOPE_HEADER))
#: A header with every field absent, the usual one: what it decodes to
#: (its bytes, ``_BARE_HEADER``, are written by the declaration below).
_NO_HEADER = {name: None for name, _wire in ENVELOPE_HEADER}
_ABSENT = tuple(_NO_HEADER.values())

#: Attribute caching a message's encoded bytes on the (frozen) message
#: itself.  Message dataclasses are immutable, so the bytes can never go
#: stale; the attribute slot exists because none of them define
#: ``__slots__``.
_WIRE_CACHE = "_wire_cache"


def _encoded(write: Callable[[List[bytes], Any], None], value: Any) -> bytes:
    chunks: List[bytes] = []
    write(chunks, value)
    return b"".join(chunks)


_BARE_HEADER = _encoded(_HEADER.write, SimpleNamespace(**_NO_HEADER))


def preframe(message: Any) -> bytes:
    """Encode a message once and remember the bytes on the instance.

    This is the zero-copy send path's other half: a ``ResultBatch`` or
    ``BatchedQuery`` that rides inside a coalesced frame, gets
    retransmitted by the reliable channel, or traverses several hops is
    serialised exactly once, and every later wrap reuses the cached
    bytes.  Safe because every wire message type is a frozen dataclass.
    """
    cached = getattr(message, _WIRE_CACHE, None)
    if cached is None:
        cached = _encoded(MESSAGE.write, message)
        object.__setattr__(message, _WIRE_CACHE, cached)
    return cached


def encode_message(message: Any) -> bytes:
    """Serialise one inter-site message to bytes."""
    cached = getattr(message, _WIRE_CACHE, None)
    return cached if cached is not None else _encoded(MESSAGE.write, message)


def read_frame(read: Callable[[bytes, int, Any], Tuple[Any, int]], frame: bytes, record: Any = None) -> Any:
    """What ``read`` reads from a whole frame (a view is copied to
    ``bytes`` once, first); a read past its end or bytes left after it
    raise :class:`CodecError`, as everything the readers reject does."""
    data = frame if type(frame) is bytes else bytes(frame)
    try:
        value, pos = read(data, 0, record)
    except IndexError:
        raise CodecError("truncated frame") from None
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after message")
    return value


def decode_message(frame: bytes) -> Any:
    """Deserialise one inter-site message; raises :class:`CodecError`."""
    return read_frame(MESSAGE.read, frame)


def encode_envelope(env: Envelope) -> bytes:
    """Serialise an envelope: the sender's name, the header
    (:data:`ENVELOPE_HEADER`), then the message."""
    chunks = [_name(env.src)]
    if _header_of(env) == _ABSENT:
        chunks.append(_BARE_HEADER)
    else:
        _HEADER.write(chunks, env)
    cached = getattr(env.payload, _WIRE_CACHE, None)
    if cached is not None:
        chunks.append(cached)
    else:
        MESSAGE.write(chunks, env.payload)
    return b"".join(chunks)


def decode_envelope(frame: bytes, dst: str) -> Envelope:
    """Inverse of :func:`encode_envelope`, in one pass (a view is copied
    to ``bytes`` once, first), building the ``Envelope`` once (see
    ``_new``); raises :class:`CodecError`."""
    data = frame if type(frame) is bytes else bytes(frame)
    env = _new(Envelope)
    fields = env.__dict__
    try:
        fields["src"], pos = _name_at(data, 0)
        fields["dst"] = dst
        if data.startswith(_BARE_HEADER, pos):
            fields.update(_NO_HEADER)
            pos += len(_BARE_HEADER)
        else:
            _, pos = _HEADER.read(data, pos, fields)
        fields["payload"], pos = MESSAGE.read(data, pos)
    except IndexError:
        raise CodecError("truncated frame") from None
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after message")
    fields["size_bytes"] = fields["payload"].wire_size()
    return env


# --------------------------------------------------------------------------
# stream framing (length-prefixed frames over a byte stream)
# --------------------------------------------------------------------------


#: Frame header: a 4-byte big-endian payload length.  Shared by the
#: inter-site links and the process-mode control channel.
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload — anything larger is treated as
#: stream corruption rather than allocated.
MAX_FRAME = 64 * 1024 * 1024


def encode_frame(payload: bytes) -> bytes:
    """Prefix one encoded envelope with its frame header."""
    if len(payload) > MAX_FRAME:
        raise CodecError(f"frame too large: {len(payload)} bytes")
    return FRAME_HEADER.pack(len(payload)) + payload


class FrameReader:
    """Incremental reassembly of length-prefixed frames from a stream.

    TCP delivers arbitrary chunkings of the byte stream; ``feed`` accepts
    each chunk as it arrives and returns every frame payload it
    completes, in order.  The zero-copy rule: a frame wholly contained in
    a single fed chunk comes back as a :class:`memoryview` slice of that
    chunk — no bytes are copied on the hot path, and the codec's reader
    consumes buffer objects directly.  Only a frame split across chunks
    is joined (exactly once) into its own buffer.

    Callers must therefore feed immutable chunks (``bytes``, as asyncio
    and socket ``recv`` provide) and finish decoding each returned view
    before mutating anything — both hold trivially for the transports
    here, which decode each frame as it is returned.
    """

    __slots__ = ("_held", "_need")

    def __init__(self) -> None:
        #: Prefix of the current incomplete frame, header bytes included.
        self._held = bytearray()
        #: Payload length of the held frame once its header is complete.
        self._need: Optional[int] = None

    @property
    def pending(self) -> int:
        """Bytes buffered for a frame still waiting on more input."""
        return len(self._held)

    @staticmethod
    def _check(need: int) -> int:
        if need > MAX_FRAME:
            raise CodecError(f"frame too large: {need} bytes")
        return need

    def feed(self, chunk: bytes) -> List[Any]:
        """Absorb one stream chunk; return the frame payloads it completes."""
        frames: List[Any] = []
        view = memoryview(chunk)
        total = len(view)
        pos = 0
        held = self._held
        while pos < total:
            if held:
                # Finishing a frame split across chunks: join into the
                # holdover (the format's one permitted copy).
                if self._need is None:
                    take = min(FRAME_HEADER.size - len(held), total - pos)
                    held += view[pos : pos + take]
                    pos += take
                    if len(held) < FRAME_HEADER.size:
                        break
                    self._need = self._check(FRAME_HEADER.unpack_from(held)[0])
                take = min(FRAME_HEADER.size + self._need - len(held), total - pos)
                held += view[pos : pos + take]
                pos += take
                if len(held) == FRAME_HEADER.size + self._need:
                    frames.append(bytes(memoryview(held)[FRAME_HEADER.size :]))
                    held.clear()
                    self._need = None
                else:
                    break
            elif total - pos < FRAME_HEADER.size:
                held += view[pos:]
                break
            else:
                need = self._check(FRAME_HEADER.unpack_from(view, pos)[0])
                end = pos + FRAME_HEADER.size + need
                if end <= total:
                    # Whole frame inside this chunk: zero-copy slice.
                    frames.append(view[pos + FRAME_HEADER.size : end])
                    pos = end
                else:
                    held += view[pos:]
                    self._need = need
                    break
        return frames
