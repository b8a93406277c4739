"""Binary wire codec for HyperFile messages.

The paper's prototype spoke UDP/TCP between PC/RTs; the simulated and
threaded transports pass Python objects by reference, but the asyncio
transport (:mod:`repro.net.asyncio_cluster`) needs real bytes.  This
codec serialises the four inter-site message types — and everything
reachable from them: programs, patterns, work items, oids, termination
credit — into a compact tag-length-value format.

Design notes:

* no pickle: only the closed set of types below decodes, so a malicious
  peer cannot instantiate arbitrary objects;
* integers are zig-zag varints, so the common small values (filter
  indices, iteration counts) cost one byte;
* the format is self-describing enough for :func:`decode_message` to
  reject truncated or corrupt frames with :class:`CodecError` rather
  than mis-reading them — and with nothing else: the decoder is total,
  so a transport needs to catch one exception type;
* a query's program is the one part of its work messages that never
  changes, so it is serialised once per :class:`Program` and parsed once
  per process per query (see :func:`_write_program` /
  :func:`_read_program`); the frames themselves are unchanged;
* the two messages that are nearly all traffic, ``DerefRequest`` and
  ``ResultBatch``, and the envelope header are read and written in one
  pass over ``(data, pos)`` (:func:`_deref_at`, :func:`_result_at`,
  :func:`decode_envelope`; :func:`_write_deref`, :func:`_write_result`,
  :func:`encode_envelope`), building each object once (see ``_new``).
  A field of an unusual shape — a long name, a term value that is not a
  ``Credit``, a populated header, emissions, a summary — is read where it
  stands by the shared primitives (:class:`_Reader`, :func:`_read_value`),
  never by a second decoder of the message;
* names shorter than 64 bytes are interned both ways (``_NAMES``,
  ``_NAME_BYTES``) and decoded oids by their bytes (``_OIDS``), at most
  ``_INTERN_MAX`` entries each, and a frame's ``QueryId`` is the one the
  parsed-program table already holds, so nothing the codec remembers
  grows with the queries or sites it has seen.  Readers work on ``bytes``: a ``memoryview`` frame is copied
  once on entry, so no decoded value or table key aliases a buffer the
  transport may reuse.
"""

from __future__ import annotations

import re
import struct
import threading
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..cache import BloomFilter, SiteSummary
from ..core.oid import Oid
from ..core.patterns import ANY, Any_, Bind, Literal, OneOf, Pattern, Range, Regex, Use
from ..core.program import DerefOp, LoopOp, Op, Program, RetrieveOp, SelectOp
from ..engine.items import WorkItem
from ..errors import HyperFileError
from ..faults.reliable import ReliableAck, ReliableData
from ..storage.blobstore import BlobRef
from ..termination.weights import Credit
from ..core.objects import HFObject
from ..core.tuples import HFTuple
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


# -- value tags -------------------------------------------------------------

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

# -- pattern tags ------------------------------------------------------------

_P_ANY = 0x20
_P_LITERAL = 0x21
_P_REGEX = 0x22
_P_RANGE = 0x23
_P_ONEOF = 0x24
_P_BIND = 0x25
_P_USE = 0x26

# -- op tags -------------------------------------------------------------------

_O_SELECT = 0x30
_O_DEREF = 0x31
_O_LOOP = 0x32
_O_RETRIEVE = 0x33

# -- message tags ----------------------------------------------------------------

_M_DEREF_REQUEST = 0x40
_M_RESULT_BATCH = 0x41
_M_CONTROL = 0x42
_M_SEED_FROM_SAVED = 0x43
_M_PURGE_CONTEXT = 0x44
_M_FETCH_REQUEST = 0x45
_M_FETCH_REPLY = 0x46
_M_RELIABLE_DATA = 0x47
_M_RELIABLE_ACK = 0x48
_M_BATCHED_QUERY = 0x49
_M_BATCHED_RESULTS = 0x4A
_M_HEARTBEAT = 0x4B
_M_VIEW_CHANGE = 0x4C


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


def _name(text: str) -> bytes:
    """The wire bytes of a name: varint length, then UTF-8; cached."""
    encoded = _NAME_BYTES.get(text)
    if encoded is None:
        raw = text.encode("utf-8")
        encoded = _varint(len(raw)) + raw
        if len(raw) < _NAME_MAX:
            _remember(_NAME_BYTES, text, encoded)
    return encoded


def _varint_at(data: bytes, pos: int) -> Tuple[int, int]:
    """The varint at ``pos`` and the position after it.

    Like every ``*_at`` reader below it reads ``bytes`` and lets a read
    past the end raise ``IndexError``; the entry points turn that into
    :class:`CodecError`.
    """
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


def _name_at(data: bytes, pos: int) -> Tuple[str, int]:
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
    r = _Reader(data, pos)
    return r.text(), r.pos


#: How the one-pass readers build the short-lived objects they return —
#: a ``WorkItem``, ``QueryId``, message or ``Envelope`` (all frozen
#: dataclasses): ``_new(cls)``, then one store per field into its
#: ``__dict__``.  The generated ``__init__`` / ``__post_init__`` would cost
#: as much as the rest of the decode, and every check they make the
#: reader has already made (an ``Envelope``'s ``size_bytes`` it fills in
#: itself).  An instance built this way holds a full ``__dict__``, about
#: 60 bytes more than a constructed one, so what outlives the frame — an
#: ``Oid`` — is constructed instead (and interned, see ``_OIDS``).
_new = object.__new__


class _Writer:
    __slots__ = ("chunks",)

    def __init__(self) -> None:
        self.chunks: List[bytes] = []

    def byte(self, value: int) -> None:
        self.chunks.append(_ONE_BYTE[value])

    def varint(self, value: int) -> None:
        self.chunks.append(_varint(value))

    def raw(self, payload: bytes) -> None:
        self.chunks.append(_varint(len(payload)))
        self.chunks.append(payload)

    def text(self, value: str) -> None:
        self.raw(value.encode("utf-8"))

    def name(self, value: str) -> None:
        """Text that recurs (a site or type name): same bytes, cached."""
        self.chunks.append(_name(value))

    def getvalue(self) -> bytes:
        return b"".join(self.chunks)


class _Reader:
    """A cursor over one frame, for the fields the one-pass readers
    (:func:`_deref_at`, :func:`_result_at`, :func:`decode_envelope`)
    hand off: programs, summaries, values, the rarer messages."""

    __slots__ = ("data", "pos")

    def __init__(self, data, pos: int = 0) -> None:
        # One copy of a view up front: every slice after it is a cheap
        # ``bytes``, and an intern key can never alias a reused buffer.
        self.data = data if type(data) is bytes else bytes(data)
        self.pos = pos

    def at(self, reader: Callable[..., Tuple[Any, int]], *args: Any) -> Any:
        """Run a one-pass ``*_at`` reader here and step past what it read."""
        try:
            value, self.pos = reader(self.data, self.pos, *args)
        except IndexError:
            raise CodecError("truncated frame") from None
        return value

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise CodecError("truncated frame (tag expected)")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def varint(self) -> int:
        pos = self.pos
        if pos < len(self.data):
            b = self.data[pos]
            if b < 0x80:  # the whole varint: most fields are small
                self.pos = pos + 1
                return (b >> 1) ^ -(b & 1)
        try:
            value, self.pos = _varint_at(self.data, pos)
        except IndexError:
            raise CodecError("truncated varint") from None
        return value

    def raw(self) -> bytes:
        length = self.varint()
        if length < 0 or self.pos + length > len(self.data):
            raise CodecError("truncated byte string")
        payload = self.data[self.pos : self.pos + length]
        self.pos += length
        return payload

    def text(self) -> str:
        try:
            return str(self.raw(), "utf-8")
        except UnicodeDecodeError:
            raise CodecError("text is not valid UTF-8") from None

    def done(self) -> bool:
        return self.pos == len(self.data)


# --------------------------------------------------------------------------
# values
# --------------------------------------------------------------------------


def _construct(factory: Callable[..., Any], *args: Any) -> Any:
    """Build a domain object from decoded fields.

    The constructors validate their own arguments (an empty ``OneOf``, a
    regex that does not compile, a tuple with no type ...); on bytes from
    the wire such a rejection means the frame is malformed.
    """
    try:
        return factory(*args)
    except (ValueError, TypeError, re.error, RecursionError, OverflowError) as exc:
        raise CodecError(f"invalid {factory.__qualname__}: {exc}") from None


_OID_TAG = _ONE_BYTE[_T_OID]
_CREDIT_TAG = _ONE_BYTE[_T_CREDIT]
_NO_HINT = _name("")


def _write_oid(chunks: List[bytes], oid: Oid) -> None:
    hint = oid.presumed_site
    chunks += (
        _OID_TAG, _name(oid.birth_site), _varint(oid.local_id),
        _NO_HINT if hint is None else _name(hint),
    )


def _oid_at(data: bytes, pos: int) -> Tuple[Oid, int]:
    """An oid value, its tag already read; interned when both names are
    short (the key is the value's bytes: a birth name, the local id's
    varint, a hint name)."""
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


def _write_value(w: _Writer, value: Any, depth: int = 0) -> None:
    if value is None:
        w.byte(_T_NONE)
    elif value is True:
        w.byte(_T_TRUE)
    elif value is False:
        w.byte(_T_FALSE)
    elif isinstance(value, int):
        w.byte(_T_INT)
        w.varint(value)
    elif isinstance(value, float):
        w.byte(_T_FLOAT)
        w.chunks.append(struct.pack(">d", value))
    elif isinstance(value, str):
        w.byte(_T_STR)
        w.text(value)
    elif isinstance(value, (bytes, bytearray)):
        w.byte(_T_BYTES)
        w.raw(bytes(value))
    elif isinstance(value, Oid):
        _write_oid(w.chunks, value)
    elif type(value) is Credit:
        _write_credit(w.chunks, value)
    elif isinstance(value, Fraction):
        w.byte(_T_FRACTION)
        w.varint(value.numerator)
        w.varint(value.denominator)
    elif depth >= MAX_VALUE_DEPTH and isinstance(value, (BlobRef, tuple, list)):
        raise CodecError(f"value nested deeper than {MAX_VALUE_DEPTH}")
    elif isinstance(value, BlobRef):
        w.byte(_T_BLOBREF)
        _write_value(w, value.oid, depth + 1)
        _write_value(w, value.key, depth + 1)
        w.varint(value.size)
    elif isinstance(value, (tuple, list)):
        w.byte(_T_TUPLE)
        w.varint(len(value))
        for element in value:
            _write_value(w, element, depth + 1)
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}")


def _read_value(r: _Reader, depth: int = 0) -> Any:
    tag = r.byte()
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return r.varint()
    if tag == _T_FLOAT:
        if r.pos + 8 > len(r.data):
            raise CodecError("truncated float")
        value = struct.unpack_from(">d", r.data, r.pos)[0]
        r.pos += 8
        return value
    if tag == _T_STR:
        return r.text()
    if tag == _T_BYTES:
        return bytes(r.raw())
    if tag == _T_OID:
        return r.at(_oid_at)
    if tag == _T_CREDIT:
        return r.at(_credit_at)
    if tag == _T_FRACTION:
        numerator = r.varint()
        denominator = r.varint()
        if denominator < 1:
            raise CodecError(f"fraction denominator {denominator}")
        return Fraction(numerator, denominator)
    if depth >= MAX_VALUE_DEPTH and tag in (_T_BLOBREF, _T_TUPLE):
        raise CodecError(f"value nested deeper than {MAX_VALUE_DEPTH}")
    if tag == _T_BLOBREF:
        oid = _read_value(r, depth + 1)
        key = _read_value(r, depth + 1)
        size = r.varint()
        return BlobRef(oid, key, size)
    if tag == _T_TUPLE:
        length = r.varint()
        if length < 0 or length > 1_000_000:
            raise CodecError(f"implausible tuple length {length}")
        return tuple([_read_value(r, depth + 1) for _ in range(length)])
    raise CodecError(f"unknown value tag 0x{tag:02x}")


# --------------------------------------------------------------------------
# patterns
# --------------------------------------------------------------------------


def _write_pattern(w: _Writer, pattern: Pattern) -> None:
    if isinstance(pattern, Any_):
        w.byte(_P_ANY)
    elif isinstance(pattern, Literal):
        w.byte(_P_LITERAL)
        _write_value(w, pattern.value)
    elif isinstance(pattern, Regex):
        w.byte(_P_REGEX)
        w.text(pattern.pattern)
    elif isinstance(pattern, Range):
        w.byte(_P_RANGE)
        _write_value(w, pattern.lo)
        _write_value(w, pattern.hi)
    elif isinstance(pattern, OneOf):
        w.byte(_P_ONEOF)
        _write_value(w, pattern.values)
    elif isinstance(pattern, Bind):
        w.byte(_P_BIND)
        w.text(pattern.name)
    elif isinstance(pattern, Use):
        w.byte(_P_USE)
        w.text(pattern.name)
    else:
        raise CodecError(f"cannot encode pattern {type(pattern).__name__}")


def _read_pattern(r: _Reader) -> Pattern:
    tag = r.byte()
    if tag == _P_ANY:
        return ANY
    if tag == _P_LITERAL:
        return Literal(_read_value(r))
    if tag == _P_REGEX:
        return _construct(Regex, r.text())
    if tag == _P_RANGE:
        lo, hi = _read_value(r), _read_value(r)
        for bound in (lo, hi):
            # Range.match orders field values against its bounds.
            if bound is not None and (isinstance(bound, bool) or not isinstance(bound, (int, float))):
                raise CodecError("range bound must be a number")
        return _construct(Range, lo, hi)
    if tag == _P_ONEOF:
        values = _read_value(r)
        if not isinstance(values, tuple):
            raise CodecError("one-of pattern must carry a tuple")
        return _construct(OneOf, values)
    if tag == _P_BIND:
        return _construct(Bind, r.text())
    if tag == _P_USE:
        return _construct(Use, r.text())
    raise CodecError(f"unknown pattern tag 0x{tag:02x}")


# --------------------------------------------------------------------------
# programs
# --------------------------------------------------------------------------


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


def _write_program(w: _Writer, program: Program) -> None:
    """Append ``program``'s section, serialising it on first use only.

    The section is the one part of a query's work messages that is the
    same in every message, so its bytes are kept on the (immutable)
    ``Program`` — the :func:`preframe` idea applied to a part of a
    message.  Only this function fills the slot: a program that came off
    the wire is re-emitted in canonical form, never as received.
    """
    section = program._wire_section
    if section is None:
        body = _Writer()
        body.text(program.source)
        body.text(program.result)
        body.varint(program.size)
        for op in program.ops:
            if isinstance(op, SelectOp):
                body.byte(_O_SELECT)
                _write_pattern(body, op.type_pattern)
                _write_pattern(body, op.key_pattern)
                _write_pattern(body, op.data_pattern)
            elif isinstance(op, DerefOp):
                body.byte(_O_DEREF)
                body.text(op.var)
                body.byte(1 if op.keep_source else 0)
            elif isinstance(op, LoopOp):
                body.byte(_O_LOOP)
                body.varint(op.start)
                body.varint(-1 if op.count is None else op.count)
            elif isinstance(op, RetrieveOp):
                body.byte(_O_RETRIEVE)
                _write_pattern(body, op.type_pattern)
                _write_pattern(body, op.key_pattern)
                body.text(op.target)
            else:
                raise CodecError(f"cannot encode op {type(op).__name__}")
        # Enclosing-loop chains (needed for iteration bookkeeping).
        for chain in program.enclosing:
            body.varint(len(chain))
            for idx in chain:
                body.varint(idx)
        section = program._wire_section = body.getvalue()
    w.chunks.append(section)


def _read_program(r: _Reader, qid: QueryId) -> Program:
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
    if known is not None and r.data.startswith(known[1], r.pos):
        r.pos += len(known[1])
        return known[2]
    begin = r.pos
    source = r.text()
    result = r.text()
    size = r.varint()
    if size < 0 or size > 10_000:
        raise CodecError(f"implausible program size {size}")
    ops: List[Op] = []
    for index in range(1, size + 1):
        tag = r.byte()
        if tag == _O_SELECT:
            ops.append(SelectOp(index, _read_pattern(r), _read_pattern(r), _read_pattern(r)))
        elif tag == _O_DEREF:
            var = r.text()
            keep = r.byte() == 1
            ops.append(DerefOp(index, var, keep))
        elif tag == _O_LOOP:
            start = r.varint()
            count = r.varint()
            if not 1 <= start <= index:
                raise CodecError(f"loop at {index} starts at {start}")
            if count < -1:
                raise CodecError(f"loop at {index} has count {count}")
            ops.append(LoopOp(index, start, None if count == -1 else count))
        elif tag == _O_RETRIEVE:
            ops.append(RetrieveOp(index, _read_pattern(r), _read_pattern(r), r.text()))
        else:
            raise CodecError(f"unknown op tag 0x{tag:02x}")
    enclosing: List[Tuple[int, ...]] = []
    for index in range(1, size + 1):
        chain_len = r.varint()
        if chain_len < 0 or chain_len > 64:
            raise CodecError("implausible loop-chain length")
        chain = tuple([r.varint() for _ in range(chain_len)])
        for loop in chain:
            # A position is enclosed only by loop markers at or after it.
            if not index <= loop <= size or not isinstance(ops[loop - 1], LoopOp):
                raise CodecError(f"position {index} is not inside a loop ending at {loop}")
        enclosing.append(chain)
    program = Program(source, result, ops, enclosing)
    if r.pos - begin <= _PARSED_SECTION_MAX:
        with _parsed_programs_lock:
            _PARSED_PROGRAMS.pop(key, None)
            while len(_PARSED_PROGRAMS) >= _PARSED_PROGRAMS_MAX:
                del _PARSED_PROGRAMS[next(iter(_PARSED_PROGRAMS))]
            _PARSED_PROGRAMS[key] = (qid, r.data[begin : r.pos], program)
    return program


# --------------------------------------------------------------------------
# work items, query ids, termination attachments
# --------------------------------------------------------------------------


def _write_item(w: _Writer, item: WorkItem) -> None:
    chunks = w.chunks
    oid = item.oid
    if type(oid) is not Oid:
        raise CodecError("work item oid expected")
    _write_oid(chunks, oid)
    iters = item.iters
    chunks += (_varint(item.start), _varint(len(iters)))
    for loop_index, count in iters:
        chunks += (_varint(loop_index), _varint(count))


def _item_at(data: bytes, pos: int, program: Program) -> Tuple[WorkItem, int]:
    """A work item of ``program``: only one the program could have made.

    Its start must be a position of the program (or just past its last
    op), and its iteration stack may count each of the program's loops
    once, never below zero — a node would otherwise step the item into
    messages of its own, with no error anywhere.
    """
    if data[pos] != _T_OID:
        raise CodecError("work item oid expected")
    oid, pos = _oid_at(data, pos + 1)
    start, pos = _varint_at(data, pos)
    if not 1 <= start <= len(program.ops) + 1:
        raise CodecError(f"work item start index {start} outside a {len(program.ops)}-op program")
    if data[pos] == 0:  # no iteration counts: most items
        iters: Tuple[Tuple[int, int], ...] = ()
        pos += 1
    else:
        n, pos = _varint_at(data, pos)
        if n < 0 or n > 64:
            raise CodecError("implausible iteration-stack size")
        loops = program.loop_counts()
        pairs: List[Tuple[int, int]] = []
        for _ in range(n):
            loop_index, pos = _varint_at(data, pos)
            count, pos = _varint_at(data, pos)
            if loop_index not in loops or count < 0 or any(seen == loop_index for seen, _ in pairs):
                raise CodecError(f"work item iteration entry ({loop_index}, {count})")
            pairs.append((loop_index, count))
        iters = tuple(pairs)
    item = _new(WorkItem)
    fields = item.__dict__
    fields["oid"] = oid
    fields["start"] = start
    fields["iters"] = iters
    return item, pos


def _write_qid(w: _Writer, qid: QueryId) -> None:
    w.chunks += (_varint(qid.seq), _name(qid.originator))


def _qid_at(data: bytes, pos: int) -> Tuple[QueryId, int]:
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


def _read_qid(r: _Reader) -> QueryId:
    return r.at(_qid_at)


def _qid_program_at(data: bytes, pos: int) -> Tuple[QueryId, Program, int]:
    """A query id and the program section after it, both reused from the
    parsed-program table when the section's bytes are the ones it holds."""
    seq, pos = _varint_at(data, pos)
    originator, pos = _name_at(data, pos)
    known = _PARSED_PROGRAMS.get((seq, originator))
    if known is not None and data.startswith(known[1], pos):
        return known[0], known[2], pos + len(known[1])
    r = _Reader(data, pos)
    qid = QueryId(seq, originator) if known is None else known[0]
    return qid, _read_program(r, qid), r.pos


def _write_term(w: _Writer, term) -> None:
    chunks = w.chunks
    n = len(term)
    chunks.append(_varint(n))
    for key, value in sorted(term.items()) if n > 1 else term.items():
        chunks.append(_name(key))
        if type(value) is Credit:
            _write_credit(chunks, value)
        else:
            _write_value(w, value)


def _term_at(data: bytes, pos: int) -> Tuple[Dict[str, Any], int]:
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
            r = _Reader(data, pos)
            term[key] = _read_value(r)
            pos = r.pos
    return term, pos


# --------------------------------------------------------------------------
# site summaries (caching layer piggyback)
# --------------------------------------------------------------------------


def _write_bloom(w: _Writer, bloom: BloomFilter) -> None:
    w.varint(bloom.hashes)
    w.varint(bloom.count)
    w.raw(bloom.to_bytes())


def _read_bloom(r: _Reader) -> BloomFilter:
    hashes = r.varint()
    if hashes < 1 or hashes > 64:
        raise CodecError(f"implausible bloom hash count {hashes}")
    count = r.varint()
    if count < 0:
        raise CodecError("negative bloom count")
    data = bytes(r.raw())
    if not data:
        raise CodecError("empty bloom bit array")
    return BloomFilter.from_bytes(data, hashes, count)


def _write_summary(w: _Writer, summary: SiteSummary) -> None:
    w.text(summary.site)
    w.varint(summary.epoch)
    w.varint(summary.forward_count)
    w.varint(summary.alloc_high)
    _write_bloom(w, summary.holdings)
    w.varint(len(summary.reach))
    for key in sorted(summary.reach):
        w.text(key)
        _write_bloom(w, summary.reach[key])


def _read_summary(r: _Reader) -> SiteSummary:
    site = r.text()
    epoch = r.varint()
    forward_count = r.varint()
    alloc_high = r.varint()
    if epoch < 0 or forward_count < 0 or alloc_high < 0:
        raise CodecError("negative summary field")
    holdings = _read_bloom(r)
    n = r.varint()
    if n < 0 or n > 1024:
        raise CodecError(f"implausible reach-key count {n}")
    reach = {r.text(): _read_bloom(r) for _ in range(n)}
    return SiteSummary(site, epoch, forward_count, holdings, reach, alloc_high)


# --------------------------------------------------------------------------
# messages
# --------------------------------------------------------------------------


def _write_object(w: _Writer, obj: Optional[HFObject]) -> None:
    if obj is None:
        w.byte(0)
        return
    w.byte(1)
    _write_oid(w.chunks, obj.oid)
    w.varint(obj.size_bytes)
    w.varint(len(obj.tuples))
    for t in obj.tuples:
        w.name(t.type)
        _write_value(w, t.key)
        _write_value(w, t.data)


def _read_object(r: _Reader) -> Optional[HFObject]:
    if r.byte() == 0:
        return None
    if r.byte() != _T_OID:
        raise CodecError("object record must start with an oid")
    oid = r.at(_oid_at)
    size_hint = r.varint()
    n = r.varint()
    if n < 0 or n > 1_000_000:
        raise CodecError(f"implausible tuple count {n}")
    tuples = [_construct(HFTuple, r.at(_name_at), _read_value(r), _read_value(r)) for _ in range(n)]
    return HFObject(oid, tuples, size_hint=size_hint)


#: Attribute caching a message's encoded bytes on the (frozen) message
#: itself.  Message dataclasses are immutable, so the bytes can never go
#: stale; the attribute slot exists because none of them define
#: ``__slots__``.
_WIRE_CACHE = "_wire_cache"


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
        cached = _encode_message_uncached(message)
        object.__setattr__(message, _WIRE_CACHE, cached)
    return cached


def encode_message(message: Any) -> bytes:
    """Serialise one inter-site message to bytes."""
    cached = getattr(message, _WIRE_CACHE, None)
    if cached is not None:
        return cached
    return _encode_message_uncached(message)


def _encode_message_uncached(message: Any) -> bytes:
    w = _Writer()
    _write_message(w, message)
    return w.getvalue()


_DEREF_TAG = _ONE_BYTE[_M_DEREF_REQUEST]
_RESULT_TAG = _ONE_BYTE[_M_RESULT_BATCH]
#: An empty tuple value: a result batch's usual emissions.
_EMPTY_TUPLE = bytes((_T_TUPLE, 0))


def _write_deref(w: _Writer, message: DerefRequest) -> None:
    qid = message.qid
    w.chunks += (_DEREF_TAG, _varint(qid.seq), _name(qid.originator))
    _write_program(w, message.program)
    _write_item(w, message.item)
    _write_term(w, message.term)


def _deref_at(data: bytes, pos: int) -> Tuple[DerefRequest, int]:
    """A ``DerefRequest``, its tag already read: one pass, and each
    object built once (the query id and program usually reused)."""
    qid, program, pos = _qid_program_at(data, pos)
    item, pos = _item_at(data, pos, program)
    term, pos = _term_at(data, pos)
    message = _new(DerefRequest)  # see _new
    fields = message.__dict__
    fields["qid"] = qid
    fields["program"] = program
    fields["item"] = item
    fields["term"] = term
    return message, pos


def _write_result(w: _Writer, message: ResultBatch) -> None:
    chunks = w.chunks
    qid = message.qid
    oids = message.oids
    chunks += (_RESULT_TAG, _varint(qid.seq), _name(qid.originator), _ONE_BYTE[_T_TUPLE], _varint(len(oids)))
    for oid in oids:
        if type(oid) is Oid:
            _write_oid(chunks, oid)
        else:
            _write_value(w, oid, 1)
    if message.emissions:
        _write_value(w, tuple(message.emissions))
    else:
        chunks.append(_EMPTY_TUPLE)
    chunks += (_ONE_BYTE[1 if message.count_only else 0], _varint(message.count))
    _write_term(w, message.term)
    if message.summary is None:
        chunks.append(_ONE_BYTE[0])
    else:
        w.byte(1)
        _write_summary(w, message.summary)


def _result_at(data: bytes, pos: int) -> Tuple[ResultBatch, int]:
    """A ``ResultBatch``, its tag already read, in one pass."""
    qid, pos = _qid_at(data, pos)
    if data[pos] != _T_TUPLE:
        raise CodecError("result batch oids must be a tuple of oids")
    n, pos = _varint_at(data, pos + 1)
    if n < 0 or n > 1_000_000:
        raise CodecError(f"implausible tuple length {n}")
    oids = []
    for _ in range(n):
        if data[pos] != _T_OID:
            raise CodecError("result batch oids must be a tuple of oids")
        oid, pos = _oid_at(data, pos + 1)
        oids.append(oid)
    if data.startswith(_EMPTY_TUPLE, pos):
        emissions: tuple = ()
        pos += 2
    else:
        r = _Reader(data, pos)
        emissions = _read_value(r)
        pos = r.pos
        if not isinstance(emissions, tuple) or not all(
            isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], str) for e in emissions
        ):
            raise CodecError("result batch emissions must be (target, value) pairs")
    count_only = data[pos] == 1
    count, pos = _varint_at(data, pos + 1)
    term, pos = _term_at(data, pos)
    summary = None
    if data[pos] == 1:
        r = _Reader(data, pos + 1)
        summary = _read_summary(r)
        pos = r.pos
    else:
        pos += 1
    message = _new(ResultBatch)  # see _new
    fields = message.__dict__
    fields["qid"] = qid
    fields["oids"] = tuple(oids)
    fields["emissions"] = emissions
    fields["count_only"] = count_only
    fields["count"] = count
    fields["term"] = term
    fields["summary"] = summary
    return message, pos


def _write_message(w: _Writer, message: Any) -> None:
    if isinstance(message, DerefRequest):
        _write_deref(w, message)
    elif isinstance(message, ResultBatch):
        _write_result(w, message)
    elif isinstance(message, ControlMessage):
        w.byte(_M_CONTROL)
        _write_qid(w, message.qid)
        w.text(message.kind)
        _write_value(w, message.payload)
    elif isinstance(message, SeedFromSaved):
        w.byte(_M_SEED_FROM_SAVED)
        _write_qid(w, message.qid)
        _write_program(w, message.program)
        _write_qid(w, message.source_qid)
        _write_term(w, message.term)
    elif isinstance(message, PurgeContext):
        w.byte(_M_PURGE_CONTEXT)
        _write_qid(w, message.qid)
        w.varint(message.incarnation)
    elif isinstance(message, FetchRequest):
        w.byte(_M_FETCH_REQUEST)
        w.varint(message.request_id)
        _write_value(w, message.oid)
        w.text(message.reply_to)
    elif isinstance(message, FetchReply):
        w.byte(_M_FETCH_REPLY)
        w.varint(message.request_id)
        _write_object(w, message.obj)
    elif isinstance(message, BatchedQuery):
        w.byte(_M_BATCHED_QUERY)
        _write_qid(w, message.qid)
        _write_program(w, message.program)
        w.varint(len(message.items))
        for item, term in zip(message.items, message.terms):
            _write_item(w, item)
            _write_term(w, term)
        _write_value(w, tuple(message.marked_hints))
    elif isinstance(message, BatchedResults):
        w.byte(_M_BATCHED_RESULTS)
        w.varint(len(message.batches))
        for batch in message.batches:
            w.raw(preframe(batch))
    elif isinstance(message, Heartbeat):
        w.byte(_M_HEARTBEAT)
        w.text(message.origin)
        w.varint(len(message.counters))
        for site, count in message.counters:
            w.text(site)
            w.varint(count)
    elif isinstance(message, ViewChange):
        w.byte(_M_VIEW_CHANGE)
        w.varint(message.epoch)
        w.varint(len(message.statuses))
        for site, status in message.statuses:
            w.text(site)
            w.text(status)
        w.text(message.reason)
    elif isinstance(message, ReliableData):
        w.byte(_M_RELIABLE_DATA)
        w.varint(message.seq)
        w.raw(preframe(message.payload))
    elif isinstance(message, ReliableAck):
        w.byte(_M_RELIABLE_ACK)
        w.varint(message.seq)
    else:
        raise CodecError(f"cannot encode message {type(message).__name__}")


def decode_message(frame: bytes) -> Any:
    """Deserialise one inter-site message; raises :class:`CodecError`."""
    r = _Reader(frame)
    message = r.at(_message_at)
    if not r.done():
        raise CodecError(f"{len(r.data) - r.pos} trailing bytes after message")
    return message


def _message_at(data: bytes, pos: int) -> Tuple[Any, int]:
    """The message at ``pos``: the two hot kinds in one pass, the rest
    through a :class:`_Reader`."""
    tag = data[pos]
    if tag == _M_DEREF_REQUEST:
        return _deref_at(data, pos + 1)
    if tag == _M_RESULT_BATCH:
        return _result_at(data, pos + 1)
    r = _Reader(data, pos + 1)
    return _read_message(r, tag), r.pos


def _read_message(r: _Reader, tag: int) -> Any:
    if tag == _M_CONTROL:
        return ControlMessage(_read_qid(r), r.text(), _read_value(r))
    if tag == _M_SEED_FROM_SAVED:
        qid = _read_qid(r)
        return SeedFromSaved(qid, _read_program(r, qid), _read_qid(r), r.at(_term_at))
    if tag == _M_PURGE_CONTEXT:
        return PurgeContext(_read_qid(r), r.varint())
    if tag == _M_FETCH_REQUEST:
        request_id = r.varint()
        oid = _read_value(r)
        if not isinstance(oid, Oid):
            raise CodecError("fetch request oid expected")
        return FetchRequest(request_id, oid, reply_to=r.text())
    if tag == _M_FETCH_REPLY:
        return FetchReply(r.varint(), _read_object(r))
    if tag == _M_BATCHED_QUERY:
        qid = _read_qid(r)
        program = _read_program(r, qid)
        n = r.varint()
        if n < 1 or n > 100_000:
            raise CodecError(f"implausible batch size {n}")
        items: List[WorkItem] = []
        terms: List[Dict[str, Any]] = []
        for _ in range(n):
            items.append(r.at(_item_at, program))
            terms.append(r.at(_term_at))
        hints = _read_value(r)
        if not isinstance(hints, tuple):
            raise CodecError("batched-query hints must be a tuple")
        return BatchedQuery(qid, program, tuple(items), tuple(terms), hints)
    if tag == _M_BATCHED_RESULTS:
        n = r.varint()
        if n < 1 or n > 100_000:
            raise CodecError(f"implausible batched-results size {n}")
        inner = []
        for _ in range(n):
            inner_frame = r.raw()
            # Checked before descending, so nesting cannot recurse.
            if not inner_frame or inner_frame[0] != _M_RESULT_BATCH:
                raise CodecError("batched-results frame may only carry ResultBatch")
            inner.append(decode_message(inner_frame))
        return BatchedResults(tuple(inner))
    if tag == _M_HEARTBEAT:
        origin = r.text()
        n = r.varint()
        if n > 100_000:
            raise CodecError(f"implausible heartbeat table size {n}")
        return Heartbeat(origin, tuple((r.text(), r.varint()) for _ in range(n)))
    if tag == _M_VIEW_CHANGE:
        epoch = r.varint()
        n = r.varint()
        if n > 100_000:
            raise CodecError(f"implausible view size {n}")
        statuses = tuple((r.text(), r.text()) for _ in range(n))
        return ViewChange(epoch, statuses, reason=r.text())
    if tag == _M_RELIABLE_DATA:
        seq = r.varint()
        inner_frame = r.raw()
        # The channel wraps application messages only; refusing its own
        # frames here is also what keeps this recursion two levels deep.
        if inner_frame and inner_frame[0] in (_M_RELIABLE_DATA, _M_RELIABLE_ACK):
            raise CodecError("reliable frame nested inside a reliable frame")
        return ReliableData(seq, decode_message(inner_frame))
    if tag == _M_RELIABLE_ACK:
        return ReliableAck(r.varint())
    raise CodecError(f"unknown message tag 0x{tag:02x}")


# --------------------------------------------------------------------------
# envelopes (the inter-site wire)
# --------------------------------------------------------------------------


#: Wire codes for the QoS service classes (byte value = index + 1; 0 =
#: "QoS off").  Order matches :data:`repro.qos.PRIORITIES` and is part
#: of the frame layout — append only.
_PRIORITY_CODES = ("interactive", "batch")

#: The header after the sender's name when spans, epoch, tried, priority
#: and pressure are all absent: five zero varints / bytes.
_BARE_HEADER = bytes(5)


def encode_envelope(env: Envelope) -> bytes:
    """Serialise an envelope: sender, trace-span context, then the message.

    The asyncio transport frames these (length-prefixed) on the wire; the
    span block is how tracing causality crosses a real TCP connection.  A
    span count of zero means "untraced" (``spans=None``), matching the
    in-process transports bit for bit.  Span entries of ``0`` are per-item
    placeholders for untraced causes inside a traced batch.

    The sender's store epoch travels the same way: ``0`` means "caching
    off" (``src_epoch=None``), any other value ``e`` decodes to epoch
    ``e - 1``.

    The replica-routing hint (``tried``: holder sites already attempted
    for the work inside) follows the epoch as a site-name count; ``0``
    means "no hint" (``tried=None``), which is what every frame on an
    unreplicated deployment carries.

    The QoS fields close the header the same way: a priority byte (``0``
    = QoS off, ``1`` = interactive, ``2`` = batch) and a pressure varint
    (``0`` = QoS off, else ``pressure + 1``).  A ``qos=None`` deployment
    writes two zero bytes here, and both ends agree on the layout, so
    the frames stay self-consistent across all transports.
    """
    w = _Writer()
    w.chunks.append(_name(env.src))
    if (
        env.spans is None and env.src_epoch is None and not env.tried
        and env.priority is None and env.pressure is None
    ):
        w.chunks.append(_BARE_HEADER)
    else:
        _write_header(w, env)
    payload = env.payload
    cached = getattr(payload, _WIRE_CACHE, None)
    if cached is not None:
        w.chunks.append(cached)
    else:
        _write_message(w, payload)
    return w.getvalue()


def _write_header(w: _Writer, env: Envelope) -> None:
    if env.spans is None:
        w.varint(0)
    else:
        w.varint(len(env.spans))
        for span in env.spans:
            w.varint(span)
    w.varint(0 if env.src_epoch is None else env.src_epoch + 1)
    if env.tried:
        w.varint(len(env.tried))
        for site in env.tried:
            w.name(site)
    else:
        w.varint(0)
    if env.priority is None:
        w.byte(0)
    else:
        try:
            w.byte(1 + _PRIORITY_CODES.index(env.priority))
        except ValueError:
            raise CodecError(f"unknown envelope priority {env.priority!r}") from None
    w.varint(0 if env.pressure is None else env.pressure + 1)


def _read_header(r: _Reader) -> Dict[str, Any]:
    n = r.varint()
    if n < 0 or n > 100_000:
        raise CodecError(f"implausible span count {n}")
    spans = tuple(r.varint() for _ in range(n)) if n else None
    epoch_plus_one = r.varint()
    if epoch_plus_one < 0:
        raise CodecError("negative envelope epoch")
    n_tried = r.varint()
    if n_tried < 0 or n_tried > 100_000:
        raise CodecError(f"implausible tried-site count {n_tried}")
    tried = tuple(r.at(_name_at) for _ in range(n_tried)) if n_tried else None
    priority_code = r.byte()
    if priority_code > len(_PRIORITY_CODES):
        raise CodecError(f"unknown envelope priority code {priority_code}")
    pressure_plus_one = r.varint()
    if pressure_plus_one < 0:
        raise CodecError("negative envelope pressure")
    return {
        "spans": spans,
        "src_epoch": None if epoch_plus_one == 0 else epoch_plus_one - 1,
        "tried": tried,
        "priority": None if priority_code == 0 else _PRIORITY_CODES[priority_code - 1],
        "pressure": None if pressure_plus_one == 0 else pressure_plus_one - 1,
    }


_NO_HEADER = {"spans": None, "src_epoch": None, "tried": None, "priority": None, "pressure": None}


def decode_envelope(frame: bytes, dst: str) -> Envelope:
    """Inverse of :func:`encode_envelope`; raises :class:`CodecError`.

    One pass over the frame (a view is copied to ``bytes`` once, first):
    the sender, the header — a bare one is five zero bytes, anything else
    goes through :func:`_read_header` — and the message.
    """
    data = frame if type(frame) is bytes else bytes(frame)
    try:
        src, pos = _name_at(data, 0)
        if data.startswith(_BARE_HEADER, pos):
            header = _NO_HEADER
            pos += len(_BARE_HEADER)
        else:
            r = _Reader(data, pos)
            header = _read_header(r)
            pos = r.pos
        payload, pos = _message_at(data, pos)
    except IndexError:
        raise CodecError("truncated frame") from None
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after message")
    env = _new(Envelope)  # see _new
    fields = env.__dict__
    fields["src"] = src
    fields["dst"] = dst
    fields["payload"] = payload
    fields.update(header)
    fields["size_bytes"] = payload.wire_size()
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
