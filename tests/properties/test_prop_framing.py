"""Property-based tests of the streaming frame codec (hypothesis).

The asyncio transport's :class:`~repro.net.codec.FrameReader` receives
the TCP byte stream in arbitrary chunks — the kernel is free to split
one frame across many reads or coalesce many frames into one.  The
contract is exact reassembly: for ANY frame sequence and ANY chunking of
the concatenated bytes, ``feed`` must yield exactly the original frame
payloads, in order, regardless of where the chunk boundaries fall.  A
single off-by-one here silently corrupts (or drops) an envelope, which
on a live cluster surfaces as a lost termination credit — a hang, not
an error — so this file holds the line property-style.

The second half is the decoder fuzz: the bytes behind the framing come
from other machines, so arbitrary and mutated streams pushed through
``FrameReader`` + ``decode_envelope`` may raise :class:`CodecError` and
nothing else (the transports catch nothing else).  The corpus holds a
frame of every declared message kind.  The same holds for process
mode's control frames — decoding one yields a known op and its argument
tuple, or raises :class:`CodecError` — and for store snapshots, which
load or raise :class:`CodecError`.

The third part pins the writers and readers built from the codec's
declaration (``codec.MESSAGES``) to the format: over envelopes of every
message kind, drawn field by field from the declared wire types, a
frame re-encodes to itself and decodes to what was sent; a frame
decoded from a view whose buffer is then reused stays decoded; and the
codec's intern tables stay within their bounds.

Tier-1 runs a fixed, seeded number of examples; CI's ``codec-fuzz`` job
reruns the five fuzz properties (mutated frames, random bytes, control
frames, re-encoding of every message kind, mutated snapshots) with a
larger count.
"""

import io
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.cache import BloomFilter, SiteSummary
from repro.core.objects import HFObject
from repro.core.oid import Oid
from repro.core.tuples import HFTuple, keyword_tuple
from repro.engine.items import WorkItem
from repro.engine.results import ExecutionStats
from repro.errors import HyperFileError
from repro.net import codec, procserver
from repro.net.codec import (
    FRAME_HEADER,
    MAX_CREDIT_EXPONENT,
    MAX_VARINT_BITS,
    CodecError,
    FrameReader,
    decode_envelope,
    encode_envelope,
    encode_frame,
)
from repro.net.messages import DerefRequest, Envelope, QueryId, ResultBatch
from repro.storage.blobstore import BlobRef
from repro.storage.snapshot import load_store
from repro.termination.weights import Credit
from repro.tracing import TraceEvent
from tests.net.test_codec import QID, _chain_closure, prog, wire_corpus
from tests.storage.test_snapshot import GOLDEN_SNAPSHOT

SETTINGS = settings(max_examples=200, deadline=None)

frames_strategy = st.lists(
    st.binary(min_size=0, max_size=64), min_size=0, max_size=12
)


def chunkings(data: bytes):
    """Strategy for ways to split ``data`` into consecutive chunks."""
    return st.lists(
        st.integers(min_value=1, max_value=max(len(data), 1)),
        min_size=0,
        max_size=len(data) + 1,
    )


def split(data: bytes, sizes) -> list:
    chunks = []
    pos = 0
    for size in sizes:
        if pos >= len(data):
            break
        chunks.append(data[pos:pos + size])
        pos += size
    if pos < len(data):
        chunks.append(data[pos:])
    return chunks


@SETTINGS
@given(payloads=frames_strategy, data=st.data())
def test_any_chunking_reassembles_identically(payloads, data):
    stream = b"".join(encode_frame(p) for p in payloads)
    sizes = data.draw(chunkings(stream))
    reader = FrameReader()
    got = []
    for chunk in split(stream, sizes):
        got.extend(bytes(frame) for frame in reader.feed(chunk))
    assert got == payloads
    assert reader.pending == 0


@SETTINGS
@given(payloads=frames_strategy)
def test_byte_at_a_time_equals_one_shot(payloads):
    stream = b"".join(encode_frame(p) for p in payloads)
    one_shot = FrameReader()
    whole = [bytes(f) for f in one_shot.feed(stream)] if stream else []
    dribble = FrameReader()
    trickled = []
    for i in range(len(stream)):
        trickled.extend(bytes(f) for f in dribble.feed(stream[i:i + 1]))
    assert whole == payloads
    assert trickled == payloads


def test_partial_frame_stays_pending():
    frame = encode_frame(b"hello")
    reader = FrameReader()
    assert reader.feed(frame[:3]) == []
    assert reader.pending == 3
    (got,) = reader.feed(frame[3:])
    assert bytes(got) == b"hello"
    assert reader.pending == 0


def test_oversized_frame_rejected():
    reader = FrameReader()
    with pytest.raises(HyperFileError):
        reader.feed(FRAME_HEADER.pack(1 << 31))


def test_fast_path_returns_views_over_the_chunk():
    """Whole frames inside one chunk come back zero-copy."""
    chunk = encode_frame(b"abc") + encode_frame(b"defg")
    frames = FrameReader().feed(chunk)
    assert [bytes(f) for f in frames] == [b"abc", b"defg"]
    assert any(isinstance(f, memoryview) for f in frames)


# --------------------------------------------------------------------------
# decoder fuzz
# --------------------------------------------------------------------------

FUZZ_SEED = 20261002
#: Examples per property in tier-1 (about a second each).
FUZZ_EXAMPLES = 400

CORPUS = [encode_envelope(env) for env in wire_corpus().values()]

#: One edit of a frame: (kind, position as a fraction of its length, bytes).
edits = st.lists(
    st.tuples(
        st.sampled_from(["flip", "set", "insert", "delete", "truncate", "repeat"]),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.binary(min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=4,
)


def mutate(frame: bytes, edit_list) -> bytes:
    out = bytearray(frame)
    for kind, where, data in edit_list:
        if not out:
            break
        at = int(where * len(out))
        if kind == "flip":
            out[at] ^= data[0] or 1
        elif kind == "set":
            out[at : at + len(data)] = data
        elif kind == "insert":
            out[at:at] = data
        elif kind == "delete":
            del out[at : at + len(data)]
        elif kind == "truncate":
            del out[at:]
        else:  # repeat a run of the frame's own bytes (nested tags, lengths)
            out[at:at] = bytes(out[at : at + len(data)]) * data[0]
    return bytes(out)


def survives(stream: bytes, sizes) -> None:
    """Decode ``stream`` the way a transport does; only CodecError may rise."""
    reader = FrameReader()
    try:
        for chunk in split(stream, sizes):
            for frame in reader.feed(chunk):
                try:
                    decode_envelope(frame, "site1")
                except CodecError:
                    pass
    except CodecError:
        pass  # a corrupt length prefix ends the stream, as on a live link


def mutated_frames_survive(picks, data):
    stream = b"".join(encode_frame(mutate(CORPUS[index], edit_list)) for index, edit_list in picks)
    survives(stream, data.draw(chunkings(stream)))


def random_bytes_survive(framed, blob, data):
    stream = encode_frame(blob) if framed else blob
    survives(stream, data.draw(chunkings(stream)))


def control_corpus():
    """One valid control frame per op, in table order: a request under
    id 1, a push under id 0."""
    oid = Oid("site0", 1)
    obj = HFObject(oid, [keyword_tuple("K")])
    args = {
        "create": ((("Keyword", "K", None),), None),
        "get": (oid,), "replace": (obj,), "create_many": (2,), "replace_many": ((obj, obj),),
        "put": (obj, True), "contains": (oid,),
        "remove": (oid,), "oids": (), "objects": (), "store_meta": (),
        "fwd_record": (oid, "site1"), "fwd_drop": (oid,), "fwd_lookup": (oid,),
        "repl_dir": (oid, (("site0", "site1"), 2)), "epoch": ("site1", 3),
        "membership": ((("site0", "up"), ("site1", "leaving")),),
        "submit": (QID, prog(), (oid,), "batch", "tenant"),
        "submit_saved": (QID, prog(), QueryId(6, "site0")), "expire": (QID,),
        "peers": ((("site0", 4000), ("site1", 4001)),), "set_down": ("site1",), "set_up": ("site1",),
        "faults": (3, (0.1, 0.0, 0.0, 0.0, 0.05), (("site0", "site1", 1.0, 0.0, 0.0, 0.0),),
                   (("site0", "site1"),)),
        "fault_stats": (), "reliable_on": (0.01, 0.05, 2), "credit": (QID,), "shutdown": (),
        "stats": (), "trace_on": (("send",), 1, 5), "trace_off": (), "trace_drain": (),
        "metrics_on": (), "metrics_snap": (), "flight_snap": (),
        "hello": ("site0", 4000),
        "complete": (QID, (oid,), (("T", ("x", 2.5)),), astuple(ExecutionStats()), False, None,
                     (("site0", 1),), (EVENT,)),
        "stats_push": ("site0", '{"t": 0.0, "sample": {}}'),
        "give_up": ("site0", "site0", "site1", "DerefRequest", str(QID)),
    }
    return [
        procserver._encode(0 if op.push else 1, code, args[op.name])[FRAME_HEADER.size :]
        for code, op in enumerate(procserver._OPS)
    ]


#: A trace event as a child ships it: its detail holds a value the codec
#: carries (a tuple) and one it does not (a set).
EVENT = TraceEvent(1.25, "site1", "send", str(QID), {"n": 3, "at": (1, 2), "odd": {4}}, span=9, parent=None)
CONTROL_CORPUS = control_corpus()


def test_trace_events_cross_as_the_jsonl_exporter_writes_them():
    """A shipped event's detail is flattened the way the jsonl dump
    flattens it (``_jsonable``): numbers stay numbers, the rest is text."""
    frame = procserver._encode(1, procserver._OK, (EVENT, EVENT))[FRAME_HEADER.size :]
    _, _, (got, again) = procserver._decode(frame)
    assert got == again == TraceEvent(
        1.25, "site1", "send", str(QID), {"n": 3, "at": "(1, 2)", "odd": "{4}"}, span=9, parent=None
    )
    assert [(k, type(v)) for k, v in got.detail.items()] == [("n", int), ("at", str), ("odd", str)]


def test_control_corpus_decodes_to_every_op_and_unknown_ops_are_codec_errors():
    decoded = [procserver._decode_op(frame) for frame in CONTROL_CORPUS]
    assert [op for _, op, _ in decoded] == list(procserver._OPS)
    for bad in ((1, len(procserver._OPS), ()), (1, procserver._CODES["complete"], ()),
                (0, procserver._CODES["get"], ()), (1, procserver._CODES["get"], "not a tuple")):
        with pytest.raises(CodecError):
            procserver._decode_op(procserver._encode(*bad)[FRAME_HEADER.size :])


def control_frames_decode_or_raise(index, edit_list, blob, random):
    """A control frame decodes to a known op with an argument tuple, or
    raises CodecError: nothing else."""
    frame = blob if random else mutate(CONTROL_CORPUS[index], edit_list)
    try:
        _, op, args = procserver._decode_op(frame)
    except CodecError:
        return
    assert procserver._OPS[procserver._CODES[op.name]] is op
    assert type(args) is tuple


# --------------------------------------------------------------------------
# the hot messages: canonical re-encoding and round trips
# --------------------------------------------------------------------------

#: Site names: the usual short ASCII ones, non-ASCII ones, and ones of
#: 64 UTF-8 bytes or more (past the intern tables' length bound).
site_names = st.one_of(
    st.sampled_from(["site0", "site1", "s"]),
    st.text(alphabet="sitéµ日本0", min_size=1, max_size=12),
    st.text(alphabet="ab日", max_size=4).map(lambda tail: "long-site-" * 7 + tail),
)
oids = st.builds(
    Oid,
    birth_site=site_names,
    local_id=st.one_of(st.integers(0, 63), st.integers(0, 2**40)),
    presumed_site=st.one_of(st.none(), site_names),
)
qids = st.builds(QueryId, seq=st.one_of(st.integers(0, 63), st.integers(0, 2**40)), originator=site_names)
credits = st.builds(
    Credit,
    st.one_of(st.integers(0, 2**64), st.integers(0, 2**MAX_VARINT_BITS - 1)),
    st.integers(0, MAX_CREDIT_EXPONENT),
)
#: Termination attachments: what the detector ships, and the other values
#: a hand-built message may carry (read by the codec's value reader).
terms = st.dictionaries(
    st.sampled_from(["credit", "#inc", "w" * 70, "crédit"]),
    st.one_of(
        credits,
        st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
        st.integers(-(2**70), 2**70),
    ),
    max_size=3,
)
#: Programs with no loop, a closure, a bounded loop and nested loops.
PROGRAMS = [
    prog("S (Keyword, ?, ?) -> T"),
    _chain_closure(),
    prog(),
    prog('S [ [ (Pointer,"R",?X) ^^X ]^2 (Pointer,"Q",?Y) ^^Y ]^3 -> T'),
]


@st.composite
def work_items(draw, program):
    loops = sorted(program.loop_counts())
    chosen = draw(st.lists(st.sampled_from(loops), unique=True)) if loops else []
    return WorkItem(
        draw(oids),
        start=draw(st.integers(1, program.size + 1)),
        iters=tuple((loop, draw(st.integers(0, 2**20))) for loop in chosen),
    )


#: Values: scalars of every value type, and tuples of them.
values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-(2**70), 2**70),
        st.floats(allow_nan=False), st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
        st.binary(max_size=4), oids, credits, st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)),
        st.builds(BlobRef, oids, st.sampled_from(["Body", 3]), st.integers(0, 2**20)),
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


def _bloom_with(keys, hashes):
    bloom = BloomFilter(64, hashes)
    for key in keys:
        bloom.add(key)
    return bloom


blooms = st.builds(_bloom_with, st.lists(st.text(max_size=4), max_size=3), st.integers(1, 4))
summaries = st.builds(
    SiteSummary, site_names, st.integers(0, 2**20), st.integers(0, 99), blooms,
    st.dictionaries(st.sampled_from(["Ref", "R", "Q"]), blooms, max_size=2), st.integers(0, 2**20),
)
objects = st.builds(
    HFObject, oids,
    st.lists(st.builds(HFTuple, st.sampled_from(["Keyword", "Pointer", "Val"]), values, values), max_size=3),
    st.one_of(st.none(), st.integers(0, 2**20)),
)
#: The primitive wire types' values; a work item needs its program.
PRIMITIVES = {
    "varint": st.one_of(st.integers(-64, 63), st.integers(-(2**70), 2**70)),
    "count": st.one_of(st.integers(0, 63), st.integers(0, 2**40)),
    "flag": st.booleans(),
    "name": site_names, "text": site_names, "str": site_names,
    "qid": qids, "oid": oids, "term": terms, "value": values,
    "summary": summaries, "object": objects,
}


def wire_values(wire, program):
    """A strategy for the values of a declared wire type."""
    if wire.kind in PRIMITIVES:
        return PRIMITIVES[wire.kind]
    if wire.kind == "item":
        return work_items(program)
    if wire.kind == "count+1":
        return st.one_of(st.none(), PRIMITIVES["count"])
    if wire.kind == "choice":
        return st.sampled_from(wire.limits)
    if wire.kind == "frame":
        return messages(tuple(spec for spec in codec.MESSAGES if f"0x{spec.tag:02x}" in wire.limits))
    inner = [wire_values(part, program) for part in wire.parts]
    if wire.kind == "optional":
        return st.one_of(st.none(), inner[0])
    if wire.kind in ("pair", "2-tuple"):
        return st.tuples(*inner)
    lo = wire.limits[0]
    if wire.kind == "columns":
        return st.lists(st.tuples(*inner), min_size=lo, max_size=3).map(lambda rows: tuple(zip(*rows)))
    assert wire.kind in ("list", "tuple"), wire
    if wire.limits[2] is None:  # no elements decode as None
        return st.one_of(st.none(), st.lists(inner[0], min_size=max(lo, 1), max_size=3).map(tuple))
    return st.lists(inner[0], min_size=lo, max_size=3).map(tuple)


@st.composite
def messages(draw, declared=codec.MESSAGES):
    """Any declared message, every field drawn from its wire type."""
    spec = draw(st.sampled_from(declared))
    program = draw(st.sampled_from(PROGRAMS))
    fields = {}
    for names, wire in spec.fields:
        value = (draw(qids), program) if wire.kind == "qid+program" else draw(wire_values(wire, program))
        fields.update(zip(names, value) if isinstance(names, tuple) else [(names, value)])
    return spec.cls(**fields)


@st.composite
def envelopes(draw, declared=codec.MESSAGES):
    header = {name: draw(wire_values(wire, None)) for name, wire in codec.ENVELOPE_HEADER}
    return Envelope(draw(site_names), draw(site_names), draw(messages(declared)), **header)


DECLARED = {spec.cls for spec in codec.MESSAGES}


def _payload_fields(message):
    """What a decoded payload must reproduce: every field, the program by
    its parts (a decoded program is a new object), each oid with its hint,
    a message inside by its own fields."""
    fields = dict(vars(message))
    fields.pop("_wire_cache", None)
    for name, value in fields.items():
        if type(value) in DECLARED:
            fields[name] = _payload_fields(value)
        elif type(value) is tuple and value and type(value[0]) in DECLARED:
            fields[name] = tuple(map(_payload_fields, value))
    if "program" in fields:
        program = fields.pop("program")
        fields["program"] = (program.source, program.result, repr(program.ops), program.enclosing)
    items = fields.get("items", ()) + ((fields["item"],) if "item" in fields else ())
    fields["hints"] = [
        (oid.birth_site, oid.local_id, oid.presumed_site)
        for oid in [item.oid for item in items] + list(fields.get("oids", ()))
    ]
    fields["term types"] = [
        {key: type(value) for key, value in term.items()}
        for term in fields.get("terms", ()) + ((fields["term"],) if "term" in fields else ())
    ]
    return fields


def frames_re_encode_to_themselves(env):
    """Decoding a frame gives back what was sent, and encoding that gives
    back the frame, byte for byte: the writer and the reader built from a
    declaration agree with each other and with the format."""
    frame = encode_envelope(env)
    got = decode_envelope(frame, env.dst)
    assert encode_envelope(got) == frame
    assert (got.src, got.dst, got.spans, got.src_epoch, got.tried, got.priority, got.pressure) == (
        env.src, env.dst, env.spans, env.src_epoch, env.tried, env.priority, env.pressure
    )
    assert type(got.payload) is type(env.payload)
    assert _payload_fields(got.payload) == _payload_fields(env.payload)
    assert got.size_bytes == env.size_bytes


@pytest.mark.parametrize("spec", codec.MESSAGES, ids=lambda spec: spec.cls.__name__)
def test_every_message_kind_re_encodes_to_itself(spec):
    """Each declared kind on its own, so that tier-1 draws every one."""
    seed(FUZZ_SEED)(settings(max_examples=10, deadline=None, database=None)(
        given(env=envelopes((spec,)))(frames_re_encode_to_themselves)
    ))()


def test_corpus_frames_re_encode_to_themselves():
    for frame in CORPUS:
        assert encode_envelope(decode_envelope(frame, "site1")) == frame


def test_a_decoded_view_survives_its_buffer_being_reused():
    """Frames may be views over a buffer the transport reuses: nothing
    decoded from one — fields, names, intern keys — may alias it."""
    item = WorkItem(Oid("view-birth-µ", 300, presumed_site="view-hint"), start=3, iters=((3, 2),))
    env = Envelope(
        "view-src", "site1", DerefRequest(QueryId(4242, "view-origin"), prog(), item, {"credit": Credit(5, 9)}),
        tried=("view-tried",),
    )
    frame = encode_envelope(env)
    buffer = bytearray(b"\xff" * 5 + frame + b"\xff" * 5)
    got = decode_envelope(memoryview(buffer)[5 : 5 + len(frame)], "site1")
    tables = [dict(table) for table in (codec._NAMES, codec._NAME_BYTES, codec._OIDS, codec._PARSED_PROGRAMS)]
    before = (encode_envelope(got), repr(got.payload), _payload_fields(got.payload))
    buffer[:] = bytes(len(buffer))
    assert (encode_envelope(got), repr(got.payload), _payload_fields(got.payload)) == before == (
        frame, repr(env.payload), _payload_fields(env.payload)
    )
    assert got.src == "view-src" and got.tried == ("view-tried",)
    assert [dict(table) for table in (codec._NAMES, codec._NAME_BYTES, codec._OIDS, codec._PARSED_PROGRAMS)] == tables
    assert all(type(key) is bytes for key in (*codec._NAMES, *codec._OIDS))
    assert all(type(entry[1]) is bytes for entry in codec._PARSED_PROGRAMS.values())


def test_intern_tables_stay_bounded():
    """Nothing the codec remembers grows with the queries or sites seen."""
    program = prog()
    for i in range(100_000):
        qid = QueryId(10**6 + i, f"origin-{i}")
        if i % 100 == 0:
            payload = DerefRequest(qid, program, WorkItem(Oid(f"birth-{i}", i), start=3))
        else:
            payload = ResultBatch(qid, oids=(Oid(f"birth-{i}", i, presumed_site=f"hint-{i}"),))
        decode_envelope(encode_envelope(Envelope(f"src-{i}", "site1", payload)), "site1")
    assert 0 < len(codec._NAMES) <= codec._INTERN_MAX
    assert 0 < len(codec._NAME_BYTES) <= codec._INTERN_MAX
    assert 0 < len(codec._OIDS) <= codec._INTERN_MAX
    assert len(codec._PARSED_PROGRAMS) <= codec._PARSED_PROGRAMS_MAX
    assert all(len(key) < codec._NAME_MAX for key in codec._NAMES)


def test_intern_tables_under_concurrent_readers():
    """Inline clusters decode on one loop thread each, all sharing the
    tables: inserts and clears racing must never hand back a wrong name
    or oid."""
    import sys
    import threading

    frames = [
        (encode_envelope(Envelope(f"racer-{i}", "site1", ResultBatch(QID, oids=(Oid(f"birth-{i}", i),)))), i)
        for i in range(codec._INTERN_MAX + 200)
    ]
    errors = []

    def reader(offset):
        try:
            for k in range(2 * len(frames)):
                frame, i = frames[(offset + k) % len(frames)]
                env = decode_envelope(frame, "site1")
                oid = env.payload.oids[0]
                assert env.src == f"racer-{i}" and (oid.birth_site, oid.local_id) == (f"birth-{i}", i)
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(n * 97,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(len(table) <= codec._INTERN_MAX for table in (codec._NAMES, codec._NAME_BYTES, codec._OIDS))


def mutated_snapshots_load_or_raise_codec_error(edit_list):
    """A store snapshot is read with the wire codec's object type: a
    corrupt one loads or raises CodecError, nothing else."""
    try:
        load_store(io.BytesIO(mutate(GOLDEN_SNAPSHOT, edit_list)))
    except CodecError:
        pass


def fuzz_properties(max_examples: int):
    """The fuzz properties, seeded, at ``max_examples`` each (CI asks for
    many more than tier-1 does)."""
    budget = settings(max_examples=max_examples, deadline=None, database=None)
    mutated = given(
        picks=st.lists(st.tuples(st.integers(0, len(CORPUS) - 1), edits), min_size=1, max_size=3),
        data=st.data(),
    )(mutated_frames_survive)
    random_bytes = given(framed=st.booleans(), blob=st.binary(max_size=300), data=st.data())(
        random_bytes_survive
    )
    control = given(
        index=st.integers(0, len(CONTROL_CORPUS) - 1),
        edit_list=edits,
        blob=st.binary(max_size=300),
        random=st.booleans(),
    )(control_frames_decode_or_raise)
    reencode = given(env=envelopes())(frames_re_encode_to_themselves)
    snapshots = given(edit_list=edits)(mutated_snapshots_load_or_raise_codec_error)
    return tuple(seed(FUZZ_SEED)(budget(prop)) for prop in (mutated, random_bytes, control, reencode, snapshots))


(
    test_fuzz_mutated_frames_raise_only_codec_error,
    test_fuzz_random_bytes_raise_only_codec_error,
    test_fuzz_control_frames_raise_only_codec_error,
    test_fuzz_every_message_kind_re_encodes_to_itself,
    test_fuzz_mutated_snapshots_raise_only_codec_error,
) = fuzz_properties(FUZZ_EXAMPLES)
