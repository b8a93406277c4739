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
nothing else (the transports catch nothing else).  The same holds for
process mode's control frames: decoding one yields a known op and its
argument tuple, or raises :class:`CodecError`.  Tier-1 runs a fixed,
seeded number of examples; CI's ``codec-fuzz`` job reruns the same three
properties with a larger count.
"""

from dataclasses import astuple

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.objects import HFObject
from repro.core.oid import Oid
from repro.core.tuples import keyword_tuple
from repro.engine.results import ExecutionStats
from repro.errors import HyperFileError
from repro.net import procserver
from repro.net.codec import (
    FRAME_HEADER,
    CodecError,
    FrameReader,
    decode_envelope,
    encode_envelope,
    encode_frame,
)
from repro.net.messages import QueryId
from tests.net.test_codec import QID, prog, wire_corpus

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
        "get": (oid,), "replace": (obj,), "put": (obj, True), "contains": (oid,),
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
                     (("site0", 1),), ""),
        "stats_push": ("site0", '{"t": 0.0, "sample": {}}'),
        "give_up": ("site0", "site0", "site1", "DerefRequest", str(QID)),
    }
    return [
        procserver._encode(0 if op.push else 1, code, args[op.name])[FRAME_HEADER.size :]
        for code, op in enumerate(procserver._OPS)
    ]


CONTROL_CORPUS = control_corpus()


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


def fuzz_properties(max_examples: int):
    """The three fuzz properties, seeded, at ``max_examples`` each (CI
    asks for many more than tier-1 does)."""
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
    return tuple(seed(FUZZ_SEED)(budget(prop)) for prop in (mutated, random_bytes, control))


(
    test_fuzz_mutated_frames_raise_only_codec_error,
    test_fuzz_random_bytes_raise_only_codec_error,
    test_fuzz_control_frames_raise_only_codec_error,
) = fuzz_properties(FUZZ_EXAMPLES)
