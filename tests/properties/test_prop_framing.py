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
nothing else (the transports catch nothing else).  Tier-1 runs a fixed,
seeded number of examples; CI's ``codec-fuzz`` job reruns the same two
properties with a larger count.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import HyperFileError
from repro.net.codec import (
    FRAME_HEADER,
    CodecError,
    FrameReader,
    decode_envelope,
    encode_envelope,
    encode_frame,
)
from tests.net.test_codec import wire_corpus

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


def fuzz_properties(max_examples: int):
    """The two fuzz properties, seeded, at ``max_examples`` each (CI asks
    for many more than tier-1 does)."""
    budget = settings(max_examples=max_examples, deadline=None, database=None)
    mutated = given(
        picks=st.lists(st.tuples(st.integers(0, len(CORPUS) - 1), edits), min_size=1, max_size=3),
        data=st.data(),
    )(mutated_frames_survive)
    random_bytes = given(framed=st.booleans(), blob=st.binary(max_size=300), data=st.data())(
        random_bytes_survive
    )
    return seed(FUZZ_SEED)(budget(mutated)), seed(FUZZ_SEED)(budget(random_bytes))


(
    test_fuzz_mutated_frames_raise_only_codec_error,
    test_fuzz_random_bytes_raise_only_codec_error,
) = fuzz_properties(FUZZ_EXAMPLES)
