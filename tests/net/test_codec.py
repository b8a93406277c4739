"""Tests for the binary wire codec."""

import dataclasses
from fractions import Fraction

import pytest

from repro.core.oid import Oid
from repro.core.parser import parse_query
from repro.core.program import compile_query
from repro.engine.items import WorkItem
from repro.net import codec
from repro.net.codec import (
    MAX_CREDIT_EXPONENT,
    MAX_VALUE_DEPTH,
    CodecError,
    decode_envelope,
    decode_message,
    encode_envelope,
    encode_message,
)
from repro.net.messages import (
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
from repro.storage.blobstore import BlobRef
from repro.termination.weights import ONE, ZERO, Credit
from repro.workload import closure_query

QID = QueryId(7, "site0")


def prog(text='S [ (Pointer,"Ref",?X) ^^X ]^3 (Keyword,"K",?) -> T'):
    return compile_query(parse_query(text))


def wire_corpus():
    """One envelope of every message kind, header fields populated.

    Shared with the framing fuzz property: mutations start from here.
    """
    from repro.cache import BloomFilter, SiteSummary
    from repro.core.objects import HFObject
    from repro.core.tuples import keyword_tuple, pointer_tuple
    from repro.faults.reliable import ReliableAck, ReliableData

    every_pattern = prog(
        'S [ (Pointer, "Ref", ?X) ^^X ]^3 (Number, "Year", 1901..1902) (String, ?, /ab+/) '
        '(String, "Author", ?A) (String, "Maintainer", $A) (Keyword, "X", ->out) -> T'
    )
    item = WorkItem(Oid("site1", 5, presumed_site="site2"), start=3, iters=((3, 2),))
    credit = {"credit": Fraction(1, 2 ** 70)}
    bloom = BloomFilter(64, 3)
    bloom.add("site1:5")
    summary = SiteSummary("site1", 4, 0, bloom, {"Ref": bloom}, 9)
    results = ResultBatch(
        QID,
        oids=(Oid("site1", 1), Oid("site2", 300)),
        emissions=(("title", "A Paper"), ("ratio", 2.5), ("raw", b"\x00\xff"),
                   ("body", BlobRef(Oid("site1", 3), "Body", 4096))),
        term=credit,
        summary=summary,
    )
    obj = HFObject(Oid("site1", 3), [keyword_tuple("K"), pointer_tuple("Ref", Oid("site2", 9))], size_hint=99)
    deref = DerefRequest(QID, every_pattern, item, credit)
    payloads = {
        "deref": deref,
        "result": results,
        "control": ControlMessage(QID, "ds-ack", (1, "x", None, True)),
        "seed": SeedFromSaved(QueryId(8, "site0"), prog(), QID, credit),
        "purge": PurgeContext(QID, 2),
        "fetch_request": FetchRequest(7, Oid("site1", 3), reply_to="site0"),
        "fetch_reply": FetchReply(7, obj),
        "batched_query": BatchedQuery(QID, prog(), (item, item), (credit, {}), ((("site1", 4), (3,)),)),
        "batched_results": BatchedResults((results, ResultBatch(QID, count_only=True, count=3))),
        "heartbeat": Heartbeat("site1", (("site0", 3), ("site1", 17))),
        "view_change": ViewChange(5, (("site0", "up"), ("site1", "leaving")), reason="fail"),
        "reliable_data": ReliableData(4, deref),
        "reliable_ack": ReliableAck(4),
        # What the detector itself ships: credit at the first hop of a
        # chain, at the benchmark's last (270) and past the old 4 095 cap.
        "credit_1": DerefRequest(QID, prog(), item, {"credit": Credit(1, 1)}),
        "credit_270": ResultBatch(QID, oids=(Oid("site1", 1),), term={"credit": Credit(3, 270)}),
        "credit_5000": BatchedQuery(
            QID, prog(), (item, item), ({"credit": Credit(1, 5000)}, {"credit": Credit(2 ** 4000 + 1, 5000)}), ()
        ),
    }
    # Real-shaped hot frames, the one-pass readers' inputs: a dense
    # closure's hop (multi-byte seq, local id and credit mantissa, a
    # hinted oid), nested-loop iteration stacks, a result batch of hinted
    # oids, and names past the intern tables' 64-byte bound.
    nested = prog('S [ [ (Pointer,"R",?X) ^^X ]^2 (Pointer,"Q",?Y) ^^Y ]^3 -> T')
    real_qid = QueryId(1234, "site0")
    payloads.update({
        "dense_hop": DerefRequest(
            real_qid, compile_query(closure_query("Rand05", "Rand10p", 5)),
            WorkItem(Oid("site1", 137, presumed_site="site2"), start=3),
            {"credit": Credit((1 << 52) + 12345, 60)},
        ),
        "iteration_stack": DerefRequest(
            real_qid, nested, WorkItem(Oid("site2", 900, presumed_site="site1"), start=4, iters=((3, 2), (6, 1))),
            {"credit": Credit(2**145 + 1, 146)},
        ),
        "dense_results": ResultBatch(
            real_qid,
            oids=tuple(Oid(f"site{i % 3}", 100 + 37 * i, presumed_site=f"site{(i + 1) % 3}") for i in range(8)),
            term={"credit": Credit(2**90 - 1, 91)},
        ),
        "iteration_batch": BatchedQuery(
            real_qid, nested,
            (WorkItem(Oid("site1", 70), start=2, iters=((6, 3),)), WorkItem(Oid("site1", 71), start=7)),
            ({"credit": Credit(2**60 + 1, 61)}, {"credit": Credit(1, 2)}), (),
        ),
    })
    corpus = {name: Envelope("site0", "site1", payload) for name, payload in payloads.items()}
    corpus["full_header"] = Envelope(
        "site0", "site1", deref,
        spans=(11, 0, 300), src_epoch=7, tried=("site2",), priority="batch", pressure=1,
    )
    long_name = "long-site-name-" * 5 + "é"
    corpus["long_names"] = Envelope(
        long_name, "site1",
        DerefRequest(QueryId(70_000, long_name), prog(),
                     WorkItem(Oid(long_name, 5, presumed_site="ä" * 40), start=1), {"credit": Credit(3, 2)}),
        tried=(long_name,),
    )
    return corpus


def roundtrip(message):
    return decode_message(encode_message(message))


class TestDerefRequest:
    def test_round_trip_preserves_everything(self):
        item = WorkItem(Oid("site1", 5, presumed_site="site2"), start=3, iters=((3, 2),))
        msg = DerefRequest(QID, prog(), item, {"credit": Fraction(3, 16)})
        out = roundtrip(msg)
        assert out.qid == QID
        assert out.item == item
        assert out.item.oid.hint == "site2"
        assert out.term == {"credit": Fraction(3, 16)}

    def test_program_semantics_survive(self):
        from repro.core.tuples import keyword_tuple, pointer_tuple
        from repro.engine.local import run_local
        from repro.storage.memstore import MemStore

        msg = DerefRequest(QID, prog('S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'),
                           WorkItem(Oid("s1", 0)))
        decoded = roundtrip(msg).program

        store = MemStore("s1")
        b = store.create([keyword_tuple("K")])
        store.replace(store.get(b.oid).with_tuple(pointer_tuple("Ref", b.oid)))
        a = store.create([pointer_tuple("Ref", b.oid), keyword_tuple("K")])
        original = run_local(msg.program, [a.oid], store.get)
        recoded = run_local(decoded, [a.oid], store.get)
        assert original.oid_keys() == recoded.oid_keys()

    def test_all_pattern_kinds_round_trip(self):
        text = ('S (Number, "Year", 1901..1902) (String, ?, /ab+/) '
                '(String, "Author", ?A) (String, "Maintainer", $A) '
                '(Keyword, "X", ->out) -> T')
        msg = DerefRequest(QID, prog(text), WorkItem(Oid("s1", 0)))
        decoded = roundtrip(msg).program
        assert repr(decoded.ops) == repr(msg.program.ops)

    def test_enclosing_chains_preserved(self):
        text = 'S [ [ (Pointer,"R",?X) ^^X ]^2 (Pointer,"Q",?Y) ^^Y ]^3 -> T'
        msg = DerefRequest(QID, prog(text), WorkItem(Oid("s1", 0)))
        decoded = roundtrip(msg).program
        assert decoded.enclosing == msg.program.enclosing
        assert decoded.loop_counts() == msg.program.loop_counts()


class TestResultBatch:
    def test_round_trip(self):
        msg = ResultBatch(
            QID,
            oids=(Oid("s1", 1), Oid("s2", 9, presumed_site="s3")),
            emissions=(("title", "A Paper"), ("size", 42), ("ratio", 2.5)),
            term={"credit": Fraction(1, 4)},
        )
        out = roundtrip(msg)
        assert out.oids == msg.oids
        assert out.emissions == msg.emissions
        assert out.term == msg.term

    def test_count_only(self):
        out = roundtrip(ResultBatch(QID, count_only=True, count=1234))
        assert out.count_only and out.count == 1234

    def test_bytes_and_blobrefs_in_emissions(self):
        ref = BlobRef(Oid("s1", 3), "Body", 4096)
        msg = ResultBatch(QID, emissions=(("payload", b"\x00\x01\xff"), ("body", ref)))
        out = roundtrip(msg)
        assert out.emissions[0] == ("payload", b"\x00\x01\xff")
        assert out.emissions[1] == ("body", ref)


class TestOtherMessages:
    def test_control(self):
        out = roundtrip(ControlMessage(QID, "ds-ack", None))
        assert out.kind == "ds-ack" and out.payload is None

    def test_seed_from_saved(self):
        out = roundtrip(SeedFromSaved(QID, prog(), QueryId(3, "site1"), {"credit": Fraction(1, 2)}))
        assert out.source_qid == QueryId(3, "site1")


class TestRobustness:
    def test_truncated_frame_rejected(self):
        frame = encode_message(ControlMessage(QID, "ds-ack"))
        with pytest.raises(CodecError):
            decode_message(frame[:-2])

    def test_trailing_garbage_rejected(self):
        frame = encode_message(ControlMessage(QID, "ds-ack"))
        with pytest.raises(CodecError):
            decode_message(frame + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"\xff")

    def test_empty_frame_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"")

    def test_unencodable_value_rejected(self):
        msg = ResultBatch(QID, emissions=(("bad", object()),))
        with pytest.raises(CodecError):
            encode_message(msg)

    def test_unencodable_message_rejected(self):
        with pytest.raises(CodecError):
            encode_message("not a message")

    @pytest.mark.parametrize("value", [0, 1, -1, 127, -128, 2**40, -(2**40)])
    def test_varint_extremes(self, value):
        out = roundtrip(ResultBatch(QID, emissions=(("v", value),)))
        assert out.emissions[0][1] == value

    def test_corrupt_interior_bytes_never_crash(self):
        # A flipped byte anywhere — in any message kind, envelope header
        # included — must raise CodecError or decode to a different valid
        # message.  Nothing else may escape: the transports catch
        # HyperFileError only.
        for env in wire_corpus().values():
            frame = encode_envelope(env)
            for i in range(len(frame)):
                for mask in (0x5A, 0x80, 0x01):
                    mutated = frame[:i] + bytes((frame[i] ^ mask,)) + frame[i + 1 :]
                    try:
                        decode_envelope(mutated, "site1")
                    except CodecError:
                        pass


def _spliced(message, old: bytes, new: bytes) -> bytes:
    """An enveloped ``message`` with one byte run replaced by hand."""
    frame = encode_envelope(Envelope("site0", "site1", message))
    assert frame.count(old) == 1, (old, frame.hex())
    return frame.replace(old, new)


class TestDecoderIsTotal:
    """Hand-built hostile frames: each reached an exception the transports
    do not catch (asyncio's fatal-error path, a dead reader thread)."""

    def _rejected(self, frame: bytes) -> None:
        with pytest.raises(CodecError):
            decode_envelope(frame, "site1")

    def test_zero_denominator(self):
        msg = ResultBatch(QID, term={"credit": Fraction(1, 2)})
        self._rejected(_spliced(msg, b"\x09\x02\x04", b"\x09\x02\x00"))

    @pytest.mark.parametrize(
        "value",
        [
            b"\x0b\x04\x02",  # 2/2: even mantissa under a positive exponent
            b"\x0b\x00\x02",  # 0/2: zero with an exponent
            b"\x0b\x01\x02",  # negative mantissa
            b"\x0b\x02\x01",  # negative exponent
            b"\x0b\x02\x82\x80\x80\x01",  # exponent 2**20 + 1
            b"\x0b\x02\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01",  # exponent 2**69
            b"\x0b\x02",  # truncated after the mantissa
            b"\x0b",
            b"\x0b\x82",  # truncated inside a varint
        ],
    )
    def test_credit_outside_its_normal_form(self, value):
        msg = ResultBatch(QID, term={"credit": Credit(1, 1)})
        frame = encode_envelope(Envelope("site0", "site1", msg))
        at = frame.index(b"credit\x0b\x02\x02") + len(b"credit")
        # A well-formed value is followed by the rest of the frame; a
        # truncated one is where the frame ends.
        self._rejected(frame[:at] + value + (frame[at + 3 :] if len(value) >= 3 else b""))

    def test_text_that_is_not_utf8(self):
        self._rejected(_spliced(ControlMessage(QID, "ds-ack"), b"ds-ack", b"ds\xff\xfeck"))

    def test_regex_that_does_not_compile(self):
        msg = DerefRequest(QID, prog("S (String, ?, /ab+/) -> T"), WorkItem(Oid("s1", 0)))
        self._rejected(_spliced(msg, b"ab+", b"((("))

    def test_regex_nested_past_the_parser_stack(self):
        msg = DerefRequest(QID, prog("S (String, ?, /ab+/) -> T"), WorkItem(Oid("s1", 0)))
        deep = b"(" * 2000 + b"a" + b")" * 2000
        self._rejected(_spliced(msg, b"\x06ab+", b"\xc2\x3e" + deep))  # varint(4001)

    def test_negative_local_id(self):
        msg = FetchRequest(7, Oid("sX", 5), reply_to="site0")
        self._rejected(_spliced(msg, b"\x04sX\x0a", b"\x04sX\x09"))  # zig-zag 5 -> -5

    def test_empty_birth_site(self):
        msg = FetchRequest(7, Oid("sX", 5), reply_to="site0")
        self._rejected(_spliced(msg, b"\x04sX\x0a", b"\x00\x0a"))

    def test_five_thousand_nested_tuples(self):
        frame = encode_envelope(Envelope("site0", "site1", ControlMessage(QID, "k", None)))
        assert frame.endswith(b"\x00")
        self._rejected(frame[:-1] + b"\x07\x02" * 5000 + b"\x00")

    def test_nesting_is_bounded_on_encode_too(self):
        value = ()
        for _ in range(MAX_VALUE_DEPTH - 1):
            value = (value,)
        assert roundtrip(ControlMessage(QID, "k", value)).payload == value
        with pytest.raises(CodecError):
            encode_message(ControlMessage(QID, "k", (value,)))

    def test_reliable_frames_do_not_nest(self):
        from repro.faults.reliable import ReliableData

        from repro.faults.reliable import ReliableAck

        # Refused before descending, so a frame of nothing but reliable
        # headers cannot recurse the decoder.
        for inner in (ReliableData(2, ControlMessage(QID, "k")), ReliableAck(2)):
            self._rejected(encode_envelope(Envelope("site0", "site1", ReliableData(1, inner))))

    def test_range_bounds_must_be_numbers(self):
        msg = DerefRequest(QID, prog("S (Number, ?, 3..4) -> T"), WorkItem(Oid("s1", 0)))
        self._rejected(_spliced(msg, b"\x23\x03\x06\x03\x08", b"\x23\x05\x02a\x03\x08"))

    def test_one_of_needs_a_tuple(self):
        from repro.core.patterns import ANY, OneOf
        from repro.core.program import Program, SelectOp

        program = Program("S", "T", [SelectOp(1, ANY, ANY, OneOf([7]))], [()])
        msg = DerefRequest(QID, program, WorkItem(Oid("s1", 0)))
        self._rejected(_spliced(msg, b"\x24\x07\x02\x03\x0e", b"\x24\x00"))
        self._rejected(_spliced(msg, b"\x24\x07\x02\x03\x0e", b"\x24\x07\x00"))

    def test_result_batch_shapes(self):
        msg = ResultBatch(QID, oids=(Oid("sX", 5),), emissions=(("t", 1),))
        self._rejected(_spliced(msg, b"\x07\x02\x08\x04sX\x0a\x00", b"\x03\x02"))  # oids = 1
        self._rejected(_spliced(msg, b"\x07\x02\x08\x04sX\x0a\x00", b"\x07\x02\x03\x02"))  # oids = (1,)
        self._rejected(_spliced(msg, b"\x07\x02\x07\x04\x05\x02t\x03\x02", b"\x07\x02\x03\x02"))  # emissions = (1,)

    def test_work_item_start_below_one(self):
        msg = DerefRequest(QID, prog(), WorkItem(Oid("sX", 5), start=2))
        self._rejected(_spliced(msg, b"\x04sX\x0a\x00\x04", b"\x04sX\x0a\x00\x00"))

    # A count, a flag or a presence byte takes only what the encoder
    # writes: these used to decode (a negative list count as an empty
    # table that does not re-encode to its frame, a flag byte of 2 as
    # False, a presence byte of 2 as "absent").

    def test_negative_result_count(self):
        msg = ResultBatch(QID, count=7)
        self._rejected(_spliced(msg, b"\x07\x00\x07\x00\x00\x0e", b"\x07\x00\x07\x00\x00\x0d"))  # 7 -> -7

    def test_negative_heartbeat_table_length(self):
        self._rejected(_spliced(Heartbeat("hb", ()), b"\x04hb\x00", b"\x04hb\x01"))  # 0 -> -1

    def test_negative_view_length(self):
        self._rejected(_spliced(ViewChange(5, (), reason="r"), b"\x0a\x00\x02r", b"\x0a\x03\x02r"))  # 0 -> -2

    def test_count_only_flag_of_two(self):
        msg = ResultBatch(QID, count_only=True, count=3)
        self._rejected(_spliced(msg, b"\x07\x00\x07\x00\x01\x06", b"\x07\x00\x07\x00\x02\x06"))

    def test_keep_source_flag_of_two(self):
        msg = DerefRequest(QID, prog(), WorkItem(Oid("sX", 5), start=1))
        self._rejected(_spliced(msg, b"\x31\x02X\x01", b"\x31\x02X\x02"))

    def test_summary_presence_byte_of_two(self):
        frame = encode_envelope(Envelope("site0", "site1", ResultBatch(QID)))
        assert frame.endswith(b"\x00\x00")  # an empty term, no summary
        self._rejected(frame[:-1] + b"\x02")

    def test_object_presence_byte_of_two(self):
        from repro.core.objects import HFObject

        msg = FetchReply(7, HFObject(Oid("sX", 5), []))
        self._rejected(_spliced(msg, b"\x46\x0e\x01", b"\x46\x0e\x02"))


class TestWorkItemsFitTheirProgram:
    """A work item its program could not have produced used to decode, and
    a node then stepped it into messages of its own.  ``prog()`` has four
    ops: select, deref, a loop marker at 3 (``]^3``), select."""

    BAD = [
        pytest.param(6, (), id="start-past-the-end"),
        pytest.param(99, (), id="start-99"),
        pytest.param(3, ((-5, 3),), id="negative-loop-index"),
        pytest.param(3, ((1, 2),), id="select-is-not-a-loop"),
        pytest.param(3, ((9, 2),), id="no-such-position"),
        pytest.param(3, ((3, -1),), id="negative-count"),
        pytest.param(3, ((3, 1), (3, 2)), id="loop-twice"),
    ]

    def _messages(self, item):
        yield DerefRequest(QID, prog(), item, {"credit": Credit(1, 1)})
        good = WorkItem(Oid("site1", 1), start=1)
        yield BatchedQuery(QID, prog(), (good, item), ({}, {}), ())

    @pytest.mark.parametrize("start, iters", BAD)
    def test_rejected(self, start, iters):
        for message in self._messages(WorkItem(Oid("site1", 5), start=start, iters=iters)):
            frame = encode_envelope(Envelope("site0", "site1", message))
            with pytest.raises(CodecError):
                decode_envelope(frame, "site1")

    @pytest.mark.parametrize("start, iters", [(1, ()), (5, ()), (3, ((3, 0),)), (4, ((3, 3),))])
    def test_what_a_program_can_make_still_decodes(self, start, iters):
        item = WorkItem(Oid("site1", 5), start=start, iters=iters)
        for message in self._messages(item):
            got = decode_envelope(encode_envelope(Envelope("site0", "site1", message)), "site1").payload
            assert item in (got.items if isinstance(got, BatchedQuery) else (got.item,))


class TestProgramStructure:
    """A program that parses but cannot run is a malformed frame: it
    used to decode and then fail inside the receiving site's drain task."""

    def _frame(self, ops, enclosing):
        from repro.core.program import Program

        return encode_envelope(Envelope(
            "site0", "site1", DerefRequest(QID, Program("S", "T", ops, enclosing), WorkItem(Oid("s1", 0)))
        ))

    @pytest.mark.parametrize("start, count", [(9999, 3), (0, 3), (-1, 3), (2, 3), (1, -2)])
    def test_loop_bounds(self, start, count):
        from repro.core.program import LoopOp

        with pytest.raises(CodecError):
            decode_envelope(self._frame([LoopOp(1, start, count)], [(1,)]), "site1")

    @pytest.mark.parametrize("chain", [(2,), (3,), (0,), (-1,), (1,)])
    def test_enclosing_must_name_a_loop_at_or_after_the_position(self, chain):
        from repro.core.patterns import ANY
        from repro.core.program import DerefOp, LoopOp, SelectOp

        # F1 select, F2 loop (body: F2 only), F3 deref: position 3 lies
        # after the loop, position 1's select is not a loop.
        ops = [SelectOp(1, ANY, ANY, ANY), LoopOp(2, 2, None), DerefOp(3, "X", True)]
        bad = self._frame(ops, [(), (2,), chain])
        with pytest.raises(CodecError):
            decode_envelope(bad, "site1")

    def test_compiled_programs_pass(self):
        for text in (
            'S [ [ (Pointer,"R",?X) ^^X ]^2 (Pointer,"Q",?Y) ^^Y ]^3 -> T',
            'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T',
            "S (Keyword, ?, ?) -> T",
        ):
            msg = DerefRequest(QID, prog(text), WorkItem(Oid("s1", 0)))
            assert repr(roundtrip(msg).program) == repr(msg.program)


def _same_program(a, b) -> bool:
    return (a.source, a.result, repr(a.ops), a.enclosing) == (b.source, b.result, repr(b.ops), b.enclosing)


#: Frames taken at the commit before the program-section cache (71d95a7):
#: ``encode_envelope(Envelope("site0", "site1", message))`` for the four
#: messages of ``_golden_messages``.  The cache must not move one byte.
GOLDEN_FRAMES = {
    "deref": (
        "0a73697465300000000000400e0a736974653008526f6f740254083021050e506f696e74657221050a436861696e"
        "250258310258013202013021050e52616e6431307021030a2002060206020600080a7369746531540a7369746532"
        "06020602020c63726564697409028080808080808080808080808080808080808008"
    ),
    "result": (
        "0a73697465300000000000410e0a73697465300704080a73697465310200080a7369746532120a73697465300704"
        "0704050a7469746c65050e412050617065720704050873697a6503540000020c63726564697409062000"
    ),
    "batched": (
        "0a73697465300000000000490e0a736974653008526f6f740254083021050e506f696e74657221050a436861696e"
        "250258310258013202013021050e52616e6431307021030a200206020602060004080a736974653108000600020c"
        "637265646974090210080a7369746531d8040002020604020c637265646974090280808080808080808080020702"
        "07040704050a7369746531030807020306"
    ),
    "seed": (
        "0a7369746530000000000043100a736974653008526f6f740254083021050e506f696e74657221050a436861696e"
        "250258310258013202013021050e52616e6431307021030a20020602060206000e0a7369746530020c6372656469"
        "74090206"
    ),
}


#: The same three work-bearing messages carrying what the detector ships —
#: a ``Credit``, value tag 0x0B — taken when the tag was introduced.
GOLDEN_CREDIT_FRAMES = {
    "deref": (
        "0a73697465300000000000400e0a736974653008526f6f740254083021050e506f696e74657221050a436861696e"
        "250258310258013202013021050e52616e6431307021030a2002060206020600080a7369746531540a7369746532"
        "06020602020c6372656469740b028e02"
    ),
    "result": (
        "0a73697465300000000000410e0a73697465300704080a73697465310200080a7369746532120a73697465300704"
        "0704050a7469746c65050e412050617065720704050873697a6503540000020c6372656469740b060800"
    ),
    "batched": (
        "0a73697465300000000000490e0a736974653008526f6f740254083021050e506f696e74657221050a436861696e"
        "250258310258013202013021050e52616e6431307021030a200206020602060004080a736974653108000600020c"
        "6372656469740b0206080a7369746531d8040002020604020c6372656469740b0a904e070207040704050a736974"
        "6531030807020306"
    ),
}

def _golden_credit_messages(program):
    """Three of ``_golden_messages`` with a ``Credit`` in every term."""
    from dataclasses import replace

    sent = _golden_messages(program)
    return {
        "deref": replace(sent["deref"], term={"credit": Credit(1, 135)}),
        "result": replace(sent["result"], term={"credit": Credit(3, 4)}),
        "batched": replace(sent["batched"], terms=({"credit": Credit(1, 3)}, {"credit": Credit(5, 5000)})),
    }


def _golden_messages(program):
    return {
        "deref": DerefRequest(
            QID, program,
            WorkItem(Oid("site1", 42, presumed_site="site2"), start=3, iters=((3, 1),)),
            {"credit": Fraction(1, 2 ** 135)},
        ),
        "result": ResultBatch(
            QID,
            oids=(Oid("site1", 1), Oid("site2", 9, presumed_site="site0")),
            emissions=(("title", "A Paper"), ("size", 42)),
            term={"credit": Fraction(3, 16)},
        ),
        "batched": BatchedQuery(
            QID, program,
            (WorkItem(Oid("site1", 4), start=3), WorkItem(Oid("site1", 300), start=1, iters=((3, 2),))),
            ({"credit": Fraction(1, 8)}, {"credit": Fraction(1, 2 ** 70)}),
            ((("site1", 4), (3,)),),
        ),
        "seed": SeedFromSaved(QueryId(8, "site0"), program, QID, {"credit": Fraction(1, 3)}),
    }


def _chain_closure():
    from repro.workload import closure_query

    return compile_query(closure_query("Chain", "Rand10p", 5))


class TestFramesArePinned:
    """Serialising the program once must not change what is sent."""

    def _frames(self, program):
        return {
            name: encode_envelope(Envelope("site0", "site1", message)).hex()
            for name, message in _golden_messages(program).items()
        }

    def test_fresh_program(self):
        assert self._frames(_chain_closure()) == GOLDEN_FRAMES

    def test_warm_program(self):
        program = _chain_closure()
        self._frames(program)
        assert program._wire_section is not None
        assert self._frames(program) == GOLDEN_FRAMES

    def test_program_that_came_off_the_wire(self):
        decoded = decode_envelope(bytes.fromhex(GOLDEN_FRAMES["deref"]), "site1").payload.program
        assert decoded._wire_section is None  # only the encoder fills it
        assert self._frames(decoded) == GOLDEN_FRAMES

    def test_goldens_decode_to_what_was_sent(self):
        sent = _golden_messages(_chain_closure())
        for name, golden in GOLDEN_FRAMES.items():
            got = decode_envelope(bytes.fromhex(golden), "site1").payload
            assert type(got) is type(sent[name])
            assert got.qid == sent[name].qid
            if name != "result":
                assert _same_program(got.program, sent[name].program)
            if name != "batched":
                assert got.term == sent[name].term

    def test_credit_frames(self):
        sent = _golden_credit_messages(_chain_closure())
        for name, message in sent.items():
            assert encode_envelope(Envelope("site0", "site1", message)).hex() == GOLDEN_CREDIT_FRAMES[name]
            got = decode_envelope(bytes.fromhex(GOLDEN_CREDIT_FRAMES[name]), "site1").payload
            terms = got.terms if name == "batched" else (got.term,)
            assert terms == (message.terms if name == "batched" else (message.term,))
            assert all(type(term["credit"]) is Credit for term in terms)
            # The modelled size never saw the encoding of a credit.
            assert message.wire_size() == _golden_messages(_chain_closure())[name].wire_size()

    def test_modelled_size_is_memoised_not_changed(self):
        program = _chain_closure()
        first = program.wire_size()
        assert program.wire_size() == first == _chain_closure().wire_size()
        assert DerefRequest(QID, program, WorkItem(Oid("s1", 0))).wire_size() == 12 + 16 + first


class TestProgramParsedOncePerQuery:
    def _deref(self, program, qid=QID, local_id=1, start=3):
        return encode_envelope(Envelope(
            "site0", "site1", DerefRequest(qid, program, WorkItem(Oid("site1", local_id), start=start))
        ))

    def test_second_hop_gets_the_same_program_object(self):
        program = _chain_closure()
        first = decode_envelope(self._deref(program, local_id=1), "site1").payload
        second = decode_envelope(memoryview(self._deref(program, local_id=2)), "site1").payload
        assert second.program is first.program
        assert second.item != first.item
        batched = decode_envelope(
            bytes.fromhex(GOLDEN_FRAMES["batched"]), "site1"
        ).payload
        assert batched.qid == QID and batched.program is first.program

    def test_a_flipped_bit_never_gets_the_cached_program(self):
        program = _chain_closure()
        frame = self._deref(program)
        section = program._wire_section
        at = frame.index(section)
        for bit in range(len(section) * 8):
            cached = decode_envelope(frame, "site1").payload.program  # warm
            i = at + bit // 8
            mutated = frame[:i] + bytes((frame[i] ^ (1 << bit % 8),)) + frame[i + 1 :]
            try:
                got = decode_envelope(mutated, "site1").payload.program
            except CodecError:
                got = None
            codec._PARSED_PROGRAMS.clear()
            try:
                cold = decode_envelope(mutated, "site1").payload.program
            except CodecError:
                cold = None
            assert got is not cached
            assert (got is None) == (cold is None)
            if got is not None:
                assert _same_program(got, cold)

    def test_reused_qid_with_another_program(self):
        one = decode_envelope(self._deref(_chain_closure()), "site1").payload.program
        other_program = prog()
        other = decode_envelope(self._deref(other_program), "site1").payload.program
        assert other is not one and _same_program(other, other_program)
        assert decode_envelope(self._deref(other_program), "site1").payload.program is other

    def test_table_is_bounded(self):
        program = _chain_closure()
        for seq in range(1000):
            decode_envelope(self._deref(program, qid=QueryId(seq, "site0")), "site1")
        assert len(codec._PARSED_PROGRAMS) == codec._PARSED_PROGRAMS_MAX
        # Keyed by (seq, originator); the entry holds the query id itself.
        assert codec._PARSED_PROGRAMS[999, "site0"][0] == QueryId(999, "site0")
        assert (0, "site0") not in codec._PARSED_PROGRAMS

    def test_oversized_sections_are_not_remembered(self):
        big = prog('S (String, "k", "%s") -> T' % ("x" * (codec._PARSED_SECTION_MAX + 1)))
        qid = QueryId(123456, "site0")
        decode_envelope(self._deref(big, qid=qid, start=1), "site1")  # a one-op program
        assert (qid.seq, qid.originator) not in codec._PARSED_PROGRAMS

    def test_reader_threads_share_the_table(self):
        # Every inline AsyncCluster decodes on its own event-loop thread,
        # and one process may hold several.
        import sys
        import threading

        programs = [_chain_closure(), prog()]
        frames = [
            (self._deref(programs[seq % 2], qid=QueryId(seq, "site0")), programs[seq % 2])
            for seq in range(3 * codec._PARSED_PROGRAMS_MAX)
        ]
        errors = []

        def reader():
            try:
                for _ in range(3):
                    for frame, sent in frames:
                        got = decode_envelope(frame, "site1").payload.program
                        assert _same_program(got, sent)
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(codec._PARSED_PROGRAMS) <= codec._PARSED_PROGRAMS_MAX


class TestWireEconomy:
    def test_experiment_query_frame_is_small(self):
        # The paper: "about 40 bytes" per query message; ours carries the
        # full pattern structure and stays within the same order.
        from repro.workload import closure_query

        msg = DerefRequest(QID, compile_query(closure_query("Tree", "Rand10p", 5)),
                           WorkItem(Oid("site1", 42)))
        assert len(encode_message(msg)) < 120


class TestNewMessageKinds:
    def test_purge_context(self):
        out = roundtrip(PurgeContext(QID))
        assert out.qid == QID

    def test_fetch_request(self):
        out = roundtrip(FetchRequest(7, Oid("s1", 3, presumed_site="s2"), reply_to="site0"))
        assert out.request_id == 7
        assert out.oid.hint == "s2"
        assert out.reply_to == "site0"

    def test_fetch_reply_with_object(self):
        from repro.core.objects import HFObject
        from repro.core.tuples import keyword_tuple, pointer_tuple, text_tuple

        obj = HFObject(
            Oid("s1", 3),
            [
                keyword_tuple("Distributed"),
                pointer_tuple("Ref", Oid("s2", 9)),
                text_tuple("Body", "hello " * 100),
            ],
            size_hint=1234,
        )
        out = roundtrip(FetchReply(9, obj))
        assert out.obj == obj
        assert out.obj.size_bytes == 1234

    def test_fetch_reply_miss(self):
        out = roundtrip(FetchReply(9, None))
        assert out.obj is None


class TestSummaryPiggyback:
    """Wire round-trips for the caching layer's additions (PR 4)."""

    def _summary(self):
        from repro.cache import CacheConfig, build_summary
        from repro.core.tuples import keyword_tuple, pointer_tuple
        from repro.naming.directory import ForwardingTable
        from repro.storage.memstore import MemStore

        store = MemStore("site1")
        a = store.create([keyword_tuple("K")])
        b = store.create([keyword_tuple("K")])
        store.replace(store.get(a.oid).with_tuple(pointer_tuple("Ref", b.oid)))
        return build_summary(
            "site1", store.epoch, store, ForwardingTable("site1"), ("Ref",),
            CacheConfig(bloom_bits=512, bloom_hashes=3),
        )

    def test_result_batch_summary_round_trip(self):
        summary = self._summary()
        out = roundtrip(ResultBatch(QID, summary=summary))
        assert out.summary == summary
        assert out.summary.reach.keys() == summary.reach.keys()
        assert out.summary.reach["Ref"] == summary.reach["Ref"]
        assert out.summary.forward_count == 0

    def test_result_batch_without_summary_unchanged(self):
        out = roundtrip(ResultBatch(QID))
        assert out.summary is None

    def test_count_only_batch_carries_summary(self):
        summary = self._summary()
        out = roundtrip(ResultBatch(QID, count_only=True, count=7, summary=summary))
        assert out.count == 7 and out.summary == summary

    def test_summary_contributes_wire_size(self):
        summary = self._summary()
        plain = ResultBatch(QID).wire_size()
        loaded = ResultBatch(QID, summary=summary).wire_size()
        assert loaded == plain + summary.wire_size()


class TestEnvelopeEpoch:
    def _rt(self, env):
        from repro.net.codec import decode_envelope, encode_envelope

        return decode_envelope(encode_envelope(env), env.dst)

    def test_src_epoch_round_trip(self):
        from repro.net.messages import Envelope

        env = Envelope("site0", "site1", ResultBatch(QID), src_epoch=42)
        assert self._rt(env).src_epoch == 42

    def test_epoch_zero_distinct_from_absent(self):
        from repro.net.messages import Envelope

        assert self._rt(Envelope("a", "b", ResultBatch(QID), src_epoch=0)).src_epoch == 0
        assert self._rt(Envelope("a", "b", ResultBatch(QID))).src_epoch is None

    def test_epoch_does_not_change_modelled_size(self):
        from repro.net.messages import Envelope

        with_epoch = Envelope("a", "b", ResultBatch(QID), src_epoch=9)
        without = Envelope("a", "b", ResultBatch(QID))
        assert with_epoch.size_bytes == without.size_bytes


class TestEnvelopeQoS:
    def _rt(self, env):
        from repro.net.codec import decode_envelope, encode_envelope

        return decode_envelope(encode_envelope(env), env.dst)

    def test_priority_round_trip(self):
        from repro.net.messages import Envelope

        for priority in ("interactive", "batch", None):
            env = Envelope("site0", "site1", ResultBatch(QID), priority=priority)
            assert self._rt(env).priority == priority

    def test_pressure_round_trip(self):
        from repro.net.messages import Envelope

        for pressure in (0, 1, None):
            env = Envelope("site0", "site1", ResultBatch(QID), pressure=pressure)
            assert self._rt(env).pressure == pressure

    def test_unknown_priority_rejected_at_encode(self):
        import pytest

        from repro.net.codec import CodecError, encode_envelope
        from repro.net.messages import Envelope

        with pytest.raises(CodecError):
            encode_envelope(Envelope("a", "b", ResultBatch(QID), priority="bulk"))

    def test_qos_fields_do_not_change_modelled_size(self):
        from repro.net.messages import Envelope

        tagged = Envelope("a", "b", ResultBatch(QID), priority="batch", pressure=1)
        plain = Envelope("a", "b", ResultBatch(QID))
        assert tagged.size_bytes == plain.size_bytes


class TestDeepCreditIntegers:
    """A ``Fraction`` is user data to the codec: numerator and denominator
    ride as arbitrary-precision varints up to ``MAX_VARINT_BITS``.  (The
    detector shipped its credit this way once — denominator 2^depth — and
    a 64-bit cap silently dropped the message of any >62-hop cross-site
    chain; see ``TestCreditTag`` for what it ships now.)"""

    def test_deep_chain_credit_round_trips(self):
        for depth in (62, 63, 64, 200, 1000):
            credit = Fraction(1, 2 ** depth)
            out = roundtrip(DerefRequest(QID, prog(), WorkItem(Oid("s1", 0)),
                                         {"credit": credit}))
            assert out.term == {"credit": credit}
            assert type(out.term["credit"]) is Fraction

    def test_absurd_magnitude_still_rejected(self):
        from repro.net.codec import MAX_VARINT_BITS

        too_big = Fraction(1, 2 ** (MAX_VARINT_BITS + 1))
        with pytest.raises(CodecError):
            encode_message(DerefRequest(QID, prog(), WorkItem(Oid("s1", 0)),
                                        {"credit": too_big}))


class TestCreditTag:
    """Termination credit rides as (mantissa, exponent): the frame of a
    chain's hop does not grow with the chain."""

    def _hop(self, credit):
        return Envelope("site0", "site1", DerefRequest(QID, _chain_closure(), WorkItem(Oid("site1", 42), start=3),
                                                       {"credit": credit}))

    @pytest.mark.parametrize("exponent, size", [(1, 100), (270, 101), (5000, 101), (100_000, 102)])
    def test_frame_size_does_not_follow_depth(self, exponent, size):
        frame = encode_envelope(self._hop(Credit(1, exponent)))
        assert len(frame) == size
        got = decode_envelope(frame, "site1").payload.term["credit"]
        assert type(got) is Credit and (got.mantissa, got.exponent) == (1, exponent)

    @pytest.mark.parametrize("credit", [ZERO, ONE, Credit(3, 2), Credit(2 ** 300 - 1, 300), Credit(1, MAX_CREDIT_EXPONENT)])
    def test_round_trip(self, credit):
        out = roundtrip(ResultBatch(QID, term={"credit": credit, "#inc": 2}))
        assert out.term == {"credit": credit, "#inc": 2}
        assert type(out.term["credit"]) is Credit

    def test_exponent_bound_holds_on_encode_too(self):
        with pytest.raises(CodecError):
            encode_envelope(self._hop(Credit(1, MAX_CREDIT_EXPONENT + 1)))

    def test_mantissa_is_an_ordinary_varint(self):
        # Only a site that adds pieces more than MAX_VARINT_BITS halvings
        # apart holds such a credit; it costs that query, not the site
        # (tests/integration/test_site_survives.py).
        with pytest.raises(CodecError):
            encode_envelope(self._hop(Credit(2 ** 4990 + 1, 5000)))

    def test_a_credit_is_not_a_fraction_on_the_wire(self):
        as_credit = encode_envelope(self._hop(Credit(1, 270)))
        as_fraction = encode_envelope(self._hop(Fraction(1, 2 ** 270)))
        assert len(as_fraction) - len(as_credit) == 37
        assert decode_envelope(as_credit, "site1").payload.term == decode_envelope(as_fraction, "site1").payload.term


class TestMembershipFrames:
    """The gossip/view frames round-trip so every transport can carry
    the membership protocol, not just the simulator."""

    def test_heartbeat_round_trip(self):
        from repro.net.messages import Heartbeat

        msg = Heartbeat("site1", (("site0", 3), ("site1", 17), ("site2", 0)))
        out = roundtrip(msg)
        assert out == msg

    def test_heartbeat_empty_table(self):
        from repro.net.messages import Heartbeat

        assert roundtrip(Heartbeat("site9")) == Heartbeat("site9")

    def test_view_change_round_trip(self):
        from repro.net.messages import ViewChange

        msg = ViewChange(
            5,
            (("site0", "up"), ("site1", "leaving"), ("site2", "departed")),
            reason="fail",
        )
        out = roundtrip(msg)
        assert out == msg

    def test_view_change_default_reason(self):
        from repro.net.messages import ViewChange

        msg = ViewChange(0, (("a", "up"),))
        assert roundtrip(msg) == msg


class TestOneDeclarationPerMessage:
    """Every message is declared once, in ``codec.MESSAGES``; its writer and
    reader are built from that declaration and nothing else."""

    @staticmethod
    def _names(fields):
        return [name for names, _wire in fields for name in ((names,) if isinstance(names, str) else names)]

    def test_tags_are_unique(self):
        tags = [spec.tag for spec in codec.MESSAGES]
        assert len(set(tags)) == len(tags)
        assert len({spec.cls for spec in codec.MESSAGES}) == len(tags)

    def test_each_declaration_lists_its_class_fields_in_order(self):
        for spec in codec.MESSAGES:
            assert self._names(spec.fields) == [f.name for f in dataclasses.fields(spec.cls)], spec.cls

    def test_the_header_lists_the_envelope_fields_between_payload_and_size(self):
        names = [f.name for f in dataclasses.fields(Envelope)]
        assert names[:3] == ["src", "dst", "payload"] and names[-1] == "size_bytes"
        assert self._names(codec.ENVELOPE_HEADER) == names[3:-1]

    def test_what_encode_message_accepts_is_declared(self):
        from repro.faults import reliable
        from repro.net import messages

        declared = {spec.cls for spec in codec.MESSAGES}
        assert {type(env.payload) for env in wire_corpus().values()} == declared
        for module in (messages, reliable):
            for cls in vars(module).values():
                if not (dataclasses.is_dataclass(cls) and isinstance(cls, type)) or cls in declared:
                    continue
                # Whatever the codec does not declare it refuses.
                instance = object.__new__(cls)
                with pytest.raises(CodecError):
                    encode_message(instance)

    def test_the_hand_written_codec_is_gone(self):
        import ast
        import inspect
        import pathlib

        from repro.net import procserver

        for gone in ("_Reader", "_Writer", "_write_message", "_read_message", "_message_at",
                     "_deref_at", "_result_at", "_write_deref", "_write_result",
                     "_write_header", "_read_header"):
            assert gone not in vars(codec), gone
        assert "_ArgReader" not in vars(procserver)
        # Nothing outside the codec imports one of its private names.
        for path in pathlib.Path(inspect.getfile(codec)).parents[1].rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("codec"):
                    assert not [alias.name for alias in node.names if alias.name.startswith("_")], path

    def test_the_docs_table_is_the_declaration(self):
        import pathlib

        def cell(fields):
            return "; ".join(
                f"`{names if isinstance(names, str) else ', '.join(names)}` {wire.name}" for names, wire in fields
            )

        expected = [f"| `0x{spec.tag:02x}` | `{spec.cls.__name__}` | {cell(spec.fields)} |" for spec in codec.MESSAGES]
        expected.append(f"| — | envelope header | {cell(codec.ENVELOPE_HEADER)} |")
        doc = pathlib.Path(__file__).parents[2] / "docs" / "ASYNC.md"
        rows = [line for line in doc.read_text(encoding="utf-8").splitlines() if line.startswith(("| `0x", "| — |"))]
        assert rows == expected
