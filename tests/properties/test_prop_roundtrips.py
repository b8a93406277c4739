"""Property-based round-trip tests: parser <-> printer, codec <-> wire.

Random query ASTs must survive printing + re-parsing; random messages
must survive binary encoding + decoding.  Together these pin the three
representations (AST, text, wire) to each other.
"""

import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ast import Deref, Iterate, Query, Retrieve, Select
from repro.core.oid import Oid
from repro.core.parser import parse_query
from repro.core.patterns import ANY, Bind, Literal, Range, Regex, Use
from repro.core.program import compile_query
from repro.engine.items import WorkItem
from repro.net.codec import CodecError, decode_message, encode_message
from repro.net.messages import ControlMessage, DerefRequest, QueryId, ResultBatch

names = st.text(alphabet=string.ascii_letters, min_size=1, max_size=8)
keys = st.one_of(names, st.integers(min_value=-100, max_value=1000))

literal_values = st.one_of(
    st.text(alphabet=string.printable, max_size=12),
    st.integers(min_value=-10_000, max_value=10_000),
)

patterns = st.one_of(
    st.just(ANY),
    st.builds(Literal, literal_values),
    st.builds(Bind, names),
    st.builds(Use, names),
    st.builds(
        lambda lo, hi: Range(min(lo, hi), max(lo, hi)),
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=-1000, max_value=1000),
    ),
)

selects = st.builds(Select, st.builds(Literal, names), patterns, patterns)
retrieves = st.builds(Retrieve, st.builds(Literal, names), patterns, names)
derefs = st.builds(Deref, names, st.booleans())


def filters(depth: int):
    base = st.one_of(selects, retrieves, derefs)
    if depth <= 0:
        return base
    inner = filters(depth - 1)
    loops = st.builds(
        lambda body, count: Iterate(tuple(body), count),
        st.lists(inner, min_size=1, max_size=3),
        st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    )
    return st.one_of(base, loops)


queries = st.builds(
    lambda source, body, result: Query(source, tuple(body), result),
    names,
    st.lists(filters(2), min_size=1, max_size=4),
    names,
)


class TestParserRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(queries)
    def test_print_then_parse_is_identity(self, query):
        reparsed = parse_query(str(query))
        assert str(reparsed) == str(query)

    @settings(max_examples=100, deadline=None)
    @given(queries)
    def test_reparsed_query_compiles_identically(self, query):
        original = compile_query(query)
        reparsed = compile_query(parse_query(str(query)))
        assert repr(original.ops) == repr(reparsed.ops)
        assert original.enclosing == reparsed.enclosing


oids = st.builds(
    Oid,
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.none(), st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)),
)

work_items = st.builds(
    WorkItem,
    oids,
    st.integers(min_value=1, max_value=20),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=9)),
        max_size=3,
    ).map(tuple),
)

credits = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=2**30),
    st.integers(min_value=1, max_value=2**30),
)

qids = st.builds(QueryId, st.integers(min_value=0, max_value=10**6), names)

emission_values = st.one_of(
    literal_values,
    st.binary(max_size=16),
    st.floats(allow_nan=False, allow_infinity=False),
    oids,
    st.none(),
    st.booleans(),
)


def items_of(program):
    """Work items ``program`` can produce: a start inside it (or just past
    its last op), counts for some of its loops, each at most once."""
    loops = sorted(program.loop_counts())
    return st.builds(
        lambda oid, start, chosen, counts: WorkItem(oid, start, tuple(zip(chosen, counts))),
        oids,
        st.integers(min_value=1, max_value=program.size + 1),
        st.lists(st.sampled_from(loops), unique=True) if loops else st.just([]),
        st.lists(st.integers(min_value=0, max_value=9), min_size=len(loops), max_size=len(loops)),
    )


def fits(item, program) -> bool:
    indices = [index for index, _ in item.iters]
    return (
        item.start <= program.size + 1
        and len(set(indices)) == len(indices)
        and all(index in program.loop_counts() and count >= 0 for index, count in item.iters)
    )


class TestCodecRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(qids, queries, work_items, credits, st.data())
    def test_deref_requests(self, qid, query, item, credit, data):
        # An arbitrary item round-trips when its program could have made
        # it and is refused otherwise; one drawn from the program always
        # round-trips.
        program = compile_query(query)
        for candidate in (item, data.draw(items_of(program))):
            msg = DerefRequest(qid, program, candidate, {"credit": credit})
            frame = encode_message(msg)
            if not fits(candidate, program):
                with pytest.raises(CodecError):
                    decode_message(frame)
                continue
            out = decode_message(frame)
            assert out.qid == qid
            assert out.item == candidate
            assert out.item.iters == candidate.iters
            assert out.term == {"credit": credit}
            assert repr(out.program.ops) == repr(msg.program.ops)

    @settings(max_examples=120, deadline=None)
    @given(
        qids,
        st.lists(oids, max_size=8),
        st.lists(st.tuples(names, emission_values), max_size=8),
        credits,
    )
    def test_result_batches(self, qid, oid_list, emissions, credit):
        msg = ResultBatch(
            qid, oids=tuple(oid_list), emissions=tuple(emissions), term={"credit": credit}
        )
        out = decode_message(encode_message(msg))
        assert out.oids == msg.oids
        assert out.emissions == msg.emissions
        # Presumed-site hints must survive the wire (stale hints are how
        # forwarding gets exercised).
        for a, b in zip(out.oids, msg.oids):
            assert a.presumed_site == b.presumed_site

    @settings(max_examples=60, deadline=None)
    @given(qids, names, emission_values)
    def test_control_messages(self, qid, kind, payload):
        out = decode_message(encode_message(ControlMessage(qid, kind, payload)))
        assert out.kind == kind and out.payload == payload
