"""Tests for query flattening (the indexed F_1..F_n form of paper §3)."""

import pytest

from repro.core.ast import closure, deref_keep, iterate, retrieve, select
from repro.core.ast import Query
from repro.core.objects import NO_PROBE, probe_key
from repro.core.oid import Oid
from repro.core.parser import parse_query
from repro.core.patterns import ANY, Bind, Literal, OneOf, Range, Regex, Use
from repro.core.program import DerefOp, LoopOp, Op, RetrieveOp, SelectOp, compile_query


def compile_text(text):
    return compile_query(parse_query(text))


class TestFlattening:
    def test_paper_layout(self):
        # [F1 F2]^3 F4 compiles to F1 F2 I_1^3 F4 — the example of §3.1.
        prog = compile_text('S [ (Pointer,"Reference",?X) ^^X ]^3 (Keyword,"Distributed",?) -> T')
        kinds = [type(op).__name__ for op in prog.ops]
        assert kinds == ["SelectOp", "DerefOp", "LoopOp", "SelectOp"]
        loop = prog.ops[2]
        assert loop.start == 1 and loop.count == 3

    def test_indices_are_one_based(self):
        prog = compile_text('S (Keyword,"A",?) (Keyword,"B",?) -> T')
        assert [op.index for op in prog.ops] == [1, 2]
        assert prog.op_at(1) is prog.ops[0]

    def test_size_matches_op_count(self):
        prog = compile_text('S [ (Pointer,"R",?X) ^^X ]* (Keyword,"D",?) -> T')
        assert prog.size == 4

    def test_closure_loop_has_no_count(self):
        prog = compile_text('S [ (Pointer,"R",?X) ^^X ]* -> T')
        assert prog.ops[2].count is None
        assert prog.ops[2].is_closure

    def test_retrieve_op(self):
        prog = compile_text('S (String,"Title",->title) -> T')
        op = prog.ops[0]
        assert isinstance(op, RetrieveOp) and op.target == "title"

    def test_source_and_result_carried_over(self):
        prog = compile_text('MySet (Keyword,"A",?) -> Out')
        assert prog.source == "MySet" and prog.result == "Out"


class TestEnclosingLoops:
    def test_top_level_ops_have_no_enclosing_loop(self):
        prog = compile_text('S (Keyword,"A",?) -> T')
        assert prog.innermost_loop(1) == 0
        assert prog.loops_enclosing(1) == ()

    def test_single_loop(self):
        prog = compile_text('S [ (Pointer,"R",?X) ^^X ]^3 (Keyword,"D",?) -> T')
        # F1, F2 and the marker F3 itself are inside loop 3.
        assert prog.loops_enclosing(1) == (3,)
        assert prog.loops_enclosing(2) == (3,)
        assert prog.loops_enclosing(3) == (3,)
        assert prog.loops_enclosing(4) == ()

    def test_nested_loops_outermost_first(self):
        prog = compile_text('S [ [ (Pointer,"R",?X) ^^X ]^2 (Pointer,"Q",?Y) ^^Y ]^3 -> T')
        # Layout: F1 Sel, F2 Deref, F3 inner marker, F4 Sel, F5 Deref, F6 outer marker.
        kinds = [type(op).__name__ for op in prog.ops]
        assert kinds == ["SelectOp", "DerefOp", "LoopOp", "SelectOp", "DerefOp", "LoopOp"]
        assert prog.loops_enclosing(1) == (6, 3)
        assert prog.innermost_loop(1) == 3
        assert prog.loops_enclosing(4) == (6,)
        assert prog.loops_enclosing(6) == (6,)
        inner, outer = prog.ops[2], prog.ops[5]
        assert inner.start == 1 and inner.count == 2
        assert outer.start == 1 and outer.count == 3

    def test_sequential_loops_do_not_nest(self):
        prog = compile_text('S [ (Pointer,"R",?X) ^^X ]^2 [ (Pointer,"Q",?Y) ^^Y ]^2 -> T')
        assert prog.loops_enclosing(1) == (3,)
        assert prog.loops_enclosing(4) == (6,)
        assert prog.ops[5].start == 4


class TestWireSize:
    def test_experiment_queries_are_small(self):
        # The paper reports ~40-byte query messages.
        prog = compile_text('Root [ (Pointer,"Tree",?X) ^^X ]* (Rand10p, 5, ?) -> T')
        assert prog.wire_size() < 120

    def test_wire_size_grows_with_filters(self):
        small = compile_text('S (Keyword,"A",?) -> T')
        big = compile_text('S (Keyword,"A",?) (Keyword,"B",?) (Keyword,"C",?) -> T')
        assert big.wire_size() > small.wire_size()


class TestIndexProbeClassification:
    """Each select/retrieve decides at construction what it can ask of an
    object's (type, key) index."""

    @staticmethod
    def probe_of(type_pattern, key_pattern):
        ops = [SelectOp(1, type_pattern, key_pattern, ANY), RetrieveOp(1, type_pattern, key_pattern, "out")]
        probes = {(op.type_probe, op.key_probe) for op in ops}
        assert len(probes) == 1
        return probes.pop()

    def test_literal_type_and_key_probe_both_levels(self):
        assert self.probe_of(Literal("Pointer"), Literal("Tree")) == ("Pointer", probe_key("Tree"))
        assert self.probe_of(Literal("N"), Literal(5)) == ("N", probe_key(5.0))
        assert self.probe_of(Literal("N"), Literal(True)) == ("N", probe_key(True))
        assert self.probe_of(Literal("N"), Literal(True)) != self.probe_of(Literal("N"), Literal(1))

    @pytest.mark.parametrize(
        "key_pattern",
        [ANY, Bind("X"), Use("X"), Regex("a+"), Range(1, 2), OneOf(["a"]), Literal([1]), Literal(float("nan"))],
        ids=str,
    )
    def test_literal_type_only_probes_the_type(self, key_pattern):
        assert self.probe_of(Literal("Pointer"), key_pattern) == ("Pointer", NO_PROBE)

    @pytest.mark.parametrize(
        "type_pattern", [ANY, Bind("T"), Use("T"), Regex("P.*"), Range(1, 2), OneOf(["Pointer"]), Literal(7)], ids=str
    )
    def test_any_other_type_pattern_scans(self, type_pattern):
        assert self.probe_of(type_pattern, Literal("Tree")) == (None, NO_PROBE)

    def test_programs_decoded_from_the_wire_are_classified_too(self):
        from repro.engine.items import WorkItem
        from repro.net.codec import decode_message, encode_message
        from repro.net.messages import DerefRequest, QueryId

        program = compile_text('S [ (Pointer,"R",?X) ^^X ]* (?, "k", ?) (Keyword,"D",->out) -> T')
        decoded = decode_message(
            encode_message(DerefRequest(QueryId(1, "s1"), program, WorkItem(Oid("s1", 0))))
        ).program
        assert decoded is not program
        assert [(op.type_probe, op.key_probe) for op in decoded.ops if isinstance(op, (SelectOp, RetrieveOp))] == [
            ("Pointer", "R"), (None, NO_PROBE), ("Keyword", "D"),
        ]
