"""Unit tests for the E filter-evaluation function (paper §3.1 pseudocode)."""

import sys
import threading

import pytest

from repro.core.ast import Query, Select
from repro.core.objects import HFObject
from repro.core.oid import Oid
from repro.core.parser import parse_query
from repro.core.patterns import ANY, Bind, Literal, Use
from repro.core.program import compile_query
from repro.core.tuples import keyword_tuple, pointer_tuple, string_tuple, tuple_of
from repro.engine.efunction import evaluate
from repro.engine.items import ActiveItem, WorkItem

OID = Oid("s1", 0)
B = Oid("s1", 1)
C = Oid("s2", 2)


def program_for(text):
    return compile_query(parse_query(text))


def active_at(next_index, start=None, iters=()):
    return ActiveItem(oid=OID, start=start if start is not None else next_index, next=next_index, iters=tuple(iters))


def no_emit(target, value):  # pragma: no cover - failure path
    raise AssertionError("unexpected emission")


class TestSelection:
    PROG = program_for('S (Keyword, "Distributed", ?) -> T')

    def test_pass_increments_next(self):
        obj = HFObject(OID, [keyword_tuple("Distributed")])
        active = active_at(1)
        spawned, result = evaluate(self.PROG, active, obj, no_emit)
        assert spawned == [] and result is active
        assert active.next == 2

    def test_fail_returns_null(self):
        obj = HFObject(OID, [keyword_tuple("Other")])
        spawned, result = evaluate(self.PROG, active_at(1), obj, no_emit)
        assert spawned == [] and result is None

    def test_bindings_accumulate_across_matching_tuples(self):
        prog = program_for('S (Pointer, "Ref", ?X) -> T')
        obj = HFObject(OID, [pointer_tuple("Ref", B), pointer_tuple("Ref", C)])
        active = active_at(1)
        evaluate(prog, active, obj, no_emit)
        assert active.bindings("X") == {B, C}

    def test_failed_tuple_leaves_no_bindings(self):
        prog = program_for('S (Pointer, "Ref", ?X) -> T')
        obj = HFObject(OID, [pointer_tuple("Other", B)])
        active = active_at(1)
        _, result = evaluate(prog, active, obj, no_emit)
        assert result is None and active.bindings("X") == set()

    def test_in_filter_binding_visibility(self):
        # The pseudocode modifies O.mvars tuple-by-tuple, so a later tuple
        # in the same filter can match a variable bound by an earlier one.
        prog = program_for("S (Person, ?N, $N) -> T")
        obj = HFObject(
            OID,
            [
                tuple_of("Person", "alice", "bob"),   # binds N={'alice'}... data 'bob' not in {} yet -> no match
                tuple_of("Person", "carol", "alice"),  # key binds 'carol'; data 'alice' ∈ bindings
            ],
        )
        active = active_at(1)
        _, result = evaluate(prog, active, obj, no_emit)
        # Second tuple matched because 'alice' was bound by... nothing yet:
        # binding only happens when the whole tuple matches, and the first
        # tuple fails on its data field.  So nothing matches.
        assert result is None

    def test_matching_variable_reuse_across_filters(self):
        prog = program_for('S (String, "Author", ?A) (String, "Maintainer", $A) -> T')
        obj = HFObject(
            OID,
            [string_tuple("Author", "joe"), string_tuple("Maintainer", "joe")],
        )
        active = active_at(1)
        _, result = evaluate(prog, active, obj, no_emit)
        assert result is active and active.next == 2
        _, result = evaluate(prog, active, obj, no_emit)
        assert result is active and active.next == 3


class TestSelectionOverTheIndex:
    @pytest.mark.parametrize("keys", [(1, True), (True, 1)])
    def test_bool_and_int_keys_do_not_depend_on_insertion_order(self, keys):
        # Used to pass or fail with the order: the object kept one tuple.
        obj = HFObject(OID, [tuple_of("N", key, "a") for key in keys])
        for literal in (True, 1):
            prog = compile_query(Query("S", (Select(Literal("N"), Literal(literal), ANY),), "T"))
            active = active_at(1)
            _, result = evaluate(prog, active, obj, no_emit)
            assert result is active
        _, result = evaluate(
            compile_query(Query("S", (Select(Literal("N"), Literal(False), ANY),), "T")), active_at(1), obj, no_emit
        )
        assert result is None

    def test_later_tuple_sees_binding_of_earlier_tuple_in_the_same_bucket(self):
        prog = program_for('S (Person, "boss", ?N) -> T')
        chained = compile_query(Query("S", (Select(Literal("Person"), Use("N"), Bind("N")),), "T"))
        obj = HFObject(
            OID,
            [
                tuple_of("Person", "boss", "alice"),
                tuple_of("Other", "alice", "zed"),
                tuple_of("Person", "alice", "bob"),    # key ∈ {alice}: binds bob
                tuple_of("Person", "carol", "dave"),   # carol never bound
                tuple_of("Person", "bob", "erin"),     # sees bob, bound one tuple earlier
            ],
        )
        active = active_at(1)
        evaluate(prog, active, obj, no_emit)
        active.next = 1
        _, result = evaluate(chained, active, obj, no_emit)
        assert result is active and active.bindings("N") == {"alice", "bob", "erin"}

    def test_eight_threads_racing_to_build_one_index_agree_with_the_scan(self):
        prog = program_for('S (Pointer, "Ref", ?X) -> T')
        scan = program_for('S (Pointer, "Ref", ?X) -> T')
        scan.ops[0].type_probe = None
        tuples = [pointer_tuple("Ref" if i % 3 else "Other", Oid("s1", i)) for i in range(60)]
        tuples += [string_tuple(f"k{i}", "v") for i in range(60)]
        expected_active = active_at(1)
        evaluate(scan, expected_active, HFObject(OID, tuples), no_emit)
        expected = expected_active.bindings("X")
        assert len(expected) == 40

        barrier = threading.Barrier(8)
        got, indexes = [], []

        def select(obj):
            active = active_at(1)
            barrier.wait(timeout=10)
            evaluate(prog, active, obj, no_emit)
            got.append(active.bindings("X"))
            indexes.append(obj._index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(25):
                obj = HFObject(OID, tuples)  # fresh: no index yet
                threads = [threading.Thread(target=select, args=(obj,)) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 200 and all(bound == expected for bound in got)
        assert all(index is not None for index in indexes)


class TestDereference:
    def test_keep_source_returns_object_and_spawns(self):
        prog = program_for('S (Pointer, "Ref", ?X) ^^X -> T')
        obj = HFObject(OID, [pointer_tuple("Ref", B), pointer_tuple("Ref", C)])
        active = active_at(1)
        evaluate(prog, active, obj, no_emit)  # F1 binds X
        spawned, result = evaluate(prog, active, obj, no_emit)  # F2 deref
        assert result is active and active.next == 3
        assert {w.oid for w in spawned} == {B, C}
        # New objects start at the filter after the deref: O.next+1 = 3.
        assert all(w.start == 3 for w in spawned)

    def test_drop_source(self):
        prog = program_for('S (Pointer, "Ref", ?X) ^X -> T')
        obj = HFObject(OID, [pointer_tuple("Ref", B)])
        active = active_at(1)
        evaluate(prog, active, obj, no_emit)
        spawned, result = evaluate(prog, active, obj, no_emit)
        assert result is None and len(spawned) == 1

    def test_unbound_variable_spawns_nothing(self):
        prog = program_for('S (Keyword, "K", ?) ^^X -> T')
        obj = HFObject(OID, [keyword_tuple("K")])
        active = active_at(1)
        evaluate(prog, active, obj, no_emit)
        spawned, result = evaluate(prog, active, obj, no_emit)
        assert spawned == [] and result is active

    def test_non_pointer_bindings_are_skipped(self):
        # "if x is an object id then ..." — string bindings are ignored.
        prog = program_for('S (String, "Author", ?X) ^^X -> T')
        obj = HFObject(OID, [string_tuple("Author", "joe")])
        active = active_at(1)
        evaluate(prog, active, obj, no_emit)
        spawned, _ = evaluate(prog, active, obj, no_emit)
        assert spawned == []

    def test_deref_inside_loop_bumps_iteration(self):
        prog = program_for('S [ (Pointer, "Ref", ?X) ^^X ]^3 -> T')
        obj = HFObject(OID, [pointer_tuple("Ref", B)])
        active = active_at(1)  # inside loop whose marker is at 3
        evaluate(prog, active, obj, no_emit)
        spawned, _ = evaluate(prog, active, obj, no_emit)
        assert dict(spawned[0].iters) == {3: 2}

    def test_deterministic_spawn_order(self):
        prog = program_for('S (Pointer, "Ref", ?X) ^^X -> T')
        obj = HFObject(OID, [pointer_tuple("Ref", C), pointer_tuple("Ref", B)])
        active = active_at(1)
        evaluate(prog, active, obj, no_emit)
        spawned, _ = evaluate(prog, active, obj, no_emit)
        assert [w.oid for w in spawned] == [B, C]  # sorted by identity


class TestLoopMarker:
    PROG = program_for('S [ (Pointer, "Ref", ?X) ^^X ]^3 (Keyword, "D", ?) -> T')
    OBJ = HFObject(OID, [])

    def test_object_that_traversed_body_passes(self):
        active = active_at(3, start=1)
        _, result = evaluate(self.PROG, active, self.OBJ, no_emit)
        assert result is active and active.next == 4

    def test_new_object_loops_back(self):
        active = active_at(3, start=3, iters=((3, 2),))
        _, result = evaluate(self.PROG, active, self.OBJ, no_emit)
        assert result is active
        assert active.next == 1
        assert active.start == 1  # "so that O will pass next time"

    def test_chain_exhausted_object_exits(self):
        active = active_at(3, start=3, iters=((3, 3),))
        _, result = evaluate(self.PROG, active, self.OBJ, no_emit)
        assert active.next == 4

    def test_closure_never_exhausts(self):
        prog = program_for('S [ (Pointer, "Ref", ?X) ^^X ]* (Keyword, "D", ?) -> T')
        active = active_at(3, start=3, iters=((3, 1000),))
        evaluate(prog, active, self.OBJ, no_emit)
        assert active.next == 1  # '*' may be thought of as infinity


class TestRetrieve:
    PROG = program_for('S (String, "Title", ->title) -> T')

    def test_emits_every_matching_value(self):
        obj = HFObject(OID, [string_tuple("Title", "One"), string_tuple("Title", "Two")])
        got = []
        active = active_at(1)
        _, result = evaluate(self.PROG, active, obj, lambda t, v: got.append((t, v)))
        assert result is active
        assert sorted(got) == [("title", "One"), ("title", "Two")]

    def test_object_without_tuple_fails(self):
        obj = HFObject(OID, [keyword_tuple("X")])
        got = []
        _, result = evaluate(self.PROG, active_at(1), obj, lambda t, v: got.append(v))
        assert result is None and got == []
