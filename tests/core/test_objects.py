"""Tests for HyperFile objects (sets of tuples, paper §2)."""

import pytest

from repro.core.objects import NO_PROBE, HFObject, make_set_object, probe_key, set_members
from repro.core.oid import Oid
from repro.core.tuples import keyword_tuple, pointer_tuple, string_tuple, text_tuple, tuple_of

OID = Oid("s1", 0)
B = Oid("s1", 1)
C = Oid("s2", 0)


def sample():
    return HFObject(
        OID,
        [
            string_tuple("Title", "Main Program"),
            string_tuple("Author", "Joe Programmer"),
            pointer_tuple("Called Routine", B),
            pointer_tuple("Library", C),
        ],
    )


class TestConstruction:
    def test_requires_oid(self):
        with pytest.raises(TypeError):
            HFObject("s1:0", [])  # type: ignore[arg-type]

    def test_rejects_non_tuples(self):
        with pytest.raises(TypeError):
            HFObject(OID, ["not a tuple"])  # type: ignore[list-item]

    def test_set_semantics_collapse_duplicates(self):
        obj = HFObject(OID, [keyword_tuple("X"), keyword_tuple("X")])
        assert len(obj) == 1

    @pytest.mark.parametrize("keys", [(1, True), (True, 1)])
    def test_tuples_the_matcher_tells_apart_are_both_kept(self, keys):
        # hash(1) == hash(True): the marker used to collapse the pair, so
        # which tuple survived depended on insertion order.
        first, second = keys
        obj = HFObject(OID, [tuple_of("N", first, "a"), tuple_of("N", second, "a")])
        assert [t.key for t in obj] == [first, second]
        assert obj.first("N", True).key is True
        assert obj.first("N", 1).key == 1 and obj.first("N", 1).key is not True
        assert obj == HFObject(OID, [tuple_of("N", second, "a"), tuple_of("N", first, "a")])
        assert obj != HFObject(OID, [tuple_of("N", 1, "a")])
        assert HFObject(OID, [tuple_of("N", 1, "a")]) != HFObject(OID, [tuple_of("N", True, "a")])
        # Data fields are told apart the same way.
        assert len(HFObject(OID, [tuple_of("N", "k", 0), tuple_of("N", "k", False)])) == 2

    def test_values_the_matcher_equates_still_collapse(self):
        assert len(HFObject(OID, [tuple_of("N", 1, "a"), tuple_of("N", 1.0, "a")])) == 1
        assert len(HFObject(OID, [tuple_of("P", "k", B), tuple_of("P", "k", B.with_hint("s9"))])) == 1

    def test_preserves_first_seen_order(self):
        obj = sample()
        assert [t.key for t in obj] == ["Title", "Author", "Called Routine", "Library"]

    def test_empty_object_is_legal(self):
        assert len(HFObject(OID)) == 0


class TestAccessors:
    def test_tuples_of_type(self):
        assert len(sample().tuples_of_type("String")) == 2
        assert len(sample().tuples_of_type("Pointer")) == 2
        assert sample().tuples_of_type("Missing") == []

    def test_first(self):
        t = sample().first("String", "Title")
        assert t is not None and t.data == "Main Program"
        assert sample().first("String", "Nope") is None

    def test_values(self):
        assert sample().values("String", "Author") == ["Joe Programmer"]

    def test_pointers_all(self):
        assert set(sample().pointers()) == {B, C}

    def test_pointers_by_key(self):
        assert sample().pointers(key="Called Routine") == [B]

    def test_pointers_include_app_defined_pointer_types(self):
        obj = HFObject(OID, [tuple_of("MyLink", "next", B)])
        assert obj.pointers() == [B]

    def test_contains(self):
        assert string_tuple("Title", "Main Program") in sample()

    def test_lookups_compare_keys_as_the_matcher_does(self):
        nan = float("nan")
        obj = HFObject(
            OID,
            [
                tuple_of("N", 1, "int"),
                tuple_of("N", True, "bool"),
                tuple_of("N", 1.0, "float"),
                tuple_of("N", B.with_hint("s9"), C),
                tuple_of("N", nan, "nan"),
                tuple_of("U", [1], "list"),
                tuple_of("U", 1, B),
                tuple_of("One", True, "only"),
            ],
        )
        assert obj.first("N", True).data == "bool"
        assert obj.values("N", 1) == ["int", "float"]
        assert obj.values("N", B) == [C]
        assert obj.values("N", nan) == []
        # "U" holds an unhashable key and "One" a single tuple: no key map.
        assert obj.values("U", 1) == [B] and obj.values("U", [1]) == ["list"]
        assert obj.first("One", 1) is None and obj.first("One", True).data == "only"
        assert obj.first("Missing", 1) is None
        assert [t.data for t in obj.tuples_with_key(1)] == ["int", "float", B]
        assert [t.data for t in obj.tuples_with_key(True)] == ["bool", "only"]
        assert obj.pointers(key=1) == [B] and obj.pointers(key=True) == []
        assert [t.data for t in obj.tuples_of_type("U")] == ["list", B]
        kept = [t.data for t in obj.without("N", True).tuples_of_type("N")]
        assert kept == ["int", "float", C, "nan"]  # only the True-keyed tuple went


class TestTupleIndex:
    def test_built_by_the_first_probe_and_dropped_by_every_update(self):
        obj = sample()
        assert obj._index is None
        obj.tuples_of_type("String")
        built = obj._index
        assert built is not None
        obj.first("Pointer", "Library")
        assert obj._index is built
        assert obj.with_tuple(keyword_tuple("Sort"))._index is None
        assert obj.with_tuples([keyword_tuple("Sort")])._index is None
        assert obj.without("Pointer")._index is None
        assert obj.relocated(Oid("s9", 44))._index is built
        assert obj._index is built  # the original keeps its own

    def test_buckets_keep_insertion_order(self):
        obj = HFObject(OID, [pointer_tuple("a", B), string_tuple("a", "x"), pointer_tuple("b", C), pointer_tuple("a", C)])
        assert obj.probe("Pointer") == (obj.tuples[0:1] + obj.tuples[2:4], False)
        assert obj.probe("Pointer", probe_key("a")) == ((obj.tuples[0], obj.tuples[3]), True)
        assert obj.probe("Pointer", probe_key("zzz")) == ((), True)
        assert obj.probe("String", probe_key("a")) == (obj.tuples[1:2], False)
        assert obj.probe("Missing", probe_key("a")) == ((), True)

    def test_probe_keys_follow_the_matchers_equality(self):
        assert probe_key(True) != probe_key(1) and probe_key(False) != probe_key(0)
        assert probe_key(5) == probe_key(5.0)
        assert probe_key(B) == probe_key(B.with_hint("s9"))
        assert probe_key([1]) is NO_PROBE and probe_key(float("nan")) is NO_PROBE
        assert probe_key(None) is None


class TestFunctionalUpdates:
    def test_with_tuple_returns_new_object(self):
        obj = sample()
        updated = obj.with_tuple(keyword_tuple("Sort"))
        assert len(updated) == len(obj) + 1
        assert len(obj) == 4  # original untouched

    def test_without_by_type_and_key(self):
        updated = sample().without("Pointer", "Library")
        assert updated.pointers() == [B]

    def test_without_all_of_type(self):
        assert sample().without("Pointer").pointers() == []

    def test_relocated_changes_id_only(self):
        moved = sample().relocated(Oid("s9", 44))
        assert moved.oid == Oid("s9", 44)
        assert len(moved) == len(sample())


class TestEqualityAndSize:
    def test_equality_is_order_insensitive(self):
        t1, t2 = keyword_tuple("A"), keyword_tuple("B")
        assert HFObject(OID, [t1, t2]) == HFObject(OID, [t2, t1])

    def test_equality_requires_same_oid(self):
        assert HFObject(OID, []) != HFObject(B, [])

    def test_size_hint_wins(self):
        assert HFObject(OID, [], size_hint=12345).size_bytes == 12345

    def test_size_estimate_grows_with_payload(self):
        small = HFObject(OID, [text_tuple("Body", "x")])
        large = HFObject(OID, [text_tuple("Body", "x" * 10_000)])
        assert large.size_bytes > small.size_bytes + 9_000


class TestSetObjects:
    def test_round_trip(self):
        set_obj = make_set_object(OID, [B, C])
        assert set_members(set_obj) == [B, C]

    def test_custom_key(self):
        set_obj = make_set_object(OID, [B], key="Element")
        assert set_members(set_obj, key="Element") == [B]
        assert set_members(set_obj) == []  # default key finds nothing

    def test_set_object_is_an_ordinary_object(self):
        # Paper: "a set of objects is created using a basic object".
        set_obj = make_set_object(OID, [B, C])
        assert isinstance(set_obj, HFObject)
        assert len(set_obj.pointers()) == 2
