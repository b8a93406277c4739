"""Oracle test: the engine's selection semantics vs a naive reference.

A straight-line reimplementation of the paper's selection rule ("an
object passes when some tuple matches all three field patterns; bindings
of matching tuples are applied as the tuples are visited") is compared
against the real engine over random objects and patterns.  The engine
answers most selects from the object's ``(type, key)`` index, so every
case is also replayed with the op's probe cleared — the full scan — and
the two must agree on pass/fail, on bindings and on emission order.

The strategies aim at where a dictionary probe could disagree with the
matcher's equality: ``True``/``False`` beside ``1``/``0``, floats equal
to ints, object ids that differ only in their routing hint, an
unhashable key, and NaN as a key and as a literal.

Seed and example counts are pinned; CI's ``select-oracle`` job replays
the same properties at 50 times the count (:func:`oracle_properties`).
"""

import re

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.ast import Query, Retrieve, Select
from repro.core.oid import Oid
from repro.core.patterns import ANY, Bind, Literal, OneOf, Range, Regex, Use
from repro.core.program import compile_query
from repro.core.tuples import HFTuple
from repro.engine.efunction import evaluate
from repro.engine.items import WorkItem
from repro.engine.local import run_local
from repro.storage.memstore import MemStore

ORACLE_SEED = 19910520

NAN = float("nan")
HINTED = [Oid("s1", 7), Oid("s1", 7, presumed_site="s2"), Oid("s1", 7, presumed_site="s3"), Oid("s2", 7)]

types = st.sampled_from(["Keyword", "Doc"])
#: Few types and one small pool of values, so values the matcher equates
#: or must tell apart meet often inside one type bucket.
PROBEABLE = ["a", 0, 1, True, False, 1.0, 2.5, *HINTED]
#: Keys a careless dictionary would merge, or fail to merge.
LOOKALIKES = [[1, True, 1.0], [0, False], HINTED, ["a", 2.5]]
#: One of these as a key leaves its whole type bucket without a key map.
UNPROBEABLE = [NAN, [1], [1, 2]]
hashable_fields = st.sampled_from(PROBEABLE + [NAN])
fields = st.sampled_from(PROBEABLE + UNPROBEABLE)

objects = st.lists(st.builds(HFTuple, types, fields, fields), max_size=10)
#: No unhashable field: binding one into ``O.mvars`` (a set) raises in the
#: engine, with or without an index.
bindable_objects = st.lists(st.builds(HFTuple, types, hashable_fields, hashable_fields), max_size=10)

bindfree_patterns = st.one_of(
    st.just(ANY),
    st.builds(Literal, st.one_of(fields, types)),
    st.builds(
        lambda lo, hi: Range(min(lo, hi), max(lo, hi)),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
    st.sampled_from([Regex("[KS].*"), Regex("[ab]"), OneOf(["Doc", "Number", 1, True]), OneOf([Oid("s1", 7), 2.5])]),
)
binding_patterns = st.one_of(
    bindfree_patterns,
    st.builds(Bind, st.sampled_from(["X", "Y"])),
    st.builds(Use, st.sampled_from(["X", "Y"])),
)


@st.composite
def probed_cases(draw):
    """(tuples, literal type pattern, key pattern) with a bucket of that
    type holding one whole family of look-alike keys — half the time a
    bucket the index can key — and two times in three a literal key taken
    from it."""
    type_name = draw(types)
    keys = draw(st.sampled_from(LOOKALIKES)) + draw(st.lists(st.sampled_from(PROBEABLE), max_size=3))
    keys += draw(st.sampled_from([[], [], [], [NAN], [[1]], [[1, 2]]]))
    # Half the data fields are unique, so a merged pair shows in what a
    # Retrieve emits; the other half may collide and be deduplicated.
    bucket = [HFTuple(type_name, key, draw(st.one_of(fields, st.just(f"d{i}")))) for i, key in enumerate(keys)]
    others = [t for t in draw(objects) if t.type != type_name]
    from_bucket = st.sampled_from(keys).map(Literal)
    key_pattern = draw(st.one_of(bindfree_patterns, from_bucket, from_bucket))
    return draw(st.permutations(others + bucket)), Literal(type_name), key_pattern


# -- the reference ---------------------------------------------------------------


def oracle_equal(a, b) -> bool:
    if isinstance(a, Oid) and isinstance(b, Oid):
        return (a.birth_site, a.local_id) == (b.birth_site, b.local_id)
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


def oracle_matches(pattern, value, mvars) -> bool:
    if pattern is ANY or isinstance(pattern, Bind):
        return True
    if isinstance(pattern, Literal):
        return oracle_equal(pattern.value, value)
    if isinstance(pattern, OneOf):
        return any(oracle_equal(v, value) for v in pattern.values)
    if isinstance(pattern, Use):
        return any(oracle_equal(v, value) for v in mvars.get(pattern.name, ()))
    if isinstance(pattern, Range):
        # "Not outside", so NaN is inside every range: Range.match's
        # reading, which no index stands in for.
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and not value < pattern.lo
            and not value > pattern.hi
        )
    if isinstance(pattern, Regex):
        return isinstance(value, str) and re.fullmatch(pattern.pattern, value) is not None
    raise AssertionError(f"no reference semantics for {pattern!r}")


def oracle_filter(node, tuple_list, mvars):
    """Apply one Select/Retrieve to ``tuple_list`` in place on ``mvars``;
    return (passed, emitted data values in order)."""
    patterns = [node.type_pattern, node.key_pattern]
    if isinstance(node, Select):
        patterns.append(node.data_pattern)
    passed, emitted = False, []
    for t in tuple_list:
        fields_ = (t.type, t.key, t.data)
        if not all(oracle_matches(p, f, mvars) for p, f in zip(patterns, fields_)):
            continue
        passed = True
        for p, f in zip(patterns, fields_):
            if isinstance(p, Bind):
                mvars.setdefault(p.name, set()).add(f)
        if isinstance(node, Retrieve):
            emitted.append(t.data)
    return passed, emitted


# -- driving the engine ----------------------------------------------------------


def snapshot(mvars):
    return {name: sorted(map(repr, bound)) for name, bound in mvars.items() if bound}


def engine_pipeline(nodes, obj, seed_mvars, scan: bool):
    """Push ``obj`` through ``nodes`` with :func:`evaluate`; return
    (index of the filter that dropped it or None, bindings, emissions)."""
    program = compile_query(Query("S", tuple(nodes), "T"))
    if scan:
        for op in program.ops:
            op.type_probe = None
    active = WorkItem(obj.oid).activate()
    active.mvars.update({name: set(bound) for name, bound in seed_mvars.items()})
    emitted = []
    while active.next <= program.size:
        at = active.next
        spawned, passed = evaluate(program, active, obj, lambda target, value: emitted.append((target, repr(value))))
        assert spawned == []
        if passed is None:
            return at, snapshot(active.mvars), emitted
    return None, snapshot(active.mvars), emitted


def oracle_pipeline(nodes, obj, seed_mvars):
    mvars = {name: set(bound) for name, bound in seed_mvars.items()}
    emitted = []
    for at, node in enumerate(nodes, start=1):
        passed, values = oracle_filter(node, obj.tuples, mvars)
        emitted += [(node.target, repr(v)) for v in values] if isinstance(node, Retrieve) else []
        if not passed:
            return at, snapshot(mvars), emitted
    return None, snapshot(mvars), emitted


def agree(nodes, tuple_list, seed_mvars=None):
    seed_mvars = seed_mvars or {}
    obj = MemStore("s1").create(tuple_list)
    expected = oracle_pipeline(nodes, obj, seed_mvars)
    for _ in range(2):  # the second pass finds the index already built
        assert engine_pipeline(nodes, obj, seed_mvars, scan=False) == expected
    assert engine_pipeline(nodes, obj, seed_mvars, scan=True) == expected


# -- the properties --------------------------------------------------------------


def engine_agrees_with_reference(tuple_list, tp, kp, dp):
    store = MemStore("s1")
    obj = store.create(tuple_list)
    program = compile_query(Query("S", (Select(tp, kp, dp),), "T"))
    result = run_local(program, [obj.oid], store.get)
    expected, _ = oracle_filter(Select(tp, kp, dp), obj.tuples, {})
    assert (obj.oid.key() in result.oid_keys()) == expected


def probed_select_and_retrieve_agree_with_reference_and_scan(case, dp):
    # A literal type is what reaches the index; the property above rarely
    # draws one.
    tuple_list, tp, kp = case
    agree([Retrieve(tp, kp, "out"), Select(tp, kp, dp), Retrieve(tp, kp, "again")], tuple_list)


def bindings_are_exactly_matching_tuples_data(tuple_list, key):
    # (?, key, ?X): X must end up bound to the data of every tuple
    # whose key matches — and nothing else.
    store = MemStore("s1")
    obj = store.create([t for t in tuple_list if not isinstance(t.data, list)])
    program = compile_query(Query("S", (Select(ANY, Literal(key), Bind("X")),), "T"))
    active = WorkItem(obj.oid).activate()
    spawned, passed = evaluate(program, active, store.get(obj.oid), lambda t, v: None)
    expected = {t.data for t in obj.tuples if oracle_equal(key, t.key)}
    assert snapshot({"X": active.bindings("X")}) == snapshot({"X": expected})
    assert (passed is not None) == bool(expected)
    assert spawned == []


def pipelines_with_variables_agree_with_reference_and_scan(tuple_list, nodes, seed_mvars):
    agree(nodes, tuple_list, seed_mvars)


def a_later_tuple_sees_the_binding_of_an_earlier_one(noise, type_name, key, chain):
    # (T, k, ?X) seeds X; then (T, $X, ?X) in ONE filter walks a chain
    # laid out in insertion order inside one type bucket: each tuple's
    # key was bound by the tuple before it.
    links = [HFTuple(type_name, a, b) for a, b in zip(chain, chain[1:])]
    tuple_list = [HFTuple(type_name, key, chain[0])] + noise[:3] + links + noise[3:]
    nodes = [
        Select(Literal(type_name), Literal(key), Bind("X")),
        Select(Literal(type_name), Use("X"), Bind("X")),
        Select(Literal(type_name), Literal(key), Use("X")),
    ]
    agree(nodes, tuple_list)


_type_patterns = st.one_of(types.map(Literal), binding_patterns)

#: property -> (tier-1 example count, strategies of its arguments)
PROPERTIES = {
    engine_agrees_with_reference: (300, (objects, bindfree_patterns, bindfree_patterns, bindfree_patterns)),
    probed_select_and_retrieve_agree_with_reference_and_scan: (300, (probed_cases(), bindfree_patterns)),
    bindings_are_exactly_matching_tuples_data: (
        200,
        (objects, st.sampled_from(["a", "b", 0, 1, True, 1.0, NAN, Oid("s1", 7, presumed_site="s9")])),
    ),
    pipelines_with_variables_agree_with_reference_and_scan: (
        300,
        (
            bindable_objects,
            st.lists(
                st.one_of(
                    st.builds(Select, _type_patterns, binding_patterns, binding_patterns),
                    st.builds(Retrieve, _type_patterns, binding_patterns, st.just("out")),
                ),
                min_size=1,
                max_size=3,
            ),
            st.dictionaries(st.sampled_from(["X", "Y"]), st.lists(hashable_fields, max_size=2), max_size=2),
        ),
    ),
    a_later_tuple_sees_the_binding_of_an_earlier_one: (
        100,
        (bindable_objects, types, hashable_fields, st.permutations(["a", "b", "c", 1, True, 1.0])),
    ),
}


def oracle_properties(scale: int = 1):
    """Every property by name, seeded, at ``scale`` times tier-1's example
    count (CI's ``select-oracle`` job asks for 50)."""
    return {
        check.__name__: seed(ORACLE_SEED)(
            settings(max_examples=examples * scale, deadline=None, database=None)(given(*strategies)(check))
        )
        for check, (examples, strategies) in PROPERTIES.items()
    }


TIER1 = oracle_properties()


class TestSelectionOracle:
    def test_engine_agrees_with_reference(self):
        TIER1["engine_agrees_with_reference"]()

    def test_probed_select_and_retrieve_agree_with_reference_and_scan(self):
        TIER1["probed_select_and_retrieve_agree_with_reference_and_scan"]()


    def test_every_lookalike_key_against_every_literal(self):
        # Not left to chance: each family whole in one bucket, in both
        # orders, keyable or not, probed with every value of the pool.
        for unprobeable in ([], [NAN], [[1]]):
            for family in LOOKALIKES:
                keys = family + ["z"] + unprobeable
                for ordered in (keys, keys[::-1]):
                    tuple_list = [HFTuple("Doc", key, f"d{i}") for i, key in enumerate(ordered)]
                    tuple_list.insert(1, HFTuple("Keyword", keys[0], "elsewhere"))
                    for literal in PROBEABLE + UNPROBEABLE:
                        kp = Literal(literal)
                        agree([Retrieve(Literal("Doc"), kp, "out"), Select(Literal("Doc"), kp, Bind("X"))], tuple_list)


class TestBindingRule:
    def test_bindings_are_exactly_matching_tuples_data(self):
        TIER1["bindings_are_exactly_matching_tuples_data"]()

    def test_pipelines_with_variables_agree_with_reference_and_scan(self):
        TIER1["pipelines_with_variables_agree_with_reference_and_scan"]()

    def test_a_later_tuple_sees_the_binding_of_an_earlier_one(self):
        TIER1["a_later_tuple_sees_the_binding_of_an_earlier_one"]()
