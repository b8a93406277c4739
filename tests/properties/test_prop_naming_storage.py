"""Property tests for naming (migration) and storage (snapshots).

* any sequence of migrations leaves exactly one holder per object,
  resolution always converges to it, and query answers never change;
* snapshots round-trip arbitrary stores exactly.
"""

import io
import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core.builder import QueryBuilder
from repro.core.program import compile_query
from repro.core.tuples import keyword_tuple, pointer_tuple, tuple_of
from repro.naming.names import find_holder, resolution_path
from repro.sim.costs import FREE_COSTS
from repro.storage.memstore import MemStore
from repro.storage.snapshot import load_store, save_store, snapshot_round_trip_equal

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def migration_scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    edges = [
        draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2))
        for _ in range(n)
    ]
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=8,
        )
    )
    return n, edges, moves


QUERY = compile_query(
    QueryBuilder("S")
    .begin_loop()
    .select("Pointer", "Edge", "?X")
    .deref_keep("X")
    .end_loop()
    .select("Keyword", "K", "?")
    .into("T")
)


def build(n, edges):
    cluster = SimCluster(3, config=ClusterConfig(costs=FREE_COSTS))
    store0 = cluster.store("site0")
    oids = [store0.create([keyword_tuple("K")]).oid for _ in range(n)]
    for i in range(n):
        tuples = [pointer_tuple("Edge", oids[j]) for j in edges[i]]
        if tuples:
            store0.replace(store0.get(oids[i]).with_tuples(tuples))
    return cluster, oids


class TestMigrationProperties:
    @SETTINGS
    @given(migration_scenarios())
    def test_single_holder_and_convergent_resolution(self, scenario):
        n, edges, moves = scenario
        cluster, oids = build(n, edges)
        for obj_index, site_index in moves:
            cluster.migrate(oids[obj_index], cluster.sites[site_index])
        for oid in oids:
            holder = find_holder(oid, cluster.stores)
            assert holder is not None
            holders = [s for s, store in cluster.stores.items() if store.contains(oid)]
            assert holders == [holder]
            for start in cluster.sites:
                path = resolution_path(oid.without_hint(), start, cluster.stores, cluster.forwarding)
                assert path[-1] == holder
                assert len(path) <= 3  # start -> (birth) -> holder

    @SETTINGS
    @given(migration_scenarios())
    def test_queries_invariant_under_migration(self, scenario):
        n, edges, moves = scenario
        cluster, oids = build(n, edges)
        before = cluster.run_query(QUERY, [oids[0]]).result.oid_keys()
        for obj_index, site_index in moves:
            cluster.migrate(oids[obj_index], cluster.sites[site_index])
        after = cluster.run_query(QUERY, [oids[0]]).result.oid_keys()
        assert before == after


scalars = st.one_of(
    st.text(max_size=10),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.binary(max_size=12),
    st.booleans(),
    st.none(),
)
type_names = st.text(alphabet=string.ascii_letters, min_size=1, max_size=8)


class TestSnapshotProperties:
    @SETTINGS
    @given(
        st.lists(
            st.lists(st.tuples(type_names, scalars, scalars), max_size=5),
            max_size=10,
        )
    )
    def test_round_trip_any_store(self, object_specs):
        store = MemStore("prop")
        for spec in object_specs:
            store.create([tuple_of(t, k, d) for t, k, d in spec])
        buffer = io.BytesIO()
        save_store(store, buffer)
        buffer.seek(0)
        restored = load_store(buffer)
        assert snapshot_round_trip_equal(store, restored)

    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=6))
    def test_pointers_survive(self, link_spec):
        store = MemStore("prop")
        oids = [store.create([keyword_tuple("K")]).oid for _ in range(5)]
        for i, target in enumerate(link_spec):
            store.replace(store.get(oids[i % 5]).with_tuple(pointer_tuple("Edge", oids[target])))
        buffer = io.BytesIO()
        save_store(store, buffer)
        buffer.seek(0)
        restored = load_store(buffer)
        for oid in oids:
            assert restored.get(oid).pointers() == store.get(oid).pointers()
