"""Property-based tests of the query engine over random object graphs.

The headline invariants (DESIGN.md §5):

1. distributed execution ≡ single-site execution, for any graph, any
   placement, any query in the tested family;
2. every query terminates (implicitly: these tests complete) even on
   cyclic graphs;
3. all work-set disciplines agree;
4. the shared-memory engine agrees for any worker count.
"""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core.program import compile_query
from repro.core.builder import QueryBuilder
from repro.core.tuples import keyword_tuple, pointer_tuple, tuple_of
from repro.engine.local import run_local
from repro.engine.shared_memory import SharedMemoryEngine
from repro.sim.costs import FREE_COSTS
from repro.storage.memstore import MemStore

# --------------------------------------------------------------------------
# Random-graph strategy: n objects, random edges per object under a random
# pointer key, random keyword assignment from a small vocabulary.
# --------------------------------------------------------------------------

KEYWORDS = ["alpha", "beta", "gamma"]


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    edges = [
        draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3))
        for _ in range(n)
    ]
    kw = [draw(st.sampled_from(KEYWORDS)) for _ in range(n)]
    seeds = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3))
    placement = [draw(st.integers(min_value=0, max_value=2)) for _ in range(n)]
    return n, edges, kw, seeds, placement


@st.composite
def query_families(draw):
    depth = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    keyword = draw(st.sampled_from(KEYWORDS))
    keep = draw(st.booleans())
    builder = QueryBuilder("S").begin_loop().select("Pointer", "Edge", "?X")
    builder = builder.deref_keep("X") if keep else builder.deref("X")
    return builder.end_loop(count=depth).select("Keyword", keyword, "?").into("T")


def load_single(n, edges, kw):
    store = MemStore("solo")
    oids = [store.create([]).oid for _ in range(n)]
    for i in range(n):
        tuples = [keyword_tuple(kw[i])] + [pointer_tuple("Edge", oids[j]) for j in edges[i]]
        store.replace(store.get(oids[i]).with_tuples(tuples))
    return store, oids


def load_cluster(n, edges, kw, placement):
    cluster = SimCluster(3, config=ClusterConfig(costs=FREE_COSTS))
    stores = [cluster.store(s) for s in cluster.sites]
    oids = [stores[placement[i]].create([]).oid for i in range(n)]
    for i in range(n):
        tuples = [keyword_tuple(kw[i])] + [pointer_tuple("Edge", oids[j]) for j in edges[i]]
        store = stores[placement[i]]
        store.replace(store.get(oids[i]).with_tuples(tuples))
    return cluster, oids


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestDistributionTransparency:
    @SETTINGS
    @given(graphs(), query_families())
    def test_distributed_equals_local(self, graph, query):
        n, edges, kw, seeds, placement = graph
        program = compile_query(query)

        store, oids = load_single(n, edges, kw)
        local = run_local(program, [oids[s] for s in seeds], store.get)
        local_indices = _indices(oids, local.oid_keys())

        cluster, c_oids = load_cluster(n, edges, kw, placement)
        outcome = cluster.run_query(program, [c_oids[s] for s in seeds])
        assert _indices(c_oids, outcome.result.oid_keys()) == local_indices

    @SETTINGS
    @given(graphs(), query_families())
    def test_disciplines_agree(self, graph, query):
        n, edges, kw, seeds, _ = graph
        program = compile_query(query)
        store, oids = load_single(n, edges, kw)
        results = {
            d: run_local(program, [oids[s] for s in seeds], store.get, discipline=d).oid_keys()
            for d in ("fifo", "lifo", "priority")
        }
        assert results["fifo"] == results["lifo"] == results["priority"]

    @SETTINGS
    @given(graphs(), query_families(), st.integers(min_value=1, max_value=6))
    def test_shared_memory_agrees(self, graph, query, workers):
        n, edges, kw, seeds, _ = graph
        program = compile_query(query)
        store, oids = load_single(n, edges, kw)
        reference = run_local(program, [oids[s] for s in seeds], store.get)
        report = SharedMemoryEngine(program, store.get, workers=workers).run(
            [oids[s] for s in seeds]
        )
        assert report.result.oid_keys() == reference.oid_keys()

    @SETTINGS
    @given(graphs(), query_families())
    def test_duplicate_seeds_are_idempotent(self, graph, query):
        n, edges, kw, seeds, _ = graph
        program = compile_query(query)
        store, oids = load_single(n, edges, kw)
        once = run_local(program, [oids[s] for s in seeds], store.get)
        doubled = run_local(program, [oids[s] for s in seeds + seeds], store.get)
        assert once.oid_keys() == doubled.oid_keys()


class TestTerminationDetectors:
    @SETTINGS
    @given(graphs(), query_families(), st.sampled_from(["weighted", "dijkstra-scholten"]))
    def test_both_detectors_fire_with_same_results(self, graph, query, strategy):
        n, edges, kw, seeds, placement = graph
        program = compile_query(query)
        store, oids = load_single(n, edges, kw)
        expected = _indices(oids, run_local(program, [oids[s] for s in seeds], store.get).oid_keys())

        cluster = SimCluster(3, config=ClusterConfig(costs=FREE_COSTS, termination=strategy))
        stores = [cluster.store(s) for s in cluster.sites]
        c_oids = [stores[placement[i]].create([]).oid for i in range(n)]
        for i in range(n):
            tuples = [keyword_tuple(kw[i])] + [pointer_tuple("Edge", c_oids[j]) for j in edges[i]]
            stores[placement[i]].replace(stores[placement[i]].get(c_oids[i]).with_tuples(tuples))
        outcome = cluster.run_query(program, [c_oids[s] for s in seeds])
        assert _indices(c_oids, outcome.result.oid_keys()) == expected


def _indices(oids, oid_keys):
    lookup = {oid.key(): i for i, oid in enumerate(oids)}
    return sorted(lookup[k] for k in oid_keys)
