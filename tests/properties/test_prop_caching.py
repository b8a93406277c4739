"""Property-based tests of the caching layer (hypothesis).

The caching subsystem's contract is *transparency*: for any pointer
graph, any combination of cache features (fragments, whole-query cache,
Bloom summaries), on every transport, a cache-enabled run must return
exactly the results a cache-disabled run returns — same oid sets, same
``partial`` flag, same exact credit accounting — including across
repeated queries (where the caches actually fire) and across store
mutations the originator can observe (where stale entries must be
invalidated, not served — epoch propagation is piggybacked, so the
mutation strategy below always touches the originator's site too; the
silent-remote-mutation window is pinned separately in
``tests/integration/test_caching.py``, see ``docs/CACHING.md``).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import credit_deficit
from repro.cache import CacheConfig
from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.net.asyncio_cluster import AsyncCluster
from repro.net.threaded import ThreadedCluster

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every subset of cache features, including the full config.
cache_configs = st.builds(
    CacheConfig,
    fragments=st.booleans(),
    query_cache=st.booleans(),
    summaries=st.booleans(),
    bloom_bits=st.sampled_from([256, 1024, 4096]),
    max_entries=st.sampled_from([4, 64, 4096]),
)


def build_random_graph(cluster, n, seed):
    """A random pointer graph striped across the sites (self-loops plus
    up to three random out-edges per object; half the leaves unkeyworded
    so Bloom rule-B actually has leaves to prune)."""
    rng = random.Random(seed)
    stores = [cluster.store(s) for s in cluster.sites]
    oids = [
        stores[i % len(stores)].create([keyword_tuple("K")]).oid for i in range(n)
    ]
    for i in range(n):
        targets = {i} if rng.random() < 0.7 else set()
        for _ in range(rng.randint(0, 3)):
            targets.add(rng.randrange(n))
        store = stores[i % len(stores)]
        obj = store.get(oids[i])
        for t in sorted(targets):
            obj = obj.with_tuple(pointer_tuple("Ref", oids[t]))
        store.replace(obj)
    return oids


def outcome_fingerprint(outcome):
    return (
        outcome.result.oid_keys(),
        outcome.result.partial,
        sorted(outcome.result.retrieved),
    )


class TestCachingTransparencySim:
    @SETTINGS
    @given(seed=st.integers(0, 2**20), n=st.integers(min_value=4, max_value=16),
           cfg=cache_configs, repeats=st.integers(min_value=1, max_value=3))
    def test_cached_equals_uncached_across_repeats(self, seed, n, cfg, repeats):
        plain = SimCluster(3)
        cached = SimCluster(3, config=ClusterConfig(caching=cfg))
        oids_p = build_random_graph(plain, n, seed)
        oids_c = build_random_graph(cached, n, seed)
        for _ in range(repeats):
            out_p = plain.run_query(CLOSURE, [oids_p[0]])
            out_c = cached.run_query(CLOSURE, [oids_c[0]])
            assert outcome_fingerprint(out_c) == outcome_fingerprint(out_p)
            assert credit_deficit(cached.nodes, out_c.qid) in (None, Fraction(0))

    @SETTINGS
    @given(seed=st.integers(0, 2**20), n=st.integers(min_value=4, max_value=12),
           cfg=cache_configs)
    def test_overlapping_queries_share_fragments_safely(self, seed, n, cfg):
        """A second query over the same graph but a different search key
        overlaps the first query's traversal; replayed fragments must not
        leak the first query's bindings or results."""
        other = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"Q",?) -> T'
        plain = SimCluster(3)
        cached = SimCluster(3, config=ClusterConfig(caching=cfg))
        oids_p = build_random_graph(plain, n, seed)
        oids_c = build_random_graph(cached, n, seed)
        for query in (CLOSURE, other, CLOSURE):
            out_p = plain.run_query(query, [oids_p[0]])
            out_c = cached.run_query(query, [oids_c[0]])
            assert outcome_fingerprint(out_c) == outcome_fingerprint(out_p)

    @SETTINGS
    @given(seed=st.integers(0, 2**20), n=st.integers(min_value=4, max_value=12),
           cfg=cache_configs, mutate_site=st.integers(0, 2))
    def test_mutation_invalidates_everything(self, seed, n, cfg, mutate_site):
        """Run, mutate one site's store, run again: the cached cluster
        must answer from the *new* data, exactly like a fresh uncached
        cluster over the mutated graph."""
        plain = SimCluster(3)
        cached = SimCluster(3, config=ClusterConfig(caching=cfg))
        oids_p = build_random_graph(plain, n, seed)
        oids_c = build_random_graph(cached, n, seed)
        cached.run_query(CLOSURE, [oids_c[0]])  # warm every cache layer

        def mutate(cluster, oids):
            site = cluster.sites[mutate_site]
            store = cluster.store(site)
            new = store.create([keyword_tuple("K")])
            store.replace(store.get(new.oid).with_tuple(pointer_tuple("Ref", new.oid)))
            # Attach the new object under the root so it joins the closure.
            root_store = cluster.store(cluster.sites[0])
            root_store.replace(
                root_store.get(oids[0]).with_tuple(pointer_tuple("Ref", new.oid))
            )
            return new.oid

        new_p = mutate(plain, oids_p)
        new_c = mutate(cached, oids_c)
        out_p = plain.run_query(CLOSURE, [oids_p[0]])
        out_c = cached.run_query(CLOSURE, [oids_c[0]])
        assert outcome_fingerprint(out_c) == outcome_fingerprint(out_p)
        assert new_c.key() in out_c.result.oid_keys()
        assert new_p.key() in out_p.result.oid_keys()

    @SETTINGS
    @given(seed=st.integers(0, 2**20), n=st.integers(min_value=4, max_value=16))
    def test_full_config_conserves_credit(self, seed, n):
        cached = SimCluster(3, config=ClusterConfig(caching=CacheConfig()))
        oids = build_random_graph(cached, n, seed)
        for _ in range(2):
            qid = cached.submit(CLOSURE, [oids[0]])
            cached.wait(qid)
            ctx = cached.node(qid.originator).contexts[qid]
            assert ctx.term_state.recovered == Fraction(1)
            assert credit_deficit(cached.nodes, qid) == Fraction(0)


@pytest.mark.parametrize("factory", [ThreadedCluster, AsyncCluster],
                         ids=["threaded", "async"])
class TestCachingTransparencyRealTransports:
    """The same transparency contract on the wall-clock transports (a
    handful of hypothesis examples — each spins up real threads/sockets)."""

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**20), n=st.integers(min_value=4, max_value=10))
    def test_cached_equals_uncached(self, factory, seed, n):
        plain = factory(3)
        cached = factory(3, config=ClusterConfig(caching=CacheConfig()))
        try:
            oids_p = build_random_graph(plain, n, seed)
            oids_c = build_random_graph(cached, n, seed)
            for _ in range(2):
                out_p = plain.run_query(CLOSURE, [oids_p[0]], timeout_s=30.0)
                out_c = cached.run_query(CLOSURE, [oids_c[0]], timeout_s=30.0)
                assert outcome_fingerprint(out_c) == outcome_fingerprint(out_p)
        finally:
            plain.close()
            cached.close()
