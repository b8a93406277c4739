"""Property-based replication tests (hypothesis).

The replication contract, quantified: for *any* random pointer graph and
*any* crash set that leaves at least one replica of every object live
(and the originator up), query results on the replicated cluster equal
the healthy replica-free cluster's — read anycast plus failover make a
safe crash set observationally invisible.  Unsafe crash sets are checked
separately: they may freeze branches, but can never return a wrong
result set silently (whatever completes is marked partial or matches).
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.replication import ReplicationConfig
from repro.sim.explore import crash_is_safe

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Candidate crash sets over a 3-site cluster, never the originator.
CRASH_SETS = [(), ("site1",), ("site2",), ("site1", "site2")]


def load_random_graph(cluster, seed, n):
    """A seeded random pointer graph: ``n`` objects spread over the
    sites, ~half of them hits, up to two outgoing pointers each.  The
    same ``(seed, n)`` loads bit-identical data into any cluster."""
    rng = random.Random(seed)
    stores = [cluster.store(s) for s in cluster.sites]
    oids, homes = [], []
    for i in range(n):
        key = keyword_tuple("K") if rng.random() < 0.5 else keyword_tuple("miss")
        store = stores[rng.randrange(len(stores))]
        oids.append(store.create([key]).oid)
        homes.append(store)
    for i in range(n):
        for _ in range(rng.randint(0, 2)):
            target = oids[rng.randrange(n)]
            homes[i].replace(homes[i].get(oids[i]).with_tuple(pointer_tuple("Ref", target)))
    return oids


class TestSafeCrashSetsAreInvisible:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(min_value=4, max_value=14),
        k=st.sampled_from([2, 3]),
        down=st.sampled_from(CRASH_SETS),
    )
    def test_results_equal_healthy_replica_free_cluster(self, seed, n, k, down):
        healthy = SimCluster(3)
        oids = load_random_graph(healthy, seed, n)
        oracle = healthy.run_query(CLOSURE, [oids[0]]).result.oid_keys()
        healthy.close()

        cluster = SimCluster(3, config=ClusterConfig(replication=ReplicationConfig(k=k)))
        load_random_graph(cluster, seed, n)
        cluster.replicate_all()
        try:
            if not crash_is_safe(cluster, down, "site0"):
                return  # unsafe set for this graph/placement: out of scope
            for site in down:
                cluster.set_down(site)
            out = cluster.run_query(CLOSURE, [oids[0]])
            assert out.result.oid_keys() == oracle
            assert not out.result.partial
        finally:
            cluster.close()

    @SETTINGS
    @given(seed=st.integers(0, 2**20), n=st.integers(min_value=4, max_value=14))
    def test_replication_alone_changes_nothing(self, seed, n):
        """k=2 with no faults: byte-for-byte the replica-free answer."""
        plain = SimCluster(3)
        oids = load_random_graph(plain, seed, n)
        oracle = plain.run_query(CLOSURE, [oids[0]]).result.oid_keys()
        plain.close()

        cluster = SimCluster(3, config=ClusterConfig(replication=ReplicationConfig(k=2)))
        load_random_graph(cluster, seed, n)
        cluster.replicate_all()
        out = cluster.run_query(CLOSURE, [oids[0]])
        cluster.close()
        assert out.result.oid_keys() == oracle
        assert not out.result.partial
