"""End-to-end tests of the distributed-set optimisation (paper §5).

"Each server would send back the number of local result items, rather
than pointers to the items themselves ... The portion of this set at
each site would be used to initialize the working set at that site for
the new query."
"""

import pytest

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.storage.memstore import MemStore
from repro.engine.local import run_local
from repro.core.program import compile_query
from repro.workload import (
    WorkloadSpec,
    build_graph,
    closure_query,
    generate_into_cluster,
    materialize,
    traversal_only_query,
)
from tests.conftest import oid_indices

SPEC = WorkloadSpec(n_objects=90)
GRAPH = build_graph(n=90)


@pytest.fixture
def count_cluster():
    cluster = SimCluster(3, config=ClusterConfig(result_mode="count"))
    workload = generate_into_cluster(cluster, SPEC, GRAPH)
    return cluster, workload


class TestCountMode:
    def test_counts_match_ship_mode_results(self, count_cluster):
        cluster, workload = count_cluster
        query = traversal_only_query("Tree")
        outcome = cluster.run_query(query, [workload.root])
        counted = sum((outcome.partition_counts or {}).values())

        ship = SimCluster(3)
        w2 = generate_into_cluster(ship, SPEC, GRAPH)
        reference = ship.run_query(query, [w2.root])
        assert counted == len(reference.result.oids)

    def test_partitions_reported_per_site(self, count_cluster):
        cluster, workload = count_cluster
        outcome = cluster.run_query(traversal_only_query("Tree"), [workload.root])
        counts = outcome.partition_counts or {}
        assert set(counts) == set(cluster.sites)  # every site holds a share
        assert all(v > 0 for v in counts.values())

    def test_low_selectivity_cheaper_with_counts(self):
        # The optimisation targets exactly this case: huge result sets.
        query = traversal_only_query("Tree")
        times = {}
        for mode in ("ship", "count"):
            cluster = SimCluster(3, config=ClusterConfig(result_mode=mode))
            workload = generate_into_cluster(cluster, SPEC, GRAPH)
            times[mode] = cluster.run_query(query, [workload.root]).response_time
        assert times["count"] < times["ship"]


class TestFollowUpQueries:
    def test_followup_narrows_distributed_set(self, count_cluster):
        cluster, workload = count_cluster
        first = cluster.run_query(traversal_only_query("Tree"), [workload.root])
        followup = cluster.run_followup(
            'T (Rand10p, 5, ?) -> U', first.qid
        )
        # Ground truth: objects in the tree closure carrying Rand10p=5.
        store = MemStore("solo")
        w1 = materialize(SPEC, [store], graph=GRAPH)
        stage2 = run_local(
            compile_query(closure_query("Tree", "Rand10p", 5)), [w1.root], store.get
        )
        measured_count = sum((followup.partition_counts or {}).values())
        assert measured_count == len(stage2.oids)

    def test_followup_ships_no_seed_ids(self, count_cluster):
        cluster, workload = count_cluster
        first = cluster.run_query(traversal_only_query("Tree"), [workload.root])
        before = cluster.total_stats().messages_sent.get("DerefRequest", 0)
        cluster.run_followup('T (Rand10p, 5, ?) -> U', first.qid)
        after = cluster.total_stats().messages_sent.get("DerefRequest", 0)
        # Seeding used SeedFromSaved messages, one per remote site, not a
        # DerefRequest per object.
        assert after == before
        assert cluster.total_stats().messages_sent.get("SeedFromSaved") == 2

    def test_followup_with_no_prior_partition_is_empty(self, count_cluster):
        cluster, workload = count_cluster
        ghost_qid = cluster.run_query('S (Rand10p, 5, ?) -> T', []).qid
        outcome = cluster.run_followup('T (Common, 0, ?) -> U', ghost_qid)
        assert sum((outcome.partition_counts or {}).values()) == 0
