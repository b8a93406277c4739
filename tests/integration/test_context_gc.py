"""Query-context retirement: every deployment frees a query's contexts when
its originator finishes it, and a site's per-query cost does not depend on
how many queries it has served.

Deterministic, on the simulator: retention is counted, cost is a count of
Python calls (exact on sim), and answers, request counts and virtual
response times are compared with literals recorded at the parent commit
(where contexts were kept for ever) for one seed.
"""

import hashlib
import sys

import pytest

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.core.program import compile_query
from repro.core.parser import parse_query
from repro.engine.local import run_local
from repro.server.context import RECENT_QUERIES
from repro.storage.memstore import MemStore
from repro.workload import WorkloadSpec, build_graph, generate_into_cluster, query_script

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'


def build(cluster):
    s0, s1, s2 = (cluster.store(s) for s in cluster.sites)
    d = s0.create([keyword_tuple("K")])
    s0.replace(s0.get(d.oid).with_tuple(pointer_tuple("Ref", d.oid)))
    c = s2.create([pointer_tuple("Ref", d.oid)])
    b = s1.create([pointer_tuple("Ref", c.oid), keyword_tuple("K")])
    a = s0.create([pointer_tuple("Ref", b.oid), keyword_tuple("K")])
    return a.oid


class TestContextGC:
    def test_participant_contexts_purged(self):
        cluster = SimCluster(3)
        seed = build(cluster)
        outcome = cluster.run_query(CLOSURE, [seed])
        cluster.run()  # let the purge messages land
        assert outcome.qid not in cluster.node("site1").contexts
        assert outcome.qid not in cluster.node("site2").contexts
        # The originator keeps it in its recently-finished window.
        assert outcome.qid in cluster.node("site0").contexts
        assert cluster.total_stats().contexts_retired == 2

    def test_purge_messages_counted(self):
        cluster = SimCluster(3)
        seed = build(cluster)
        cluster.run_query(CLOSURE, [seed])
        cluster.run()
        assert cluster.total_stats().messages_sent.get("PurgeContext") == 2
        assert cluster.total_stats().messages_received.get("PurgeContext") == 2

    def test_count_mode_keeps_contexts_for_distributed_sets(self):
        cluster = SimCluster(3, config=ClusterConfig(result_mode="count"))
        seed = build(cluster)
        outcome = cluster.run_query(CLOSURE, [seed])
        cluster.run()
        assert outcome.qid in cluster.node("site1").contexts
        assert "PurgeContext" not in cluster.total_stats().messages_sent

    def test_gc_does_not_change_results(self):
        cluster = SimCluster(3)
        seed = build(cluster)
        local = MemStore("solo")
        for store in cluster.stores.values():
            for obj in store.objects():
                local.put(obj)
        expected = run_local(compile_query(parse_query(CLOSURE)), [seed], local.get)
        for _ in range(3):  # the same answer whatever was purged before
            outcome = cluster.run_query(CLOSURE, [seed])
            cluster.run()
            assert outcome.result.oid_keys() == expected.oid_keys()

    def test_repeat_queries_rebuild_contexts(self):
        cluster = SimCluster(3)
        seed = build(cluster)
        first = cluster.run_query(CLOSURE, [seed])
        cluster.run()
        second = cluster.run_query(CLOSURE, [seed])
        assert second.result.oid_keys() == first.result.oid_keys()
        # Each run created (and then freed) fresh participant contexts.
        assert cluster.node("site1").stats.contexts_created == 2

    def test_purge_costs_no_virtual_time(self):
        # Retirement is outside the paper's cost model: the second run of
        # the same query takes exactly as long as the first, although the
        # first one's purges were sent and handled in between.
        cluster = SimCluster(3)
        seed = build(cluster)
        first = cluster.run_query(CLOSURE, [seed])
        busy = cluster.total_stats().busy_seconds
        cluster.run()
        assert cluster.total_stats().busy_seconds == busy
        second = cluster.run_query(CLOSURE, [seed])
        assert second.response_time == pytest.approx(first.response_time, rel=1e-12)


# -- 300 queries: retention, flatness, and the parent commit's numbers ---------

N_QUERIES = 300
SPEC = WorkloadSpec(n_objects=90)
#: Recorded at the parent commit (68b9f23) by running ``script()`` below:
#: sha256 over (sorted answer keys, response_time.hex()) of every query.
PARENT_DIGEST = "3ad58e515b4e3518af55453e290a0491c544bf4a484c73af02dcd9f793e427e5"
PARENT_DEREF_REQUESTS = 1800
PARENT_RESULT_BATCHES = 600
PARENT_FINAL_CLOCK = "0x1.bfc45cd69ab68p+7"


def script():
    queries = query_script("Tree", "Rand10p", count=N_QUERIES, seed=7, spec=SPEC)
    queries[N_QUERIES - 1] = queries[29]  # the two probes run the same query
    return queries


def count_calls(fn):
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


@pytest.fixture(scope="module")
def long_run():
    cluster = SimCluster(3)
    db = generate_into_cluster(cluster, SPEC, build_graph(n=90))
    digest = hashlib.sha256()
    calls = {}
    for number, query in enumerate(script(), start=1):
        run = lambda: cluster.run_query(query, [db.root])
        if number in (30, N_QUERIES):
            outcome, calls[number] = count_calls(run)
        else:
            outcome = run()
        digest.update(
            repr((sorted(outcome.result.oid_keys()), outcome.response_time.hex())).encode()
        )
    return cluster, digest.hexdigest(), calls, cluster.sim.now


class TestFlatPerQueryCost:
    def test_retention_is_bounded_by_the_constant(self, long_run):
        cluster = long_run[0]
        cluster.run()
        assert sum(len(node.contexts) for node in cluster.nodes.values()) == RECENT_QUERIES
        for node in cluster.nodes.values():
            assert len(node._drain_order.queue) == 0  # nothing alive: every slot was given back
            assert node._busy == 0 and node._pending == 0
        stats = cluster.total_stats()
        assert stats.contexts_created - stats.contexts_retired == RECENT_QUERIES
        assert len(cluster._outcomes) == RECENT_QUERIES
        assert not cluster._inflight

    def test_query_300_costs_what_query_30_did(self, long_run):
        calls = long_run[2]
        assert abs(calls[N_QUERIES] - calls[30]) <= 0.02 * calls[30], calls

    def test_answers_requests_and_virtual_times_match_parent_commit(self, long_run):
        cluster, digest, _, finished_at = long_run
        stats = cluster.total_stats()
        assert stats.messages_sent["DerefRequest"] == PARENT_DEREF_REQUESTS
        assert stats.messages_sent["ResultBatch"] == PARENT_RESULT_BATCHES
        assert digest == PARENT_DIGEST
        assert finished_at.hex() == PARENT_FINAL_CLOCK

    def test_qos_rotation_deques_are_bounded_too(self):
        from repro.config import ClusterConfig
        from repro.qos import QoSConfig

        cluster = SimCluster(3, config=ClusterConfig(qos=QoSConfig()))
        seed = build(cluster)
        for i in range(RECENT_QUERIES + 8):
            cluster.run_query(CLOSURE, [seed], priority=("interactive", "batch")[i % 2])
        cluster.run()
        for node in cluster.nodes.values():
            assert all(len(rr.queue) == 0 for rr in node._drain_order.classes.values())
        assert sum(len(n.contexts) for n in cluster.nodes.values()) == RECENT_QUERIES
