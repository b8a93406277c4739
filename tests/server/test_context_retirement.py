"""Originator-driven context retirement: late traffic, reused ids, follow-ups.

The lifetime rule under test (docs/ALGORITHMS.md §contexts): a query's
originator retires it — at completion or deadline expiry — into a window
of the last ``RECENT_QUERIES`` finished queries and tells the sites that
took part to drop their contexts; whatever still arrives for a retired
query is counted late and answered with another ``PurgeContext``.
"""

import time
from fractions import Fraction

import pytest

from repro.api import credit_deficit
from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core.oid import Oid
from repro.core.parser import parse_query
from repro.core.program import compile_query
from repro.core.tuples import keyword_tuple, pointer_tuple
from repro.engine.items import WorkItem
from repro.errors import ResultSetRetired
from repro.net.messages import (
    ControlMessage,
    DerefRequest,
    Envelope,
    PurgeContext,
    QueryId,
    ResultBatch,
    Undeliverable,
)
from repro.net.threaded import ThreadedCluster
from repro.server.context import RECENT_QUERIES
from repro.server.node import ServerNode
from repro.storage.memstore import MemStore
from repro.workload import WorkloadSpec, build_graph, generate_into_cluster, traversal_only_query

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'


def prog():
    return compile_query(parse_query(CLOSURE))


def purges(report):
    return [(env.dst, env.payload) for env in report.outgoing if isinstance(env.payload, PurgeContext)]


def worker_with_context(qid, credit=Fraction(1, 4), inc=None):
    """A site1 node that ran (and drained) one work item for ``qid``."""
    store = MemStore("site1")
    node = ServerNode("site1", store)
    obj = store.create([keyword_tuple("K")])
    store.replace(store.get(obj.oid).with_tuple(pointer_tuple("Ref", obj.oid)))
    term = {"credit": credit}
    if inc is not None:
        term["#inc"] = inc
    node.on_message(
        Envelope("site0", "site1", DerefRequest(qid, prog(), WorkItem(oid=obj.oid, start=1), term))
    )
    node.run_to_idle()
    assert qid in node.contexts
    return node, obj


class TestLateTrafficAtTheOriginator:
    def test_result_for_an_evicted_query_is_late_and_purges_the_sender(self):
        node = ServerNode("site0", MemStore("site0"))
        qid = QueryId(9, "site0")  # ours, and long gone
        node.on_message(Envelope("site1", "site0", ResultBatch(qid, term={"credit": Fraction(1, 2)})))
        report = node.run_to_idle()
        assert node.stats.late_messages == 1
        assert purges(report) == [("site1", PurgeContext(qid))]
        assert qid not in node.contexts

    def test_result_after_completion_purges_the_sender_again(self):
        # The straggler case: a participant context resurrected after the
        # completion purge drains a result home; the reply frees it.
        store = MemStore("site0")
        node = ServerNode("site0", store)
        obj = store.create([keyword_tuple("K")])
        store.replace(store.get(obj.oid).with_tuple(pointer_tuple("Ref", obj.oid)))
        qid = QueryId(1, "site0")
        node.submit(qid, prog(), [obj.oid])
        node.run_to_idle()
        assert node.contexts[qid].done
        node.on_message(Envelope("site2", "site0", ResultBatch(qid, term={"credit": Fraction(1, 8)})))
        report = node.run_to_idle()
        assert node.stats.late_messages == 1
        assert purges(report) == [("site2", PurgeContext(qid))]

    def test_control_for_a_retired_context_never_raises(self):
        # Originator: late + purge reply.  Participant: late, dropped.
        for site, replies in (("site0", 1), ("site1", 0)):
            node = ServerNode(site, MemStore(site))
            node.on_message(Envelope("site2", site, ControlMessage(QueryId(3, "site0"), "ack", 1)))
            report = node.run_to_idle()
            assert node.stats.late_messages == 1
            assert len(purges(report)) == replies

    def test_bounce_for_a_retired_context_never_raises(self):
        node = ServerNode("site1", MemStore("site1"))
        qid = QueryId(3, "site0")
        lost = Envelope(
            "site1", "site2",
            DerefRequest(qid, prog(), WorkItem(oid=Oid("site2", 1), start=1), {"credit": Fraction(1, 2)}),
        )
        node.on_message(Envelope("site2", "site1", Undeliverable(lost)))
        report = node.run_to_idle()
        assert node.stats.late_messages == 1
        assert report.outgoing == []

    def test_straggling_work_cannot_resurrect_an_originator_context(self):
        node = ServerNode("site0", MemStore("site0"))
        qid = QueryId(9, "site0")
        node.on_message(
            Envelope(
                "site1", "site0",
                DerefRequest(qid, prog(), WorkItem(oid=Oid("site0", 1), start=1), {"credit": Fraction(1, 2)}),
            )
        )
        node.run_to_idle()
        assert node.stats.late_messages == 1
        assert qid not in node.contexts and node.stats.contexts_created == 0


class TestPurgeAtTheParticipant:
    def test_purge_retires_a_busy_context(self):
        qid = QueryId(7, "site0")
        node, obj = worker_with_context(qid)
        other = node.store.create([keyword_tuple("K")])
        for target in (obj.oid, other.oid):  # two items: one step leaves one pending
            node.on_message(
                Envelope(
                    "site0", "site1",
                    DerefRequest(qid, prog(), WorkItem(oid=target, start=1, iters=((1, 2),)),
                                 {"credit": Fraction(1, 16)}),
                )
            )
        for _ in range(3):  # two receives, one object
            node.step()
        assert node.contexts[qid].busy and node.has_work
        node.on_message(Envelope("site0", "site1", PurgeContext(qid)))
        assert qid not in node.contexts
        assert not node.has_work and node.work_depth == 0
        assert node.stats.contexts_retired == 1
        assert node.stats.messages_received["PurgeContext"] == 1

    def test_stale_purge_cannot_kill_a_reruns_context(self):
        qid = QueryId(7, "site0")
        node, _ = worker_with_context(qid, inc=2)
        node.on_message(Envelope("site0", "site1", PurgeContext(qid, 1)))
        assert node.contexts[qid].incarnation == 2
        node.on_message(Envelope("site0", "site1", PurgeContext(qid, 2)))
        assert qid not in node.contexts

    def test_work_for_a_purged_run_is_dropped_not_walked_again(self):
        # A deadline-expired cyclic closure leaves work in flight after the
        # purge; re-creating the context would walk the cycle again forever.
        qid = QueryId(7, "site0")
        node, obj = worker_with_context(qid)
        node.on_message(Envelope("site0", "site1", PurgeContext(qid)))
        straggler = DerefRequest(qid, prog(), WorkItem(oid=obj.oid, start=1), {"credit": Fraction(1, 8)})
        node.on_message(Envelope("site2", "site1", straggler))
        report = node.run_to_idle()
        assert qid not in node.contexts and report.outgoing == []
        assert node.stats.late_messages == 1 and node.stats.contexts_created == 1
        rerun = DerefRequest(qid, prog(), WorkItem(oid=obj.oid, start=1), {"credit": Fraction(1, 8), "#inc": 2})
        node.on_message(Envelope("site0", "site1", rerun))
        node.run_to_idle()
        assert node.stats.contexts_created == 2  # a rerun of the id is new work

    def test_purge_at_the_originator_is_ignored(self):
        store = MemStore("site0")
        node = ServerNode("site0", store)
        qid = QueryId(1, "site0")
        node.submit(qid, prog(), [store.create([keyword_tuple("K")]).oid])
        node.on_message(Envelope("site1", "site0", PurgeContext(qid)))
        assert qid in node.contexts


class TestReusedIdAfterRetirement:
    def test_reuse_inside_the_window_bumps_the_incarnation(self):
        store = MemStore("site0")
        node = ServerNode("site0", store)
        root = store.create([keyword_tuple("K"), pointer_tuple("Ref", Oid("site1", 1))])
        qid = QueryId(1, "site0")
        node.submit(qid, prog(), [root.oid])
        node.run_to_idle()
        node.expire_query(qid)
        assert qid in node._recent and qid not in node._drain_order.queue
        report = node.submit(qid, prog(), [root.oid])
        report.outgoing += node.run_to_idle().outgoing
        assert node.contexts[qid].incarnation == 2
        assert qid not in node._recent  # alive again
        stamped = [e.payload.term["#inc"] for e in report.outgoing if isinstance(e.payload, DerefRequest)]
        assert stamped == [2]


    def test_reuse_after_the_window_evicted_it_completes_with_exact_credit(self):
        # site1 remembers the purged first run and drops its work; the
        # originator, whose context for the id is long gone, must not start
        # the new run under that same incarnation.
        stores = {site: MemStore(site) for site in ("site0", "site1")}
        nodes = {site: ServerNode(site, store) for site, store in stores.items()}
        far = stores["site1"].create([keyword_tuple("K")])
        stores["site1"].replace(stores["site1"].get(far.oid).with_tuple(pointer_tuple("Ref", far.oid)))
        root = stores["site0"].create([keyword_tuple("K"), pointer_tuple("Ref", far.oid)])
        here = stores["site0"].create([keyword_tuple("K")])
        stores["site0"].replace(stores["site0"].get(here.oid).with_tuple(pointer_tuple("Ref", here.oid)))
        qid = QueryId(1, "site0")

        def run(seq_qid, oid):
            queue = list(nodes["site0"].submit(seq_qid, prog(), [oid]).outgoing)
            queue += nodes["site0"].run_to_idle().outgoing
            while queue:
                env = queue.pop(0)
                nodes[env.dst].on_message(env)
                queue += nodes[env.dst].run_to_idle().outgoing
            return nodes["site0"].contexts[seq_qid]

        assert run(qid, root.oid).final.oid_keys() == {root.oid.key(), far.oid.key()}
        assert nodes["site1"].stats.contexts_retired == 1  # purged at completion
        for seq in range(2, RECENT_QUERIES + 3):
            run(QueryId(seq, "site0"), here.oid)
        assert qid not in nodes["site0"].contexts  # evicted from the window
        again = run(qid, root.oid)
        assert again.done and not again.final.partial
        assert again.final.oid_keys() == {root.oid.key(), far.oid.key()}
        assert again.incarnation == 2 and credit_deficit(nodes, qid) == 0
        assert nodes["site1"].stats.late_messages == 0


class TestOriginatorWindow:
    def test_window_keeps_the_last_finished_queries_only(self):
        store = MemStore("site0")
        node = ServerNode("site0", store)
        obj = store.create([keyword_tuple("K")])
        store.replace(store.get(obj.oid).with_tuple(pointer_tuple("Ref", obj.oid)))
        for seq in range(1, RECENT_QUERIES + 6):
            node.submit(QueryId(seq, "site0"), prog(), [obj.oid])
            node.run_to_idle()
        assert len(node.contexts) == RECENT_QUERIES == len(node._recent)
        assert QueryId(5, "site0") not in node.contexts
        assert QueryId(6, "site0") in node.contexts
        assert node.stats.contexts_created - node.stats.contexts_retired == RECENT_QUERIES
        assert len(node._drain_order.queue) == 0


class TestWorkAccounting:
    @pytest.mark.parametrize("result_mode", ["ship", "count"])
    def test_counters_equal_a_scan_of_the_contexts_after_every_event(self, result_mode):
        """``has_work`` / ``work_depth`` read counters; the scan they
        replaced is the oracle, checked after every simulator event of a
        run with concurrent, deadline-expired and purged queries."""
        cluster = SimCluster(3, config=ClusterConfig(result_mode=result_mode))
        workload = generate_into_cluster(cluster, SPEC, build_graph(n=60))
        query = traversal_only_query("Rand05")
        qids = [
            cluster.submit(query, [workload.root], originator=site, deadline_s=deadline)
            for site, deadline in (("site0", None), ("site1", 0.4), ("site2", None), ("site0", 0.9))
        ]
        events = 0
        while cluster.sim.step():
            events += 1
            for node in cluster.nodes.values():
                contexts = node.contexts.values()
                assert node._busy == sum(1 for ctx in contexts if ctx.busy)
                assert node._pending == sum(ctx.execution.pending for ctx in contexts)
        assert events > 500 and all(cluster.outcome(q) is not None for q in qids)
        assert cluster.outcome(qids[1]).result.partial


def two_phase_chain(cluster, tail=400):
    """site0 root -> site1 hop -> site0 hop -> a long chain on site1: site1
    drains once (so the originator knows it took part) and is then busy
    for ``tail`` objects."""
    s0, s1 = cluster.store("site0"), cluster.store("site1")
    chain = [s1.create([keyword_tuple("K")]).oid for _ in range(tail)]
    for here, there in zip(chain, chain[1:] + chain[-1:]):
        s1.replace(s1.get(here).with_tuple(pointer_tuple("Ref", there)))
    back = s0.create([keyword_tuple("K"), pointer_tuple("Ref", chain[0])])
    hop = s1.create([keyword_tuple("K"), pointer_tuple("Ref", back.oid)])
    root = s0.create([keyword_tuple("K"), pointer_tuple("Ref", hop.oid)])
    return root.oid, tail + 3


class TestDeadlineWithBusyParticipants:
    def test_sim_expiry_abandons_the_participants_pending_work(self):
        cluster = SimCluster(2)
        root, total = two_phase_chain(cluster)
        qid = cluster.submit(CLOSURE, [root], deadline_s=1.0)
        outcome = cluster.wait(qid)
        assert outcome.result.partial and outcome.partial_reason == "deadline"
        cluster.run()  # quiesce
        site1 = cluster.node("site1")
        assert qid not in site1.contexts
        assert not site1.has_work and site1.work_depth == 0
        assert cluster.total_stats().objects_processed < total  # the tail was dropped
        assert qid in cluster.node("site0").contexts  # the recent window
        assert credit_deficit(cluster.nodes, qid) == 0
        # Healthy afterwards: the same query, given time, is complete.
        again = cluster.run_query(CLOSURE, [root])
        assert not again.result.partial and len(again.result.oids) == total

    def test_sim_participant_unknown_to_the_originator_is_purged_by_its_late_result(self):
        # One long chain on site1: it has not drained when the deadline
        # fires, so the originator cannot name it; its eventual result
        # is late and the reply purge frees it.
        cluster = SimCluster(2)
        s0, s1 = cluster.store("site0"), cluster.store("site1")
        chain = [s1.create([keyword_tuple("K")]).oid for _ in range(200)]
        for here, there in zip(chain, chain[1:] + chain[-1:]):
            s1.replace(s1.get(here).with_tuple(pointer_tuple("Ref", there)))
        root = s0.create([keyword_tuple("K"), pointer_tuple("Ref", chain[0])])
        qid = cluster.submit(CLOSURE, [root.oid], deadline_s=0.5)
        assert cluster.wait(qid).result.partial
        cluster.run()
        assert cluster.node("site0").stats.late_messages >= 1
        assert qid not in cluster.node("site1").contexts
        assert cluster.total_stats().messages_sent["PurgeContext"] == 1

    def test_threaded_expiry_leaves_no_context_and_no_dead_thread(self):
        with ThreadedCluster(2) as cluster:
            root, total = two_phase_chain(cluster, tail=4000)
            outcome = cluster.run_query(CLOSURE, [root], deadline_s=0.02, timeout_s=30.0)
            assert outcome.result.partial
            site1 = cluster.node("site1")
            for _ in range(600):  # quiesce: late result + reply purge, or the busy purge
                if outcome.qid not in site1.contexts and not site1.has_work:
                    break
                time.sleep(0.01)
            assert outcome.qid not in site1.contexts
            assert all(t.thread.is_alive() for t in cluster._loops.values())
            assert credit_deficit(cluster.nodes, outcome.qid) == 0
            again = cluster.run_query(CLOSURE, [root], timeout_s=30.0)
            assert not again.result.partial and len(again.result.oids) == total


SPEC = WorkloadSpec(n_objects=60)


class TestFollowupLease:
    def build(self, **fields):
        cluster = SimCluster(3, config=ClusterConfig(**fields))
        return cluster, generate_into_cluster(cluster, SPEC, build_graph(n=60))

    def test_followup_inside_the_window_then_typed_error_outside_it(self):
        cluster, workload = self.build(result_mode="count")
        query = traversal_only_query("Tree")
        first = cluster.run_query(query, [workload.root])
        inside = cluster.run_followup("T (Rand10p, 5, ?) -> U", first.qid)
        assert inside.partition_counts is not None
        # The follow-up renewed first's lease; RECENT_QUERIES further
        # completions (the follow-up itself was the first) push it out.
        for _ in range(RECENT_QUERIES - 2):
            cluster.run_query(query, [workload.root])
        assert first.qid in cluster.node("site0").contexts
        cluster.run_query(query, [workload.root])
        cluster.run()
        assert all(first.qid not in node.contexts for node in cluster.nodes.values())
        assert cluster.total_stats().messages_sent["PurgeContext"] >= 2
        with pytest.raises(ResultSetRetired):
            cluster.run_followup("T (Rand10p, 5, ?) -> U", first.qid)
        assert not cluster._inflight  # the refused follow-up left nothing in flight

    def test_ship_mode_has_no_distributed_set_to_follow_up_on(self):
        cluster, workload = self.build()
        first = cluster.run_query(traversal_only_query("Tree"), [workload.root])
        with pytest.raises(ResultSetRetired):
            cluster.run_followup("T (Rand10p, 5, ?) -> U", first.qid)
