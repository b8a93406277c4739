"""Tests for the comms batching & coalescing layer (repro.net.batching).

Three levels: the :class:`SendBatcher` data structure alone, the wire
codec for the batched frames, and batching wired into full simulated
clusters — where the contract is "same results, fewer messages".
"""

import pytest

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core.oid import Oid
from repro.core.parser import parse_query
from repro.core.program import compile_query
from repro.core.tuples import keyword_tuple, pointer_tuple
from repro.engine.items import WorkItem
from repro.engine.marktable import MarkTable
from repro.faults import FaultPlan
from repro.net.batching import BatchConfig, SendBatcher, item_key
from repro.net.codec import decode_message, encode_message
from repro.net.messages import BatchedQuery, BatchedResults, QueryId, ResultBatch

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'
PROGRAM = compile_query(parse_query(CLOSURE))
QID = QueryId(1, "site0")


def build_chain(cluster, length=24):
    """A pointer chain striped across all sites; every object keyworded.

    Worst case for coalescing: one remote pointer is discovered at a
    time, so every batch queue flushes with a single item.
    """
    stores = [cluster.store(s) for s in cluster.sites]
    oids = []
    for i in range(length):
        oids.append(stores[i % len(stores)].create([keyword_tuple("K")]).oid)
    for i in range(length - 1):
        store = stores[i % len(stores)]
        store.replace(store.get(oids[i]).with_tuple(pointer_tuple("Ref", oids[i + 1])))
    last = stores[(length - 1) % len(stores)]
    last.replace(last.get(oids[-1]).with_tuple(pointer_tuple("Ref", oids[-1])))
    return oids


def build_fanout(cluster, children=24):
    """Best case for coalescing: one root bursts pointers to ``children``
    objects striped across every site, so each destination's send queue
    fills before the working set drains."""
    stores = [cluster.store(s) for s in cluster.sites]
    kids = []
    for i in range(children):
        store = stores[i % len(stores)]
        kid = store.create([keyword_tuple("K")])
        store.replace(kid.with_tuple(pointer_tuple("Ref", kid.oid)))
        kids.append(kid.oid)
    root = stores[0].create(
        [keyword_tuple("K")] + [pointer_tuple("Ref", kid) for kid in kids]
    ).oid
    return root, [root] + kids


def make_item(oid):
    return WorkItem(oid=oid, start=1)


class TestBatchConfig:
    def test_defaults_enable_batching(self):
        assert BatchConfig().enabled
        assert BatchConfig().max_batch == 8

    def test_max_batch_one_disables(self):
        assert not BatchConfig(max_batch=1).enabled
        assert BatchConfig(max_batch=1, linger_s=0.01).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(max_batch=0)
        with pytest.raises(ValueError):
            BatchConfig(linger_s=-1.0)


class TestSendBatcher:
    def _oids(self, cluster, n=6):
        store = cluster.store("site0")
        return [store.create([keyword_tuple("K")]).oid for _ in range(n)]

    def test_enqueue_take_roundtrip(self):
        cluster = SimCluster(2)
        oids = self._oids(cluster)
        batcher = SendBatcher(BatchConfig(max_batch=8))
        for i, oid in enumerate(oids):
            n = batcher.enqueue_work(QID, "site1", make_item(oid), {"w": i}, now=0.0)
            assert n == i + 1
        items, terms, spans, tried = batcher.take_work(QID, "site1")
        assert [it.oid for it in items] == oids
        assert [t["w"] for t in terms] == list(range(len(oids)))
        assert spans == (None,) * len(oids)
        assert tried == ()
        # Taking drains the queue.
        assert batcher.take_work(QID, "site1") == ((), (), (), ())
        assert not batcher.has_pending

    def test_sent_set_dedup_and_forget(self):
        cluster = SimCluster(2)
        oid = self._oids(cluster, 1)[0]
        batcher = SendBatcher(BatchConfig())
        item = make_item(oid)
        assert not batcher.already_sent(QID, "site1", item)
        batcher.record_sent(QID, "site1", item)
        assert batcher.already_sent(QID, "site1", item)
        # Same oid to a different destination is not deduped.
        assert not batcher.already_sent(QID, "site2", item)
        batcher.forget_sent(QID, "site1", [item])
        assert not batcher.already_sent(QID, "site1", item)

    def test_remote_mark_hints(self):
        cluster = SimCluster(2)
        oid = self._oids(cluster, 1)[0]
        batcher = SendBatcher(BatchConfig())
        hint = (oid.key(), (1,))
        batcher.record_remote_marks(QID, "site1", [hint])
        assert batcher.known_marked(QID, "site1", oid.key(), (1,))
        assert not batcher.known_marked(QID, "site1", oid.key(), (2,))
        assert not batcher.known_marked(QID, "site2", oid.key(), (1,))

    def _marked_table(self, n=5):
        """A MarkTable whose journal holds ``n`` distinct entries."""
        table = MarkTable()
        table.enable_journal()
        for i in range(n):
            table.mark(Oid("site0", i), 1)
        return table, list(table.journal)

    def test_take_hints_cursor_never_resends(self):
        batcher = SendBatcher(BatchConfig(hint_cap=2))
        table, journal = self._marked_table()
        assert batcher.take_hints(QID, "site1", table) == tuple(journal[0:2])
        assert batcher.take_hints(QID, "site1", table) == tuple(journal[2:4])
        assert batcher.take_hints(QID, "site1", table) == tuple(journal[4:5])
        assert batcher.take_hints(QID, "site1", table) == ()

    def test_take_hints_independent_destinations(self):
        batcher = SendBatcher(BatchConfig(hint_cap=2))
        table, journal = self._marked_table()
        # The first flush to site1 trims behind its own cursor (no other
        # destination is known yet), so site2's first flush starts at the
        # trim point — a skipped hint only costs a redundant message.
        assert batcher.take_hints(QID, "site1", table) == tuple(journal[0:2])
        assert batcher.take_hints(QID, "site2", table) == tuple(journal[2:4])
        # From here both cursors are known: every entry still owed to one
        # of them is retained until both have been offered it.
        assert batcher.take_hints(QID, "site1", table) == tuple(journal[2:4])
        assert batcher.take_hints(QID, "site2", table) == tuple(journal[4:5])
        assert batcher.take_hints(QID, "site1", table) == tuple(journal[4:5])
        assert batcher.take_hints(QID, "site1", table) == ()
        assert batcher.take_hints(QID, "site2", table) == ()

    def test_take_hints_trims_journal(self):
        """Satellite regression: the mark journal must not grow without
        bound across flushes — consumed entries are trimmed once every
        destination's hint cursor has passed them."""
        batcher = SendBatcher(BatchConfig(hint_cap=4))
        table = MarkTable()
        table.enable_journal()
        shipped = []
        for round_no in range(64):
            for i in range(4):
                table.mark(Oid("site0", round_no * 4 + i), 1)
            shipped.extend(batcher.take_hints(QID, "site1", table))
            # Retained tail stays bounded by the cap, not the history.
            assert len(table.journal) <= 4
        assert len(shipped) == 64 * 4
        assert len(set(shipped)) == 64 * 4  # nothing resent, nothing lost
        assert table.journal_len == 64 * 4  # absolute length still counts

    def test_take_hints_late_destination_skips_trimmed(self):
        """A destination first flushed after trimming starts at the trim
        point — missing hints are harmless (they only save messages)."""
        batcher = SendBatcher(BatchConfig(hint_cap=8))
        table, journal = self._marked_table()
        assert batcher.take_hints(QID, "site1", table) == tuple(journal)
        assert len(table.journal) == 0  # fully trimmed
        assert batcher.take_hints(QID, "site2", table) == ()
        # New marks flow to both destinations again.
        table.mark(Oid("site0", 99), 1)
        new = list(table.journal)
        assert batcher.take_hints(QID, "site2", table) == tuple(new)
        assert batcher.take_hints(QID, "site1", table) == tuple(new)

    def test_due_work_respects_linger(self):
        cluster = SimCluster(2)
        oid = self._oids(cluster, 1)[0]
        batcher = SendBatcher(BatchConfig(max_batch=8, linger_s=1.0))
        batcher.enqueue_work(QID, "site1", make_item(oid), {}, now=10.0)
        assert batcher.due_work(now=10.5) == []
        assert batcher.due_work(now=11.0) == [(QID, "site1")]

    def test_drop_query_clears_everything(self):
        cluster = SimCluster(2)
        oids = self._oids(cluster, 3)
        batcher = SendBatcher(BatchConfig())
        for oid in oids:
            batcher.enqueue_work(QID, "site1", make_item(oid), {}, now=0.0)
            batcher.record_sent(QID, "site1", make_item(oid))
        batcher.record_remote_marks(QID, "site1", [(oids[0].key(), (1,))])
        assert batcher.drop_query(QID) == 3
        assert not batcher.has_pending
        assert not batcher.already_sent(QID, "site1", make_item(oids[0]))

    def test_item_key_is_exact(self):
        cluster = SimCluster(2)
        oid = self._oids(cluster, 1)[0]
        assert item_key(WorkItem(oid=oid, start=1)) != item_key(WorkItem(oid=oid, start=2))


class TestBatchedFrameCodec:
    def test_batched_query_round_trip(self):
        cluster = SimCluster(2)
        store = cluster.store("site0")
        oids = [store.create([keyword_tuple("K")]).oid for _ in range(3)]
        msg = BatchedQuery(
            QID,
            PROGRAM,
            items=tuple(make_item(o) for o in oids),
            terms=({"weight": (1, 2)}, {"weight": (1, 4)}, {"weight": (1, 8)}),
            marked_hints=((oids[0].key(), (1,)),),
        )
        decoded = decode_message(encode_message(msg))
        assert isinstance(decoded, BatchedQuery)
        assert decoded.qid == msg.qid
        assert [it.oid for it in decoded.items] == oids
        assert decoded.terms == msg.terms
        assert decoded.marked_hints == msg.marked_hints

    def test_batched_results_round_trip(self):
        cluster = SimCluster(2)
        store = cluster.store("site0")
        oids = tuple(store.create([keyword_tuple("K")]).oid for _ in range(2))
        msg = BatchedResults(
            batches=(
                ResultBatch(QID, oids=oids, emissions=(), term={"weight": (1, 2)}),
                ResultBatch(QID, oids=(), emissions=(("title", "X"),), term={}),
            )
        )
        decoded = decode_message(encode_message(msg))
        assert isinstance(decoded, BatchedResults)
        assert decoded.qid == QID
        assert decoded.batches[0].oids == oids
        assert decoded.batches[1].emissions == (("title", "X"),)

    def test_batched_query_requires_items(self):
        with pytest.raises(ValueError):
            BatchedQuery(QID, PROGRAM, items=(), terms=())


class TestClusterBatching:
    def test_same_results_fewer_messages(self):
        """The headline contract: on a fan-out workload batching changes
        message counts, never the result set."""
        plain = SimCluster(3)
        batched = SimCluster(3, config=ClusterConfig(batching=BatchConfig(max_batch=8)))
        root_p, all_p = build_fanout(plain)
        root_b, all_b = build_fanout(batched)
        out_p = plain.run_query(CLOSURE, [root_p])
        out_b = batched.run_query(CLOSURE, [root_b])
        assert out_p.result.oid_keys() == out_b.result.oid_keys()
        assert out_b.result.oid_keys() == {o.key() for o in all_b}
        assert batched.network.messages_delivered < plain.network.messages_delivered
        stats = batched.total_stats()
        assert stats.batched_items > 0
        assert stats.batch_flushes_size + stats.batch_flushes_drain + stats.batch_flushes_idle > 0

    def test_threshold_one_is_bit_identical(self):
        """max_batch=1 must reproduce the unbatched figures exactly —
        same messages, same bytes, same virtual response time."""
        plain = SimCluster(3)
        degenerate = SimCluster(3, config=ClusterConfig(batching=BatchConfig(max_batch=1)))
        oids_p = build_chain(plain)
        oids_d = build_chain(degenerate)
        out_p = plain.run_query(CLOSURE, [oids_p[0]])
        out_d = degenerate.run_query(CLOSURE, [oids_d[0]])
        assert out_p.result.oid_keys() == out_d.result.oid_keys()
        assert out_p.response_time == out_d.response_time
        assert plain.network.messages_delivered == degenerate.network.messages_delivered
        assert plain.network.bytes_delivered == degenerate.network.bytes_delivered
        assert degenerate.total_stats().batched_items == 0

    def test_chain_with_nothing_to_coalesce_stays_bit_identical(self):
        """A pure chain discovers one remote pointer at a time, so every
        flush is a singleton — which ships as a plain DerefRequest.  An
        *enabled* batcher must therefore reproduce the unbatched figures
        exactly on this workload (hints are piggyback-only)."""
        plain = SimCluster(3)
        batched = SimCluster(3, config=ClusterConfig(batching=BatchConfig(max_batch=8)))
        oids_p = build_chain(plain, 30)
        oids_b = build_chain(batched, 30)
        out_p = plain.run_query(CLOSURE, [oids_p[0]])
        out_b = batched.run_query(CLOSURE, [oids_b[0]])
        assert out_p.result.oid_keys() == out_b.result.oid_keys()
        assert out_b.response_time == out_p.response_time
        assert batched.network.messages_delivered == plain.network.messages_delivered
        assert batched.network.bytes_delivered == plain.network.bytes_delivered
        assert batched.total_stats().batched_items == 0

    def test_batched_response_time_better_on_fanout(self):
        plain = SimCluster(3)
        batched = SimCluster(3, config=ClusterConfig(batching=BatchConfig(max_batch=8)))
        root_p, _ = build_fanout(plain, 30)
        root_b, _ = build_fanout(batched, 30)
        rt_plain = plain.run_query(CLOSURE, [root_p]).response_time
        rt_batched = batched.run_query(CLOSURE, [root_b]).response_time
        assert rt_batched < rt_plain

    def test_sent_set_suppression_counts(self):
        """A diamond graph re-discovers the same remote pointer twice;
        the sent-set suppresses the second send entirely."""
        cluster = SimCluster(2, config=ClusterConfig(batching=BatchConfig(max_batch=8)))
        s0, s1 = cluster.store("site0"), cluster.store("site1")
        shared = s1.create([keyword_tuple("K")])
        s1.replace(shared.with_tuple(pointer_tuple("Ref", shared.oid)))
        left = s0.create([pointer_tuple("Ref", shared.oid), keyword_tuple("K")])
        right = s0.create([pointer_tuple("Ref", shared.oid), keyword_tuple("K")])
        root = s0.create(
            [pointer_tuple("Ref", left.oid), pointer_tuple("Ref", right.oid), keyword_tuple("K")]
        )
        out = cluster.run_query(CLOSURE, [root.oid])
        assert shared.oid.key() in out.result.oid_keys()
        assert cluster.total_stats().sends_suppressed >= 1

    def test_batching_with_down_site_still_terminates(self):
        cluster = SimCluster(3, config=ClusterConfig(batching=BatchConfig(max_batch=8)))
        oids = build_chain(cluster)
        cluster.set_down("site1")
        out = cluster.run_query(CLOSURE, [oids[0]])
        # The down site's branch is written off; the query still ends.
        assert len(out.result.oid_keys()) < len(oids)

    def test_batching_under_chaos_with_reliable_channel(self):
        """A retransmitted batch must dedup as a unit: full results and
        exact credit conservation under drop/duplicate/reorder chaos."""
        from fractions import Fraction

        cluster = SimCluster(
            3,
            config=ClusterConfig(
                fault_plan=FaultPlan(seed=7, drop=0.15, duplicate=0.1, reorder=0.2),
                reliable=True,
                batching=BatchConfig(max_batch=4),
            ),
        )
        oids = build_chain(cluster)
        qid = cluster.submit(CLOSURE, [oids[0]])
        out = cluster.wait(qid)
        assert out.result.oid_keys() == {o.key() for o in oids}
        ctx = cluster.node(qid.originator).contexts[qid]
        assert ctx.term_state.recovered == Fraction(1)

    def test_deadline_expiry_drops_pending_batches(self):
        cluster = SimCluster(
            3,
            config=ClusterConfig(
                fault_plan=FaultPlan(seed=1, drop=1.0),
                batching=BatchConfig(max_batch=8),
            ),
        )
        oids = build_chain(cluster)
        out = cluster.run_query(CLOSURE, [oids[0]], deadline_s=0.5)
        assert out.result.partial

    def test_mark_hints_can_be_disabled(self):
        cluster = SimCluster(3, config=ClusterConfig(batching=BatchConfig(max_batch=8, mark_hints=False)))
        oids = build_chain(cluster)
        out = cluster.run_query(CLOSURE, [oids[0]])
        assert out.result.oid_keys() == {o.key() for o in oids}

    def test_tracer_records_batch_events(self):
        from repro.tracing import QueryTracer

        cluster = SimCluster(3, config=ClusterConfig(batching=BatchConfig(max_batch=4)))
        root, _ = build_fanout(cluster)
        tracer = QueryTracer(kinds=["batch_flush", "batch_recv"])
        cluster.attach_tracer(tracer)
        cluster.run_query(CLOSURE, [root])
        assert tracer.count("batch_flush") > 0
        assert tracer.count("batch_recv") > 0


class TestWallClockBatching:
    def test_threaded_cluster_batched_results_match(self):
        from repro.net.threaded import ThreadedCluster

        with ThreadedCluster(3, config=ClusterConfig(batching=BatchConfig(max_batch=4))) as cluster:
            root, everything = build_fanout(cluster)
            out = cluster.run_query(PROGRAM, [root])
            assert out.result.oid_keys() == {o.key() for o in everything}
            assert cluster.total_stats().batched_items > 0

    @pytest.mark.parametrize("transport", ["threaded", "async"])
    def test_linger_timer_flushes_the_queues_of_a_busy_site(self, transport):
        """The root's site walks its 500 local children long past the
        linger window; its queued remote work leaves on the timer, not
        at the drain, and the answer is exact."""
        from repro.api import make_cluster

        config = ClusterConfig(batching=BatchConfig(max_batch=10_000, linger_s=0.001))
        with make_cluster(transport, 3, config=config) as cluster:
            root, everything = build_fanout(cluster, children=1500)
            out = cluster.run_query(PROGRAM, [root])
            assert out.result.oid_keys() == {o.key() for o in everything}
            assert cluster.total_stats().batch_flushes_timer > 0

    def test_no_linger_arms_no_timer(self):
        from repro.net.threaded import ThreadedCluster

        with ThreadedCluster(3, config=ClusterConfig(batching=BatchConfig(max_batch=4))) as cluster:
            root, everything = build_fanout(cluster)
            assert cluster.run_query(PROGRAM, [root]).result.oid_keys() == {o.key() for o in everything}
            assert cluster._timers is None
            assert not any(loop.runtime.armed for loop in cluster._loops.values())

    def test_async_cluster_batched_frames_cross_the_wire(self):
        from repro.net.asyncio_cluster import AsyncCluster

        with AsyncCluster(3, config=ClusterConfig(batching=BatchConfig(max_batch=4))) as cluster:
            root, everything = build_fanout(cluster)
            out = cluster.run_query(PROGRAM, [root])
            assert out.result.oid_keys() == {o.key() for o in everything}
            assert cluster.total_stats().batched_items > 0
