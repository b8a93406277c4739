"""Tests for site summaries and the per-node cache state machine."""

import pytest

from repro.cache import CacheConfig, NodeCache, build_summary, closure_pointer_key
from repro.cache.bloom import oid_token
from repro.core.oid import Oid
from repro.core.parser import parse_query
from repro.core.program import compile_query
from repro.core.tuples import keyword_tuple, pointer_tuple
from repro.engine.items import WorkItem
from repro.naming.directory import ForwardingTable
from repro.net.messages import QueryId
from repro.server.stats import NodeStats
from repro.storage.memstore import MemStore

QID = QueryId(1, "site0")
CONFIG = CacheConfig(bloom_bits=2048, bloom_hashes=3)


def populated_store(site="site1", n=5, pointer_key="Ref"):
    """A store of ``n`` keyworded objects where only even ones point."""
    store = MemStore(site)
    oids = [store.create([keyword_tuple("K")]).oid for _ in range(n)]
    for i in range(0, n - 1, 2):
        store.replace(
            store.get(oids[i]).with_tuple(pointer_tuple(pointer_key, oids[i + 1]))
        )
    return store, oids


def prog(text):
    return compile_query(parse_query(text))


class TestClosurePointerKey:
    """Only the canonical closure shape has a summarised pointer key."""

    def test_canonical_shape_matches(self):
        p = prog('Root [ (Pointer, "Tree", ?X) ^^X ]* (Rand10p, 5, ?) -> T')
        assert closure_pointer_key(p) == "Tree"

    @pytest.mark.parametrize(
        "text",
        [
            'Root [ (Pointer,"Tree",?X) ^^X ]^3 (Rand10p,5,?) -> T',
            'Root [ (Pointer,"Tree",?X) ^X ]* (Rand10p,5,?) -> T',
            'Root (Rand10p,5,?) -> T',
            'Root [ (Pointer,"Tree",?X) ^^X ]* (Rand10p,?,?) -> T',
            'Root [ (Pointer,"Tree",?X) ^^X ]* (Rand10p,5,?) (Common,0,?) -> T',
        ],
        ids=["bounded", "drops_source", "no_loop", "open_key", "extra_filter"],
    )
    def test_rejects(self, text):
        assert closure_pointer_key(prog(text)) is None


class TestBuildSummary:
    def test_holdings_cover_store(self):
        store, oids = populated_store()
        summary = build_summary(
            "site1", store.epoch, store, ForwardingTable("site1"), ("Ref",), CONFIG
        )
        assert summary.site == "site1"
        assert summary.forward_count == 0
        for oid in oids:
            assert summary.holdings.might_contain(oid_token(oid.key()))

    def test_reach_filter_separates_leaves(self):
        store, oids = populated_store(n=5)
        summary = build_summary(
            "site1", store.epoch, store, ForwardingTable("site1"), ("Ref",), CONFIG
        )
        reach = summary.reach["Ref"]
        assert reach.might_contain(oid_token(oids[0].key()))  # has a pointer
        # oids[1] is a pure leaf; with 2048 bits and 3 tokens added the
        # false-positive probability is negligible.
        assert not reach.might_contain(oid_token(oids[1].key()))

    def test_forwarded_objects_stay_in_holdings(self):
        store, oids = populated_store()
        table = ForwardingTable("site1")
        gone = store.remove(oids[2])
        table.record(gone.oid, "site2")
        summary = build_summary(
            "site1", store.epoch, store, table, (), CONFIG
        )
        assert summary.forward_count == 1
        assert summary.holdings.might_contain(oid_token(oids[2].key()))

    def test_alloc_high_tracks_minted_ids(self):
        store, oids = populated_store(n=5)
        summary = build_summary(
            "site1", store.epoch, store, ForwardingTable("site1"), (), CONFIG
        )
        assert summary.alloc_high == 5
        # Removal frees the id forever; the mark never moves back down.
        store.remove(oids[4])
        summary = build_summary(
            "site1", store.epoch, store, ForwardingTable("site1"), (), CONFIG
        )
        assert summary.alloc_high == 5

    def test_wire_size_counts_filters(self):
        store, _ = populated_store()
        summary = build_summary(
            "site1", store.epoch, store, ForwardingTable("site1"), ("Ref",), CONFIG
        )
        assert summary.wire_size() >= 2 * (CONFIG.bloom_bits // 8)


class TestNodeCacheSummaries:
    def make(self, site="site0"):
        return NodeCache(site, CONFIG, NodeStats())

    def summary_of(self, store, keys=("Ref",), forwarding=None):
        return build_summary(
            store.site,
            store.epoch,
            store,
            forwarding or ForwardingTable(store.site),
            keys,
            CONFIG,
        )

    def test_record_and_lookup(self):
        cache = self.make()
        store, _ = populated_store()
        summary = self.summary_of(store)
        cache.record_summary(summary)
        assert cache.summary_for("site1") is summary
        assert cache.stats.summaries_received == 1

    def test_newer_epoch_invalidates_summary(self):
        cache = self.make()
        store, _ = populated_store()
        summary = self.summary_of(store)
        cache.record_summary(summary)
        store.create([keyword_tuple("K")])  # bump the peer's epoch...
        cache.observe_epoch("site1", store.epoch)  # ...and observe it
        assert cache.summary_for("site1") is None

    def test_stale_summary_not_recorded(self):
        cache = self.make()
        store, _ = populated_store()
        stale = self.summary_of(store)
        store.create([keyword_tuple("K")])
        cache.observe_epoch("site1", store.epoch)
        cache.record_summary(stale)  # arrives after the newer epoch
        assert cache.summary_for("site1") is None


class TestSuppression:
    def setup_peer(self, cache, n=5):
        store, oids = populated_store("site1", n=n)
        summary = build_summary(
            "site1", store.epoch, store, ForwardingTable("site1"), ("Ref",), CONFIG
        )
        cache.record_summary(summary)
        # An envelope from site1 during this query vouches for the epoch.
        cache.confirm_epoch(QID, "site1", store.epoch)
        return store, oids

    def test_destroyed_oid_suppressed_without_confirmation(self):
        # Rule A is monotone: a destroyed object (id below the summary's
        # allocation mark, absent from holdings, never forwarded) can
        # never exist again, so no same-query epoch witness is needed.
        cache = NodeCache("site0", CONFIG, NodeStats())
        store, oids = populated_store("site1")
        store.remove(oids[4])
        summary = build_summary(
            "site1", store.epoch, store, ForwardingTable("site1"), ("Ref",), CONFIG
        )
        cache.record_summary(summary)
        ghost = WorkItem(oid=oids[4], start=1)
        assert cache.should_suppress(QID, "site1", ghost, None)

    def test_never_minted_id_not_suppressed_unconfirmed(self):
        # An id at or above the allocation mark is outside the summary's
        # testimony — the site may have created it since the snapshot —
        # so without a same-query epoch witness nothing may suppress it.
        cache = NodeCache("site0", CONFIG, NodeStats())
        store, _ = populated_store("site1")
        summary = build_summary(
            "site1", store.epoch, store, ForwardingTable("site1"), ("Ref",), CONFIG
        )
        cache.record_summary(summary)
        future = WorkItem(oid=Oid("site1", 999), start=1)
        assert not cache.should_suppress(QID, "site1", future, None)
        assert not cache.should_suppress(QID, "site1", future, "Ref")
        # With the epoch confirmed this query, the store provably hasn't
        # changed since the snapshot, and rule B may fire after all.
        cache.confirm_epoch(QID, "site1", store.epoch)
        assert cache.should_suppress(QID, "site1", future, "Ref")

    def test_held_oid_not_suppressed(self):
        cache = NodeCache("site0", CONFIG, NodeStats())
        _, oids = self.setup_peer(cache)
        item = WorkItem(oid=oids[0], start=1)
        assert not cache.should_suppress(QID, "site1", item, None)

    def test_leaf_suppressed_only_for_closure_key(self):
        cache = NodeCache("site0", CONFIG, NodeStats())
        _, oids = self.setup_peer(cache)
        leaf = WorkItem(oid=oids[1], start=1)  # held, but no outgoing Ref
        assert cache.should_suppress(QID, "site1", leaf, "Ref")
        # Without a closure pointer key rule B cannot apply.
        assert not cache.should_suppress(QID, "site1", leaf, None)
        # An unknown pointer key has no reach filter: no suppression.
        assert not cache.should_suppress(QID, "site1", leaf, "Other")

    def test_non_birth_site_never_suppressed(self):
        cache = NodeCache("site0", CONFIG, NodeStats())
        self.setup_peer(cache)
        migrant = WorkItem(
            oid=Oid(
                "site2", 1, presumed_site="site1"
            ),
            start=1,
        )
        assert not cache.should_suppress(QID, "site1", migrant, "Ref")

    def test_forwarding_site_never_suppressed(self):
        cache = NodeCache("site0", CONFIG, NodeStats())
        store, oids = populated_store("site1")
        table = ForwardingTable("site1")
        gone = store.remove(oids[0])
        table.record(gone.oid, "site2")
        summary = build_summary(
            "site1", store.epoch, store, table, ("Ref",), CONFIG
        )
        cache.record_summary(summary)
        cache.confirm_epoch(QID, "site1", store.epoch)
        ghost = WorkItem(oid=oids[2], start=1)  # removed *and* forwarded
        assert not cache.should_suppress(QID, "site1", ghost, "Ref")

    def test_no_summary_no_suppression(self):
        cache = NodeCache("site0", CONFIG, NodeStats())
        item = WorkItem(oid=Oid("site1", 1), start=1)
        assert not cache.should_suppress(QID, "site1", item, "Ref")

    def test_summaries_disabled_no_suppression(self):
        config = CacheConfig(summaries=False)
        cache = NodeCache("site0", config, NodeStats())
        store, _ = populated_store("site1")
        # With summaries off nothing is recorded and nothing suppressed.
        item = WorkItem(oid=Oid("site1", 999), start=1)
        assert not cache.should_suppress(QID, "site1", item, "Ref")

    def test_leaf_rule_requires_same_query_confirmation(self):
        # Rule B is not monotone (replace() can grow a leaf pointers), so
        # a summary alone is not enough: without a same-query envelope
        # witnessing the peer's epoch, the leaf may have sprouted since.
        cache = NodeCache("site0", CONFIG, NodeStats())
        store, oids = populated_store("site1")
        summary = build_summary(
            "site1", store.epoch, store, ForwardingTable("site1"), ("Ref",), CONFIG
        )
        cache.record_summary(summary)
        leaf = WorkItem(oid=oids[1], start=1)
        assert not cache.should_suppress(QID, "site1", leaf, "Ref")
        # A witness from a *different* query does not vouch for this one.
        other = QueryId(2, "site0")
        cache.confirm_epoch(other, "site1", store.epoch)
        assert not cache.should_suppress(QID, "site1", leaf, "Ref")
        cache.confirm_epoch(QID, "site1", store.epoch)
        assert cache.should_suppress(QID, "site1", leaf, "Ref")

    def test_confirmation_cleared_when_query_ends(self):
        cache = NodeCache("site0", CONFIG, NodeStats())
        store, oids = populated_store("site1")
        summary = build_summary(
            "site1", store.epoch, store, ForwardingTable("site1"), ("Ref",), CONFIG
        )
        cache.record_summary(summary)
        cache.confirm_epoch(QID, "site1", store.epoch)
        leaf = WorkItem(oid=oids[1], start=1)
        assert cache.should_suppress(QID, "site1", leaf, "Ref")
        cache.drop_query(QID)
        # The next run of the same query id needs a fresh witness.
        assert not cache.should_suppress(QID, "site1", leaf, "Ref")


class TestLateTrafficLeavesNoState:
    def test_late_results_for_retired_queries_record_no_epoch(self):
        """A caching originator retires its queries; ten result batches
        that arrive afterwards, each stamped with its sender's epoch,
        leave no freshness witness behind."""
        from repro.net.messages import Envelope, ResultBatch
        from repro.server.node import ServerNode

        store = MemStore("site0")
        root = store.create([keyword_tuple("K")])
        node = ServerNode("site0", store, caching=CONFIG)
        qids = [QueryId(i, "site0") for i in range(1, 11)]
        for qid in qids:
            node.submit(qid, prog('S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'), [root.oid])
            node.run_to_idle()
            node._retire_context(qid)
        for qid in qids:
            node.on_message(Envelope("site1", "site0", ResultBatch(qid, term={}), src_epoch=7))
        node.run_to_idle()
        assert node.stats.late_messages == 10
        assert node._cache._confirmed == {}


class TestQueryCache:
    def test_footprint_validates_epochs(self):
        from repro.core.parser import parse_query
        from repro.core.program import compile_query

        cache = NodeCache("site0", CONFIG, NodeStats())
        program = compile_query(parse_query('S (Keyword,"K",?) -> T'))
        store, oids = populated_store("site0")
        key = cache.query_key(program, (WorkItem(oid=oids[0], start=1),))
        cache.begin_query(QID)
        cache.note_result_dep(QID, "site1", 4)
        cache.store_query(QID, key, store.epoch, (oids[0],), ())
        cache.observe_epoch("site1", 4)
        hit = cache.lookup_query(key, store.epoch)
        assert hit is not None and hit.oids == (oids[0],)
        # Local epoch moved: the entry is dropped.
        assert cache.lookup_query(key, store.epoch + 1) is None
        assert cache.lookup_query(key, store.epoch) is None

    def test_dependency_epoch_invalidates(self):
        from repro.core.parser import parse_query
        from repro.core.program import compile_query

        cache = NodeCache("site0", CONFIG, NodeStats())
        program = compile_query(parse_query('S (Keyword,"K",?) -> T'))
        store, oids = populated_store("site0")
        key = cache.query_key(program, (WorkItem(oid=oids[0], start=1),))
        cache.begin_query(QID)
        cache.note_result_dep(QID, "site1", 4)
        cache.store_query(QID, key, store.epoch, (oids[0],), ())
        cache.observe_epoch("site1", 4)
        assert cache.lookup_query(key, store.epoch) is not None
        cache.observe_epoch("site1", 5)  # the peer mutated
        assert cache.lookup_query(key, store.epoch) is None

    def test_poisoned_footprint_not_cached(self):
        from repro.core.parser import parse_query
        from repro.core.program import compile_query

        cache = NodeCache("site0", CONFIG, NodeStats())
        program = compile_query(parse_query('S (Keyword,"K",?) -> T'))
        store, oids = populated_store("site0")
        key = cache.query_key(program, (WorkItem(oid=oids[0], start=1),))
        cache.begin_query(QID)
        cache.note_result_dep(QID, "site1", 4)
        cache.note_result_dep(QID, "site1", 5)  # ambiguous mid-query epoch
        cache.store_query(QID, key, store.epoch, (oids[0],), ())
        cache.observe_epoch("site1", 5)
        assert cache.lookup_query(key, store.epoch) is None

    def test_seed_order_matters(self):
        from repro.core.parser import parse_query
        from repro.core.program import compile_query

        cache = NodeCache("site0", CONFIG, NodeStats())
        program = compile_query(parse_query('S (Keyword,"K",?) -> T'))
        _, oids = populated_store("site0")
        a = WorkItem(oid=oids[0], start=1)
        b = WorkItem(oid=oids[1], start=1)
        assert cache.query_key(program, (a, b)) != cache.query_key(program, (b, a))
