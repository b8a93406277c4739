"""End-to-end tests of the cross-query caching layer on a cluster.

Each test exercises one cache layer through the full stack — cluster,
node, engine, transport — and checks both the *benefit* (the counters
that prove the cache fired) and the *contract* (answers identical to an
uncached cluster, credit accounting exact to the last fraction).
"""

from fractions import Fraction

from repro.api import credit_deficit
from repro.cache import CacheConfig
from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.workload import WorkloadSpec, build_graph, closure_query, generate_into_cluster

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'


def star_graph(cluster, spokes=6):
    """A root at site0 pointing at keyworded objects striped over sites.

    Every spoke gets a self-loop: the engine's leaf-drop rule keeps pure
    leaves out of closure results, and these tests want non-trivial
    result sets."""
    stores = [cluster.store(s) for s in cluster.sites]
    targets = []
    for i in range(spokes):
        store = stores[i % len(stores)]
        oid = store.create([keyword_tuple("K")]).oid
        store.replace(store.get(oid).with_tuple(pointer_tuple("Ref", oid)))
        targets.append(oid)
    root = stores[0].create([keyword_tuple("K")])
    obj = stores[0].get(root.oid)
    for t in targets:
        obj = obj.with_tuple(pointer_tuple("Ref", t))
    stores[0].replace(obj)
    return root.oid, targets


def fingerprint(outcome):
    return (
        outcome.result.oid_keys(),
        outcome.result.partial,
        sorted(outcome.result.retrieved),
    )


def total_sent(cluster):
    return sum(node.stats.total_sent for node in cluster.nodes.values())


class TestQueryCache:
    def test_repeated_query_answered_without_messages(self):
        plain = SimCluster(3)
        cached = SimCluster(3, config=ClusterConfig(caching=CacheConfig()))
        root_p, _ = star_graph(plain)
        root_c, _ = star_graph(cached)

        first_p = plain.run_query(CLOSURE, [root_p])
        first_c = cached.run_query(CLOSURE, [root_c])
        assert fingerprint(first_c) == fingerprint(first_p)

        sent_before = total_sent(cached)
        second = cached.run_query(CLOSURE, [root_c])
        assert fingerprint(second) == fingerprint(first_p)
        # The repeat was served at the originator: not one message moved.
        assert total_sent(cached) == sent_before
        assert cached.node("site0").stats.query_cache_hits == 1
        # And it was cheap: a cache probe, not a distributed traversal.
        assert second.response_time < first_c.response_time

    def test_different_seed_is_not_a_hit(self):
        cached = SimCluster(3, config=ClusterConfig(caching=CacheConfig()))
        root, targets = star_graph(cached)
        cached.run_query(CLOSURE, [root])
        cached.run_query(CLOSURE, [targets[0]])
        assert cached.node("site0").stats.query_cache_hits == 0


class TestFragmentCache:
    CFG = CacheConfig(query_cache=False, summaries=False)

    def test_repeat_replays_fragments(self):
        plain = SimCluster(3)
        cached = SimCluster(3, config=ClusterConfig(caching=self.CFG))
        root_p, _ = star_graph(plain)
        root_c, _ = star_graph(cached)

        first = cached.run_query(CLOSURE, [root_c])
        assert sum(n.stats.cache_hits for n in cached.nodes.values()) == 0

        second = cached.run_query(CLOSURE, [root_c])
        reference = plain.run_query(CLOSURE, [root_p])
        assert fingerprint(second) == fingerprint(first) == fingerprint(reference)
        assert sum(n.stats.cache_hits for n in cached.nodes.values()) > 0
        # Replay is cheaper than evaluation in virtual time.
        assert second.response_time < first.response_time

    def test_credit_stays_exact_across_replays(self):
        cached = SimCluster(3, config=ClusterConfig(caching=self.CFG))
        root, _ = star_graph(cached)
        for _ in range(3):
            qid = cached.submit(CLOSURE, [root])
            cached.wait(qid)
            ctx = cached.node(qid.originator).contexts[qid]
            assert ctx.term_state.recovered == Fraction(1)
            assert credit_deficit(cached.nodes, qid) == Fraction(0)


class TestBloomSuppression:
    CFG = CacheConfig(fragments=False, query_cache=False)

    def build(self, cluster):
        """root(site0) -> A(site1) -> D(site0) -> C(site1, leaf).

        In a repeat run, site1's work message (A spawning D) arrives at
        site0 *before* site0 processes D and emits C — so the summary
        received in run 1 is epoch-confirmed for run 2 exactly when the
        leaf send comes up for suppression.
        """
        s0, s1 = cluster.store("site0"), cluster.store("site1")
        c = s1.create([keyword_tuple("K")])  # leaf: no outgoing Ref
        d = s0.create([keyword_tuple("K"), pointer_tuple("Ref", c.oid)])
        a = s1.create([keyword_tuple("K"), pointer_tuple("Ref", d.oid)])
        root = s0.create([keyword_tuple("K"), pointer_tuple("Ref", a.oid)])
        return root.oid

    def test_leaf_send_suppressed_with_exact_credit(self):
        # site1's summary rides back on its result batch mid-query, so
        # the leaf send — which only comes up after site1's spawn message
        # confirmed the epoch — is already suppressed in the first run.
        plain = SimCluster(2)
        cached = SimCluster(2, config=ClusterConfig(caching=self.CFG))
        root_p = self.build(plain)
        root_c = self.build(cached)

        reference = plain.run_query(CLOSURE, [root_p])
        qid = cached.submit(CLOSURE, [root_c])
        first = cached.wait(qid)
        assert fingerprint(first) == fingerprint(reference)
        # Plain site0 ships both A and the leaf C; cached ships only A.
        plain_sent = plain.node("site0").stats.messages_sent["DerefRequest"]
        cached_sent = cached.node("site0").stats.messages_sent["DerefRequest"]
        suppressed = cached.node("site0").stats.sends_suppressed_bloom
        assert suppressed == 1
        assert plain_sent - cached_sent == suppressed
        # The termination ledger never noticed the missing send.
        ctx = cached.node(qid.originator).contexts[qid]
        assert ctx.term_state.recovered == Fraction(1)
        assert credit_deficit(cached.nodes, qid) == Fraction(0)

    def test_suppression_repeats_across_queries(self):
        cached = SimCluster(2, config=ClusterConfig(caching=self.CFG))
        root = self.build(cached)
        first = cached.run_query(CLOSURE, [root])
        second = cached.run_query(CLOSURE, [root])
        assert fingerprint(second) == fingerprint(first)
        # The summary (unchanged epoch) keeps pruning the leaf each run.
        assert cached.node("site0").stats.sends_suppressed_bloom == 2
        # One summary ever shipped: resends of an unchanged summary are
        # themselves suppressed.
        assert cached.node("site1").stats.summaries_sent == 1


class TestEpochInvalidation:
    def test_mutation_is_visible_to_the_next_query(self):
        plain = SimCluster(3)
        cached = SimCluster(3, config=ClusterConfig(caching=CacheConfig()))
        root_p, _ = star_graph(plain)
        root_c, _ = star_graph(cached)
        cached.run_query(CLOSURE, [root_c])  # warm every layer

        def grow(cluster, root):
            s0, s1 = cluster.store("site0"), cluster.store("site1")
            new = s1.create([keyword_tuple("K")])
            s1.replace(s1.get(new.oid).with_tuple(pointer_tuple("Ref", new.oid)))
            s0.replace(s0.get(root).with_tuple(pointer_tuple("Ref", new.oid)))
            return new.oid

        new_p = grow(plain, root_p)
        new_c = grow(cached, root_c)
        out_p = plain.run_query(CLOSURE, [root_p])
        out_c = cached.run_query(CLOSURE, [root_c])
        assert fingerprint(out_c) == fingerprint(out_p)
        assert new_c.key() in out_c.result.oid_keys()
        # The stale whole-query entry was dropped, not served.
        assert cached.node("site0").stats.query_cache_hits == 0

    def test_remote_silent_mutation_coherent_after_any_traffic(self):
        """Epoch propagation is piggybacked: a mutation at a remote site
        that sends us nothing is *not yet observable*, so the whole-query
        cache may serve the pre-mutation answer (bounded staleness, see
        docs/CACHING.md).  The first envelope from the mutated site — any
        traffic, any query — closes the window for good."""
        cached = SimCluster(3, config=ClusterConfig(caching=CacheConfig()))
        root, targets = star_graph(cached)
        baseline = cached.run_query(CLOSURE, [root])

        # Silent remote mutation: grow a spoke at site1 a new keyworded
        # child; site0 (the originator) is not touched and hears nothing.
        s1 = cached.store("site1")
        new = s1.create([keyword_tuple("K")])
        s1.replace(s1.get(new.oid).with_tuple(pointer_tuple("Ref", new.oid)))
        spoke = next(t for t in targets if t.birth_site == "site1")
        s1.replace(s1.get(spoke).with_tuple(pointer_tuple("Ref", new.oid)))

        # Window open: the repeat is a hit and serves the stale answer.
        stale = cached.run_query(CLOSURE, [root])
        assert fingerprint(stale) == fingerprint(baseline)
        assert cached.node("site0").stats.query_cache_hits == 1

        # Any traffic from site1 carries its new epoch...
        other = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"Other",?) -> T'
        cached.run_query(other, [root])

        # ...which invalidates the stale entry: the next repeat recomputes
        # and sees the mutation.
        fresh = cached.run_query(CLOSURE, [root])
        assert cached.node("site0").stats.query_cache_hits == 1
        assert new.oid.key() in fresh.result.oid_keys()

    def test_unchanged_store_keeps_serving_hits(self):
        cached = SimCluster(3, config=ClusterConfig(caching=CacheConfig()))
        root, _ = star_graph(cached)
        cached.run_query(CLOSURE, [root])
        for _ in range(3):
            cached.run_query(CLOSURE, [root])
        assert cached.node("site0").stats.query_cache_hits == 3


class TestCachingOffBitIdentical:
    """``caching=None`` (and an all-features-off config) must leave the
    cluster's behaviour — message mix, bytes, virtual timings —
    indistinguishable from a build without the caching layer."""

    SPEC = WorkloadSpec(n_objects=60)
    GRAPH = build_graph(n=60)
    QUERY = closure_query("Tree", "Rand10p", 5)

    def run(self, caching):
        cluster = SimCluster(3, config=ClusterConfig(caching=caching))
        workload = generate_into_cluster(cluster, self.SPEC, self.GRAPH)
        outcome = cluster.run_query(self.QUERY, [workload.root])
        per_node = {
            site: (
                dict(node.stats.messages_sent),
                node.stats.bytes_sent,
                node.stats.bytes_received,
            )
            for site, node in cluster.nodes.items()
        }
        return fingerprint(outcome), outcome.completed_at, per_node

    def test_disabled_config_matches_no_config(self):
        baseline = self.run(caching=None)
        disabled = self.run(
            caching=CacheConfig(fragments=False, query_cache=False, summaries=False)
        )
        assert disabled == baseline

    def test_enabled_config_changes_only_what_it_claims(self):
        # Sanity check on the comparison itself: with caching *on* the
        # message mix does change (summaries ride along) but the answer
        # does not.
        baseline = self.run(caching=None)
        cached = self.run(caching=CacheConfig())
        assert cached[0] == baseline[0]
