"""Behavioural tests of weighted-fair drain and backpressure.

These run whole queries through :class:`~repro.cluster.SimCluster` so
the scheduler is exercised exactly as deployed — the WFQ credits, the
hysteresis and the envelope piggybacking are internal to the node, and
what must hold externally is service order and result transparency.
"""

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.net.batching import BatchConfig
from repro.qos import QoSConfig

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'


def build_chain(cluster, length=30, sites=None):
    stores = [cluster.store(s) for s in (sites or cluster.sites)]
    oids = []
    for i in range(length):
        oids.append(stores[i % len(stores)].create([keyword_tuple("K")]).oid)
    for i in range(length - 1):
        store = stores[i % len(stores)]
        store.replace(store.get(oids[i]).with_tuple(pointer_tuple("Ref", oids[i + 1])))
    last = stores[(length - 1) % len(stores)]
    last.replace(last.get(oids[-1]).with_tuple(pointer_tuple("Ref", oids[-1])))
    return oids


class TestWeightedFairDrain:
    def test_interactive_overtakes_batch_under_contention(self):
        """A batch query submitted *first* still finishes after an
        interactive one of identical shape: the 4:1 drain share, not
        arrival order, decides who gets the CPU."""
        cluster = SimCluster(1, config=ClusterConfig(qos=QoSConfig()))
        chain_a = build_chain(cluster, 40)
        chain_b = build_chain(cluster, 40)
        batch_qid = cluster.submit(CLOSURE, [chain_a[0]], priority="batch")
        inter_qid = cluster.submit(CLOSURE, [chain_b[0]], priority="interactive")
        batch_out = cluster.wait(batch_qid)
        inter_out = cluster.wait(inter_qid)
        assert inter_out.completed_at < batch_out.completed_at
        assert not batch_out.result.partial  # deprioritised, never dropped

    def test_batch_only_workload_is_work_conserving(self):
        """With no interactive work present, batch queries use the whole
        CPU — the interactive class forfeits its unused credits."""
        cluster = SimCluster(1, config=ClusterConfig(qos=QoSConfig()))
        oids = build_chain(cluster, 20)
        out = cluster.run_query(CLOSURE, [oids[0]], priority="batch")
        assert out.result.oid_keys() == {o.key() for o in oids}

        baseline = SimCluster(1)
        oids = build_chain(baseline, 20)
        base = baseline.run_query(CLOSURE, [oids[0]])
        assert out.response_time == base.response_time

    def test_single_class_matches_legacy_round_robin(self):
        """Two same-class queries interleave exactly as the legacy
        scheduler interleaved them (bit-identical timing)."""
        timings = []
        for qos in (None, QoSConfig()):
            cluster = SimCluster(1, config=ClusterConfig(qos=qos))
            chain_a = build_chain(cluster, 25)
            chain_b = build_chain(cluster, 25)
            qid_a = cluster.submit(CLOSURE, [chain_a[0]])
            qid_b = cluster.submit(CLOSURE, [chain_b[0]])
            timings.append((cluster.wait(qid_a).completed_at, cluster.wait(qid_b).completed_at))
        assert timings[0] == timings[1]


def build_star(cluster, children=24):
    """A root at site0 fanning out to self-looped kids on the other sites."""
    stores = {s: cluster.store(s) for s in cluster.sites}
    kids = []
    for i in range(children):
        site = cluster.sites[1 + i % (len(cluster.sites) - 1)]
        kid = stores[site].create([keyword_tuple("K")])
        stores[site].replace(kid.with_tuple(pointer_tuple("Ref", kid.oid)))
        kids.append(kid.oid)
    root = stores[cluster.sites[0]].create(
        [keyword_tuple("K")] + [pointer_tuple("Ref", k) for k in kids]
    ).oid
    return root, kids


class TestBackpressure:
    def test_pressure_signals_and_results_unchanged(self):
        """Tight watermarks make the fan-in sites signal pressure — but
        the result set never changes (backpressure shapes traffic, it
        never drops work)."""
        qos = QoSConfig(high_watermark=1, low_watermark=0)
        cluster = SimCluster(3, config=ClusterConfig(qos=qos, batching=BatchConfig(max_batch=2)))
        root, kids = build_star(cluster)
        out = cluster.run_query(CLOSURE, [root])
        assert len(out.result.oid_keys()) == len(kids) + 1
        assert not out.result.partial
        stats = cluster.total_stats()
        assert stats.backpressure_transitions > 0
        assert stats.work_shed == 0

    def test_throttled_sends_counted(self):
        """A sender that knows its destinations are pressured defers the
        size flush by ``pressure_batch_factor`` and counts the holds."""
        qos = QoSConfig(high_watermark=1, low_watermark=0, pressure_batch_factor=8)
        cluster = SimCluster(3, config=ClusterConfig(qos=qos, batching=BatchConfig(max_batch=2)))
        root, kids = build_star(cluster)
        # White-box: the origin has already heard pressure bits from both
        # peers (as it would mid-overload); its fan-out must then hold
        # work in 8x batches instead of flushing every 2 items.
        cluster.nodes[cluster.sites[0]].qos.pressured = set(cluster.sites[1:])
        out = cluster.run_query(CLOSURE, [root])
        assert len(out.result.oid_keys()) == len(kids) + 1
        assert not out.result.partial
        assert cluster.total_stats().sends_throttled > 0
