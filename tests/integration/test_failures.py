"""Failure-injection tests: the paper's autonomy requirements, plus the
undeliverable-bounce extension for mid-query failures.

Coverage:

* sends to a site known to be down are abandoned at the sender (both the
  paper's partial-results story and exact termination) — `test_cluster`
  covers the basics; here we add the *in-flight* window:
* a message already on the wire when its destination dies is bounced back
  (`Undeliverable`), the sender's detector re-absorbs the credit/deficit,
  and the query completes with partial results;
* a site dying while *holding* query state (credit, engagement) is not
  recoverable without failure detectors — we assert the weighted detector
  at least survives the common case where the dead site was passive.
"""

import pytest

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.errors import HyperFileError

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'


def build_two_site_hop(cluster):
    """a(site0) -> b(site1); b self-links."""
    s0, s1 = cluster.store("site0"), cluster.store("site1")
    b = s1.create([keyword_tuple("K")])
    s1.replace(s1.get(b.oid).with_tuple(pointer_tuple("Ref", b.oid)))
    a = s0.create([pointer_tuple("Ref", b.oid), keyword_tuple("K")])
    return a.oid, b.oid


def build_striped_chain(cluster, length=30):
    """A chain striped across all sites; every object keyworded."""
    stores = [cluster.store(s) for s in cluster.sites]
    oids = []
    for i in range(length):
        oids.append(stores[i % len(stores)].create([keyword_tuple("K")]).oid)
    for i in range(length - 1):
        store = stores[i % len(stores)]
        store.replace(store.get(oids[i]).with_tuple(pointer_tuple("Ref", oids[i + 1])))
    last_store = stores[(length - 1) % len(stores)]
    last_store.replace(last_store.get(oids[-1]).with_tuple(pointer_tuple("Ref", oids[-1])))
    return oids


class TestInFlightBounce:
    @pytest.mark.parametrize("strategy", ["weighted", "dijkstra-scholten"])
    def test_message_in_flight_to_dying_site_is_recovered(self, strategy):
        cluster = SimCluster(2, config=ClusterConfig(termination=strategy))
        a, b = build_two_site_hop(cluster)
        qid = cluster.submit(CLOSURE, [a])
        # The deref to site1 departs after site0 processes `a` (~38 ms)
        # and lands one latency later (~58 ms).  Kill site1 inside that
        # window: the message is already on the wire.
        cluster.run(until=0.045)
        cluster.set_down("site1")
        outcome = cluster.wait(qid)
        assert outcome.result.oid_keys() == {a.key()}  # partial: b lost
        assert cluster.network.messages_dropped >= 1

    def test_bounce_restores_exact_credit(self):
        from fractions import Fraction

        cluster = SimCluster(2)
        a, b = build_two_site_hop(cluster)
        qid = cluster.submit(CLOSURE, [a])
        cluster.run(until=0.045)
        cluster.set_down("site1")
        cluster.wait(qid)
        ctx = cluster.node("site0").contexts[qid]
        assert ctx.term_state.recovered == Fraction(1)

    def test_bounce_to_dead_sender_is_dropped(self):
        # Both endpoints die: the bounce has nowhere to go and must not
        # crash the simulation (the query is lost with its originator).
        cluster = SimCluster(2)
        a, b = build_two_site_hop(cluster)
        cluster.submit(CLOSURE, [a])
        cluster.run(until=0.045)
        cluster.set_down("site1")
        cluster.set_down("site0")
        cluster.run()  # must quiesce without raising

    def test_sender_dies_after_bounce_is_scheduled(self):
        # Narrower window than the test above: the deref arrives at the
        # dead site1 (~58 ms) and the bounce toward site0 is *already on
        # the wire* when site0 itself dies.  The in-flight bounce must be
        # counted as dropped in _deliver_now, not delivered to a dead
        # host or raised.
        cluster = SimCluster(2)
        a, b = build_two_site_hop(cluster)
        cluster.submit(CLOSURE, [a])
        cluster.run(until=0.045)
        cluster.set_down("site1")       # deref in flight, bounce pending
        cluster.run(until=0.065)        # deref has arrived; bounce scheduled
        dropped_before = cluster.network.messages_dropped
        assert dropped_before >= 1      # the deref itself was dropped
        cluster.set_down("site0")       # sender dies before the bounce lands
        cluster.run()                   # must quiesce without raising
        assert cluster.network.messages_dropped > dropped_before
        # The originator never saw the bounce: its credit stays unrecovered.
        node = cluster.node("site0")
        (ctx,) = node.contexts.values()
        assert not ctx.done


class TestMidQueryCrash:
    def test_weighted_survives_crash_of_passive_site(self):
        # A chain striped over 3 sites: each site drains after every
        # object, so at (almost) any instant the downstream sites hold no
        # credit; killing one mid-query loses its branch but not the
        # query.  8-ish of 30 objects survive in this timing.
        cluster = SimCluster(3)
        oids = build_striped_chain(cluster)
        qid = cluster.submit(CLOSURE, [oids[0]])
        cluster.run(until=0.5)
        cluster.set_down("site2")
        outcome = cluster.wait(qid)
        assert 0 < len(outcome.result.oids) < len(oids)

    def test_results_already_shipped_are_kept(self):
        cluster = SimCluster(3)
        oids = build_striped_chain(cluster)
        qid = cluster.submit(CLOSURE, [oids[0]])
        cluster.run(until=0.5)
        cluster.set_down("site2")
        outcome = cluster.wait(qid)
        # Everything processed before the crash stays in the result —
        # including objects that lived on the dead site.
        dead_site_results = [o for o in outcome.result.oids if o.birth_site == "site2"]
        assert dead_site_results

    def test_crash_of_busy_site_loses_credit_and_is_detected(self):
        # The unrecoverable case: the site dies while holding credit (its
        # working set is non-empty).  The query can never terminate; the
        # cluster surfaces that as an explicit error, not a hang.
        cluster = SimCluster(2)
        a, b = build_two_site_hop(cluster)
        qid = cluster.submit(CLOSURE, [a])
        cluster.run(until=0.070)  # site1 has received the work by now
        cluster.set_down("site1")
        with pytest.raises(HyperFileError, match="termination detector never fired"):
            cluster.wait(qid)
