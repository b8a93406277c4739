"""Membership regression pins: three specific failure modes found while
building the dynamic-membership plane, each frozen into a test.

1. A departing originator must be refused at ``submit`` with the typed
   :class:`~repro.errors.SiteDeparted` — on the simulator and on the
   wall-clock transports alike — because a query whose answer has no
   live destination would otherwise hang until the deadline.
2. In process mode, a directory lookup can race the parent's REPL_DIR
   broadcast after a rebalance; routing must stay correct (via the
   ``tried``-exclusion failover) with zero termination-credit deficit.
3. When a site crashes permanently mid-query with credit in hand, the
   flight recorder dumps and :class:`~repro.errors.TerminationLost`
   attributes the loss to the dead site, not the originator.
"""

import pytest

from repro.api import make_cluster
from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.errors import SiteDeparted, TerminationLost
from repro.membership import MembershipConfig
from repro.replication import ReplicationConfig
from repro.tracing import FlightRecorderConfig

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'

MEMB_CONFIG = ClusterConfig(
    replication=ReplicationConfig(k=2), membership=MembershipConfig()
)


def build_chain(cluster, length=12):
    stores = [cluster.store(s) for s in cluster.sites]
    oids = []
    for i in range(length):
        oids.append(stores[i % len(stores)].create([keyword_tuple("K")]).oid)
    for i in range(length - 1):
        store = stores[i % len(stores)]
        store.replace(store.get(oids[i]).with_tuple(pointer_tuple("Ref", oids[i + 1])))
    return oids


class TestDepartedOriginatorIsRefused:
    def test_sim_submit_raises_site_departed(self):
        with SimCluster(3, config=MEMB_CONFIG) as cluster:
            oids = build_chain(cluster)
            cluster.replicate_all()
            cluster.leave_site("site1")
            with pytest.raises(SiteDeparted):
                cluster.submit(CLOSURE, [oids[0]], originator="site1")
            # The refusal is typed and actionable, not a hang: the same
            # query from a live originator still completes.
            out = cluster.run_query(CLOSURE, [oids[0]])
            assert not out.result.partial

    def test_wall_clock_submit_raises_site_departed(self):
        cluster = make_cluster("threaded", 3, config=MEMB_CONFIG)
        try:
            oids = build_chain(cluster)
            cluster.replicate_all()
            cluster.leave_site("site2")
            with pytest.raises(SiteDeparted):
                cluster.submit(CLOSURE, [oids[0]], originator="site2")
            out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=30.0)
            assert not out.result.partial
        finally:
            cluster.close()

    def test_failed_site_is_refused_too(self):
        with SimCluster(3, config=MEMB_CONFIG) as cluster:
            oids = build_chain(cluster)
            cluster.replicate_all()
            cluster.fail_site("site2")
            with pytest.raises(SiteDeparted):
                cluster.submit(CLOSURE, [oids[0]], originator="site2")


class TestProcessModeDirectoryRace:
    def test_lookup_racing_repl_dir_broadcast_stays_correct(self):
        """Queries submitted immediately after a view change — while the
        REPL_DIR frames carrying the rebalanced directory may still be
        in flight to some children — must return the full result with a
        zero credit deficit (stale lookups fail over, never wedge)."""
        cluster = make_cluster(
            "async", 3, config=MEMB_CONFIG.replace(processes=True)
        )
        try:
            oids = build_chain(cluster)
            cluster.replicate_all()
            expected = cluster.run_query(
                CLOSURE, [oids[0]], timeout_s=30.0
            ).result.oid_keys()

            cluster.leave_site("site1")
            # No settling pause on purpose: this submit races the
            # post-rebalance directory broadcast.
            qid = cluster.submit(CLOSURE, [oids[0]])
            out = cluster.wait(qid, timeout_s=30.0)
            assert out.result.oid_keys() == expected
            assert not out.result.partial
            assert cluster.credit_deficit(qid) == 0

            cluster.join_site("site1")
            qid = cluster.submit(CLOSURE, [oids[0]])
            out = cluster.wait(qid, timeout_s=30.0)
            assert out.result.oid_keys() == expected
            assert cluster.credit_deficit(qid) == 0
        finally:
            cluster.close()


class TestCrashDuringRebalanceAttribution:
    def _run_until_busy(self, cluster, victim, qid):
        node = cluster.nodes[victim]
        for _ in range(50_000):
            if any(ctx.busy for ctx in node.contexts.values()):
                return True
            if qid in cluster._outcomes or not cluster.sim.step():
                return False
        return False

    def test_flight_recorder_dump_names_the_dead_site(self):
        """A permanent crash while the victim holds live contexts loses
        that credit for good; ``wait`` must raise ``TerminationLost``
        with ``site`` naming the dead machine, and the flight recorder
        must have dumped the pre-crash ring for the postmortem."""
        config = MEMB_CONFIG.replace(
            flight_recorder=FlightRecorderConfig(capacity=512)
        )
        with SimCluster(3, config=config) as cluster:
            oids = build_chain(cluster, length=18)
            # k=2 keeps the *data* alive, so the failure mode pinned here
            # is purely the in-flight credit dying with the machine.
            cluster.replicate_all()
            qid = cluster.submit(CLOSURE, [oids[0]])
            assert self._run_until_busy(cluster, "site1", qid), (
                "scenario setup: site1 never got busy — lengthen the chain"
            )
            cluster.fail_site("site1")
            with pytest.raises(TerminationLost) as excinfo:
                cluster.wait(qid)
            assert excinfo.value.site == "site1"
            # The ledger reading can legitimately be zero (what died with
            # the machine may be the completion report rather than raw
            # credit); the contract pinned here is the *attribution*.
            assert excinfo.value.deficit is not None
            assert cluster.flight_recorder.dump_reasons[-1] == "termination_lost"
            assert cluster.flight_recorder.last_dump, "dump captured no events"
            # The rebalance that the crash triggered is in the artifact.
            kinds = {e.kind for e in cluster.flight_recorder.last_dump}
            assert "member" in kinds
