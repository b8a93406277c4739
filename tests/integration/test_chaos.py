"""Chaos acceptance tests: the reliable channel vs. a lossy network.

The headline contract (docs/FAULTS.md): with the ack/retransmit channel
interposed, a transitive-closure query over a network dropping,
duplicating and reordering messages still terminates with the *full*
result set and exact credit conservation; without it, the same chaos
demonstrably loses credit and the query can never terminate.  Deadlines
bound the damage in the unreliable case, on all three transports.
"""

from fractions import Fraction

import pytest

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.core.parser import parse_query
from repro.core.program import compile_query
from repro.errors import HyperFileError, QueryTimeout
from repro.faults import FaultPlan, ReliableConfig
from repro.net.asyncio_cluster import AsyncCluster
from repro.net.threaded import ThreadedCluster

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'
CLOSURE_PROG = compile_query(parse_query(CLOSURE))

#: Acceptance scenario: every message faces a 15% drop (plus duplicates
#: and reordering) — comfortably above the "at least 10%" bar.
CHAOS = dict(drop=0.15, duplicate=0.1, reorder=0.2, delay_jitter_s=0.005)


def build_chain(cluster, length=30):
    """A pointer chain striped across all sites; every object keyworded."""
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


class TestChaosWithReliableChannel:
    def test_sim_completes_with_full_results(self):
        cluster = SimCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=7, **CHAOS), reliable=True))
        oids = build_chain(cluster)
        outcome = cluster.run_query(CLOSURE, [oids[0]])
        assert outcome.result.oid_keys() == {o.key() for o in oids}
        assert not outcome.result.partial
        # The chaos actually happened and the channel actually worked:
        assert cluster.network.fault_plan.dropped > 0
        assert sum(n.stats.retransmits for n in cluster.nodes.values()) > 0
        assert sum(n.stats.duplicates_dropped for n in cluster.nodes.values()) > 0

    def test_sim_conserves_credit_exactly(self):
        cluster = SimCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=7, **CHAOS), reliable=True))
        oids = build_chain(cluster)
        qid = cluster.submit(CLOSURE, [oids[0]])
        cluster.wait(qid)
        ctx = cluster.node(qid.originator).contexts[qid]
        assert ctx.term_state.recovered == Fraction(1)

    def test_dijkstra_scholten_terminates_under_chaos(self):
        cluster = SimCluster(
            3,
            config=ClusterConfig(
                termination="dijkstra-scholten",
                fault_plan=FaultPlan(seed=7, **CHAOS),
                reliable=True,
            ),
        )
        oids = build_chain(cluster)
        outcome = cluster.run_query(CLOSURE, [oids[0]])
        # DS termination survives chaos; full-result completeness is only
        # guaranteed by the weighted scheme (see docs/FAULTS.md on the
        # ack/result race), so assert termination and a sane result only.
        assert not outcome.result.partial
        assert len(outcome.result.oid_keys()) > 0

    def test_threaded_completes_with_full_results(self):
        plan = FaultPlan(seed=7, **CHAOS)
        with ThreadedCluster(3, config=ClusterConfig(fault_plan=plan, reliable=True)) as cluster:
            oids = build_chain(cluster)
            outcome = cluster.run_query(CLOSURE_PROG, [oids[0]], timeout_s=30.0)
            assert outcome.result.oid_keys() == {o.key() for o in oids}
            assert not outcome.result.partial
            assert plan.dropped > 0

    def test_async_completes_with_full_results(self):
        plan = FaultPlan(seed=11, **CHAOS)
        with AsyncCluster(3, config=ClusterConfig(fault_plan=plan, reliable=True)) as cluster:
            oids = build_chain(cluster)
            outcome = cluster.run_query(CLOSURE_PROG, [oids[0]], timeout_s=30.0)
            assert outcome.result.oid_keys() == {o.key() for o in oids}
            assert not outcome.result.partial
            assert plan.dropped > 0


class TestChaosWithoutReliableChannel:
    def test_sim_hangs_with_lost_credit(self):
        # The *same* scenario minus the channel: dropped work messages
        # take their credit with them, so the detector can never fire —
        # the simulation goes idle and the conservation check shows the
        # originator stuck below full recovery.
        cluster = SimCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=7, **CHAOS)))
        oids = build_chain(cluster)
        qid = cluster.submit(CLOSURE, [oids[0]])
        with pytest.raises(HyperFileError, match="termination detector never fired"):
            cluster.wait(qid)
        ctx = cluster.node(qid.originator).contexts[qid]
        assert ctx.term_state.recovered < Fraction(1)
        assert not ctx.done

    def test_duplicates_alone_break_conservation(self):
        # Duplication without dedup over-recovers credit; the weighted
        # detector notices the protocol violation rather than quietly
        # double-counting.
        from repro.errors import TerminationProtocolError

        cluster = SimCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=3, duplicate=0.5)))
        oids = build_chain(cluster, 12)
        qid = cluster.submit(CLOSURE, [oids[0]])
        with pytest.raises((TerminationProtocolError, HyperFileError)):
            cluster.wait(qid)
            raise HyperFileError("duplicates were not detected")


class TestDeadlines:
    def test_sim_deadline_returns_partial(self):
        cluster = SimCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=1, drop=1.0)))
        oids = build_chain(cluster)
        outcome = cluster.run_query(CLOSURE, [oids[0]], deadline_s=0.5)
        assert outcome.result.partial
        assert len(outcome.result.oid_keys()) >= 1  # the local seed survived
        assert cluster.node("site0").stats.deadline_expiries == 1

    def test_sim_deadline_raise_mode(self):
        cluster = SimCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=1, drop=1.0)))
        oids = build_chain(cluster)
        with pytest.raises(QueryTimeout) as excinfo:
            cluster.run_query(CLOSURE, [oids[0]], deadline_s=0.5, on_deadline="raise")
        assert excinfo.value.result.partial

    def test_sim_deadline_does_not_fire_on_completed_query(self):
        cluster = SimCluster(3)
        oids = build_chain(cluster, 9)
        outcome = cluster.run_query(CLOSURE, [oids[0]], deadline_s=60.0)
        assert not outcome.result.partial
        cluster.run()  # past the would-be deadline: nothing explodes
        assert cluster.node("site0").stats.deadline_expiries == 0

    def test_threaded_deadline_returns_partial(self):
        with ThreadedCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=1, drop=1.0))) as cluster:
            oids = build_chain(cluster)
            outcome = cluster.run_query(
                CLOSURE_PROG, [oids[0]], deadline_s=0.4, timeout_s=10.0
            )
            assert outcome.result.partial

    def test_async_deadline_returns_partial(self):
        with AsyncCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=2, drop=1.0))) as cluster:
            oids = build_chain(cluster)
            outcome = cluster.run_query(
                CLOSURE_PROG, [oids[0]], deadline_s=0.4, timeout_s=10.0
            )
            assert outcome.result.partial

    def test_threaded_deadline_raise_mode(self):
        with ThreadedCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=1, drop=1.0))) as cluster:
            oids = build_chain(cluster)
            with pytest.raises(QueryTimeout):
                cluster.run_query(
                    CLOSURE_PROG, [oids[0]],
                    deadline_s=0.4, timeout_s=10.0, on_deadline="raise",
                )

    def test_deadline_must_be_positive(self):
        cluster = SimCluster(2)
        with pytest.raises(ValueError):
            cluster.submit(CLOSURE, [], deadline_s=0.0)


class TestCrashSchedules:
    def test_sim_scheduled_crash_and_recovery(self):
        # site1 dies mid-query and comes back; the reliable channel keeps
        # retransmitting frames that were in flight at crash time, so the
        # query still terminates cleanly (possibly minus the branch the
        # originator wrote off while site1 was down).
        plan = FaultPlan(seed=5).crash("site1", at=0.05, recover_at=0.4)
        cluster = SimCluster(3, config=ClusterConfig(fault_plan=plan, reliable=True))
        oids = build_chain(cluster)
        outcome = cluster.run_query(CLOSURE, [oids[0]])
        assert not outcome.result.partial
        assert len(outcome.result.oid_keys()) >= 1

    def test_threaded_set_down_set_up_parity(self):
        # ThreadedCluster now mirrors SimCluster's availability API.
        with ThreadedCluster(3) as cluster:
            oids = build_chain(cluster, 12)
            cluster.set_down("site1")
            assert cluster.is_down("site1") and not cluster.is_up("site1")
            partial = cluster.run_query(CLOSURE_PROG, [oids[0]], timeout_s=10.0)
            # The availability oracle writes the branch off: fewer results.
            assert len(partial.result.oid_keys()) < 12
            cluster.set_up("site1")
            full = cluster.run_query(CLOSURE_PROG, [oids[0]], timeout_s=10.0)
            assert full.result.oid_keys() == {o.key() for o in oids}

    def test_threaded_crash_schedule_validates_sites(self):
        with pytest.raises(Exception):
            ThreadedCluster(2, config=ClusterConfig(fault_plan=FaultPlan().crash("nope", at=0.1)))

    def test_unknown_destination_is_recorded_not_raised(self):
        # An envelope to a site that does not exist must not kill the
        # routing thread; it is recorded and (for work messages) bounced.
        from repro.net.messages import Envelope, PurgeContext, QueryId

        with ThreadedCluster(2) as cluster:
            cluster.route(Envelope("site0", "ghost", PurgeContext(QueryId(1, "site0"))))
            assert len(cluster.undeliverable) == 1
            assert cluster.undeliverable[0].dst == "ghost"
            # Threads are all still alive.
            assert all(t.thread.is_alive() for t in cluster._loops.values())
