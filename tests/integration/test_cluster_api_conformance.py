"""ClusterAPI conformance: one scenario script, three transports.

The point of the unified cluster API is that everything above the
transport — sessions, benchmarks, applications — is written once.  These
tests encode that contract directly: every test in this file runs
verbatim against the simulator, the threaded transport, the asyncio
transport *and* the asyncio transport's process-per-site deployment
(``ClusterConfig(processes=True)``), and must behave identically (same
results, same error types, same deadline semantics) on all four.

Clusters are built through the transport registry with a
:class:`~repro.config.ClusterConfig`, so the suite also pins down the
consolidated construction path every transport must accept.
"""

import time

import pytest

from repro.api import ClusterAPI, QueryOutcome, credit_deficit, make_cluster as build_cluster
from repro.config import ClusterConfig
from repro.core.tuples import keyword_tuple, pointer_tuple
from repro.errors import Overloaded, QueryTimeout, ResultSetRetired
from repro.faults import FaultPlan
from repro.qos import QoSConfig
from repro.replication import ReplicationConfig
from repro.server.context import RECENT_QUERIES
from repro.workload import WorkloadSpec, build_graph, generate_into_cluster, traversal_only_query

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'

TRANSPORTS = ("sim", "threaded", "async")

#: The asyncio transport's one-OS-process-per-site deployment.  Not a
#: fourth registry name — the registry builds it from ``transport="async"``
#: with ``ClusterConfig(processes=True)`` — but it IS a fourth way to run
#: every scenario in this file, and the one most likely to regress (no
#: shared memory to lean on).
PROCESS_PARAM = "async+procs"

ALL_PARAMS = (*sorted(TRANSPORTS), PROCESS_PARAM)

#: Generous wall-clock budget for the real transports; the simulator
#: accepts and ignores it (virtual time cannot hang on a live queue).
TIMEOUT = 30.0


def build_param_cluster(param, sites=3, *, config=None):
    if param == PROCESS_PARAM:
        config = (config if config is not None else ClusterConfig()).replace(processes=True)
        return build_cluster("async", sites, config=config)
    return build_cluster(param, sites, config=config)


def deficit_of(cluster, qid):
    """Missing termination credit, transport-agnostically: process mode
    answers over its control channel, everything else from node state."""
    own = getattr(cluster, "credit_deficit", None)
    if callable(own):
        return own(qid)
    return credit_deficit(cluster.nodes, qid)


@pytest.fixture(params=ALL_PARAMS)
def make_cluster(request):
    made = []

    def factory(**kwargs):
        cluster = build_param_cluster(request.param, 3, config=ClusterConfig(**kwargs))
        made.append(cluster)
        return cluster

    yield factory
    for cluster in made:
        cluster.close()


def build_chain(cluster, length=12):
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


class TestProtocolShape:
    def test_every_transport_satisfies_the_protocol(self, make_cluster):
        assert isinstance(make_cluster(), ClusterAPI)

    def test_context_manager(self, make_cluster):
        with make_cluster() as cluster:
            oids = build_chain(cluster, 3)
            out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
            assert len(out.result.oid_keys()) == 3


class TestQueryLifecycle:
    def test_textual_query_full_results(self, make_cluster):
        """Strings compile identically everywhere — no transport needs a
        pre-compiled Program any more."""
        cluster = make_cluster()
        oids = build_chain(cluster)
        out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
        assert isinstance(out, QueryOutcome)
        assert out.result.oid_keys() == {o.key() for o in oids}
        assert not out.result.partial
        assert out.qid.originator == "site0"
        assert out.completed_at >= out.submitted_at
        assert out.response_time >= 0.0

    def test_submit_wait_split_and_outcome_lookup(self, make_cluster):
        cluster = make_cluster()
        oids = build_chain(cluster)
        qid = cluster.submit(CLOSURE, [oids[0]])
        out = cluster.wait(qid, timeout_s=TIMEOUT)
        assert out.result.oid_keys() == {o.key() for o in oids}
        assert cluster.outcome(qid) is out

    def test_total_stats_counts_processing(self, make_cluster):
        cluster = make_cluster()
        oids = build_chain(cluster)
        cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
        assert cluster.total_stats().objects_processed >= len(oids)

    def test_deadline_must_be_positive(self, make_cluster):
        with pytest.raises(ValueError):
            make_cluster().submit(CLOSURE, [], deadline_s=0.0)

    def test_on_deadline_mode_is_validated(self, make_cluster):
        cluster = make_cluster()
        oids = build_chain(cluster, 3)
        with pytest.raises(ValueError):
            cluster.run_query(CLOSURE, [oids[0]], on_deadline="explode")


class TestDeadlineSemantics:
    def test_partial_mode_returns_partial_outcome(self, make_cluster):
        cluster = make_cluster(fault_plan=FaultPlan(seed=1, drop=1.0))
        oids = build_chain(cluster)
        out = cluster.run_query(
            CLOSURE, [oids[0]], deadline_s=0.4, timeout_s=10.0
        )
        assert out.result.partial
        assert len(out.result.oid_keys()) >= 1  # the local seed survived

    def test_raise_mode_raises_with_partial_attached(self, make_cluster):
        cluster = make_cluster(fault_plan=FaultPlan(seed=1, drop=1.0))
        oids = build_chain(cluster)
        with pytest.raises(QueryTimeout) as excinfo:
            cluster.run_query(
                CLOSURE, [oids[0]],
                deadline_s=0.4, timeout_s=10.0, on_deadline="raise",
            )
        assert excinfo.value.result.partial


class TestAvailability:
    def test_set_down_writes_branch_off_and_set_up_restores(self, make_cluster):
        cluster = make_cluster()
        oids = build_chain(cluster)
        cluster.set_down("site1")
        assert cluster.is_down("site1") and not cluster.is_up("site1")
        partial = cluster.run_query(CLOSURE, [oids[0]], timeout_s=10.0)
        assert len(partial.result.oid_keys()) < len(oids)
        cluster.set_up("site1")
        full = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
        assert full.result.oid_keys() == {o.key() for o in oids}


class TestReplication:
    """One scenario, every transport × every placement: the replicated
    deployments must return exactly the replica-free result set, and any
    live replica must be able to serve a dereference when the preferred
    holder is down (k=1 is the replica-free build itself — same code
    path, empty directory)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_replicated_results_match_replica_free(self, make_cluster, k):
        cluster = make_cluster(replication=ReplicationConfig(k=k))
        oids = build_chain(cluster)
        placed = cluster.replicate_all()
        assert placed == (len(oids) if k > 1 else 0)
        out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
        assert out.result.oid_keys() == {o.key() for o in oids}
        assert not out.result.partial

    @pytest.mark.parametrize("k", [2, 3])
    def test_any_live_replica_serves_when_a_holder_is_down(self, make_cluster, k):
        """The availability payoff: with k >= 2 the same crash that costs
        the replica-free build results (see TestAvailability) costs
        nothing — routing anycasts the dereference to a live holder."""
        cluster = make_cluster(replication=ReplicationConfig(k=k))
        oids = build_chain(cluster)
        cluster.replicate_all()
        cluster.set_down("site1")
        out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
        assert out.result.oid_keys() == {o.key() for o in oids}
        assert not out.result.partial
        cluster.set_up("site1")

    def test_migrate_keeps_k_copies_and_results(self, make_cluster):
        cluster = make_cluster(replication=ReplicationConfig(k=2))
        oids = build_chain(cluster)
        cluster.replicate_all()
        moved = cluster.migrate(oids[1], "site2")
        directory = cluster.replication.directory
        sites = directory.sites_of(moved)
        assert sites[0] == "site2" and len(sites) == 2
        out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
        assert out.result.oid_keys() == {o.key() for o in oids}


class TestFollowupQueries:
    def test_count_mode_followup_seeds_from_saved_partition(self, make_cluster):
        cluster = make_cluster(result_mode="count")
        workload = generate_into_cluster(
            cluster, WorkloadSpec(n_objects=60), build_graph(n=60)
        )
        first = cluster.run_query(
            traversal_only_query("Tree"), [workload.root], timeout_s=TIMEOUT
        )
        assert sum((first.partition_counts or {}).values()) > 0
        followup = cluster.run_followup(
            'T (Rand10p, 5, ?) -> U', first.qid, timeout_s=TIMEOUT
        )
        assert followup.partition_counts is not None

    def test_followup_without_a_retained_partition_is_a_typed_error(self, make_cluster):
        # Ship mode purges the sites' partitions at completion: a
        # follow-up must say so, not silently start from nothing.
        cluster = make_cluster()
        oids = build_chain(cluster, 6)
        first = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
        with pytest.raises(ResultSetRetired):
            cluster.run_followup('T (Keyword,"K",?) -> U', first.qid, timeout_s=TIMEOUT)
        # Nothing was left in flight: the cluster still answers.
        again = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
        assert again.result.oid_keys() == first.result.oid_keys()


class TestContextRetirement:
    def test_retained_contexts_are_bounded_by_the_recent_window(self, make_cluster):
        """However many queries a deployment has served, what it holds on
        to is the originator's recently-finished window: every other
        context was purged (contexts created minus contexts retired, so
        process mode answers too)."""
        cluster = make_cluster()
        oids = build_chain(cluster)
        served = RECENT_QUERIES + 20
        outcomes = [
            cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT) for _ in range(served)
        ]
        assert all(out.result.oid_keys() == {o.key() for o in oids} for out in outcomes)

        def retained():
            stats = cluster.total_stats()
            return stats.contexts_created - stats.contexts_retired

        if hasattr(cluster, "run"):
            cluster.run()  # the simulator delivers the last purges when driven
        deadline = time.monotonic() + TIMEOUT
        while retained() > RECENT_QUERIES and time.monotonic() < deadline:
            time.sleep(0.01)  # wall-clock: the last purges are still in flight
        assert retained() == RECENT_QUERIES
        assert cluster.total_stats().contexts_created == 3 * served
        # The outcome table keeps the same window.
        assert cluster.outcome(outcomes[-1].qid) is outcomes[-1]
        assert cluster.outcome(outcomes[0].qid) is None


class TestCrossTransportAgreement:
    def test_same_database_same_results_everywhere(self):
        """The whole point, in one assertion: an identical database gives
        an identical result set on all three transports — and on the
        process-per-site deployment of the third."""
        results = {}
        for name in ALL_PARAMS:
            cluster = build_param_cluster(name, 3)
            try:
                oids = build_chain(cluster)
                out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
                results[name] = out.result.oid_keys()
            finally:
                cluster.close()
        assert len(set(map(frozenset, results.values()))) == 1, results


class TestProcessParity:
    """Process mode vs. the simulator oracle, capability by capability.

    The configs this class ships — replication at every k, the reliable
    channel, seeded link chaos — are exactly the ones process mode used
    to reject; each must now produce the oracle's result set with zero
    termination-credit deficit.
    """

    def _run(self, param, **kwargs):
        cluster = build_param_cluster(param, config=ClusterConfig(**kwargs))
        try:
            oids = build_chain(cluster)
            if getattr(cluster, "replication", None) is not None:
                cluster.replicate_all()
            out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
            return out.result.oid_keys(), deficit_of(cluster, out.qid)
        finally:
            cluster.close()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_replication_matches_sim_oracle(self, k):
        kwargs = dict(replication=ReplicationConfig(k=k))
        oracle, _ = self._run("sim", **kwargs)
        got, deficit = self._run(PROCESS_PARAM, **kwargs)
        assert got == oracle
        assert deficit == 0

    def test_reliable_channel_matches_sim_oracle(self):
        oracle, _ = self._run("sim")
        got, deficit = self._run(PROCESS_PARAM, reliable=True)
        assert got == oracle
        assert deficit == 0

    def test_seeded_chaos_under_reliable_recovers_the_full_result(self):
        """Lossy links + retransmission must converge on the lossless
        answer: every drop is retried through, every duplicate deduped,
        and the detector's credit comes home whole."""
        from repro.faults.reliable import ReliableConfig

        oracle, _ = self._run("sim")
        plan = FaultPlan(seed=42, drop=0.25, duplicate=0.25)
        got, deficit = self._run(
            PROCESS_PARAM,
            fault_plan=plan,
            reliable=ReliableConfig(base_backoff_s=0.02, max_backoff_s=0.2, max_retries=20),
        )
        assert got == oracle
        assert deficit == 0


class TestQoS:
    """Admission control and load shedding behave identically everywhere.

    On the asyncio transport these scenarios additionally prove the codec
    round-trip: priority classes and backpressure bits reach the remote
    sites as real bytes, not shared references.
    """

    def test_overload_bounce_is_uniform(self, make_cluster):
        cluster = make_cluster(qos=QoSConfig(rate_limit_qps=0.001, rate_burst=1))
        oids = build_chain(cluster, 4)
        cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT, client="tenant-a")
        with pytest.raises(Overloaded) as exc:
            cluster.submit(CLOSURE, [oids[0]], client="tenant-a")
        assert exc.value.client == "tenant-a"
        assert exc.value.retry_after_s > 0
        assert cluster.qos_bounces == 1
        # A different client has its own bucket.
        cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT, client="tenant-b")

    def test_shed_partial_with_exact_credit(self, make_cluster):
        baseline = make_cluster()
        oids = build_chain(baseline)
        full = baseline.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)

        cluster = make_cluster(qos=QoSConfig(shed_watermark=0))
        oids = build_chain(cluster)
        out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT, priority="batch")
        assert out.result.partial
        assert out.partial_reason == "shed"
        assert out.result.oid_keys() <= full.result.oid_keys()
        assert cluster.total_stats().work_shed > 0
        # The detector's conservation survives shedding exactly: no
        # credit leaked with the dropped work.
        assert deficit_of(cluster, out.qid) == 0

    def test_interactive_class_not_shed_by_default(self, make_cluster):
        cluster = make_cluster(qos=QoSConfig(shed_watermark=0))
        oids = build_chain(cluster)
        out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT, priority="interactive")
        assert not out.result.partial
        assert out.partial_reason is None
        assert out.result.oid_keys() == {o.key() for o in oids}

    def test_unknown_priority_rejected(self, make_cluster):
        cluster = make_cluster(qos=QoSConfig())
        with pytest.raises(ValueError):
            cluster.submit(CLOSURE, [], priority="bulk")


class TestMembership:
    """Administrative membership is part of the ClusterAPI contract:
    the same join/leave/fail scenario behaves identically on all four
    transport params — same results as the healthy baseline, zero
    termination-credit deficit, same typed errors."""

    def test_leave_join_fail_scenario(self, make_cluster):
        from repro.errors import SiteDeparted
        from repro.membership import MembershipConfig

        cluster = make_cluster(
            replication=ReplicationConfig(k=2), membership=MembershipConfig()
        )
        oids = build_chain(cluster)
        cluster.replicate_all()
        expected = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT).result.oid_keys()

        cluster.leave_site("site2")
        out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
        assert out.result.oid_keys() == expected
        assert not out.result.partial
        assert deficit_of(cluster, out.qid) == 0

        with pytest.raises(SiteDeparted):
            cluster.submit(CLOSURE, [oids[0]], originator="site2")

        cluster.join_site("site2")
        cluster.fail_site("site1")
        out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=TIMEOUT)
        assert out.result.oid_keys() == expected
        assert not out.result.partial
        assert deficit_of(cluster, out.qid) == 0
        assert cluster.membership_view.status_of("site1") == "departed"

    def test_membership_off_by_default(self, make_cluster):
        from repro.errors import ConfigError

        cluster = make_cluster()
        assert cluster.membership is None
        with pytest.raises(ConfigError):
            cluster.join_site("site0")

    @pytest.mark.parametrize("transport", sorted(set(TRANSPORTS) - {"sim"}))
    def test_heartbeat_detector_is_simulator_only(self, transport):
        from repro.errors import ConfigError
        from repro.membership import MembershipConfig

        with pytest.raises(ConfigError):
            build_cluster(
                transport,
                3,
                config=ClusterConfig(membership=MembershipConfig(heartbeat_s=0.05)),
            )
