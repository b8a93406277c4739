"""Acceptance tests for causal tracing, profiling, and telemetry.

The three headline guarantees:

* **Connected span trees on every transport** — each traced query's
  events form one tree rooted at its ``submit``, across the simulator,
  the threaded cluster and the asyncio TCP transport, batching included.
* **The critical path explains the response time** — on the simulator
  the extracted path's duration equals the measured response time up to
  the completing step's own cost (the ``complete`` event is stamped when
  the detector fires, before that step's cost-model charge elapses).
* **Zero observer effect** — attaching a tracer changes no result, no
  timing, and no message count; the untraced fast path is one ``is
  None`` check.
"""

import time
from fractions import Fraction

import pytest

from repro.api import make_cluster
from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.core.parser import parse_query
from repro.core.program import compile_query
from repro.errors import TerminationLost
from repro.faults import FaultPlan
from repro.net.asyncio_cluster import AsyncCluster
from repro.net.batching import BatchConfig
from repro.net.threaded import ThreadedCluster
from repro.profiling import credit_audit, critical_path, render_profile, tree_report
from repro.tracing import FlightRecorderConfig, QueryTracer, events_from_jsonl

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'
CLOSURE_PROG = compile_query(parse_query(CLOSURE))


def build_chain(cluster, length=12):
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


def build_fanout(cluster, children=12):
    stores = [cluster.store(s) for s in cluster.sites]
    kids = []
    for i in range(children):
        store = stores[i % len(stores)]
        kid = store.create([keyword_tuple("K")])
        store.replace(kid.with_tuple(pointer_tuple("Ref", kid.oid)))
        kids.append(kid.oid)
    return stores[0].create(
        [keyword_tuple("K")] + [pointer_tuple("Ref", kid) for kid in kids]
    ).oid


class TestSpanTreeConnectivity:
    def test_sim(self):
        cluster = SimCluster(3)
        oids = build_chain(cluster)
        tracer = QueryTracer()
        cluster.attach_tracer(tracer)
        outcome = cluster.run_query(CLOSURE, [oids[0]])
        report = tree_report(tracer, outcome.qid)
        assert report.connected, report.describe()
        assert report.root.site == outcome.qid.originator

    @pytest.mark.parametrize("cluster_cls", [ThreadedCluster, AsyncCluster])
    def test_real_transports(self, cluster_cls):
        with cluster_cls(3) as cluster:
            oids = build_chain(cluster)
            tracer = QueryTracer()
            cluster.attach_tracer(tracer)
            outcome = cluster.run_query(CLOSURE_PROG, [oids[0]], timeout_s=20.0)
            report = tree_report(tracer, outcome.qid)
            assert report.connected, report.describe()
            # The tree genuinely spans sites (work crossed the wire).
            assert len({e.site for e in tracer.events}) == 3

    def test_sim_with_batching(self):
        # Batched frames fan into per-item child spans; the tree must
        # stay connected through batch_flush/batch_recv indirection.
        cluster = SimCluster(3, config=ClusterConfig(batching=BatchConfig(max_batch=4)))
        root = build_fanout(cluster)
        tracer = QueryTracer()
        cluster.attach_tracer(tracer)
        outcome = cluster.run_query(CLOSURE, [root])
        report = tree_report(tracer, outcome.qid)
        assert report.connected, report.describe()
        kinds = {e.kind for e in tracer.events}
        assert "batch_flush" in kinds and "batch_recv" in kinds

    def test_sim_under_chaos_with_reliable_channel(self):
        cluster = SimCluster(
            3,
            config=ClusterConfig(
                fault_plan=FaultPlan(seed=7, drop=0.15, duplicate=0.1, reorder=0.2),
                reliable=True,
            ),
        )
        oids = build_chain(cluster, 24)
        tracer = QueryTracer()
        cluster.attach_tracer(tracer)
        outcome = cluster.run_query(CLOSURE, [oids[0]])
        report = tree_report(tracer, outcome.qid)
        assert report.connected, report.describe()


class TestCriticalPath:
    def test_sim_path_duration_matches_response_time(self):
        cluster = SimCluster(3)
        oids = build_chain(cluster)
        tracer = QueryTracer()
        cluster.attach_tracer(tracer)
        outcome = cluster.run_query(CLOSURE, [oids[0]])
        path = critical_path(tracer, outcome.qid)
        # The complete event is stamped when the detector fires; the
        # response time additionally includes that completing step's
        # charge (result ingest) and the client link, so the gap is
        # bounded by one cost-model tick of result handling.
        costs = cluster.costs
        tick = (
            costs.result_msg_fixed_s
            + costs.result_item_s * len(outcome.result.oids)
            + 2 * costs.client_link_s
        )
        gap = outcome.response_time - path.duration
        assert 0.0 <= gap <= tick + 1e-9, (gap, tick)
        # And the path is a real multi-hop chain, not a degenerate pair.
        assert path.message_hops >= len(oids) // len(cluster.sites)
        assert path.steps[0].kinds[0] == "submit"
        assert "complete" in path.steps[-1].kinds

    def test_deltas_telescope(self):
        cluster = SimCluster(3)
        oids = build_chain(cluster)
        tracer = QueryTracer()
        cluster.attach_tracer(tracer)
        outcome = cluster.run_query(CLOSURE, [oids[0]])
        path = critical_path(tracer, outcome.qid)
        assert sum(s.delta for s in path.steps) == pytest.approx(path.duration)

    def test_render_profile_end_to_end(self):
        cluster = SimCluster(3)
        oids = build_chain(cluster)
        tracer = QueryTracer()
        cluster.attach_tracer(tracer)
        outcome = cluster.run_query(CLOSURE, [oids[0]])
        text = render_profile(tracer, outcome.qid)
        assert "span tree OK" in text
        assert "critical path" in text
        assert "credit audit" in text and "LOST" not in text


class TestObserverEffect:
    def _run(self, traced: bool):
        cluster = SimCluster(3)
        oids = build_chain(cluster)
        if traced:
            cluster.attach_tracer(QueryTracer())
            cluster.enable_metrics()
        outcome = cluster.run_query(CLOSURE, [oids[0]])
        stats = cluster.total_stats()
        return (
            outcome.result.oid_keys(),
            outcome.response_time,
            dict(stats.messages_sent),
            stats.bytes_sent,
        )

    def test_tracing_changes_nothing(self):
        # Bit-identical results, virtual timing, message counts and
        # wire bytes — the envelope's span field never reaches
        # size_bytes, and the cost model never sees the tracer.
        assert self._run(traced=True) == self._run(traced=False)


class TestCreditAudit:
    def test_clean_run_loses_nothing(self):
        cluster = SimCluster(3)
        oids = build_chain(cluster)
        tracer = QueryTracer()
        cluster.attach_tracer(tracer)
        outcome = cluster.run_query(CLOSURE, [oids[0]])
        audit = credit_audit(tracer, outcome.qid)
        assert audit.entries and audit.lost == 0
        assert all(e.delivered for e in audit.entries)

    def test_lost_credit_explains_termination_deficit(self):
        # Total packet loss, no reliable channel: the detector can never
        # fire, and the audit must attribute the exact missing credit to
        # the sends that never landed.
        cluster = SimCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=1, drop=1.0)))
        oids = build_chain(cluster)
        tracer = QueryTracer()
        cluster.attach_tracer(tracer)
        qid = cluster.submit(CLOSURE, [oids[0]])
        with pytest.raises(TerminationLost) as excinfo:
            cluster.wait(qid)
        audit = credit_audit(tracer, qid)
        assert audit.lost > 0
        assert [e for e in audit.entries if not e.delivered]
        deficit = excinfo.value.deficit
        if deficit is not None:
            assert audit.lost == Fraction(deficit)

    def test_timeout_flagged_in_audit(self):
        cluster = SimCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=1, drop=1.0)))
        oids = build_chain(cluster)
        tracer = QueryTracer()
        cluster.attach_tracer(tracer)
        outcome = cluster.run_query(CLOSURE, [oids[0]], deadline_s=0.5)
        assert outcome.result.partial
        audit = credit_audit(tracer, outcome.qid)
        assert audit.timed_out and audit.lost > 0


class TestObserverEffectEveryTransport:
    """Zero observer effect on every transport, process mode included.

    Wall-clock transports cannot promise identical timing, and traced
    envelopes legitimately carry span varints on real wires, so the
    invariant checked here is the part that must be bit-identical
    everywhere: the result set and the data-plane message counts.
    (Span shipping in process mode rides the control channel, which the
    node counters never see.)
    """

    @pytest.mark.parametrize(
        "transport,processes",
        [("threaded", False), ("async", False), ("async", True)],
        ids=["threaded", "async", "processes"],
    )
    def test_traced_equals_untraced(self, transport, processes):
        def run(traced):
            config = ClusterConfig(processes=True) if processes else None
            with make_cluster(transport, 3, config=config) as cluster:
                oids = build_chain(cluster)
                if traced:
                    cluster.attach_tracer(QueryTracer())
                    cluster.enable_metrics()
                outcome = cluster.run_query(CLOSURE_PROG, [oids[0]], timeout_s=30.0)
                stats = cluster.total_stats()
                return outcome.result.oid_keys(), dict(stats.messages_sent)

        assert run(traced=True) == run(traced=False)


class TestProcessModeTracing:
    """The tentpole: spans ship across process boundaries and the
    reconstructed tree is indistinguishable from an in-process trace."""

    def test_tree_connected_path_telescopes_credit_clean(self):
        with AsyncCluster(3, config=ClusterConfig(processes=True)) as cluster:
            oids = build_chain(cluster)
            tracer = QueryTracer()
            cluster.attach_tracer(tracer)
            outcome = cluster.run_query(CLOSURE_PROG, [oids[0]], timeout_s=30.0)
            report = tree_report(tracer, outcome.qid)
            assert report.connected, report.describe()
            assert report.root.site == outcome.qid.originator
            # Every child process contributed events, in its own span lane.
            assert len({e.site for e in tracer.events}) == 3
            spans = [e.span for e in tracer.events if e.span]
            assert len(spans) == len(set(spans)), "cross-process span collision"
            path = critical_path(tracer, outcome.qid)
            assert path.steps[0].kinds[0] == "submit"
            assert sum(s.delta for s in path.steps) == pytest.approx(path.duration)
            audit = credit_audit(tracer, outcome.qid)
            assert audit.entries and audit.lost == 0

    def test_render_profile_works_cross_process(self):
        with AsyncCluster(3, config=ClusterConfig(processes=True)) as cluster:
            oids = build_chain(cluster)
            tracer = QueryTracer()
            cluster.attach_tracer(tracer)
            outcome = cluster.run_query(CLOSURE_PROG, [oids[0]], timeout_s=30.0)
            text = render_profile(tracer, outcome.qid)
            assert "span tree OK" in text
            assert "credit audit" in text and "LOST" not in text

    def test_detach_restores_untraced_path(self):
        with AsyncCluster(2, config=ClusterConfig(processes=True)) as cluster:
            s0 = cluster.store("site0")
            obj = s0.create([keyword_tuple("K")])
            tracer = QueryTracer()
            cluster.attach_tracer(tracer)
            cluster.run_query(
                compile_query(parse_query('S (Keyword,"K",?) -> T')),
                [obj.oid],
                timeout_s=20.0,
            )
            drained = len(tracer.events)
            assert drained > 0
            cluster.detach_tracer()
            cluster.run_query(
                compile_query(parse_query('S (Keyword,"K",?) -> T')),
                [obj.oid],
                timeout_s=20.0,
            )
            assert len(tracer.events) == drained


class TestFlightRecorder:
    def test_sim_deadline_expiry_dumps_ring(self, tmp_path):
        cluster = SimCluster(
            3,
            config=ClusterConfig(
                fault_plan=FaultPlan(seed=1, drop=1.0),
                flight_recorder=FlightRecorderConfig(capacity=256, dump_dir=tmp_path),
            ),
        )
        oids = build_chain(cluster)
        outcome = cluster.run_query(CLOSURE, [oids[0]], deadline_s=0.5)
        assert outcome.result.partial
        dumps = sorted(tmp_path.glob("flightrec-*.jsonl"))
        assert dumps, "deadline expiry must dump the flight ring"
        events = events_from_jsonl(dumps[0])
        assert any(e.kind == "submit" for e in events)

    def test_process_crash_dump_attributes_lost_credit(self, tmp_path):
        # A permanent crash of site1, injected via the fault plan: the
        # site goes down and every frame toward it is lost at the wire
        # (drop=1.0 is the wire's view of the dead peer), taking its
        # termination credit with it.  The detector can never fire; the
        # parent must dump the merged per-site flight rings, and a credit
        # audit over that dump must attribute the missing credit to
        # sends that never landed at the crashed site.
        plan = FaultPlan(seed=7).link("site0", "site1", drop=1.0)
        plan.crash("site1", at=0.2)
        config = ClusterConfig(
            processes=True,
            fault_plan=plan,
            flight_recorder=FlightRecorderConfig(capacity=1024, dump_dir=tmp_path),
        )
        with AsyncCluster(3, config=config) as cluster:
            oids = build_chain(cluster, 9)
            qid = cluster.submit(CLOSURE_PROG, [oids[0]])
            with pytest.raises(TerminationLost):
                cluster.wait(qid, timeout_s=1.5)
            dumps = sorted(tmp_path.glob("flightrec-*-termination_lost.jsonl"))
            assert dumps, "TerminationLost must dump the flight ring"
            events = events_from_jsonl(dumps[0])
            audit = credit_audit(events, str(qid))
            lost = [e for e in audit.entries if not e.delivered]
            assert lost, "the audit must surface undelivered credit"
            assert all(e.dst == "site1" for e in lost)
            assert sum(e.credit for e in lost) > 0
            assert "termination_lost" in cluster.flight_recorder.dump_reasons


class TestStreamingStats:
    def test_sim_timeline_samples_on_virtual_clock(self):
        cluster = SimCluster(3, config=ClusterConfig(stats_stream_s=0.05))
        oids = build_chain(cluster)
        cluster.run_query(CLOSURE, [oids[0]])
        timeline = cluster.stats_timeline
        assert len(timeline) >= 2
        assert set(timeline.sites()) == {"site0", "site1", "site2"}
        series = timeline.series("bytes_sent", "site0")
        assert series and series[-1][1] >= series[0][1]

    def test_process_children_push_samples(self):
        config = ClusterConfig(processes=True, stats_stream_s=0.05)
        with AsyncCluster(3, config=config) as cluster:
            oids = build_chain(cluster)
            cluster.run_query(CLOSURE_PROG, [oids[0]], timeout_s=30.0)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if set(cluster.stats_timeline.sites()) == {"site0", "site1", "site2"}:
                    break
                time.sleep(0.05)
            assert set(cluster.stats_timeline.sites()) == {"site0", "site1", "site2"}
            series = cluster.stats_timeline.series("work_depth", "site1")
            assert series, "children must stream work_depth samples"


class TestSLOWatermarks:
    def test_histograms_labelled_by_tenant_and_priority(self):
        cluster = SimCluster(3)
        oids = build_chain(cluster)
        cluster.enable_metrics()
        cluster.run_query(CLOSURE, [oids[0]], client="tenant-a", priority="interactive")
        cluster.run_query(CLOSURE, [oids[0]], client="tenant-b")
        reg = cluster.metrics
        complete = reg.histogram("slo.complete_s", tenant="tenant-a", priority="interactive")
        assert complete.count == 1
        assert complete.quantile(0.99) is not None
        first = reg.histogram("slo.first_result_s", tenant="tenant-a", priority="interactive")
        assert first.count == 1
        # first result can never land after completion
        assert first.sum <= complete.sum + 1e-9
        # Without a QoS config every query runs at the default priority,
        # but the tenant label still separates the series.
        other = reg.histogram("slo.complete_s", tenant="tenant-b", priority="interactive")
        assert other.count == 1

    def test_process_mode_merges_child_slo_histograms(self):
        with AsyncCluster(3, config=ClusterConfig(processes=True)) as cluster:
            oids = build_chain(cluster)
            cluster.enable_metrics()
            cluster.run_query(
                CLOSURE_PROG,
                [oids[0]],
                timeout_s=30.0,
                client="tenant-a",
                priority="interactive",
            )
            snap = cluster.metrics_snapshot()
            slo = [
                m
                for m in snap["metrics"]
                if m["name"] == "slo.complete_s"
                and m["labels"].get("tenant") == "tenant-a"
            ]
            assert slo, "merged snapshot must carry the child's SLO histogram"
            from repro.metrics.registry import quantile_from_snapshot

            assert quantile_from_snapshot(slo[0], 0.99) is not None


class TestMetricsAcrossTransports:
    def test_sim_registry_sees_traffic_and_completions(self):
        cluster = SimCluster(3)
        oids = build_chain(cluster)
        cluster.enable_metrics()
        cluster.run_query(CLOSURE, [oids[0]])
        reg = cluster.metrics
        assert reg.value("cluster.queries_completed_total") == 1
        assert reg.histogram("cluster.response_time_s").count == 1
        sent = sum(
            reg.value("node.messages_sent_total", site=s) or 0 for s in cluster.sites
        )
        assert sent == cluster.total_stats().total_sent
        snapshot = cluster.metrics_snapshot()
        names = {m["name"] for m in snapshot["metrics"]}
        assert "net.wire_latency_s" in names
        assert "node.busy_seconds" in names

    @pytest.mark.parametrize("cluster_cls", [ThreadedCluster, AsyncCluster])
    def test_real_transport_snapshot(self, cluster_cls):
        with cluster_cls(2) as cluster:
            s0 = cluster.store("site0")
            obj = s0.create([keyword_tuple("K")])
            cluster.enable_metrics()
            cluster.run_query(
                compile_query(parse_query('S (Keyword,"K",?) -> T')), [obj.oid]
            )
            snapshot = cluster.metrics_snapshot()
            names = {m["name"] for m in snapshot["metrics"]}
            assert "node.messages_received_total" in names or "node.busy_seconds" in names

    def test_snapshot_none_when_never_enabled(self):
        cluster = SimCluster(2)
        assert cluster.metrics_snapshot() is None
