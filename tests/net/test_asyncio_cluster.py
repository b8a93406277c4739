"""Tests for the asyncio transport (framed TCP on an event loop).

The conformance suite already runs every shared scenario on
``transport="async"``; this file covers what is specific to this
transport — the zero-copy codec path (preframing, memoryview decode),
the process-per-site deployment, reconnecting peer links, and the
``timeout_s`` backstop audit: a site that never answers must surface as
:class:`~repro.errors.TerminationLost` on EVERY wall-clock transport,
never as a dead ``wait()``.
"""

import time

import pytest

from repro.api import make_cluster
from repro.config import ClusterConfig
from repro.core.tuples import keyword_tuple, pointer_tuple
from repro.errors import HyperFileError, TerminationLost
from repro.faults import FaultPlan
from repro.net.asyncio_cluster import AsyncCluster
from repro.net.codec import encode_message, preframe
from repro.net.messages import QueryId, ResultBatch

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'


def build_chain(cluster, length=9):
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


class TestInlineAsync:
    def test_cross_site_closure_over_asyncio_tcp(self):
        with AsyncCluster(3) as cluster:
            oids = build_chain(cluster)
            out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=30.0)
            assert out.result.oid_keys() == {o.key() for o in oids}
            assert cluster.bytes_on_the_wire() > 0

    def test_dijkstra_scholten_over_asyncio_tcp(self):
        with AsyncCluster(3, config=ClusterConfig(termination="dijkstra-scholten")) as cluster:
            oids = build_chain(cluster)
            out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=30.0)
            assert out.result.oid_keys() == {o.key() for o in oids}

    def test_sequential_queries_reuse_connections(self):
        with AsyncCluster(3) as cluster:
            oids = build_chain(cluster)
            first = cluster.run_query(CLOSURE, [oids[0]], timeout_s=30.0)
            second = cluster.run_query(CLOSURE, [oids[0]], timeout_s=30.0)
            assert first.result.oid_keys() == second.result.oid_keys()
            # Persistent links: every site dials each peer at most once.
            links = sum(len(site._links) for site in cluster._asites.values())
            assert links <= len(cluster.sites) * (len(cluster.sites) - 1)

    def test_close_is_idempotent(self):
        cluster = AsyncCluster(2)
        cluster.close()
        cluster.close()

    def test_queued_frames_survive_a_crash_window(self):
        """set_down freezes the drain task; already-delivered frames are
        processed after set_up rather than lost (threaded-transport parity)."""
        with AsyncCluster(2) as cluster:
            oids = build_chain(cluster, 4)
            cluster.set_down("site1")
            assert cluster.is_down("site1")
            cluster.set_up("site1")
            out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=30.0)
            assert out.result.oid_keys() == {o.key() for o in oids}


class TestPeerLink:
    """``_PeerLink.send`` writes straight to a connected, idle transport
    and queues otherwise; either way frames arrive whole, in order."""

    def test_frames_stay_in_order_through_dial_direct_write_and_redial(self):
        import asyncio
        import types

        from repro.net.asyncio_cluster import _PeerLink
        from repro.net.codec import FrameReader

        payloads = [bytes((i,)) * (1 + 7 * i) for i in range(9)]
        received = []

        async def scenario():
            loop = asyncio.get_running_loop()
            arrived = asyncio.Event()

            class Inbound(asyncio.Protocol):
                def connection_made(self, transport):
                    self.reader = FrameReader()

                def data_received(self, data):
                    received.extend(bytes(frame) for frame in self.reader.feed(data))
                    arrived.set()

            async def until_received(count):
                while len(received) < count:
                    arrived.clear()
                    await asyncio.wait_for(arrived.wait(), 10.0)

            server = await loop.create_server(Inbound, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            site = types.SimpleNamespace(
                bytes_sent=0,
                cluster=types.SimpleNamespace(config=ClusterConfig(), port_of=lambda dst: port),
            )
            link = _PeerLink(site, "site1")
            try:
                # Dialling: the first frame starts the dial, the next two
                # find no transport yet and must wait behind it.
                link.send(payloads[0])
                await asyncio.sleep(0)
                assert link.transport is None
                link.send(payloads[1])
                link.send(payloads[2])
                await until_received(3)
                # Connected and idle: written directly, nothing queued.
                for payload in payloads[3:6]:
                    link.send(payload)
                    assert link.queue.empty()
                await until_received(6)
                # A lost connection: back to the queue, and a redial.
                first = link.transport
                first.close()
                for payload in payloads[6:]:
                    link.send(payload)
                assert link.queue.qsize() == 3
                await until_received(9)
                assert link.transport is not first
            finally:
                link.close()
                server.close()
                await server.wait_closed()
            return site.bytes_sent

        assert asyncio.run(scenario()) == sum(len(p) for p in payloads)
        assert received == payloads


class TestTimeoutBackstop:
    """The timeout_s plumbing audit: a hung query must end in
    TerminationLost on every wall-clock transport, never a dead wait.

    ``set_down`` is not a hang on the threaded transport (it bounces
    work back as ``Undeliverable`` so the sender re-absorbs credit), so
    the hang inducer here is a fault plan that silently drops every
    frame on the site0–site1 link: the credit those frames carry is
    lost, the detector can never fire, and only the wall-clock backstop
    stands between the caller and a dead wait.
    """

    @pytest.mark.parametrize("transport", ["threaded", "async"])
    def test_hung_query_yields_termination_lost(self, transport):
        plan = FaultPlan(seed=7).link("site0", "site1", drop=1.0)
        cluster = make_cluster(transport, 3, config=ClusterConfig(fault_plan=plan))
        try:
            oids = build_chain(cluster)
            qid = cluster.submit(CLOSURE, [oids[0]])
            started = time.monotonic()
            with pytest.raises(TerminationLost) as excinfo:
                cluster.wait(qid, timeout_s=1.0)
            elapsed = time.monotonic() - started
            assert elapsed < 10.0, "wait() must honour the wall-clock backstop"
            assert excinfo.value.qid == qid
        finally:
            cluster.close()


class TestZeroCopyCodec:
    def test_preframe_is_cached_per_message(self):
        batch = ResultBatch(QueryId(1, "site0"))
        first = preframe(batch)
        assert preframe(batch) is first  # serialised once, reused per hop
        assert first == encode_message(batch)

    def test_encode_message_reuses_the_preframed_bytes(self):
        batch = ResultBatch(QueryId(2, "site0"))
        cached = preframe(batch)
        assert encode_message(batch) is cached

    def test_memoryview_frames_decode_like_bytes(self):
        from repro.net.codec import decode_message

        frame = encode_message(ResultBatch(QueryId(3, "site1"), oids=()))
        via_view = decode_message(memoryview(frame))
        via_bytes = decode_message(frame)
        assert via_view == via_bytes


class TestProcessMode:
    """One OS process per site (ClusterConfig(processes=True))."""

    def test_async_transport_builds_a_process_cluster(self):
        from repro.net.procserver import ProcessCluster

        cluster = make_cluster("async", 2, config=ClusterConfig(processes=True))
        try:
            assert isinstance(cluster, ProcessCluster)
        finally:
            cluster.close()

    def test_query_and_stats_across_processes(self):
        cluster = make_cluster("async", 2, config=ClusterConfig(processes=True))
        try:
            oids = build_chain(cluster, 6)
            out = cluster.run_query(CLOSURE, [oids[0]], timeout_s=30.0)
            assert out.result.oid_keys() == {o.key() for o in oids}
            assert cluster.total_stats().objects_processed >= len(oids)
        finally:
            cluster.close()

    def test_simulator_only_knobs_are_rejected_at_construction(self):
        # Replication/reliable/faults all ported to the control channel;
        # what remains impossible — the discrete-event-kernel knobs — now
        # fails typed at ClusterConfig construction, before any spawn.
        from repro.errors import ConfigError

        from repro.sim.costs import PAPER_COSTS

        with pytest.raises(ConfigError) as excinfo:
            ClusterConfig(processes=True, costs=PAPER_COSTS)
        assert "costs" in str(excinfo.value)
        with pytest.raises(ConfigError):
            ClusterConfig(processes=True, mark_granularity="object")

    def test_replication_is_supported_in_process_mode(self):
        from repro.replication import ReplicationConfig

        cluster = make_cluster(
            "async", 2,
            config=ClusterConfig(processes=True, replication=ReplicationConfig(k=2)),
        )
        try:
            oids = build_chain(cluster, 4)
            assert cluster.replicate_all() == len(oids)
            for oid in oids:
                holders = cluster.replication.directory.sites_of(oid)
                assert len(holders) == 2
                assert all(cluster.store(s).contains(oid) for s in holders)
        finally:
            cluster.close()

    def test_tracing_and_metrics_work_across_processes(self):
        # These used to be rejected alongside replication; now spans ship
        # over the control channel and child registries merge on snapshot.
        from repro.tracing import QueryTracer

        cluster = make_cluster("async", 2, config=ClusterConfig(processes=True))
        try:
            oids = build_chain(cluster, 6)
            tracer = QueryTracer()
            cluster.attach_tracer(tracer)
            cluster.enable_metrics()
            cluster.run_query(CLOSURE, [oids[0]], timeout_s=30.0)
            assert {e.site for e in tracer.events} == {"site0", "site1"}
            snap = cluster.metrics_snapshot()
            names = {m["name"] for m in snap["metrics"]}
            assert "slo.complete_s" in names
        finally:
            cluster.close()
