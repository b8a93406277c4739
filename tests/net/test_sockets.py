"""Tests for the TCP socket transport (real frames on loopback)."""

import pytest

from repro.core.program import compile_query
from repro.core.tuples import keyword_tuple, pointer_tuple, string_tuple
from repro.net.sockets import SocketCluster
from repro.workload import WorkloadSpec, build_graph, closure_query, materialize
from tests.conftest import oid_indices


def build_chain(cluster):
    s0, s1, s2 = (cluster.store(s) for s in cluster.sites)
    d = s0.create([keyword_tuple("K")])
    s0.replace(s0.get(d.oid).with_tuple(pointer_tuple("Ref", d.oid)))
    c = s2.create([pointer_tuple("Ref", d.oid)])
    b = s1.create([pointer_tuple("Ref", c.oid), keyword_tuple("K")])
    a = s0.create([pointer_tuple("Ref", b.oid), keyword_tuple("K")])
    return a.oid, {a.oid.key(), b.oid.key(), d.oid.key()}


from repro.core.parser import parse_query

PROG = compile_query(
    parse_query('S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T')
)


class TestSocketQueries:
    def test_cross_site_closure_over_tcp(self):
        with SocketCluster(3) as cluster:
            seed, expected = build_chain(cluster)
            outcome = cluster.run_query(PROG, [seed])
            assert outcome.result.oid_keys() == expected
            assert cluster.bytes_on_the_wire() > 0

    @pytest.mark.parametrize("termination", ["weighted", "dijkstra-scholten"])
    def test_both_detectors_over_tcp(self, termination):
        with SocketCluster(3, termination=termination) as cluster:
            seed, expected = build_chain(cluster)
            assert cluster.run_query(PROG, [seed]).result.oid_keys() == expected

    def test_matches_simulated_cluster_on_workload(self, small_spec, small_graph):
        from repro.cluster import SimCluster
        from repro.workload import generate_into_cluster

        query = closure_query("Rand50", "Rand10p", 5)
        sim = SimCluster(3)
        w_sim = generate_into_cluster(sim, small_spec, small_graph)
        expected = oid_indices(w_sim, sim.run_query(query, [w_sim.root]).result.oid_keys())

        with SocketCluster(3) as cluster:
            w_sock = materialize(small_spec, [cluster.store(s) for s in cluster.sites],
                                 graph=small_graph)
            outcome = cluster.run_query(compile_query(query), [w_sock.root])
            assert oid_indices(w_sock, outcome.result.oid_keys()) == expected

    def test_retrievals_cross_the_wire(self):
        with SocketCluster(2) as cluster:
            s0, s1 = (cluster.store(s) for s in cluster.sites)
            remote = s1.create([string_tuple("Title", "Far Away"), keyword_tuple("K")])
            local = s0.create([pointer_tuple("Ref", remote.oid)])
            from repro.core.parser import parse_query

            program = compile_query(
                parse_query('S (Pointer,"Ref",?X) ^X (String,"Title",->title) -> T')
            )
            outcome = cluster.run_query(program, [local.oid])
            assert outcome.result.retrieved["title"] == ["Far Away"]

    def test_sequential_queries_reuse_connections(self):
        with SocketCluster(3) as cluster:
            seed, expected = build_chain(cluster)
            first_bytes = None
            for _ in range(3):
                assert cluster.run_query(PROG, [seed]).result.oid_keys() == expected
                if first_bytes is None:
                    first_bytes = cluster.bytes_on_the_wire()
            # Connections persist; later queries ship similar volumes.
            assert cluster.bytes_on_the_wire() < 4 * first_bytes

    def test_close_is_idempotent(self):
        cluster = SocketCluster(2)
        cluster.close()
        cluster.close()

    def test_unknown_site_port(self):
        from repro.errors import UnknownSite

        with SocketCluster(2) as cluster:
            with pytest.raises(UnknownSite):
                cluster.port_of("siteX")


class TestFraming:
    def test_frame_round_trip_over_socketpair(self):
        import socket

        from repro.net.sockets import recv_frame, send_frame

        a, b = socket.socketpair()
        try:
            send_frame(a, b"hello world")
            send_frame(a, b"")
            assert recv_frame(b) == b"hello world"
            assert recv_frame(b) == b""
            a.close()
            assert recv_frame(b) is None  # orderly EOF
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        import socket
        import struct

        from repro.errors import HyperFileError
        from repro.net.sockets import recv_frame

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 2**31))
            with pytest.raises(HyperFileError, match="exceeds limit"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestSiteLoopTakesWholeBursts:
    """The socket twin of the threaded burst regression: the worker loop is
    the same :class:`~repro.net.common.ThreadSite`."""

    def test_a_held_burst_drains_once(self, monkeypatch):
        from tests.net.test_threaded import (
            SELECT_K,
            check_burst_drained_once,
            release_as_one_burst,
            seeds_on_second_site,
        )

        with SocketCluster(2) as cluster:
            seeds = seeds_on_second_site(cluster)
            held = []
            monkeypatch.setattr(cluster._loops[cluster.sites[0]], "_send", held.append)
            qid = cluster.submit(SELECT_K, seeds)
            monkeypatch.undo()
            release_as_one_burst(cluster, cluster._loops[cluster.sites[1]].inbox, held)
            check_burst_drained_once(cluster, qid, seeds, held)
