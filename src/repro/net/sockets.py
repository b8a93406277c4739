"""TCP socket transport: HyperFile sites talking real bytes.

The paper's prototype used "UDP and TCP/IP ... for inter-process
communication".  This transport runs every site as a TCP server on the
loopback interface; inter-site messages are serialised with
:mod:`repro.net.codec` and framed as ``4-byte big-endian length +
payload``, so what crosses between sites is genuinely bytes — nothing is
shared by reference.  (Sites run as threads of one process for test
convenience, but nothing in the protocol depends on that.)

This is the correctness-under-real-IO validation layer; timing
experiments use the simulated cluster, whose cost model the paper's
constants calibrate.

Fault tolerance matches the other transports: a
:class:`~repro.faults.plan.FaultPlan` drops/duplicates/delays frames at
the sender, ``set_down``/``set_up`` freeze a site's worker (nodes share
the cluster's availability oracle, exactly like the other transports, so
sends to a known-down site are written off for partial results; frames
already on the wire to it are dropped at the sender), and
``enable_reliable`` interposes the ack/retransmit channel, whose frames
travel the wire through the same codec as everything else.

Reader threads (one per inbound connection) decode frames into the
site's inbox; one worker thread serves it by the site-loop rule of
:mod:`repro.net.common` (:class:`~repro.net.common.ThreadSite`, shared
with the threaded transport): it takes every frame already decoded
behind the one that woke it, hands the whole burst to the node, then
steps until idle — so W empties, and the site ships its results and
credit home, once per burst, not once per frame.  A raise from the node
costs that frame or step, not the worker.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, Iterable, Optional, Union

from ..config import ClusterConfig, resolve_config
from ..errors import HyperFileError, UnknownSite
from ..faults.plan import FaultPlan
from ..faults.reliable import ReliableAck, ReliableConfig, ReliableData
from ..cache import CacheConfig
from ..naming.directory import ReplicaDirectory
from ..net.batching import BatchConfig
from ..net.codec import FRAME_HEADER, MAX_FRAME, decode_envelope, encode_envelope
from ..qos import QoSConfig
from ..replication import ReplicationConfig, ReplicationManager
from ..net.messages import (
    BatchedQuery,
    DerefRequest,
    Envelope,
    SeedFromSaved,
    Undeliverable,
)
from ..server.node import ServerNode
from ..sim.costs import FREE_COSTS
from ..storage.memstore import MemStore
from ..termination.base import make_strategy
from .common import ThreadSite, ThreadSiteCluster

# Frame layout (4-byte big-endian length + payload) and the size guard
# live in the codec now, shared with the asyncio transport.
_HEADER = FRAME_HEADER


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame."""
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one length-prefixed frame; None on orderly EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise HyperFileError(f"frame of {length} bytes exceeds limit")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise HyperFileError("connection closed mid-frame")
    return payload


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None if remaining == n else None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _SocketSite(ThreadSite):
    """One site: a TCP accept loop, the shared worker loop
    (:class:`~repro.net.common.ThreadSite`), and outbound sockets."""

    def __init__(self, node: ServerNode, cluster: "SocketCluster") -> None:
        super().__init__(node, cluster, f"hf-sock-{node.site}-work")
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(16)
        self.port = self.listener.getsockname()[1]
        self._outbound: Dict[str, socket.socket] = {}
        self._out_lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        threading.Thread(
            target=self._accept_loop, name=f"hf-sock-{self.node.site}-accept", daemon=True
        ).start()
        super().start()

    def stop(self) -> None:
        super().stop()
        try:
            self.listener.close()
        except OSError:
            pass
        with self._out_lock:
            for sock in self._outbound.values():
                try:
                    sock.close()
                except OSError:
                    pass
            self._outbound.clear()

    # -- inbound ----------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self.stopped.is_set():
            try:
                conn, _addr = self.listener.accept()
            except OSError:
                return
            thread = threading.Thread(
                target=self._reader_loop, args=(conn,), daemon=True,
                name=f"hf-sock-{self.node.site}-reader",
            )
            thread.start()

    def _reader_loop(self, conn: socket.socket) -> None:
        try:
            while not self.stopped.is_set():
                frame = recv_frame(conn)
                if frame is None:
                    return
                self.bytes_received += len(frame)
                # The envelope codec carries the sender site (Dijkstra-
                # Scholten parent tracking and result routing need it) and
                # the optional trace-span context.
                self.inbox.put(decode_envelope(frame, self.node.site))
        except (OSError, HyperFileError):
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # -- outbound -----------------------------------------------------------------

    def _send(self, env: Envelope) -> None:
        endpoint = self.cluster._endpoint_for(env.src)
        if endpoint is not None and not isinstance(
            env.payload, (ReliableData, ReliableAck, Undeliverable)
        ):
            endpoint.send(env)
            return
        self._send_raw(env)

    def _send_raw(self, env: Envelope) -> None:
        """One wire transmission: availability + fault plan, then bytes."""
        if self.cluster.is_down(env.dst):
            # A "crashed" peer: the frame is lost at the wire.  The
            # reliable channel (if any) keeps retransmitting until the
            # peer recovers or retries run out.
            self.cluster.messages_dropped += 1
            return
        plan = self.cluster.fault_plan
        if plan is None:
            self._send_frame(env)
            return
        decision = plan.decide(env.src, env.dst)
        if decision.dropped:
            self.cluster.messages_dropped += 1
            return
        for extra in decision.delays:
            if extra > 0:
                self.cluster._timer_thread().schedule(extra, lambda e=env: self._send_frame(e))
            else:
                self._send_frame(env)

    def _send_frame(self, env: Envelope) -> None:
        # The envelope codec carries sender + span context + message.
        payload = encode_envelope(env)
        try:
            sock = self._connection_to(env.dst)
            send_frame(sock, payload)
            self.bytes_sent += len(payload)
        except OSError as exc:
            if self.cluster._closed:
                return  # shutting down: the sockets are going away under us
            if self.cluster.reliable_enabled:
                # The channel will retransmit; treat as wire loss.
                self.cluster.messages_dropped += 1
                with self._out_lock:
                    self._outbound.pop(env.dst, None)
                return
            raise HyperFileError(f"send to {env.dst} failed: {exc}") from exc

    def _connection_to(self, site: str) -> socket.socket:
        with self._out_lock:
            sock = self._outbound.get(site)
            if sock is not None:
                return sock
            port = self.cluster.port_of(site)
            sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._outbound[site] = sock
            return sock


class SocketCluster(ThreadSiteCluster):
    """A HyperFile deployment where sites exchange real TCP frames.

    Implements the same :class:`~repro.api.ClusterAPI` contract as the
    other transports.
    """

    def __init__(
        self,
        sites: Union[int, Iterable[str]] = 3,
        termination: str = "weighted",
        result_mode: str = "ship",
        fault_plan: Optional[FaultPlan] = None,
        reliable: Union[bool, ReliableConfig] = False,
        batching: Optional[BatchConfig] = None,
        caching: Optional[CacheConfig] = None,
        replication: Optional[ReplicationConfig] = None,
        qos: Optional[QoSConfig] = None,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        config = resolve_config(
            config,
            owner="SocketCluster",
            termination=termination,
            result_mode=result_mode,
            fault_plan=fault_plan,
            reliable=reliable,
            batching=batching,
            caching=caching,
            replication=replication,
            qos=qos,
        )
        config.require_default(
            "costs", "discipline", "mark_granularity", "processes", transport="sockets"
        )
        self.config = config
        replication = config.replication
        names = [f"site{i}" for i in range(sites)] if isinstance(sites, int) else list(sites)
        strategy = make_strategy(config.termination)
        self._init_thread_sites(config.qos)
        directory = (
            ReplicaDirectory() if replication is not None and replication.enabled else None
        )
        for name in names:
            store = MemStore(name)
            node = ServerNode(
                name,
                store,
                costs=FREE_COSTS,
                termination=strategy,
                result_mode=config.result_mode,
                on_query_complete=self._on_complete,
                is_site_up=self.is_up,
                batching=config.batching,
                caching=config.caching,
                replicas=directory,
                qos=config.qos,
            )
            node.now_fn = time.monotonic
            self.stores[name] = store
            self.nodes[name] = node
            self._loops[name] = _SocketSite(node, self)
        self.replication: Optional[ReplicationManager] = None
        if directory is not None:
            assert replication is not None
            self.replication = ReplicationManager(
                replication,
                self.stores,
                {name: node.forwarding for name, node in self.nodes.items()},
                directory,
            )
            for node in self.nodes.values():
                self.replication.add_epoch_listener(node.observe_epoch)
        self._start(config)

    def port_of(self, site: str) -> int:
        try:
            return self._loops[site].port
        except KeyError:
            raise UnknownSite(site) from None

    def bytes_on_the_wire(self) -> int:
        return sum(site.bytes_sent for site in self._loops.values())

    def _give_up(self, env: Envelope) -> None:
        """Retries exhausted: recover detector state like a bounce would."""
        self.undeliverable.append(env)
        if not isinstance(env.payload, (DerefRequest, BatchedQuery, SeedFromSaved)):
            return
        site = self._loops.get(env.src)
        if site is None:
            return
        site.inbox.put(Envelope(env.dst, env.src, Undeliverable(env), spans=env.spans))
