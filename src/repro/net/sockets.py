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
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Dict, Iterable, List, Optional, Union

from ..config import ClusterConfig, resolve_config
from ..core.oid import Oid
from ..core.program import Program
from ..errors import HyperFileError, UnknownSite
from ..faults.plan import FaultPlan
from ..faults.reliable import ReliableAck, ReliableConfig, ReliableData, ReliableEndpoint
from ..faults.timers import TimerThread
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
    QueryId,
    SeedFromSaved,
    Undeliverable,
)
from ..server.node import ServerNode
from ..sim.costs import FREE_COSTS
from ..storage.memstore import MemStore
from ..termination.base import make_strategy
from .common import WallClockQueries

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


class _SocketSite:
    """One site: a TCP accept loop, a worker loop, and outbound sockets."""

    def __init__(self, node: ServerNode, cluster: "SocketCluster") -> None:
        self.node = node
        self.cluster = cluster
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(16)
        self.port = self.listener.getsockname()[1]
        self.inbox: "queue.Queue" = queue.Queue()
        self._outbound: Dict[str, socket.socket] = {}
        self._out_lock = threading.Lock()
        self._node_lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        for target, name in ((self._accept_loop, "accept"), (self._work_loop, "work")):
            thread = threading.Thread(
                target=target, name=f"hf-sock-{self.node.site}-{name}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        self._stop.set()
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
        self.inbox.put(None)

    # -- inbound ----------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
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
            while not self._stop.is_set():
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

    # -- processing ----------------------------------------------------------------

    def _work_loop(self) -> None:
        while not self._stop.is_set():
            if self.cluster.is_down(self.node.site):
                # Crashed: freeze.  Frames already queued (or still being
                # enqueued by reader threads) are processed after set_up.
                time.sleep(0.01)
                continue
            try:
                env = self.inbox.get(timeout=0.05)
            except queue.Empty:
                env = None
            if self._stop.is_set():
                return
            outgoing: List[Envelope] = []
            with self._node_lock:
                if env is not None:
                    if isinstance(env.payload, (ReliableData, ReliableAck)):
                        self.cluster._reliable_ingest(env)
                    else:
                        self.node.on_message(env)
                while self.node.has_work:
                    report = self.node.step()
                    outgoing.extend(report.outgoing)
            for out in outgoing:
                self._send(out)

    def submit(
        self,
        qid: QueryId,
        program: Program,
        initial: List[Oid],
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> None:
        with self._node_lock:
            report = self.node.submit(qid, program, initial, priority=priority, tenant=tenant)
        for env in report.outgoing:
            self._send(env)
        self.inbox.put(None)  # nudge the worker

    def submit_from_saved(self, qid: QueryId, program: Program, source_qid: QueryId) -> None:
        with self._node_lock:
            report = self.node.submit_from_saved(qid, program, source_qid, self.cluster.sites)
        for env in report.outgoing:
            self._send(env)
        self.inbox.put(None)

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


class SocketCluster(WallClockQueries):
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
        termination = config.termination
        result_mode = config.result_mode
        fault_plan = config.fault_plan
        reliable = config.reliable
        batching = config.batching
        caching = config.caching
        replication = config.replication
        qos = config.qos
        names = [f"site{i}" for i in range(sites)] if isinstance(sites, int) else list(sites)
        strategy = make_strategy(termination)
        self.stores: Dict[str, MemStore] = {}
        self.nodes: Dict[str, ServerNode] = {}
        self._sites: Dict[str, _SocketSite] = {}
        self._init_queries(qos)
        self._closed = False
        self._down: set = set()
        self._down_lock = threading.Lock()
        self._timers: Optional[TimerThread] = None
        self._timers_lock = threading.Lock()
        self.fault_plan: Optional[FaultPlan] = None
        self._endpoints: Optional[Dict[str, ReliableEndpoint]] = None
        self._reliable_config: Optional[ReliableConfig] = None
        self.messages_dropped = 0
        #: Envelopes whose delivery was abandoned (reliable-channel give-up),
        #: recorded for diagnostics exactly like the threaded transport.
        self.undeliverable: List[Envelope] = []
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
                result_mode=result_mode,
                on_query_complete=self._on_complete,
                is_site_up=self.is_up,
                batching=batching,
                caching=caching,
                replicas=directory,
                qos=qos,
            )
            node.now_fn = time.monotonic
            self.stores[name] = store
            self.nodes[name] = node
            self._sites[name] = _SocketSite(node, self)
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
        self._init_membership(config)
        self._init_telemetry(config)
        for site in self._sites.values():
            site.start()
        if reliable:
            self.enable_reliable(reliable if isinstance(reliable, ReliableConfig) else None)
        if fault_plan is not None:
            self.use_faults(fault_plan)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._stop_stats_stream()
        if self._endpoints is not None:
            for endpoint in self._endpoints.values():
                endpoint.close()
        if self._timers is not None:
            self._timers.stop()
        for site in self._sites.values():
            site.stop()

    def __enter__(self) -> "SocketCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- data ----------------------------------------------------------------

    @property
    def sites(self) -> List[str]:
        return list(self.nodes)

    def store(self, site: str) -> MemStore:
        try:
            return self.stores[site]
        except KeyError:
            raise UnknownSite(site) from None

    def port_of(self, site: str) -> int:
        try:
            return self._sites[site].port
        except KeyError:
            raise UnknownSite(site) from None

    def bytes_on_the_wire(self) -> int:
        return sum(site.bytes_sent for site in self._sites.values())

    # -- availability ---------------------------------------------------------

    def is_up(self, site: str) -> bool:
        with self._down_lock:
            return site not in self._down

    def is_down(self, site: str) -> bool:
        return not self.is_up(site)

    def set_down(self, site: str) -> None:
        """Freeze a site's worker; frames sent to it are dropped at the wire."""
        if site not in self._sites:
            raise UnknownSite(site)
        with self._down_lock:
            self._down.add(site)

    def set_up(self, site: str) -> None:
        if site not in self._sites:
            raise UnknownSite(site)
        with self._down_lock:
            self._down.discard(site)
        self._sites[site].inbox.put(None)  # wake the frozen worker

    # -- fault injection ------------------------------------------------------

    def use_faults(self, plan: FaultPlan) -> None:
        """Attach a chaos schedule; scheduled crashes start arming now."""
        for crash in plan.crashes:
            if crash.site not in self._sites:
                raise UnknownSite(crash.site)
        self.fault_plan = plan
        timers = self._timer_thread()
        for crash in plan.crashes:
            timers.schedule(crash.at, lambda s=crash.site: self.set_down(s))
            if crash.recover_at is not None:
                timers.schedule(crash.recover_at, lambda s=crash.site: self.set_up(s))

    def enable_reliable(self, config: Optional[ReliableConfig] = None) -> None:
        """Interpose the reliable-delivery channel on every link."""
        self._reliable_config = config if config is not None else ReliableConfig()
        timers = self._timer_thread()
        self._endpoints = {
            name: ReliableEndpoint(
                name,
                clock=timers.now,
                scheduler=timers.schedule,
                send_raw=site._send_raw,
                # on_wire runs on the destination's worker thread with its
                # node lock held, so deliver straight into the node.
                deliver_up=lambda env, n=site.node: n.on_message(env),
                node=site.node,
                config=self._reliable_config,
                on_give_up=self._give_up,
            )
            for name, site in self._sites.items()
        }

    @property
    def reliable_enabled(self) -> bool:
        return self._endpoints is not None

    def _endpoint_for(self, site: str) -> Optional[ReliableEndpoint]:
        if self._endpoints is None:
            return None
        return self._endpoints.get(site)

    def _reliable_ingest(self, env: Envelope) -> None:
        """A reliable-channel frame arrived at ``env.dst``'s worker."""
        endpoint = self._endpoint_for(env.dst)
        if endpoint is not None:
            endpoint.on_wire(env)

    def _give_up(self, env: Envelope) -> None:
        """Retries exhausted: recover detector state like a bounce would."""
        self.undeliverable.append(env)
        if not isinstance(env.payload, (DerefRequest, BatchedQuery, SeedFromSaved)):
            return
        site = self._sites.get(env.src)
        if site is None:
            return
        site.inbox.put(Envelope(env.dst, env.src, Undeliverable(env), spans=env.spans))

    def _timer_thread(self) -> TimerThread:
        with self._timers_lock:
            if self._timers is None:
                self._timers = TimerThread(name="hf-sockets-timers")
            return self._timers

    # -- queries --------------------------------------------------------------
    # submit / wait / run_query / run_followup / total_stats come from
    # WallClockQueries; this transport only supplies the dispatch hooks.

    def node(self, site: str) -> ServerNode:
        try:
            return self.nodes[site]
        except KeyError:
            raise UnknownSite(site) from None

    def _dispatch_submit(
        self,
        origin: str,
        qid: QueryId,
        program: Program,
        initial: List[Oid],
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> None:
        self._sites[origin].submit(qid, program, initial, priority, tenant)

    def _dispatch_submit_from_saved(
        self, origin: str, qid: QueryId, program: Program, source_qid: QueryId
    ) -> None:
        self._sites[origin].submit_from_saved(qid, program, source_qid)

    def _dispatch_expire(self, origin: str, qid: QueryId) -> None:
        site = self._sites[origin]
        with site._node_lock:
            report = site.node.expire_query(qid)
        for env in report.outgoing:
            site._send(env)
