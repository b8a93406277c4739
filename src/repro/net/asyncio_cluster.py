"""Asyncio transport: framed TCP with persistent connections.

The one :class:`~repro.api.ClusterAPI` transport whose sites exchange
real bytes (the paper's prototype used "UDP and TCP/IP ... for
inter-process communication").  Envelopes are serialised with
:mod:`repro.net.codec`, framed as 4-byte big-endian length + payload,
and the I/O runs on :class:`asyncio.Protocol` machinery:

* every site runs a frame server; inbound chunks stream through the
  codec's :class:`~repro.net.codec.FrameReader`, whose fast path hands
  back ``memoryview`` slices of the received chunk — frames are decoded
  without a copy (see ``docs/ASYNC.md`` for the zero-copy rules);
* inter-site connections are persistent and per-direction, dialled
  lazily and re-dialled with exponential backoff when lost (the
  hypergraph-P2P literature's argument against per-message connections);
* batched payloads (:class:`~repro.net.messages.ResultBatch` inside
  coalesced frames, reliable-channel retransmits) are serialised once
  via :func:`~repro.net.codec.preframe` and reuse the cached bytes on
  every subsequent hop or retry.

By default all sites share one event loop on a background thread —
"inline" mode: real frames on the loopback wire, in-process stores, so
the whole conformance suite (faults, QoS, replication, tracing,
metrics) runs unchanged.  ``ClusterConfig(processes=True)`` switches to
one OS process per site (see :mod:`repro.net.procserver`) for genuine
multi-core parallelism, with the same capability surface — replication,
the reliable channel, fault plans, migration and telemetry all ride the
parent↔child control channel instead of shared memory.

Fault semantics mirror the threaded transport's: a
:class:`~repro.faults.plan.FaultPlan` drops/delays frames at the
sender, ``set_down`` freezes a site's drain task (already-delivered
frames survive and are processed after ``set_up``) and makes every
frame addressed to it vanish at the wire, and ``enable_reliable``
interposes the ack/retransmit channel with timers on the event loop.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..config import ClusterConfig
from ..core.oid import Oid
from ..core.program import Program
from ..errors import HyperFileError, UnknownSite
from ..faults.plan import FaultPlan
from ..faults.reliable import ReliableAck, ReliableConfig, ReliableData, ReliableEndpoint
from ..naming.directory import ReplicaDirectory
from ..net.codec import FRAME_HEADER, CodecError, FrameReader, decode_envelope, encode_envelope
from ..replication import ReplicationManager
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
from .common import WallClockQueries, contain_site_error

#: Wall-clock budget for establishing one inter-site connection.
CONNECT_TIMEOUT_S = 5.0
#: Initial delay before re-dialling a lost inter-site connection
#: (doubles per consecutive failure, capped at 1 s).
RECONNECT_BACKOFF_S = 0.05
#: How many node steps a drain task runs before yielding the loop, so
#: one busy site cannot starve its peers' I/O on the shared loop.
_STEPS_PER_YIELD = 16


class _TimerHandle:
    """A cancellable timer armed on the event loop from any thread."""

    __slots__ = ("_loop", "_handle", "_cancelled")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._handle: Optional[asyncio.TimerHandle] = None
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        handle = self._handle
        if handle is not None:
            try:
                self._loop.call_soon_threadsafe(handle.cancel)
            except RuntimeError:  # loop already closed: nothing to cancel
                pass


class _InboundProtocol(asyncio.Protocol):
    """One accepted connection: stream chunks → frames → envelopes."""

    def __init__(self, site: "_AsyncSite") -> None:
        self.site = site
        self.reader = FrameReader()
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            frames = self.reader.feed(data)
        except HyperFileError:
            # Corrupt length prefix: the stream is unrecoverable.
            self.transport.close()
            return
        for frame in frames:
            self.site.bytes_received += len(frame)
            try:
                env = decode_envelope(frame, self.site.name)
            except HyperFileError:
                self.transport.close()
                return
            self.site.inbox.put_nowait(env)


class _PeerLink:
    """One persistent outbound connection, with reconnect.

    A frame goes straight to the transport when the link is connected
    and nothing is waiting; otherwise it queues, and a single sender task
    drains the queue, dialling (or re-dialling, with capped exponential
    backoff) as needed.  Created on the event loop, used only from it —
    which is what makes the direct write safe: a non-empty queue always
    forces the queued path, so frames cannot overtake one another.
    """

    def __init__(self, site: "_AsyncSite", dst: str) -> None:
        self.site = site
        self.dst = dst
        self.queue: "asyncio.Queue[bytes]" = asyncio.Queue()
        self.transport: Optional[asyncio.Transport] = None
        self.task = asyncio.get_running_loop().create_task(self._run())

    def send(self, payload: bytes) -> None:
        transport = self.transport
        if transport is not None and not transport.is_closing() and self.queue.empty():
            # Connected and idle: skip the sender task's wake-up.
            self._write(payload)
        else:
            self.queue.put_nowait(payload)

    def _write(self, payload: bytes) -> None:
        # Header and (possibly preframed) payload are handed over as they
        # are; the transport joins them itself where it has to (a
        # ``b"".join`` on 3.11, a vectored send from 3.12).
        self.transport.writelines((FRAME_HEADER.pack(len(payload)), payload))
        self.site.bytes_sent += len(payload)

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        config = self.site.cluster.config
        backoff = RECONNECT_BACKOFF_S
        while True:
            payload = await self.queue.get()
            while self.transport is None or self.transport.is_closing():
                try:
                    self.transport, _ = await asyncio.wait_for(
                        loop.create_connection(
                            asyncio.Protocol,
                            config.host,
                            self.site.cluster.port_of(self.dst),
                        ),
                        CONNECT_TIMEOUT_S,
                    )
                    backoff = RECONNECT_BACKOFF_S
                except (OSError, asyncio.TimeoutError):
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, 1.0)
            self._write(payload)

    def close(self) -> None:
        self.task.cancel()
        if self.transport is not None:
            self.transport.close()


class _AsyncSite:
    """One site on the shared loop: frame server, inbox, drain task."""

    def __init__(self, node: ServerNode, cluster: "AsyncCluster") -> None:
        self.node = node
        self.cluster = cluster
        self.name = node.site
        self.bytes_sent = 0
        self.bytes_received = 0
        # Loop-bound state, created by the cluster's bootstrap coroutine.
        self.inbox: Optional[asyncio.Queue] = None
        self.up_event: Optional[asyncio.Event] = None
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        self._links: Dict[str, _PeerLink] = {}
        self._drain_task: Optional[asyncio.Task] = None

    async def bootstrap(self) -> None:
        loop = asyncio.get_running_loop()
        self.inbox = asyncio.Queue()
        self.up_event = asyncio.Event()
        self.up_event.set()
        self.server = await loop.create_server(
            lambda: _InboundProtocol(self), self.cluster.config.host, 0
        )
        self.port = self.server.sockets[0].getsockname()[1]

    # -- processing (event-loop thread only) ----------------------------

    async def drain(self) -> None:
        """The site's server loop: the site-loop rule of
        :mod:`repro.net.common`, as a coroutine that yields every
        ``_STEPS_PER_YIELD`` steps so sites on the shared loop interleave."""
        node = self.node
        cluster = self.cluster
        while True:
            env = await self.inbox.get()
            while cluster.is_down(self.name):
                # Frozen: hold this envelope (frames already delivered
                # survive a crash window) until set_up.
                await self.up_event.wait()
            # Greedily take whatever else already arrived: one task
            # switch then handles the whole burst instead of paying a
            # loop wakeup per envelope.
            batch = [env]
            while True:
                try:
                    batch.append(self.inbox.get_nowait())
                except asyncio.QueueEmpty:
                    break
            outgoing: List[Envelope] = []
            arrivals = iter(batch)
            while True:
                try:
                    for env in arrivals:
                        if env is None:
                            continue
                        if isinstance(env.payload, (ReliableData, ReliableAck)):
                            cluster._reliable_ingest(env)
                        else:
                            node.on_message(env)
                    steps = 0
                    while node.has_work:
                        report = node.step()
                        outgoing.extend(report.outgoing)
                        steps += 1
                        if steps % _STEPS_PER_YIELD == 0:
                            for out in outgoing:
                                self._send(out)
                            outgoing = []
                            await asyncio.sleep(0)
                            while cluster.is_down(self.name):
                                await self.up_event.wait()
                    break
                except Exception as exc:  # noqa: BLE001 — one bad message or step must not end the site
                    contain_site_error(node, cluster.flight_recorder, exc)
                    # Resume after the envelope or step that raised; yield
                    # first, so even a raise that recurs cannot hog the loop.
                    await asyncio.sleep(0)
            for out in outgoing:
                self._send(out)

    def submit(
        self,
        qid: QueryId,
        program: Program,
        initial: List[Oid],
        priority: Optional[str],
        tenant: Optional[str] = None,
    ) -> None:
        report = self.node.submit(qid, program, initial, priority=priority, tenant=tenant)
        for env in report.outgoing:
            self._send(env)
        self.inbox.put_nowait(None)  # nudge the drain task

    def submit_from_saved(self, qid: QueryId, program: Program, source_qid: QueryId) -> None:
        report = self.node.submit_from_saved(qid, program, source_qid, self.cluster.sites)
        for env in report.outgoing:
            self._send(env)
        self.inbox.put_nowait(None)

    def expire(self, qid: QueryId) -> None:
        report = self.node.expire_query(qid)
        for env in report.outgoing:
            self._send(env)
        self.inbox.put_nowait(None)

    # -- outbound (event-loop thread only) ------------------------------

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
                self.cluster._loop.call_later(extra, self._send_frame, env)
            else:
                self._send_frame(env)

    def _send_frame(self, env: Envelope) -> None:
        try:
            payload = encode_envelope(env)
        except CodecError:
            # Something in the envelope has no wire form (a value type the
            # codec does not carry).  That costs this message, never the
            # site: count it lost and take its work back.
            self.cluster.messages_dropped += 1
            self.bounce(env)
            return
        link = self._links.get(env.dst)
        if link is None:
            link = self._links[env.dst] = _PeerLink(self, env.dst)
        link.send(payload)

    def bounce(self, env: Envelope) -> None:
        """Hand work this site could not get to ``env.dst`` back to its own
        node as ``Undeliverable``, so the detector re-absorbs the credit it
        carried; anything else a lost envelope held is simply lost."""
        if isinstance(env.payload, (DerefRequest, BatchedQuery, SeedFromSaved)):
            self.inbox.put_nowait(Envelope(env.dst, env.src, Undeliverable(env), spans=env.spans))

    def shutdown(self) -> None:
        if self._drain_task is not None:
            self._drain_task.cancel()
        for link in self._links.values():
            link.close()
        if self.server is not None:
            self.server.close()


class AsyncCluster(WallClockQueries):
    """A HyperFile deployment on asyncio framed TCP.

    Implements the same :class:`~repro.api.ClusterAPI` contract as the
    other transports; registered as ``transport="async"``.
    """

    def __new__(
        cls, sites: Union[int, Iterable[str]] = 3, *, config: Optional[ClusterConfig] = None
    ):
        if cls is AsyncCluster and config is not None and config.processes:
            from .procserver import ProcessCluster

            # Not a subclass, so __init__ below is skipped by the
            # constructor protocol — ProcessCluster builds itself.
            return ProcessCluster(sites, config=config)
        return super().__new__(cls)

    def __init__(
        self,
        sites: Union[int, Iterable[str]] = 3,
        *,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        config = config if config is not None else ClusterConfig()
        config.require_default("costs", "mark_granularity", transport="async")
        self.config = config
        names = [f"site{i}" for i in range(sites)] if isinstance(sites, int) else list(sites)
        strategy = make_strategy(config.termination)
        self.stores: Dict[str, MemStore] = {}
        self.nodes: Dict[str, ServerNode] = {}
        self._asites: Dict[str, _AsyncSite] = {}
        self._init_queries(config.qos)
        self._closed = False
        self._down: set = set()
        self._down_lock = threading.Lock()
        self.fault_plan: Optional[FaultPlan] = None
        self._endpoints: Optional[Dict[str, ReliableEndpoint]] = None
        self._reliable_config: Optional[ReliableConfig] = None
        self.messages_dropped = 0
        #: Envelopes whose delivery was abandoned (reliable give-up).
        self.undeliverable: List[Envelope] = []
        directory = (
            ReplicaDirectory()
            if config.replication is not None and config.replication.enabled
            else None
        )
        for name in names:
            store = MemStore(name)
            node = ServerNode(
                name,
                store,
                costs=FREE_COSTS,
                termination=strategy,
                discipline=config.discipline,
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
            self._asites[name] = _AsyncSite(node, self)
        self.replication: Optional[ReplicationManager] = None
        if directory is not None:
            self.replication = ReplicationManager(
                config.replication,
                self.stores,
                {name: node.forwarding for name, node in self.nodes.items()},
                directory,
            )
            for node in self.nodes.values():
                self.replication.add_epoch_listener(node.observe_epoch)

        self._init_membership(config)
        self._init_telemetry(config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="hf-async-loop", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self._bootstrap(), self._loop).result(timeout=10.0)

        if config.reliable:
            self.enable_reliable(
                config.reliable if isinstance(config.reliable, ReliableConfig) else None
            )
        if config.fault_plan is not None:
            self.use_faults(config.fault_plan)

    async def _bootstrap(self) -> None:
        loop = asyncio.get_running_loop()
        for site in self._asites.values():
            await site.bootstrap()
        for site in self._asites.values():
            site._drain_task = loop.create_task(site.drain())

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._loop.is_closed():
            return
        self._closed = True
        self._stop_stats_stream()
        if self._endpoints is not None:
            for endpoint in self._endpoints.values():
                endpoint.close()
        try:
            asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop).result(timeout=5.0)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()

    async def _shutdown(self) -> None:
        for site in self._asites.values():
            site.shutdown()
        await asyncio.sleep(0)

    def __enter__(self) -> "AsyncCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- data ------------------------------------------------------------

    @property
    def sites(self) -> List[str]:
        return list(self.nodes)

    def store(self, site: str) -> MemStore:
        try:
            return self.stores[site]
        except KeyError:
            raise UnknownSite(site) from None

    def node(self, site: str) -> ServerNode:
        try:
            return self.nodes[site]
        except KeyError:
            raise UnknownSite(site) from None

    def port_of(self, site: str) -> int:
        try:
            return self._asites[site].port
        except KeyError:
            raise UnknownSite(site) from None

    def bytes_on_the_wire(self) -> int:
        return sum(site.bytes_sent for site in self._asites.values())

    # -- availability ----------------------------------------------------

    def is_up(self, site: str) -> bool:
        with self._down_lock:
            return site not in self._down

    def is_down(self, site: str) -> bool:
        return not self.is_up(site)

    def set_down(self, site: str) -> None:
        """Freeze a site's drain task; frames to it drop at the wire."""
        target = self._asites.get(site)
        if target is None:
            raise UnknownSite(site)
        with self._down_lock:
            self._down.add(site)
        self._call_on_loop(target.up_event.clear)

    def set_up(self, site: str) -> None:
        target = self._asites.get(site)
        if target is None:
            raise UnknownSite(site)
        with self._down_lock:
            self._down.discard(site)

        def wake() -> None:
            target.up_event.set()
            target.inbox.put_nowait(None)

        self._call_on_loop(wake)

    # -- fault injection -------------------------------------------------

    def use_faults(self, plan: FaultPlan) -> None:
        """Attach a chaos schedule; scheduled crashes start arming now."""
        for crash in plan.crashes:
            if crash.site not in self._asites:
                raise UnknownSite(crash.site)
        self.fault_plan = plan
        for crash in plan.crashes:
            self._schedule(crash.at, lambda s=crash.site: self.set_down(s))
            if crash.recover_at is not None:
                self._schedule(crash.recover_at, lambda s=crash.site: self.set_up(s))

    def enable_reliable(self, config: Optional[ReliableConfig] = None) -> None:
        """Interpose the reliable-delivery channel on every link."""
        self._reliable_config = config if config is not None else ReliableConfig()
        self._endpoints = {
            name: ReliableEndpoint(
                name,
                clock=time.monotonic,
                scheduler=self._schedule,
                send_raw=site._send_raw,
                # on_wire runs on the event loop, so deliver straight in;
                # the drain task steps the node right after.
                deliver_up=lambda env, n=site.node: n.on_message(env),
                node=site.node,
                config=self._reliable_config,
                on_give_up=self._give_up,
            )
            for name, site in self._asites.items()
        }

    @property
    def reliable_enabled(self) -> bool:
        return self._endpoints is not None

    def _endpoint_for(self, site: str) -> Optional[ReliableEndpoint]:
        if self._endpoints is None:
            return None
        return self._endpoints.get(site)

    def _reliable_ingest(self, env: Envelope) -> None:
        endpoint = self._endpoint_for(env.dst)
        if endpoint is not None:
            endpoint.on_wire(env)

    def _give_up(self, env: Envelope) -> None:
        """Retries exhausted: recover detector state like a bounce would."""
        self.undeliverable.append(env)
        site = self._asites.get(env.src)
        if site is not None:
            site.bounce(env)

    # -- event-loop plumbing ---------------------------------------------

    def _call_on_loop(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the event loop (fire and forget, thread-safe)."""
        try:
            self._loop.call_soon_threadsafe(fn)
        except RuntimeError:  # loop closed during shutdown
            pass

    def _run_on_loop(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the event loop and wait; exceptions propagate.

        A plain callback + Future rather than ``run_coroutine_threadsafe``:
        no Task allocation, no coroutine trampoline — this sits on the
        per-submit hot path.
        """
        done: "concurrent.futures.Future[None]" = concurrent.futures.Future()

        def call() -> None:
            try:
                fn()
            except BaseException as exc:
                done.set_exception(exc)
            else:
                done.set_result(None)

        self._loop.call_soon_threadsafe(call)
        done.result()

    def _schedule(self, delay: float, fn: Callable[[], None]) -> _TimerHandle:
        """Arm a timer on the loop from any thread; returns a handle whose
        ``cancel`` is also thread-safe (the reliable channel needs both)."""
        proxy = _TimerHandle(self._loop)

        def fire() -> None:
            if not proxy._cancelled:
                fn()

        def arm() -> None:
            if not proxy._cancelled:
                proxy._handle = self._loop.call_later(delay, fire)

        if threading.get_ident() == self._thread.ident:
            arm()
        else:
            self._call_on_loop(arm)
        return proxy

    # -- queries ---------------------------------------------------------
    # submit / wait / run_query / run_followup / total_stats come from
    # WallClockQueries; this transport only supplies the dispatch hooks,
    # each of which hops onto the event loop and blocks for the result so
    # submit-time errors surface in the caller, exactly like the
    # blocking transports.

    def _dispatch_submit(
        self,
        origin: str,
        qid: QueryId,
        program: Program,
        initial: List[Oid],
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> None:
        site = self._asites[origin]
        self._run_on_loop(lambda: site.submit(qid, program, initial, priority, tenant))

    def _dispatch_submit_from_saved(
        self, origin: str, qid: QueryId, program: Program, source_qid: QueryId
    ) -> None:
        site = self._asites[origin]
        self._run_on_loop(lambda: site.submit_from_saved(qid, program, source_qid))

    def _dispatch_expire(self, origin: str, qid: QueryId) -> None:
        site = self._asites[origin]
        self._run_on_loop(lambda: site.expire(qid))
