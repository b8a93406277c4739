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
* a site sends what one drain flush produced as one write per peer
  link (:meth:`_AsyncSite.flush`), not one per frame;
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

Delivery, availability and faults follow the one
:class:`~repro.net.site.WirePolicy`; this transport's share is a frame
written by the sending site for each copy (a bounce, which goes back to
the site that sent the work, lands straight in its inbox) and timers
that fire on the event loop.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..config import ClusterConfig
from ..errors import HyperFileError, UnknownSite
from ..net.codec import FRAME_HEADER, CodecError, FrameReader, decode_envelope, encode_envelope
from ..net.messages import Envelope, Undeliverable
from ..server.node import ServerNode
from .common import ClusterBase
from .site import SiteRuntime

#: Wall-clock budget for establishing one inter-site connection.
CONNECT_TIMEOUT_S = 5.0
#: Initial delay before re-dialling a lost inter-site connection
#: (doubles per consecutive failure, capped at 1 s).
RECONNECT_BACKOFF_S = 0.05
#: How many node steps a drain task runs before yielding the loop, so
#: one busy site cannot starve its peers' I/O on the shared loop.
_STEPS_PER_YIELD = 16


def _finish_tasks(loop: asyncio.AbstractEventLoop) -> None:
    """Cancel whatever is still pending on a stopped loop and let it
    unwind — a link dialled by a late timer, a sender task still inside
    ``create_connection`` — so no task is destroyed pending at close."""
    for _ in range(3):
        tasks = [task for task in asyncio.all_tasks(loop) if not task.done()]
        if not tasks:
            return
        for task in tasks:
            task.cancel()
        loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))


def frame_hand_off(asites: Dict[str, "_AsyncSite"]) -> Callable[[Envelope], None]:
    """How a copy the wire hands off reaches its destination here: one
    frame written by its sending site — except a bounce, which goes back
    to the site that sent the work (the one refusing it) and so lands
    straight in that site's inbox."""

    def deliver(env: Envelope) -> None:
        if type(env.payload) is Undeliverable:
            asites[env.dst].inbox.put_nowait(env)
        else:
            asites[env.src].write(env)

    return deliver


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

    Every frame for the peer — work, results, the reliable channel's
    sends and retransmits, a fault plan's delayed copies — enters through
    :meth:`send`.  While its site is flushing a drain
    (:meth:`_AsyncSite.flush`) the link holds the frames, and
    :meth:`release` hands the whole run over as one ``writelines``: one
    socket write per peer per flush, the same bytes in the same order.
    Outside a flush a frame is a run of its own.

    A run goes straight to the transport when the link is connected and
    nothing is waiting; otherwise it queues, and a single sender task
    drains the queue, dialling (or re-dialling, with capped exponential
    backoff) as needed.  Created on the event loop, used only from it —
    which is what makes the direct write safe: a non-empty queue always
    forces the queued path, so frames cannot overtake one another.
    """

    def __init__(self, site: "_AsyncSite", dst: str) -> None:
        self.site = site
        self.dst = dst
        #: Runs waiting for the sender task: (header/payload chunks, payload bytes).
        self.queue: "asyncio.Queue[Tuple[List[bytes], int]]" = asyncio.Queue()
        self.transport: Optional[asyncio.Transport] = None
        #: The current flush's frames, and their payload bytes.
        self.held: List[bytes] = []
        self.held_bytes = 0
        self.task = asyncio.get_running_loop().create_task(self._run())

    def send(self, payload: bytes) -> None:
        header = FRAME_HEADER.pack(len(payload))
        flushing = self.site.flushing
        if flushing is None:
            self._out([header, payload], len(payload))
            return
        if not self.held:
            flushing.append(self)
        self.held += (header, payload)
        self.held_bytes += len(payload)

    def release(self) -> None:
        """Send the frames held during a flush, as one run."""
        chunks, nbytes = self.held, self.held_bytes
        self.held, self.held_bytes = [], 0
        self._out(chunks, nbytes)

    def _out(self, chunks: List[bytes], nbytes: int) -> None:
        transport = self.transport
        if transport is not None and not transport.is_closing() and self.queue.empty():
            # Connected and idle: skip the sender task's wake-up.
            self._write(chunks, nbytes)
        else:
            self.queue.put_nowait((chunks, nbytes))

    def _write(self, chunks: List[bytes], nbytes: int) -> None:
        # Headers and (possibly preframed) payloads are handed over as
        # they are; the transport joins them into one send (a
        # ``b"".join`` on 3.11, a vectored send from 3.12).
        self.transport.writelines(chunks)
        self.site.bytes_sent += nbytes

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        config = self.site.cluster.config
        backoff = RECONNECT_BACKOFF_S
        while True:
            chunks, nbytes = await self.queue.get()
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
            self._write(chunks, nbytes)

    def close(self) -> None:
        self.task.cancel()
        if self.transport is not None:
            self.transport.close()


class _AsyncSite:
    """One site on an event loop: frame server, inbox, drain task.

    ``cluster`` is the owner — the :class:`AsyncCluster`, or a
    process-mode child's runtime — and the socket layer needs only its
    ``config`` (the host to bind and dial), ``port_of``, ``wire`` and
    ``flight_recorder``.
    """

    def __init__(self, node: ServerNode, cluster: "AsyncCluster") -> None:
        self.node = node
        self.cluster = cluster
        self.runtime = SiteRuntime(
            node, cluster.wire, lambda: cluster.flight_recorder, _STEPS_PER_YIELD
        )
        self.name = node.site
        self.bytes_sent = 0
        self.bytes_received = 0
        # Loop-bound state, created by the cluster's bootstrap coroutine.
        self.inbox: Optional[asyncio.Queue] = None
        self.up_event: Optional[asyncio.Event] = None
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        self._links: Dict[str, _PeerLink] = {}
        #: Links holding frames while :meth:`flush` runs, else ``None``.
        self.flushing: Optional[List[_PeerLink]] = None
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
        runtime = self.runtime
        while True:
            burst = [await self.inbox.get()]
            # Frozen: hold this envelope (frames already delivered survive
            # a crash window) until set_up.
            await self._until_up()
            # Greedily take whatever else already arrived: one task
            # switch then handles the whole burst instead of paying a
            # loop wakeup per envelope.
            while True:
                try:
                    burst.append(self.inbox.get_nowait())
                except asyncio.QueueEmpty:
                    break
            outgoing: List[Envelope] = []
            for _ in runtime.serve(burst, outgoing):
                # Every _STEPS_PER_YIELD steps, and after a contained
                # raise (so even one that recurs cannot hog the loop):
                # ship what is done and let the other sites run.
                self.flush(outgoing)
                outgoing.clear()
                await asyncio.sleep(0)
                await self._until_up()
            self.flush(outgoing)

    async def _until_up(self) -> None:
        """Wait while this site is down.  ``set_down`` only marks the site
        down in the wire, so the event is cleared here: waiting on an event
        still set from the last ``set_up`` would spin the loop."""
        down = self.cluster.wire.down
        while self.name in down:
            self.up_event.clear()
            await self.up_event.wait()

    def run(self, call: Callable[[ServerNode], object]) -> None:
        """A client call (submit, follow-up, expiry) on this site's node:
        send what it produced and nudge the drain task."""
        report = call(self.node)
        self.flush(report.outgoing)
        self.inbox.put_nowait(None)

    def wake(self) -> None:
        """After ``set_up``: let a frozen drain task serve again."""
        self.up_event.set()
        self.inbox.put_nowait(None)

    # -- outbound (event-loop thread only) ------------------------------

    def flush(self, outgoing: List[Envelope]) -> None:
        """Send what a drain (or a submit) produced through the wire:
        every peer link gets all of its frames as one write.  A lone
        envelope goes straight out."""
        send = self.cluster.wire.send
        if len(outgoing) < 2:
            for env in outgoing:
                send(env)
            return
        self.flushing = links = []
        try:
            for env in outgoing:
                send(env)
        finally:
            self.flushing = None
            for link in links:
                link.release()

    def write(self, env: Envelope) -> None:
        """A copy the wire handed off: one frame on the link to its peer."""
        try:
            payload = encode_envelope(env)
        except CodecError:
            # Something in the envelope has no wire form (a value type the
            # codec does not carry).  That costs this message, never the
            # site: the wire refuses it as it would a reliable give-up.
            self.cluster.wire.refuse(env)
            return
        link = self._links.get(env.dst)
        if link is None:
            link = self._links[env.dst] = _PeerLink(self, env.dst)
        link.send(payload)

    def shutdown(self) -> None:
        if self._drain_task is not None:
            self._drain_task.cancel()
        for link in self._links.values():
            link.close()
        if self.server is not None:
            self.server.close()


class AsyncCluster(ClusterBase):
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
        self._asites: Dict[str, _AsyncSite] = {}
        self._deliver = frame_hand_off(self._asites)
        super().__init__(sites, config, now=time.monotonic)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="hf-async-loop", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self._bootstrap(), self._loop).result(timeout=10.0)
        self._arm_faults()

    def _attach_site(self, node: ServerNode) -> None:
        self._asites[node.site] = _AsyncSite(node, self)

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
        self.wire.close()
        try:
            asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop).result(timeout=5.0)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        # Only now: until the loop stopped, a drain could still arm a timer.
        self._stop_threads()
        if not self._thread.is_alive():
            _finish_tasks(self._loop)
        self._loop.close()

    async def _shutdown(self) -> None:
        for site in self._asites.values():
            site.shutdown()
        await asyncio.sleep(0)

    # -- data ------------------------------------------------------------

    def port_of(self, site: str) -> int:
        try:
            return self._asites[site].port
        except KeyError:
            raise UnknownSite(site) from None

    def bytes_on_the_wire(self) -> int:
        return sum(site.bytes_sent for site in self._asites.values())

    # -- the wire's transport hooks (_deliver is set in __init__) --------

    def _site_up(self, site: str) -> None:
        self._call_on_loop(self._asites[site].wake)

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

    def _schedule(self, delay: float, fn: Callable[[], None]):
        """The cluster's timer wheel, firing ``fn`` on the event loop (the
        wire's delayed copies and the reliable channel's timers are armed
        from the loop and from client threads alike)."""
        return super()._schedule(delay, lambda: self._call_on_loop(fn))

    # -- queries --------------------------------------------------------
    # The query surface comes from ClusterBase; a client call hops onto
    # the event loop and blocks for the result, so submit-time errors
    # surface in the caller, exactly like the blocking transports.

    def _at_site(self, site: str, call: Callable[[ServerNode], object]) -> None:
        target = self._asites[site]
        self._run_on_loop(lambda: target.run(call))
