"""One OS process per site: the asyncio transport's multi-core mode.

``ClusterConfig(processes=True)`` makes ``transport="async"`` build a
:class:`ProcessCluster` instead of the shared-loop inline deployment:
every site is a spawned child process running its own event loop, frame
server and :class:`~repro.server.node.ServerNode`, so site CPU work
runs in genuine parallel (no shared GIL).  Inter-site query traffic
uses exactly the same framed envelope protocol as the inline and socket
transports — the child reuses the :class:`~repro.net.asyncio_cluster`
site machinery verbatim against a small duck-typed runtime.

What changes is everything that silently leaned on shared memory.  The
parent holds no stores and no nodes; each shared-memory convenience now
has an explicit wire representation on a per-child *control* channel
(same length-prefixed framing, a small tag-based control vocabulary):

* ``HELLO`` / ``PEERS`` — bootstrap handshake: each child reports its
  data port, the parent broadcasts the full port map;
* ``CREATE`` / ``GET`` / ``REPLACE`` — store access, proxied by
  :class:`StoreProxy` (objects cross as codec bytes, not references);
* ``SUBMIT`` / ``SUBMIT_SAVED`` / ``EXPIRE`` — query dispatch hooks;
* ``SET_DOWN`` / ``SET_UP`` — availability broadcasts, so every child's
  sender drops frames to a down peer exactly like the inline transport;
* ``STATS`` — per-site :class:`~repro.server.stats.NodeStats` snapshots
  for ``total_stats``;
* ``COMPLETE`` — the child-side originator pushes the finished
  :class:`~repro.engine.results.QueryResult` (with partition counts,
  plus any trace events buffered since the last drain) back unprompted;
  the parent turns it into the usual :class:`~repro.api.QueryOutcome`;
* ``TRACE_ON`` / ``TRACE_OFF`` / ``TRACE_DRAIN`` — cross-process span
  shipping: each child buffers :class:`~repro.tracing.TraceEvent`
  records in a span-id namespace of its own (child *i* of *n* sites
  allocates ``i+1, i+1+m, ...`` with stride ``m = 2n+1``), so the
  parent ingests shipped events into the user's tracer verbatim and
  the causal tree reconstructs with no id remapping;
* ``METRICS_ON`` / ``METRICS_SNAP`` — each child runs its own
  :class:`~repro.metrics.MetricsRegistry`; the parent merges child
  snapshots into one cluster view (``merge_snapshots``);
* ``STATS_PUSH`` — with ``stats_stream_s`` configured each child pushes
  periodic :meth:`NodeStats.sample` rows out-of-band; the reader thread
  lands them in the parent's :class:`~repro.metrics.collect.StatsTimeline`;
* ``FLIGHT_SNAP`` — fetch a child's flight-recorder ring (the per-site
  bounded span buffer armed by ``ClusterConfig.flight_recorder``); the
  parent merges the rings and writes the postmortem dump when a query
  dies badly;
* ``FAULTS`` — ships a :class:`~repro.faults.plan.FaultPlan`'s link
  chaos parameters (the plan object itself is not picklable); every
  drop/duplicate/reorder/jitter decision is then made child-side by the
  sending child's own plan copy, exactly where the inline transports
  make it; scheduled crashes stay parent-side as timers driving the
  ``SET_DOWN``/``SET_UP`` broadcasts (semantically identical — a crash
  *is* a set_down everywhere); ``FAULT_STATS`` pulls each child's chaos
  counters back so the parent's plan object reports cluster totals;
* ``PUT`` / ``CONTAINS`` / ``REMOVE`` / ``OIDS`` / ``OBJECTS`` /
  ``STORE_META`` — the rest of the :class:`~repro.storage.memstore.MemStore`
  surface, so :class:`StoreProxy` is a full drop-in (workload loading,
  migration and replication all run against it unchanged);
* ``FWD`` — the per-site forwarding table (record/drop/lookup), so
  :func:`~repro.naming.names.migrate_object` maintains the paper's
  naming invariants across process boundaries;
* ``REPL_DIR`` / ``EPOCH`` — replication: the parent runs the ordinary
  :class:`~repro.replication.ReplicationManager` against the store
  proxies, and every directory change (holder list, version counter)
  broadcasts to all children, which keep a local
  :class:`~repro.naming.directory.ReplicaDirectory` replica — so
  read-anycast routing and ``tried``-exclusion failover run child-side
  with zero extra round-trips; ``EPOCH`` fans write epochs out to every
  child's cache-invalidation listener (the PR 4/5 epoch listeners);
* ``RELIABLE_ON`` — arms a per-child
  :class:`~repro.faults.reliable.ReliableEndpoint` (ack + retransmit +
  dedup state lives child-side, timers on the child's loop); a
  retransmit give-up bounces detector credit child-side exactly like
  the inline transports *and* pushes a ``GIVE_UP`` note to the parent,
  which records it in ``cluster.undeliverable`` for diagnostics;
* ``CREDIT`` — per-query termination-credit snapshots, merged by the
  parent into the same ``credit_deficit`` number the inline transports
  compute from shared memory.

The parent serialises requests per child (one outstanding request, FIFO
replies), so replies need no correlation ids; ``COMPLETE``,
``STATS_PUSH`` and ``GIVE_UP`` pushes are routed out-of-band by the
per-child reader thread.  Trace drains and flight snaps run on the
client thread (never the reader thread, which must stay free to route
the replies).

A child that dies is detected two ways: its reader thread sees EOF and
fails the link immediately (in-flight requests and waits raise
:class:`~repro.errors.ChildProcessDied` / ``TerminationLost`` naming
the site), and a request that times out checks ``process.is_alive()``
before reporting anything vaguer.

The only configs still rejected are the simulator-only knobs (``costs``,
``mark_granularity``) — and those fail at ``ClusterConfig`` construction
with :class:`~repro.errors.ConfigError`, before any process is spawned
(see ``docs/ASYNC.md``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import queue
import socket
import threading
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..api import QueryOutcome
from ..config import ClusterConfig
from ..core.oid import Oid
from ..core.program import Program
from ..core.tuples import HFTuple
from ..engine.results import ExecutionStats, QueryResult, ResultSet
from ..errors import (
    ChildProcessDied,
    ConfigError,
    DuplicateObject,
    HyperFileError,
    ObjectNotFound,
    ResultSetRetired,
    TerminationLost,
    TransportClosed,
    UnknownSite,
)
from ..faults.plan import FaultPlan
from ..faults.reliable import ReliableConfig
from ..naming.directory import ReplicaDirectory
from ..replication import ReplicationManager
from ..server.stats import NodeStats
from ..termination.weights import ledger_deficit, ledger_of
from ..tracing import KINDS, FlightRecorder, QueryTracer, TeeTracer, TraceEvent, _jsonable
from .codec import (
    FRAME_HEADER,
    MAX_FRAME,
    encode_frame,
    _read_object,
    _read_program,
    _read_qid,
    _read_value,
    _write_object,
    _write_program,
    _write_qid,
    _write_value,
    _Reader,
    _Writer,
)
from .common import WallClockQueries
from .messages import QueryId

# -- control vocabulary ------------------------------------------------------

_C_HELLO = 0x01
_C_PEERS = 0x02
_C_CREATE = 0x03
_C_GET = 0x04
_C_REPLACE = 0x05
_C_SUBMIT = 0x06
_C_SUBMIT_SAVED = 0x07
_C_EXPIRE = 0x08
_C_SET_DOWN = 0x09
_C_SET_UP = 0x0A
_C_STATS = 0x0B
_C_SHUTDOWN = 0x0C
_C_TRACE_ON = 0x0D
_C_TRACE_OFF = 0x0E
_C_TRACE_DRAIN = 0x0F
_C_CREDIT = 0x10
_C_FAULT_STATS = 0x11
_C_METRICS_ON = 0x12
_C_METRICS_SNAP = 0x13
_C_FLIGHT_SNAP = 0x14
_C_FAULTS = 0x15
_C_PUT = 0x16
_C_CONTAINS = 0x17
_C_REMOVE = 0x18
_C_OIDS = 0x19
_C_STORE_META = 0x1A
_C_OBJECTS = 0x1B
_C_FWD = 0x1C
_C_REPL_DIR = 0x1D
_C_EPOCH = 0x1E
_C_RELIABLE_ON = 0x1F
_C_OK = 0x20
_C_ERR = 0x21
_C_OBJECT = 0x22
_C_STATS_REPLY = 0x23
_C_TRACE_EVENTS = 0x24
_C_METRICS_REPLY = 0x25
_C_VALUE = 0x26
_C_OBJECTS_REPLY = 0x27
_C_CREDIT_REPLY = 0x28
_C_MEMB_VIEW = 0x29

_C_COMPLETE = 0x30
_C_STATS_PUSH = 0x31
_C_GIVE_UP = 0x32

#: ``FWD`` sub-operations (one tag, a sub-op byte).
_FWD_RECORD, _FWD_DROP, _FWD_LOOKUP = 0, 1, 2

#: Error types the control channel can re-raise parent-side by name.
_ERROR_TYPES = {
    "ObjectNotFound": ObjectNotFound,
    "DuplicateObject": DuplicateObject,
    "UnknownSite": UnknownSite,
    "ConfigError": ConfigError,
    "HyperFileError": HyperFileError,
    "ResultSetRetired": ResultSetRetired,
}


def _encode_stats(stats: NodeStats) -> bytes:
    """Field-driven NodeStats encoding (new counters ride automatically)."""
    w = _Writer()
    named = [(f.name, getattr(stats, f.name)) for f in fields(stats)]
    w.varint(len(named))
    for name, value in named:
        w.text(name)
        if isinstance(value, dict):
            _write_value(w, tuple(sorted(value.items())))
        else:
            _write_value(w, value)
    return w.getvalue()


def _decode_stats(r: _Reader) -> NodeStats:
    stats = NodeStats()
    for _ in range(r.varint()):
        name = r.text()
        value = _read_value(r)
        if isinstance(getattr(stats, name, None), dict):
            value = dict(value)
        setattr(stats, name, value)
    return stats


def _events_to_json(events: List[TraceEvent]) -> str:
    """Trace events as one JSON document (the span-shipping wire form).

    Events are JSON-able by construction (``_jsonable`` stringifies
    anything exotic in the detail map) — the same flattening the jsonl
    exporter applies, so a shipped event round-trips identically to a
    dumped one.
    """
    return json.dumps(
        [
            {
                "t": e.time, "site": e.site, "kind": e.kind, "qid": e.qid,
                "span": e.span, "parent": e.parent,
                "detail": {k: _jsonable(v) for k, v in e.detail.items()},
            }
            for e in events
        ]
    )


def _events_from_json(text: str) -> List[TraceEvent]:
    if not text:
        return []
    return [
        TraceEvent(
            time=rec["t"], site=rec["site"], kind=rec["kind"], qid=rec["qid"],
            detail=rec["detail"], span=rec["span"], parent=rec["parent"],
        )
        for rec in json.loads(text)
    ]


def _encode_result(
    qid: QueryId, result: QueryResult, partition_counts, trace_json: str = ""
) -> bytes:
    w = _Writer()
    w.byte(_C_COMPLETE)
    _write_qid(w, qid)
    _write_value(w, tuple(result.oids))
    w.varint(len(result.retrieved))
    for target in sorted(result.retrieved):
        w.text(target)
        _write_value(w, tuple(result.retrieved[target]))
    for f in fields(ExecutionStats):
        w.varint(getattr(result.stats, f.name))
    w.byte(1 if result.partial else 0)
    w.text(result.partial_reason or "")
    counts = dict(partition_counts) if partition_counts else {}
    w.varint(len(counts))
    for site in sorted(counts):
        w.text(site)
        w.varint(counts[site])
    w.text(trace_json)
    return w.getvalue()


def _decode_result(
    r: _Reader,
) -> Tuple[QueryId, QueryResult, Optional[Dict[str, int]], str]:
    qid = _read_qid(r)
    oids = ResultSet()
    oids.extend(_read_value(r))
    retrieved = {r.text(): list(_read_value(r)) for _ in range(r.varint())}
    stats = ExecutionStats(**{f.name: r.varint() for f in fields(ExecutionStats)})
    partial = r.byte() == 1
    reason = r.text() or None
    counts = {r.text(): r.varint() for _ in range(r.varint())} or None
    trace_json = r.text()
    result = QueryResult(
        oids=oids, retrieved=retrieved, stats=stats, partial=partial, partial_reason=reason
    )
    return qid, result, counts, trace_json


def _err_frame(exc: BaseException) -> bytes:
    w = _Writer()
    w.byte(_C_ERR)
    w.text(type(exc).__name__)
    w.text(str(exc))
    return w.getvalue()


def _raise_err(r: _Reader) -> None:
    name = r.text()
    raise _ERROR_TYPES.get(name, HyperFileError)(r.text())


# Blocking frame reads on the parent's side of a control link (the child
# side runs on asyncio streams); the parent sends with ``encode_frame``.


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Up to ``n`` bytes; fewer only if the peer closed first."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            break
        buf += chunk
    return bytes(buf)


def _recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one frame: None on an orderly EOF between frames, and
    :class:`~repro.errors.HyperFileError` on a close that cuts one short."""
    header = _recv_exact(sock, FRAME_HEADER.size)
    if not header:
        return None
    if len(header) < FRAME_HEADER.size:
        raise HyperFileError("connection closed mid-header")
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME:
        raise HyperFileError(f"frame of {length} bytes exceeds limit")
    payload = _recv_exact(sock, length)
    if len(payload) < length:
        raise HyperFileError("connection closed mid-frame")
    return payload


def _recv_hello(conn: socket.socket, unlinked: List[str]) -> Tuple[str, int]:
    """A new child's HELLO: its site name and inter-site port.  A child
    that hangs up first is one of the ``unlinked`` sites, dead."""
    frame = _recv_frame(conn)
    if frame is None:
        site = unlinked[0] if len(unlinked) == 1 else tuple(unlinked)
        raise ChildProcessDied(site, "control link closed before HELLO")
    r = _Reader(frame)
    if r.byte() != _C_HELLO:
        raise HyperFileError("child handshake out of order")
    return r.text(), r.varint()


# --------------------------------------------------------------------------
# child process
# --------------------------------------------------------------------------


class _ChildRuntime:
    """The duck-typed cluster surface the reused site machinery needs.

    :class:`~repro.net.asyncio_cluster._AsyncSite` and ``_PeerLink`` talk
    to their owning cluster through exactly these members; providing them
    here lets the child run the same drain/send/framing code as the
    inline transport, unchanged.
    """

    def __init__(self, site: str, names: List[str], config: ClusterConfig) -> None:
        self.site = site
        self.names = names
        self.config = config
        self.ports: Dict[str, int] = {}
        self.fault_plan = None
        self.messages_dropped = 0
        self._down: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Local copy of the cluster-wide replica directory, kept in sync
        #: by REPL_DIR broadcasts; ``None`` when replication is off.
        self.replicas: Optional[ReplicaDirectory] = None
        #: This site's half of the reliable channel (RELIABLE_ON or the
        #: shipped config arm it); ``None`` means raw delivery.
        self._endpoint = None
        #: Envelopes this child's reliable channel gave up on (the
        #: inline transports' ``cluster.undeliverable``, kept per child
        #: and mirrored to the parent via GIVE_UP pushes).
        self.undeliverable: List = []
        #: Writes one out-of-band frame to the control socket (set once
        #: the control connection exists); GIVE_UP pushes ride this.
        self.send_oob: Optional[Callable[[bytes], None]] = None
        # Telemetry plane (all driven over the control channel).
        #: Shipping tracer installed by TRACE_ON; its events[cursor:]
        #: are what drains and completion piggybacks carry to the parent.
        self.tracer: Optional[QueryTracer] = None
        self.trace_cursor = 0
        #: Per-site flight-recorder ring, armed from the shipped config.
        self.flight_recorder: Optional[FlightRecorder] = None
        self.metrics = None

    def take_trace_events(self) -> List[TraceEvent]:
        """Events buffered since the last take (cursor-based, so the
        completion piggyback and explicit drains never double-ship)."""
        if self.tracer is None:
            return []
        events = self.tracer.events[self.trace_cursor:]
        self.trace_cursor = len(self.tracer.events)
        return events

    @property
    def sites(self) -> List[str]:
        return list(self.names)

    def is_down(self, site: str) -> bool:
        return site in self._down

    def port_of(self, site: str) -> int:
        try:
            return self.ports[site]
        except KeyError:
            raise UnknownSite(site) from None

    def _endpoint_for(self, site: str):
        """The sending site's reliable endpoint — in a child there is
        exactly one site, so this is ours or nothing."""
        return self._endpoint if site == self.site else None

    def _reliable_ingest(self, env) -> None:
        """A ReliableData/ReliableAck frame arrived on the wire."""
        if self._endpoint is None:
            # A peer is running the channel and we are not: the config
            # diverged between processes, which should be impossible
            # (the same ClusterConfig ships to every child).
            raise HyperFileError(
                f"reliable frame at {self.site} but the channel is not enabled here"
            )
        self._endpoint.on_wire(env)


def _install_reliable(runtime: _ChildRuntime, asite, rconfig: ReliableConfig) -> None:
    """Arm this child's half of the reliable channel.

    Mirrors the inline transport's ``enable_reliable`` wiring exactly,
    one site at a time: acks, retransmit timers and dedup state all live
    on this child's event loop.  A give-up recovers detector credit
    child-side (an ``Undeliverable`` bounce into our own inbox, exactly
    like the inline ``_give_up``) and additionally pushes a GIVE_UP note
    so the parent's ``undeliverable`` diagnostics stay truthful.
    """
    from ..faults.reliable import ReliableEndpoint
    loop = runtime._loop
    node = asite.node

    def give_up(env) -> None:
        runtime.undeliverable.append(env)
        if runtime.send_oob is not None:
            w = _Writer()
            w.byte(_C_GIVE_UP)
            w.text(runtime.site)
            w.text(env.src)
            w.text(env.dst)
            w.text(type(env.payload).__name__)
            w.text(str(getattr(env.payload, "qid", "") or ""))
            runtime.send_oob(w.getvalue())
        asite.bounce(env)

    runtime._endpoint = ReliableEndpoint(
        runtime.site,
        clock=time.monotonic,
        # Everything that schedules runs on this child's loop thread.
        scheduler=lambda delay, fn: loop.call_later(delay, fn),
        send_raw=asite._send_raw,
        # on_wire runs inside the drain task, which steps the node next.
        deliver_up=node.on_message,
        node=node,
        config=rconfig,
        on_give_up=give_up,
    )


def _child_main(site: str, names: List[str], parent_port: int, config: ClusterConfig) -> None:
    """Entry point of one spawned site process."""
    asyncio.run(_child_serve(site, names, parent_port, config))


async def _child_serve(
    site: str, names: List[str], parent_port: int, config: ClusterConfig
) -> None:
    from ..server.node import ServerNode
    from ..sim.costs import FREE_COSTS
    from ..storage.memstore import MemStore
    from ..termination.base import make_strategy
    from .asyncio_cluster import _AsyncSite
    from .codec import FrameReader

    runtime = _ChildRuntime(site, names, config)
    runtime._loop = asyncio.get_running_loop()
    store = MemStore(site)

    control_writer: Optional[asyncio.StreamWriter] = None

    def push_complete(qid: QueryId, result: QueryResult) -> None:
        counts = None
        ctx = node.contexts.get(qid)
        if ctx is not None and ctx.partition_counts:
            counts = ctx.partition_counts
        # Piggyback the spans buffered since the last drain: the common
        # case (one query at a time) ships its whole trace with zero
        # extra round-trips; the parent's post-wait drain picks up the
        # other children's events.
        shipped = runtime.take_trace_events()
        payload = _encode_result(qid, result, counts, _events_to_json(shipped) if shipped else "")
        control_writer.write(FRAME_HEADER.pack(len(payload)) + payload)

    # Replication: every child keeps a full local replica directory (it
    # is small — holder lists and version counters), synced by REPL_DIR
    # broadcasts from the parent's manager.  Routing and failover then
    # consult it locally, exactly like the inline transports.
    if config.replication is not None and config.replication.enabled:
        runtime.replicas = ReplicaDirectory()

    node = ServerNode(
        site,
        store,
        costs=FREE_COSTS,
        termination=make_strategy(config.termination),
        discipline=config.discipline,
        result_mode=config.result_mode,
        on_query_complete=push_complete,
        is_site_up=lambda s: not runtime.is_down(s),
        batching=config.batching,
        caching=config.caching,
        replicas=runtime.replicas,
        qos=config.qos,
    )
    node.now_fn = time.monotonic
    # Span-id namespacing: with n sites and m = 2n + 1 lanes, child i's
    # shipping tracer allocates from lane i+1 and its flight recorder
    # from lane n+1+i; the parent keeps lane 0 (start=m, step=m) for its
    # own rare allocations.  Shipped span ids never collide anywhere.
    index = names.index(site)
    lanes = 2 * len(names) + 1
    if config.flight_recorder is not None:
        runtime.flight_recorder = FlightRecorder(
            replace(config.flight_recorder, dump_dir=None),  # parent writes the files
            span_start=len(names) + 1 + index,
            span_step=lanes,
        )
        runtime.flight_recorder.now_fn = time.monotonic
        node.tracer = runtime.flight_recorder
    asite = _AsyncSite(node, runtime)
    await asite.bootstrap()
    asite._drain_task = asyncio.get_running_loop().create_task(asite.drain())

    if config.reliable:
        _install_reliable(
            runtime,
            asite,
            config.reliable if isinstance(config.reliable, ReliableConfig) else ReliableConfig(),
        )

    reader, control_writer = await asyncio.open_connection(config.host, parent_port)

    def send_oob(payload: bytes) -> None:
        control_writer.write(FRAME_HEADER.pack(len(payload)) + payload)

    runtime.send_oob = send_oob
    hello = _Writer()
    hello.byte(_C_HELLO)
    hello.text(site)
    hello.varint(asite.port)
    payload = hello.getvalue()
    control_writer.write(FRAME_HEADER.pack(len(payload)) + payload)

    async def stats_pusher(period_s: float) -> None:
        """Push one NodeStats sample per period, out-of-band (STATS_PUSH
        frames are routed by the parent's reader thread, never queued as
        a reply)."""
        while True:
            await asyncio.sleep(period_s)
            sample = node.stats.sample()
            sample["work_depth"] = node.work_depth
            w = _Writer()
            w.byte(_C_STATS_PUSH)
            w.text(site)
            w.text(json.dumps({"t": time.monotonic(), "sample": sample}))
            push = w.getvalue()
            control_writer.write(FRAME_HEADER.pack(len(push)) + push)
            if node.tracer is not None:
                node.tracer.emit(site, "stats_push", "", sites=1)

    pusher_task = None
    if config.stats_stream_s is not None:
        pusher_task = asyncio.get_running_loop().create_task(
            stats_pusher(config.stats_stream_s)
        )

    frames = FrameReader()
    running = True
    while running:
        chunk = await reader.read(64 * 1024)
        if not chunk:
            break
        for frame in frames.feed(chunk):
            reply = _handle_control(frame, runtime, asite, store)
            if reply is _SHUTDOWN:
                reply = bytes((_C_OK,))
                running = False
            if reply is not None:
                control_writer.write(FRAME_HEADER.pack(len(reply)) + reply)
        await control_writer.drain()
    if pusher_task is not None:
        pusher_task.cancel()
    if runtime._endpoint is not None:
        runtime._endpoint.close()
    asite.shutdown()
    control_writer.close()


_SHUTDOWN = object()


def _handle_control(frame, runtime: _ChildRuntime, asite, store):
    """Process one control frame; returns the reply bytes (or None)."""
    r = _Reader(frame)
    tag = r.byte()
    try:
        if tag == _C_PEERS:
            runtime.ports = {r.text(): r.varint() for _ in range(r.varint())}
            return bytes((_C_OK,))
        if tag == _C_CREATE:
            tuples = [HFTuple(r.text(), _read_value(r), _read_value(r)) for _ in range(r.varint())]
            size_hint = _read_value(r)
            obj = store.create(tuples, size_hint=size_hint)
            w = _Writer()
            w.byte(_C_OBJECT)
            _write_object(w, obj)
            return w.getvalue()
        if tag == _C_GET:
            obj = store.get(_read_value(r))
            w = _Writer()
            w.byte(_C_OBJECT)
            _write_object(w, obj)
            return w.getvalue()
        if tag == _C_REPLACE:
            store.replace(_read_object(r))
            return bytes((_C_OK,))
        if tag == _C_SUBMIT:
            qid = _read_qid(r)
            program = _read_program(r, qid)
            initial = list(_read_value(r))
            priority = r.text() or None
            tenant = r.text() or None
            asite.submit(qid, program, initial, priority, tenant)
            return bytes((_C_OK,))
        if tag == _C_SUBMIT_SAVED:
            qid = _read_qid(r)
            program = _read_program(r, qid)
            source_qid = _read_qid(r)
            asite.submit_from_saved(qid, program, source_qid)
            return bytes((_C_OK,))
        if tag == _C_EXPIRE:
            asite.expire(_read_qid(r))
            return bytes((_C_OK,))
        if tag == _C_SET_DOWN:
            target = r.text()
            runtime._down.add(target)
            if target == runtime.site:
                asite.up_event.clear()
            return bytes((_C_OK,))
        if tag == _C_SET_UP:
            target = r.text()
            runtime._down.discard(target)
            if target == runtime.site:
                asite.up_event.set()
                asite.inbox.put_nowait(None)
            return bytes((_C_OK,))
        if tag == _C_STATS:
            return bytes((_C_STATS_REPLY,)) + _encode_stats(asite.node.stats)
        if tag == _C_TRACE_ON:
            kinds = [r.text() for _ in range(r.varint())] or None
            span_start = r.varint()
            span_step = r.varint()
            tracer = QueryTracer(kinds, span_start=span_start, span_step=span_step)
            tracer.now_fn = time.monotonic
            runtime.tracer = tracer
            runtime.trace_cursor = 0
            recorder = runtime.flight_recorder
            asite.node.tracer = TeeTracer(tracer, recorder) if recorder is not None else tracer
            return bytes((_C_OK,))
        if tag == _C_TRACE_OFF:
            runtime.tracer = None
            runtime.trace_cursor = 0
            asite.node.tracer = runtime.flight_recorder
            return bytes((_C_OK,))
        if tag == _C_TRACE_DRAIN:
            w = _Writer()
            w.byte(_C_TRACE_EVENTS)
            w.text(_events_to_json(runtime.take_trace_events()))
            return w.getvalue()
        if tag == _C_METRICS_ON:
            from ..metrics.registry import MetricsRegistry

            runtime.metrics = MetricsRegistry()
            asite.node.metrics = runtime.metrics
            return bytes((_C_OK,))
        if tag == _C_METRICS_SNAP:
            if runtime.metrics is None:
                snap = {"metrics": []}
            else:
                runtime.metrics.publish_node_stats(runtime.site, asite.node.stats)
                snap = runtime.metrics.snapshot()
            w = _Writer()
            w.byte(_C_METRICS_REPLY)
            w.text(json.dumps(snap))
            return w.getvalue()
        if tag == _C_FLIGHT_SNAP:
            recorder = runtime.flight_recorder
            events = list(recorder.events) if recorder is not None else []
            w = _Writer()
            w.byte(_C_TRACE_EVENTS)
            w.text(_events_to_json(events))
            return w.getvalue()
        if tag == _C_FAULTS:
            seed = r.varint()
            drop, duplicate, reorder, jitter, window = (_read_value(r) for _ in range(5))
            plan = FaultPlan(
                seed=seed, drop=drop, duplicate=duplicate, reorder=reorder,
                delay_jitter_s=jitter, reorder_window_s=window,
            )
            for _ in range(r.varint()):
                a, b = r.text(), r.text()
                plan.link(
                    a, b,
                    drop=_read_value(r), duplicate=_read_value(r),
                    reorder=_read_value(r), delay_jitter_s=_read_value(r),
                )
            for _ in range(r.varint()):
                plan.partition(r.text(), r.text())
            runtime.fault_plan = plan
            return bytes((_C_OK,))
        if tag == _C_FAULT_STATS:
            plan = runtime.fault_plan
            w = _Writer()
            w.byte(_C_VALUE)
            _write_value(
                w,
                (
                    runtime.messages_dropped,
                    plan.decisions if plan is not None else 0,
                    plan.dropped if plan is not None else 0,
                    plan.duplicated if plan is not None else 0,
                    plan.delayed if plan is not None else 0,
                    plan.partition_drops if plan is not None else 0,
                ),
            )
            return w.getvalue()
        if tag == _C_PUT:
            obj = _read_object(r)
            overwrite = r.byte() == 1
            store.put(obj, overwrite=overwrite)
            return bytes((_C_OK,))
        if tag == _C_CONTAINS:
            w = _Writer()
            w.byte(_C_VALUE)
            _write_value(w, store.contains(_read_value(r)))
            return w.getvalue()
        if tag == _C_REMOVE:
            obj = store.remove(_read_value(r))
            w = _Writer()
            w.byte(_C_OBJECT)
            _write_object(w, obj)
            return w.getvalue()
        if tag == _C_OIDS:
            w = _Writer()
            w.byte(_C_VALUE)
            _write_value(w, tuple(store.oids()))
            return w.getvalue()
        if tag == _C_STORE_META:
            w = _Writer()
            w.byte(_C_VALUE)
            _write_value(w, (store.epoch, store.alloc_high, len(store)))
            return w.getvalue()
        if tag == _C_OBJECTS:
            objs = list(store.objects())
            w = _Writer()
            w.byte(_C_OBJECTS_REPLY)
            w.varint(len(objs))
            for obj in objs:
                _write_object(w, obj)
            return w.getvalue()
        if tag == _C_FWD:
            op = r.byte()
            table = asite.node.forwarding
            if op == _FWD_RECORD:
                table.record(_read_value(r), r.text())
                return bytes((_C_OK,))
            if op == _FWD_DROP:
                table.drop(_read_value(r))
                return bytes((_C_OK,))
            w = _Writer()
            w.byte(_C_VALUE)
            _write_value(w, table.lookup(_read_value(r)))
            return w.getvalue()
        if tag == _C_REPL_DIR:
            oid = _read_value(r)
            version = r.varint()
            holders = tuple(r.text() for _ in range(r.varint()))
            if runtime.replicas is not None:
                if version == 0:  # drop sentinel: the entry is gone
                    runtime.replicas.drop(oid)
                else:
                    runtime.replicas.record(oid, holders, version)
            return bytes((_C_OK,))
        if tag == _C_EPOCH:
            target = r.text()
            epoch = r.varint()
            asite.node.observe_epoch(target, epoch)
            return bytes((_C_OK,))
        if tag == _C_MEMB_VIEW:
            # The parent's membership view, as a full status table: the
            # child's routing guard must skip leaving/departed peers.
            statuses = {r.text(): r.text() for _ in range(r.varint())}
            asite.node.membership_status = lambda site: statuses.get(site, "departed")
            return bytes((_C_OK,))
        if tag == _C_RELIABLE_ON:
            base = _read_value(r)
            cap = _read_value(r)
            retries = r.varint()
            _install_reliable(
                runtime, asite,
                ReliableConfig(base_backoff_s=base, max_backoff_s=cap, max_retries=retries),
            )
            return bytes((_C_OK,))
        if tag == _C_CREDIT:
            qid = _read_qid(r)
            ctx = asite.node.contexts.get(qid)
            w = _Writer()
            w.byte(_C_CREDIT_REPLY)
            if ctx is None:
                w.byte(0)
            else:
                w.byte(1)
                for part in ledger_of(ctx.term_state):  # credits, or None
                    _write_value(w, part)
            return w.getvalue()
        if tag == _C_SHUTDOWN:
            return _SHUTDOWN
        raise HyperFileError(f"unknown control tag 0x{tag:02x}")
    except Exception as exc:  # surfaced parent-side as a typed error
        return _err_frame(exc)


# --------------------------------------------------------------------------
# parent side
# --------------------------------------------------------------------------


class StoreProxy:
    """Parent-side handle on one child's object store.

    The complete public :class:`~repro.storage.memstore.MemStore`
    surface (``tests/net/test_procserver.py`` introspects both classes
    so any future drift fails loudly); every call is one control
    round-trip, objects crossing as codec bytes.  ``scan`` filters
    client-side over one ``OBJECTS`` fetch — the predicate is a Python
    callable and does not cross the wire.
    """

    def __init__(self, cluster: "ProcessCluster", site: str) -> None:
        self._cluster = cluster
        self._site = site

    @property
    def site(self) -> str:
        """The owning site's name (same surface as MemStore)."""
        return self._site

    @property
    def epoch(self) -> int:
        """The child store's current mutation epoch."""
        return self._meta()[0]

    @property
    def alloc_high(self) -> int:
        """Exclusive upper bound on local ids minted at the child."""
        return self._meta()[1]

    def _meta(self) -> Tuple[int, int, int]:
        reply = self._cluster._request(self._site, bytes((_C_STORE_META,)), expect=_C_VALUE)
        return _read_value(reply)

    def create(self, tuples: Iterable[HFTuple] = (), size_hint: Optional[int] = None):
        w = _Writer()
        w.byte(_C_CREATE)
        items = list(tuples)
        w.varint(len(items))
        for t in items:
            w.text(t.type)
            _write_value(w, t.key)
            _write_value(w, t.data)
        _write_value(w, size_hint)
        reply = self._cluster._request(self._site, w.getvalue(), expect=_C_OBJECT)
        return _read_object(reply)

    def put(self, obj, overwrite: bool = False) -> None:
        w = _Writer()
        w.byte(_C_PUT)
        _write_object(w, obj)
        w.byte(1 if overwrite else 0)
        self._cluster._request(self._site, w.getvalue(), expect=_C_OK)

    def get(self, oid: Oid):
        w = _Writer()
        w.byte(_C_GET)
        _write_value(w, oid)
        reply = self._cluster._request(self._site, w.getvalue(), expect=_C_OBJECT)
        return _read_object(reply)

    def replace(self, obj) -> None:
        w = _Writer()
        w.byte(_C_REPLACE)
        _write_object(w, obj)
        self._cluster._request(self._site, w.getvalue(), expect=_C_OK)

    def contains(self, oid: Oid) -> bool:
        w = _Writer()
        w.byte(_C_CONTAINS)
        _write_value(w, oid)
        reply = self._cluster._request(self._site, w.getvalue(), expect=_C_VALUE)
        return bool(_read_value(reply))

    def remove(self, oid: Oid):
        w = _Writer()
        w.byte(_C_REMOVE)
        _write_value(w, oid)
        reply = self._cluster._request(self._site, w.getvalue(), expect=_C_OBJECT)
        return _read_object(reply)

    def oids(self) -> List[Oid]:
        reply = self._cluster._request(self._site, bytes((_C_OIDS,)), expect=_C_VALUE)
        return list(_read_value(reply))

    def objects(self) -> Iterator:
        reply = self._cluster._request(self._site, bytes((_C_OBJECTS,)), expect=_C_OBJECTS_REPLY)
        return iter([_read_object(reply) for _ in range(reply.varint())])

    def scan(self, predicate) -> Iterator:
        for obj in self.objects():
            if predicate(obj):
                yield obj

    def __len__(self) -> int:
        return self._meta()[2]

    def __contains__(self, oid: object) -> bool:
        return isinstance(oid, Oid) and self.contains(oid)

    def __repr__(self) -> str:
        return f"StoreProxy(site={self._site!r})"


class _ForwardingProxy:
    """Parent-side handle on one child node's forwarding table, so
    migration maintains the paper's naming invariants across processes
    (:func:`~repro.naming.names.migrate_object` runs against these
    unchanged)."""

    def __init__(self, cluster: "ProcessCluster", site: str) -> None:
        self._cluster = cluster
        self._site = site

    @property
    def site(self) -> str:
        return self._site

    def _op(self, op: int, oid: Oid, new_site: str = "") -> _Reader:
        w = _Writer()
        w.byte(_C_FWD)
        w.byte(op)
        _write_value(w, oid)
        if op == _FWD_RECORD:
            w.text(new_site)
        expect = _C_OK if op in (_FWD_RECORD, _FWD_DROP) else _C_VALUE
        return self._cluster._request(self._site, w.getvalue(), expect=expect)

    def record(self, oid: Oid, new_site: str) -> None:
        self._op(_FWD_RECORD, oid, new_site)

    def drop(self, oid: Oid) -> None:
        self._op(_FWD_DROP, oid)

    def lookup(self, oid: Oid) -> Optional[str]:
        return _read_value(self._op(_FWD_LOOKUP, oid))

    def __repr__(self) -> str:
        return f"_ForwardingProxy(site={self._site!r})"


class _SyncedDirectory(ReplicaDirectory):
    """The parent's replica directory, broadcast to every child.

    The ordinary :class:`~repro.replication.ReplicationManager` mutates
    this exactly as it would a shared-memory directory; each change
    additionally ships as one REPL_DIR frame per child, so the children's
    local copies — the ones read-anycast routing and ``tried``-exclusion
    failover consult on the query path — never lag a write.
    """

    def __init__(self, cluster: "ProcessCluster") -> None:
        super().__init__()
        self._cluster = cluster

    def record(self, oid: Oid, sites, version: Optional[int] = None) -> None:
        super().record(oid, sites, version)
        self._push(oid)

    def bump_version(self, oid: Oid) -> int:
        version = super().bump_version(oid)
        self._push(oid)
        return version

    def drop(self, oid: Oid) -> None:
        super().drop(oid)
        self._push(oid)

    def _push(self, oid: Oid) -> None:
        entry = self._entries.get(oid.key())  # not sites_of: no counter noise
        w = _Writer()
        w.byte(_C_REPL_DIR)
        _write_value(w, oid)
        if entry is None:  # dropped: version 0 is the tombstone
            w.varint(0)
            w.varint(0)
        else:
            w.varint(entry.version)
            w.varint(len(entry.sites))
            for site in entry.sites:
                w.text(site)
        self._cluster._broadcast(w.getvalue())


@dataclass
class _UndeliveredNote:
    """Parent-side record of one child-side reliable give-up.

    The envelope itself stays in the child (``runtime.undeliverable``
    holds the real object); this note carries what diagnostics need —
    who gave up on what — without shipping payload bytes.
    """

    site: str
    src: str
    dst: str
    kind: str
    qid: str


class _ChildDeath:
    """Completion-queue marker: the originator's process died mid-query."""

    class _Result:
        partial = False
        partial_reason = None

    def __init__(self, site: str) -> None:
        self.site = site
        self.result = self._Result()


#: Reply-queue sentinel a dying reader thread leaves for a blocked request.
_LINK_LOST = object()


class _RemoteSiteHandle:
    """Stand-in for a ServerNode in the parent's ``nodes`` map.

    The shared query surface only touches ``contexts`` (for credit
    diagnostics, empty here: the contexts live in the child), so this
    carries just enough shape to keep the common code honest.
    """

    def __init__(self, site: str) -> None:
        self.site = site
        self.contexts: Dict = {}


class _ChildLink:
    """Parent bookkeeping for one child: process, control socket, reader."""

    def __init__(self, site: str, process, conn: socket.socket, data_port: int) -> None:
        self.site = site
        self.process = process
        self.conn = conn
        self.data_port = data_port
        self.lock = threading.Lock()
        self.replies: "queue.Queue" = queue.Queue()
        self.reader: Optional[threading.Thread] = None
        #: Set by the reader thread on its way out; requests against a
        #: dead link fail fast with ChildProcessDied instead of timing out.
        self.dead = False


class ProcessCluster(WallClockQueries):
    """The asyncio transport with one OS process per site.

    Built by ``AsyncCluster(..., config=ClusterConfig(processes=True))``
    (or ``transport="async"`` with that config); not normally
    instantiated directly.
    """

    #: Control-channel budget for one request round-trip.
    RPC_TIMEOUT_S = 30.0

    def __init__(
        self, sites: Union[int, Iterable[str]] = 3, *, config: Optional[ClusterConfig] = None
    ) -> None:
        config = config if config is not None else ClusterConfig(processes=True)
        # ClusterConfig.__post_init__ rejects these when processes=True is
        # set on the config itself; this catches a default-mode config
        # handed straight to ProcessCluster.
        config.require_default("costs", "mark_granularity", transport="async (process mode)")
        self.config = config
        names = [f"site{i}" for i in range(sites)] if isinstance(sites, int) else list(sites)
        if not names:
            raise ValueError("a cluster needs at least one site")
        self._init_queries(config.qos)
        self._closed = False
        self._down: set = set()
        self._down_lock = threading.Lock()
        self.replication = None
        self.undeliverable: List = []
        self.nodes: Dict[str, _RemoteSiteHandle] = {n: _RemoteSiteHandle(n) for n in names}
        self._tracer: Optional[QueryTracer] = None
        self.fault_plan: Optional[FaultPlan] = None
        self._fault_timers: List[threading.Timer] = []
        self._init_telemetry(config)

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((config.host, 0))
        listener.listen(len(names))
        parent_port = listener.getsockname()[1]

        # spawn (not fork): the parent may carry live threads and event
        # loops from other clusters; inheriting them is a deadlock trap.
        ctx = multiprocessing.get_context("spawn")
        # The fault plan holds a lock and an RNG — not picklable; its
        # link-chaos parameters ship over the control channel instead
        # (use_faults below), and crashes fire from parent-side timers.
        child_config = config.replace(fault_plan=None)
        procs = {
            name: ctx.Process(
                target=_child_main,
                args=(name, names, parent_port, child_config),
                name=f"hf-proc-{name}",
                daemon=True,
            )
            for name in names
        }
        self._links: Dict[str, _ChildLink] = {}
        try:
            for proc in procs.values():
                proc.start()
            listener.settimeout(60.0)
            for _ in names:
                conn, _addr = listener.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                site, port = _recv_hello(conn, [n for n in names if n not in self._links])
                self._links[site] = _ChildLink(site, procs[site], conn, port)
        except Exception:
            for proc in procs.values():
                if proc.is_alive():
                    proc.terminate()
            raise
        finally:
            listener.close()

        for link in self._links.values():
            link.reader = threading.Thread(
                target=self._reader_loop, args=(link,),
                name=f"hf-proc-reader-{link.site}", daemon=True,
            )
            link.reader.start()

        peers = _Writer()
        peers.byte(_C_PEERS)
        peers.varint(len(self._links))
        for site, link in self._links.items():
            peers.text(site)
            peers.varint(link.data_port)
        frame = peers.getvalue()
        for site in self._links:
            self._request(site, frame, expect=_C_OK)

        # The shared data-management surface (WallClockQueries.migrate,
        # replicate_all, ReplicationManager) runs against these proxies
        # exactly as it runs against MemStore/ForwardingTable inline.
        self.stores: Dict[str, StoreProxy] = {n: StoreProxy(self, n) for n in names}
        self.forwarding: Dict[str, _ForwardingProxy] = {
            n: _ForwardingProxy(self, n) for n in names
        }
        if config.replication is not None and config.replication.enabled:
            self.replication = ReplicationManager(
                config.replication, self.stores, self.forwarding, _SyncedDirectory(self)
            )
            self.replication.add_epoch_listener(self._broadcast_epoch)
        self._init_membership(config)
        self._reliable_enabled = bool(config.reliable)

        if config.fault_plan is not None:
            self.use_faults(config.fault_plan)

    # -- control channel -------------------------------------------------

    def _reader_loop(self, link: _ChildLink) -> None:
        try:
            while True:
                frame = _recv_frame(link.conn)
                if frame is None:
                    return
                if frame[0] == _C_COMPLETE:
                    r = _Reader(frame)
                    r.byte()
                    qid, result, counts, trace_json = _decode_result(r)
                    self._on_remote_complete(qid, result, counts, trace_json)
                elif frame[0] == _C_STATS_PUSH:
                    r = _Reader(frame)
                    r.byte()
                    self._on_stats_push(r.text(), r.text())
                elif frame[0] == _C_GIVE_UP:
                    r = _Reader(frame)
                    r.byte()
                    self.undeliverable.append(
                        _UndeliveredNote(r.text(), r.text(), r.text(), r.text(), r.text())
                    )
                else:
                    link.replies.put(frame)
        except (OSError, HyperFileError):
            return
        finally:
            self._on_link_lost(link)

    def _on_link_lost(self, link: _ChildLink) -> None:
        """Reader-thread epitaph: mark the link dead, wake any request
        blocked on its reply queue, and fail every in-flight query whose
        originator just vanished — a child death must surface as a typed
        error naming the site, never as a silent 30s control timeout."""
        link.dead = True
        link.replies.put(_LINK_LOST)
        if self._closed:
            return  # clean shutdown tears links down on purpose
        for qid in list(self._inflight):
            if qid.originator == link.site and self._inflight.pop(qid, None) is not None:
                self._outcomes.put(qid, _ChildDeath(link.site))

    def _request(self, site: str, frame: bytes, expect: int) -> _Reader:
        link = self._links.get(site)
        if link is None:
            raise UnknownSite(site)
        with link.lock:
            if self._closed:
                raise TransportClosed("cluster is closed")
            if link.dead:
                raise ChildProcessDied(site)
            try:
                link.conn.sendall(encode_frame(frame))
            except OSError as exc:
                raise ChildProcessDied(site, f"control send failed ({exc})") from None
            try:
                reply = link.replies.get(timeout=self.RPC_TIMEOUT_S)
            except queue.Empty:
                if not link.process.is_alive():
                    raise ChildProcessDied(site, "no control reply") from None
                raise HyperFileError(f"no control reply from {site}") from None
        if reply is _LINK_LOST:
            raise ChildProcessDied(site, "control link lost mid-request")
        r = _Reader(reply)
        tag = r.byte()
        if tag == _C_ERR:
            _raise_err(r)
        if tag != expect:
            raise HyperFileError(f"unexpected control reply 0x{tag:02x} from {site}")
        return r

    def _broadcast(self, frame: bytes, expect: int = _C_OK) -> None:
        for site in list(self._links):
            self._request(site, frame, expect=expect)

    def _apply_membership_view(self) -> None:
        """Ship the full status table to every child so their routing
        guards skip leaving/departed peers.  Best-effort per child: a
        failed site's process may already be unreachable, and the view
        declaring it departed is exactly the frame it cannot take."""
        assert self.membership is not None
        statuses = self.membership.view.statuses
        w = _Writer()
        w.byte(_C_MEMB_VIEW)
        w.varint(len(statuses))
        for site, status in statuses:
            w.text(site)
            w.text(status)
        frame = w.getvalue()
        for site in list(self._links):
            try:
                self._request(site, frame, expect=_C_OK)
            except (ChildProcessDied, HyperFileError):
                continue

    def _on_stats_push(self, site: str, payload: str) -> None:
        """A child's periodic stats sample (reader thread).  Each push is
        one single-site timeline row; CLOCK_MONOTONIC is system-wide on
        the platforms we run on, so child timestamps are comparable."""
        if self.stats_timeline is None:
            return
        record = json.loads(payload)
        self.stats_timeline.append(record["t"], {site: record["sample"]})

    def _on_remote_complete(
        self,
        qid: QueryId,
        result: QueryResult,
        counts: Optional[Dict[str, int]],
        trace_json: str = "",
    ) -> None:
        if trace_json and self._tracer is not None:
            self._tracer.ingest(_events_from_json(trace_json))
        info = self._inflight.pop(qid, None)
        outcome = QueryOutcome(
            qid=qid,
            result=result,
            submitted_at=info.submitted_at if info is not None else 0.0,
            completed_at=time.monotonic(),
            partition_counts=counts,
        )
        self._outcomes.put(qid, outcome)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for timer in self._fault_timers:
            timer.cancel()
        shutdown = bytes((_C_SHUTDOWN,))
        for link in self._links.values():
            # Don't interleave with an in-flight request on the same
            # socket; a child that never frees the lock gets terminated.
            acquired = link.lock.acquire(timeout=2.0)
            try:
                link.conn.sendall(encode_frame(shutdown))
            except OSError:
                pass
            finally:
                if acquired:
                    link.lock.release()
        for link in self._links.values():
            link.process.join(timeout=5.0)
            if link.process.is_alive():
                link.process.terminate()
            try:
                link.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- data ------------------------------------------------------------

    @property
    def sites(self) -> List[str]:
        return list(self.nodes)

    def store(self, site: str) -> StoreProxy:
        proxy = self.stores.get(site)
        if proxy is None:
            raise UnknownSite(site)
        return proxy

    def port_of(self, site: str) -> int:
        """The port ``site``'s process accepts inter-site frames on."""
        link = self._links.get(site)
        if link is None:
            raise UnknownSite(site)
        return link.data_port

    # migrate/replicate_all: inherited from WallClockQueries — they run
    # against the store/forwarding proxies (and the parent-side
    # ReplicationManager when replication is on), so process mode keeps
    # the exact inline semantics including epoch-listener fan-out.

    def _broadcast_epoch(self, site: str, epoch: int) -> None:
        """Epoch-listener hook: tell every child node that ``site``'s
        store mutated, so PR 4/5 cache invalidation fires in each child
        exactly as it does in each inline node."""
        w = _Writer()
        w.byte(_C_EPOCH)
        w.text(site)
        w.varint(epoch)
        self._broadcast(w.getvalue())

    # -- availability ----------------------------------------------------

    def is_up(self, site: str) -> bool:
        with self._down_lock:
            return site not in self._down

    def is_down(self, site: str) -> bool:
        return not self.is_up(site)

    def _broadcast_availability(self, tag: int, site: str) -> None:
        w = _Writer()
        w.byte(tag)
        w.text(site)
        frame = w.getvalue()
        for target in self._links:
            self._request(target, frame, expect=_C_OK)

    def set_down(self, site: str) -> None:
        """Freeze a site's process; every child drops frames to it."""
        if site not in self._links:
            raise UnknownSite(site)
        with self._down_lock:
            self._down.add(site)
        self._broadcast_availability(_C_SET_DOWN, site)

    def set_up(self, site: str) -> None:
        if site not in self._links:
            raise UnknownSite(site)
        with self._down_lock:
            self._down.discard(site)
        self._broadcast_availability(_C_SET_UP, site)

    # -- fault injection -------------------------------------------------

    def use_faults(self, plan: FaultPlan) -> None:
        """Attach a chaos schedule.

        Link chaos (drop/duplicate/reorder/jitter, partitions) ships to
        every child as parameters — each child rebuilds a plan with its
        own RNG stream, which preserves the configured *rates* (all any
        wall-clock transport guarantees; see ``FaultPlan``'s docstring).
        Scheduled crashes run parent-side as timers driving the usual
        ``SET_DOWN``/``SET_UP`` broadcasts.
        """
        for crash in plan.crashes:
            if crash.site not in self._links:
                raise UnknownSite(crash.site)
        for timer in self._fault_timers:  # re-arming replaces, not stacks
            timer.cancel()
        self._fault_timers.clear()
        self.fault_plan = plan
        w = _Writer()
        w.byte(_C_FAULTS)
        w.varint(plan.seed)
        d = plan.defaults
        for value in (d.drop, d.duplicate, d.reorder, d.delay_jitter_s, plan.reorder_window_s):
            _write_value(w, float(value))
        links = dict(plan._links)
        w.varint(len(links))
        for pair in sorted(links, key=sorted):
            ends = sorted(pair)
            w.text(ends[0])
            w.text(ends[-1])
            f = links[pair]
            for value in (f.drop, f.duplicate, f.reorder, f.delay_jitter_s):
                _write_value(w, float(value))
        partitions = sorted(plan._partitions, key=sorted)
        w.varint(len(partitions))
        for pair in partitions:
            ends = sorted(pair)
            w.text(ends[0])
            w.text(ends[-1])
        frame = w.getvalue()
        for site in self._links:
            self._request(site, frame, expect=_C_OK)
        for crash in plan.crashes:
            self._schedule_fault(crash.at, lambda s=crash.site: self.set_down(s))
            if crash.recover_at is not None:
                self._schedule_fault(crash.recover_at, lambda s=crash.site: self.set_up(s))

    def fault_stats(self) -> Dict[str, int]:
        """Aggregate link-chaos counters across every child.

        Also mirrors the totals into the parent's ``fault_plan`` (the
        children run their own plan clones), so code that inspects
        ``plan.dropped`` etc. after a run sees real numbers.
        """
        totals = [0, 0, 0, 0, 0, 0]
        req = bytes((_C_FAULT_STATS,))
        for site in list(self._links):
            reply = self._request(site, req, expect=_C_VALUE)
            for i, value in enumerate(_read_value(reply)):
                totals[i] += value
        stats = {
            "messages_dropped": totals[0],
            "decisions": totals[1],
            "dropped": totals[2],
            "duplicated": totals[3],
            "delayed": totals[4],
            "partition_drops": totals[5],
        }
        plan = self.fault_plan
        if plan is not None:
            plan.decisions = stats["decisions"]
            plan.dropped = stats["dropped"]
            plan.duplicated = stats["duplicated"]
            plan.delayed = stats["delayed"]
            plan.partition_drops = stats["partition_drops"]
        return stats

    @property
    def messages_dropped(self) -> int:
        """Frames eaten at the wire (down sites + chaos), cluster-wide."""
        return self.fault_stats()["messages_dropped"]

    # -- reliable channel ------------------------------------------------

    def enable_reliable(self, config: Optional[ReliableConfig] = None) -> None:
        """Arm ack+retransmit on every child's inter-site links."""
        rconfig = config if config is not None else ReliableConfig()
        w = _Writer()
        w.byte(_C_RELIABLE_ON)
        _write_value(w, float(rconfig.base_backoff_s))
        _write_value(w, float(rconfig.max_backoff_s))
        w.varint(rconfig.max_retries)
        self._broadcast(w.getvalue())
        self._reliable_enabled = True

    @property
    def reliable_enabled(self) -> bool:
        return self._reliable_enabled

    # -- termination diagnostics -----------------------------------------

    def credit_deficit(self, qid: QueryId) -> Optional[Fraction]:
        """Cluster-wide missing termination credit for ``qid``.

        The exact merge :func:`repro.api.credit_deficit` performs over
        in-process nodes, computed from one CREDIT round-trip per child:
        ``1 - recovered - Σ held``.  ``None`` for detectors without a
        credit ledger or once the originator's context is gone.
        """
        w = _Writer()
        w.byte(_C_CREDIT)
        _write_qid(w, qid)
        frame = w.getvalue()
        replies = (self._request(site, frame, expect=_C_CREDIT_REPLY) for site in list(self._links))
        # A leading 0 byte: no context for qid at that child.
        return ledger_deficit(
            (_read_value(reply), _read_value(reply)) for reply in replies if reply.byte()
        )

    def _credit_deficit(self, qid: QueryId):
        """TerminationLost diagnostics must never mask the original
        failure — a child that died is exactly when this gets called."""
        try:
            return self.credit_deficit(qid)
        except (HyperFileError, OSError):
            return None

    def _schedule_fault(self, delay_s: float, fn) -> None:
        def fire() -> None:
            if self._closed:
                return
            try:
                fn()
            except (HyperFileError, OSError):
                pass  # a dying cluster can't crash sites any harder

        timer = threading.Timer(max(delay_s, 0.0), fire)
        timer.daemon = True
        self._fault_timers.append(timer)
        timer.start()

    # -- observability ---------------------------------------------------

    def total_stats(self) -> NodeStats:
        merged = NodeStats()
        stats_req = bytes((_C_STATS,))
        for site in self._links:
            reply = self._request(site, stats_req, expect=_C_STATS_REPLY)
            merged.merge(_decode_stats(reply))
        return merged

    def _init_telemetry(self, config) -> None:
        """Process-mode override: the children arm their own recorders
        and samplers straight from the shipped config, so the parent
        only prepares the merge targets (no timer thread, no node
        wiring — there are no local nodes)."""
        lanes = 2 * len(self.nodes) + 1
        if config.flight_recorder is not None:
            recorder = FlightRecorder(
                config.flight_recorder, span_start=lanes, span_step=lanes
            )
            recorder.now_fn = time.monotonic
            self.flight_recorder = recorder
        if config.stats_stream_s is not None:
            from ..metrics.collect import StatsTimeline

            self.stats_timeline = StatsTimeline()

    def attach_tracer(self, tracer) -> None:
        """Cross-process span shipping: every child gets a TRACE_ON with
        a collision-free span-id lane (child *i* allocates ``i+1`` with
        stride ``m = 2n+1``); shipped events ingest into ``tracer``
        verbatim, so the causal tree reconstructs exactly as on the
        shared-memory transports.  The parent's own (rare) allocations
        move to lane 0 for the same reason."""
        tracer.now_fn = time.monotonic
        names = list(self._links)
        lanes = 2 * len(names) + 1
        try:
            tracer._ids = itertools.count(lanes, lanes)
        except AttributeError:  # pragma: no cover - exotic tracer shims
            pass
        kinds = getattr(tracer, "_kinds", None)
        wire_kinds = sorted(kinds) if kinds is not None and set(kinds) != set(KINDS) else []
        for i, site in enumerate(names):
            w = _Writer()
            w.byte(_C_TRACE_ON)
            w.varint(len(wire_kinds))
            for kind in wire_kinds:
                w.text(kind)
            w.varint(i + 1)
            w.varint(lanes)
            self._request(site, w.getvalue(), expect=_C_OK)
        self._tracer = tracer

    def detach_tracer(self) -> None:
        if self._tracer is None:
            return
        self._drain_traces()  # final drain so no buffered spans are lost
        off = bytes((_C_TRACE_OFF,))
        for site in list(self._links):
            try:
                self._request(site, off, expect=_C_OK)
            except (HyperFileError, TransportClosed, OSError):
                continue
        self._tracer = None

    def _drain_traces(self) -> None:
        """Pull every child's buffered spans into the attached tracer.

        Runs on the client thread (wait/detach), never the reader thread
        — a reader thread blocking on its own child's reply queue would
        deadlock the control channel.
        """
        tracer = self._tracer
        if tracer is None:
            return
        drain = bytes((_C_TRACE_DRAIN,))
        for site in list(self._links):
            try:
                reply = self._request(site, drain, expect=_C_TRACE_EVENTS)
            except (HyperFileError, TransportClosed, OSError):
                continue  # a dead child's spans arrive via FLIGHT_SNAP, if at all
            tracer.ingest(_events_from_json(reply.text()))
        tracer.events.sort(key=lambda e: e.time)

    def wait(self, qid: QueryId, timeout_s: Optional[float] = None) -> QueryOutcome:
        try:
            outcome = super().wait(qid, timeout_s=timeout_s)
        finally:
            # Completion piggybacks cover the originator; the post-wait
            # drain collects the other children's spans so the tree is
            # whole before the caller inspects it.
            if self._tracer is not None and not self._closed:
                self._drain_traces()
        if isinstance(outcome, _ChildDeath):
            # The originator's process died mid-query; its detector state
            # died with it, so this query can never terminate.
            self._flightrec_dump(qid, "termination_lost")
            raise TerminationLost(
                qid, undeliverable=len(self.undeliverable), site=outcome.site
            )
        return outcome

    def _flightrec_dump(self, qid: QueryId, reason: str) -> None:
        """Postmortem for a dying query: pull every child's ring, merge
        by timestamp into the parent recorder, write the dump."""
        if self.flight_recorder is None or qid in self._flightrec_dumped:
            return
        self._flightrec_dumped.add(qid)
        collected: List[TraceEvent] = []
        snap = bytes((_C_FLIGHT_SNAP,))
        for site in list(self._links):
            try:
                reply = self._request(site, snap, expect=_C_TRACE_EVENTS)
            except (HyperFileError, TransportClosed, OSError):
                continue  # a genuinely dead process keeps its ring
            collected.extend(_events_from_json(reply.text()))
        collected.sort(key=lambda e: e.time)
        self.flight_recorder.events.clear()  # the rings ARE the state
        for event in collected:
            self.flight_recorder.record(event)
        self.flight_recorder.dump(qid, reason, site=qid.originator)

    def enable_metrics(self, registry=None):
        """Each child runs its own registry (node counters, SLO
        histograms); :meth:`metrics_snapshot` merges them with the
        parent's registry (admission-control counters) into one view."""
        if registry is None:
            from ..metrics.registry import MetricsRegistry

            registry = MetricsRegistry()
        self.metrics = registry
        on = bytes((_C_METRICS_ON,))
        for site in self._links:
            self._request(site, on, expect=_C_OK)
        return registry

    def metrics_snapshot(self):
        registry = getattr(self, "metrics", None)
        if registry is None:
            return None
        from ..metrics.registry import merge_snapshots

        snaps = [registry.snapshot()]
        req = bytes((_C_METRICS_SNAP,))
        for site in list(self._links):
            try:
                reply = self._request(site, req, expect=_C_METRICS_REPLY)
            except (HyperFileError, TransportClosed, OSError):
                continue
            snaps.append(json.loads(reply.text()))
        return merge_snapshots(*snaps)

    # -- dispatch hooks --------------------------------------------------

    def _dispatch_submit(
        self,
        origin: str,
        qid: QueryId,
        program: Program,
        initial: List[Oid],
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> None:
        w = _Writer()
        w.byte(_C_SUBMIT)
        _write_qid(w, qid)
        _write_program(w, program)
        _write_value(w, tuple(initial))
        w.text(priority or "")
        w.text(tenant or "")
        self._request(origin, w.getvalue(), expect=_C_OK)

    def _dispatch_submit_from_saved(
        self, origin: str, qid: QueryId, program: Program, source_qid: QueryId
    ) -> None:
        w = _Writer()
        w.byte(_C_SUBMIT_SAVED)
        _write_qid(w, qid)
        _write_program(w, program)
        _write_qid(w, source_qid)
        self._request(origin, w.getvalue(), expect=_C_OK)

    def _dispatch_expire(self, origin: str, qid: QueryId) -> None:
        w = _Writer()
        w.byte(_C_EXPIRE)
        _write_qid(w, qid)
        self._request(origin, w.getvalue(), expect=_C_OK)
