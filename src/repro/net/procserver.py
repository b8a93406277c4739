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
parent holds no stores and no nodes; each shared-memory convenience is
an *op* on a per-child control channel (same length-prefixed framing as
the data plane).  Every op is declared once, in the table :data:`_OPS`
at the end of this module: its name, its handler, and whether it is a
request (parent to child, answered) or a push (child to parent,
unprompted: ``hello``, ``complete``, ``stats_push``, ``give_up``).

A control frame is ``(request id, code, value)``.  A request carries its
op's code and argument tuple; the reply echoes the request id with code
``_OK`` and the result, or ``_ERR`` and ``(error type, message)``, which
the parent re-raises typed.  A push carries its op under the reserved
id 0 and is routed by the per-child reader thread through the same
table.  Arguments and results are codec values; the only other types
that cross — objects, programs and query ids — convert at one boundary
(:func:`_write_arg` / :func:`_read_arg`).  The parent makes every request
through :meth:`ProcessCluster._call`, one in flight per child, and drops
a reply whose id is not the one it waits for: the late answer to a
request that timed out.  Trace drains and flight snaps run on the client
thread (never the reader thread, which must stay free to route replies).

Span shipping gives child *i* of *n* sites its own span-id lanes (stride
``m = 2n+1``), so the parent ingests shipped events into the user's
tracer verbatim.  Link chaos ships as fault-plan parameters (the plan
object itself is not picklable) and is decided child-side by the sending
child's plan copy; scheduled crashes stay parent-side as timers driving
``set_down`` / ``set_up`` broadcasts.  Replication runs the ordinary
:class:`~repro.replication.ReplicationManager` in the parent against the
store proxies, and every directory change broadcasts to the children's
local :class:`~repro.naming.directory.ReplicaDirectory` copies.

A child that dies is detected two ways: its reader thread sees EOF and
fails the link immediately (in-flight requests and waits raise
:class:`~repro.errors.ChildProcessDied` / ``TerminationLost`` naming
the site), and a request that times out checks ``process.is_alive()``
before reporting anything vaguer.  A child that exits before its HELLO
is reported as ``ChildProcessDied`` while the parent is still waiting.

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
from dataclasses import astuple, dataclass, replace
from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from ..api import QueryOutcome
from ..config import ClusterConfig
from ..core.objects import HFObject
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
from ..faults.reliable import ReliableConfig, ReliableEndpoint
from ..naming.directory import ReplicaDirectory
from ..server.stats import NodeStats
from ..sim.costs import FREE_COSTS
from ..storage.memstore import MemStore
from ..termination.weights import ledger_deficit, ledger_of
from ..tracing import KINDS, FlightRecorder, QueryTracer, TeeTracer, TraceEvent, _jsonable
from .asyncio_cluster import _AsyncSite
from .codec import (
    _T_TUPLE,
    FRAME_HEADER,
    MAX_FRAME,
    MAX_VALUE_DEPTH,
    CodecError,
    FrameReader,
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
from .common import ClusterBase, build_node
from .messages import QueryId

# -- control frames ----------------------------------------------------------

#: Request id of a push; a link's requests count up from 1.
_PUSH_ID = 0
#: Reply codes: the value is the op's result, or ``(error type, message)``.
_OK, _ERR = 0, 1
#: Tags of the three domain types that cross beside codec values (whose
#: tags stop at 0x0B).
_K_OBJECT, _K_PROGRAM, _K_QID = 0x60, 0x61, 0x62
#: Keys the parsed-program table for a program no query id precedes.
_NO_QID = QueryId(0, "")
#: The fault plan's chaos counters, summed over children by ``fault_stats``.
_PLAN_COUNTERS = ("decisions", "dropped", "duplicated", "delayed", "partition_drops")

#: Error types the control channel can re-raise parent-side by name.
_ERROR_TYPES = {
    "ObjectNotFound": ObjectNotFound,
    "DuplicateObject": DuplicateObject,
    "UnknownSite": UnknownSite,
    "ConfigError": ConfigError,
    "HyperFileError": HyperFileError,
    "ResultSetRetired": ResultSetRetired,
}


class _Op(NamedTuple):
    """One control op: see :data:`_OPS`."""

    name: str
    handler: Optional[Callable[..., Any]]
    push: bool = False


def _write_arg(w: _Writer, value: Any, depth: int = 0) -> None:
    """A control value: a codec value, or an object, program or query id,
    at any depth of a tuple."""
    kind = type(value)
    if (kind is tuple or kind is list) and depth < MAX_VALUE_DEPTH:
        w.byte(_T_TUPLE)
        w.varint(len(value))
        for element in value:
            _write_arg(w, element, depth + 1)
    elif kind is HFObject:
        w.byte(_K_OBJECT)
        _write_object(w, value)
    elif kind is QueryId:
        w.byte(_K_QID)
        _write_qid(w, value)
    elif kind is Program:
        w.byte(_K_PROGRAM)
        _write_program(w, value)
    else:
        _write_value(w, value)


class _ArgReader(_Reader):
    """A control frame's reader; the first query id in the frame keys the
    codec's parsed-program table for any program after it."""

    __slots__ = ("qid",)

    def __init__(self, data) -> None:
        self.data, self.pos, self.qid = data, 0, None


def _read_arg(r: _ArgReader, depth: int = 0) -> Any:
    tag = r.byte()
    if tag == _T_TUPLE and depth < MAX_VALUE_DEPTH:
        length = r.varint()
        if not 0 <= length <= 1_000_000:
            raise CodecError(f"implausible tuple length {length}")
        return tuple([_read_arg(r, depth + 1) for _ in range(length)])
    if tag < _K_OBJECT or tag > _K_QID:  # a codec value, or a tuple past the budget
        r.pos -= 1
        return _read_value(r)
    if tag == _K_OBJECT:
        return _read_object(r)
    if tag == _K_PROGRAM:
        return _read_program(r, r.qid or _NO_QID)
    qid = _read_qid(r)
    r.qid = r.qid or qid
    return qid


def _encode(rid: int, code: int, value: Any) -> bytes:
    """One control frame, length prefix included: a request or push
    ``(id, op code, args)``, or a reply ``(id, _OK/_ERR, value)``."""
    w = _Writer()
    w.varint(rid)
    w.varint(code)
    _write_arg(w, value)
    return encode_frame(w.getvalue())


def _decode(frame) -> Tuple[int, int, Any]:
    """A control frame's three fields; raises :class:`CodecError`, nothing else."""
    r = _ArgReader(frame)
    rid = r.varint()
    code = r.varint()
    value = _read_arg(r)
    if rid < 0 or not r.done():
        raise CodecError("malformed control frame")
    return rid, code, value


def _op_for(rid: int, code: int, args: Any) -> _Op:
    """The op a request or push names; :class:`CodecError` unless it is a
    known op arriving the way it travels, with an argument tuple."""
    op = _OPS[code] if 0 <= code < len(_OPS) else None
    if op is None or op.push != (rid == _PUSH_ID) or type(args) is not tuple:
        raise CodecError(f"no control op {code} for request id {rid}")
    return op


def _decode_op(frame) -> Tuple[int, _Op, tuple]:
    """Decode a request or push frame: ``(request id, op, args)``."""
    rid, code, args = _decode(frame)
    return rid, _op_for(rid, code, args), args


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


# Blocking frame reads on the parent's side of a control link (the child
# side runs on asyncio streams).


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
    _, op, args = _decode_op(frame)
    if op.name != "hello":
        raise HyperFileError("child handshake out of order")
    site, port = args
    return site, port


# --------------------------------------------------------------------------
# child process
# --------------------------------------------------------------------------


def _delegate(path: str) -> Callable[..., Any]:
    """An op handler that passes its args to the child's ``path`` method
    (``"store.get"`` runs ``child.store.get(*args)``)."""
    method = attrgetter(path)
    return lambda child, *args: method(child)(*args)


class _ChildRuntime:
    """One child's state, and the handlers of the ops it answers.

    It is also the duck-typed cluster surface the reused site machinery
    needs: :class:`~repro.net.asyncio_cluster._AsyncSite` and ``_PeerLink``
    talk to their owning cluster through ``sites``, ``is_down``,
    ``port_of``, ``config``, ``fault_plan``, ``flight_recorder``,
    ``messages_dropped``, ``_loop``, ``_endpoint_for`` and
    ``_reliable_ingest``, so the child runs the same drain/send/framing
    code as the inline transport, unchanged.
    """

    def __init__(self, site: str, names: List[str], config: ClusterConfig) -> None:
        self.site = site
        self.names = names
        self.config = config
        self.store = MemStore(site)
        self.node = None
        self.asite: Optional[_AsyncSite] = None
        self.ports: Dict[str, int] = {}
        self.fault_plan = None
        self.messages_dropped = 0
        self._down: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Local copy of the cluster-wide replica directory, kept in sync
        #: by ``repl_dir`` broadcasts; ``None`` when replication is off.
        self.replicas: Optional[ReplicaDirectory] = (
            ReplicaDirectory()
            if config.replication is not None and config.replication.enabled
            else None
        )
        #: This site's half of the reliable channel; ``None`` means raw delivery.
        self._endpoint = None
        #: Envelopes this child's reliable channel gave up on (the
        #: inline transports' ``cluster.undeliverable``, kept per child
        #: and mirrored to the parent by ``give_up`` pushes).
        self.undeliverable: List = []
        #: The control connection's stream: replies and pushes.
        self.writer: Optional[asyncio.StreamWriter] = None
        self.running = True
        #: Shipping tracer installed by ``trace_on``; its events[cursor:]
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

    # -- the control channel -------------------------------------------

    def push(self, op: str, *args: Any) -> None:
        self.writer.write(_encode(_PUSH_ID, _CODES[op], args))

    def serve(self, frame) -> None:
        """Answer one request: decode it, run its op's handler, reply with
        the result or the typed error.  A frame with no request id (a
        push, or one too mangled to read) cannot be answered: dropped."""
        rid = _PUSH_ID
        try:
            rid, code, args = _decode(frame)
            if rid == _PUSH_ID:
                return
            reply = _encode(rid, _OK, _op_for(rid, code, args).handler(self, *args))
        except Exception as exc:  # surfaced parent-side as a typed error
            if rid == _PUSH_ID:
                return
            reply = _encode(rid, _ERR, (type(exc).__name__, str(exc)))
        self.writer.write(reply)

    def push_complete(self, qid: QueryId, result: QueryResult) -> None:
        """The node's completion callback: ship the result home with its
        partition counts and, piggybacked, the spans buffered since the
        last drain (one query at a time ships its whole trace with zero
        extra round-trips; the parent's post-wait drain collects the
        other children's)."""
        ctx = self.node.contexts.get(qid)
        counts = ctx.partition_counts if ctx is not None else None
        shipped = self.take_trace_events()
        self.push(
            "complete",
            qid,
            tuple(result.oids),
            tuple((target, tuple(values)) for target, values in sorted(result.retrieved.items())),
            tuple(vars(result.stats).values()),
            result.partial,
            result.partial_reason,
            tuple(sorted(counts.items())) if counts else None,
            _events_to_json(shipped) if shipped else "",
        )

    def install_reliable(self, rconfig: ReliableConfig) -> None:
        """Arm this child's half of the reliable channel.

        Mirrors the inline transport's ``enable_reliable`` wiring, one
        site at a time: acks, retransmit timers and dedup state all live
        on this child's event loop.  A give-up recovers detector credit
        child-side (an ``Undeliverable`` bounce into our own inbox, like
        the inline ``_give_up``) and pushes a ``give_up`` note so the
        parent's ``undeliverable`` diagnostics stay truthful.
        """
        loop, asite = self._loop, self.asite

        def give_up(env) -> None:
            self.undeliverable.append(env)
            kind, qid = type(env.payload).__name__, getattr(env.payload, "qid", "")
            self.push("give_up", self.site, env.src, env.dst, kind, str(qid or ""))
            asite.bounce(env)

        self._endpoint = ReliableEndpoint(
            self.site,
            clock=time.monotonic,
            # Everything that schedules runs on this child's loop thread.
            scheduler=lambda delay, fn: loop.call_later(delay, fn),
            send_raw=asite._send_raw,
            # on_wire runs inside the drain task, which steps the node next.
            deliver_up=asite.node.on_message,
            node=asite.node,
            config=rconfig,
            on_give_up=give_up,
        )

    # -- request handlers (see _OPS) -----------------------------------

    def peers(self, ports) -> None:
        self.ports = dict(ports)

    def create(self, tuples, size_hint):
        return self.store.create([HFTuple(*t) for t in tuples], size_hint=size_hint)

    def objects(self):
        return tuple(self.store.objects())

    def store_meta(self):
        return self.store.epoch, self.store.alloc_high, len(self.store)

    def repl_dir(self, oid: Oid, entry) -> None:
        if self.replicas is None:
            return
        if entry is None:
            self.replicas.drop(oid)
        else:
            self.replicas.record(oid, *entry)

    def membership(self, statuses) -> None:
        # The routing guard must skip leaving/departed peers.
        table = dict(statuses)
        self.node.membership_status = lambda site: table.get(site, "departed")

    def submit(self, qid, program, initial, priority, tenant) -> None:
        self.asite.submit(qid, program, list(initial), priority, tenant)

    def set_down(self, site: str) -> None:
        self._down.add(site)
        if site == self.site:
            self.asite.up_event.clear()

    def set_up(self, site: str) -> None:
        self._down.discard(site)
        if site == self.site:
            self.asite.up_event.set()
            self.asite.inbox.put_nowait(None)

    def faults(self, seed, defaults, links, partitions) -> None:
        plan = FaultPlan(seed, *defaults)
        for link in links:
            plan.link(*link)
        for a, b in partitions:
            plan.partition(a, b)
        self.fault_plan = plan

    def fault_stats(self):
        plan = self.fault_plan
        return (self.messages_dropped, *(getattr(plan, name, 0) for name in _PLAN_COUNTERS))

    def reliable_on(self, *config_fields) -> None:
        self.install_reliable(ReliableConfig(*config_fields))

    def credit(self, qid: QueryId):
        ctx = self.node.contexts.get(qid)
        return None if ctx is None else tuple(ledger_of(ctx.term_state))

    def shutdown(self) -> None:
        self.running = False

    def stats(self):
        # Field order: parent and child run the same NodeStats.
        return tuple(
            tuple(value.items()) if isinstance(value, dict) else value
            for value in vars(self.node.stats).values()
        )

    def trace_on(self, kinds, span_start: int, span_step: int) -> None:
        tracer = QueryTracer(list(kinds) or None, span_start=span_start, span_step=span_step)
        tracer.now_fn = time.monotonic
        self.tracer, self.trace_cursor = tracer, 0
        recorder = self.flight_recorder
        self.node.tracer = TeeTracer(tracer, recorder) if recorder is not None else tracer

    def trace_off(self) -> None:
        self.tracer, self.trace_cursor = None, 0
        self.node.tracer = self.flight_recorder

    def trace_drain(self) -> str:
        return _events_to_json(self.take_trace_events())

    def metrics_on(self) -> None:
        from ..metrics.registry import MetricsRegistry

        self.metrics = self.node.metrics = MetricsRegistry()

    def metrics_snap(self) -> str:
        if self.metrics is None:
            return json.dumps({"metrics": []})
        self.metrics.publish_node_stats(self.site, self.node.stats)
        return json.dumps(self.metrics.snapshot())

    def flight_snap(self) -> str:
        recorder = self.flight_recorder
        return _events_to_json(list(recorder.events) if recorder is not None else [])


def _child_main(site: str, names: List[str], parent_port: int, config: ClusterConfig) -> None:
    """Entry point of one spawned site process."""
    asyncio.run(_child_serve(site, names, parent_port, config))


async def _child_serve(
    site: str, names: List[str], parent_port: int, config: ClusterConfig
) -> None:
    loop = asyncio.get_running_loop()
    runtime = _ChildRuntime(site, names, config)
    runtime._loop = loop
    node = runtime.node = build_node(
        site,
        runtime.store,
        config,
        costs=FREE_COSTS,
        now_fn=time.monotonic,
        replicas=runtime.replicas,
        on_query_complete=runtime.push_complete,
        is_site_up=lambda s: not runtime.is_down(s),
    )
    # Span-id namespacing: with n sites and m = 2n + 1 lanes, child i's
    # shipping tracer allocates from lane i+1 and its flight recorder
    # from lane n+1+i; the parent keeps lane 0 (start=m, step=m) for its
    # own rare allocations.  Shipped span ids never collide anywhere.
    if config.flight_recorder is not None:
        runtime.flight_recorder = FlightRecorder(
            replace(config.flight_recorder, dump_dir=None),  # parent writes the files
            span_start=len(names) + 1 + names.index(site),
            span_step=2 * len(names) + 1,
        )
        runtime.flight_recorder.now_fn = time.monotonic
        node.tracer = runtime.flight_recorder
    asite = runtime.asite = _AsyncSite(node, runtime)
    await asite.bootstrap()
    asite._drain_task = loop.create_task(asite.drain())
    if config.reliable:
        reliable = config.reliable
        runtime.install_reliable(reliable if isinstance(reliable, ReliableConfig) else ReliableConfig())
    # Connect only once ready: the parent's HELLO wait is budgeted at accept.
    reader, runtime.writer = await asyncio.open_connection(config.host, parent_port)
    runtime.push("hello", site, asite.port)

    async def stats_pusher(period_s: float) -> None:
        """Push one NodeStats sample per period (the parent's reader
        thread routes it; it is never queued as a reply)."""
        while True:
            await asyncio.sleep(period_s)
            sample = node.stats.sample()
            sample["work_depth"] = node.work_depth
            runtime.push("stats_push", site, json.dumps({"t": time.monotonic(), "sample": sample}))
            if node.tracer is not None:
                node.tracer.emit(site, "stats_push", "", sites=1)

    pusher_task = None
    if config.stats_stream_s is not None:
        pusher_task = loop.create_task(stats_pusher(config.stats_stream_s))

    frames = FrameReader()
    while runtime.running:
        chunk = await reader.read(64 * 1024)
        if not chunk:
            break
        for frame in frames.feed(chunk):
            runtime.serve(frame)
        await runtime.writer.drain()
    if pusher_task is not None:
        pusher_task.cancel()
    if runtime._endpoint is not None:
        runtime._endpoint.close()
    asite.shutdown()
    runtime.writer.close()


# --------------------------------------------------------------------------
# parent side
# --------------------------------------------------------------------------


class StoreProxy:
    """Parent-side handle on one child's object store.

    The complete public :class:`~repro.storage.memstore.MemStore`
    surface (``tests/net/test_procserver.py`` introspects both classes
    so any future drift fails loudly); every call is one control
    round-trip, objects crossing as codec bytes.  ``scan`` filters
    client-side over one ``objects`` fetch — the predicate is a Python
    callable and does not cross the wire.
    """

    def __init__(self, cluster: "ProcessCluster", site: str) -> None:
        self._cluster = cluster
        self._site = site

    def _call(self, op: str, *args: Any) -> Any:
        return self._cluster._call(self._site, op, *args)

    @property
    def site(self) -> str:
        """The owning site's name (same surface as MemStore)."""
        return self._site

    @property
    def epoch(self) -> int:
        """The child store's current mutation epoch."""
        return self._call("store_meta")[0]

    @property
    def alloc_high(self) -> int:
        """Exclusive upper bound on local ids minted at the child."""
        return self._call("store_meta")[1]

    def create(self, tuples: Iterable[HFTuple] = (), size_hint: Optional[int] = None):
        return self._call("create", tuple((t.type, t.key, t.data) for t in tuples), size_hint)

    def put(self, obj, overwrite: bool = False) -> None:
        self._call("put", obj, overwrite)

    def get(self, oid: Oid):
        return self._call("get", oid)

    def replace(self, obj) -> None:
        self._call("replace", obj)

    def contains(self, oid: Oid) -> bool:
        return self._call("contains", oid)

    def remove(self, oid: Oid):
        return self._call("remove", oid)

    def oids(self) -> List[Oid]:
        return list(self._call("oids"))

    def objects(self) -> Iterator:
        return iter(self._call("objects"))

    def scan(self, predicate) -> Iterator:
        for obj in self.objects():
            if predicate(obj):
                yield obj

    def __len__(self) -> int:
        return self._call("store_meta")[2]

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
        self.site = site

    def record(self, oid: Oid, new_site: str) -> None:
        self._cluster._call(self.site, "fwd_record", oid, new_site)

    def drop(self, oid: Oid) -> None:
        self._cluster._call(self.site, "fwd_drop", oid)

    def lookup(self, oid: Oid) -> Optional[str]:
        return self._cluster._call(self.site, "fwd_lookup", oid)

    def __repr__(self) -> str:
        return f"_ForwardingProxy(site={self.site!r})"


class _SyncedDirectory(ReplicaDirectory):
    """The parent's replica directory, broadcast to every child.

    The ordinary :class:`~repro.replication.ReplicationManager` mutates
    this exactly as it would a shared-memory directory; each change
    additionally ships to every child as a ``repl_dir`` op, so the
    children's local copies — the ones read-anycast routing and
    ``tried``-exclusion failover consult on the query path — never lag a
    write.
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
        self._cluster._broadcast(
            "repl_dir", oid, None if entry is None else (tuple(entry.sites), entry.version)
        )


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


#: Reply-queue sentinel a dying reader thread leaves for a blocked request.
_LINK_LOST = object()


class _RemoteSiteHandle:
    """Stand-in for a ServerNode in the parent's ``nodes`` map.

    The contexts live in the child, so ``contexts`` is empty (credit
    diagnostics ask the child instead) and ``has_work`` reads False; an
    epoch bump at any store reaches the child's node over the control
    channel, as ``observe_epoch`` reaches an inline node.
    """

    has_work = False

    def __init__(self, cluster: "ProcessCluster", site: str) -> None:
        self.cluster = cluster
        self.site = site
        self.contexts: Dict = {}

    def observe_epoch(self, site: str, epoch: int) -> None:
        self.cluster._call(self.site, "epoch", site, epoch)


class _ChildLink:
    """Parent bookkeeping for one child: process, control socket, reader."""

    def __init__(self, site: str, process, conn: socket.socket, data_port: int) -> None:
        self.site = site
        self.process = process
        self.conn = conn
        self.data_port = data_port
        self.lock = threading.Lock()
        self.ids = itertools.count(1)
        #: Decoded replies ``(request id, code, value)``, or ``_LINK_LOST``.
        self.replies: "queue.Queue" = queue.Queue()
        self.reader: Optional[threading.Thread] = None
        #: Set by the reader thread on its way out; requests against a
        #: dead link fail fast with ChildProcessDied instead of timing out.
        self.dead = False


class ProcessCluster(ClusterBase):
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
        self._down: set = set()
        self._down_lock = threading.Lock()
        self.undeliverable: List = []
        self._tracer: Optional[QueryTracer] = None
        self.fault_plan: Optional[FaultPlan] = None
        self._fault_timers: List[threading.Timer] = []
        self._links: Dict[str, _ChildLink] = {}
        super().__init__(sites, config, now=time.monotonic)
        self._reliable_enabled = bool(config.reliable)
        if config.fault_plan is not None:
            self.use_faults(config.fault_plan)

    def _build_sites(self, names: List[str]) -> None:
        """Spawn one child per site (each builds its own node), introduce
        them to each other, and run the parent's data-management plane
        against store/forwarding proxies."""
        config = self.config
        self.nodes = {n: _RemoteSiteHandle(self, n) for n in names}
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
        try:
            for proc in procs.values():
                proc.start()
            # Wait for every HELLO, polling so that a child that exits
            # first is reported at once rather than after the budget.
            listener.settimeout(0.05)
            deadline = time.monotonic() + 60.0
            while len(self._links) < len(names):
                unlinked = [n for n in names if n not in self._links]
                try:
                    conn, _addr = listener.accept()
                except socket.timeout:
                    for name in unlinked:
                        code = procs[name].exitcode
                        if code is not None:
                            raise ChildProcessDied(
                                name, f"exited with code {code} before HELLO"
                            ) from None
                    if time.monotonic() > deadline:
                        raise HyperFileError(f"no HELLO from {unlinked} within 60 s") from None
                    continue
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                site, port = _recv_hello(conn, unlinked)
                self._links[site] = _ChildLink(site, procs[site], conn, port)
        except Exception:
            for link in self._links.values():
                link.conn.close()
            for proc in procs.values():
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
            raise
        finally:
            listener.close()

        for link in self._links.values():
            link.reader = threading.Thread(
                target=self._reader_loop, args=(link,),
                name=f"hf-proc-reader-{link.site}", daemon=True,
            )
            link.reader.start()
        self._broadcast("peers", tuple((s, link.data_port) for s, link in self._links.items()))

        # The shared data-management surface (ClusterBase.migrate,
        # replicate_all, ReplicationManager) runs against these proxies
        # exactly as it runs against MemStore/ForwardingTable inline.
        self.stores = {n: StoreProxy(self, n) for n in names}
        self.forwarding = {n: _ForwardingProxy(self, n) for n in names}
        replication = config.replication
        self._wire_replication(
            _SyncedDirectory(self) if replication is not None and replication.enabled else None
        )

    # -- control channel -------------------------------------------------

    def _reader_loop(self, link: _ChildLink) -> None:
        """Route one child's frames: replies to the waiting request,
        pushes to their op's handler."""
        try:
            while True:
                frame = _recv_frame(link.conn)
                if frame is None:
                    return
                rid, code, value = _decode(frame)
                if rid != _PUSH_ID:
                    link.replies.put((rid, code, value))
                    continue
                op = _op_for(rid, code, value)
                if op.handler is None:
                    raise HyperFileError(f"{op.name} push after the handshake")
                op.handler(self, *value)
        except (OSError, HyperFileError):
            return
        finally:
            self._on_link_lost(link)

    def _on_link_lost(self, link: _ChildLink) -> None:
        """Reader-thread epitaph: mark the link dead, wake any request
        blocked on its reply queue, and fail every in-flight query whose
        originator just vanished — a child death must surface as a typed
        error naming the site, never as a silent 30s control timeout.
        Its detector state died with the child, so the query can never
        terminate: ``wait`` and ``outcome`` raise ``TerminationLost``."""
        link.dead = True
        link.replies.put(_LINK_LOST)
        if self._closed:
            return  # clean shutdown tears links down on purpose
        for qid in list(self._inflight):
            if qid.originator == link.site and self._inflight.pop(qid, None) is not None:
                lost = TerminationLost(qid, undeliverable=len(self.undeliverable), site=link.site)
                self._outcomes.put(qid, lost)

    def _call(self, site: str, op: str, *args: Any) -> Any:
        """Run ``op`` at ``site``'s child; its result, or its error re-raised
        typed.  One request is in flight per child (the link lock); a
        reply carrying another id answers a request that timed out, and
        is dropped."""
        link = self._links.get(site)
        if link is None:
            raise UnknownSite(site)
        with link.lock:
            if self._closed:
                raise TransportClosed("cluster is closed")
            if link.dead:
                raise ChildProcessDied(site)
            rid = next(link.ids)
            try:
                link.conn.sendall(_encode(rid, _CODES[op], args))
            except OSError as exc:
                raise ChildProcessDied(site, f"control send failed ({exc})") from None
            deadline = time.monotonic() + self.RPC_TIMEOUT_S
            while True:
                try:
                    reply = link.replies.get(timeout=max(deadline - time.monotonic(), 0.0))
                except queue.Empty:
                    if not link.process.is_alive():
                        raise ChildProcessDied(site, "no control reply") from None
                    raise HyperFileError(f"no control reply from {site}") from None
                if reply is _LINK_LOST:
                    raise ChildProcessDied(site, "control link lost mid-request")
                if reply[0] == rid:
                    break
        _, code, value = reply
        if code == _ERR:
            name, message = value
            raise _ERROR_TYPES.get(name, HyperFileError)(message)
        return value

    def _broadcast(self, op: str, *args: Any) -> List[Any]:
        """Run ``op`` at every child, in site order; their results."""
        return [self._call(site, op, *args) for site in list(self._links)]

    def _gather(self, op: str, *args: Any) -> List[Any]:
        """Like :meth:`_broadcast`, skipping a child that cannot answer:
        telemetry and diagnostics run exactly when a child may have died."""
        results = []
        for site in list(self._links):
            try:
                results.append(self._call(site, op, *args))
            except (HyperFileError, OSError):
                continue
        return results

    def _apply_membership_view(self) -> None:
        """Ship the full status table to every child so their routing
        guards skip leaving/departed peers.  Best-effort per child: a
        failed site's process may already be unreachable, and the view
        declaring it departed is exactly the request it cannot take."""
        assert self.membership is not None
        self._gather("membership", tuple(self.membership.view.statuses))

    def _on_stats_push(self, site: str, payload: str) -> None:
        """A child's periodic stats sample (reader thread).  Each push is
        one single-site timeline row; CLOCK_MONOTONIC is system-wide on
        the platforms we run on, so child timestamps are comparable."""
        if self.stats_timeline is None:
            return
        record = json.loads(payload)
        self.stats_timeline.append(record["t"], {site: record["sample"]})

    def _on_give_up(self, site: str, src: str, dst: str, kind: str, qid: str) -> None:
        self.undeliverable.append(_UndeliveredNote(site, src, dst, kind, qid))

    def _on_remote_complete(
        self, qid: QueryId, oids, retrieved, stats, partial, reason, counts, trace_json: str
    ) -> None:
        """A child originator finished ``qid`` (reader thread)."""
        if trace_json and self._tracer is not None:
            self._tracer.ingest(_events_from_json(trace_json))
        result_oids = ResultSet()
        result_oids.extend(oids)
        result = QueryResult(
            oids=result_oids,
            retrieved={target: list(values) for target, values in retrieved},
            stats=ExecutionStats(*stats),
            partial=partial,
            partial_reason=reason,
        )
        self._record_outcome(qid, result, dict(counts) if counts else None)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for timer in self._fault_timers:
            timer.cancel()
        for link in self._links.values():
            # Don't interleave with an in-flight request on the same
            # socket; a child that never frees the lock gets terminated.
            acquired = link.lock.acquire(timeout=2.0)
            try:
                link.conn.sendall(_encode(next(link.ids), _CODES["shutdown"], ()))
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

    # -- data ------------------------------------------------------------

    def port_of(self, site: str) -> int:
        """The port ``site``'s process accepts inter-site frames on."""
        link = self._links.get(site)
        if link is None:
            raise UnknownSite(site)
        return link.data_port

    # migrate/replicate_all: inherited from ClusterBase — they run
    # against the store/forwarding proxies (and the parent-side
    # ReplicationManager when replication is on), so process mode keeps
    # the exact inline semantics including epoch-listener fan-out.

    # -- availability ----------------------------------------------------

    def is_up(self, site: str) -> bool:
        with self._down_lock:
            return site not in self._down

    def set_down(self, site: str) -> None:
        """Freeze a site's process; every child drops frames to it."""
        if site not in self._links:
            raise UnknownSite(site)
        with self._down_lock:
            self._down.add(site)
        self._broadcast("set_down", site)

    def set_up(self, site: str) -> None:
        if site not in self._links:
            raise UnknownSite(site)
        with self._down_lock:
            self._down.discard(site)
        self._broadcast("set_up", site)

    # -- fault injection -------------------------------------------------

    def use_faults(self, plan: FaultPlan) -> None:
        """Attach a chaos schedule.

        Link chaos (drop/duplicate/reorder/jitter, partitions) ships to
        every child as parameters — each child rebuilds a plan with its
        own RNG stream, which preserves the configured *rates* (all any
        wall-clock transport guarantees; see ``FaultPlan``'s docstring).
        Scheduled crashes run parent-side as timers driving the usual
        ``set_down``/``set_up`` broadcasts.
        """
        for crash in plan.crashes:
            if crash.site not in self._links:
                raise UnknownSite(crash.site)
        for timer in self._fault_timers:  # re-arming replaces, not stacks
            timer.cancel()
        self._fault_timers.clear()
        self.fault_plan = plan
        self._broadcast(
            "faults",
            plan.seed,
            (*astuple(plan.defaults), plan.reorder_window_s),
            tuple(
                (min(pair), max(pair), *astuple(link))
                for pair, link in sorted(plan._links.items(), key=lambda item: sorted(item[0]))
            ),
            tuple((min(pair), max(pair)) for pair in sorted(plan._partitions, key=sorted)),
        )
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
        totals = [sum(column) for column in zip(*self._broadcast("fault_stats"))]
        stats = dict(zip(("messages_dropped",) + _PLAN_COUNTERS, totals))
        if self.fault_plan is not None:
            for name in _PLAN_COUNTERS:
                setattr(self.fault_plan, name, stats[name])
        return stats

    @property
    def messages_dropped(self) -> int:
        """Frames eaten at the wire (down sites + chaos), cluster-wide."""
        return self.fault_stats()["messages_dropped"]

    # -- reliable channel ------------------------------------------------

    def enable_reliable(self, config: Optional[ReliableConfig] = None) -> None:
        """Arm ack+retransmit on every child's inter-site links."""
        self._broadcast("reliable_on", *astuple(config if config is not None else ReliableConfig()))
        self._reliable_enabled = True

    @property
    def reliable_enabled(self) -> bool:
        return self._reliable_enabled

    # -- termination diagnostics -----------------------------------------

    def credit_deficit(self, qid: QueryId) -> Optional[Fraction]:
        """Cluster-wide missing termination credit for ``qid``.

        The exact merge :func:`repro.api.credit_deficit` performs over
        in-process nodes, computed from one ``credit`` round-trip per
        child: ``1 - recovered - Σ held``.  ``None`` for detectors without
        a credit ledger or once the originator's context is gone.
        """
        return ledger_deficit(entry for entry in self._broadcast("credit", qid) if entry is not None)

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
        for values in self._broadcast("stats"):
            merged.merge(NodeStats(*(dict(v) if isinstance(v, tuple) else v for v in values)))
        return merged

    def _init_telemetry(self) -> None:
        """Process-mode override: the children arm their own recorders
        and samplers straight from the shipped config, so the parent
        only prepares the merge targets (no timer thread, no node
        wiring — there are no local nodes)."""
        config = self.config
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

    def _cluster_tracer(self):
        return self._tracer if self._tracer is not None else self.flight_recorder

    def attach_tracer(self, tracer) -> None:
        """Cross-process span shipping: every child gets a ``trace_on``
        with a collision-free span-id lane (child *i* allocates ``i+1``
        with stride ``m = 2n+1``); shipped events ingest into ``tracer``
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
        wire_kinds = tuple(sorted(kinds)) if kinds is not None and set(kinds) != set(KINDS) else ()
        for i, site in enumerate(names):
            self._call(site, "trace_on", wire_kinds, i + 1, lanes)
        self._tracer = tracer

    def detach_tracer(self) -> None:
        if self._tracer is None:
            return
        self._drain_traces()  # final drain so no buffered spans are lost
        self._gather("trace_off")
        self._tracer = None

    def _drain_traces(self) -> None:
        """Pull every child's buffered spans into the attached tracer.

        Runs on the client thread (wait/detach), never the reader thread
        — a reader thread blocking on its own child's reply queue would
        deadlock the control channel.  A dead child's spans arrive via
        ``flight_snap``, if at all.
        """
        tracer = self._tracer
        if tracer is None:
            return
        for text in self._gather("trace_drain"):
            tracer.ingest(_events_from_json(text))
        tracer.events.sort(key=lambda e: e.time)

    def wait(self, qid: QueryId, timeout_s: Optional[float] = None) -> QueryOutcome:
        try:
            return super().wait(qid, timeout_s=timeout_s)
        finally:
            # Completion piggybacks cover the originator; the post-wait
            # drain collects the other children's spans so the tree is
            # whole before the caller inspects it.
            if self._tracer is not None and not self._closed:
                self._drain_traces()

    def _flightrec_dump(self, qid: QueryId, reason: str) -> None:
        """Postmortem for a dying query: pull every child's ring, merge
        by timestamp into the parent recorder, write the dump.  A
        genuinely dead process keeps its ring."""
        if self.flight_recorder is None or qid in self._flightrec_dumped:
            return
        self._flightrec_dumped.add(qid)
        collected = [e for text in self._gather("flight_snap") for e in _events_from_json(text)]
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
        self._broadcast("metrics_on")
        return registry

    def metrics_snapshot(self):
        registry = self.metrics
        if registry is None:
            return None
        from ..metrics.registry import merge_snapshots

        children = [json.loads(text) for text in self._gather("metrics_snap")]
        return merge_snapshots(registry.snapshot(), *children)

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
        self._call(origin, "submit", qid, program, tuple(initial), priority, tenant)

    def _dispatch_submit_from_saved(
        self, origin: str, qid: QueryId, program: Program, source_qid: QueryId
    ) -> None:
        self._call(origin, "submit_saved", qid, program, source_qid)

    def _dispatch_expire(self, origin: str, qid: QueryId) -> None:
        self._call(origin, "expire", qid)


#: The control protocol: every op, declared once.  An op's wire code is
#: its position here (parent and child always run this same module).  A
#: request is made by ``ProcessCluster._call`` and answered on the child
#: by its handler, called with the child's :class:`_ChildRuntime` and the
#: request's args.  A push (``push=True``) is sent unprompted by a child
#: and handled on the parent's reader thread with the
#: :class:`ProcessCluster`; ``hello`` is read once, by ``_recv_hello``.
_OPS: Tuple[_Op, ...] = (
    # The store (StoreProxy).
    _Op("create", _ChildRuntime.create),
    _Op("get", _delegate("store.get")),
    _Op("replace", _delegate("store.replace")),
    _Op("put", _delegate("store.put")),
    _Op("contains", _delegate("store.contains")),
    _Op("remove", _delegate("store.remove")),
    _Op("oids", _delegate("store.oids")),
    _Op("objects", _ChildRuntime.objects),
    _Op("store_meta", _ChildRuntime.store_meta),
    # Naming, replication and membership.
    _Op("fwd_record", _delegate("node.forwarding.record")),
    _Op("fwd_drop", _delegate("node.forwarding.drop")),
    _Op("fwd_lookup", _delegate("node.forwarding.lookup")),
    _Op("repl_dir", _ChildRuntime.repl_dir),
    _Op("epoch", _delegate("node.observe_epoch")),
    _Op("membership", _ChildRuntime.membership),
    # Queries.
    _Op("submit", _ChildRuntime.submit),
    _Op("submit_saved", _delegate("asite.submit_from_saved")),
    _Op("expire", _delegate("asite.expire")),
    # The site, its links and its lifetime.
    _Op("peers", _ChildRuntime.peers),
    _Op("set_down", _ChildRuntime.set_down),
    _Op("set_up", _ChildRuntime.set_up),
    _Op("faults", _ChildRuntime.faults),
    _Op("fault_stats", _ChildRuntime.fault_stats),
    _Op("reliable_on", _ChildRuntime.reliable_on),
    _Op("credit", _ChildRuntime.credit),
    _Op("shutdown", _ChildRuntime.shutdown),
    # Telemetry.
    _Op("stats", _ChildRuntime.stats),
    _Op("trace_on", _ChildRuntime.trace_on),
    _Op("trace_off", _ChildRuntime.trace_off),
    _Op("trace_drain", _ChildRuntime.trace_drain),
    _Op("metrics_on", _ChildRuntime.metrics_on),
    _Op("metrics_snap", _ChildRuntime.metrics_snap),
    _Op("flight_snap", _ChildRuntime.flight_snap),
    # Pushes, child to parent.
    _Op("hello", None, push=True),
    _Op("complete", ProcessCluster._on_remote_complete, push=True),
    _Op("stats_push", ProcessCluster._on_stats_push, push=True),
    _Op("give_up", ProcessCluster._on_give_up, push=True),
)
_CODES = {op.name: code for code, op in enumerate(_OPS)}
