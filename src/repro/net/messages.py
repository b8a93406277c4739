"""Message types exchanged between HyperFile sites (paper §3.2).

The distributed algorithm needs only two kinds of message:

* :class:`DerefRequest` — "process this object for this query".  Carries
  the query identity and body (``Q.id``, ``Q.originator``, ``Q.body``,
  ``Q.size``) plus the dereferenced object's ``(id, start, iter#)``.  The
  query body is resent with every message, as in the paper (which
  measures these at ~40 bytes); ours is ~60 bytes of a ~105-byte frame.
  Resending it is cheap only because the work around it is paid once:
  the body is serialised once per :class:`~repro.core.program.Program`
  and parsed once per process per query (:mod:`repro.net.codec`), and
  its modelled size below is computed once per program.
* :class:`ResultBatch` — results flowing back to the originating site:
  object ids that passed all filters, values shipped by ``→`` retrievals,
  or (under the distributed-set optimisation of §5) just a local count.

Both carry an opaque ``term`` attachment owned by the termination detector
(dyadic credit for the weighted scheme; nothing for Dijkstra–Scholten,
which uses explicit :class:`ControlMessage` acks instead).

An :class:`Envelope` wraps a payload with routing and an estimated wire
size, which the metrics layer aggregates into bytes-on-the-wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

from ..core.objects import HFObject
from ..core.oid import Oid
from ..core.program import Program
from ..engine.items import WorkItem

#: Termination-detector attachment (opaque to the transport).
TermAttachment = Mapping[str, Any]

_EMPTY_TERM: TermAttachment = {}


@dataclass(frozen=True)
class QueryId:
    """Globally unique query identity: ``Q.id @ Q.originator``."""

    seq: int
    originator: str

    def __str__(self) -> str:
        return f"q{self.seq}@{self.originator}"


@dataclass(frozen=True)
class DerefRequest:
    """Ship the query to the site holding a dereferenced object."""

    qid: QueryId
    program: Program
    item: WorkItem
    term: TermAttachment = field(default_factory=dict)

    def wire_size(self) -> int:
        # qid + (oid, start, iter#) + encoded body.  Matches the paper's
        # observation that its experiment queries were ~40 bytes.
        return 12 + 16 + self.item.start.bit_length() // 8 + self.program.wire_size()


@dataclass(frozen=True)
class ResultBatch:
    """Results (or a count) flowing back to ``Q.originator``.

    ``oids`` — objects that passed every filter; ``emissions`` — values
    produced by ``→`` retrieval filters, tagged with their target variable
    so the originator can bind them; ``count_only``/``count`` — the
    distributed-set optimisation: the site reports how many results it is
    holding instead of shipping them.
    """

    qid: QueryId
    oids: Tuple[Oid, ...] = ()
    emissions: Tuple[Tuple[str, Any], ...] = ()
    count_only: bool = False
    count: int = 0
    term: TermAttachment = field(default_factory=dict)
    #: Piggybacked :class:`repro.cache.SiteSummary` (typed loosely so the
    #: message layer never imports the cache package — codec does).
    summary: Optional[Any] = None

    @property
    def item_count(self) -> int:
        """Entries the originator must integrate (drives the cost model)."""
        if self.count_only:
            return 1
        return len(self.oids) + len(self.emissions)

    def wire_size(self) -> int:
        extra = self.summary.wire_size() if self.summary is not None else 0
        if self.count_only:
            return 20 + extra
        size = 16 + extra
        for oid in self.oids:
            size += len(oid.birth_site) + 12
        for target, value in self.emissions:
            size += len(target) + _value_wire_size(value)
        return size


#: One batch-level dedup hint: ``(oid_key, mark_key)`` — an object key plus
#: the sender's mark-table key (position, or (position, iters)) recorded for
#: it.  The receiver may suppress sending that exact work item back to the
#: hint's sender: it is provably already marked there.
MarkHint = Tuple[Tuple[str, int], tuple]


@dataclass(frozen=True)
class BatchedQuery:
    """Several coalesced dereference requests for one query, one frame.

    The batching layer's replacement for a burst of per-pointer
    :class:`DerefRequest` messages to the same destination: the query body
    ships once, each item keeps its *own* termination attachment (credit
    was split per item at enqueue time, so the weighted detector's
    conservation stays exact under batching), and ``marked_hints`` carries
    the sender's recent mark-table entries so the destination can avoid
    re-admitting objects remotely (Bloofi-style summary shipping).
    """

    qid: QueryId
    program: Program
    items: Tuple[WorkItem, ...]
    terms: Tuple[TermAttachment, ...]
    marked_hints: Tuple[MarkHint, ...] = ()

    def __post_init__(self) -> None:
        if len(self.items) != len(self.terms):
            raise ValueError(
                f"batched frame has {len(self.items)} items but {len(self.terms)} attachments"
            )
        if not self.items:
            raise ValueError("a batched frame must carry at least one item")

    def wire_size(self) -> int:
        # qid + body once, then one compact record per item + per hint.
        size = 12 + self.program.wire_size()
        for item in self.items:
            size += 16 + item.start.bit_length() // 8
        size += 10 * len(self.marked_hints)
        return size


@dataclass(frozen=True)
class BatchedResults:
    """Several coalesced :class:`ResultBatch` messages, one frame.

    Produced by the batching layer when result flushes to the same
    destination accumulate within the linger window (multi-query
    workloads); the destination ingests each inner batch exactly as if it
    had arrived alone.
    """

    batches: Tuple["ResultBatch", ...]

    def __post_init__(self) -> None:
        if not self.batches:
            raise ValueError("a batched-results frame must carry at least one batch")

    @property
    def qid(self) -> QueryId:
        """First inner query id (tracing attribution)."""
        return self.batches[0].qid

    def wire_size(self) -> int:
        return 4 + sum(batch.wire_size() for batch in self.batches)


@dataclass(frozen=True)
class SeedFromSaved:
    """Distributed-set follow-up (paper §5's proposed optimisation).

    Asks a site to seed a *new* query's working set from the result
    partition it retained for a previous query — "the portion of this set
    at each site would be used to initialize the working set at that site
    for the new query".  No object ids cross the network.
    """

    qid: QueryId
    program: Program
    source_qid: QueryId
    term: TermAttachment = field(default_factory=dict)

    def wire_size(self) -> int:
        return 24 + self.program.wire_size()


@dataclass(frozen=True)
class ControlMessage:
    """Termination-detector control traffic (e.g. Dijkstra–Scholten acks)."""

    qid: QueryId
    kind: str
    payload: Any = None

    def wire_size(self) -> int:
        return 24


@dataclass(frozen=True)
class PurgeContext:
    """Originator -> participant: the query terminated; drop its context.

    The paper: "The context Q is discarded only on global termination of
    the query" — which the originator alone detects, so it must tell the
    participants.  Sent to every site that contributed results (the
    originator learns participants from ResultBatch sources).  Purging is
    best-effort: a lost purge leaves a stale context, never a wrong
    answer.  ``incarnation`` names the run being retired, so a purge
    that outlives a reused query id cannot kill the rerun's context.
    """

    qid: QueryId
    incarnation: int = 1

    def wire_size(self) -> int:
        return 16


@dataclass(frozen=True)
class FetchRequest:
    """Whole-object retrieval: "retrieve a file given its name".

    ``reply_to`` names the requesting site; forwarding hops (stale hints,
    migrated objects) preserve it so the reply goes straight back to the
    requester, not to the last forwarder.
    """

    request_id: int
    oid: Oid
    reply_to: str = ""

    def wire_size(self) -> int:
        return 12 + len(self.oid.birth_site) + 12 + len(self.reply_to)


@dataclass(frozen=True)
class FetchReply:
    """File-server baseline: the whole object (or None) shipped back."""

    request_id: int
    obj: Optional[HFObject]

    def wire_size(self) -> int:
        return 12 + (self.obj.size_bytes if self.obj is not None else 0)


@dataclass(frozen=True)
class Undeliverable:
    """A work message bounced back to its sender: the destination site was
    down when it arrived (think TCP RST / ICMP unreachable).

    Carrying the original envelope lets the sender's termination detector
    re-absorb the credit/deficit it attached, so queries survive mid-query
    site failures with partial results instead of hanging (the paper's
    autonomy requirement taken one step further than its prototype).
    """

    original: "Envelope"

    def wire_size(self) -> int:
        return 16

    @property
    def qid(self):
        """The bounced query's id, so tracing stays attributable."""
        return getattr(self.original.payload, "qid", "")


@dataclass(frozen=True)
class Heartbeat:
    """One gossip round's liveness evidence from ``origin``.

    ``counters`` is the sender's merged heartbeat-counter table (its own
    counter freshly ticked).  Receivers element-wise-max it into their
    merged table; a member whose counter stops advancing everywhere is
    eventually declared permanently failed.  Carried as a real frame so
    the detector only ever acts on *delivered* evidence — a partitioned
    or frozen site stops producing it, which is exactly the signal.
    """

    origin: str
    counters: Tuple[Tuple[str, int], ...] = ()

    def wire_size(self) -> int:
        size = 4 + len(self.origin)
        for site, _count in self.counters:
            size += len(site) + 4
        return size


@dataclass(frozen=True)
class ViewChange:
    """A membership view broadcast: epoch + the full status table.

    The table is tiny (sites are few), so the whole view ships rather
    than a delta — receivers can adopt it idempotently and out-of-order
    arrivals resolve by epoch comparison.
    """

    epoch: int
    statuses: Tuple[Tuple[str, str], ...]
    reason: str = ""

    def wire_size(self) -> int:
        size = 8 + len(self.reason)
        for site, status in self.statuses:
            size += len(site) + len(status) + 2
        return size


@dataclass(frozen=True)
class Envelope:
    """A routed message: source site, destination site, payload.

    ``spans`` is the tracing span context riding the message (see
    :mod:`repro.tracing`): ``spans[0]`` is the span id of the send event
    that shipped this envelope, and for batched frames ``spans[1:]``
    carry the per-item cause spans, so the receiver can fan a frame into
    per-item children of the right senders' steps.  ``None`` whenever
    tracing is off; the field never contributes to ``size_bytes``, so a
    traced run moves exactly the same modelled bytes as an untraced one.

    ``src_epoch`` piggybacks the sender's store mutation epoch when
    caching is enabled (``None`` otherwise — an uncached run's envelopes
    are indistinguishable from today's).  Receivers use it to invalidate
    stale summaries and cached query answers; like ``spans`` it never
    contributes to ``size_bytes``.

    ``tried`` is the replica-routing hint (``None`` on unreplicated
    deployments): holder sites already attempted for the work this
    envelope carries.  Failover excludes them when picking the next
    replica, so a dereference bouncing between two half-dead holders
    cannot ping-pong; an :class:`Undeliverable` bounce hands the set
    back via the wrapped original envelope.

    ``priority`` is the QoS service class of the query this envelope
    belongs to (``"interactive"`` or ``"batch"``, see :mod:`repro.qos`),
    and ``pressure`` piggybacks the sender's backpressure state (1 =
    above its high watermark, 0 = clear) so upstream senders can throttle
    their batching toward pressured sites.  Both are ``None`` whenever
    ``qos=None`` — a QoS-free run's envelopes are byte-for-byte the
    pre-QoS ones — and neither contributes to ``size_bytes``.
    """

    src: str
    dst: str
    payload: Any
    spans: Optional[Tuple[int, ...]] = None
    src_epoch: Optional[int] = None
    tried: Optional[Tuple[str, ...]] = None
    priority: Optional[str] = None
    pressure: Optional[int] = None
    #: The payload's modelled wire size, computed once here: sent and
    #: received stats, wire delay and delivered bytes all read it.  Not
    #: part of ``==``, the hash or ``repr``.
    size_bytes: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        wire = getattr(self.payload, "wire_size", None)
        object.__setattr__(self, "size_bytes", wire() if callable(wire) else 64)

    def __repr__(self) -> str:
        return f"Envelope({self.src} -> {self.dst}: {type(self.payload).__name__})"


def _value_wire_size(value: Any) -> int:
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, Oid):
        return len(value.birth_site) + 12
    return 8
