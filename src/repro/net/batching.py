"""Per-destination send batching & coalescing (ROADMAP: "batching, async, caching").

The paper's central trade-off is parallelism vs. message cost: every
remote pointer costs a ~50 ms message, and on dense cross-site graphs
per-pointer messages dominate response time.  The standard lever for this
class of workload is coalescing traversal requests per source: instead of
one :class:`~repro.net.messages.DerefRequest` per pointer, a site queues
outbound work per ``(query, destination)`` and ships it as a single
:class:`~repro.net.messages.BatchedQuery` frame — one message header, one
copy of the query body, N compact item records.

Flush policy (adaptive):

* **size** — a queue reaching ``max_batch`` items flushes immediately;
* **drain** — when a query's working set drains at a site, every pending
  queue for that query flushes (mandatory for liveness: queued items carry
  termination credit that must eventually reach the originator);
* **timer** — with ``linger_s`` set, queues older than the linger flush at
  the site's next step once a timer on the transport's scheduler fires
  (:class:`~repro.net.site.SiteRuntime` arms it on every wall-clock
  transport; the simulator's event loop makes drain/idle flushes
  immediate, so the timer is a real-transport knob);
* **idle** — a node with no inbox and no runnable context force-flushes
  everything pending (safety net; keeps ``has_work`` truthful).

The batcher also owns two *dedup* structures that cut messages without
ever changing results:

* a per-``(query, destination)`` **sent-set** of exact ``(oid, start,
  iter#)`` keys already shipped — re-sending an identical item is pure
  waste, the destination's mark table would suppress it on arrival;
* **remote mark hints**: each batched frame carries the sender's recent
  mark-table entries, and the receiver records them so it can skip
  sending back work the peer provably already processed (compact summary
  shipping in the spirit of Bloofi's multidimensional filters).

Both suppressions happen *before* termination credit is split off, so the
weighted-message detector's conservation stays exact; a suppressed send
is indistinguishable from a mark-table skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..engine.items import WorkItem
from .messages import MarkHint, QueryId, ResultBatch, TermAttachment

#: Exact identity of a shippable work item (what the sent-set stores).
ItemKey = Tuple[Tuple[str, int], int, tuple]


def item_key(item: WorkItem) -> ItemKey:
    """The dedup key of a work item: ``(oid, start, iter#)`` exactly."""
    return (item.oid.key(), item.start, item.iters)


@dataclass(frozen=True)
class BatchConfig:
    """Batching knobs (see module docstring for the flush policy).

    ``max_batch=1`` with no linger disables the subsystem entirely — the
    node uses the legacy one-message-per-pointer path, bit-identical to
    the unbatched reproduction figures.
    """

    #: Flush a queue when it holds this many items.  1 = no batching.
    max_batch: int = 8

    #: Age (seconds, transport clock) after which a queue flushes on the
    #: linger timer.  ``None`` = no timer; size/drain/idle flushes only.
    linger_s: Optional[float] = None

    #: Attach recent mark-table entries to outgoing frames so the
    #: destination can suppress echo sends.
    mark_hints: bool = True

    #: Max hints attached per frame (the rest ride on later frames).
    hint_cap: int = 64

    #: Also coalesce outbound ResultBatch messages (multi-query workloads)
    #: into BatchedResults frames.  Only meaningful with ``linger_s`` set;
    #: without a linger window results flush immediately as before.
    coalesce_results: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.linger_s is not None and self.linger_s < 0:
            raise ValueError(f"linger_s must be >= 0, got {self.linger_s}")

    @property
    def enabled(self) -> bool:
        return self.max_batch > 1 or self.linger_s is not None


@dataclass
class _WorkQueue:
    items: List[WorkItem] = field(default_factory=list)
    terms: List[TermAttachment] = field(default_factory=list)
    #: Per-item cause span ids (tracing; None entries when untraced).
    spans: List[Optional[int]] = field(default_factory=list)
    #: Replica holders already attempted for work in this queue (union
    #: over items; empty on unreplicated deployments).  Rides the flushed
    #: frame's envelope so failover at the next hop keeps excluding them.
    tried: Set[str] = field(default_factory=set)
    first_enqueued: float = 0.0


@dataclass
class _ResultQueue:
    batches: List[ResultBatch] = field(default_factory=list)
    spans: List[Optional[int]] = field(default_factory=list)
    first_enqueued: float = 0.0


class SendBatcher:
    """One site's send queues + dedup state.  Owned by a ServerNode.

    Pure data structure: it never emits messages itself.  The node decides
    *when* to flush (size/drain/timer/idle) and *what* the flushed frame
    looks like; transports only supply the clock.
    """

    def __init__(self, config: BatchConfig) -> None:
        self.config = config
        self._work: Dict[Tuple[QueryId, str], _WorkQueue] = {}
        self._results: Dict[str, _ResultQueue] = {}
        #: Exact item keys already shipped, per (query, destination).
        self._sent: Dict[Tuple[QueryId, str], Set[ItemKey]] = {}
        #: Hints received: marks known to exist at a peer, per (query, peer).
        self._remote_marks: Dict[Tuple[QueryId, str], Set[MarkHint]] = {}
        #: Journal cursor per (query, destination) for hint attachment.
        self._hint_cursor: Dict[Tuple[QueryId, str], int] = {}

    # -- dedup -----------------------------------------------------------

    def already_sent(self, qid: QueryId, dst: str, item: WorkItem) -> bool:
        sent = self._sent.get((qid, dst))
        return sent is not None and item_key(item) in sent

    def record_sent(self, qid: QueryId, dst: str, item: WorkItem) -> None:
        self._sent.setdefault((qid, dst), set()).add(item_key(item))

    def forget_sent(self, qid: QueryId, dst: str, items: Iterable[WorkItem]) -> None:
        """Un-record items whose delivery failed (bounced batch / down
        destination) so a later re-discovery of the branch is not
        suppressed against a site that never processed it."""
        sent = self._sent.get((qid, dst))
        if sent is None:
            return
        for item in items:
            sent.discard(item_key(item))

    def record_remote_marks(
        self, qid: QueryId, peer: str, hints: Sequence[MarkHint]
    ) -> None:
        if hints:
            self._remote_marks.setdefault((qid, peer), set()).update(hints)

    def known_marked(self, qid: QueryId, peer: str, oid_key: Tuple[str, int], mark_key: tuple) -> bool:
        """True if ``peer`` told us it already holds this exact mark."""
        marks = self._remote_marks.get((qid, peer))
        return marks is not None and (oid_key, mark_key) in marks

    def take_hints(self, qid: QueryId, dst: str, mark_table) -> Tuple[MarkHint, ...]:
        """Next slice of the mark journal not yet shipped to ``dst``.

        Advances the per-destination cursor, then trims the journal up
        to the *minimum* cursor across this query's destinations — every
        retained entry is still owed to someone, everything older is
        dropped, so the journal stays bounded across flushes instead of
        logging the query's whole mark history.
        """
        if not self.config.mark_hints:
            return ()
        cursor = self._hint_cursor.get((qid, dst), 0)
        taken, new_cursor = mark_table.journal_slice(cursor, self.config.hint_cap)
        self._hint_cursor[(qid, dst)] = new_cursor
        floor = min(
            c for (q, _), c in self._hint_cursor.items() if q == qid
        )
        mark_table.trim_journal(floor)
        return taken

    # -- work queues -----------------------------------------------------

    def enqueue_work(
        self,
        qid: QueryId,
        dst: str,
        item: WorkItem,
        term: TermAttachment,
        now: float,
        span: Optional[int] = None,
        tried: Tuple[str, ...] = (),
    ) -> int:
        """Queue one work item; returns the queue's new length.

        ``span`` is the tracing span id of the step that caused the send
        (None when untraced); it rides the queue so the eventual batched
        frame can carry per-item causality.  ``tried`` lists replica
        holders already attempted for this item (failover re-sends);
        the queue unions them so the flushed envelope carries the hint.
        """
        queue = self._work.get((qid, dst))
        if queue is None:
            queue = self._work[(qid, dst)] = _WorkQueue(first_enqueued=now)
        queue.items.append(item)
        queue.terms.append(term)
        queue.spans.append(span)
        queue.tried.update(tried)
        return len(queue.items)

    def take_work(
        self, qid: QueryId, dst: str
    ) -> Tuple[
        Tuple[WorkItem, ...],
        Tuple[TermAttachment, ...],
        Tuple[Optional[int], ...],
        Tuple[str, ...],
    ]:
        """Remove and return everything queued for ``(qid, dst)``."""
        queue = self._work.pop((qid, dst), None)
        if queue is None:
            return (), (), (), ()
        return (
            tuple(queue.items),
            tuple(queue.terms),
            tuple(queue.spans),
            tuple(sorted(queue.tried)),
        )

    def work_destinations(self, qid: QueryId) -> List[str]:
        """Destinations with pending work for one query (drain flush)."""
        return [dst for (q, dst) in self._work if q == qid]

    def pending_work(self) -> List[Tuple[QueryId, str]]:
        """Every (query, destination) with pending work (idle flush)."""
        return list(self._work.keys())

    def due_work(self, now: float) -> List[Tuple[QueryId, str]]:
        """Queues older than the linger window (timer flush)."""
        if self.config.linger_s is None:
            return []
        horizon = now - self.config.linger_s
        return [key for key, q in self._work.items() if q.first_enqueued <= horizon]

    def queued_toward(self, dst: str) -> int:
        """Work items currently held for one destination, across queries.

        This is the quantity QoS backpressure grows when a peer reports
        high watermark — held items keep accumulating into larger frames
        instead of adding to the pressured site's inbox.
        """
        return sum(len(q.items) for (_, d), q in self._work.items() if d == dst)

    @property
    def total_queued(self) -> int:
        """All work items currently held in send queues (observability)."""
        return sum(len(q.items) for q in self._work.values())

    # -- result queues ---------------------------------------------------

    def enqueue_result(
        self, dst: str, batch: ResultBatch, now: float, span: Optional[int] = None
    ) -> int:
        queue = self._results.get(dst)
        if queue is None:
            queue = self._results[dst] = _ResultQueue(first_enqueued=now)
        queue.batches.append(batch)
        queue.spans.append(span)
        return len(queue.batches)

    def take_results(
        self, dst: str
    ) -> Tuple[Tuple[ResultBatch, ...], Tuple[Optional[int], ...]]:
        queue = self._results.pop(dst, None)
        if queue is None:
            return (), ()
        return tuple(queue.batches), tuple(queue.spans)

    def pending_results(self) -> List[str]:
        return list(self._results.keys())

    def due_results(self, now: float) -> List[str]:
        if self.config.linger_s is None:
            return []
        horizon = now - self.config.linger_s
        return [dst for dst, q in self._results.items() if q.first_enqueued <= horizon]

    # -- lifecycle -------------------------------------------------------

    @property
    def has_pending(self) -> bool:
        return bool(self._work) or bool(self._results)

    def drop_query(self, qid: QueryId) -> int:
        """Discard everything held for one query (deadline expiry/purge).

        Only callers that have already written the query's termination
        state off (``on_deadline``) may drop pending work — the queued
        attachments carry credit.  Returns the number of items dropped.
        """
        dropped = 0
        for key in [k for k in self._work if k[0] == qid]:
            dropped += len(self._work.pop(key).items)
        for key in [k for k in self._sent if k[0] == qid]:
            del self._sent[key]
        for key in [k for k in self._remote_marks if k[0] == qid]:
            del self._remote_marks[key]
        for key in [k for k in self._hint_cursor if k[0] == qid]:
            del self._hint_cursor[key]
        for dst in list(self._results):
            queue = self._results[dst]
            kept = [
                (b, s) for b, s in zip(queue.batches, queue.spans) if b.qid != qid
            ]
            dropped += len(queue.batches) - len(kept)
            if kept:
                queue.batches = [b for b, _ in kept]
                queue.spans = [s for _, s in kept]
            else:
                del self._results[dst]
        return dropped
