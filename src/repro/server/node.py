"""A HyperFile server site (paper §3.2).

"All sites run an identical algorithm."  A :class:`ServerNode` owns one
site's object store and a table of query contexts, and exposes a
step-driven interface so different drivers can run it:

* the **simulated cluster** (:mod:`repro.net.simnet`) calls :meth:`step`
  from discrete events and converts the reported costs into virtual time;
* every **wall-clock site loop** — the threaded cluster's worker thread
  (:mod:`repro.net.threaded`), an ``async`` inline site's drain task
  (:mod:`repro.net.asyncio_cluster`) and each process-mode child
  (:mod:`repro.net.procserver`) — hands each inbox burst to one
  :class:`~repro.net.site.SiteRuntime`, which delivers it with
  :meth:`on_message` and steps to idle;
* tests call it directly.

Each step does exactly one unit of work — ingest one message or push one
object through the filters — and reports its cost (per the
:class:`~repro.sim.costs.CostModel`) plus any outgoing envelopes.  The
node never blocks: remote dereferences become messages ("send the query,
not the data") and the site keeps processing whatever else is in its
working sets, which is where the algorithm's parallelism comes from.
The algorithm is written once: a dereference is ingested (shed, forwarded
or admitted) by one routine whether it arrived alone or in a batch, and
work that never reached its destination is recovered by one routine
whether it bounced or its destination went down under a send queue.

The optional subsystems keep their policy in their own modules: QoS
(backpressure, shedding, stamping, weighted-fair drain) in
:mod:`repro.qos.policy`, caching in :class:`~repro.cache.NodeCache`.  A
subsystem that is off is ``None`` here, tested once per hook; the drain
order is the paper's round-robin unless QoS chose weighted-fair at
construction.  Batching and tracing stay in the node: their flush and
span logic needs its whole surface.

Naming (§4) is folded into :meth:`locate`: try the local store, then the
site's forwarding table (objects that migrated away), then fall back to
the id's presumed site or birth site.  A :class:`DerefRequest` that
arrives for an object that moved is re-forwarded rather than failed.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..core.oid import Oid
from ..core.program import Program
from ..engine.items import WorkItem
from ..engine.local import QueryExecution
from ..engine.results import QueryResult
from ..errors import HyperFileError, ObjectNotFound, ResultSetRetired
from ..naming.directory import ForwardingTable, ReplicaDirectory
from ..net.batching import BatchConfig, ItemKey, SendBatcher, item_key
from ..qos import QoSConfig, RoundRobin, SiteQoS, WeightedFair
from ..net.messages import (
    BatchedQuery,
    BatchedResults,
    ControlMessage,
    DerefRequest,
    Envelope,
    FetchReply,
    FetchRequest,
    Heartbeat,
    PurgeContext,
    QueryId,
    ResultBatch,
    SeedFromSaved,
    Undeliverable,
)
from ..sim.costs import CostModel, PAPER_COSTS
from ..storage.memstore import MemStore
from ..termination.base import TerminationStrategy
from ..termination.weights import WeightedStrategy
from .context import PURGED_RUNS, RECENT_QUERIES, QueryContext
from .stats import NodeStats

if TYPE_CHECKING:  # a feature's modules load only when its config is set
    from ..cache import CacheConfig, NodeCache

#: Callback fired at the originator when a query completes.
CompletionCallback = Callable[[QueryId, QueryResult], None]


def _credit_detail(payload: Any) -> Optional[str]:
    """Total termination credit riding a message, as an exact string.

    Fuel for the credit-flow audit (:mod:`repro.profiling`): every traced
    send/recv records the credit it moved, so a ``TerminationLost`` deficit
    can be explained span by span.  Returns ``None`` for credit-free
    messages so their trace details stay clean.
    """
    terms: List[Any] = []
    if isinstance(payload, BatchedQuery):
        terms.extend(payload.terms)
    elif isinstance(payload, BatchedResults):
        terms.extend(batch.term for batch in payload.batches)
    else:
        term = getattr(payload, "term", None)
        if term is not None:
            terms.append(term)
    total = None
    for term in terms:
        credit = term.get("credit") if hasattr(term, "get") else None
        if credit is not None:
            total = credit if total is None else total + credit
    return None if total is None else str(total)


@dataclass
class StepReport:
    """Outcome of one node step: virtual cost plus outbound messages.

    ``completed`` carries queries whose termination detector fired during
    this step; drivers deliver them to the client *after* charging the
    step's cost, so completion timestamps include the work that produced
    them.
    """

    elapsed: float = 0.0
    outgoing: List[Envelope] = field(default_factory=list)
    completed: List[tuple] = field(default_factory=list)


class ServerNode:
    """One HyperFile site: store + query contexts + message handlers."""

    def __init__(
        self,
        site: str,
        store: MemStore,
        costs: CostModel = PAPER_COSTS,
        termination: Optional[TerminationStrategy] = None,
        discipline: str = "fifo",
        result_mode: str = "ship",
        mark_granularity: str = "iteration",
        forwarding: Optional[ForwardingTable] = None,
        is_site_up: Optional[Callable[[str], bool]] = None,
        on_query_complete: Optional[CompletionCallback] = None,
        batching: Optional[BatchConfig] = None,
        caching: Optional[CacheConfig] = None,
        replicas: Optional[ReplicaDirectory] = None,
        qos: Optional[QoSConfig] = None,
    ) -> None:
        """
        Parameters
        ----------
        result_mode:
            ``"ship"`` — drains send result oids to the originator (the
            paper's base algorithm).  ``"count"`` — the distributed-set
            optimisation of §5: drains report only a count, each site
            retains its result partition for follow-up queries.
        forwarding:
            This site's forwarding table for migrated objects (naming §4).
        is_site_up:
            Availability oracle; sends to down sites are dropped and
            counted so partial results still terminate cleanly.
        batching:
            Comms-coalescing config (:class:`~repro.net.batching.BatchConfig`).
            ``None`` (or ``max_batch=1`` with no linger) keeps the legacy
            one-message-per-pointer path, bit-identical to before.
        caching:
            Cross-query caching config (:class:`~repro.cache.CacheConfig`):
            fragment-result reuse, Bloom-summary send pruning, and the
            originator's whole-query answer cache.  ``None`` disables the
            subsystem entirely — behaviour is bit-identical to an
            uncached node.
        replicas:
            Cluster-shared :class:`~repro.naming.directory.ReplicaDirectory`
            when k-way replication is on: routing prefers a local replica
            (read anycast), sends target the first *live* holder, and
            bounced work fails over to the next replica instead of being
            abandoned.  ``None`` (or an object absent from the directory)
            keeps the paper's single-holder :meth:`locate` path exactly.
        qos:
            Admission-control / QoS config (:class:`~repro.qos.QoSConfig`):
            priority classes with weighted-fair drain, high/low-watermark
            backpressure piggybacked on envelopes, and load shedding that
            converts overload into exact-credit partial results.  ``None``
            disables the subsystem — behaviour (scheduling order, wire
            frames, costs) is bit-identical to a QoS-free node.
        """
        if result_mode not in ("ship", "count"):
            raise ValueError(f"result_mode must be 'ship' or 'count', got {result_mode!r}")
        self.site = site
        self.store = store
        self.costs = costs
        self.termination = termination if termination is not None else WeightedStrategy()
        self.discipline = discipline
        self.result_mode = result_mode
        self.mark_granularity = mark_granularity
        self.forwarding = forwarding if forwarding is not None else ForwardingTable(site)
        self.is_site_up = is_site_up if is_site_up is not None else (lambda _site: True)
        #: Membership routing hook: maps a site name to its view status
        #: (``"up"`` / ``"leaving"`` / ``"departed"``).  Clusters with
        #: dynamic membership point this at their MembershipService; the
        #: default reports every site up, so a membership-free build
        #: routes bit-identically to before.
        self.membership_status: Callable[[str], str] = lambda _site: "up"
        #: Membership heartbeat sink: called with a delivered
        #: :class:`~repro.net.messages.Heartbeat`'s counter table.  Wired
        #: by clusters running the gossip failure detector.
        self.heartbeat_sink: Optional[Callable[[Tuple[Tuple[str, int], ...]], None]] = None
        self.on_query_complete = on_query_complete
        self.batching = batching if batching is not None else BatchConfig(max_batch=1)
        self._batcher = SendBatcher(self.batching) if self.batching.enabled else None
        self.replicas = replicas
        #: Clock for batch linger aging; real transports point this at
        #: ``time.monotonic`` (the simulator relies on drain/idle flushes).
        self.now_fn: Callable[[], float] = lambda: 0.0
        #: Every context this site holds: the queries it is running plus,
        #: at their originator, the last RECENT_QUERIES finished ones.  No
        #: per-step path iterates it (see ``_busy`` / ``_pending`` / ``_drain_order``).
        self.contexts: Dict[QueryId, QueryContext] = {}
        #: Originator side: finished queries still held, oldest first.
        self._recent: "OrderedDict[QueryId, None]" = OrderedDict()
        #: The last PURGED_RUNS runs purged here, oldest first: at a
        #: participant the purges it was told of (their stragglers are
        #: dropped), at the originator the ones it sent (a reused id skips
        #: their incarnations).
        self._purged: "OrderedDict[Tuple[QueryId, int], None]" = OrderedDict()
        #: Contexts with a non-empty working set, and work items pending
        #: across all of them — maintained where working sets change, so
        #: ``has_work`` / ``work_depth`` never scan the context table.
        self._busy = 0
        self._pending = 0
        self.inbox: Deque[Envelope] = deque()
        self.stats = NodeStats()
        self._cache: Optional[NodeCache] = None
        if caching is not None and caching.enabled:
            from ..cache.nodecache import NodeCache

            self._cache = NodeCache(site, caching, self.stats)
        #: Originator side: current incarnation per reused query id (a
        #: qid resubmitted after deadline expiry).  Absent = 1, the
        #: common case, which never stamps the wire.
        self._incarnations: Dict[QueryId, int] = {}
        #: QoS policy (repro.qos.policy); None = no QoS.
        self.qos = SiteQoS(qos, self) if qos is not None else None
        #: Drain order over busy contexts, chosen once: the paper's
        #: round-robin, or weighted-fair over the QoS service classes.
        self._drain_order = RoundRobin(self.contexts) if qos is None else WeightedFair(qos, self.contexts)
        #: Optional QueryTracer (see repro.tracing); None = zero overhead.
        self.tracer = None
        #: Optional MetricsRegistry (see repro.metrics.registry); None =
        #: zero overhead, same contract as the tracer.
        self.metrics = None
        #: Tracing: span id of the event anchoring the current step (the
        #: recv/process/submit that work in this step descends from).
        self._step_span: Optional[int] = None
        #: Tracing: admission-cause span per pending work item, so the
        #: eventual process/skip event parents on the step that admitted it.
        self._item_spans: Dict[Tuple[QueryId, ItemKey], int] = {}
        #: Completed client fetches: request_id -> HFObject | None.
        self.fetch_results: Dict[int, Any] = {}
        self._next_fetch_id = 0

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------

    def locate(self, oid: Oid) -> str:
        """Resolve an object id to the site that should process it.

        Order of authority: the local store (object is here), this site's
        forwarding table (it was here and moved), birth-site arbitration
        (if born here and unknown, it does not exist — treat as local so
        the miss is recorded), and finally the id's presumed-site hint.
        """
        if self.store.contains(oid):
            return self.site
        forwarded = self.forwarding.lookup(oid)
        if forwarded is not None:
            return forwarded
        if oid.birth_site == self.site:
            return self.site
        hint = oid.hint
        if hint == self.site:
            # The hint is stale (object believed here but absent); the
            # birth site is the final arbiter.
            return oid.birth_site
        return hint

    def _route(self, oid: Oid) -> str:
        """Replica-aware :meth:`locate`: where should this dereference go?

        Read anycast — any live holder may serve it (:meth:`_holder`); if
        none is live the placement primary is returned and the caller's
        down-site accounting abandons the branch.  Objects absent from the
        replica directory (every ``k=1`` deployment's is empty) take the
        paper's naming chain, so the replica-free build routes as before.
        """
        if self.replicas is None:
            return self.locate(oid)
        sites = self.replicas.sites_of(oid)
        if not sites:
            return self.locate(oid)
        return self._holder(sites, ()) or sites[0]

    def _takes_work(self, site: str) -> bool:
        """May new work be sent to ``site``?  Leaving/departed members
        finish what they hold but receive nothing new."""
        return self.membership_status(site) == "up"

    def _holder(self, sites: Tuple[str, ...], exclude: Any) -> Optional[str]:
        """The replica holder to serve a dereference, among ``sites``
        outside ``exclude`` (holders already tried): this site if it holds
        one (serve locally, no message), else the first live holder that
        takes work, in placement order; ``None`` if none is left."""
        if self.site in sites and self.site not in exclude:
            return self.site
        for site in sites:
            if site not in exclude and self.is_site_up(site) and self._takes_work(site):
                return site
        return None

    # ------------------------------------------------------------------
    # client-facing entry points (used at the originating site)
    # ------------------------------------------------------------------

    def submit(
        self,
        qid: QueryId,
        program: Program,
        initial: Iterable[Oid],
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> StepReport:
        """Install an originator context and seed the initial set ``S_i``."""
        initial = list(initial)
        ctx, report = self._open_query(qid, program)
        if self.qos is not None:
            ctx.priority = self.qos.service_class(priority)
        # SLO watermarks: stamped from the node clock (virtual on sim,
        # monotonic on the wall-clock transports) so submit→first-result
        # and submit→complete are measured where completion is decided.
        ctx.submitted_at = self.now_fn()
        if tenant is not None:
            ctx.tenant = tenant
        if (
            self._cache is not None
            and self.result_mode == "ship"
            and self._cache.serve(ctx, initial, self.store.epoch)
        ):
            # The whole answer came from cache: write the ledger off (no
            # work was split) and complete through the normal termination
            # path so traces/callbacks look identical.
            self.termination.on_deadline(ctx.term_state)
            report.elapsed += self.costs.cache_hit_s
            self._check_termination(ctx, report)
            return report
        for oid in initial:
            target = self._route(oid)
            if target == self.site:
                self._admit(ctx, WorkItem(oid=oid, start=1), self._step_span)
            else:
                self._send_work(ctx, target, WorkItem(oid=oid, start=1), report)
        self._drain_order.add(ctx)
        self._drain_if_idle(ctx, report)
        return report

    def submit_from_saved(
        self,
        qid: QueryId,
        program: Program,
        source_qid: QueryId,
        sites: Iterable[str],
    ) -> StepReport:
        """Start a follow-up query over a distributed set (paper §5).

        Each site that holds a partition of ``source_qid``'s result is
        asked to seed its working set from it; no oids cross the network.
        The sites hold those partitions only in ``result_mode="count"``
        and only while the source's originator keeps it in its
        recently-finished window; otherwise :class:`ResultSetRetired`
        is raised rather than seeding from nothing.
        """
        if self.result_mode != "count":
            raise ResultSetRetired(
                f"follow-up on {source_qid}: result_mode={self.result_mode!r} ships results "
                "and retires the sites' partitions at completion; use result_mode='count'"
            )
        if source_qid.originator == self.site:
            if source_qid not in self._recent:
                raise ResultSetRetired(
                    f"follow-up on {source_qid}: not among the last {RECENT_QUERIES} "
                    "queries finished here, so its partitions were retired"
                )
            self._recent.move_to_end(source_qid)  # a follow-up renews the lease
        ctx, report = self._open_query(qid, program, followup=str(source_qid))
        for site in sites:
            if site == self.site:
                self._seed(ctx, source_qid)
            else:
                attach = self.termination.on_send_work(ctx.term_state)
                self._emit(
                    report, site,
                    SeedFromSaved(qid, program, source_qid, self._stamp_inc(ctx, attach)),
                )
        self._drain_order.add(ctx)
        self._drain_if_idle(ctx, report)
        return report

    def _open_query(self, qid: QueryId, program: Program, **detail: Any) -> Tuple[QueryContext, StepReport]:
        """Install the originator context of a query submitted here."""
        if qid.originator != self.site:
            raise HyperFileError(f"query {qid} submitted at non-originating site {self.site}")
        self._prepare_resubmit(qid)
        if self.tracer is not None:
            self._step_span = self.tracer.emit(self.site, "submit", qid, filters=program.size, **detail)
        ctx = self._ensure_context(qid, program)
        self.termination.on_start(ctx.term_state)
        return ctx, StepReport()

    def saved_partition(self, qid: QueryId) -> List[Oid]:
        """This site's retained result partition for a finished query."""
        ctx = self.contexts.get(qid)
        if ctx is None:
            return []
        return ctx.local_partition()

    def request_fetch(self, oid: Oid) -> Tuple[int, StepReport]:
        """Client-facing whole-object retrieval (the file-interface half
        of the paper's spectrum: "retrieve a file given its name").

        Local objects complete immediately; remote ones send a
        :class:`FetchRequest` to the holder and complete when the
        :class:`FetchReply` lands in :attr:`fetch_results`.
        """
        self._next_fetch_id += 1
        request_id = self._next_fetch_id
        report = StepReport()
        target = self._route(oid)
        if target == self.site:
            self.fetch_results[request_id] = self._local_object(oid)
            report.elapsed += self.costs.mark_check_s
        else:
            self._emit(report, target, FetchRequest(request_id, oid, reply_to=self.site))
        return request_id, report

    def expire_query(self, qid: QueryId) -> StepReport:
        """Originator-side deadline expiry (the paper's partial-results
        semantics under *arbitrary* failure, not only scripted down sites).

        Write off outstanding detector state, abandon local pending work,
        and complete the query immediately with whatever results arrived,
        flagged ``partial``.  Idempotent: a no-op if the query already
        completed (or is unknown here).
        """
        report = StepReport()
        ctx = self.contexts.get(qid)
        if ctx is None or not ctx.is_originator or ctx.done:
            return report
        abandoned = self._abandon(ctx)
        self._merge_local_results(ctx)
        self.termination.on_deadline(ctx.term_state)
        # Pending queued sends carried credit, but on_deadline just wrote
        # the whole ledger off — dropping them is consistent.
        self._drop_sends(qid)
        ctx.done = True
        assert ctx.final is not None
        ctx.final.partial = True
        # Why the result is incomplete: branches written off to down
        # sites outrank the timer itself ("crash" beats "deadline"); a
        # query that was also shed keeps the richer shed reason.
        if ctx.saw_shed:
            ctx.final.partial_reason = "shed"
        elif ctx.abandoned:
            ctx.final.partial_reason = "crash"
        else:
            ctx.final.partial_reason = "deadline"
        self.stats.deadline_expiries += 1
        if self.tracer is not None:
            self._step_span = self.tracer.emit(
                self.site, "timeout", qid, parent=ctx.root_span,
                abandoned=abandoned, results=len(ctx.final.oids),
            )
        self._finish(ctx, report)
        return report

    # ------------------------------------------------------------------
    # transport-facing entry points
    # ------------------------------------------------------------------

    def on_message(self, env: Envelope) -> None:
        """Enqueue an arriving message (costed when handled, not here)."""
        if self.heartbeat_sink is not None and isinstance(env.payload, Heartbeat):
            # Gossip is consumed entirely at arrival: the liveness
            # evidence counts from the moment the bytes land (otherwise
            # query load at the *receiver* would inflate failure
            # suspicion of healthy *senders*), and the frame never
            # enters the work queue — membership upkeep runs beside the
            # query engine, not instead of it.  Wire costs were paid.
            if self.tracer is not None:
                self.tracer.emit(
                    self.site, "heartbeat", "",
                    origin=env.payload.origin, entries=len(env.payload.counters),
                )
            self.heartbeat_sink(env.payload.counters)
            return
        if isinstance(env.payload, PurgeContext):
            # Retirement is housekeeping outside the paper's cost model:
            # consumed at arrival like gossip — no step, no virtual CPU —
            # so freeing contexts never moves a query's response time.
            self._handle_purge(env, env.payload)
            return
        self.inbox.append(env)

    def observe_epoch(self, site: str, epoch: int, qid: Any = None) -> None:
        """Cache invalidation: ``site``'s store epoch is ``epoch``, seen on
        an envelope (bearing query ``qid``) or out of band (replication
        write fan-out).  Stale summaries for the site are dropped at once,
        so a replica mutated elsewhere can never satisfy rule-B
        suppression here.  No-op when caching is off."""
        if self._cache is not None:
            self._cache.witness(site, epoch, qid)

    @property
    def has_work(self) -> bool:
        if self.inbox:
            return True
        if self._batcher is not None and self._batcher.has_pending:
            return True
        return self._busy > 0

    def recount_work(self) -> None:
        """Re-derive the counters behind ``has_work`` from the contexts,
        and put every busy context back in rotation — for a site loop
        that caught a raise part-way through a step, which may have
        skipped their upkeep.  Scans every context: not a per-step call."""
        self._busy = self._pending = 0
        for ctx in self.contexts.values():
            if ctx.busy:
                self._busy += 1
                self._pending += ctx.execution.pending
                self._drain_order.add(ctx)

    @property
    def work_depth(self) -> int:
        """This site's work-queue depth: unhandled messages plus pending
        work items across every context.  The quantity the QoS watermarks
        (backpressure and shedding) are compared against."""
        return len(self.inbox) + self._pending

    def step(self) -> StepReport:
        """Do one unit of work: handle one message, or process one object."""
        if self.inbox:
            return self._handle_message(self.inbox.popleft())
        ctx = self._drain_order.next()
        if ctx is not None:
            return self._process_one(ctx)
        if self._batcher is not None and self._batcher.has_pending:
            # Idle force-flush: nothing else to do, so everything queued
            # goes out now (keeps ``has_work`` truthful — queued items
            # carry termination credit that must reach the originator).
            self._step_span = None  # causality comes from the queued items
            report = StepReport()
            self._flush_pending(self._batcher.pending_work(), report, "idle")
            self._flush_results(self._batcher.pending_results(), report, "idle")
            return report
        return StepReport()

    def flush_due(self, now: Optional[float] = None) -> StepReport:
        """Timer flush: send queues older than the linger window.

        Real transports call this periodically from their site loops; the
        simulator never needs to (its drain/idle flushes are immediate in
        virtual time).
        """
        report = StepReport()
        if self._batcher is None:
            return report
        self._step_span = None  # timer pops have no ambient step; items carry causes
        if now is None:
            now = self.now_fn()
        self._flush_pending(self._batcher.due_work(now), report, "timer")
        self._flush_results(self._batcher.due_results(now), report, "timer")
        return report

    def run_to_idle(self, max_steps: int = 1_000_000) -> StepReport:
        """Drive steps until idle, merging reports (single-node use/tests)."""
        total = StepReport()
        for _ in range(max_steps):
            if not self.has_work:
                return total
            report = self.step()
            total.elapsed += report.elapsed
            total.outgoing.extend(report.outgoing)
            total.completed.extend(report.completed)
        raise HyperFileError(f"node {self.site} did not go idle in {max_steps} steps")

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def _handle_message(self, env: Envelope) -> StepReport:
        payload = env.payload
        if env.src_epoch is not None:
            # A caching sender stamps its store epoch on every envelope.
            self.observe_epoch(env.src, env.src_epoch, getattr(payload, "qid", None))
        self.stats.count_received(type(payload).__name__, env.size_bytes)
        if self.metrics is not None:
            self.metrics.counter("node.messages_received_total", site=self.site).inc()
            self.metrics.gauge("node.inbox_depth", site=self.site).set(len(self.inbox))
        if self.qos is not None:
            self.qos.observe(env)
        if self.tracer is not None:
            detail: Dict[str, Any] = {"msg": type(payload).__name__, "src": env.src}
            credit = _credit_detail(payload)
            if credit is not None:
                detail["credit"] = credit
            self._step_span = self.tracer.emit(
                self.site, "recv", getattr(payload, "qid", ""),
                parent=env.spans[0] if env.spans else None, **detail,
            )
        if isinstance(payload, DerefRequest):
            return self._handle_work(env, payload, payload.item)
        if isinstance(payload, BatchedQuery):
            return self._handle_batched_query(env, payload)
        if isinstance(payload, ResultBatch):
            return self._handle_result(env, payload)
        if isinstance(payload, BatchedResults):
            return self._handle_batched_results(env, payload)
        if isinstance(payload, ControlMessage):
            return self._handle_control(env, payload)
        if isinstance(payload, SeedFromSaved):
            return self._handle_work(env, payload, None)
        if isinstance(payload, Undeliverable):
            return self._handle_undeliverable(env, payload)
        if isinstance(payload, FetchRequest):
            return self._handle_fetch_request(env, payload)
        if isinstance(payload, FetchReply):
            return self._handle_fetch_reply(payload)
        if isinstance(payload, Heartbeat):
            return self._handle_heartbeat(payload)
        raise HyperFileError(f"site {self.site}: unhandled message {type(payload).__name__}")

    def _handle_heartbeat(self, msg: Heartbeat) -> StepReport:
        """Account a delivered gossip frame.

        The evidence itself was merged at arrival (see :meth:`on_message`);
        this step pays the receipt cost and stamps the trace.
        """
        if self.tracer is not None:
            self.tracer.emit(
                self.site, "heartbeat", "",
                origin=msg.origin, entries=len(msg.counters), parent=self._step_span,
            )
        return StepReport(elapsed=self.costs.msg_recv_s)

    def _handle_work(self, env: Envelope, msg: Any, item: Optional[WorkItem]) -> StepReport:
        """A lone DerefRequest, or a SeedFromSaved (``item`` None: this
        site's saved partition of the source query, paper §5)."""
        report = StepReport(elapsed=self.costs.msg_recv_s)
        ctx = self._context_for_work(msg.qid, msg.program, msg.term)
        if ctx is None:
            # The deadline fired (or the query id was reused, or the run
            # was purged here) while this work was in flight; the client
            # already has the (partial) result — drop the branch.
            self.stats.late_messages += 1
            return report
        if item is None:
            # A seed is never shed or forwarded: the partition is here.
            self._seed(ctx, msg.source_qid)
            self._drain_order.add(ctx)
        self._ingest(env, ctx, item, msg.term, self._step_span, report)
        self._drain_if_idle(ctx, report)
        return report

    def _handle_batched_query(self, env: Envelope, msg: BatchedQuery) -> StepReport:
        """Unbatch a coalesced frame: each item goes through :meth:`_ingest`
        exactly as if its DerefRequest had arrived alone, but the receive
        overhead is one header plus a per-item marginal (the point of
        batching)."""
        report = StepReport(
            elapsed=self.costs.msg_recv_s
            + self.costs.batch_item_recv_s * (len(msg.items) - 1)
        )
        ctx = self._context_for_work(msg.qid, msg.program, msg.terms[0] if msg.terms else {})
        if self.tracer is not None:
            self._step_span = self.tracer.emit(
                self.site, "batch_recv", msg.qid,
                parent=env.spans[0] if env.spans else None,
                src=env.src, items=len(msg.items), hints=len(msg.marked_hints),
            )
        if ctx is None:
            self.stats.late_messages += 1
            return report
        if self._batcher is not None and msg.marked_hints:
            # The sender's recent marks: anything listed is already
            # processed there, so never send it back.
            self._batcher.record_remote_marks(msg.qid, env.src, msg.marked_hints)
        self.stats.batched_items += len(msg.items)
        spans = env.spans
        for index, (item, term) in enumerate(zip(msg.items, msg.terms)):
            # Per-item cause: the sender's step that enqueued this item
            # (rides as spans[1:]); the batch_recv itself is the fallback.
            cause = self._step_span
            if spans is not None and len(spans) > 1 + index and spans[1 + index]:
                cause = spans[1 + index]
            self._ingest(env, ctx, item, term, cause, report)
        self._drain_if_idle(ctx, report)
        return report

    def _ingest(
        self, env: Envelope, ctx: QueryContext, item: Optional[WorkItem], term: Any,
        cause: Optional[int], report: StepReport,
    ) -> None:
        """One arriving work item, the same whether it came alone or in a
        batch: shed, forwarded or admitted, and in every case its
        termination credit handed to the detector (``item`` None: a seed
        already admitted, only its credit is left)."""
        forward = False
        # Load shed: the item's termination credit is absorbed exactly as
        # an admission would (it returns to the originator with the next
        # drain, so conservation stays exact), but the item itself is
        # dropped and the loss rides that drain (``#shed``) so the
        # originator marks the outcome partial.  Earlier admissions in a
        # batch may already have pushed the depth over the watermark.
        if item is not None and (self.qos is None or not self.qos.shed(ctx, env, self._step_span)):
            target = self._route(item.oid)
            # The object migrated away (or the sender used a stale hint):
            # absorb the detector state, then re-forward.
            forward = target != self.site and self.is_site_up(target)
            if not forward:
                if not ctx.execution.mark_table.should_process(item.oid, item.start, item.iters):
                    # This request asks us to re-process something we
                    # already did — the message a global mark table would
                    # have saved (paper §3.2 argues the savings are not
                    # worth the coordination; ablation A1 quantifies them).
                    self.stats.duplicate_requests += 1
                self._admit(ctx, item, cause)
                self._drain_order.add(ctx)
        # After an admission, so the detector sees the site busy.
        self._absorb_controls(
            report,
            self.termination.on_recv_work(ctx.term_state, dict(term), env.src, ctx.busy),
            ctx.qid,
        )
        if forward:
            self._send_work(ctx, target, item, report, cause=cause, tried=env.tried or ())
            self.stats.forwarded_requests += 1

    def _handle_result(self, env: Envelope, msg: ResultBatch) -> StepReport:
        if msg.qid.originator != self.site:
            raise HyperFileError(
                f"site {self.site} received results for {msg.qid} it did not originate"
            )
        ctx = self.contexts.get(msg.qid)
        report = StepReport(
            elapsed=self.costs.result_msg_fixed_s + self.costs.result_item_s * msg.item_count
        )
        inc = msg.term.get("#inc", 1)
        live = ctx is not None and not ctx.done and inc == ctx.incarnation
        if self._cache is not None:
            # A counted batch makes the answer depend on env.src's store as
            # of its current epoch (None or ambiguous epochs poison the
            # footprint).
            self._cache.result_received(msg.qid, msg.summary, env.src, env.src_epoch, live)
        if not live:
            # Deadline already fired (or detector already terminated, or
            # the query was retired, or this batch belongs to a previous
            # run of a reused query id): the client holds the result;
            # ingesting more would mutate it behind their back and could
            # over-recover credit.  The batch still occupies the CPU for
            # its full receive-and-parse cost.
            self._late(msg.qid, env.src, report, inc)
            return report
        assert ctx is not None and ctx.final is not None
        ctx.participants.add(env.src)
        if msg.count_only:
            ctx.partition_counts[env.src] = ctx.partition_counts.get(env.src, 0) + msg.count
        else:
            for oid in msg.oids:
                ctx.final.oids.add(oid)
        for target, value in msg.emissions:
            ctx.final.retrieved.setdefault(target, []).append(value)
        if ctx.first_result_at is None and (msg.item_count or msg.count):
            ctx.first_result_at = self.now_fn()
        if msg.term.get("#shed"):
            # A participant shed work for this query under overload; the
            # final result is partial however much credit comes home.
            ctx.saw_shed = True
        self.termination.on_result(ctx.term_state, dict(msg.term))
        self._check_termination(ctx, report)
        return report

    def _handle_batched_results(self, env: Envelope, msg: BatchedResults) -> StepReport:
        """Ingest a coalesced results frame: each inner batch exactly as
        if it arrived alone, with the fixed receive overhead paid once."""
        report = StepReport()
        for index, batch in enumerate(msg.batches):
            inner = self._handle_result(env, batch)
            report.elapsed += inner.elapsed
            if index > 0:
                # Replace the per-message fixed overhead with the batched
                # per-item marginal for every inner batch after the first.
                report.elapsed += self.costs.batch_item_recv_s - self.costs.result_msg_fixed_s
            report.outgoing.extend(inner.outgoing)
            report.completed.extend(inner.completed)
        return report

    def _handle_control(self, env: Envelope, msg: ControlMessage) -> StepReport:
        report = StepReport(elapsed=self.costs.msg_recv_s)
        ctx = self.contexts.get(msg.qid)
        if ctx is None or ctx.done:
            # Post-deadline ack, or one for a context already retired:
            # the ledger was written off.
            self._late(msg.qid, env.src, report, self._incarnations.get(msg.qid, 1))
            return report
        outs = self.termination.on_control(ctx.term_state, msg.kind, msg.payload, env.src, ctx.busy)
        self._absorb_controls(report, outs, msg.qid)
        if ctx.is_originator:
            self._check_termination(ctx, report)
        return report

    def _seed(self, ctx: QueryContext, source_qid: QueryId) -> None:
        """Admit this site's saved partition of ``source_qid`` (paper §5)."""
        for oid in self.saved_partition(source_qid):
            self._admit(ctx, WorkItem(oid=oid, start=1), self._step_span)

    def _handle_fetch_request(self, env: Envelope, msg: FetchRequest) -> StepReport:
        report = StepReport(elapsed=self.costs.msg_recv_s)
        target = self._route(msg.oid)
        if target != self.site and self.is_site_up(target):
            # Stale hint or migrated object: chase it (naming §4).
            self._emit(report, target, msg)
            self.stats.forwarded_requests += 1
            return report
        self._emit(report, msg.reply_to or env.src, FetchReply(msg.request_id, self._local_object(msg.oid)))
        return report

    def _local_object(self, oid: Oid) -> Any:
        try:
            return self.store.get(oid)
        except ObjectNotFound:
            return None

    def _handle_fetch_reply(self, msg: FetchReply) -> StepReport:
        self.fetch_results[msg.request_id] = msg.obj
        return StepReport(elapsed=self.costs.msg_recv_s)

    def _handle_purge(self, env: Envelope, msg: PurgeContext) -> None:
        """The originator finished ``msg.qid``: free everything held for
        it — even a working set still pending (the deadline fired; more
        results would only arrive late)."""
        self.stats.count_received("PurgeContext", env.size_bytes)
        if self.metrics is not None:
            self.metrics.counter("node.messages_received_total", site=self.site).inc()
        if self.tracer is not None:
            self.tracer.emit(
                self.site, "recv", msg.qid, parent=env.spans[0] if env.spans else None,
                msg="PurgeContext", src=env.src,
            )
        if msg.qid.originator == self.site:
            return
        ctx = self.contexts.get(msg.qid)
        if ctx is not None and ctx.incarnation <= msg.incarnation:
            self._retire_context(msg.qid)
        self._remember_purged(msg.qid, msg.incarnation)

    def _handle_undeliverable(self, env: Envelope, msg: Undeliverable) -> StepReport:
        """A work message we sent bounced off a down site: recover and
        fail over what it carried (see :meth:`_recover`).  The envelope's
        ``tried`` hint carries the holders already attempted across hops."""
        report = StepReport(elapsed=self.costs.msg_recv_s)
        original = msg.original.payload
        if isinstance(original, BatchedQuery):
            items, terms = original.items, original.terms
        else:
            # SeedFromSaved has no item: it never fails over, because the
            # saved partition lives only at the bounced site.
            items, terms = (getattr(original, "item", None),), (original.term,)
        inc = terms[0].get("#inc", 1) if terms else 1
        ctx = self.contexts.get(original.qid)
        if ctx is None or ctx.done or inc != ctx.incarnation:
            # Ledger already written off (or its context retired), or the
            # bounce belongs to a previous run of a reused query id.
            self._late(original.qid, env.src, report, inc)
            return report
        if self._batcher is not None and not isinstance(original, SeedFromSaved):
            # Un-record the items so a re-discovered branch is not
            # suppressed against a site that never processed it.
            self._batcher.forget_sent(original.qid, msg.original.dst, items)
        excl = set(msg.original.tried or ()) | {msg.original.dst}
        self._recover(ctx, items, terms, (None,) * len(items), excl, report)
        self._drain_if_idle(ctx, report)
        if ctx.is_originator:
            self._check_termination(ctx, report)
        return report

    def _recover(
        self, ctx: QueryContext, items: Tuple[Optional[WorkItem], ...], terms: Tuple[Any, ...],
        causes: Tuple[Optional[int], ...], excl: set, report: StepReport,
    ) -> int:
        """Work that never reached its destination: take each item's
        credit back, then fail the item over to a live replica outside
        ``excl``.  Each re-routed send splits *fresh* credit, so recovery
        plus re-split keeps the weighted detector's conservation exact.
        An item with no remaining live replica (or no item: a seed) is
        abandoned, exactly the unreplicated behaviour (partial results,
        clean termination).  Returns the number abandoned."""
        abandoned = 0
        for item, term, cause in zip(items, terms, causes):
            outs = self.termination.on_send_failed(ctx.term_state, dict(term), ctx.busy)
            self._absorb_controls(report, outs, ctx.qid)
            abandoned += self._failover(ctx, item, excl, report, cause=cause)
        return abandoned

    def _failover(
        self,
        ctx: QueryContext,
        item: Optional[WorkItem],
        excl: set,
        report: StepReport,
        cause: Optional[int] = None,
    ) -> bool:
        """Re-route one work item that cannot reach its holder to a
        replica outside ``excl``, or abandon it; True when abandoned.

        A local replica admits the item straight into the working set (no
        message); a remote live holder gets a fresh send — new credit is
        split inside :meth:`_send_work` and the envelope's ``tried`` hint
        carries ``excl`` so a second bounce keeps excluding dead holders
        (no ping-pong between two down sites).  With no un-tried live
        replica (or no item: a seed) the branch is abandoned — autonomy:
        a down site must not hang the query, so its results are partial.
        """
        alt = None
        if item is not None and self.replicas is not None:
            alt = self._holder(self.replicas.sites_of(item.oid), excl)
        if alt is None:
            self.stats.failed_sends += 1
            ctx.abandoned += 1
            return True
        self.stats.replica_failovers += 1
        if alt == self.site:
            self.stats.replica_local_serves += 1
            self._admit(ctx, item, cause if cause is not None else self._step_span)
            self._drain_order.add(ctx)
        else:
            self._send_work(ctx, alt, item, report, cause=cause, tried=tuple(sorted(excl)))
        return False

    # ------------------------------------------------------------------
    # object processing
    # ------------------------------------------------------------------

    def _process_one(self, ctx: QueryContext) -> StepReport:
        report = StepReport()
        outcome = ctx.execution.step()
        self._pending += outcome.local_spawned - 1
        idle = not ctx.busy
        if idle:
            self._busy -= 1
        if self.tracer is not None:
            # Parent on the step that admitted this exact item; fall back
            # to the context's root span (duplicate admissions overwrite
            # the per-item entry) so the tree stays connected regardless.
            cause = self._item_spans.pop((ctx.qid, item_key(outcome.item)), None)
            if cause is None:
                cause = ctx.root_span
            if outcome.admitted and not outcome.missing:
                self._step_span = self.tracer.emit(
                    self.site, "process", ctx.qid, parent=cause,
                    oid=str(outcome.item.oid), start=outcome.item.start,
                    passed=outcome.into_result, remote=len(outcome.remote),
                )
                if self._step_span is not None:
                    for spawned in outcome.local_items:
                        self._item_spans[(ctx.qid, item_key(spawned))] = self._step_span
            else:
                if not outcome.admitted:
                    self.tracer.emit(
                        self.site, "skip", ctx.qid, parent=cause, oid=str(outcome.item.oid)
                    )
                self._step_span = cause
        if not outcome.admitted:
            report.elapsed += self.costs.mark_check_s
            self.stats.marked_skips += 1
        elif outcome.missing:
            report.elapsed += self.costs.mark_check_s
        else:
            if outcome.from_cache:
                # Replayed from the fragment cache: no filter evaluation,
                # no store read — just the (much cheaper) replay.
                report.elapsed += self.costs.cache_hit_s
            else:
                report.elapsed += self.costs.object_process_s
            self.stats.objects_processed += 1
            if outcome.into_result:
                report.elapsed += self.costs.result_insert_s
        for dst, item in outcome.remote:
            self._send_work(ctx, dst, item, report)
        # Only a failover of a remote item can re-admit work here.
        if idle and not (outcome.remote and ctx.busy):
            self._drain(ctx, report)
        return report

    # ------------------------------------------------------------------
    # drains, sends, termination
    # ------------------------------------------------------------------

    def _send_work(
        self,
        ctx: QueryContext,
        dst: str,
        item: WorkItem,
        report: StepReport,
        cause: Optional[int] = None,
        tried: Tuple[str, ...] = (),
    ) -> None:
        if not self.is_site_up(dst):
            # Replication first: another live holder can still serve the
            # dereference (read anycast), so try that before abandoning.
            # No detector state was split off, so termination stays exact.
            self._failover(ctx, item, {*tried, dst}, report, cause=cause)
            return
        if cause is None:
            cause = self._step_span
        if (
            self._cache is not None
            and not (self.replicas is not None and self.replicas.holds(dst, item.oid))
            and self._cache.suppresses(ctx.qid, dst, item)
        ):
            # Bloom pruning, *before* any credit is split: the summary
            # proves the message could not produce marks, results, or
            # spawns at the far end, so dropping it is indistinguishable
            # (to the detector) from a mark-table skip.  The replica
            # directory overrides the summary: a directory-listed holder
            # *does* store the object (writes fan out synchronously and
            # bump the version), so suppression's premise — "dst cannot
            # know this object" — is refuted and the send must go out.
            self.stats.sends_suppressed_bloom += 1
            return
        batcher = self._batcher
        if batcher is None:
            attach = self.termination.on_send_work(ctx.term_state)
            self._emit(
                report, dst,
                DerefRequest(ctx.qid, ctx.execution.program, item, self._stamp_inc(ctx, attach)),
                cause=cause, tried=tried,
            )
            return
        # Dedup before splitting credit: a suppressed send is then
        # indistinguishable (to the detector) from a mark-table skip.
        mark_key = ctx.execution.mark_table.key_for(item.start, item.iters)
        if batcher.already_sent(ctx.qid, dst, item) or batcher.known_marked(
            ctx.qid, dst, item.oid.key(), mark_key
        ):
            self.stats.sends_suppressed += 1
            return
        attach = self.termination.on_send_work(ctx.term_state)
        batcher.record_sent(ctx.qid, dst, item)
        pending = batcher.enqueue_work(
            ctx.qid, dst, item, self._stamp_inc(ctx, attach), self.now_fn(),
            span=cause, tried=tried,
        )
        threshold = (
            self.batching.max_batch if self.qos is None else self.qos.size_threshold(dst, pending)
        )
        if pending >= threshold:
            self._flush_work(ctx.qid, dst, report, "size")

    def _flush_work(self, qid: QueryId, dst: str, report: StepReport, reason: str) -> int:
        """Flush one (query, destination) send queue into a frame.

        Returns the number of items whose credit had to be *recovered*
        instead of sent (destination down at flush time); callers that may
        be the last event before idleness use it to re-run drain logic so
        recovered credit still reaches the originator.
        """
        batcher = self._batcher
        assert batcher is not None
        items, terms, spans, tried = batcher.take_work(qid, dst)
        if not items:
            return 0
        ctx = self.contexts.get(qid)
        if ctx is None or ctx.done:
            # The deadline (or a purge) raced the queue; the ledger was
            # already written off, so the items are simply dropped.
            self.stats.late_messages += len(items)
            return 0
        if not self.is_site_up(dst):
            # The destination went down between enqueue and flush: exactly
            # the undeliverable path, without the bounce.
            batcher.forget_sent(qid, dst, items)
            return self._recover(ctx, items, terms, spans, {*tried, dst}, report)
        self._count_flush(reason)
        if len(items) == 1:
            # No coalescing happened; ship the plain single-item form.
            # Mark hints are piggyback-only — they never upgrade a lone
            # item into the (more expensive) batched frame, so workloads
            # with nothing to coalesce keep the unbatched cost exactly.
            self._emit(
                report, dst,
                DerefRequest(qid, ctx.execution.program, items[0], dict(terms[0])),
                cause=spans[0], tried=tried,
            )
            return 0
        hints = batcher.take_hints(qid, dst, ctx.execution.mark_table)
        self.stats.batched_items += len(items)
        self._emit(
            report, dst,
            BatchedQuery(qid, ctx.execution.program, items, terms, hints),
            cause=self._flush_span(qid, dst, spans, hints=len(hints), reason=reason),
            item_causes=spans, tried=tried,
        )
        return 0

    def _count_flush(self, reason: str) -> None:
        counter = "batch_flushes_" + reason
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _flush_span(self, qid: QueryId, dst: str, spans: Any, **detail: Any) -> Optional[int]:
        """Account one coalesced frame of ``len(spans)`` entries; returns
        the span its send descends from.  The flush descends from the
        first traced entry in the queue, and the per-entry causes ride the
        envelope for the receiver to fan."""
        if self.metrics is not None:
            self.metrics.histogram("batching.batch_size_items").observe(len(spans))
        if self.tracer is None:
            return None
        first_cause = next((s for s in spans if s is not None), None)
        return self.tracer.emit(
            self.site, "batch_flush", qid, parent=first_cause, dst=dst, items=len(spans), **detail
        )

    def _flush_pending(self, keys: List[Tuple[QueryId, str]], report: StepReport, reason: str) -> None:
        """Flush a set of work queues (idle/timer paths), then re-run the
        drain logic for any query whose credit was recovered from a down
        destination — it must not sit at a passive site."""
        by_qid: Dict[QueryId, List[str]] = {}
        for qid, dst in keys:
            by_qid.setdefault(qid, []).append(dst)
        for qid, dsts in by_qid.items():
            recovered = 0
            for dst in dsts:
                recovered += self._flush_work(qid, dst, report, reason)
            ctx = self.contexts.get(qid)
            if recovered and ctx is not None and not ctx.done:
                self._drain_if_idle(ctx, report)
                if ctx.is_originator:
                    self._check_termination(ctx, report)

    def _flush_results(self, dsts: List[str], report: StepReport, reason: str) -> None:
        batcher = self._batcher
        assert batcher is not None
        for dst in dsts:
            batches, spans = batcher.take_results(dst)
            if not batches:
                continue
            self._count_flush(reason)
            if len(batches) == 1:
                self._emit(report, dst, batches[0], cause=spans[0])
                continue
            self._emit(
                report, dst, BatchedResults(batches),
                cause=self._flush_span(batches[0].qid, dst, spans, reason=reason, results=True),
                item_causes=spans,
            )

    def _emit_result(
        self, report: StepReport, dst: str, batch: ResultBatch, cause: Optional[int] = None
    ) -> None:
        """Ship (or, with a linger window, queue) one outbound ResultBatch."""
        if cause is None:
            cause = self._step_span
        batcher = self._batcher
        if (
            batcher is None
            or not self.batching.coalesce_results
            or self.batching.linger_s is None
            or not self.is_site_up(dst)
        ):
            self._emit(report, dst, batch, cause=cause)
            return
        pending = batcher.enqueue_result(dst, batch, self.now_fn(), span=cause)
        if pending >= self.batching.max_batch:
            self._flush_results([dst], report, "size")

    def _drain_if_idle(self, ctx: QueryContext, report: StepReport) -> None:
        if not ctx.busy:
            self._drain(ctx, report)

    def _drain(self, ctx: QueryContext, report: StepReport) -> None:
        """This site's working set for ``ctx`` just emptied."""
        if self._batcher is not None:
            # Liveness: queued work carries credit; when this query's
            # working set drains here, everything pending for it must go.
            for dst in self._batcher.work_destinations(ctx.qid):
                self._flush_work(ctx.qid, dst, report, "drain")
        if ctx.is_originator:
            self._merge_local_results(ctx)
            self.termination.on_originator_drain(ctx.term_state)
            assert ctx.final is not None
            results = len(ctx.final.oids)
        else:
            oids, emissions = ctx.take_unflushed()
            attach, controls = self.termination.on_drain(ctx.term_state)
            term = self._stamp_inc(ctx, attach)
            if ctx.shed_pending:
                # Ride the shed count home on the drain's term attachment
                # (the detector ignores keys it does not know, the codec
                # carries them verbatim); the originator flips `partial`.
                term["#shed"] = ctx.shed_pending
                ctx.shed_pending = 0
            results = len(oids)
        ctx.drains += 1
        self.stats.drains += 1
        drain_span: Optional[int] = None
        if self.tracer is not None:
            parent = self._step_span if self._step_span is not None else ctx.root_span
            drain_span = self.tracer.emit(self.site, "drain", ctx.qid, parent=parent, results=results)
        if ctx.is_originator:
            self._check_termination(ctx, report)
            return
        summary = None
        if self._cache is not None:
            summary = self._cache.summary_to_attach(
                ctx.qid.originator, self.store, self.forwarding
            )
        # Count mode (§5's distributed set) keeps the oids here and ships
        # only how many there are.
        count_only = self.result_mode == "count"
        batch = ResultBatch(
            ctx.qid, oids=() if count_only else oids, emissions=emissions,
            count_only=count_only, count=len(oids) if count_only else 0, term=term, summary=summary,
        )
        self._emit_result(report, ctx.qid.originator, batch, cause=drain_span)
        self._absorb_controls(report, controls, ctx.qid)

    def _merge_local_results(self, ctx: QueryContext) -> None:
        assert ctx.final is not None
        oids, emissions = ctx.take_unflushed()
        if self.result_mode == "count" and oids:
            ctx.partition_counts[self.site] = ctx.partition_counts.get(self.site, 0) + len(oids)
        else:
            for oid in oids:
                ctx.final.oids.add(oid)
        for target, value in emissions:
            ctx.final.retrieved.setdefault(target, []).append(value)
        if ctx.first_result_at is None and (oids or emissions):
            ctx.first_result_at = self.now_fn()

    def _check_termination(self, ctx: QueryContext, report: StepReport) -> None:
        if ctx.done or not ctx.is_originator:
            return
        if self.termination.is_terminated(ctx.term_state, ctx.busy):
            ctx.done = True
            assert ctx.final is not None
            if ctx.saw_shed:
                # Work was shed under overload: every split credit still
                # came home (the detector fired normally), but branches
                # were dropped — the answer is partial, and must say so
                # before the cache-eligibility check at retirement sees it.
                ctx.final.partial = True
                ctx.final.partial_reason = "shed"
            if self.tracer is not None:
                parent = self._step_span if self._step_span is not None else ctx.root_span
                self.tracer.emit(
                    self.site, "complete", ctx.qid, parent=parent,
                    results=len(ctx.final.oids),
                )
            self._finish(ctx, report)

    def _stamp_slo(self, ctx: QueryContext) -> None:
        """Record the query's SLO watermarks at its (possibly partial)
        completion: submit→first-result and submit→complete, as
        per-tenant/per-priority histograms plus one ``slo`` trace event.
        Both sinks are optional and guarded, so the untraced unmetered
        path costs nothing beyond two ``is None`` checks."""
        if ctx.submitted_at is None or (self.metrics is None and self.tracer is None):
            return
        now = self.now_fn()
        complete_s = now - ctx.submitted_at
        if ctx.first_result_at is not None:
            first_result_s = ctx.first_result_at - ctx.submitted_at
        else:
            # No result ever landed (empty answer or total loss): the
            # first-result watermark degenerates to the completion one.
            first_result_s = complete_s
        if self.metrics is not None:
            from ..metrics.registry import SLO_BUCKETS

            labels = {"tenant": ctx.tenant, "priority": ctx.priority}
            self.metrics.histogram(
                "slo.first_result_s", buckets=SLO_BUCKETS, **labels
            ).observe(first_result_s)
            self.metrics.histogram(
                "slo.complete_s", buckets=SLO_BUCKETS, **labels
            ).observe(complete_s)
        if self.tracer is not None:
            self.tracer.emit(
                self.site, "slo", ctx.qid, parent=ctx.root_span,
                first_result_s=round(first_result_s, 9),
                complete_s=round(complete_s, 9),
                tenant=ctx.tenant, priority=ctx.priority,
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _ensure_context(self, qid: QueryId, program: Program) -> QueryContext:
        ctx = self.contexts.get(qid)
        if ctx is not None:
            return ctx
        is_originator = qid.originator == self.site
        execution = QueryExecution(
            program,
            self.store.get,
            site=self.site,
            locate=self._route,
            discipline=self.discipline,
            mark_granularity=self.mark_granularity,
        )
        if self._batcher is not None and self.batching.mark_hints:
            execution.mark_table.enable_journal()
        if self._cache is not None:
            self._cache.open_context(qid, program, execution, lambda: self.store.epoch)
        if self.tracer is not None:
            # Every outcome of this context descends (at worst) from the
            # event that created it — the submit here, the recv elsewhere —
            # which keeps the span tree connected even when a tighter
            # per-item cause was lost to a duplicate admission.
            execution.collect_spawns = True
        ctx = QueryContext(
            qid=qid,
            execution=execution,
            is_originator=is_originator,
            term_state=self.termination.new_state(self.site, is_originator),
            final=QueryResult() if is_originator else None,
            root_span=self._step_span,
            incarnation=self._incarnations.get(qid, 1),
        )
        self.contexts[qid] = ctx
        self.stats.contexts_created += 1
        return ctx

    def _context_for_work(
        self, qid: QueryId, program: Program, term: Any
    ) -> Optional[QueryContext]:
        """Resolve the context a work/seed message belongs to, or None if
        the message is stale and the caller must drop it.

        Work messages stamp the originator's context *incarnation* (only
        when a query id was reused — the common case carries no stamp and
        defaults to 1).  A newer incarnation retires whatever stale state
        the previous run left here; an older one, a finished run, or a run
        this site was told to purge means the message itself is stale,
        exactly like work arriving after a deadline (its credit was
        already written off).
        """
        inc = term.get("#inc", 1) if hasattr(term, "get") else 1
        ctx = self.contexts.get(qid)
        if ctx is not None and inc > ctx.incarnation:
            self._retire_context(qid)
            ctx = None
        if ctx is None:
            if qid.originator == self.site:
                # Our own query, and its context (created at submit,
                # before any work could come back) is gone: a straggler
                # for a run already retired.
                return None
            if (qid, inc) in self._purged:
                # A straggler of a purged run: re-creating its context
                # would walk the run again from an empty mark table.
                return None
            if inc > self._incarnations.get(qid, 1):
                # First contact from a rerun: the fresh context must take
                # the message's incarnation, or the results it drains
                # back would be stamped with the old one and dropped as
                # stale by the originator.
                self._incarnations[qid] = inc
            ctx = self._ensure_context(qid, program)
        if inc < ctx.incarnation or ctx.done:
            return None
        return ctx

    def _retire_context(self, qid: QueryId) -> None:
        """Drop every trace of a finished/stale run of ``qid``.

        Only safe once the run's termination ledger is settled (the
        originator completed or expired it): queued sends and marks from
        the old run must not leak into a new run under the same id.
        """
        ctx = self.contexts.pop(qid, None)
        if ctx is not None:
            self._abandon(ctx)
            self.stats.contexts_retired += 1
        self._recent.pop(qid, None)
        self._drain_order.remove(qid)
        self._drop_sends(qid)
        if self._cache is not None:
            self._cache.drop_query(qid)

    def _drop_sends(self, qid: QueryId) -> None:
        """Forget ``qid``'s queued sends and per-item trace causes."""
        if self._batcher is not None:
            self._batcher.drop_query(qid)
        if self._item_spans:
            for key in [k for k in self._item_spans if k[0] == qid]:
                del self._item_spans[key]

    def _finish(self, ctx: QueryContext, report: StepReport) -> None:
        """Originator side, once a query completed or expired: report the
        completion, then the query leaves the rotation and enters the
        recently-finished window; whatever falls out of the window is
        retired for good.

        The sites' contexts go with their results.  In ship mode those
        already left, so participants are purged now; in count mode the
        retained partitions *are* the distributed set follow-ups seed
        from, so they live until the window evicts the query.
        """
        assert ctx.final is not None
        self._stamp_slo(ctx)
        # Per-site execution counters are aggregated by the cluster at
        # completion (it can reach every context); merging here would
        # double-count the originator's own.
        report.completed.append((ctx.qid, ctx.final))
        if self.on_query_complete is not None:
            self.on_query_complete(ctx.qid, ctx.final)
        self._drain_order.remove(ctx.qid)
        if self._cache is not None:
            self._cache.finish(ctx, self.store.epoch)
        self._recent[ctx.qid] = None
        if self.result_mode == "ship":
            self._purge_participants(ctx, report)
        while len(self._recent) > RECENT_QUERIES:
            old = self.contexts[next(iter(self._recent))]
            if self.result_mode == "count":
                self._purge_participants(old, report)
            self._retire_context(old.qid)

    def _purge_participants(self, ctx: QueryContext, report: StepReport) -> None:
        if ctx.participants:
            self._remember_purged(ctx.qid, ctx.incarnation)
        for participant in sorted(ctx.participants):
            self._send_purge(report, participant, ctx.qid, ctx.incarnation)

    def _remember_purged(self, qid: QueryId, incarnation: int) -> None:
        self._purged[(qid, incarnation)] = None
        if len(self._purged) > PURGED_RUNS:
            self._purged.popitem(last=False)

    def _send_purge(self, report: StepReport, dst: str, qid: QueryId, incarnation: int) -> None:
        """Best-effort, and free: no virtual CPU is charged (retirement
        is housekeeping, not part of any query's response time) and a
        down destination simply keeps its stale context."""
        if dst == self.site or not self.is_site_up(dst):
            return
        payload = PurgeContext(qid, incarnation)
        spans = None
        if self.tracer is not None:
            span = self.tracer.emit(
                self.site, "send", qid, parent=self._step_span,
                msg="PurgeContext", dst=dst, bytes=payload.wire_size(),
            )
            spans = (span,) if span is not None else None
        env = Envelope(self.site, dst, payload, spans=spans)
        self.stats.count_sent("PurgeContext", env.size_bytes)
        if self.metrics is not None:
            self.metrics.counter("node.messages_sent_total", site=self.site).inc()
            self.metrics.counter("node.bytes_sent_total", site=self.site).inc(env.size_bytes)
        report.outgoing.append(env)

    def _late(self, qid: QueryId, src: str, report: StepReport, incarnation: int) -> None:
        """Account traffic for a run this site no longer tracks.  If the
        query is ours the sender still holds a context for it (perhaps
        one a straggler resurrected after the purge): tell it to let go."""
        self.stats.late_messages += 1
        if qid.originator == self.site:
            self._send_purge(report, src, qid, incarnation)

    def _admit(self, ctx: QueryContext, item: WorkItem, cause: Optional[int]) -> None:
        """Put ``item`` in this site's working set; ``cause`` is the span
        its eventual process/skip event parents on (None untraced)."""
        if not ctx.busy:
            self._busy += 1
        ctx.execution.admit(item)
        self._pending += 1
        if cause is not None:
            self._item_spans[(ctx.qid, item_key(item))] = cause

    def _abandon(self, ctx: QueryContext) -> int:
        """Discard a context's pending work; returns the items dropped."""
        dropped = ctx.execution.abandon()
        if dropped:
            self._busy -= 1
            self._pending -= dropped
        return dropped

    def _prepare_resubmit(self, qid: QueryId) -> None:
        """Originator side: make a reused query id safe to run again.

        Resubmitting an id still in flight is a client error.  Reusing a
        finished (typically deadline-expired) id retires the old context
        and bumps the incarnation so the new run's messages are
        distinguishable from the old run's stragglers.
        """
        ctx = self.contexts.get(qid)
        inc = self._incarnations.get(qid, 1)
        if ctx is not None:
            if not ctx.done:
                raise HyperFileError(f"query {qid} resubmitted while still in flight")
            inc = ctx.incarnation + 1
            self._retire_context(qid)
        # An id whose context is gone may still have runs purged at its
        # participants, which drop their work: skip those incarnations.
        while (qid, inc) in self._purged:
            inc += 1
        if inc > 1:
            self._incarnations[qid] = inc

    def _stamp_inc(self, ctx: QueryContext, attach: Dict[str, Any]) -> Dict[str, Any]:
        """Copy a termination attachment, stamping the context incarnation.

        First incarnations (every query whose id is never reused) are not
        stamped, so their wire frames are byte-identical to before.
        """
        term = dict(attach)
        if ctx.incarnation > 1:
            term["#inc"] = ctx.incarnation
        return term

    def _emit(
        self,
        report: StepReport,
        dst: str,
        payload: Any,
        cause: Optional[int] = None,
        item_causes: Optional[Tuple[Optional[int], ...]] = None,
        tried: Tuple[str, ...] = (),
    ) -> None:
        if not self.is_site_up(dst):
            self.stats.failed_sends += 1
            return
        env_spans: Optional[Tuple[int, ...]] = None
        if self.tracer is not None:
            wire = getattr(payload, "wire_size", None)
            detail: Dict[str, Any] = {
                "msg": type(payload).__name__, "dst": dst,
                "bytes": wire() if callable(wire) else 64,
            }
            credit = _credit_detail(payload)
            if credit is not None:
                detail["credit"] = credit
            parent = cause if cause is not None else self._step_span
            send_span = self.tracer.emit(
                self.site, "send", getattr(payload, "qid", ""), parent=parent, **detail
            )
            if send_span is not None:
                # spans[0]: this send (the receiver's recv parents on it);
                # spans[1:]: per-item causes for batched frames (0 = none).
                if item_causes:
                    env_spans = (send_span, *(s or 0 for s in item_causes))
                else:
                    env_spans = (send_span,)
        priority, pressure = (None, None) if self.qos is None else self.qos.stamp(payload)
        env = Envelope(
            self.site, dst, payload, spans=env_spans,
            src_epoch=self.store.epoch if self._cache is not None else None,
            tried=tuple(tried) if tried else None,
            priority=priority, pressure=pressure,
        )
        self.stats.count_sent(type(payload).__name__, env.size_bytes)
        if self.metrics is not None:
            self.metrics.counter("node.messages_sent_total", site=self.site).inc()
            self.metrics.counter("node.bytes_sent_total", site=self.site).inc(env.size_bytes)
        report.elapsed += self.costs.msg_send_s
        if isinstance(payload, BatchedQuery):
            # One header, per-item marginal: the calibrated batched cost.
            report.elapsed += self.costs.batch_item_send_s * (len(payload.items) - 1)
        elif isinstance(payload, BatchedResults):
            report.elapsed += self.costs.batch_item_send_s * (len(payload.batches) - 1)
        report.outgoing.append(env)

    def _absorb_controls(self, report: StepReport, outs, qid: QueryId) -> None:
        for dst, kind, payload in outs:
            self._emit(report, dst, ControlMessage(qid, kind, payload))
