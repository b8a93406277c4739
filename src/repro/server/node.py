"""A HyperFile server site (paper §3.2).

"All sites run an identical algorithm."  A :class:`ServerNode` owns one
site's object store and a table of query contexts, and exposes a
step-driven interface so different drivers can run it:

* the **simulated cluster** (:mod:`repro.net.simnet`) calls :meth:`step`
  from discrete events and converts the reported costs into virtual time;
* the **threaded cluster** (:mod:`repro.net.threaded`) calls it from a
  real worker thread;
* tests call it directly.

Each step does exactly one unit of work — ingest one message or push one
object through the filters — and reports its cost (per the
:class:`~repro.sim.costs.CostModel`) plus any outgoing envelopes.  The
node never blocks: remote dereferences become messages ("send the query,
not the data") and the site keeps processing whatever else is in its
working sets, which is where the algorithm's parallelism comes from.

Naming (§4) is folded into :meth:`locate`: try the local store, then the
site's forwarding table (objects that migrated away), then fall back to
the id's presumed site or birth site.  A :class:`DerefRequest` that
arrives for an object that moved is re-forwarded rather than failed.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..cache import CacheConfig, NodeCache, closure_pointer_key
from ..core.oid import Oid
from ..core.program import Program
from ..engine.items import WorkItem
from ..engine.local import QueryExecution
from ..engine.results import QueryResult
from ..errors import HyperFileError, ObjectNotFound, ResultSetRetired
from ..metrics.registry import SLO_BUCKETS
from ..naming.directory import ForwardingTable, ReplicaDirectory
from ..net.batching import BatchConfig, ItemKey, SendBatcher, item_key
from ..qos import PRIORITIES, QoSConfig
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
from .context import RECENT_QUERIES, QueryContext
from .stats import NodeStats

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
        self.caching = caching
        self.replicas = replicas
        #: Clock for batch linger aging; real transports point this at
        #: ``time.monotonic`` (the simulator relies on drain/idle flushes).
        self.now_fn: Callable[[], float] = lambda: 0.0
        #: Every context this site holds: the queries it is running plus,
        #: at their originator, the last RECENT_QUERIES finished ones.  No
        #: per-step path iterates it (see ``_busy`` / ``_pending`` / ``_rr``).
        self.contexts: Dict[QueryId, QueryContext] = {}
        #: Originator side: finished queries still held, oldest first.
        self._recent: "OrderedDict[QueryId, None]" = OrderedDict()
        #: Contexts with a non-empty working set, and work items pending
        #: across all of them — maintained where working sets change, so
        #: ``has_work`` / ``work_depth`` never scan the context table.
        self._busy = 0
        self._pending = 0
        self.inbox: Deque[Envelope] = deque()
        self.stats = NodeStats()
        self._cache = (
            NodeCache(site, caching, self.stats)
            if caching is not None and caching.enabled
            else None
        )
        #: Closure-shape pointer key per query (None for non-closure
        #: programs); drives Bloom rule-B suppression.  Caching only.
        self._closure_keys: Dict[QueryId, Optional[str]] = {}
        #: Originator side: current incarnation per reused query id (a
        #: qid resubmitted after deadline expiry).  Absent = 1, the
        #: common case, which never stamps the wire.
        self._incarnations: Dict[QueryId, int] = {}
        self._rr: Deque[QueryId] = deque()  # round-robin order over busy contexts
        self.qos = qos
        #: QoS: sites whose last envelope signalled high-watermark pressure.
        self._pressured: set = set()
        #: QoS: this site's own pressure state (1 = above high watermark,
        #: 0 = clear), with hysteresis between the two watermarks.
        self._pressure_state = 0
        if qos is not None:
            #: Per-class round-robin queues for weighted-fair drain.
            self._rr_class: Dict[str, Deque[QueryId]] = {p: deque() for p in PRIORITIES}
            #: Remaining drain turns per class in the current WFQ round.
            self._wfq_credits: Dict[str, int] = {
                "interactive": qos.interactive_weight, "batch": qos.batch_weight,
            }
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

    def _route(self, oid: Oid, exclude: Tuple[str, ...] = ()) -> str:
        """Replica-aware :meth:`locate`: where should this dereference go?

        Read anycast — any live holder may serve the request.  Preference
        order: this site if it holds a replica (no message at all), then
        the first *live* holder in placement order.  Objects absent from
        the replica directory (and every ``k=1`` deployment, whose
        directory is empty) fall back to the paper's naming chain, so the
        replica-free build routes bit-identically to before.

        ``exclude`` lists holders already attempted (failover); if every
        holder is excluded or down, the placement primary is returned and
        the caller's normal down-site accounting abandons the branch.
        """
        if self.replicas is None:
            return self.locate(oid)
        sites = self.replicas.sites_of(oid)
        if not sites:
            return self.locate(oid)
        if self.site in sites and self.site not in exclude:
            return self.site
        for site in sites:
            if site not in exclude and self.is_site_up(site) and self._takes_work(site):
                return site
        return sites[0]

    def _takes_work(self, site: str) -> bool:
        """May new work be sent to ``site``?  Leaving/departed members
        finish what they hold but receive nothing new."""
        return self.membership_status(site) == "up"

    def _next_replica(self, oid: Oid, exclude: set) -> Optional[str]:
        """The next live holder to fail a bounced dereference over to.

        Returns this site when it holds a replica itself (serve locally,
        no message), another live holder otherwise, or ``None`` when no
        un-tried live replica remains — the branch is then abandoned with
        partial results, exactly like the unreplicated bounce path.
        """
        if self.replicas is None:
            return None
        sites = self.replicas.sites_of(oid)
        if not sites:
            return None
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
        if qid.originator != self.site:
            raise HyperFileError(f"query {qid} submitted at non-originating site {self.site}")
        self._prepare_resubmit(qid)
        report = StepReport()
        if self.tracer is not None:
            self._step_span = self.tracer.emit(self.site, "submit", qid, filters=program.size)
        initial = list(initial)
        ctx = self._ensure_context(qid, program)
        if self.qos is not None:
            ctx.priority = priority if priority is not None else self.qos.default_priority
        # SLO watermarks: stamped from the node clock (virtual on sim,
        # monotonic on the wall-clock transports) so submit→first-result
        # and submit→complete are measured where completion is decided.
        ctx.submitted_at = self.now_fn()
        if tenant is not None:
            ctx.tenant = tenant
        self.termination.on_start(ctx.term_state)
        if (
            self._cache is not None
            and self._cache.config.query_cache
            and self.result_mode == "ship"
        ):
            key = self._cache.query_key(
                program, tuple(WorkItem(oid=oid, start=1) for oid in initial)
            )
            hit = self._cache.lookup_query(key, self.store.epoch)
            if hit is not None:
                # Serve the whole answer from cache: write the ledger off
                # (no work was split) and complete through the normal
                # termination path so traces/callbacks look identical.
                self.termination.on_deadline(ctx.term_state)
                report.elapsed += self.costs.cache_hit_s
                assert ctx.final is not None
                for oid in hit.oids:
                    ctx.final.oids.add(oid)
                for target, value in hit.retrieved:
                    ctx.final.retrieved.setdefault(target, []).append(value)
                self._check_termination(ctx, report)
                return report
            ctx.cache_key = key
            ctx.cache_epoch = self.store.epoch
            self._cache.begin_query(qid)
        for oid in initial:
            target = self._route(oid)
            if target == self.site:
                item = WorkItem(oid=oid, start=1)
                self._admit(ctx, item)
                if self._step_span is not None:
                    self._item_spans[(qid, item_key(item))] = self._step_span
            else:
                self._send_work(ctx, target, WorkItem(oid=oid, start=1), report)
        self._enqueue_rr(qid)
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
        if qid.originator != self.site:
            raise HyperFileError(f"query {qid} submitted at non-originating site {self.site}")
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
        self._prepare_resubmit(qid)
        report = StepReport()
        if self.tracer is not None:
            self._step_span = self.tracer.emit(
                self.site, "submit", qid, filters=program.size, followup=str(source_qid)
            )
        ctx = self._ensure_context(qid, program)
        self.termination.on_start(ctx.term_state)
        for site in sites:
            if site == self.site:
                for oid in self.saved_partition(source_qid):
                    item = WorkItem(oid=oid, start=1)
                    self._admit(ctx, item)
                    if self._step_span is not None:
                        self._item_spans[(qid, item_key(item))] = self._step_span
            else:
                attach = self.termination.on_send_work(ctx.term_state)
                self._emit(
                    report, site,
                    SeedFromSaved(qid, program, source_qid, self._stamp_inc(ctx, attach)),
                )
        self._enqueue_rr(qid)
        self._drain_if_idle(ctx, report)
        return report

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
            try:
                self.fetch_results[request_id] = self.store.get(oid)
            except ObjectNotFound:
                self.fetch_results[request_id] = None
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
        if self._item_spans:
            self._drop_item_spans(qid)
        if self._batcher is not None:
            # Pending queued sends carried credit, but on_deadline just
            # wrote the whole ledger off — dropping them is consistent.
            self._batcher.drop_query(qid)
        if self._cache is not None:
            # A partial answer must never be served from cache.
            self._cache.drop_query(qid)
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
        self._stamp_slo(ctx)
        report.completed.append((qid, ctx.final))
        if self.on_query_complete is not None:
            self.on_query_complete(qid, ctx.final)
        self._retire_finished(ctx, report)
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

    def observe_epoch(self, site: str, epoch: int) -> None:
        """Out-of-band cache invalidation: ``site``'s store epoch moved
        without an envelope from it (replication write fan-out).  Stale
        summaries for the site are dropped immediately, so a replica
        mutated elsewhere can never satisfy rule-B suppression here.
        No-op when caching is off."""
        if self._cache is not None:
            self._cache.observe_epoch(site, epoch)

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
        for qid, ctx in self.contexts.items():
            if ctx.busy:
                self._busy += 1
                self._pending += ctx.execution.pending
                self._enqueue_rr(qid)

    @property
    def work_depth(self) -> int:
        """This site's work-queue depth: unhandled messages plus pending
        work items across every context.  The quantity the QoS watermarks
        (backpressure and shedding) are compared against."""
        return len(self.inbox) + self._pending

    # ------------------------------------------------------------------
    # QoS: backpressure, shedding, weighted-fair drain (see docs/QOS.md)
    # ------------------------------------------------------------------

    def _qos_refresh_pressure(self) -> None:
        """Re-evaluate this site's backpressure state with hysteresis."""
        qos = self.qos
        if qos is None or qos.high_watermark is None:
            return
        depth = self.work_depth
        if self._pressure_state == 0 and depth >= qos.high_watermark:
            self._pressure_state = 1
            self.stats.backpressure_transitions += 1
            if self.metrics is not None:
                self.metrics.counter("qos.backpressure_transitions_total", site=self.site).inc()
        elif self._pressure_state == 1 and depth <= qos.low_watermark:
            self._pressure_state = 0

    def _qos_should_shed(self, ctx: QueryContext) -> bool:
        """Shed this arriving remote work item instead of admitting it?

        Only batch-class work is shed (unless ``shed_interactive`` is
        set), and only while the local work queue sits at or above the
        shed watermark.  Seeds installed by a local submit are never
        shed — admission control (the token bucket) governs those.
        """
        qos = self.qos
        if qos is None or qos.shed_watermark is None:
            return False
        if ctx.priority != "batch" and not qos.shed_interactive:
            return False
        return self.work_depth >= qos.shed_watermark

    def _qos_shed(self, ctx: QueryContext) -> None:
        """Account one shed work item (its credit was already absorbed)."""
        self.stats.work_shed += 1
        if self.metrics is not None:
            self.metrics.counter("qos.work_shed_total", site=self.site).inc()
        if self.tracer is not None:
            self.tracer.emit(self.site, "shed", ctx.qid, parent=self._step_span)
        if ctx.is_originator:
            ctx.saw_shed = True
        else:
            ctx.shed_pending += 1

    def _qos_adopt_priority(self, ctx: QueryContext, env: Envelope) -> None:
        """Adopt the service class a work envelope carries for its query."""
        if self.qos is not None and env.priority is not None:
            ctx.priority = env.priority

    def step(self) -> StepReport:
        """Do one unit of work: handle one message, or process one object."""
        if self.inbox:
            return self._handle_message(self.inbox.popleft())
        ctx = self._next_busy_context()
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
        if self._cache is not None and env.src_epoch is not None:
            # Every envelope piggybacks its sender's store epoch; a newer
            # one invalidates any summary held for that site.
            self._cache.observe_epoch(env.src, env.src_epoch)
            qid = getattr(payload, "qid", None)
            if qid is not None and not isinstance(qid, str):
                # A query-bearing envelope is also a same-query freshness
                # witness: suppression toward env.src is allowed for this
                # query only against a summary at exactly this epoch.
                self._cache.confirm_epoch(qid, env.src, env.src_epoch)
        self.stats.count_received(type(payload).__name__, env.size_bytes)
        if self.metrics is not None:
            self.metrics.counter("node.messages_received_total", site=self.site).inc()
            self.metrics.gauge("node.inbox_depth", site=self.site).set(len(self.inbox))
        if self.qos is not None:
            if env.pressure is not None:
                # The sender's backpressure state piggybacks on every
                # envelope; track it so our sends toward that site throttle.
                if env.pressure:
                    self._pressured.add(env.src)
                else:
                    self._pressured.discard(env.src)
            self._qos_refresh_pressure()
            if self.metrics is not None:
                self.metrics.gauge("qos.queue_depth", site=self.site).set(self.work_depth)
                self.metrics.gauge("qos.send_queue_depth", site=self.site).set(
                    self._batcher.total_queued if self._batcher is not None else 0
                )
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
            return self._handle_deref(env, payload)
        if isinstance(payload, BatchedQuery):
            return self._handle_batched_query(env, payload)
        if isinstance(payload, ResultBatch):
            return self._handle_result(env, payload)
        if isinstance(payload, BatchedResults):
            return self._handle_batched_results(env, payload)
        if isinstance(payload, ControlMessage):
            return self._handle_control(env, payload)
        if isinstance(payload, SeedFromSaved):
            return self._handle_seed_from_saved(env, payload)
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

    def _handle_deref(self, env: Envelope, msg: DerefRequest) -> StepReport:
        report = StepReport(elapsed=self.costs.msg_recv_s)
        ctx = self._context_for_work(msg.qid, msg.program, msg.term)
        if ctx is None or ctx.done:
            # The deadline fired (or the query id was reused) while this
            # work was in flight; the client already has the (partial)
            # result — drop the branch.
            self.stats.late_messages += 1
            return report
        self._qos_adopt_priority(ctx, env)
        if self._qos_should_shed(ctx):
            # Load shed: absorb the item's termination credit exactly as
            # an admission would (it returns to the originator with the
            # next drain, so conservation stays exact), but drop the item
            # itself and stamp the loss on the drain (``#shed``) so the
            # originator marks the outcome partial.
            self._absorb_controls(
                report,
                self.termination.on_recv_work(ctx.term_state, dict(msg.term), env.src, ctx.busy),
                msg.qid,
            )
            self._qos_shed(ctx)
            self._drain_if_idle(ctx, report)
            return report
        target = self._route(msg.item.oid)
        if target != self.site and self.is_site_up(target):
            # The object migrated away (or the sender used a stale hint):
            # absorb the detector state, then re-forward the request.
            self._absorb_controls(
                report,
                self.termination.on_recv_work(ctx.term_state, dict(msg.term), env.src, ctx.busy),
                msg.qid,
            )
            self._send_work(ctx, target, msg.item, report, tried=env.tried or ())
            self.stats.forwarded_requests += 1
        else:
            if not ctx.execution.mark_table.should_process(
                msg.item.oid, msg.item.start, msg.item.iters
            ):
                # This request asks us to re-process something we already
                # did — the message a global mark table would have saved
                # (paper §3.2 argues the savings are not worth the
                # coordination; ablation A1 quantifies them).
                self.stats.duplicate_requests += 1
            self._admit(ctx, msg.item)
            if self._step_span is not None:
                self._item_spans[(msg.qid, item_key(msg.item))] = self._step_span
            self._enqueue_rr(msg.qid)
            self._absorb_controls(
                report,
                self.termination.on_recv_work(ctx.term_state, dict(msg.term), env.src, ctx.busy),
                msg.qid,
            )
        self._drain_if_idle(ctx, report)
        return report

    def _handle_batched_query(self, env: Envelope, msg: BatchedQuery) -> StepReport:
        """Unbatch a coalesced frame: each item is ingested exactly as if
        its DerefRequest had arrived alone, but the receive overhead is
        one header plus a per-item marginal (the point of batching)."""
        report = StepReport(
            elapsed=self.costs.msg_recv_s
            + self.costs.batch_item_recv_s * (len(msg.items) - 1)
        )
        ctx = self._context_for_work(
            msg.qid, msg.program, msg.terms[0] if msg.terms else {}
        )
        batch_span: Optional[int] = None
        if self.tracer is not None:
            batch_span = self.tracer.emit(
                self.site, "batch_recv", msg.qid,
                parent=env.spans[0] if env.spans else None,
                src=env.src, items=len(msg.items), hints=len(msg.marked_hints),
            )
            self._step_span = batch_span
        if ctx is None or ctx.done:
            self.stats.late_messages += 1
            return report
        if self._batcher is not None and msg.marked_hints:
            # The sender's recent marks: anything listed is already
            # processed there, so never send it back.
            self._batcher.record_remote_marks(msg.qid, env.src, msg.marked_hints)
        self.stats.batched_items += len(msg.items)
        self._qos_adopt_priority(ctx, env)
        for index, (item, term) in enumerate(zip(msg.items, msg.terms)):
            # Per-item cause: the sender's step that enqueued this item
            # (rides as spans[1:]); the batch_recv itself is the fallback.
            cause = batch_span
            if env.spans is not None and len(env.spans) > 1 + index:
                sender_cause = env.spans[1 + index]
                if sender_cause:
                    cause = sender_cause
            if self._qos_should_shed(ctx):
                # Same shed-with-exact-credit path as the unbatched frame,
                # applied per item (earlier admissions in this very batch
                # may already have pushed the depth over the watermark).
                self._absorb_controls(
                    report,
                    self.termination.on_recv_work(ctx.term_state, dict(term), env.src, ctx.busy),
                    msg.qid,
                )
                self._qos_shed(ctx)
                continue
            target = self._route(item.oid)
            if target != self.site and self.is_site_up(target):
                self._absorb_controls(
                    report,
                    self.termination.on_recv_work(ctx.term_state, dict(term), env.src, ctx.busy),
                    msg.qid,
                )
                self._send_work(ctx, target, item, report, cause=cause, tried=env.tried or ())
                self.stats.forwarded_requests += 1
            else:
                if not ctx.execution.mark_table.should_process(item.oid, item.start, item.iters):
                    self.stats.duplicate_requests += 1
                self._admit(ctx, item)
                if cause is not None:
                    self._item_spans[(msg.qid, item_key(item))] = cause
                self._enqueue_rr(msg.qid)
                self._absorb_controls(
                    report,
                    self.termination.on_recv_work(ctx.term_state, dict(term), env.src, ctx.busy),
                    msg.qid,
                )
        self._drain_if_idle(ctx, report)
        return report

    def _handle_result(self, env: Envelope, msg: ResultBatch) -> StepReport:
        if msg.qid.originator != self.site:
            raise HyperFileError(
                f"site {self.site} received results for {msg.qid} it did not originate"
            )
        ctx = self.contexts.get(msg.qid)
        if self._cache is not None and msg.summary is not None:
            # Piggybacked reachability summary: useful whatever the fate
            # of the batch itself (it describes the peer, not the query).
            self._cache.record_summary(msg.summary)
        report = StepReport(
            elapsed=self.costs.result_msg_fixed_s + self.costs.result_item_s * msg.item_count
        )
        inc = msg.term.get("#inc", 1)
        if ctx is None or ctx.done or inc != ctx.incarnation:
            # Deadline already fired (or detector already terminated, or
            # the query was retired, or this batch belongs to a previous
            # run of a reused query id): the client holds the result;
            # ingesting more would mutate it behind their back and could
            # over-recover credit.  The batch still occupies the CPU for
            # its full receive-and-parse cost.
            self._late(msg.qid, env.src, report, inc)
            return report
        assert ctx.final is not None
        ctx.participants.add(env.src)
        if self._cache is not None:
            # The answer now depends on env.src's store as of its current
            # epoch (None or ambiguous epochs poison the footprint).
            self._cache.note_result_dep(msg.qid, env.src, env.src_epoch)
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

    def _handle_seed_from_saved(self, env: Envelope, msg: SeedFromSaved) -> StepReport:
        report = StepReport(elapsed=self.costs.msg_recv_s)
        ctx = self._context_for_work(msg.qid, msg.program, msg.term)
        if ctx is None or ctx.done:
            self.stats.late_messages += 1
            return report
        for oid in self.saved_partition(msg.source_qid):
            item = WorkItem(oid=oid, start=1)
            self._admit(ctx, item)
            if self._step_span is not None:
                self._item_spans[(msg.qid, item_key(item))] = self._step_span
        self._enqueue_rr(msg.qid)
        self._absorb_controls(
            report,
            self.termination.on_recv_work(ctx.term_state, dict(msg.term), env.src, ctx.busy),
            msg.qid,
        )
        self._drain_if_idle(ctx, report)
        return report

    def _handle_fetch_request(self, env: Envelope, msg: FetchRequest) -> StepReport:
        report = StepReport(elapsed=self.costs.msg_recv_s)
        target = self._route(msg.oid)
        if target != self.site and self.is_site_up(target):
            # Stale hint or migrated object: chase it (naming §4).
            self._emit(report, target, msg)
            self.stats.forwarded_requests += 1
            return report
        try:
            obj = self.store.get(msg.oid)
        except ObjectNotFound:
            obj = None
        self._emit(report, msg.reply_to or env.src, FetchReply(msg.request_id, obj))
        return report

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
        ctx = self.contexts.get(msg.qid)
        if ctx is not None and not ctx.is_originator and ctx.incarnation <= msg.incarnation:
            self._retire_context(msg.qid)

    def _handle_undeliverable(self, env: Envelope, msg: Undeliverable) -> StepReport:
        """A work message we sent bounced off a down site.

        Recover the termination state it carried, then — when the object
        is replicated — fail the work over to the next live holder the
        bounce has not tried yet (the envelope's ``tried`` hint carries
        the attempted set across hops).  Each re-routed send splits
        *fresh* credit, so recovery + re-split keeps the weighted
        detector's conservation exact.  Work with no remaining live
        replica is abandoned, exactly the unreplicated behaviour
        (partial results, clean termination)."""
        report = StepReport(elapsed=self.costs.msg_recv_s)
        original = msg.original.payload
        ctx = self.contexts.get(original.qid)
        if isinstance(original, BatchedQuery):
            term0 = original.terms[0] if original.terms else {}
        else:
            term0 = getattr(original, "term", None) or {}
        inc = term0.get("#inc", 1)
        if ctx is None or ctx.done or inc != ctx.incarnation:
            # Ledger already written off (or its context retired), or the
            # bounce belongs to a previous run of a reused query id.
            self._late(original.qid, env.src, report, inc)
            return report
        excl = set(msg.original.tried or ()) | {msg.original.dst}
        if isinstance(original, BatchedQuery):
            # A whole batch bounced: recover every item's credit, and
            # un-record the items so a re-discovered branch is not
            # suppressed against a site that never processed it.
            if self._batcher is not None:
                self._batcher.forget_sent(original.qid, msg.original.dst, original.items)
            for item, term in zip(original.items, original.terms):
                outs = self.termination.on_send_failed(ctx.term_state, dict(term), ctx.busy)
                self._absorb_controls(report, outs, original.qid)
                if not self._failover(ctx, item, excl, report):
                    self.stats.failed_sends += 1
                    ctx.abandoned += 1
        else:
            if self._batcher is not None and isinstance(original, DerefRequest):
                self._batcher.forget_sent(original.qid, msg.original.dst, (original.item,))
            outs = self.termination.on_send_failed(ctx.term_state, dict(original.term), ctx.busy)
            self._absorb_controls(report, outs, original.qid)
            if not (
                isinstance(original, DerefRequest)
                and self._failover(ctx, original.item, excl, report)
            ):
                # SeedFromSaved never fails over: the saved partition
                # lives only at the bounced site.
                self.stats.failed_sends += 1
                ctx.abandoned += 1
        self._drain_if_idle(ctx, report)
        if ctx.is_originator:
            self._check_termination(ctx, report)
        return report

    def _failover(
        self,
        ctx: QueryContext,
        item: WorkItem,
        excl: set,
        report: StepReport,
        cause: Optional[int] = None,
    ) -> bool:
        """Re-route one bounced work item to a replica outside ``excl``.

        A local replica admits the item straight into the working set (no
        message); a remote live holder gets a fresh send — new credit is
        split inside :meth:`_send_work` and the envelope's ``tried`` hint
        carries ``excl`` so a second bounce keeps excluding dead holders
        (no ping-pong between two down sites).  Returns ``False`` when no
        un-tried live replica remains; the caller abandons the branch.
        """
        alt = self._next_replica(item.oid, excl)
        if alt is None:
            return False
        self.stats.replica_failovers += 1
        if alt == self.site:
            self.stats.replica_local_serves += 1
            self._admit(ctx, item)
            span = cause if cause is not None else self._step_span
            if span is not None:
                self._item_spans[(ctx.qid, item_key(item))] = span
            self._enqueue_rr(ctx.qid)
            return True
        self._send_work(ctx, alt, item, report, cause=cause, tried=tuple(sorted(excl)))
        return True

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
            if self._failover(ctx, item, {*tried, dst}, report, cause=cause):
                return
            # Autonomy requirement: a down site must not hang the query.
            # The dereference is abandoned (partial results) and, because
            # no detector state was split off, termination stays exact.
            self.stats.failed_sends += 1
            ctx.abandoned += 1
            return
        if cause is None:
            cause = self._step_span
        if (
            self._cache is not None
            and not (self.replicas is not None and self.replicas.holds(dst, item.oid))
            and self._cache.should_suppress(
                ctx.qid, dst, item, self._closure_keys.get(ctx.qid)
            )
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
        threshold = self.batching.max_batch
        if self.qos is not None and dst in self._pressured:
            # Backpressure response: hold work for a pressured site in
            # larger batches (drain/idle flushes still go out, so credit
            # liveness is untouched — only the *size* trigger defers).
            threshold *= self.qos.pressure_batch_factor
            if self.batching.max_batch <= pending < threshold:
                self.stats.sends_throttled += 1
                if self.metrics is not None:
                    self.metrics.counter("qos.sends_throttled_total", site=self.site).inc()
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
            # The destination went down between enqueue and flush: take
            # every item's credit back (exactly the undeliverable path),
            # then fail each item over to another live replica if one
            # exists — only replica-less items stay abandoned.
            batcher.forget_sent(qid, dst, items)
            excl = {*tried, dst}
            recovered = 0
            for item, term, span in zip(items, terms, spans):
                outs = self.termination.on_send_failed(ctx.term_state, dict(term), ctx.busy)
                self._absorb_controls(report, outs, qid)
                if self._failover(ctx, item, excl, report, cause=span):
                    continue
                self.stats.failed_sends += 1
                ctx.abandoned += 1
                recovered += 1
            return recovered
        counter = "batch_flushes_" + reason
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
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
        if self.metrics is not None:
            self.metrics.histogram("batching.batch_size_items").observe(len(items))
        flush_span: Optional[int] = None
        if self.tracer is not None:
            # The flush descends from the first traced item in the queue;
            # the frame's send then descends from the flush, and the
            # per-item causes ride the envelope for the receiver to fan.
            first_cause = next((s for s in spans if s is not None), None)
            flush_span = self.tracer.emit(
                self.site, "batch_flush", qid, parent=first_cause,
                dst=dst, items=len(items), hints=len(hints), reason=reason,
            )
        self._emit(
            report, dst,
            BatchedQuery(qid, ctx.execution.program, items, terms, hints),
            cause=flush_span, item_causes=spans, tried=tried,
        )
        return 0

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
            counter = "batch_flushes_" + reason
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            if len(batches) == 1:
                self._emit(report, dst, batches[0], cause=spans[0])
                continue
            if self.metrics is not None:
                self.metrics.histogram("batching.batch_size_items").observe(len(batches))
            flush_span: Optional[int] = None
            if self.tracer is not None:
                first_cause = next((s for s in spans if s is not None), None)
                flush_span = self.tracer.emit(
                    self.site, "batch_flush", batches[0].qid, parent=first_cause,
                    dst=dst, items=len(batches), reason=reason, results=True,
                )
            self._emit(
                report, dst, BatchedResults(batches),
                cause=flush_span, item_causes=spans,
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
        drain_span: Optional[int] = None
        if ctx.is_originator:
            self._merge_local_results(ctx)
            self.termination.on_originator_drain(ctx.term_state)
            ctx.drains += 1
            self.stats.drains += 1
            if self.tracer is not None:
                assert ctx.final is not None
                parent = self._step_span if self._step_span is not None else ctx.root_span
                self.tracer.emit(
                    self.site, "drain", ctx.qid, parent=parent, results=len(ctx.final.oids)
                )
            self._check_termination(ctx, report)
            return
        oids, emissions = ctx.take_unflushed()
        attach, controls = self.termination.on_drain(ctx.term_state)
        term = self._stamp_inc(ctx, attach)
        if ctx.shed_pending:
            # Ride the shed count home on the drain's term attachment
            # (the detector ignores keys it does not know, the codec
            # carries them verbatim); the originator flips `partial`.
            term["#shed"] = ctx.shed_pending
            ctx.shed_pending = 0
        ctx.drains += 1
        self.stats.drains += 1
        if self.tracer is not None:
            parent = self._step_span if self._step_span is not None else ctx.root_span
            drain_span = self.tracer.emit(
                self.site, "drain", ctx.qid, parent=parent, results=len(oids)
            )
        summary = None
        if self._cache is not None:
            summary = self._cache.summary_to_attach(
                ctx.qid.originator, self.store, self.forwarding
            )
        if self.result_mode == "count":
            batch = ResultBatch(
                ctx.qid,
                oids=(),
                emissions=emissions,
                count_only=True,
                count=len(oids),
                term=term,
                summary=summary,
            )
        else:
            batch = ResultBatch(
                ctx.qid,
                oids=oids,
                emissions=emissions,
                term=term,
                summary=summary,
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
                # before the cache-eligibility check below sees it.
                ctx.final.partial = True
                ctx.final.partial_reason = "shed"
            if self._cache is not None and ctx.cache_key is not None:
                if not ctx.final.partial and self.store.epoch == ctx.cache_epoch:
                    retrieved = tuple(
                        (target, value)
                        for target, values in ctx.final.retrieved.items()
                        for value in values
                    )
                    self._cache.store_query(
                        ctx.qid, ctx.cache_key, ctx.cache_epoch,
                        tuple(ctx.final.oids.as_list()), retrieved,
                    )
                else:
                    # Local store mutated mid-query (or the answer is
                    # partial): the answer is fine, but not cacheable.
                    self._cache.drop_query(ctx.qid)
            if self.tracer is not None:
                parent = self._step_span if self._step_span is not None else ctx.root_span
                self.tracer.emit(
                    self.site, "complete", ctx.qid, parent=parent,
                    results=len(ctx.final.oids),
                )
            self._stamp_slo(ctx)
            # Per-site execution counters are aggregated by the cluster at
            # completion (it can reach every context); merging here would
            # double-count the originator's own.
            report.completed.append((ctx.qid, ctx.final))
            if self.on_query_complete is not None:
                self.on_query_complete(ctx.qid, ctx.final)
            self._retire_finished(ctx, report)

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
            if self._cache.fragments is not None:
                execution.fragment_cache = self._cache.fragments
                execution.epoch_fn = lambda: self.store.epoch
            pointer_key = closure_pointer_key(program)
            self._closure_keys[qid] = pointer_key
            if pointer_key is not None:
                self._cache.note_pointer_key(pointer_key)
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
        """Resolve the context a work/seed message belongs to.

        Work messages stamp the originator's context *incarnation* (only
        when a query id was reused — the common case carries no stamp and
        defaults to 1).  A newer incarnation retires whatever stale state
        the previous run left here; an older one means the message itself
        is stale — return None so the caller drops it, exactly like work
        arriving after a deadline (its credit was already written off).
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
            if inc > self._incarnations.get(qid, 1):
                # First contact from a rerun: the fresh context must take
                # the message's incarnation, or the results it drains
                # back would be stamped with the old one and dropped as
                # stale by the originator.
                self._incarnations[qid] = inc
            ctx = self._ensure_context(qid, program)
        if inc < ctx.incarnation:
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
        self._leave_rotation(qid)
        if self._batcher is not None:
            self._batcher.drop_query(qid)
        if self._item_spans:
            self._drop_item_spans(qid)
        if self._cache is not None:
            self._cache.drop_query(qid)
        self._closure_keys.pop(qid, None)

    def _retire_finished(self, ctx: QueryContext, report: StepReport) -> None:
        """Originator side, after a completion is reported: the query
        leaves the rotation and enters the recently-finished window;
        whatever falls out of the window is retired for good.

        The sites' contexts go with their results.  In ship mode those
        already left, so participants are purged now; in count mode the
        retained partitions *are* the distributed set follow-ups seed
        from, so they live until the window evicts the query.
        """
        self._leave_rotation(ctx.qid)
        self._recent[ctx.qid] = None
        if self.result_mode == "ship":
            self._purge_participants(ctx, report)
        while len(self._recent) > RECENT_QUERIES:
            old = self.contexts[next(iter(self._recent))]
            if self.result_mode == "count":
                self._purge_participants(old, report)
            self._retire_context(old.qid)

    def _purge_participants(self, ctx: QueryContext, report: StepReport) -> None:
        for participant in sorted(ctx.participants):
            self._send_purge(report, participant, ctx.qid, ctx.incarnation)

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

    def _admit(self, ctx: QueryContext, item: WorkItem) -> None:
        if not ctx.busy:
            self._busy += 1
        ctx.execution.admit(item)
        self._pending += 1

    def _abandon(self, ctx: QueryContext) -> int:
        """Discard a context's pending work; returns the items dropped."""
        dropped = ctx.execution.abandon()
        if dropped:
            self._busy -= 1
            self._pending -= dropped
        return dropped

    def _leave_rotation(self, qid: QueryId) -> None:
        if qid in self._rr:
            self._rr.remove(qid)
        if self.qos is not None:
            for dq in self._rr_class.values():
                if qid in dq:
                    dq.remove(qid)

    def _prepare_resubmit(self, qid: QueryId) -> None:
        """Originator side: make a reused query id safe to run again.

        Resubmitting an id still in flight is a client error.  Reusing a
        finished (typically deadline-expired) id retires the old context
        and bumps the incarnation so the new run's messages are
        distinguishable from the old run's stragglers.
        """
        ctx = self.contexts.get(qid)
        if ctx is None:
            return
        if not ctx.done:
            raise HyperFileError(f"query {qid} resubmitted while still in flight")
        self._incarnations[qid] = ctx.incarnation + 1
        self._retire_context(qid)

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
        priority: Optional[str] = None
        pressure: Optional[int] = None
        if self.qos is not None:
            qid = getattr(payload, "qid", None)
            qctx = self.contexts.get(qid) if isinstance(qid, QueryId) else None
            if qctx is not None:
                priority = qctx.priority
            if self.qos.high_watermark is not None:
                self._qos_refresh_pressure()
                pressure = self._pressure_state
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

    def _drop_item_spans(self, qid: QueryId) -> None:
        """Forget per-item trace causes for a finished/purged query."""
        for key in [k for k in self._item_spans if k[0] == qid]:
            del self._item_spans[key]

    def _enqueue_rr(self, qid: QueryId) -> None:
        if self.qos is None:
            if qid not in self._rr:
                self._rr.append(qid)
            return
        if any(qid in dq for dq in self._rr_class.values()):
            return
        ctx = self.contexts.get(qid)
        cls = ctx.priority if ctx is not None and ctx.priority in PRIORITIES else "interactive"
        self._rr_class[cls].append(qid)

    def _next_busy_context(self) -> Optional[QueryContext]:
        if self.qos is None:
            if not self._busy:
                return None  # a full fruitless rotation would be the identity
            for _ in range(len(self._rr)):
                qid = self._rr[0]
                self._rr.rotate(-1)
                ctx = self.contexts.get(qid)
                if ctx is not None and ctx.busy:
                    return ctx
            return None
        # Weighted-fair drain: each WFQ round grants interactive_weight
        # turns to interactive contexts and batch_weight to batch ones
        # (round-robin within a class, exactly the legacy rotation).  A
        # class with credits but nothing runnable forfeits its remaining
        # turns (work-conserving); when both classes are spent or empty
        # the round resets.  With a single class present this degenerates
        # to the legacy round-robin order.
        for _ in range(2):  # at most one credit refill per call
            for cls in PRIORITIES:
                if self._wfq_credits[cls] <= 0:
                    continue
                ctx = self._rotate_find(self._rr_class[cls])
                if ctx is not None:
                    self._wfq_credits[cls] -= 1
                    return ctx
                self._wfq_credits[cls] = 0
            if any(self._wfq_credits.values()):
                break
            self._wfq_credits["interactive"] = self.qos.interactive_weight
            self._wfq_credits["batch"] = self.qos.batch_weight
        return None

    def _rotate_find(self, dq: Deque[QueryId]) -> Optional[QueryContext]:
        for _ in range(len(dq)):
            qid = dq[0]
            dq.rotate(-1)
            ctx = self.contexts.get(qid)
            if ctx is not None and ctx.busy:
                return ctx
        return None
