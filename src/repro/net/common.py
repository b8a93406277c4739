"""Shared machinery for the wall-clock transports.

The threaded and asyncio clusters (inline and process mode) expose the
same blocking query contract as the simulator (see
:class:`repro.api.ClusterAPI`); this module holds the pieces they would
otherwise duplicate — the completion-wait loop with originator-side
deadlines, :func:`contain_site_error`, and :class:`WallClockQueries`, the
whole submit/wait/run_query surface parameterised over how a transport
reaches its sites.

**The site-loop rule.**  Every wall-clock transport serves a site the
same way (``_SiteLoop.serve`` in :mod:`repro.net.threaded` on a thread,
``_AsyncSite.drain`` as a coroutine, which must yield):

1. block for the first envelope; while the site is down, hold it until
   ``set_up`` — a frozen site keeps what was delivered to it, never
   drops it;
2. take every envelope already queued behind it — the burst;
3. hand the burst to the node in FIFO order, then step while it has
   work, so the working set W empties, and the site ships its results
   and credit home (paper §3.2), once per burst rather than once per
   envelope;
4. route what the steps sent;
5. a raise from ``on_message`` or ``step`` costs that envelope or that
   step, not the site (:func:`contain_site_error`): the loop resumes
   after it.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..api import OutcomeTable, QueryLike, QueryOutcome, compile_query_like, credit_deficit
from ..core.oid import Oid
from ..core.program import Program
from ..engine.results import QueryResult
from ..errors import (
    ConfigError,
    HyperFileError,
    Overloaded,
    QueryTimeout,
    SiteDeparted,
    TerminationLost,
    TransportClosed,
    UnknownSite,
)
from ..membership import UP, MembershipService, MembershipView, Rebalancer
from ..qos import PRIORITIES, ClientLimiter, QoSConfig
from ..server.node import ServerNode
from ..server.stats import NodeStats
from .messages import QueryId

#: Default hard backstop for blocking waits on the real transports.
DEFAULT_TIMEOUT_S = 30.0

_log = logging.getLogger(__name__)


def contain_site_error(node: ServerNode, flight_recorder, exc: Exception) -> None:
    """Log and count a raise from ``on_message`` / ``step``, snapshot the
    flight recorder if one is armed, and restore the node's work counters
    the interrupted call may have left stale."""
    _log.error("site %s: contained a raise and keeps serving", node.site, exc_info=exc)
    node.stats.site_errors += 1
    node.recount_work()
    if flight_recorder is not None:
        flight_recorder.dump("", f"site_error:{type(exc).__name__}", site=node.site)


def await_completion(
    outcomes: OutcomeTable,
    qid: QueryId,
    timeout_s: float,
    deadline_s: Optional[float],
    expire: Callable[[], None],
    diagnose: Optional[Callable[[], Tuple[object, int]]] = None,
) -> QueryOutcome:
    """Block until ``qid`` completes, expiring it at its deadline.

    ``expire`` is invoked (once) when ``deadline_s`` elapses without a
    completion; it must force the originator to complete the query with
    partial results, which then land in ``outcomes`` like any other
    completion.  The caller sleeps until *its* query is there — other
    queries finishing first wake it only to re-check — or the next of
    its two clocks runs out.  ``timeout_s`` stays a hard backstop: if even
    the expiry path produces nothing the detector genuinely never fired,
    so raise :class:`~repro.errors.TerminationLost` rather than hang —
    with whatever diagnostics ``diagnose`` can supply (credit deficit,
    undeliverable count).
    """
    start = time.monotonic()
    end = start + timeout_s
    deadline = start + deadline_s if deadline_s is not None else None
    expired = False
    while True:
        now = time.monotonic()
        if deadline is not None and not expired and now >= deadline:
            expired = True
            expire()
        remaining = end - now
        if remaining <= 0:
            deficit, undeliverable = diagnose() if diagnose is not None else (None, 0)
            raise TerminationLost(qid, deficit=deficit, undeliverable=undeliverable)
        if deadline is not None and not expired:
            remaining = min(remaining, max(deadline - now, 0.001))
        outcome = outcomes.wait(qid, remaining)
        if outcome is not None:
            return outcome


@dataclass
class _Inflight:
    submitted_at: float
    deadline_s: Optional[float]


class WallClockQueries:
    """The :class:`~repro.api.ClusterAPI` query surface for transports
    whose clock is ``time.monotonic()``.

    A concrete transport provides site reachability (how to install a
    query at a site, how to fire its deadline expiry) through the
    ``_dispatch_*`` hooks plus ``nodes`` and an ``undeliverable`` list;
    everything client-visible — qid allocation, the in-flight registry
    that carries ``deadline_s`` across the submit/wait split, outcome
    construction, the uniform failure types — lives here, so the real
    transports cannot drift apart.
    """

    # Provided by the concrete transport (listed for readability):
    #   nodes: Dict[str, ServerNode]
    #   undeliverable: List[Envelope]
    #   sites property, _closed flag
    #   _dispatch_submit / _dispatch_submit_from_saved / _dispatch_expire

    def _init_queries(self, qos: Optional[QoSConfig] = None) -> None:
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._inflight: Dict[QueryId, _Inflight] = {}
        self._outcomes = OutcomeTable()
        self.qos = qos
        self._qos_limiter: Optional[ClientLimiter] = (
            ClientLimiter(qos.rate_limit_qps, qos.rate_burst, time.monotonic)
            if qos is not None and qos.rate_limit_qps is not None
            else None
        )
        self.qos_bounces = 0
        # Telemetry plane defaults, so transports that never call
        # _init_telemetry (none today) still answer the API.
        self.flight_recorder = None
        self.stats_timeline = None
        self._flightrec_dumped: set = set()
        self._stats_stop = threading.Event()
        self._stats_thread: Optional[threading.Thread] = None
        # Membership defaults, so transports that never call
        # _init_membership still answer the API.
        self.membership: Optional[MembershipService] = None
        self.rebalancer: Optional[Rebalancer] = None

    # -- membership (administrative) --------------------------------------

    def _init_membership(self, config) -> None:
        """Arm administrative membership from a ClusterConfig.

        Call after ``nodes``, ``stores`` and ``replication`` exist.  The
        wall-clock transports take *administrative* membership only —
        ``join_site`` / ``leave_site`` / ``fail_site`` drive view changes
        and rebalancing, but the gossip failure detector needs the
        simulator's virtual clock, so ``heartbeat_s`` is rejected here.
        """
        membership = getattr(config, "membership", None) if config is not None else None
        if membership is None:
            return
        if membership.heartbeat_s is not None:
            raise ConfigError(
                "membership.heartbeat_s",
                "the gossip failure detector runs on the simulator's virtual "
                "clock; wall-clock transports take administrative membership "
                "only (join_site / leave_site / fail_site)",
            )
        self.membership = MembershipService(membership, list(self.sites))
        self.rebalancer = Rebalancer(
            self.replication, self.stores, self._membership_forwarding(), self.membership
        )
        if self.replication is not None:
            self.replication.active_sites = lambda: list(self.membership.view.active)
        self.membership.add_listener(self._on_membership_change)
        self._apply_membership_view()

    def _membership_forwarding(self) -> Dict[str, object]:
        """Forwarding tables for the rebalancer, however this transport
        stores them (an attribute, or hanging off each node)."""
        forwarding = getattr(self, "forwarding", None)
        if forwarding is not None:
            return forwarding
        return {site: node.forwarding for site, node in self.nodes.items()}

    def _apply_membership_view(self) -> None:
        """Push the current view into every node's routing guard."""
        assert self.membership is not None
        for node in self.nodes.values():
            node.membership_status = self.membership.status_of

    def _on_membership_change(self, old_view, new_view, reason: str) -> None:
        self._apply_membership_view()
        assert self.membership is not None
        if self.membership.config.auto_rebalance and reason in ("join", "leave", "fail"):
            assert self.rebalancer is not None
            self.rebalancer.rebalance(reason)

    @property
    def membership_view(self) -> MembershipView:
        self._require_membership()
        assert self.membership is not None
        return self.membership.view

    def _require_membership(self) -> None:
        if self.membership is None:
            raise ConfigError(
                "membership",
                "this cluster was built without ClusterConfig(membership=...)",
            )

    def join_site(self, site: str) -> MembershipView:
        """Re-admit a departed site (its endpoint stays provisioned).

        Wall-clock transports cannot conjure a new endpoint mid-run —
        threads, sockets and child processes are created at construction
        — so only sites the cluster was built with can (re)join here;
        brand-new sites join on the simulator.
        """
        self._require_membership()
        if site not in self.nodes:
            raise ConfigError(
                "membership",
                f"{site!r} has no provisioned endpoint; new sites can only "
                "join on the simulator transport",
            )
        self.set_up(site)
        assert self.membership is not None
        return self.membership.join(site)

    def leave_site(self, site: str) -> MembershipView:
        """Start a graceful leave; finalized once nothing needs the site."""
        self._require_membership()
        assert self.membership is not None
        view = self.membership.leave_begin(site)
        self._maybe_finalize_membership()
        return view

    def fail_site(self, site: str) -> MembershipView:
        """Declare ``site`` permanently crashed: stop routing to it,
        restore the replication target from the survivors, and write the
        dead machine's store off (a later rejoin starts empty — what was
        only there is lost, and stays lost)."""
        self._require_membership()
        if site in self.nodes:
            self.set_down(site)
        assert self.membership is not None
        view = self.membership.fail(site)
        self._wipe_store(site)
        self._maybe_finalize_membership()
        return view

    def finalize_membership(self) -> None:
        """Complete pending leaves and deferred copy removals (idle only)."""
        self._require_membership()
        self._maybe_finalize_membership()

    def _maybe_finalize_membership(self) -> None:
        if self.membership is None:
            return
        for site in list(self.membership.view.leaving):
            if any(qid.originator == site for qid in self._inflight):
                continue
            self.set_down(site)
            if self.rebalancer is not None:
                self.rebalancer.flush_removals(lambda s, target=site: s == target)
            self._wipe_store(site)
            self.membership.leave_finalize(site)
        if self.rebalancer is not None and not self._inflight:
            self.rebalancer.flush_removals(lambda _site: True)

    def _wipe_store(self, site: str) -> None:
        """Best-effort erase of a departed site's store (in process mode
        the child carrying it may already be gone)."""
        store = self.stores.get(site) if hasattr(self, "stores") else None
        if store is None:
            return
        try:
            for oid in list(store.oids()):
                store.remove(oid)
        except HyperFileError:
            pass

    def _check_membership_origin(self, origin: str) -> None:
        if self.membership is not None:
            status = self.membership.status_of(origin)
            if status != UP:
                raise SiteDeparted(origin, status)

    def _init_telemetry(self, config) -> None:
        """Arm the flight recorder and the streaming-stats sampler from a
        :class:`~repro.config.ClusterConfig`.  Call after ``nodes`` exist
        (the recorder wires itself in as every node's default tracer)."""
        if config is None:
            return
        if config.flight_recorder is not None:
            from ..tracing import FlightRecorder

            recorder = FlightRecorder(config.flight_recorder)
            recorder.now_fn = time.monotonic
            self.flight_recorder = recorder
            for node in self.nodes.values():
                node.tracer = recorder
        if config.stats_stream_s is not None:
            from ..metrics.collect import StatsTimeline

            self.stats_timeline = StatsTimeline()
            self._start_stats_stream(config.stats_stream_s)

    def _start_stats_stream(self, period_s: float) -> None:
        """Timer-driven sampler: one :class:`StatsTimeline` sample per
        period until the cluster closes (daemon thread; ``close`` calls
        :meth:`_stop_stats_stream` for a prompt exit)."""

        def loop() -> None:
            while not self._stats_stop.wait(period_s):
                if getattr(self, "_closed", False):
                    return
                try:
                    self._sample_stats()
                except RuntimeError:
                    # A site mutated its dicts mid-read; skip this tick.
                    continue

        self._stats_thread = threading.Thread(
            target=loop, name="repro-stats-stream", daemon=True
        )
        self._stats_thread.start()

    def _stop_stats_stream(self) -> None:
        self._stats_stop.set()
        if self._stats_thread is not None:
            self._stats_thread.join(timeout=1.0)
            self._stats_thread = None

    def _sample_stats(self) -> None:
        sites: Dict[str, Dict[str, object]] = {}
        for site, node in self.nodes.items():
            sample = node.stats.sample()
            sample["work_depth"] = node.work_depth
            sites[site] = sample
        self.stats_timeline.append(time.monotonic(), sites)
        tracer = next(iter(self.nodes.values())).tracer
        if tracer is not None:
            tracer.emit("cluster", "stats_push", "", sites=len(sites))

    def _credit_deficit(self, qid: QueryId):
        """Cluster-wide missing termination credit for ``qid`` (the
        TerminationLost diagnostic).  The default reads the in-process
        node contexts; process mode overrides this to ask each child
        over the control channel."""
        return credit_deficit(self.nodes, qid)

    def _flightrec_dump(self, qid: QueryId, reason: str) -> None:
        """Dump the flight-recorder ring once per dying query.  Process
        mode overrides this to pull each child's ring first."""
        if self.flight_recorder is None or qid in self._flightrec_dumped:
            return
        self._flightrec_dumped.add(qid)
        self.flight_recorder.dump(qid, reason, site=qid.originator)

    def _admit(self, client: str) -> None:
        """Token-bucket admission control; bounces with :class:`Overloaded`."""
        if self._qos_limiter is None:
            return
        if not self._qos_limiter.try_acquire(client):
            self.qos_bounces += 1
            metrics = getattr(self, "metrics", None)
            if metrics is not None:
                metrics.counter("qos.overload_bounces_total", client=client).inc()
            raise Overloaded(client, retry_after_s=self._qos_limiter.retry_after_s(client))

    # -- ClusterAPI ------------------------------------------------------

    def compile(self, query: QueryLike) -> Program:
        return compile_query_like(query)

    def submit(
        self,
        query: QueryLike,
        initial: Iterable[Oid],
        originator: Optional[str] = None,
        deadline_s: Optional[float] = None,
        priority: Optional[str] = None,
        client: str = "default",
    ) -> QueryId:
        """Install a query at its originating site (non-blocking).

        ``deadline_s`` starts counting now; :meth:`wait` enforces it even
        if called later (the elapsed gap is charged against the budget).
        With a QoS config active, ``priority`` selects the service class
        and ``client`` is the admission-control identity; a drained token
        bucket bounces the submit with :class:`~repro.errors.Overloaded`.
        """
        if self._closed:
            raise TransportClosed("cluster is closed")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if priority is not None and priority not in PRIORITIES:
            raise ValueError(f"priority must be one of {PRIORITIES}, got {priority!r}")
        program = compile_query_like(query)
        origin = originator if originator is not None else self.sites[0]
        if origin not in self.nodes:
            raise UnknownSite(origin)
        # A departing originator could never deliver its answer.
        self._check_membership_origin(origin)
        self._admit(client)
        qid = self._next_qid(origin)
        self._inflight[qid] = _Inflight(time.monotonic(), deadline_s)
        self._dispatch_submit(origin, qid, program, list(initial), priority, client)
        return qid

    def submit_followup(
        self,
        query: QueryLike,
        source_qid: QueryId,
        originator: Optional[str] = None,
    ) -> QueryId:
        """Start a query seeded from a distributed result set (paper §5)."""
        if self._closed:
            raise TransportClosed("cluster is closed")
        program = compile_query_like(query)
        origin = originator if originator is not None else source_qid.originator
        if origin not in self.nodes:
            raise UnknownSite(origin)
        self._check_membership_origin(origin)
        qid = self._next_qid(origin)
        self._inflight[qid] = _Inflight(time.monotonic(), None)
        try:
            self._dispatch_submit_from_saved(origin, qid, program, source_qid)
        except HyperFileError:  # e.g. ResultSetRetired: nothing was installed
            del self._inflight[qid]
            raise
        return qid

    def wait(self, qid: QueryId, timeout_s: Optional[float] = None) -> QueryOutcome:
        """Block until ``qid`` completes (or its deadline forces it to).

        Raises :class:`~repro.errors.TerminationLost` if the hard
        ``timeout_s`` backstop passes with no completion at all.
        """
        info = self._inflight.get(qid)
        budget = timeout_s if timeout_s is not None else DEFAULT_TIMEOUT_S
        deadline_remaining: Optional[float] = None
        if info is not None and info.deadline_s is not None:
            elapsed = time.monotonic() - info.submitted_at
            deadline_remaining = max(info.deadline_s - elapsed, 0.0005)
        try:
            outcome = await_completion(
                self._outcomes,
                qid,
                budget,
                deadline_remaining,
                expire=lambda: self._dispatch_expire(qid.originator, qid),
                diagnose=lambda: (self._credit_deficit(qid), len(self.undeliverable)),
            )
        except TerminationLost:
            self._flightrec_dump(qid, "termination_lost")
            raise
        if outcome.result.partial and outcome.result.partial_reason in ("crash", "deadline"):
            self._flightrec_dump(qid, outcome.result.partial_reason)
        if self.membership is not None:
            # The client thread is the safe place to complete pending
            # leaves and deferred copy removals (never under a node lock).
            self._maybe_finalize_membership()
        return outcome

    def run_query(
        self,
        query: QueryLike,
        initial: Iterable[Oid],
        originator: Optional[str] = None,
        deadline_s: Optional[float] = None,
        on_deadline: str = "partial",
        timeout_s: Optional[float] = None,
        priority: Optional[str] = None,
        client: str = "default",
    ) -> QueryOutcome:
        """Submit and block until completion — the ClusterAPI contract.

        ``on_deadline`` selects the client-visible behaviour when
        ``deadline_s`` expires first: ``"partial"`` returns the outcome
        with ``result.partial`` set; ``"raise"`` raises
        :class:`~repro.errors.QueryTimeout` (partial result attached).
        """
        if on_deadline not in ("partial", "raise"):
            raise ValueError(f"on_deadline must be 'partial' or 'raise', got {on_deadline!r}")
        qid = self.submit(
            query, initial, originator, deadline_s=deadline_s, priority=priority, client=client
        )
        outcome = self.wait(qid, timeout_s=timeout_s)
        if outcome.result.partial and on_deadline == "raise":
            raise QueryTimeout(qid, deadline_s, outcome.result)
        return outcome

    def run_followup(
        self,
        query: QueryLike,
        source_qid: QueryId,
        originator: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> QueryOutcome:
        qid = self.submit_followup(query, source_qid, originator)
        return self.wait(qid, timeout_s=timeout_s)

    def outcome(self, qid: QueryId) -> Optional[QueryOutcome]:
        return self._outcomes.get(qid)

    # -- data management -------------------------------------------------

    def migrate(self, oid: Oid, to_site: str) -> Oid:
        """Move an object between sites, maintaining naming invariants.

        Administrative operation: call between queries, not while one is
        in flight (the simulator shares this caveat — migration is
        outside the paper's query cost model).  Replication-aware when a
        replication config is active.
        """
        replication = getattr(self, "replication", None)
        if replication is not None:
            return replication.migrate(oid, to_site)
        from ..naming.names import migrate_object

        forwarding = getattr(self, "forwarding", None)
        if forwarding is None:
            forwarding = {name: node.forwarding for name, node in self.nodes.items()}
        return migrate_object(oid, self.stores, forwarding, to_site)

    def replicate_all(self) -> int:
        """Install the configured k copies of every loaded object; no-op
        (returns 0) without a replication config."""
        replication = getattr(self, "replication", None)
        return replication.replicate_all() if replication is not None else 0

    def total_stats(self) -> NodeStats:
        """Cluster-wide node counters, merged.

        Unlike the simulator this reads live per-site state without
        stopping the site threads; counters are monotonically increasing
        ints, so the snapshot is sane but not a consistent cut.
        """
        merged = NodeStats()
        for node in self.nodes.values():
            merged.merge(node.stats)
        return merged

    # -- observability ---------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Record a :class:`~repro.tracing.QueryTracer` timeline of every
        node's work, timestamped with the wall clock.  Same contract as
        the simulator's; span ids stay valid across site threads (the
        tracer's allocation is thread-safe).  With the flight recorder
        armed the tracer is teed into its ring, so postmortem dumps stay
        current while a user tracer is attached."""
        tracer.now_fn = time.monotonic
        if self.flight_recorder is not None:
            from ..tracing import TeeTracer

            tracer = TeeTracer(tracer, self.flight_recorder)
        for node in self.nodes.values():
            node.tracer = tracer

    def detach_tracer(self) -> None:
        for node in self.nodes.values():
            node.tracer = self.flight_recorder

    def enable_metrics(self, registry=None):
        """Publish node/batching telemetry into a
        :class:`~repro.metrics.MetricsRegistry` (created if not given).
        Returns the registry; read it with :meth:`metrics_snapshot`."""
        if registry is None:
            from ..metrics.registry import MetricsRegistry

            registry = MetricsRegistry()
        self.metrics = registry
        for node in self.nodes.values():
            node.metrics = registry
        return registry

    def metrics_snapshot(self):
        """Current registry contents with per-node stats freshly mirrored
        in; None when :meth:`enable_metrics` was never called."""
        registry = getattr(self, "metrics", None)
        if registry is None:
            return None
        for site, node in self.nodes.items():
            registry.publish_node_stats(site, node.stats)
        return registry.snapshot()

    # -- transport-side plumbing ----------------------------------------

    def _next_qid(self, originator: str) -> QueryId:
        with self._seq_lock:
            self._seq += 1
            return QueryId(self._seq, originator)

    def _on_complete(self, qid: QueryId, result: QueryResult) -> None:
        """Runs at the originator, under its site's node lock."""
        info = self._inflight.pop(qid, None)
        node = self.nodes.get(qid.originator)
        ctx = node.contexts.get(qid) if node is not None else None
        outcome = QueryOutcome(
            qid=qid,
            result=result,
            submitted_at=info.submitted_at if info is not None else 0.0,
            completed_at=time.monotonic(),
            partition_counts=(
                dict(ctx.partition_counts) if ctx is not None and ctx.partition_counts else None
            ),
        )
        self._outcomes.put(qid, outcome)
