"""The one cluster base every deployment builds on.

All four deployments — the simulator (:class:`~repro.cluster.SimCluster`),
threads, asyncio inline and asyncio process mode — serve the paper's one
client protocol: a query is submitted at an originating site, results
and credit flow back to it (§3.2), and response time is read at the
client (§5).  :class:`ClusterBase` holds that protocol once — site naming
and the per-site build (:func:`build_node`), qid allocation, admission,
the in-flight registry, outcome construction, membership administration
and the telemetry hooks — over the seams a transport supplies:

* a clock, ``self._now``: ``time.monotonic`` on the wall-clock
  transports, the virtual clock on the simulator;
* ``_at_site(site, call)``, which runs a client call (submit, follow-up,
  deadline expiry) on a site's node and sends what it produced — process
  mode replaces the ``_dispatch_*`` hooks built on it with control ops;
* ``_attach_site`` (how a built node is served); ``_deliver`` (how a
  copy reaches its destination: the transport's share of the one
  delivery policy, :class:`~repro.net.site.WirePolicy` in ``self.wire``,
  whose timers run on one wall-clock wheel, ``_schedule``, unless the
  transport brings its own); ``_site_down`` / ``_site_up``; ``close``;
* optionally ``_add_site`` and ``_crash_site`` (membership) and ``wait``
  — the one here blocks on the wall clock (:func:`await_completion`); the
  simulator's drives its event loop instead.

Availability (``is_up`` / ``set_down`` / ``set_up``), fault plans, the
reliable channel and the ``messages_dropped`` / ``undeliverable``
ledger are the wire's, so they are written here once too.

This module does not import :mod:`repro.cluster`, so a process-mode child
builds its node with :func:`build_node` without loading the simulated
deployment.

**The site-loop rule.**  Every wall-clock transport serves a site the
same way (``_SiteLoop.serve`` in :mod:`repro.net.threaded` on a thread,
``_AsyncSite.drain`` as a coroutine, which must yield):

1. block for the first envelope; while the site is down, hold it until
   ``set_up`` — a frozen site keeps what was delivered to it, never
   drops it;
2. take every envelope already queued behind it — the burst;
3. hand the burst to :meth:`SiteRuntime.serve <repro.net.site.SiteRuntime.serve>`,
   which gives it to the node in FIFO order (reliable frames to the
   site's endpoint), then steps while the node has work, so the working
   set W empties, and the site ships its results and credit home (paper
   §3.2), once per burst rather than once per envelope;
4. send what the steps produced through the wire;
5. a raise from ``on_message`` or ``step`` costs that envelope or that
   step, not the site (``SiteRuntime`` contains it): the loop resumes
   after it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple, Union

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
from ..faults.reliable import ReliableConfig
from ..faults.timers import TimerThread
from ..naming.directory import ForwardingTable, ReplicaDirectory
from ..qos.config import PRIORITIES
from ..server.node import ServerNode
from ..server.stats import NodeStats
from ..sim.costs import FREE_COSTS
from ..storage.memstore import MemStore
from ..termination.base import make_strategy
from .messages import QueryId
from .site import WirePolicy

if TYPE_CHECKING:  # a feature's modules load only when its config is set
    from ..faults.plan import FaultPlan
    from ..membership import MembershipService, MembershipView, Rebalancer
    from ..qos import ClientLimiter
    from ..replication import ReplicationManager

#: Default hard backstop for blocking waits on the real transports.
DEFAULT_TIMEOUT_S = 30.0
#: How many of the most recently dumped queries a cluster remembers, so a
#: query's flight recorder is dumped once however often it is reported.
RECENT_DUMPS = 64


def site_name(index: int) -> str:
    """Canonical site naming used throughout benchmarks: site0, site1, ..."""
    return f"site{index}"


def site_names(sites: Union[int, Iterable[str]]) -> List[str]:
    """Resolve a cluster's ``sites`` argument (a count, or the names).

    Raises ``ValueError`` for an empty or duplicated list — before a
    transport has started any thread, event loop or child process.
    """
    names = [site_name(i) for i in range(sites)] if isinstance(sites, int) else list(sites)
    if not names:
        raise ValueError("a cluster needs at least one site")
    if len(set(names)) != len(names):
        raise ValueError("site names must be unique")
    return names


def build_node(
    site: str,
    store: MemStore,
    config,
    *,
    costs,
    now_fn: Callable[[], float],
    forwarding: Optional[ForwardingTable] = None,
    replicas: Optional[ReplicaDirectory] = None,
    on_query_complete=None,
    is_site_up: Optional[Callable[[str], bool]] = None,
) -> ServerNode:
    """One site's :class:`ServerNode`, configured from a
    :class:`~repro.config.ClusterConfig` — the only place any transport
    (or a process-mode child) constructs one."""
    node = ServerNode(
        site,
        store,
        costs=costs,
        termination=make_strategy(config.termination),
        discipline=config.discipline,
        result_mode=config.result_mode,
        mark_granularity=config.mark_granularity,
        forwarding=forwarding,
        is_site_up=is_site_up,
        on_query_complete=on_query_complete,
        batching=config.batching,
        caching=config.caching,
        replicas=replicas,
        qos=config.qos,
    )
    node.now_fn = now_fn
    return node


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


class _Inflight:
    __slots__ = ("submitted_at", "deadline_s", "timer")

    def __init__(self, submitted_at: float, deadline_s: Optional[float]) -> None:
        self.submitted_at = submitted_at
        self.deadline_s = deadline_s
        #: A deadline event armed on the cluster's own clock (the
        #: simulator's), cancelled when the query completes first.
        self.timer: Optional[object] = None


class ClusterBase:
    """The :class:`~repro.api.ClusterAPI` surface, once, for every transport.

    A concrete transport sets up what its seams need (see the module
    docstring), then calls ``super().__init__(sites, config, now=...)``,
    which resolves the site names, builds every site and arms the
    replication, membership and telemetry planes.  Everything
    client-visible — qid allocation, the in-flight registry that carries
    ``deadline_s`` across the submit/wait split, outcome construction,
    the uniform failure types — lives here, so the transports cannot
    drift apart.
    """

    #: What a node charges per operation: nothing on the wall-clock
    #: transports, whose time is real.  The simulator sets its model.
    costs = FREE_COSTS

    def __init__(self, sites: Union[int, Iterable[str]], config, *, now: Callable[[], float]):
        names = site_names(sites)
        self.config = config
        self._now = now
        self._closed = False
        self._seq = 0
        self._seq_lock = threading.Lock()
        #: Queries submitted and not yet completed (the keys *are* the set).
        self._inflight: Dict[QueryId, _Inflight] = {}
        self._outcomes = OutcomeTable()
        qos = self.qos = config.qos
        self._qos_limiter: Optional[ClientLimiter] = None
        if qos is not None and qos.rate_limit_qps is not None:
            from ..qos.limiter import ClientLimiter

            self._qos_limiter = ClientLimiter(qos.rate_limit_qps, qos.rate_burst, now)
        #: Submits bounced by admission control (see `repro qos-stats`).
        self.qos_bounces = 0
        self.metrics = None
        self.flight_recorder = None
        self.stats_timeline = None
        self._flightrec_dumped: "OrderedDict[QueryId, None]" = OrderedDict()
        self._stats_stop = threading.Event()
        self._stats_thread: Optional[threading.Thread] = None
        #: The wall-clock timer wheel behind ``_schedule``, started on first use.
        self._timers: Optional[TimerThread] = None
        self.membership: Optional[MembershipService] = None
        self.rebalancer: Optional[Rebalancer] = None
        self.replication: Optional[ReplicationManager] = None
        self.stores: Dict[str, MemStore] = {}
        self.forwarding: Dict[str, ForwardingTable] = {}
        self.nodes: Dict[str, ServerNode] = {}
        self.wire = self._open_wire()
        self._build_sites(names)
        self._init_membership()
        self._init_telemetry()

    # -- site build ------------------------------------------------------

    def _build_sites(self, names: List[str]) -> None:
        """Build every site's store, forwarding table and node, then the
        replication plane over them.  Process mode overrides this: its
        nodes live in the child processes."""
        replication = self.config.replication
        directory = (
            ReplicaDirectory() if replication is not None and replication.enabled else None
        )
        for name in names:
            self._build_site(name, directory)
        self._wire_replication(directory)

    def _build_site(self, name: str, directory: Optional[ReplicaDirectory]) -> ServerNode:
        """One site's store/forwarding/node stack, handed to the transport
        (founding sites and sites joining a running cluster alike)."""
        store = MemStore(name)
        table = ForwardingTable(name)
        node = build_node(
            name,
            store,
            self.config,
            costs=self.costs,
            now_fn=self._now,
            forwarding=table,
            replicas=directory,
            on_query_complete=self._on_complete,
            is_site_up=self.wire.is_up,
        )
        self.stores[name] = store
        self.forwarding[name] = table
        self.nodes[name] = node
        self._attach_site(node)
        return node

    def _wire_replication(self, directory: Optional[ReplicaDirectory]) -> None:
        """Arm k-way replication over the built sites.  Write fan-out
        invalidates every node's cached view of the mutated holders
        immediately (version/epoch gating)."""
        if directory is None:
            return
        from ..replication.manager import ReplicationManager

        self.replication = ReplicationManager(
            self.config.replication, self.stores, self.forwarding, directory
        )
        for node in self.nodes.values():
            self.replication.add_epoch_listener(node.observe_epoch)

    # -- the wire: availability, faults, the reliable channel -------------

    def _open_wire(self) -> WirePolicy:
        """The delivery policy over ``_deliver``, ``_schedule`` and the clock."""
        return WirePolicy(
            self.nodes, deliver=self._deliver, schedule=self._schedule, clock=self._now
        )

    def _schedule(self, delay: float, fn: Callable[[], None]):
        """Run ``fn`` after ``delay`` wall-clock seconds, on one shared
        :class:`~repro.faults.timers.TimerThread` (delayed copies,
        retransmits, scheduled crashes)."""
        with self._seq_lock:
            if self._timers is None:
                self._timers = TimerThread()
        return self._timers.schedule(delay, fn)

    def _arm_faults(self) -> None:
        """Adopt the config's reliable channel and fault plan; a transport
        calls this once its sites are serving."""
        reliable = self.config.reliable
        if reliable:
            self.enable_reliable(reliable if isinstance(reliable, ReliableConfig) else None)
        if self.config.fault_plan is not None:
            self.use_faults(self.config.fault_plan)

    def is_up(self, site: str) -> bool:
        return self.wire.is_up(site)

    def set_down(self, site: str) -> None:
        """Freeze a site: what was delivered to it waits for ``set_up``;
        a copy sent to it meanwhile is refused at hand-off (work bounces)."""
        self.wire.set_down(site)
        self._site_down(site)

    def set_up(self, site: str) -> None:
        self.wire.set_up(site)
        self._site_up(site)

    def _site_down(self, site: str) -> None:
        """Tell ``site``'s host it is down (a host that checks the wire's
        ``down`` set before each burst needs nothing)."""

    def _site_up(self, site: str) -> None:
        """Wake ``site``'s frozen host."""

    def use_faults(self, plan: FaultPlan) -> FaultPlan:
        """Adopt a chaos schedule: link faults apply from now on, and the
        plan's timed crashes are armed on the transport's clock, counted
        from now."""
        for crash in plan.crashes:
            if crash.site not in self.nodes:
                raise UnknownSite(crash.site)
        self.wire.fault_plan = plan
        for crash in plan.crashes:
            self.wire.schedule(crash.at, lambda s=crash.site: self.set_down(s))
            if crash.recover_at is not None:
                self.wire.schedule(crash.recover_at, lambda s=crash.site: self.set_up(s))
        return plan

    def enable_reliable(self, config: Optional[ReliableConfig] = None) -> None:
        """Interpose the ack/retransmit channel on every link."""
        self.wire.enable_reliable(config)

    @property
    def reliable_enabled(self) -> bool:
        return self.wire.endpoints is not None

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        return self.wire.fault_plan

    @property
    def messages_dropped(self) -> int:
        """Envelopes the wire did not deliver: fault-plan drops and
        refused copies (a down or unknown destination, a give-up)."""
        return self.wire.messages_dropped

    @property
    def undeliverable(self):
        """The most recent refused envelopes (a bounded ring; the wire's
        ``undeliverable_total`` counts them all)."""
        return self.wire.undeliverable

    # -- topology ----------------------------------------------------------

    @property
    def sites(self) -> List[str]:
        return list(self.nodes)

    def store(self, site: str):
        try:
            return self.stores[site]
        except KeyError:
            raise UnknownSite(site) from None

    def node(self, site: str):
        try:
            return self.nodes[site]
        except KeyError:
            raise UnknownSite(site) from None

    def is_down(self, site: str) -> bool:
        return not self.is_up(site)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- membership (administrative) --------------------------------------

    def _init_membership(self) -> None:
        """Arm membership (view service, rebalancer, routing guards) when
        the config asks for it; ``membership=None`` leaves every hook at
        its default, so a static deployment runs bit-identically."""
        config = self.config.membership
        if config is None:
            return
        from ..membership import MembershipService, Rebalancer

        self._arm_gossip(config)
        self.membership = MembershipService(config, list(self.nodes))
        self.rebalancer = Rebalancer(
            self.replication, self.stores, self.forwarding, self.membership
        )
        if self.replication is not None:
            self.replication.active_sites = lambda: list(self.membership.view.active)
        self.membership.add_listener(self._on_membership_change)
        self._apply_membership_view()

    def _arm_gossip(self, config) -> None:
        """The gossip failure detector needs a clock the cluster drives
        (the simulator's, which overrides this); wall-clock transports
        take administrative membership only."""
        if config.heartbeat_s is not None:
            raise ConfigError(
                "membership.heartbeat_s",
                "the gossip failure detector runs on the simulator's virtual "
                "clock; wall-clock transports take administrative membership "
                "only (join_site / leave_site / fail_site)",
            )

    def _apply_membership_view(self) -> None:
        """Point every node's routing guard at the current view."""
        assert self.membership is not None
        for node in self.nodes.values():
            node.membership_status = self.membership.status_of

    def _on_membership_change(self, old_view, new_view, reason: str) -> None:
        self._apply_membership_view()
        tracer = self._cluster_tracer()
        if tracer is not None:
            tracer.emit(
                "cluster", "member", "",
                reason=reason, epoch=new_view.epoch, active=len(new_view.active),
            )
        assert self.membership is not None
        if (
            self.membership.config.auto_rebalance
            and reason in ("join", "leave", "fail")
            and self.rebalancer is not None
        ):
            report = self.rebalancer.rebalance(reason)
            if tracer is not None:
                tracer.emit(
                    "cluster", "rebalance", "",
                    reason=reason,
                    epoch=new_view.epoch,
                    moved=report.moved,
                    installed=report.copies_installed,
                    lost=report.lost,
                )

    @property
    def membership_view(self) -> MembershipView:
        """The current membership view (``ConfigError`` without
        ``membership=``, like the administrative calls)."""
        return self._require_membership().view

    def _require_membership(self) -> MembershipService:
        if self.membership is None:
            raise ConfigError(
                "membership",
                "this cluster was built without ClusterConfig(membership=...)",
            )
        return self.membership

    def join_site(self, site: str) -> MembershipView:
        """Admit ``site`` (a brand-new site where the transport can build
        one, or a rejoin of one that left).  The view change rebalances
        the ring: the site takes over its rendezvous share of backups."""
        service = self._require_membership()
        if site not in self.nodes:
            self._add_site(site)
        self.set_up(site)
        view = service.join(site)
        self._maybe_finalize_membership()
        return view

    def _add_site(self, site: str) -> None:
        """Threads, sockets and child processes are created at
        construction, so a wall-clock transport only re-admits sites it
        was built with; the simulator builds new ones."""
        raise ConfigError(
            "membership",
            f"{site!r} has no provisioned endpoint; new sites can only "
            "join on the simulator transport",
        )

    def leave_site(self, site: str) -> MembershipView:
        """Begin a graceful leave: the site's placements move to the
        remaining members immediately (routing stops targeting it), its
        local copies linger until it has drained the work already in
        hand, and the departure is finalized at the next idle point."""
        view = self._require_membership().leave_begin(site)
        self._maybe_finalize_membership()
        return view

    def fail_site(self, site: str) -> MembershipView:
        """Declare ``site`` permanently crashed: stop routing to it,
        restore the replication target from the survivors, and write the
        dead machine's store off (a later rejoin starts empty — what was
        only there is lost, and stays lost)."""
        service = self._require_membership()
        if site in self.nodes:
            self._crash_site(site)
        view = service.fail(site)
        self._wipe_store(site)
        self._maybe_finalize_membership()
        return view

    def _crash_site(self, site: str) -> None:
        self.set_down(site)

    def finalize_membership(self) -> None:
        """Force the idle-point membership work now: finalize drained
        leavers and delete displaced copies."""
        self._require_membership()
        self._maybe_finalize_membership()

    def _maybe_finalize_membership(self) -> None:
        """Idle-point membership work: finalize leavers that originate no
        query in flight and hold no work, then — once no query is in
        flight — delete the displaced copies the rebalancer deferred
        (they may still serve admitted work; see docs/MEMBERSHIP.md)."""
        if self.membership is None:
            return
        for site in list(self.membership.view.leaving):
            node = self.nodes.get(site)
            if (node is not None and node.has_work) or any(
                qid.originator == site for qid in self._inflight
            ):
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
        store = self.stores.get(site)
        if store is None:
            return
        try:
            for oid in list(store.oids()):
                store.remove(oid)
        except HyperFileError:
            pass

    # -- telemetry ---------------------------------------------------------

    def _init_telemetry(self) -> None:
        """Arm the flight recorder (every node's default tracer) and the
        streaming-stats timeline from the config."""
        config = self.config
        if config.flight_recorder is not None:
            from ..tracing import FlightRecorder

            recorder = FlightRecorder(config.flight_recorder)
            recorder.now_fn = self._now
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
        :meth:`_stop_threads` for a prompt exit)."""

        def loop() -> None:
            while not self._stats_stop.wait(period_s):
                if self._closed:
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

    def _stop_threads(self) -> None:
        """Stop the cluster's own threads: the stats sampler and the timer
        wheel (``close`` calls this)."""
        self._stats_stop.set()
        if self._stats_thread is not None:
            self._stats_thread.join(timeout=1.0)
            self._stats_thread = None
        if self._timers is not None:
            self._timers.stop()

    def _sample_stats(self) -> None:
        sites: Dict[str, Dict[str, object]] = {}
        for site, node in self.nodes.items():
            sample = node.stats.sample()
            sample["work_depth"] = node.work_depth
            sites[site] = sample
        self.stats_timeline.append(self._now(), sites)
        tracer = self._cluster_tracer()
        if tracer is not None:
            tracer.emit("cluster", "stats_push", "", sites=len(sites))

    def _cluster_tracer(self):
        """Where cluster-level events (stats, view changes) are traced."""
        return next(iter(self.nodes.values())).tracer

    def _credit_deficit(self, qid: QueryId):
        """Cluster-wide missing termination credit for ``qid`` (the
        TerminationLost diagnostic).  The default reads the in-process
        node contexts; process mode overrides this to ask each child
        over the control channel."""
        return credit_deficit(self.nodes, qid)

    def _flightrec_dump(self, qid: QueryId, reason: str) -> None:
        """Dump the flight-recorder ring once per dying query.  Process
        mode overrides this to pull each child's ring first."""
        if self._first_dump(qid):
            self.flight_recorder.dump(qid, reason, site=qid.originator)

    def _first_dump(self, qid: QueryId) -> bool:
        """Whether a flight recorder is armed and ``qid`` is not among the
        last ``RECENT_DUMPS`` queries dumped; it is counted among them now."""
        dumped = self._flightrec_dumped
        if self.flight_recorder is None or qid in dumped:
            return False
        dumped[qid] = None
        if len(dumped) > RECENT_DUMPS:
            dumped.popitem(last=False)
        return True

    def _admit(self, client: str) -> None:
        """Token-bucket admission control; bounces with :class:`Overloaded`."""
        if self._qos_limiter is None:
            return
        if not self._qos_limiter.try_acquire(client):
            self.qos_bounces += 1
            if self.metrics is not None:
                self.metrics.counter("qos.overload_bounces_total", client=client).inc()
            raise Overloaded(client, retry_after_s=self._qos_limiter.retry_after_s(client))

    # -- ClusterAPI ------------------------------------------------------

    def compile(self, query: QueryLike) -> Program:
        """Accept query text, AST, or a compiled program."""
        return compile_query_like(query)

    def _origin(self, origin: str) -> str:
        """Check that ``origin`` can originate a query: a known site that
        has not departed (a departing originator could never deliver its
        answer)."""
        if self._closed:
            raise TransportClosed("cluster is closed")
        if origin not in self.nodes:
            raise UnknownSite(origin)
        if self.membership is not None:
            from ..membership.view import UP

            status = self.membership.status_of(origin)
            if status != UP:
                raise SiteDeparted(origin, status)
        return origin

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

        ``deadline_s`` starts counting now: if the query has not
        terminated by then it is force-completed with whatever results
        arrived, flagged ``partial=True``.  With a QoS config active,
        ``priority`` selects the service class and ``client`` is the
        admission-control identity; a drained token bucket bounces the
        submit with :class:`~repro.errors.Overloaded` before anything is
        installed.
        """
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if priority is not None and priority not in PRIORITIES:
            raise ValueError(f"priority must be one of {PRIORITIES}, got {priority!r}")
        program = compile_query_like(query)
        origin = self._origin(originator if originator is not None else self.sites[0])
        self._admit(client)
        qid = self._next_qid(origin)
        self._inflight[qid] = _Inflight(self._now(), deadline_s)
        self._dispatch_submit(origin, qid, program, list(initial), priority, client)
        return qid

    def submit_followup(
        self,
        query: QueryLike,
        source_qid: QueryId,
        originator: Optional[str] = None,
    ) -> QueryId:
        """Start a query whose initial set is a *distributed set* held at
        the sites (paper §5's optimisation)."""
        program = compile_query_like(query)
        origin = self._origin(originator if originator is not None else source_qid.originator)
        qid = self._next_qid(origin)
        self._inflight[qid] = _Inflight(self._now(), None)
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
            elapsed = self._now() - info.submitted_at
            deadline_remaining = max(info.deadline_s - elapsed, 0.0005)
        try:
            outcome = await_completion(
                self._outcomes,
                qid,
                budget,
                deadline_remaining,
                expire=lambda: self._dispatch_expire(qid.originator, qid),
                diagnose=lambda: (self._credit_deficit(qid), self.wire.undeliverable_total),
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
        in flight (migration is outside the paper's query cost model).
        With replication enabled the move is replication-aware: the new
        primary leads the holder list and k copies are preserved.
        """
        if self.replication is not None:
            return self.replication.migrate(oid, to_site)
        from ..naming.names import migrate_object

        return migrate_object(oid, self.stores, self.forwarding, to_site)

    def replicate_all(self) -> int:
        """Install the configured k copies of every loaded object (call
        once after loading the workload); no-op (returns 0) without a
        replication config."""
        return self.replication.replicate_all() if self.replication is not None else 0

    def total_stats(self) -> NodeStats:
        """Cluster-wide node counters, merged.

        On a wall-clock transport this reads live per-site state without
        stopping the sites; counters are monotonically increasing ints,
        so the snapshot is sane but not a consistent cut.
        """
        merged = NodeStats()
        for node in self.nodes.values():
            merged.merge(node.stats)
        return merged

    # -- observability ---------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Record a :class:`~repro.tracing.QueryTracer` timeline of every
        node's work, timestamped with the cluster's clock (span ids stay
        valid across site threads: the tracer's allocation is
        thread-safe).  With the flight recorder armed the tracer is teed
        into its ring, so postmortem dumps stay current while a user
        tracer is attached."""
        tracer.now_fn = self._now
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
        registry = self.metrics
        if registry is None:
            return None
        for site, node in self.nodes.items():
            registry.publish_node_stats(site, node.stats)
        return registry.snapshot()

    # -- transport-side plumbing ----------------------------------------

    def _dispatch_submit(
        self,
        origin: str,
        qid: QueryId,
        program: Program,
        initial: List[Oid],
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> None:
        self._at_site(
            origin, lambda node: node.submit(qid, program, initial, priority=priority, tenant=tenant)
        )

    def _dispatch_submit_from_saved(
        self, origin: str, qid: QueryId, program: Program, source_qid: QueryId
    ) -> None:
        self._at_site(
            origin, lambda node: node.submit_from_saved(qid, program, source_qid, self.sites)
        )

    def _dispatch_expire(self, origin: str, qid: QueryId) -> None:
        self._at_site(origin, lambda node: node.expire_query(qid))

    def _next_qid(self, originator: str) -> QueryId:
        with self._seq_lock:
            self._seq += 1
            return QueryId(self._seq, originator)

    def _on_complete(self, qid: QueryId, result: QueryResult) -> None:
        """A query completed at its originator (on a wall-clock transport:
        on the originator's site, under its node lock)."""
        node = self.nodes.get(qid.originator)
        ctx = node.contexts.get(qid) if node is not None else None
        self._record_outcome(
            qid,
            result,
            dict(ctx.partition_counts) if ctx is not None and ctx.partition_counts else None,
        )

    def _record_outcome(
        self, qid: QueryId, result: QueryResult, partition_counts: Optional[Dict[str, int]]
    ) -> None:
        """Turn a completion into the client's :class:`QueryOutcome`."""
        info = self._inflight.pop(qid, None)
        if info is not None and info.timer is not None:
            info.timer.cancel()
        outcome = QueryOutcome(
            qid=qid,
            result=result,
            submitted_at=info.submitted_at if info is not None else 0.0,
            completed_at=self._now(),
            client_link_s=self.costs.client_link_s,
            partition_counts=partition_counts,
        )
        metrics = self.metrics
        if metrics is not None:
            metrics.histogram("cluster.response_time_s").observe(outcome.response_time)
            metrics.counter("cluster.queries_completed_total").inc()
        self._outcomes.put(qid, outcome)
