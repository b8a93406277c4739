"""Cluster assembly: a complete simulated HyperFile deployment.

:class:`SimCluster` wires together everything the paper's prototype had —
per-site stores and server nodes, the (simulated) network, termination
detection — and exposes the operations the experimental client performed:
load objects, submit a query at an originating site, wait for completion,
read the response time off the (virtual) wall clock.

Typical use::

    cluster = SimCluster(3)
    s0 = cluster.store("site0")
    a = s0.create([keyword_tuple("Distributed")])
    ...
    outcome = cluster.run_query(
        "S [ (Pointer, \\"Reference\\", ?X) | ^^X ]* (Keyword, \\"Distributed\\", ?) -> T",
        initial=[a.oid],
    )
    outcome.result.oids, outcome.response_time
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from .api import OutcomeTable, QueryLike, QueryOutcome, compile_query_like, credit_deficit
from .config import ClusterConfig, resolve_config
from .core.oid import Oid
from .engine.results import QueryResult
from .errors import (
    ConfigError,
    HyperFileError,
    Overloaded,
    QueryTimeout,
    SiteDeparted,
    TerminationLost,
    UnknownSite,
)
from .faults.plan import FaultPlan
from .faults.reliable import ReliableConfig
from .membership import UP, MembershipService, MembershipView, Rebalancer
from .naming.directory import ForwardingTable, ReplicaDirectory
from .naming.names import migrate_object
from .cache import CacheConfig
from .net.batching import BatchConfig
from .qos import PRIORITIES, ClientLimiter, QoSConfig
from .replication import ReplicationConfig, ReplicationManager
from .net.messages import Envelope, Heartbeat, QueryId
from .net.simnet import SimNetwork
from .server.node import ServerNode
from .server.stats import NodeStats
from .sim.costs import CostModel, PAPER_COSTS
from .sim.kernel import Simulator
from .termination.base import TerminationStrategy, make_strategy

__all__ = ["QueryLike", "QueryOutcome", "SimCluster", "site_name"]


def site_name(index: int) -> str:
    """Canonical site naming used throughout benchmarks: site0, site1, ..."""
    return f"site{index}"


class SimCluster:
    """A set of HyperFile sites over a simulated network."""

    def __init__(
        self,
        sites: Union[int, Iterable[str]] = 3,
        costs: Optional[CostModel] = None,
        termination: Union[str, TerminationStrategy] = "weighted",
        discipline: str = "fifo",
        result_mode: str = "ship",
        mark_granularity: str = "iteration",
        fault_plan: Optional[FaultPlan] = None,
        reliable: Union[bool, ReliableConfig] = False,
        batching: Optional[BatchConfig] = None,
        caching: Optional[CacheConfig] = None,
        replication: Optional[ReplicationConfig] = None,
        qos: Optional[QoSConfig] = None,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        config = resolve_config(
            config,
            owner="SimCluster",
            costs=costs,
            termination=termination,
            discipline=discipline,
            result_mode=result_mode,
            mark_granularity=mark_granularity,
            fault_plan=fault_plan,
            reliable=reliable,
            batching=batching,
            caching=caching,
            replication=replication,
            qos=qos,
        )
        config.require_default("processes", transport="sim")
        self.config = config
        costs = config.costs if config.costs is not None else PAPER_COSTS
        termination = config.termination
        discipline = config.discipline
        result_mode = config.result_mode
        mark_granularity = config.mark_granularity
        fault_plan = config.fault_plan
        reliable = config.reliable
        batching = config.batching
        caching = config.caching
        replication = config.replication
        qos = config.qos
        if isinstance(sites, int):
            names = [site_name(i) for i in range(sites)]
        else:
            names = list(sites)
        if not names:
            raise ValueError("a cluster needs at least one site")
        if len(set(names)) != len(names):
            raise ValueError("site names must be unique")

        self.sim = Simulator()
        self.network = SimNetwork(self.sim)
        self.costs = costs
        strategy = termination if isinstance(termination, TerminationStrategy) else make_strategy(termination)
        self.termination = strategy

        from .storage.memstore import MemStore

        directory = (
            ReplicaDirectory() if replication is not None and replication.enabled else None
        )
        self.stores: Dict[str, MemStore] = {}
        self.forwarding: Dict[str, ForwardingTable] = {}
        self.nodes: Dict[str, ServerNode] = {}
        for name in names:
            store = MemStore(name)
            table = ForwardingTable(name)
            node = ServerNode(
                name,
                store,
                costs=costs,
                termination=strategy,
                discipline=discipline,
                result_mode=result_mode,
                mark_granularity=mark_granularity,
                forwarding=table,
                batching=batching,
                caching=caching,
                replicas=directory,
                qos=qos,
            )
            self.stores[name] = store
            self.forwarding[name] = table
            self.nodes[name] = node
            # Virtual clock: batching never timer-flushes on sim (the
            # value is only stored), but SLO watermarks stamp from it.
            node.now_fn = lambda: self.sim.now
            host = self.network.attach(node)
            host.completion_sink = self._on_complete

        self.replication: Optional[ReplicationManager] = None
        if directory is not None:
            assert replication is not None
            self.replication = ReplicationManager(
                replication, self.stores, self.forwarding, directory
            )
            for node in self.nodes.values():
                # Write fan-out invalidates every node's cached view of
                # the mutated holders immediately (version/epoch gating).
                self.replication.add_epoch_listener(node.observe_epoch)

        # Dynamic membership: view service + rebalancer + routing hooks.
        # config.membership=None leaves every hook at its default, so the
        # static-membership build runs bit-identically to before.
        self.membership: Optional[MembershipService] = None
        self.rebalancer: Optional[Rebalancer] = None
        self._hb_armed = False
        self._hb_outstanding = 0
        self._last_failed_site: Optional[str] = None
        if config.membership is not None:
            self.membership = MembershipService(config.membership, names)
            self.rebalancer = Rebalancer(
                self.replication, self.stores, self.forwarding, self.membership
            )
            if self.replication is not None:
                self.replication.active_sites = lambda: list(self.membership.view.active)
            for node in self.nodes.values():
                node.membership_status = self.membership.status_of
                node.heartbeat_sink = self._on_heartbeat
            self.membership.add_listener(self._on_view_change)

        self.qos = qos
        self._qos_limiter: Optional[ClientLimiter] = (
            ClientLimiter(qos.rate_limit_qps, qos.rate_burst, lambda: self.sim.now)
            if qos is not None and qos.rate_limit_qps is not None
            else None
        )
        #: Submits bounced by admission control (see `repro qos-stats`).
        self.qos_bounces = 0
        self._seq = 0
        #: Submit times of the queries in flight (an entry moves into
        #: the QueryOutcome at completion, so the keys *are* the set).
        self._submitted_at: Dict[QueryId, float] = {}
        self._completed = OutcomeTable()
        self._waiting = False
        self._deadline_handles: Dict[QueryId, object] = {}
        # Telemetry plane: crash flight recorder + streaming stats.
        self.flight_recorder = None
        if config.flight_recorder is not None:
            from .tracing import FlightRecorder

            self.flight_recorder = FlightRecorder(config.flight_recorder)
            self.flight_recorder.now_fn = lambda: self.sim.now
            for node in self.nodes.values():
                node.tracer = self.flight_recorder
        self._flightrec_dumped: set = set()
        self.stats_timeline = None
        self._stats_stream_s = config.stats_stream_s
        self._stats_sampler_armed = False
        if config.stats_stream_s is not None:
            from .metrics.collect import StatsTimeline

            self.stats_timeline = StatsTimeline()
        if reliable:
            self.enable_reliable(reliable if isinstance(reliable, ReliableConfig) else None)
        if fault_plan is not None:
            self.use_faults(fault_plan)

    # ------------------------------------------------------------------
    # lifecycle (ClusterAPI parity: the simulator holds no real resources)
    # ------------------------------------------------------------------

    def close(self) -> None:
        """No-op: everything is in-process state, freed with the object."""

    def __enter__(self) -> "SimCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # topology / data management
    # ------------------------------------------------------------------

    @property
    def sites(self) -> List[str]:
        return list(self.nodes)

    def store(self, site: str):
        try:
            return self.stores[site]
        except KeyError:
            raise UnknownSite(site) from None

    def node(self, site: str) -> ServerNode:
        try:
            return self.nodes[site]
        except KeyError:
            raise UnknownSite(site) from None

    def migrate(self, oid: Oid, to_site: str) -> Oid:
        """Move an object between sites, maintaining naming invariants.

        With replication enabled the move is replication-aware: the new
        primary leads the holder list and k copies are preserved."""
        if self.replication is not None:
            return self.replication.migrate(oid, to_site)
        return migrate_object(oid, self.stores, self.forwarding, to_site)

    def replicate_all(self) -> int:
        """Install the configured k copies of every loaded object.

        Call once after loading the workload (and after any direct
        ``store.create`` writes).  No-op (returns 0) without a
        replication config."""
        if self.replication is None:
            return 0
        return self.replication.replicate_all()

    def set_down(self, site: str) -> None:
        self.network.set_down(site)

    def set_up(self, site: str) -> None:
        self.network.set_up(site)

    def is_up(self, site: str) -> bool:
        return self.network.is_up(site)

    def is_down(self, site: str) -> bool:
        return not self.network.is_up(site)

    def set_link_latency(self, a: str, b: str, seconds: float) -> None:
        """Override one link's wire latency (heterogeneous deployments)."""
        self.network.set_link_latency(a, b, seconds)

    # ------------------------------------------------------------------
    # dynamic membership (config.membership; see docs/MEMBERSHIP.md)
    # ------------------------------------------------------------------

    @property
    def membership_view(self) -> Optional[MembershipView]:
        """The current membership view (None without ``membership=``)."""
        return self.membership.view if self.membership is not None else None

    def _require_membership(self) -> MembershipService:
        if self.membership is None:
            raise ConfigError(
                "membership",
                "this cluster was built without ClusterConfig(membership=...)",
            )
        return self.membership

    def join_site(self, site: str) -> MembershipView:
        """Admit ``site`` to the cluster (a brand-new site, or a rejoin
        of one that gracefully left).  The view change rebalances the
        ring: the new site takes over its rendezvous share of backups.
        """
        service = self._require_membership()
        if site not in self.nodes:
            self._add_site(site)
        self.network.set_up(site)
        view = service.join(site)
        self._maybe_finalize_membership()
        return view

    def leave_site(self, site: str) -> MembershipView:
        """Begin a graceful leave: the site's placements move to the
        remaining members immediately (routing stops targeting it), its
        local copies linger until it has drained the work already in
        hand, and the departure is finalized at the next idle point.
        """
        service = self._require_membership()
        view = service.leave_begin(site)
        self._maybe_finalize_membership()
        return view

    def fail_site(self, site: str) -> MembershipView:
        """Declare ``site`` permanently crashed.

        The machine is gone: queued work bounces back to its senders
        (credit recovery), the store's content is formally lost, and the
        rebalance restores k copies of everything it held from the
        surviving replicas.  Work the site held *in execution* takes its
        credit with it — the flight recorder attributes that loss.
        """
        service = self._require_membership()
        self.network.crash_permanently(site)
        self._last_failed_site = site
        view = service.fail(site)
        store = self.stores[site]
        for oid in list(store.oids()):
            store.remove(oid)
        self._maybe_finalize_membership()
        return view

    def finalize_membership(self) -> None:
        """Force the idle-point membership work now: finalize drained
        leavers and delete displaced copies (tests/admin; the cluster
        also runs this after every query completion)."""
        self._maybe_finalize_membership()

    def _on_view_change(self, old, new, reason: str) -> None:
        tracer = self._cluster_tracer()
        if tracer is not None:
            tracer.emit(
                "cluster", "member", "",
                reason=reason, epoch=new.epoch, active=len(new.active),
            )
        cfg = self.config.membership
        if (
            cfg is not None
            and cfg.auto_rebalance
            and reason in ("join", "leave", "fail")
            and self.rebalancer is not None
        ):
            report = self.rebalancer.rebalance(reason)
            if tracer is not None:
                tracer.emit(
                    "cluster", "rebalance", "",
                    reason=reason,
                    epoch=new.epoch,
                    moved=report.moved,
                    installed=report.copies_installed,
                    lost=report.lost,
                )

    def _maybe_finalize_membership(self) -> None:
        """Idle-point membership work: finalize drained leavers, then —
        once no query is in flight — delete the displaced copies the
        rebalancer deferred (they may still be serving admitted work
        while queries run; see docs/MEMBERSHIP.md)."""
        if self.membership is None:
            return
        for site in self.membership.view.leaving:
            node = self.nodes[site]
            if node.has_work or any(q.originator == site for q in self._submitted_at):
                continue
            self.network.set_down(site)
            if self.rebalancer is not None:
                self.rebalancer.flush_removals(lambda s, target=site: s == target)
            store = self.stores[site]
            for oid in list(store.oids()):
                store.remove(oid)
            self.membership.leave_finalize(site)
        if self.rebalancer is not None and not self._submitted_at:
            self.rebalancer.flush_removals(lambda _s: True)

    def _add_site(self, name: str) -> None:
        """Build the store/node/host stack for a site joining a running
        cluster, wired exactly like a founding site's."""
        from .storage.memstore import MemStore

        cfg = self.config
        store = MemStore(name)
        table = ForwardingTable(name)
        node = ServerNode(
            name,
            store,
            costs=self.costs,
            termination=self.termination,
            discipline=cfg.discipline,
            result_mode=cfg.result_mode,
            mark_granularity=cfg.mark_granularity,
            forwarding=table,
            batching=cfg.batching,
            caching=cfg.caching,
            replicas=self.replication.directory if self.replication is not None else None,
            qos=cfg.qos,
        )
        self.stores[name] = store
        self.forwarding[name] = table
        self.nodes[name] = node
        node.now_fn = lambda: self.sim.now
        node.tracer = next(iter(self.nodes.values())).tracer
        node.metrics = getattr(self, "metrics", None)
        host = self.network.attach(node)
        host.completion_sink = self._on_complete
        if self.replication is not None:
            self.replication.add_epoch_listener(node.observe_epoch)
        if self.membership is not None:
            node.membership_status = self.membership.status_of
            node.heartbeat_sink = self._on_heartbeat

    # -- gossip failure detector (simulator timers) --------------------

    def _on_heartbeat(self, counters) -> None:
        self._hb_outstanding = max(0, self._hb_outstanding - 1)
        if self.membership is not None:
            self.membership.observe_heartbeat(counters)

    def _arm_heartbeat(self) -> None:
        """Start the gossip pump if the detector is configured.

        Same arming policy as the stats sampler: the pump runs while
        queries are in flight and stops when it has nothing to suspect,
        so it can never keep a dead simulation ticking forever."""
        cfg = self.config.membership
        if (
            self.membership is None
            or cfg is None
            or cfg.heartbeat_s is None
            or self._hb_armed
        ):
            return
        self._hb_armed = True
        self.sim.schedule(cfg.heartbeat_s, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        cfg = self.config.membership
        service = self.membership
        assert cfg is not None and service is not None
        # Judge the evidence delivered during the previous period first,
        # then produce this period's frames.
        for site in service.detect():
            if service.status_of(site) == UP and len(service.view.active) > 1:
                self.fail_site(site)
        self._hb_outstanding = 0
        for site in service.view.active:
            if not self.network.is_up(site):
                continue  # a frozen site cannot run its own timer
            counters = service.beat(site)
            for peer in service.gossip_peers(site):
                self.network.send(Envelope(site, peer, Heartbeat(site, counters)), self.sim.now)
                self._hb_outstanding += 1
        other_pending = max(0, self.sim.pending - self._hb_outstanding)
        if self._submitted_at and (other_pending > 0 or service.suspicious()):
            self.sim.schedule(cfg.heartbeat_s, self._heartbeat_tick)
        else:
            self._hb_armed = False

    def _cluster_tracer(self):
        return next(iter(self.nodes.values())).tracer

    def use_faults(self, plan: FaultPlan) -> FaultPlan:
        """Adopt a chaos schedule: per-message faults apply from now on,
        and the plan's timed site crashes are scheduled on the clock."""
        self.network.fault_plan = plan
        for crash in plan.crashes:
            if crash.site not in self.nodes:
                raise UnknownSite(crash.site)
            self.sim.schedule_at(crash.at, lambda s=crash.site: self.network.set_down(s))
            if crash.recover_at is not None:
                self.sim.schedule_at(crash.recover_at, lambda s=crash.site: self.network.set_up(s))
        return plan

    def enable_reliable(self, config: Optional[ReliableConfig] = None) -> None:
        """Interpose the ack/retransmit channel on every link."""
        self.network.enable_reliable(config)

    def attach_tracer(self, tracer) -> None:
        """Record a :class:`~repro.tracing.QueryTracer` timeline of every
        node's work, timestamped with virtual time.  With the flight
        recorder armed the tracer is teed into its ring, so postmortem
        dumps stay current while a user tracer is attached."""
        tracer.now_fn = lambda: self.sim.now
        if self.flight_recorder is not None:
            from .tracing import TeeTracer

            tracer = TeeTracer(tracer, self.flight_recorder)
        for node in self.nodes.values():
            node.tracer = tracer

    def detach_tracer(self) -> None:
        for node in self.nodes.values():
            node.tracer = self.flight_recorder

    def enable_metrics(self, registry=None):
        """Publish transport/batching telemetry into a
        :class:`~repro.metrics.MetricsRegistry` (created if not given).
        Returns the registry; read it with :meth:`metrics_snapshot`."""
        if registry is None:
            from .metrics.registry import MetricsRegistry

            registry = MetricsRegistry()
        self.metrics = registry
        for node in self.nodes.values():
            node.metrics = registry
        self.network.metrics = registry
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

    def total_objects(self) -> int:
        return sum(len(s) for s in self.stores.values())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def compile(self, query: QueryLike):
        """Accept query text, AST, or a compiled program."""
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

        ``deadline_s`` arms an originator-side timer: if the query has
        not terminated after that much virtual time it is force-completed
        with whatever results arrived, flagged ``partial=True``.

        ``priority`` is the QoS service class (``"interactive"`` or
        ``"batch"``; meaningful only with ``qos=``), and ``client`` names
        the submitting tenant for per-client rate limiting — an empty
        token bucket bounces the submit with
        :class:`~repro.errors.Overloaded` before anything is installed.
        """
        if priority is not None and priority not in PRIORITIES:
            raise ValueError(f"priority must be one of {PRIORITIES}, got {priority!r}")
        program = self.compile(query)
        origin = originator if originator is not None else self.sites[0]
        if origin not in self.nodes:
            raise UnknownSite(origin)
        if self.membership is not None:
            status = self.membership.status_of(origin)
            if status != UP:
                # A departing originator could never deliver its answer.
                raise SiteDeparted(origin, status)
        self._admit(client)
        qid = self._next_qid(origin)
        self._submitted_at[qid] = self.sim.now
        self._arm_stats_sampler()
        self._arm_heartbeat()
        self.network.hosts[origin].submit(
            qid, program, list(initial), priority=priority, tenant=client
        )
        if deadline_s is not None:
            if deadline_s <= 0:
                raise ValueError("deadline_s must be positive")

            def expire() -> None:
                report = self.nodes[origin].expire_query(qid)
                self.network.hosts[origin].dispatch(report)

            self._deadline_handles[qid] = self.sim.schedule(deadline_s, expire)
        return qid

    def submit_followup(
        self,
        query: QueryLike,
        source_qid: QueryId,
        originator: Optional[str] = None,
    ) -> QueryId:
        """Start a query whose initial set is a *distributed set* held at
        the sites (paper §5's optimisation)."""
        program = self.compile(query)
        origin = originator if originator is not None else source_qid.originator
        if self.membership is not None:
            status = self.membership.status_of(origin)
            if status != UP:
                raise SiteDeparted(origin, status)
        qid = self._next_qid(origin)
        self.network.hosts[origin].submit_from_saved(qid, program, source_qid, self.sites)
        self._submitted_at[qid] = self.sim.now  # after: a retired source raises
        return qid

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Drain the simulation; returns the final virtual time."""
        return self.sim.run(until=until, max_events=max_events)

    def wait(
        self,
        qid: QueryId,
        timeout_s: Optional[float] = None,
        max_events: int = 50_000_000,
    ) -> QueryOutcome:
        """Run the simulation until ``qid`` completes.

        ``timeout_s`` exists for :class:`~repro.api.ClusterAPI` signature
        parity and is ignored: the simulator's clock is virtual, so its
        failure signal is an *idle event queue*, reported as the same
        typed :class:`~repro.errors.TerminationLost` (credit deficit and
        dropped-message count attached) that the wall-clock transports
        raise on their hard timeout.
        """
        del timeout_s  # virtual time: idleness, not wall-clock, means failure
        budget = self.sim.events_fired + max_events
        self._waiting = True  # every completion now stops the drain below
        try:
            while qid not in self._completed:
                if self.sim.events_fired >= budget:
                    raise HyperFileError(f"query {qid} exceeded {max_events} simulation events")
                self.sim.run(max_events=budget - self.sim.events_fired)
                if qid not in self._completed and not self.sim.pending:
                    self._flightrec_dump(qid, "termination_lost")
                    raise TerminationLost(
                        qid,
                        deficit=credit_deficit(self.nodes, qid),
                        undeliverable=self.network.messages_dropped,
                        site=self._last_failed_site,
                    )
        finally:
            self._waiting = False
        outcome = self._completed.get(qid)
        if outcome.result.partial and outcome.result.partial_reason in ("crash", "deadline"):
            self._flightrec_dump(qid, outcome.result.partial_reason)
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
        """Submit, run to completion (or deadline), and return the outcome.

        ``on_deadline`` selects the client-visible contract when the
        deadline expires first: ``"partial"`` returns the outcome with
        ``result.partial`` set; ``"raise"`` raises :class:`QueryTimeout`
        (the partial result rides on the exception).
        """
        if on_deadline not in ("partial", "raise"):
            raise ValueError(f"on_deadline must be 'partial' or 'raise', got {on_deadline!r}")
        qid = self.submit(
            query, initial, originator, deadline_s=deadline_s,
            priority=priority, client=client,
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
        return self._completed.get(qid)

    def fetch_object(self, oid: Oid, via: Optional[str] = None):
        """Retrieve a whole object through a server site (file-interface
        style), paying real message + transfer costs.

        Returns ``(object_or_None, elapsed_virtual_seconds)``.
        """
        site = via if via is not None else self.sites[0]
        node = self.node(site)
        started = self.sim.now
        request_id, report = node.request_fetch(oid)
        self.network.hosts[site].dispatch(report)
        guard = 0
        while request_id not in node.fetch_results:
            if not self.sim.step():
                raise HyperFileError(f"fetch of {oid} never completed (holder down?)")
            guard += 1
            if guard > 1_000_000:
                raise HyperFileError(f"fetch of {oid} exceeded event budget")
        obj = node.fetch_results.pop(request_id)
        return obj, (self.sim.now - started) + 2 * self.costs.client_link_s

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def total_stats(self) -> NodeStats:
        """Cluster-wide node counters, merged."""
        merged = NodeStats()
        for node in self.nodes.values():
            merged.merge(node.stats)
        return merged

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _flightrec_dump(self, qid: QueryId, reason: str) -> None:
        """Dump the flight-recorder ring once per dying query (no-op when
        the recorder is unarmed or the query was already dumped)."""
        if self.flight_recorder is None or qid in self._flightrec_dumped:
            return
        self._flightrec_dumped.add(qid)
        self.flight_recorder.dump(qid, reason, site=qid.originator)

    def _arm_stats_sampler(self) -> None:
        """Start the virtual-time stats sampler if streaming is on.

        The sampler reschedules itself only while other events are
        pending, so it can never keep an otherwise-dead simulation
        (lost termination) ticking forever.
        """
        if self.stats_timeline is None or self._stats_sampler_armed:
            return
        self._stats_sampler_armed = True
        self.sim.schedule(self._stats_stream_s, self._stats_sample)

    def _stats_sample(self) -> None:
        sites: Dict[str, Dict[str, object]] = {}
        for site, node in self.nodes.items():
            sample = node.stats.sample()
            sample["work_depth"] = node.work_depth
            sites[site] = sample
        self.stats_timeline.append(self.sim.now, sites)
        tracer = next(iter(self.nodes.values())).tracer
        if tracer is not None:
            tracer.emit("cluster", "stats_push", "", sites=len(sites))
        if self._submitted_at and self.sim.pending > 0:
            self.sim.schedule(self._stats_stream_s, self._stats_sample)
        else:
            self._stats_sampler_armed = False

    def _next_qid(self, originator: str) -> QueryId:
        self._seq += 1
        return QueryId(self._seq, originator)

    def _admit(self, client: str) -> None:
        """Admission control: spend one rate-limit token or bounce."""
        if self._qos_limiter is None:
            return
        if self._qos_limiter.try_acquire(client):
            return
        self.qos_bounces += 1
        metrics = getattr(self, "metrics", None)
        if metrics is not None:
            metrics.counter("qos.overload_bounces_total", client=client).inc()
        raise Overloaded(client, retry_after_s=self._qos_limiter.retry_after_s(client))

    def _on_complete(self, qid: QueryId, result: QueryResult) -> None:
        handle = self._deadline_handles.pop(qid, None)
        if handle is not None:
            handle.cancel()
        node = self.nodes[qid.originator]
        ctx = node.contexts[qid]
        for other in self.nodes.values():
            other_ctx = other.contexts.get(qid)
            if other_ctx is not None:
                result.stats.merge(other_ctx.execution.result.stats)
        outcome = QueryOutcome(
            qid=qid,
            result=result,
            submitted_at=self._submitted_at.pop(qid, 0.0),
            completed_at=self.sim.now,
            client_link_s=self.costs.client_link_s,
            partition_counts=dict(ctx.partition_counts) if ctx.partition_counts else None,
        )
        metrics = getattr(self, "metrics", None)
        if metrics is not None:
            metrics.histogram("cluster.response_time_s").observe(outcome.response_time)
            metrics.counter("cluster.queries_completed_total").inc()
        self._completed.put(qid, outcome)
        self._maybe_finalize_membership()
        if self._waiting:
            self.sim.stop()
