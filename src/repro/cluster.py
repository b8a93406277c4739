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

from typing import Iterable, Optional, Union

from .api import QueryLike, QueryOutcome, credit_deficit
from .config import ClusterConfig
from .core.oid import Oid
from .engine.results import QueryResult
from .errors import HyperFileError, TerminationLost
from .membership import UP
from .net.common import ClusterBase, site_name
from .net.messages import Envelope, Heartbeat, QueryId
from .net.simnet import SimNetwork
from .server.node import ServerNode
from .sim.costs import PAPER_COSTS
from .sim.kernel import Simulator

__all__ = ["QueryLike", "QueryOutcome", "SimCluster", "site_name"]


class SimCluster(ClusterBase):
    """A set of HyperFile sites over a simulated network.

    The client surface is :class:`~repro.net.common.ClusterBase`'s; this
    class supplies the virtual clock, the simulated hosts, and a
    :meth:`wait` that drives the event loop."""

    def __init__(
        self,
        sites: Union[int, Iterable[str]] = 3,
        *,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        config = config if config is not None else ClusterConfig()
        config.require_default("processes", "host", transport="sim")
        self.sim = Simulator()
        self.network = SimNetwork(self.sim)
        self.costs = config.costs if config.costs is not None else PAPER_COSTS
        self._waiting = False
        self._stats_sampler_armed = False
        self._hb_armed = False
        self._hb_outstanding = 0
        self._last_failed_site: Optional[str] = None
        super().__init__(sites, config, now=lambda: self.sim.now)
        self._arm_faults()

    def close(self) -> None:
        """No-op: everything is in-process state, freed with the object."""

    def _attach_site(self, node: ServerNode) -> None:
        # The host takes over the node's completion callback and fires it
        # once the completing step's virtual cost has elapsed.
        self.network.attach(node)

    # ------------------------------------------------------------------
    # the wire: the network's (see SimNetwork)
    # ------------------------------------------------------------------

    def _open_wire(self):
        return self.network.wire

    def _site_up(self, site: str) -> None:
        self.network.hosts[site].kick()

    def set_link_latency(self, a: str, b: str, seconds: float) -> None:
        """Override one link's wire latency (heterogeneous deployments)."""
        self.network.set_link_latency(a, b, seconds)

    # ------------------------------------------------------------------
    # dynamic membership (config.membership; see docs/MEMBERSHIP.md)
    # ------------------------------------------------------------------

    def _crash_site(self, site: str) -> None:
        """The machine is gone: queued work bounces back to its senders
        (credit recovery); work it held *in execution* takes its credit
        with it — the flight recorder attributes that loss."""
        self.network.crash_permanently(site)
        self._last_failed_site = site

    def _add_site(self, name: str) -> None:
        """Build the stack for a site joining a running cluster and hook
        it into the telemetry, replication and membership planes."""
        node = self._build_site(
            name, self.replication.directory if self.replication is not None else None
        )
        node.tracer = self._cluster_tracer()
        node.metrics = self.metrics
        if self.replication is not None:
            self.replication.add_epoch_listener(node.observe_epoch)
        if self.membership is not None:
            node.membership_status = self.membership.status_of
            node.heartbeat_sink = self._on_heartbeat

    # -- gossip failure detector (simulator timers) --------------------

    def _arm_gossip(self, config) -> None:
        for node in self.nodes.values():
            node.heartbeat_sink = self._on_heartbeat

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
        if self._inflight and (other_pending > 0 or service.suspicious()):
            self.sim.schedule(cfg.heartbeat_s, self._heartbeat_tick)
        else:
            self._hb_armed = False

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def enable_metrics(self, registry=None):
        registry = super().enable_metrics(registry)
        self.network.metrics = registry
        return registry

    def _start_stats_stream(self, period_s: float) -> None:
        """Virtual time: the sampler is armed by each submit instead
        (:meth:`_arm_stats_sampler`), and runs only while queries do."""

    def _arm_stats_sampler(self) -> None:
        """Start the virtual-time stats sampler if streaming is on.

        The sampler reschedules itself only while other events are
        pending, so it can never keep an otherwise-dead simulation
        (lost termination) ticking forever.
        """
        if self.stats_timeline is None or self._stats_sampler_armed:
            return
        self._stats_sampler_armed = True
        self.sim.schedule(self.config.stats_stream_s, self._stats_sample)

    def _stats_sample(self) -> None:
        self._sample_stats()
        if self._inflight and self.sim.pending > 0:
            self.sim.schedule(self.config.stats_stream_s, self._stats_sample)
        else:
            self._stats_sampler_armed = False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _at_site(self, site: str, call) -> None:
        self.network.hosts[site].run(call)

    def _dispatch_submit(self, origin: str, qid: QueryId, *args) -> None:
        info = self._inflight[qid]
        self._arm_stats_sampler()
        self._arm_heartbeat()
        super()._dispatch_submit(origin, qid, *args)
        if info.deadline_s is not None:
            info.timer = self.sim.schedule(
                info.deadline_s, lambda: self._dispatch_expire(origin, qid)
            )

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
        undeliverable count attached) that the wall-clock transports
        raise on their hard timeout.
        """
        del timeout_s  # virtual time: idleness, not wall-clock, means failure
        budget = self.sim.events_fired + max_events
        self._waiting = True  # every completion now stops the drain below
        try:
            while qid not in self._outcomes:
                if self.sim.events_fired >= budget:
                    raise HyperFileError(f"query {qid} exceeded {max_events} simulation events")
                self.sim.run(max_events=budget - self.sim.events_fired)
                if qid not in self._outcomes and not self.sim.pending:
                    self._flightrec_dump(qid, "termination_lost")
                    raise TerminationLost(
                        qid,
                        deficit=credit_deficit(self.nodes, qid),
                        undeliverable=self.wire.undeliverable_total,
                        site=self._last_failed_site,
                    )
        finally:
            self._waiting = False
        outcome = self._outcomes.get(qid)
        if outcome.result.partial and outcome.result.partial_reason in ("crash", "deadline"):
            self._flightrec_dump(qid, outcome.result.partial_reason)
        return outcome

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

    def _on_complete(self, qid: QueryId, result: QueryResult) -> None:
        # Every site's execution counters for the query, merged into its
        # result (the node cannot: it sees only its own context).
        for node in self.nodes.values():
            ctx = node.contexts.get(qid)
            if ctx is not None:
                result.stats.merge(ctx.execution.result.stats)
        super()._on_complete(qid, result)
        self._maybe_finalize_membership()
        if self._waiting:
            self.sim.stop()
