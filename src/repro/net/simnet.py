"""Simulated network and hosts (the paper's PC/RT cluster, virtualised).

Each :class:`SimHost` wraps one :class:`~repro.server.node.ServerNode`
and maps its step costs onto the discrete-event clock:

* a site's CPU is serial — one work loop per host; each
  :meth:`ServerNode.step` occupies the CPU for the reported virtual cost;
* messages leave at the *end* of the step that produced them and arrive
  ``msg_latency_s`` later (sender/receiver CPU overheads are inside the
  node's cost accounting, the wire occupies nobody);
* delivery enqueues instantly at the destination and kicks its work loop.

:class:`SimNetwork` owns the host map plus an availability table so the
autonomy scenarios ("Node A is down, pose the query to Node B") can be
scripted; messages to down sites are counted and dropped by the sender.

Chaos and fault tolerance plug in here too: an attached
:class:`~repro.faults.plan.FaultPlan` decides per message whether the
wire drops, duplicates or delays it, and :meth:`SimNetwork.enable_reliable`
interposes the ack/retransmit channel so the termination detectors'
conservation invariants survive that chaos (see docs/FAULTS.md).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import UnknownSite
from ..faults.plan import FaultPlan
from ..faults.reliable import ReliableAck, ReliableConfig, ReliableData, ReliableEndpoint
from ..server.node import ServerNode, StepReport
from ..sim.kernel import Simulator
from .messages import BatchedQuery, DerefRequest, Envelope, SeedFromSaved, Undeliverable


class SimNetwork:
    """Routes envelopes between simulated hosts."""

    def __init__(self, sim: Simulator, fault_plan: Optional[FaultPlan] = None) -> None:
        self.sim = sim
        self.hosts: Dict[str, "SimHost"] = {}
        self._down: set = set()
        self._link_latency: Dict[frozenset, float] = {}
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_delivered = 0
        #: Chaos schedule consulted for every wire transmission (or None).
        self.fault_plan = fault_plan
        self._endpoints: Optional[Dict[str, ReliableEndpoint]] = None
        self._reliable_config: Optional[ReliableConfig] = None
        #: Optional MetricsRegistry; None = zero overhead (tracer contract).
        self.metrics = None

    def enable_reliable(self, config: Optional[ReliableConfig] = None) -> None:
        """Interpose the reliable-delivery channel on every link."""
        self._reliable_config = config if config is not None else ReliableConfig()
        self._endpoints = {}

    @property
    def reliable_enabled(self) -> bool:
        return self._endpoints is not None

    def _endpoint(self, site: str) -> ReliableEndpoint:
        assert self._endpoints is not None
        endpoint = self._endpoints.get(site)
        if endpoint is None:
            endpoint = ReliableEndpoint(
                site,
                clock=lambda: self.sim.now,
                scheduler=self.sim.schedule,
                send_raw=self._transmit_raw,
                deliver_up=self._deliver_up,
                node=self.hosts[site].node,
                config=self._reliable_config,
                on_give_up=self._give_up,
            )
            self._endpoints[site] = endpoint
        return endpoint

    def attach(self, node: ServerNode) -> "SimHost":
        """Create and register a host for ``node``."""
        host = SimHost(self.sim, self, node)
        self.hosts[node.site] = host
        return host

    def is_up(self, site: str) -> bool:
        return site not in self._down

    def set_link_latency(self, a: str, b: str, seconds: float) -> None:
        """Override the wire latency of one (symmetric) link.

        Models heterogeneous deployments — e.g. the paper's "two
        geographically distant institutions" sharing documents over a
        slow long-haul link while campus links stay fast.
        """
        if a not in self.hosts or b not in self.hosts:
            raise UnknownSite(a if a not in self.hosts else b)
        if seconds < 0:
            raise ValueError("latency must be non-negative")
        self._link_latency[frozenset((a, b))] = seconds

    def latency(self, src: str, dst: str, default: float) -> float:
        """Wire latency for the (src, dst) link (override or default)."""
        return self._link_latency.get(frozenset((src, dst)), default)

    def set_down(self, site: str) -> None:
        """Mark a site unavailable (its queued work is frozen, not lost)."""
        if site not in self.hosts:
            raise UnknownSite(site)
        self._down.add(site)

    def set_up(self, site: str) -> None:
        if site not in self.hosts:
            raise UnknownSite(site)
        self._down.discard(site)
        self.hosts[site].kick()

    def crash_permanently(self, site: str) -> int:
        """The machine is gone: mark the site down and *bounce* its queued
        work back to the senders.

        ``set_down`` freezes a site's queue because the site may come
        back; a permanent crash never thaws, so queued work envelopes —
        which carry termination credit — are returned as
        :class:`~repro.net.messages.Undeliverable` exactly as if they had
        arrived after the crash.  Non-work traffic in the queue is
        dropped.  Returns the number of envelopes bounced.
        """
        self.set_down(site)
        node = self.hosts[site].node
        bounced = 0
        for env in list(node.inbox):
            self.messages_dropped += 1
            if isinstance(env.payload, (DerefRequest, BatchedQuery, SeedFromSaved)):
                self._bounce(env)
                bounced += 1
        node.inbox.clear()
        return bounced

    def send(self, env: Envelope, depart: float) -> None:
        """Hand ``env`` to the wire at virtual time ``depart``.

        The reliable channel (if enabled) and the fault plan (if any)
        apply from the moment of departure; retransmissions pay wire
        latency from their own (later) send times.
        """
        if env.dst not in self.hosts:
            raise UnknownSite(env.dst)
        if self.fault_plan is None and self._endpoints is None:
            # Clean wire: schedule the arrival directly (and *now*, so
            # same-timestamp event ordering matches the historical
            # behaviour the calibrated benchmarks depend on).
            self.sim.schedule_at(depart + self._wire_delay(env), lambda: self._arrive(env))
            return
        self.sim.schedule_at(depart, lambda: self._transmit(env))

    def _transmit(self, env: Envelope) -> None:
        if self._endpoints is not None and not isinstance(
            env.payload, (ReliableData, ReliableAck, Undeliverable)
        ):
            self._endpoint(env.src).send(env)
        else:
            self._transmit_raw(env)

    def _transmit_raw(self, env: Envelope) -> None:
        """One wire transmission: latency + bandwidth + chaos."""
        if env.dst not in self.hosts:
            raise UnknownSite(env.dst)
        wire = self._wire_delay(env)
        if self.fault_plan is not None:
            decision = self.fault_plan.decide(env.src, env.dst)
            if decision.dropped:
                self.messages_dropped += 1
                return
            for extra in decision.delays:
                self.sim.schedule(wire + extra, lambda e=env: self._arrive(e))
        else:
            self.sim.schedule(wire, lambda: self._arrive(env))

    def _wire_delay(self, env: Envelope) -> float:
        costs = self.hosts[env.src].node.costs
        latency = self.latency(env.src, env.dst, costs.msg_latency_s)
        wire = latency + env.size_bytes / costs.bandwidth_bytes_per_s
        if self.metrics is not None:
            self.metrics.histogram("net.wire_latency_s").observe(wire)
        return wire

    def deliver(self, env: Envelope, at: float) -> None:
        """Schedule delivery of ``env`` at absolute virtual time ``at``.

        Bypasses the fault plan and reliable channel — this is the
        low-level "the bytes land now" entry, kept for drivers and tests
        that script exact arrival times.
        """
        if env.dst not in self.hosts:
            raise UnknownSite(env.dst)
        self.sim.schedule_at(at, lambda: self._arrive(env))

    def _arrive(self, env: Envelope) -> None:
        host = self.hosts.get(env.dst)
        if host is None:
            raise UnknownSite(env.dst)
        if not self.is_up(env.dst):
            self.messages_dropped += 1
            self._bounce(env)
            return
        self.messages_delivered += 1
        self.bytes_delivered += env.size_bytes
        if self._endpoints is not None and isinstance(env.payload, (ReliableData, ReliableAck)):
            self._endpoint(env.dst).on_wire(env)
            return
        host.receive(env)

    def _deliver_up(self, env: Envelope) -> None:
        """A deduplicated payload surfaced by the reliable channel."""
        self.hosts[env.dst].receive(env)

    def _give_up(self, env: Envelope) -> None:
        """The reliable channel exhausted its retries for ``env``.

        Recover exactly as an :class:`Undeliverable` bounce would: hand
        the original envelope back to the sender's node so the detector
        re-absorbs its credit/deficit.  Non-work traffic is simply lost.
        """
        if not isinstance(env.payload, (DerefRequest, BatchedQuery, SeedFromSaved)):
            return
        host = self.hosts.get(env.src)
        if host is None or not self.is_up(env.src):
            return
        host.receive(Envelope(env.dst, env.src, Undeliverable(env), spans=env.spans))

    def _bounce(self, env: Envelope) -> None:
        """Return an undeliverable *work* message to its sender.

        Only DerefRequest/BatchedQuery/SeedFromSaved carry detector state
        that must be recovered; results and control traffic addressed to a
        dead site belong to a query whose originator is gone, and are
        simply lost.
        """
        if not isinstance(env.payload, (DerefRequest, BatchedQuery, SeedFromSaved)):
            return
        if not self.is_up(env.src):
            return
        latency = self.latency(env.dst, env.src, self.hosts[env.src].node.costs.msg_latency_s)
        bounce = Envelope(env.dst, env.src, Undeliverable(env), spans=env.spans)
        self.sim.schedule_at(self.sim.now + latency, lambda: self._deliver_now(bounce))

    def _deliver_now(self, env: Envelope) -> None:
        host = self.hosts.get(env.dst)
        if host is None or not self.is_up(env.dst):
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        host.receive(env)


class SimHost:
    """One site's serial CPU, driven by the event queue."""

    def __init__(self, sim: Simulator, network: SimNetwork, node: ServerNode) -> None:
        self.sim = sim
        self.network = network
        self.node = node
        self._running = False
        node.is_site_up = network.is_up
        #: Called with (qid, result) when a query completes here; fired
        #: only after the completing step's cost has elapsed, so the
        #: virtual completion timestamp includes that work.  The host
        #: takes the node's own completion callback over for this.
        self.completion_sink, node.on_query_complete = node.on_query_complete, None

    @property
    def site(self) -> str:
        return self.node.site

    def kick(self) -> None:
        """Ensure the work loop is scheduled (idempotent)."""
        if self._running or not self.network.is_up(self.site) or not self.node.has_work:
            return
        self._running = True
        self.sim.schedule(0.0, self._work)

    def receive(self, env: Envelope) -> None:
        self.node.on_message(env)
        self.kick()

    def dispatch(self, report: StepReport) -> None:
        """Account a step's cost and ship its outgoing messages.

        Messages depart when the step's CPU work completes; the network
        adds wire latency (and any chaos) from the departure instant.
        """
        self.node.stats.busy_seconds += report.elapsed
        depart = self.sim.now + report.elapsed
        for env in report.outgoing:
            self.network.send(env, depart)
        if self.completion_sink is not None:
            for qid, result in report.completed:
                self.sim.schedule_at(depart, lambda q=qid, r=result: self.completion_sink(q, r))

    def submit(self, qid, program, initial, priority=None, tenant=None) -> None:
        """Client-side entry: install a query at this (originating) site."""
        report = self.node.submit(qid, program, initial, priority=priority, tenant=tenant)
        self.dispatch(report)
        self.kick()

    def submit_from_saved(self, qid, program, source_qid, sites) -> None:
        report = self.node.submit_from_saved(qid, program, source_qid, sites)
        self.dispatch(report)
        self.kick()

    def _work(self) -> None:
        self._running = self.network.is_up(self.site) and self.node.has_work
        if self._running:
            self._steps()

    def _continue(self) -> None:
        self._running = self.network.is_up(self.site) and self.node.has_work
        # The _work a kick would queue fires in place if it fires next anyway.
        if self._running and self.sim.advance(self.sim.now, 1):
            self._steps()
        elif self._running:
            self.sim.schedule(0.0, self._work)

    def _steps(self) -> None:
        """Step, each step occupying the CPU for its duration; while the next
        start is strictly the earliest thing queued, its _continue and _work
        fire in place."""
        sim, node = self.sim, self.node
        while True:
            report = node.step()
            self.dispatch(report)
            more = self.network.is_up(self.site) and node.has_work
            if not sim.advance(sim.now + report.elapsed, 2 if more else 1):
                break
            if not more:
                self._running = False
                return
        sim.schedule(report.elapsed, self._continue)
