"""Simulated network and hosts (the paper's PC/RT cluster, virtualised).

Each :class:`SimHost` wraps one :class:`~repro.server.node.ServerNode`
and maps its step costs onto the discrete-event clock:

* a site's CPU is serial — one work loop per host; each
  :meth:`ServerNode.step` occupies the CPU for the reported virtual cost;
* messages leave at the *end* of the step that produced them and arrive
  ``msg_latency_s`` later (sender/receiver CPU overheads are inside the
  node's cost accounting, the wire occupies nobody);
* delivery enqueues instantly at the destination and kicks its work loop.

:class:`SimNetwork` owns the host map and the simulator's share of the
one delivery policy (:class:`~repro.net.site.WirePolicy`, ``wire``):
a copy is a scheduled arrival after its wire time, a bounce pays latency
back to its sender, and availability, chaos (an attached
:class:`~repro.faults.plan.FaultPlan`) and the reliable channel apply as
on every transport — so the autonomy scenarios ("Node A is down, pose the
query to Node B") and the detectors' conservation invariants under chaos
(see docs/FAULTS.md) are the same everywhere.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import UnknownSite
from ..faults.plan import FaultPlan
from ..server.node import ServerNode, StepReport
from ..sim.kernel import Simulator
from .messages import Envelope, Undeliverable
from .site import WirePolicy


class SimNetwork:
    """Routes envelopes between simulated hosts."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.hosts: Dict[str, "SimHost"] = {}
        self.nodes: Dict[str, ServerNode] = {}
        self._link_latency: Dict[frozenset, float] = {}
        self.messages_delivered = 0
        self.bytes_delivered = 0
        #: Optional MetricsRegistry; None = zero overhead (tracer contract).
        self.metrics = None
        self.wire = WirePolicy(
            self.nodes,
            deliver=self._land,
            schedule=sim.schedule,
            clock=lambda: sim.now,
            receive=self._receive,
            transit=self._transit,
        )
        self.is_up = self.wire.is_up

    @property
    def messages_dropped(self) -> int:
        return self.wire.messages_dropped

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """Chaos schedule consulted for every wire transmission (or None)."""
        return self.wire.fault_plan

    def attach(self, node: ServerNode) -> "SimHost":
        """Create and register a host for ``node``."""
        host = SimHost(self.sim, self, node)
        self.hosts[node.site] = host
        self.nodes[node.site] = node
        return host

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
        self.wire.set_down(site)

    def set_up(self, site: str) -> None:
        self.wire.set_up(site)
        self.hosts[site].kick()

    def crash_permanently(self, site: str) -> None:
        """The machine is gone: mark the site down and refuse its queued
        envelopes.

        ``set_down`` freezes a site's queue because the site may come
        back; a permanent crash never thaws, so what is queued is refused
        exactly as if it had arrived after the crash: work envelopes —
        which carry termination credit — bounce back as
        :class:`~repro.net.messages.Undeliverable`, anything else is lost.
        """
        self.set_down(site)
        inbox = self.hosts[site].node.inbox
        queued = list(inbox)
        inbox.clear()
        for env in queued:
            self.wire.refuse(env)

    def send(self, env: Envelope, depart: float) -> None:
        """Hand ``env`` to the wire at virtual time ``depart``.

        The reliable channel (if enabled) and the fault plan (if any)
        apply from the moment of departure; retransmissions pay wire
        latency from their own (later) send times.
        """
        if env.dst not in self.hosts:
            raise UnknownSite(env.dst)
        wire = self.wire
        if wire.fault_plan is None and wire.endpoints is None:
            # Clean wire: schedule the arrival directly (and *now*, so
            # same-timestamp event ordering matches the historical
            # behaviour the calibrated benchmarks depend on).
            self.sim.schedule_at(depart + self._transit(env), lambda: wire.hand_off(env))
            return
        self.sim.schedule_at(depart, lambda: wire.send(env))

    def _transit(self, env: Envelope) -> float:
        """One copy's wire time: latency plus bandwidth; a bounce pays the
        latency back to its sender alone."""
        costs = self.hosts[env.src].node.costs
        latency = self.latency(env.src, env.dst, costs.msg_latency_s)
        if isinstance(env.payload, Undeliverable):
            return latency
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
        self.sim.schedule_at(at, lambda: self.wire.hand_off(env))

    def _land(self, env: Envelope) -> None:
        """A copy the wire handed off arrives at its (up) destination."""
        self.messages_delivered += 1
        if not isinstance(env.payload, Undeliverable):
            self.bytes_delivered += env.size_bytes
        self.wire.arrive(env, self._receive)

    def _receive(self, env: Envelope) -> None:
        self.hosts[env.dst].receive(env)


class SimHost:
    """One site's serial CPU, driven by the event queue."""

    def __init__(self, sim: Simulator, network: SimNetwork, node: ServerNode) -> None:
        self.sim = sim
        self.network = network
        self.node = node
        self._running = False
        node.is_site_up = network.wire.is_up
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

    def run(self, call) -> None:
        """Client-side entry: a call (submit, follow-up, expiry) on this
        site's node; ship what it produced and start the work loop."""
        self.dispatch(call(self.node))
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
