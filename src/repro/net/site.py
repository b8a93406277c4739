"""One wire policy and one site loop, for every deployment.

The paper's termination detection (§3.2, weighted messages) rests on one
rule: every work message a site cannot deliver hands its credit back to
its sender.  Its autonomy story ("node A is down, pose the query to node
B") rests on a message to a down site bouncing instead of vanishing.
:class:`WirePolicy` writes that rule once, for the simulator, threads,
asyncio inline and every process-mode child.  In order:

1. **send** — with the reliable channel on, an application envelope is
   wrapped by its sender's :class:`~repro.faults.reliable.ReliableEndpoint`;
   otherwise it goes raw;
2. **raw** — the fault plan drops the envelope (counted in
   ``messages_dropped``, silent) or yields one or more copies, each with
   a delay;
3. **hand-off** — per copy, at the moment the transport delivers it: a
   copy for a down (or unknown) site is counted in ``messages_dropped``
   and recorded in ``undeliverable``, and if it is work an
   :class:`~repro.net.messages.Undeliverable` goes back to its sender
   through the same hand-off — so a bounce that reaches a down sender is
   dropped in turn;
4. **arrival** — a reliable frame goes to the destination's endpoint,
   anything else to the node;
5. **give-up** — a reliable give-up, and an envelope the transport cannot
   put on the wire at all, is refused exactly like a copy for a down site
   at hand-off.

A transport supplies how an admitted copy reaches its destination
(``deliver``: an inbox ``put``, a frame write, a scheduled arrival), a
scheduler and a clock.  The simulator adds ``transit``, its wire time
(latency plus bandwidth; latency alone on a bounce), and has every copy
scheduled; elsewhere a copy without extra delay is handed off at once.

:class:`SiteRuntime` is the burst rule of :mod:`repro.net.common`'s
site-loop rule, for the hosts that serve a site from an inbox.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, Iterator, List, Mapping, Optional

from ..errors import UnknownSite
from ..faults.reliable import ReliableAck, ReliableConfig, ReliableData, ReliableEndpoint
from .messages import BatchedQuery, DerefRequest, Envelope, SeedFromSaved, Undeliverable

#: How many of the most recent undeliverable envelopes a wire keeps for
#: inspection; ``undeliverable_total`` counts every one.
RECENT_UNDELIVERABLE = 64

#: The work messages: they carry termination credit, so one that cannot
#: be delivered bounces back to its sender.
WORK = (DerefRequest, BatchedQuery, SeedFromSaved)
#: The reliable channel's own frames.
_CHANNEL = (ReliableData, ReliableAck)
#: What the channel never wraps: its own frames, and bounces (synthesised
#: where the work was refused, never sent twice).
_UNWRAPPED = (ReliableData, ReliableAck, Undeliverable)


def contain_site_error(node, flight_recorder, exc: Exception) -> None:
    """Log and count a raise from ``on_message`` / ``step``, snapshot the
    flight recorder if one is armed, and restore the node's work counters
    the interrupted call may have left stale."""
    # Imported here: only the wall-clock site loops contain raises, and the
    # simulator imports this module without needing logging.
    import logging

    logging.getLogger(__name__).error(
        "site %s: contained a raise and keeps serving", node.site, exc_info=exc
    )
    node.stats.site_errors += 1
    node.recount_work()
    if flight_recorder is not None:
        flight_recorder.dump("", f"site_error:{type(exc).__name__}", site=node.site)


class WirePolicy:
    """The delivery policy of one deployment (see the module docstring).

    ``nodes`` maps the sites served here to their nodes (the endpoints'
    owners); ``sites`` is every site a copy may be addressed to, ``nodes``
    unless given.  ``receive`` hands an arrived envelope to its node
    (default: ``nodes[dst].on_message``).  A process-mode parent, which
    sends nothing, keeps only the availability and the ledger here.
    """

    def __init__(
        self,
        nodes: Mapping[str, object],
        *,
        sites=None,
        deliver: Optional[Callable[[Envelope], None]] = None,
        schedule: Optional[Callable[[float, Callable[[], None]], object]] = None,
        clock: Optional[Callable[[], float]] = None,
        receive: Optional[Callable[[Envelope], None]] = None,
        transit: Optional[Callable[[Envelope], float]] = None,
        on_refuse: Optional[Callable[[Envelope], None]] = None,
    ) -> None:
        self.nodes = nodes
        self.sites = nodes if sites is None else sites
        self.deliver = deliver
        self.schedule = schedule
        self.clock = clock
        self.receive = receive if receive is not None else lambda env: nodes[env.dst].on_message(env)
        self.transit = transit
        #: Told of every refused envelope (a process-mode child pushes a
        #: note to its parent).
        self.on_refuse = on_refuse
        #: Sites that are down: a copy for one is refused at hand-off.
        self.down: set = set()
        self.fault_plan = None
        #: Each site's half of the reliable channel, built on first use;
        #: ``None`` while the channel is off.
        self.endpoints: Optional[Dict[str, ReliableEndpoint]] = None
        self.reliable_config: Optional[ReliableConfig] = None
        self.messages_dropped = 0
        #: The most recent refused envelopes (or, in a process-mode
        #: parent, notes of them), oldest first.
        self.undeliverable: deque = deque(maxlen=RECENT_UNDELIVERABLE)
        self.undeliverable_total = 0
        # Only the fault paths count under it; several site threads may
        # refuse at once.
        self._ledger = threading.Lock()

    # -- availability ----------------------------------------------------

    def is_up(self, site: str) -> bool:
        return site not in self.down

    def set_down(self, site: str) -> None:
        if site not in self.sites:
            raise UnknownSite(site)
        self.down.add(site)

    def set_up(self, site: str) -> None:
        if site not in self.sites:
            raise UnknownSite(site)
        self.down.discard(site)

    # -- the reliable channel --------------------------------------------

    def enable_reliable(self, config: Optional[ReliableConfig] = None) -> None:
        self.reliable_config = config if config is not None else ReliableConfig()
        self.endpoints = {}

    def _endpoint(self, site: str) -> ReliableEndpoint:
        endpoint = self.endpoints.get(site)
        if endpoint is None:
            # setdefault: two threads sending a site's first envelope at
            # once still share one endpoint (one sequence per link).
            endpoint = self.endpoints.setdefault(
                site,
                ReliableEndpoint(
                    site,
                    clock=self.clock,
                    scheduler=self.schedule,
                    send_raw=self.raw,
                    deliver_up=self.receive,
                    node=self.nodes[site],
                    config=self.reliable_config,
                    on_give_up=self.refuse,
                ),
            )
        return endpoint

    def close(self) -> None:
        """Drop the channel's buffered state (transport shutdown)."""
        if self.endpoints is not None:
            for endpoint in list(self.endpoints.values()):
                endpoint.close()

    # -- the policy --------------------------------------------------------

    def send(self, env: Envelope) -> None:
        """Rule 1: through the sender's endpoint, or raw."""
        if self.endpoints is not None and not isinstance(env.payload, _UNWRAPPED):
            self._endpoint(env.src).send(env)
        else:
            self.raw(env)

    def raw(self, env: Envelope) -> None:
        """Rule 2: one wire transmission — the fault plan's copies."""
        transit = self.transit
        base = 0.0 if transit is None else transit(env)
        plan = self.fault_plan
        if plan is None:
            self._carry(env, base)
            return
        decision = plan.decide(env.src, env.dst)
        if decision.dropped:
            with self._ledger:
                self.messages_dropped += 1
            return
        for extra in decision.delays:
            self._carry(env, base + extra)

    def _carry(self, env: Envelope, delay: float) -> None:
        if delay > 0 or self.transit is not None:
            self.schedule(delay, lambda: self.hand_off(env))
        else:
            self.hand_off(env)

    def hand_off(self, env: Envelope) -> None:
        """Rule 3: the copy lands now, unless its destination is down."""
        if env.dst in self.sites and env.dst not in self.down:
            self.deliver(env)
        else:
            self.refuse(env)

    def refuse(self, env: Envelope) -> None:
        """Rules 3 and 5: count and record ``env``; work goes back to its
        sender as ``Undeliverable`` so the detector re-absorbs its credit."""
        with self._ledger:
            self.messages_dropped += 1
        self.record(env)
        if self.on_refuse is not None:
            self.on_refuse(env)
        if isinstance(env.payload, WORK):
            bounce = Envelope(env.dst, env.src, Undeliverable(env), spans=env.spans)
            self._carry(bounce, 0.0 if self.transit is None else self.transit(bounce))

    def record(self, entry) -> None:
        """Keep ``entry`` among the recent undeliverables and count it."""
        with self._ledger:
            self.undeliverable.append(entry)
            self.undeliverable_total += 1

    def arrive(self, env: Envelope, receive: Callable[[Envelope], None]) -> None:
        """Rule 4: a reliable frame to the destination's endpoint (a
        channel switched off mid-flight drops it), anything else to
        ``receive``."""
        if isinstance(env.payload, _CHANNEL):
            if self.endpoints is not None:
                self._endpoint(env.dst).on_wire(env)
        else:
            receive(env)


class SiteRuntime:
    """One site's burst rule: the whole burst in, W emptied, output out.

    :meth:`serve` hands a burst to the node in FIFO order (reliable frames
    to the site's endpoint), then steps while the node has work, appending
    what the steps send to ``outgoing``.  A raise from ``on_message`` or
    ``step`` costs that envelope or that step, not the site: serving
    resumes after it.  ``serve`` is a generator, so that a host on a
    shared event loop can let the other sites run: it yields every
    ``yield_every`` steps (never, at 0) and after a contained raise.

    With a batching linger window (``BatchConfig(linger_s=...)``) a timer
    on the wire's scheduler marks the node's send queues due while the
    site serves, and the next step flushes those older than the window
    (:meth:`~repro.server.node.ServerNode.flush_due`); an idle node has
    flushed everything already.  Without one there is no timer and the
    step loop is unchanged.
    """

    __slots__ = ("node", "wire", "recorder", "yield_every", "linger_s", "due", "armed")

    def __init__(
        self,
        node,
        wire: WirePolicy,
        recorder: Callable[[], object],
        yield_every: int = 0,
    ) -> None:
        self.node = node
        self.wire = wire
        #: The flight recorder to dump on a contained raise (read at the
        #: raise: it may be armed after the site is built).
        self.recorder = recorder
        self.yield_every = yield_every
        self.linger_s: Optional[float] = node.batching.linger_s
        #: Set by the linger timer (on any thread); read by the next step.
        self.due = False
        self.armed = False

    def serve(self, burst: List[Optional[Envelope]], outgoing: List[Envelope]) -> Iterator[None]:
        node = self.node
        arrive = self.wire.arrive
        on_message = node.on_message
        step = node.step
        if self.linger_s is not None:
            step = self._step_on_time
            if not self.armed:
                self._arm()
        arrivals = iter(burst)
        steps = 0
        while True:
            try:
                for env in arrivals:
                    if env is not None:  # ``None`` only wakes the host
                        arrive(env, on_message)
                while node.has_work:
                    outgoing.extend(step().outgoing)
                    steps += 1
                    if steps == self.yield_every:
                        steps = 0
                        yield
                return
            except Exception as exc:  # noqa: BLE001 — one bad message or step must not end the site
                contain_site_error(node, self.recorder(), exc)
                yield

    def _step_on_time(self):
        """A step, preceded by the timer flush when the timer has fired."""
        node = self.node
        if self.due:
            self.due = False
            report = node.flush_due()
            if node.has_work and not self.armed:
                self._arm()
            if report.outgoing:
                return report
        return node.step()

    def _arm(self) -> None:
        self.armed = True
        try:
            self.wire.schedule(self.linger_s, self._fire)
        except RuntimeError:  # the transport is closing: its timers have stopped
            self.armed = False

    def _fire(self) -> None:
        self.armed = False
        self.due = True
