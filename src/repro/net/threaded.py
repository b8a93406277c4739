"""Real-concurrency in-process cluster (threads + queues).

The simulated cluster (:mod:`repro.net.simnet`) gives deterministic
virtual-time measurements; this transport runs the *same*
:class:`~repro.server.node.ServerNode` logic under genuine concurrency —
one daemon thread per site, queue-based message delivery — to demonstrate
that the algorithm (contexts, mark tables, credit recovery) is correct
outside the simulator, not just inside it.

No virtual costs are applied; the node-reported costs are ignored and
response times here are real wall-clock, useful only for smoke checks.
Correctness (result sets, termination) is the point.

Each site thread follows the site-loop rule of :mod:`repro.net.common`
(:meth:`_SiteLoop.serve`): it wakes on an envelope, takes every envelope
already queued behind it, hands the whole burst to the node, and only
then steps until idle — so W empties, and the site sends its results and
credit home, once per burst, not once per envelope.  A raise from the
node costs that envelope or step, not the thread.

Fault tolerance mirrors the simulated cluster: an attached
:class:`~repro.faults.plan.FaultPlan` drops/duplicates/delays envelopes
between inboxes (delays via a shared :class:`~repro.faults.timers.TimerThread`),
``set_down``/``set_up`` freeze and thaw a site, and ``enable_reliable``
interposes the ack/retransmit channel.  Envelopes addressed to unknown
or down sites are never raised from a site thread (that would silently
kill the thread) — they are recorded on :attr:`ThreadedCluster.undeliverable`
and work messages are bounced back to the sender as
:class:`~repro.net.messages.Undeliverable` so the termination detector
recovers its credit.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..config import ClusterConfig
from ..core.oid import Oid
from ..core.program import Program
from ..errors import UnknownSite
from ..faults.plan import FaultPlan
from ..faults.reliable import ReliableAck, ReliableConfig, ReliableData, ReliableEndpoint
from ..faults.timers import TimerThread
from ..naming.directory import ForwardingTable, ReplicaDirectory
from ..replication import ReplicationManager
from ..net.messages import (
    BatchedQuery,
    DerefRequest,
    Envelope,
    QueryId,
    SeedFromSaved,
    Undeliverable,
)
from ..server.node import ServerNode
from ..sim.costs import FREE_COSTS
from ..storage.memstore import MemStore
from ..termination.base import make_strategy
from .common import WallClockQueries, contain_site_error

#: How often a down site's loop looks for its ``set_up``.
_DOWN_POLL_S = 0.01


class _SiteLoop:
    """One site: an inbox queue served by one worker thread.

    ``None`` in the inbox only wakes the loop (a submit's nudge,
    ``set_up``, ``stop``).  ``lock`` guards the node against the client
    threads that submit or expire queries.
    """

    def __init__(self, node: ServerNode, cluster: "ThreadedCluster") -> None:
        self.node = node
        self.cluster = cluster
        self.inbox: "queue.Queue[Optional[Envelope]]" = queue.Queue()
        self.lock = threading.Lock()
        self.stopped = threading.Event()
        self.thread = threading.Thread(target=self.serve, name=f"hf-{node.site}", daemon=True)

    def stop(self) -> None:
        self.stopped.set()
        self.inbox.put(None)  # wake the loop

    def serve(self) -> None:
        """The worker thread: one burst per wake, by the site-loop rule."""
        node = self.node
        cluster = self.cluster
        inbox = self.inbox
        stopped = self.stopped
        while True:
            burst = [inbox.get()]
            while cluster.is_down(node.site) and not stopped.is_set():
                time.sleep(_DOWN_POLL_S)
            if stopped.is_set():
                return
            while True:
                try:
                    burst.append(inbox.get_nowait())
                except queue.Empty:
                    break
            outgoing: List[Envelope] = []
            arrivals = iter(burst)
            with self.lock:
                while True:
                    try:
                        for env in arrivals:
                            if env is None:
                                continue
                            if isinstance(env.payload, (ReliableData, ReliableAck)):
                                cluster._reliable_ingest(env)
                            else:
                                node.on_message(env)
                        while node.has_work:
                            outgoing.extend(node.step().outgoing)
                        break
                    except Exception as exc:  # noqa: BLE001 — one bad message or step must not end the site
                        contain_site_error(node, cluster.flight_recorder, exc)
            for env in outgoing:
                cluster.route(env)


class ThreadedCluster(WallClockQueries):
    """A HyperFile deployment where every site is a real thread.

    Implements the same :class:`~repro.api.ClusterAPI` contract as the
    simulated :class:`~repro.cluster.SimCluster`, so scenario scripts run
    unchanged on both.
    """

    def __init__(
        self,
        sites: Union[int, Iterable[str]] = 3,
        *,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        config = config if config is not None else ClusterConfig()
        config.require_default(
            "costs", "mark_granularity", "processes", "host", transport="threaded"
        )
        self.config = config
        replication = config.replication
        if isinstance(sites, int):
            names = [f"site{i}" for i in range(sites)]
        else:
            names = list(sites)
        self.stores: Dict[str, MemStore] = {}
        self.forwarding: Dict[str, ForwardingTable] = {}
        self.nodes: Dict[str, ServerNode] = {}
        self._loops: Dict[str, _SiteLoop] = {}
        self._init_queries(config.qos)
        self._closed = False
        self._down: set = set()
        self._down_lock = threading.Lock()
        self._timers: Optional[TimerThread] = None
        self._timers_lock = threading.Lock()
        self.fault_plan: Optional[FaultPlan] = None
        self._endpoints: Optional[Dict[str, ReliableEndpoint]] = None
        self._reliable_config: Optional[ReliableConfig] = None
        self.messages_dropped = 0
        #: Envelopes that could not be delivered (unknown or down
        #: destination), recorded instead of raised from a site thread.
        self.undeliverable: List[Envelope] = []
        strategy = make_strategy(config.termination)
        directory = (
            ReplicaDirectory() if replication is not None and replication.enabled else None
        )
        for name in names:
            store = MemStore(name)
            table = ForwardingTable(name)
            node = ServerNode(
                name,
                store,
                costs=FREE_COSTS,
                termination=strategy,
                discipline=config.discipline,
                result_mode=config.result_mode,
                forwarding=table,
                on_query_complete=self._on_complete,
                is_site_up=self.is_up,
                batching=config.batching,
                caching=config.caching,
                replicas=directory,
                qos=config.qos,
            )
            node.now_fn = time.monotonic
            self.stores[name] = store
            self.forwarding[name] = table
            self.nodes[name] = node
            self._loops[name] = _SiteLoop(node, self)
        self.replication: Optional[ReplicationManager] = None
        if directory is not None:
            assert replication is not None
            self.replication = ReplicationManager(
                replication, self.stores, self.forwarding, directory
            )
            for node in self.nodes.values():
                self.replication.add_epoch_listener(node.observe_epoch)
        self._init_membership(config)
        self._init_telemetry(config)
        for loop in self._loops.values():
            loop.thread.start()
        if config.reliable:
            reliable = config.reliable
            self.enable_reliable(reliable if isinstance(reliable, ReliableConfig) else None)
        if config.fault_plan is not None:
            self.use_faults(config.fault_plan)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._stop_stats_stream()
        if self._endpoints is not None:
            for endpoint in self._endpoints.values():
                endpoint.close()
        if self._timers is not None:
            self._timers.stop()
        for loop in self._loops.values():
            loop.stop()

    def __enter__(self) -> "ThreadedCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- data ------------------------------------------------------------

    @property
    def sites(self) -> List[str]:
        return list(self.nodes)

    def store(self, site: str) -> MemStore:
        try:
            return self.stores[site]
        except KeyError:
            raise UnknownSite(site) from None

    def node(self, site: str) -> ServerNode:
        try:
            return self.nodes[site]
        except KeyError:
            raise UnknownSite(site) from None

    # -- availability ----------------------------------------------------

    def is_up(self, site: str) -> bool:
        with self._down_lock:
            return site not in self._down

    def is_down(self, site: str) -> bool:
        return not self.is_up(site)

    def set_down(self, site: str) -> None:
        """Freeze a site: its loop holds what it was sent until ``set_up``."""
        if site not in self._loops:
            raise UnknownSite(site)
        with self._down_lock:
            self._down.add(site)

    def set_up(self, site: str) -> None:
        if site not in self._loops:
            raise UnknownSite(site)
        with self._down_lock:
            self._down.discard(site)
        self._loops[site].inbox.put(None)  # wake the frozen loop

    # -- fault injection -------------------------------------------------

    def use_faults(self, plan: FaultPlan) -> None:
        """Attach a chaos schedule; scheduled crashes start arming now."""
        for crash in plan.crashes:
            if crash.site not in self._loops:
                raise UnknownSite(crash.site)
        self.fault_plan = plan
        timers = self._timer_thread()
        for crash in plan.crashes:
            timers.schedule(crash.at, lambda s=crash.site: self.set_down(s))
            if crash.recover_at is not None:
                timers.schedule(crash.recover_at, lambda s=crash.site: self.set_up(s))

    def enable_reliable(self, config: Optional[ReliableConfig] = None) -> None:
        """Interpose the reliable-delivery channel on every link."""
        self._reliable_config = config if config is not None else ReliableConfig()
        timers = self._timer_thread()
        self._endpoints = {
            name: ReliableEndpoint(
                name,
                clock=timers.now,
                scheduler=timers.schedule,
                send_raw=self._route_raw,
                # on_wire runs on the destination's loop with its node lock
                # already held, so deliver straight into the node.
                deliver_up=loop.node.on_message,
                node=loop.node,
                config=self._reliable_config,
                on_give_up=self._give_up,
            )
            for name, loop in self._loops.items()
        }

    @property
    def reliable_enabled(self) -> bool:
        return self._endpoints is not None

    def _reliable_ingest(self, env: Envelope) -> None:
        """A reliable-channel frame reached ``env.dst``'s loop (which holds
        the node lock); a channel disabled mid-flight drops it."""
        endpoint = self._endpoints.get(env.dst) if self._endpoints is not None else None
        if endpoint is not None:
            endpoint.on_wire(env)

    def _timer_thread(self) -> TimerThread:
        with self._timers_lock:
            if self._timers is None:
                self._timers = TimerThread()
            return self._timers

    # -- queries ---------------------------------------------------------
    # submit / wait / run_query / run_followup / total_stats come from
    # WallClockQueries; these hooks reach a site through its loop.

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

    def _at_site(self, site: str, call: Callable[[ServerNode], object]) -> None:
        """Run a client thread's ``call`` on ``site``'s node under its lock,
        route what it sent, and nudge the loop: local work may now exist."""
        loop = self._loops[site]
        with loop.lock:
            report = call(loop.node)
        for env in report.outgoing:
            self.route(env)
        loop.inbox.put(None)

    # -- internals ------------------------------------------------------------

    def route(self, env: Envelope) -> None:
        if self._closed:
            return
        if self._endpoints is not None and not isinstance(
            env.payload, (ReliableData, ReliableAck, Undeliverable)
        ):
            endpoint = self._endpoints.get(env.src)
            if endpoint is not None:
                endpoint.send(env)
                return
        self._route_raw(env)

    def _route_raw(self, env: Envelope) -> None:
        """One wire transmission: apply the fault plan, then deliver."""
        plan = self.fault_plan
        if plan is None:
            self._deliver_local(env)
            return
        decision = plan.decide(env.src, env.dst)
        if decision.dropped:
            self.messages_dropped += 1
            return
        for extra in decision.delays:
            if extra > 0:
                self._timer_thread().schedule(extra, lambda e=env: self._deliver_local(e))
            else:
                self._deliver_local(env)

    def _deliver_local(self, env: Envelope) -> None:
        target = self._loops.get(env.dst)
        if target is None or self.is_down(env.dst):
            self._bounce(env)
            return
        target.inbox.put(env)

    def _bounce(self, env: Envelope) -> None:
        """Record an undeliverable envelope and return work to its sender.

        Raising here would kill whichever site thread routed the message;
        instead the envelope is recorded and — for the work messages that
        carry detector state — bounced back as ``Undeliverable`` so the
        sender re-absorbs its credit/deficit.
        """
        self.messages_dropped += 1
        self.undeliverable.append(env)
        if self.is_up(env.src):
            self._give_up(env)

    def _give_up(self, env: Envelope) -> None:
        """Retries exhausted: recover detector state like a bounce would."""
        if not isinstance(env.payload, (DerefRequest, BatchedQuery, SeedFromSaved)):
            return
        sender = self._loops.get(env.src)
        if sender is None:
            return
        sender.inbox.put(Envelope(env.dst, env.src, Undeliverable(env), spans=env.spans))
