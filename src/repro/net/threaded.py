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
from typing import Dict, Iterable, List, Optional, Union

from ..config import ClusterConfig, resolve_config
from ..core.oid import Oid
from ..core.program import Program
from ..errors import UnknownSite
from ..faults.plan import FaultPlan
from ..faults.reliable import ReliableAck, ReliableConfig, ReliableData, ReliableEndpoint
from ..faults.timers import TimerThread
from ..naming.directory import ForwardingTable, ReplicaDirectory
from ..cache import CacheConfig
from ..net.batching import BatchConfig
from ..qos import QoSConfig
from ..replication import ReplicationConfig, ReplicationManager
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
from .common import WallClockQueries


class _SiteThread:
    """One site's server loop: drain the inbox queue, step the node."""

    def __init__(self, node: ServerNode, router: "ThreadedCluster") -> None:
        self.node = node
        self.router = router
        self.inbox: "queue.Queue[Optional[Envelope]]" = queue.Queue()
        self._lock = threading.Lock()  # guards node state across submit/step
        self.thread = threading.Thread(target=self._run, name=f"hf-{node.site}", daemon=True)
        self._stop = False

    def start(self) -> None:
        self.thread.start()

    def stop(self) -> None:
        self._stop = True
        self.inbox.put(None)  # wake the loop

    def submit(
        self,
        qid: QueryId,
        program: Program,
        initial: List[Oid],
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> None:
        with self._lock:
            report = self.node.submit(qid, program, initial, priority=priority, tenant=tenant)
        for env in report.outgoing:
            self.router.route(env)
        self.inbox.put(None)  # nudge: local work may now exist

    def submit_from_saved(self, qid: QueryId, program: Program, source_qid: QueryId) -> None:
        with self._lock:
            report = self.node.submit_from_saved(qid, program, source_qid, self.router.sites)
        for env in report.outgoing:
            self.router.route(env)
        self.inbox.put(None)

    def _run(self) -> None:
        while not self._stop:
            if self.router.is_down(self.node.site):
                # Crashed: freeze with the inbox intact — queued work is
                # processed after set_up, exactly like the simulated host.
                time.sleep(0.01)
                continue
            try:
                env = self.inbox.get(timeout=0.05)
            except queue.Empty:
                env = None
            if self._stop:
                return
            with self._lock:
                if env is not None:
                    if isinstance(env.payload, (ReliableData, ReliableAck)):
                        self.router._reliable_ingest(env)
                    else:
                        self.node.on_message(env)
                outgoing: List[Envelope] = []
                # Drain everything currently available; new inbox entries
                # will nudge us again.
                while self.node.has_work:
                    report = self.node.step()
                    outgoing.extend(report.outgoing)
            for out in outgoing:
                self.router.route(out)


class ThreadedCluster(WallClockQueries):
    """A HyperFile deployment where every site is a real thread.

    Implements the same :class:`~repro.api.ClusterAPI` contract as the
    simulated :class:`~repro.cluster.SimCluster`, so scenario scripts run
    unchanged on both.
    """

    def __init__(
        self,
        sites: Union[int, Iterable[str]] = 3,
        termination: str = "weighted",
        discipline: str = "fifo",
        result_mode: str = "ship",
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
            owner="ThreadedCluster",
            termination=termination,
            discipline=discipline,
            result_mode=result_mode,
            fault_plan=fault_plan,
            reliable=reliable,
            batching=batching,
            caching=caching,
            replication=replication,
            qos=qos,
        )
        config.require_default("costs", "mark_granularity", "processes", transport="threaded")
        self.config = config
        termination = config.termination
        discipline = config.discipline
        result_mode = config.result_mode
        fault_plan = config.fault_plan
        reliable = config.reliable
        batching = config.batching
        caching = config.caching
        replication = config.replication
        qos = config.qos
        if isinstance(sites, int):
            names = [f"site{i}" for i in range(sites)]
        else:
            names = list(sites)
        self.stores: Dict[str, MemStore] = {}
        self.forwarding: Dict[str, ForwardingTable] = {}
        self.nodes: Dict[str, ServerNode] = {}
        self._threads: Dict[str, _SiteThread] = {}
        self._init_queries(qos)
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
        strategy = make_strategy(termination)
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
                discipline=discipline,
                result_mode=result_mode,
                forwarding=table,
                on_query_complete=self._on_complete,
                is_site_up=self.is_up,
                batching=batching,
                caching=caching,
                replicas=directory,
                qos=qos,
            )
            node.now_fn = time.monotonic
            self.stores[name] = store
            self.forwarding[name] = table
            self.nodes[name] = node
            self._threads[name] = _SiteThread(node, self)
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
        for t in self._threads.values():
            t.start()
        if reliable:
            self.enable_reliable(reliable if isinstance(reliable, ReliableConfig) else None)
        if fault_plan is not None:
            self.use_faults(fault_plan)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._stop_stats_stream()
        if self._endpoints is not None:
            for endpoint in self._endpoints.values():
                endpoint.close()
        if self._timers is not None:
            self._timers.stop()
        for t in self._threads.values():
            t.stop()

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

    # -- availability ------------------------------------------------------

    def is_up(self, site: str) -> bool:
        with self._down_lock:
            return site not in self._down

    def is_down(self, site: str) -> bool:
        return not self.is_up(site)

    def set_down(self, site: str) -> None:
        """Freeze a site: its thread stops draining work until ``set_up``."""
        if site not in self._threads:
            raise UnknownSite(site)
        with self._down_lock:
            self._down.add(site)

    def set_up(self, site: str) -> None:
        if site not in self._threads:
            raise UnknownSite(site)
        with self._down_lock:
            self._down.discard(site)
        self._threads[site].inbox.put(None)  # wake the frozen loop

    # -- fault injection -----------------------------------------------------

    def use_faults(self, plan: FaultPlan) -> None:
        """Attach a chaos schedule; scheduled crashes start arming now."""
        for crash in plan.crashes:
            if crash.site not in self._threads:
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
                # on_wire runs on the destination's site thread with its
                # node lock already held, so deliver straight into the node.
                deliver_up=lambda env, t=thread: t.node.on_message(env),
                node=thread.node,
                config=self._reliable_config,
                on_give_up=self._give_up,
            )
            for name, thread in self._threads.items()
        }

    @property
    def reliable_enabled(self) -> bool:
        return self._endpoints is not None

    def _timer_thread(self) -> TimerThread:
        with self._timers_lock:
            if self._timers is None:
                self._timers = TimerThread(name="hf-threaded-timers")
            return self._timers

    # -- queries -----------------------------------------------------------
    # submit / wait / run_query / run_followup / total_stats come from
    # WallClockQueries; this transport only supplies the dispatch hooks.

    def node(self, site: str) -> ServerNode:
        try:
            return self.nodes[site]
        except KeyError:
            raise UnknownSite(site) from None

    def _dispatch_submit(
        self,
        origin: str,
        qid: QueryId,
        program: Program,
        initial: List[Oid],
        priority: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> None:
        self._threads[origin].submit(qid, program, initial, priority, tenant)

    def _dispatch_submit_from_saved(
        self, origin: str, qid: QueryId, program: Program, source_qid: QueryId
    ) -> None:
        self._threads[origin].submit_from_saved(qid, program, source_qid)

    def _dispatch_expire(self, origin: str, qid: QueryId) -> None:
        thread = self._threads[origin]
        with thread._lock:
            report = thread.node.expire_query(qid)
        for env in report.outgoing:
            self.route(env)

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
        target = self._threads.get(env.dst)
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
        if not isinstance(env.payload, (DerefRequest, BatchedQuery, SeedFromSaved)):
            return
        sender = self._threads.get(env.src)
        if sender is None or self.is_down(env.src):
            return
        sender.inbox.put(Envelope(env.dst, env.src, Undeliverable(env), spans=env.spans))

    def _reliable_ingest(self, env: Envelope) -> None:
        """A reliable-channel frame arrived at ``env.dst``'s inbox."""
        if self._endpoints is None:  # channel disabled mid-flight: drop
            return
        endpoint = self._endpoints.get(env.dst)
        if endpoint is not None:
            endpoint.on_wire(env)

    def _give_up(self, env: Envelope) -> None:
        """Retries exhausted: recover detector state like a bounce would."""
        if not isinstance(env.payload, (DerefRequest, BatchedQuery, SeedFromSaved)):
            return
        sender = self._threads.get(env.src)
        if sender is None:
            return
        sender.inbox.put(Envelope(env.dst, env.src, Undeliverable(env), spans=env.spans))
