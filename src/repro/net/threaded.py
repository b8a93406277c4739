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
(:class:`~repro.net.common.ThreadSite`): it wakes on an envelope, takes
every envelope already queued behind it, hands the whole burst to the
node, and only then steps until idle — so W empties, and the site sends
its results and credit home, once per burst, not once per envelope.  A
raise from the node costs that envelope or step, not the thread.

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

import time
from typing import Dict, Iterable, Optional, Union

from ..config import ClusterConfig, resolve_config
from ..faults.plan import FaultPlan
from ..faults.reliable import ReliableAck, ReliableConfig, ReliableData
from ..naming.directory import ForwardingTable, ReplicaDirectory
from ..cache import CacheConfig
from ..net.batching import BatchConfig
from ..qos import QoSConfig
from ..replication import ReplicationConfig, ReplicationManager
from ..net.messages import (
    BatchedQuery,
    DerefRequest,
    Envelope,
    SeedFromSaved,
    Undeliverable,
)
from ..server.node import ServerNode
from ..sim.costs import FREE_COSTS
from ..storage.memstore import MemStore
from ..termination.base import make_strategy
from .common import ThreadSite, ThreadSiteCluster


class ThreadedCluster(ThreadSiteCluster):
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
        replication = config.replication
        if isinstance(sites, int):
            names = [f"site{i}" for i in range(sites)]
        else:
            names = list(sites)
        self._init_thread_sites(config.qos)
        self.forwarding: Dict[str, ForwardingTable] = {}
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
            self._loops[name] = ThreadSite(node, self, f"hf-{name}")
        self.replication: Optional[ReplicationManager] = None
        if directory is not None:
            assert replication is not None
            self.replication = ReplicationManager(
                replication, self.stores, self.forwarding, directory
            )
            for node in self.nodes.values():
                self.replication.add_epoch_listener(node.observe_epoch)
        self._start(config)

    # -- internals ------------------------------------------------------------

    def route(self, env: Envelope) -> None:
        if self._closed:
            return
        if not isinstance(env.payload, (ReliableData, ReliableAck, Undeliverable)):
            endpoint = self._endpoint_for(env.src)
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
