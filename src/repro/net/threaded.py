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
already queued behind it, hands the whole burst to its
:class:`~repro.net.site.SiteRuntime`, which steps until idle — so W
empties, and the site sends its results and credit home, once per burst,
not once per envelope.

Delivery, availability and faults follow the one
:class:`~repro.net.site.WirePolicy`; this transport's share is an inbox
``put`` per copy, with the cluster's shared timer wheel for delayed
copies, retransmits and scheduled crashes.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..config import ClusterConfig
from ..net.messages import Envelope
from ..server.node import ServerNode
from .common import ClusterBase
from .site import SiteRuntime

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
        self.runtime = SiteRuntime(node, cluster.wire, lambda: cluster.flight_recorder)
        self.inbox: "queue.Queue[Optional[Envelope]]" = queue.Queue()
        self.lock = threading.Lock()
        self.stopped = threading.Event()
        self.thread = threading.Thread(target=self.serve, name=f"hf-{node.site}", daemon=True)

    def stop(self) -> None:
        self.stopped.set()
        self.inbox.put(None)  # wake the loop

    def serve(self) -> None:
        """The worker thread: one burst per wake, by the site-loop rule."""
        site = self.node.site
        cluster = self.cluster
        down = cluster.wire.down
        inbox = self.inbox
        stopped = self.stopped
        while True:
            burst = [inbox.get()]
            while site in down and not stopped.is_set():
                time.sleep(_DOWN_POLL_S)
            if stopped.is_set():
                return
            while True:
                try:
                    burst.append(inbox.get_nowait())
                except queue.Empty:
                    break
            outgoing: List[Envelope] = []
            with self.lock:
                for _ in self.runtime.serve(burst, outgoing):
                    pass  # a thread has no loop to yield to
            for env in outgoing:
                cluster.route(env)


class ThreadedCluster(ClusterBase):
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
        config.require_default("costs", "mark_granularity", "processes", "host", transport="threaded")
        self._loops: Dict[str, _SiteLoop] = {}
        super().__init__(sites, config, now=time.monotonic)
        for loop in self._loops.values():
            loop.thread.start()
        self._arm_faults()

    def _attach_site(self, node: ServerNode) -> None:
        self._loops[node.site] = _SiteLoop(node, self)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._stop_threads()
        self.wire.close()
        for loop in self._loops.values():
            loop.stop()

    # -- the wire's transport hooks ---------------------------------------

    def _site_up(self, site: str) -> None:
        self._loops[site].inbox.put(None)  # wake the frozen loop

    def _deliver(self, env: Envelope) -> None:
        self._loops[env.dst].inbox.put(env)

    # -- queries: the surface is ClusterBase's --------------------------

    def _at_site(self, site: str, call: Callable[[ServerNode], object]) -> None:
        """Run a client thread's ``call`` on ``site``'s node under its lock,
        route what it sent, and nudge the loop: local work may now exist."""
        loop = self._loops[site]
        with loop.lock:
            report = call(loop.node)
        for env in report.outgoing:
            self.route(env)
        loop.inbox.put(None)

    def route(self, env: Envelope) -> None:
        if not self._closed:
            self.wire.send(env)
