"""One site's QoS policy and the drain order (docs/QOS.md).

A :class:`~repro.server.node.ServerNode` built with a
:class:`~repro.qos.QoSConfig` holds one :class:`SiteQoS`, consulted on
every handled envelope, arriving work item, queued send and outgoing
envelope, and drains in :class:`WeightedFair` order.  Built without one
it holds no QoS object and drains in the paper's :class:`RoundRobin`
order, so its scheduling, wire frames and costs are the pre-QoS ones.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, Optional, Tuple

from .config import PRIORITIES, QoSConfig

if TYPE_CHECKING:  # pragma: no cover - typing only (the node imports us)
    from ..server.context import QueryContext
    from ..server.node import ServerNode


class RoundRobin:
    """The paper's drain order: each busy context in turn, one object a
    step.  Holds query ids; ``contexts`` is the node's context table."""

    def __init__(self, contexts: Dict[Any, "QueryContext"]) -> None:
        self.contexts = contexts
        self.queue: Deque[Any] = deque()

    def add(self, ctx: "QueryContext") -> None:
        if ctx.qid not in self.queue:
            self.queue.append(ctx.qid)

    def remove(self, qid: Any) -> None:
        if qid in self.queue:
            self.queue.remove(qid)

    def next(self) -> Optional["QueryContext"]:
        """The next busy context, rotating past idle ones; None if none."""
        queue = self.queue
        for _ in range(len(queue)):
            qid = queue[0]
            queue.rotate(-1)
            ctx = self.contexts.get(qid)
            if ctx is not None and ctx.busy:
                return ctx
        return None


class WeightedFair:
    """Weighted-fair drain over the service classes.

    Each round grants ``interactive_weight`` turns to interactive
    contexts and ``batch_weight`` to batch ones, round-robin within a
    class.  A class with turns left but nothing runnable forfeits them
    (work-conserving); when both classes are spent or empty the round
    resets.  With a single class present this is the plain round-robin.
    """

    def __init__(self, config: QoSConfig, contexts: Dict[Any, "QueryContext"]) -> None:
        self.config = config
        self.classes = {cls: RoundRobin(contexts) for cls in PRIORITIES}
        self.credits = {"interactive": config.interactive_weight, "batch": config.batch_weight}

    def add(self, ctx: "QueryContext") -> None:
        if any(ctx.qid in rr.queue for rr in self.classes.values()):
            return
        cls = ctx.priority if ctx.priority in PRIORITIES else "interactive"
        self.classes[cls].queue.append(ctx.qid)

    def remove(self, qid: Any) -> None:
        for rr in self.classes.values():
            rr.remove(qid)

    def next(self) -> Optional["QueryContext"]:
        for _ in range(2):  # at most one credit refill per call
            for cls in PRIORITIES:
                if self.credits[cls] <= 0:
                    continue
                ctx = self.classes[cls].next()
                if ctx is not None:
                    self.credits[cls] -= 1
                    return ctx
                self.credits[cls] = 0
            if any(self.credits.values()):
                break
            self.credits["interactive"] = self.config.interactive_weight
            self.credits["batch"] = self.config.batch_weight
        return None


class SiteQoS:
    """Backpressure, shedding and envelope stamping for one site; reads
    the node's work depth, counters and telemetry sinks."""

    def __init__(self, config: QoSConfig, node: "ServerNode") -> None:
        self.config = config
        self.node = node
        #: Sites whose last envelope signalled high-watermark pressure.
        self.pressured: set = set()
        #: This site's own pressure state (1 = above the high watermark,
        #: 0 = clear), with hysteresis between the two watermarks.
        self.pressure = 0

    def service_class(self, requested: Optional[str]) -> str:
        """The class a local submit runs in."""
        return requested if requested is not None else self.config.default_priority

    def _count(self, stat: str, metric: str) -> None:
        node = self.node
        setattr(node.stats, stat, getattr(node.stats, stat) + 1)
        if node.metrics is not None:
            node.metrics.counter(metric, site=node.site).inc()

    def _refresh(self) -> None:
        """Re-evaluate this site's pressure state with hysteresis."""
        config = self.config
        if config.high_watermark is None:
            return
        depth = self.node.work_depth
        if self.pressure == 0 and depth >= config.high_watermark:
            self.pressure = 1
            self._count("backpressure_transitions", "qos.backpressure_transitions_total")
        elif self.pressure == 1 and depth <= config.low_watermark:
            self.pressure = 0

    def observe(self, env: Any) -> None:
        """A handled envelope: the sender's backpressure state piggybacks
        on it (so our sends toward that site throttle), and our own depth
        moved."""
        if env.pressure is not None:
            if env.pressure:
                self.pressured.add(env.src)
            else:
                self.pressured.discard(env.src)
        self._refresh()
        node = self.node
        if node.metrics is not None:
            batcher = node._batcher
            node.metrics.gauge("qos.queue_depth", site=node.site).set(node.work_depth)
            node.metrics.gauge("qos.send_queue_depth", site=node.site).set(
                batcher.total_queued if batcher is not None else 0
            )

    def shed(self, ctx: "QueryContext", env: Any, parent: Optional[int]) -> bool:
        """Take the class a work envelope carries for its query, then say
        whether to shed this arriving item instead of admitting it.

        Only batch-class work is shed (unless ``shed_interactive`` is
        set), and only while the local work queue sits at or above the
        shed watermark.  Seeds installed by a local submit are never
        shed — admission control (the token bucket) governs those.  A
        shed item is accounted here; the caller still absorbs its
        termination credit, which returns to the originator with the next
        drain, together with the ``#shed`` count that marks the outcome
        partial.
        """
        if env.priority is not None:
            ctx.priority = env.priority
        config, node = self.config, self.node
        if config.shed_watermark is None:
            return False
        if ctx.priority != "batch" and not config.shed_interactive:
            return False
        if node.work_depth < config.shed_watermark:
            return False
        self._count("work_shed", "qos.work_shed_total")
        if node.tracer is not None:
            node.tracer.emit(node.site, "shed", ctx.qid, parent=parent)
        if ctx.is_originator:
            ctx.saw_shed = True
        else:
            ctx.shed_pending += 1
        return True

    def size_threshold(self, dst: str, pending: int) -> int:
        """Queued items toward ``dst`` that trigger a size flush.

        Work for a pressured site is held in larger batches (drain/idle
        flushes still go out, so credit liveness is untouched — only the
        *size* trigger defers); each deferred flush is counted.
        """
        threshold = self.node.batching.max_batch
        if dst not in self.pressured:
            return threshold
        held = threshold * self.config.pressure_batch_factor
        if threshold <= pending < held:
            self._count("sends_throttled", "qos.sends_throttled_total")
        return held

    def stamp(self, payload: Any) -> Tuple[Optional[str], Optional[int]]:
        """``(priority, pressure)`` for an outgoing envelope: the class of
        the query it belongs to, and this site's current pressure state
        when backpressure is on."""
        ctx = self.node.contexts.get(getattr(payload, "qid", None))
        priority = ctx.priority if ctx is not None else None
        if self.config.high_watermark is None:
            return priority, None
        self._refresh()
        return priority, self.pressure
