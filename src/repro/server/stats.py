"""Per-node operational statistics.

Counters every server node maintains, independent of any single query.
The metrics layer (:mod:`repro.metrics`) aggregates these across a
cluster; benchmarks read them to report message counts and bytes moved,
the quantities the paper's trade-off discussion revolves around
(message cost vs. parallelism vs. delay).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class NodeStats:
    """Counters for one site."""

    messages_sent: Dict[str, int] = field(default_factory=dict)
    messages_received: Dict[str, int] = field(default_factory=dict)
    bytes_sent: int = 0
    bytes_received: int = 0
    failed_sends: int = 0          #: messages dropped because the target was down
    duplicate_requests: int = 0    #: arriving DerefRequests the local mark table suppressed
                                   #: (the messages a hypothetical global table would save)
    forwarded_requests: int = 0    #: DerefRequests re-routed via naming (migrations)
    objects_processed: int = 0
    marked_skips: int = 0
    busy_seconds: float = 0.0      #: virtual CPU time consumed at this site
    drains: int = 0                #: local working-set drain events
    contexts_created: int = 0
    contexts_retired: int = 0      #: contexts freed (purge, LRU eviction, reused id)
    site_errors: int = 0           #: raises the site loop contained (a message or step threw)
    # Fault-tolerance counters (reliable channel + query deadlines).
    retransmits: int = 0           #: reliable-channel frames re-sent (unacked in time)
    duplicates_dropped: int = 0    #: replayed frames the receive-side dedup absorbed
    reliable_give_ups: int = 0     #: sends abandoned after max retransmit attempts
    deadline_expiries: int = 0     #: queries force-completed by their deadline
    late_messages: int = 0         #: results/controls arriving after completion, ignored
    # Batching counters (comms coalescing layer, see repro.net.batching).
    batched_items: int = 0         #: work items shipped inside BatchedQuery frames
    sends_suppressed: int = 0      #: sends skipped by sent-set / remote mark hints
    batch_flushes_size: int = 0    #: queue flushes triggered by the size threshold
    batch_flushes_drain: int = 0   #: flushes triggered by a working-set drain
    batch_flushes_timer: int = 0   #: flushes triggered by the linger timer
    batch_flushes_idle: int = 0    #: flushes triggered by node-idle force-flush
    # Caching counters (cross-query caching layer, see repro.cache).
    cache_hits: int = 0            #: engine steps served from the fragment cache
    cache_misses: int = 0          #: fragment-cache probes that missed (or were stale)
    cache_evictions: int = 0       #: fragment entries evicted by the LRU/byte budget
    query_cache_hits: int = 0      #: whole queries answered from the result cache
    sends_suppressed_bloom: int = 0  #: remote work suppressed by a peer's Bloom summary
    summaries_sent: int = 0        #: site summaries piggybacked on result messages
    summaries_received: int = 0    #: site summaries ingested from result messages
    # Replication counters (k-way replica routing, see repro.replication).
    replica_failovers: int = 0     #: work re-routed to another live replica
    replica_local_serves: int = 0  #: remote-targeted work admitted at a local replica
    # QoS counters (admission control / backpressure / shedding, see repro.qos).
    work_shed: int = 0             #: arriving work items dropped by load shedding
    backpressure_transitions: int = 0  #: times this site crossed its high watermark
    sends_throttled: int = 0       #: size-flushes deferred toward pressured destinations

    def count_sent(self, kind: str, size: int) -> None:
        self.messages_sent[kind] = self.messages_sent.get(kind, 0) + 1
        self.bytes_sent += size

    def count_received(self, kind: str, size: int) -> None:
        self.messages_received[kind] = self.messages_received.get(kind, 0) + 1
        self.bytes_received += size

    @property
    def total_sent(self) -> int:
        return sum(self.messages_sent.values())

    @property
    def total_received(self) -> int:
        return sum(self.messages_received.values())

    def merge(self, other: "NodeStats") -> None:
        """Accumulate another node's counters into this one.

        Driven by ``dataclasses.fields`` so a newly added counter is
        merged automatically — forgetting it here silently under-reported
        cluster totals when this was a hand-maintained list.  Dict fields
        merge per key; numeric fields add.
        """
        for f in fields(self):
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if isinstance(mine, dict):
                for key, n in theirs.items():
                    mine[key] = mine.get(key, 0) + n
            elif isinstance(mine, (int, float)):
                setattr(self, f.name, mine + theirs)
            else:  # pragma: no cover - no such fields today
                raise TypeError(
                    f"NodeStats.merge cannot combine field {f.name!r} of type "
                    f"{type(mine).__name__}"
                )

    def sample(self) -> Dict[str, object]:
        """A plain-dict snapshot of every counter (field-driven, like
        :meth:`merge`) — what the streaming-stats samplers append to the
        :class:`~repro.metrics.collect.StatsTimeline` each period.  Dict
        fields are copied so the sample is immune to later mutation;
        safe to call from a sampler thread (dict copies of int values)."""
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = dict(value) if isinstance(value, dict) else value
        return out
