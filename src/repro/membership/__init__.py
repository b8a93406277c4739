"""Elastic cluster membership: join, graceful leave, permanent-crash
detection, and the ring rebalancing that keeps k replicas placed as the
site set changes (docs/MEMBERSHIP.md).

The static site set was the last structural blocker between the paper's
prototype and the ROADMAP's production cluster: ``RingPlacement`` assumed
the sites named at construction are the sites forever.  This package
relaxes that:

* :class:`MembershipConfig` — one frozen config value, carried on
  :class:`~repro.config.ClusterConfig` as ``membership=``.  ``None``
  (the default) keeps every transport bit-identical to the
  fixed-membership build.
* :class:`MembershipView` — the epoch-numbered site-status table every
  component routes against (``up`` / ``leaving`` / ``departed``).
* :class:`MembershipService` — the authoritative view plus the seeded
  gossip failure detector (heartbeat counter tables merged from
  delivered :class:`~repro.net.messages.Heartbeat` frames).
* :class:`Rebalancer` — recomputes placement on every view change and
  moves/re-replicates exactly the objects whose placement changed,
  through the same :class:`~repro.replication.ReplicationManager`
  machinery queries already race against (epoch announcements fire the
  PR 4/5 cache- and directory-invalidation listeners).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".config": ("MembershipConfig",),
    ".rebalance": ("RebalanceReport", "Rebalancer"),
    ".service": ("MembershipService",),
    ".view": ("DEPARTED", "LEAVING", "UP", "MembershipView"),
})
