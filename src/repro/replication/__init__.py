"""k-way object replication with read-anycast routing (docs/REPLICATION.md).

The paper's distributed algorithm assumes every remote pointer resolves
at exactly one live site.  This package relaxes that: a
:class:`~repro.replication.policy.ReplicationConfig` asks for ``k``
copies of every object, a placement policy spreads them over the
cluster, and a :class:`~repro.replication.manager.ReplicationManager`
keeps the copies write-through consistent (mutations fan out to every
holder, bumping a per-object version counter in the shared
:class:`~repro.naming.directory.ReplicaDirectory`).

Dereference routing then becomes *anycast*: any live holder may serve a
:class:`~repro.net.messages.DerefRequest`, and when the preferred holder
is down (availability oracle) or a work message bounces off it
(:class:`~repro.net.messages.Undeliverable` / reliable-channel give-up),
the sender re-routes to the next live replica, re-splitting termination
credit for the new send so the weighted detector stays exact.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".policy": ("PlacementPolicy", "ReplicationConfig", "RingPlacement"),
    ".manager": ("ReplicationManager",),
})
