"""Admission control, backpressure and multi-tenant QoS (docs/QOS.md)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".config": ("PRIORITIES", "QoSConfig"),
    ".limiter": ("ClientLimiter",),
    ".policy": ("RoundRobin", "SiteQoS", "WeightedFair"),
})
