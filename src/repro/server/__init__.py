"""HyperFile server sites: per-site node logic, contexts, statistics."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".context": ("QueryContext",),
    ".node": ("ServerNode", "StepReport"),
    ".stats": ("NodeStats",),
})
