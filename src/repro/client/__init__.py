"""Application-facing client API (the embedded query language, paper §2)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".api": ("HyperFile",),
    ".session": ("Session",),
    ".sets": ("combine_sets", "difference", "intersection", "union"),
})
