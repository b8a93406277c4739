"""Birth-site object naming and migration (paper §4)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".directory": ("ForwardingTable",),
    ".names": ("find_holder", "migrate_object", "resolution_path"),
})
