"""Storage substrates: main-memory stores and blob segregation."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".blobstore": ("BlobRef", "BlobStore", "resolve_value", "spill_large_tuples"),
    ".memstore": ("MemStore", "UnionStore"),
})
