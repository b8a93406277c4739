"""Storage substrates: main-memory stores and blob segregation."""

from .blobstore import BlobRef, BlobStore, resolve_value, spill_large_tuples
from .memstore import MemStore, UnionStore

__all__ = [
    "BlobRef",
    "BlobStore",
    "MemStore",
    "UnionStore",
    "resolve_value",
    "spill_large_tuples",
]
