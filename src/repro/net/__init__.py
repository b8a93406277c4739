"""Transports: message types, simulated network, threaded in-process cluster."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".messages": (
        "ControlMessage", "DerefRequest", "Envelope", "FetchReply", "FetchRequest", "QueryId",
        "ResultBatch", "SeedFromSaved",
    ),
    ".simnet": ("SimHost", "SimNetwork"),
})
