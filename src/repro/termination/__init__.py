"""Distributed termination detection (paper §4)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("TerminationStrategy", "make_strategy"),
    ".dijkstra_scholten": ("DijkstraScholtenStrategy", "DSState"),
    ".weights": ("Credit", "WeightedState", "WeightedStrategy"),
})
