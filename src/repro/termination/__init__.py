"""Distributed termination detection (paper §4)."""

from .base import TerminationStrategy, make_strategy
from .dijkstra_scholten import DijkstraScholtenStrategy, DSState
from .weights import Credit, WeightedState, WeightedStrategy

__all__ = [
    "Credit",
    "DijkstraScholtenStrategy",
    "DSState",
    "TerminationStrategy",
    "WeightedState",
    "WeightedStrategy",
    "make_strategy",
]
