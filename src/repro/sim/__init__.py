"""Discrete-event simulation kernel and the paper's cost model."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".costs": ("FREE_COSTS", "PAPER_COSTS", "CostModel"),
    ".kernel": ("EventHandle", "SchedulePolicy", "Simulator"),
})
