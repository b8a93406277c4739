"""Working-set data structures.

Paper §3.1, footnote 4: "The choice of data structure for the working set
determines the search order for the algorithm, for example a queue gives
breadth-first search.  Work by Sarantos Kapidakis shows that a node-based
search (such as a breadth-first search) will give the best results in the
average case."

We provide three disciplines behind one interface so the ablation bench
(A2 in DESIGN.md) can compare them:

* :class:`FifoWorkSet` — queue / breadth-first (the paper's default);
* :class:`LifoWorkSet` — stack / depth-first;
* :class:`PriorityWorkSet` — caller-supplied priority (e.g. shallow
  iteration numbers first, which approximates Kapidakis' node-based order
  when pointer chains fan out unevenly).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Deque, Iterable, List, Optional, Tuple

from .items import WorkItem


class WorkSet(ABC):
    """Abstract working set ``W`` of paper Figure 3."""

    @abstractmethod
    def add(self, item: WorkItem) -> None:
        """Insert one item."""

    @abstractmethod
    def pop(self) -> WorkItem:
        """Remove and return the next item; raises ``IndexError`` when empty."""

    @abstractmethod
    def __len__(self) -> int: ...

    def extend(self, items: Iterable[WorkItem]) -> None:
        """Insert several items."""
        for item in items:
            self.add(item)

    def __bool__(self) -> bool:
        return len(self) > 0


class FifoWorkSet(WorkSet):
    """Queue discipline — breadth-first traversal (the paper's choice)."""

    def __init__(self) -> None:
        self._queue: Deque[WorkItem] = deque()

    def add(self, item: WorkItem) -> None:
        self._queue.append(item)

    def pop(self) -> WorkItem:
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)


class LifoWorkSet(WorkSet):
    """Stack discipline — depth-first traversal."""

    def __init__(self) -> None:
        self._stack: List[WorkItem] = []

    def add(self, item: WorkItem) -> None:
        self._stack.append(item)

    def pop(self) -> WorkItem:
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)


class PriorityWorkSet(WorkSet):
    """Priority discipline with a caller-supplied key function.

    Ties break by insertion order, keeping runs deterministic.  The default
    key processes shallow pointer chains first (smallest innermost
    iteration count), a node-based order in Kapidakis' sense.
    """

    def __init__(self, key: Optional[Callable[[WorkItem], float]] = None) -> None:
        self._key = key if key is not None else _default_priority
        self._heap: List[Tuple[float, int, WorkItem]] = []
        self._counter = 0

    def add(self, item: WorkItem) -> None:
        heapq.heappush(self._heap, (self._key(item), self._counter, item))
        self._counter += 1

    def pop(self) -> WorkItem:
        if not self._heap:
            raise IndexError("pop from empty PriorityWorkSet")
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


def _default_priority(item: WorkItem) -> float:
    return max((count for _, count in item.iters), default=1)


#: Registry mapping discipline names (used in configs/benchmarks) to factories.
DISCIPLINES = {
    "fifo": FifoWorkSet,
    "lifo": LifoWorkSet,
    "priority": PriorityWorkSet,
}


def make_workset(discipline: str = "fifo") -> WorkSet:
    """Instantiate a working set by discipline name."""
    try:
        factory = DISCIPLINES[discipline]
    except KeyError:
        raise ValueError(
            f"unknown work-set discipline {discipline!r}; choose from {sorted(DISCIPLINES)}"
        ) from None
    return factory()
