"""Independent correctness oracle for the closure workloads.

The expected answer of ``Root [ (Pointer, key, ?X) | ^^X ]* (Rand10p, v, ?)``
is computed without the query engine: breadth-first search over the
abstract pointer graph from object 0 along one pointer family,
intersected with the objects whose ``Rand10p`` value is ``v``.  The
oracle keeps its own copy of those values so the update workload can
mirror each mutation it sends to the cluster.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, List, Sequence, Tuple

from repro.workload import CHAIN_KEY, RAND10_TYPE, TREE_KEY, MaterializedWorkload, pointer_key_for
from repro.workload.graphs import AbstractGraph

SEARCH_TYPE = RAND10_TYPE


def successors(graph: AbstractGraph, pointer_key: str) -> List[Sequence[int]]:
    """Per-object targets of one pointer family of the abstract graph."""
    if pointer_key == CHAIN_KEY:
        return [(nxt,) for nxt in graph.chain_next]
    if pointer_key == TREE_KEY:
        return graph.tree_children
    for p_local, targets in graph.random_targets.items():
        if pointer_key_for(p_local) == pointer_key:
            return targets
    raise ValueError(f"the graph has no pointer family {pointer_key!r}")


def reachable_from_root(graph: AbstractGraph, pointer_key: str) -> List[int]:
    """Object indices the closure visits (every object has an outgoing
    pointer of each family, so none is dropped inside the iterator)."""
    edges = successors(graph, pointer_key)
    seen = {0}
    queue = deque([0])
    while queue:
        for target in edges[queue.popleft()]:
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return sorted(seen)


class Oracle:
    """Expected result sets for one workload's query family."""

    def __init__(self, db: MaterializedWorkload, pointer_key: str) -> None:
        self._keys = [oid.key() for oid in db.oids]
        self._reachable = reachable_from_root(db.graph, pointer_key)
        self._values = list(db.key_values[SEARCH_TYPE])

    @property
    def objects_visited(self) -> int:
        return len(self._reachable)

    def expected(self, value: int) -> FrozenSet[Tuple[str, int]]:
        """Identity keys (``Oid.key()``) of the objects the query must return."""
        return frozenset(self._keys[i] for i in self._reachable if self._values[i] == value)

    def record_update(self, index: int, value: int) -> None:
        """Mirror ``object[index].Rand10p = value``."""
        self._values[index] = value
