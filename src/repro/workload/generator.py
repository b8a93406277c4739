"""Materialisation of the §5 synthetic database into HyperFile stores.

Every object in the paper's test database contains:

* **five search-key tuples** — one unique to the object, one found in all
  objects, and three drawn from spaces of 10, 100 and 1000 values
  ("changing the tuple and value searched for allowed us to vary the
  number of items found by a query");
* **one chain pointer** — a linked list of all items, always remote in
  multi-machine runs (maximum delay);
* **fourteen random pointers** — 7 locality classes × 2 pointers, with
  P(local) from .05 to .95 ("the query would branch out, yielding some
  parallelism");
* **tree pointers** — a spanning tree giving high parallelism at low
  message cost;
* a **body payload** — opaque text giving objects realistic bulk, so the
  file-server baseline (which must ship whole objects) pays the cost the
  paper's design avoids.

Search keys are expressed exactly as in the paper's example query
``(Rand10p, 5, ?)``: the tuple *type* names the key space and the tuple
*key* carries the value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.objects import HFObject
from ..core.oid import Oid
from ..core.tuples import HFTuple, pointer_tuple, text_tuple, tuple_of
from ..storage.memstore import MemStore
from .graphs import AbstractGraph, build_graph

#: Tuple types of the five search keys.
UNIQUE_TYPE = "Unique"
COMMON_TYPE = "Common"
RAND10_TYPE = "Rand10p"
RAND100_TYPE = "Rand100p"
RAND1000_TYPE = "Rand1000p"

SEARCH_KEY_SPACES: Dict[str, int] = {
    RAND10_TYPE: 10,
    RAND100_TYPE: 100,
    RAND1000_TYPE: 1000,
}

#: The value every object's Common tuple carries.
COMMON_VALUE = 0

CHAIN_KEY = "Chain"
TREE_KEY = "Tree"


def pointer_key_for(p_local: float) -> str:
    """Key naming a random-pointer locality class, e.g. 0.05 -> 'Rand05'."""
    return f"Rand{int(round(p_local * 100)):02d}"


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the synthetic database (defaults = the paper's)."""

    n_objects: int = 270
    groups: int = 9
    locality_classes: Tuple[float, ...] = (0.05, 0.20, 0.35, 0.50, 0.65, 0.80, 0.95)
    pointers_per_class: int = 2
    tree_arity: int = 2
    seed: int = 42
    payload_bytes: int = 2048

    def scaled(self, n_objects: int) -> "WorkloadSpec":
        """Same shape, different size (for the linearity experiment E6)."""
        return WorkloadSpec(
            n_objects=n_objects,
            groups=self.groups,
            locality_classes=self.locality_classes,
            pointers_per_class=self.pointers_per_class,
            tree_arity=self.tree_arity,
            seed=self.seed,
            payload_bytes=self.payload_bytes,
        )


@dataclass
class MaterializedWorkload:
    """The database, loaded into a set of stores.

    ``oids[i]`` is the HyperFile id of abstract object ``i``; ``root`` is
    object 0 (the query start point used throughout §5);
    ``key_values[t][i]`` is object ``i``'s value for search-key type
    ``t``.
    """

    spec: WorkloadSpec
    graph: AbstractGraph
    machines: int
    sites: List[str]
    oids: List[Oid]
    key_values: Dict[str, List[int]]

    @property
    def root(self) -> Oid:
        return self.oids[0]

    def site_of(self, index: int) -> str:
        return self.sites[self.graph.site_of(index, self.machines)]

    def indices_with_key(self, key_type: str, value: int) -> List[int]:
        """Ground truth: which objects carry (key_type, value)?"""
        if key_type == COMMON_TYPE:
            return list(range(self.spec.n_objects)) if value == COMMON_VALUE else []
        values = self.key_values[key_type]
        return [i for i, v in enumerate(values) if v == value]


def materialize(
    spec: WorkloadSpec,
    stores: Sequence[MemStore],
    graph: Optional[AbstractGraph] = None,
) -> MaterializedWorkload:
    """Build the database into ``stores`` (one per machine, in site order).

    The abstract graph may be passed in so that single-site, 3-site and
    9-site deployments share the *identical* pointer structure (paper §5);
    when omitted it is generated from the spec.
    """
    machines = len(stores)
    if machines < 1:
        raise ValueError("need at least one store")
    if graph is None:
        graph = build_graph(
            n=spec.n_objects,
            groups=spec.groups,
            locality_classes=spec.locality_classes,
            pointers_per_class=spec.pointers_per_class,
            tree_arity=spec.tree_arity,
            seed=spec.seed,
        )
    if machines > 1 and spec.groups % machines != 0:
        raise ValueError(
            f"machine count {machines} must divide the group count {spec.groups} "
            "so that group locality is preserved (the paper uses 1, 3 and 9)"
        )

    key_values = _draw_key_values(spec)
    payload = "x" * spec.payload_bytes

    # Each store loads its share in one call per pass, in abstract-index
    # order, so ids and epochs are what one call per object would give.
    shares: List[List[int]] = [[] for _ in stores]
    for i in range(spec.n_objects):
        shares[graph.site_of(i, machines)].append(i)

    # Pass 1: allocate ids.
    minted: Dict[int, Oid] = {}
    for store, share in zip(stores, shares):
        minted.update(zip(share, store.create_many(len(share))))
    oids = [minted[i] for i in range(spec.n_objects)]

    # Pass 2: fill in tuples now that every pointer target has an id.
    for store, share in zip(stores, shares):
        store.replace_many(
            HFObject(oids[i], _object_tuples(i, spec, graph, oids, key_values, payload),
                     size_hint=64 + spec.payload_bytes)
            for i in share
        )

    return MaterializedWorkload(
        spec=spec,
        graph=graph,
        machines=machines,
        sites=[store.site for store in stores],
        oids=oids,
        key_values=key_values,
    )


def generate_into_cluster(cluster, spec: WorkloadSpec, graph: Optional[AbstractGraph] = None) -> MaterializedWorkload:
    """Materialise into every site of a :class:`~repro.cluster.SimCluster`."""
    stores = [cluster.store(site) for site in cluster.sites]
    return materialize(spec, stores, graph=graph)


def _draw_key_values(spec: WorkloadSpec) -> Dict[str, List[int]]:
    """Search-key values per object: uniform draws from each key space."""
    rng = random.Random(spec.seed + 1)
    values: Dict[str, List[int]] = {}
    for key_type, space in SEARCH_KEY_SPACES.items():
        values[key_type] = [rng.randint(1, space) for _ in range(spec.n_objects)]
    return values


def _object_tuples(
    i: int,
    spec: WorkloadSpec,
    graph: AbstractGraph,
    oids: List[Oid],
    key_values: Dict[str, List[int]],
    payload: str,
) -> List[HFTuple]:
    tuples: List[HFTuple] = [
        tuple_of(UNIQUE_TYPE, i, ""),
        tuple_of(COMMON_TYPE, COMMON_VALUE, ""),
        tuple_of(RAND10_TYPE, key_values[RAND10_TYPE][i], ""),
        tuple_of(RAND100_TYPE, key_values[RAND100_TYPE][i], ""),
        tuple_of(RAND1000_TYPE, key_values[RAND1000_TYPE][i], ""),
        pointer_tuple(CHAIN_KEY, oids[graph.chain_next[i]]),
    ]
    for child in graph.tree_children[i]:
        tuples.append(pointer_tuple(TREE_KEY, oids[child]))
    for p, per_object in graph.random_targets.items():
        key = pointer_key_for(p)
        for target in per_object[i]:
            tuples.append(pointer_tuple(key, oids[target]))
    tuples.append(text_tuple("Body", payload))
    return tuples
