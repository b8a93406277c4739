"""Application-facing client sessions.

The HyperFile query interface is "an embedded language" (paper §2): an
application composes queries, names sets, and receives ``→`` retrievals
into its own variables.  A :class:`Session` provides that embedding for
Python programs:

* **named sets** — query sources and results are bound to names; a result
  set "can be used in further queries just like the set S";
* **set objects** — sets can be materialised as real HyperFile objects
  (an object with one pointer tuple per member, paper §2), so they are
  shareable and queryable like any other object;
* **variable bindings** — values shipped by ``(type, key, ->var)``
  filters land in :attr:`Session.bindings` under ``var``;
* **distributed sets** — when the cluster runs in ``result_mode="count"``
  a query's result stays partitioned at the sites; using it as the source
  of the next query seeds remotely with no ids crossing the wire.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Union

from ..core.ast import Query
from ..core.objects import make_set_object, set_members
from ..core.oid import Oid
from ..core.parser import parse_query
from ..errors import HyperFileError, ResultSetRetired
from ..net.messages import QueryId


class Session:
    """One application's connection to a cluster.

    Works with :class:`~repro.cluster.SimCluster`; the threaded cluster
    can be driven directly for tests that need real concurrency.
    """

    def __init__(self, cluster, home_site: Optional[str] = None) -> None:
        self.cluster = cluster
        self.home_site = home_site if home_site is not None else cluster.sites[0]
        #: name -> explicit member oids (local sets)
        self._sets: Dict[str, List[Oid]] = {}
        #: name -> qid whose partitions ARE the set (distributed sets)
        self._distributed: Dict[str, QueryId] = {}
        #: →var bindings accumulated by queries
        self.bindings: Dict[str, List[Any]] = {}
        #: response time of the most recent query (virtual seconds)
        self.last_response_time: Optional[float] = None
        self.last_outcome = None

    # -- set management --------------------------------------------------

    def define_set(self, name: str, members: Iterable[Oid]) -> None:
        """Bind ``name`` to an explicit collection of objects."""
        self._sets[name] = list(members)
        self._distributed.pop(name, None)

    def set_members(self, name: str) -> List[Oid]:
        """The member oids of a (non-distributed) named set."""
        if name in self._distributed:
            raise HyperFileError(
                f"set {name!r} is distributed; its members live at the sites "
                "(use it as a query source, or count_set())"
            )
        try:
            return list(self._sets[name])
        except KeyError:
            raise HyperFileError(f"unknown set {name!r}") from None

    def has_set(self, name: str) -> bool:
        return name in self._sets or name in self._distributed

    def is_distributed(self, name: str) -> bool:
        return name in self._distributed

    def count_set(self, name: str) -> int:
        """Size of a named set (summing partition counts if distributed)."""
        if name in self._distributed:
            outcome = self.cluster.outcome(self._distributed[name])
            if outcome is None:
                raise ResultSetRetired(
                    f"set {name!r}: its query left the cluster's recently-finished window"
                )
            counts = outcome.partition_counts or {}
            return sum(counts.values())
        return len(self.set_members(name))

    def materialize_set(self, name: str, key: str = "Member") -> Oid:
        """Store the set as a real HyperFile object at the home site."""
        members = self.set_members(name)
        store = self.cluster.store(self.home_site)
        obj = store.create([])
        store.replace(make_set_object(obj.oid, members, key=key))
        return obj.oid

    def load_set_object(self, name: str, oid: Oid, key: str = "Member") -> None:
        """Bind ``name`` to the members of a stored set object."""
        store = self.cluster.store(self.cluster.node(self.home_site).locate(oid))
        self._sets[name] = set_members(store.get(oid), key=key)
        self._distributed.pop(name, None)

    # -- queries -------------------------------------------------------------

    def query(self, query: Union[str, Query]) -> List[Oid]:
        """Run a query; returns the result oids and binds the result set.

        The query's source must be a set this session knows.  ``→``
        retrievals are appended to :attr:`bindings`.  With a distributed
        source, the follow-up protocol is used (ids stay at the sites).
        """
        if isinstance(query, str):
            query = parse_query(query)
        source = query.source
        if source in self._distributed:
            outcome = self.cluster.run_followup(
                query, self._distributed[source], originator=self.home_site
            )
        elif source in self._sets:
            outcome = self.cluster.run_query(
                query, self._sets[source], originator=self.home_site
            )
        else:
            raise HyperFileError(f"query source set {source!r} is not defined")

        self.last_response_time = outcome.response_time
        self.last_outcome = outcome
        for target, values in outcome.result.retrieved.items():
            self.bindings.setdefault(target, []).extend(values)

        result_oids = outcome.result.oids.as_list()
        if outcome.partition_counts:
            # Distributed-set mode: the ids stayed at the sites.
            self._distributed[query.result] = outcome.qid
            self._sets.pop(query.result, None)
        else:
            self._sets[query.result] = result_oids
            self._distributed.pop(query.result, None)
        return result_oids

    def combine(self, result_name: str, operation: str, *set_names: str) -> List[Oid]:
        """Set algebra over named sets: union / intersection / difference.

        Binds the combined set to ``result_name`` and returns its members
        (see :mod:`repro.client.sets`)."""
        from .sets import combine_sets

        return combine_sets(self, result_name, operation, *set_names)

    def retrieve(self, var: str) -> List[Any]:
        """All values bound to ``->var`` so far."""
        return list(self.bindings.get(var, ()))

    def clear_bindings(self) -> None:
        self.bindings.clear()
