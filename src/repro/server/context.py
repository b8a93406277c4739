"""Per-site query contexts (paper §3.2).

"Each site keeps a local context for queries it is processing", holding
``Q.id``, ``Q.originator``, ``Q.body``, ``Q.size``, ``Q.mark_table``,
``Q.W`` and ``Q.result``.  Here the mark table, working set and result
live inside the embedded :class:`~repro.engine.local.QueryExecution`;
the context adds the originator-side aggregation state, the termination
detector's ledger, and flush cursors (a site ships only results
accumulated since its previous drain — "Q.result is sent to
Q.originator, and Q.result is reset to {}").

The context survives across drains: "after a site has emptied Q.W and
sent results, another dereference message for Q may arrive.  Since the
context Q is still in place, the setup cost is only required once at
each involved site."  It does not survive the query: "the context Q is
discarded only on global termination", which the originator detects and
announces with ``PurgeContext`` (see ``docs/ALGORITHMS.md`` §contexts);
the originator itself keeps the last :data:`RECENT_QUERIES` finished
contexts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.oid import Oid
from ..engine.local import QueryExecution
from ..engine.results import QueryResult
from ..net.messages import QueryId

#: How many *finished* queries stay reachable after completion — at the
#: originator (its context: ``credit_deficit``, reused-id incarnations,
#: count-mode follow-ups) and in the clusters' outcome tables.  One
#: constant, not a knob: every per-query table is bounded by it.
RECENT_QUERIES = 32

#: How many purged runs — ``(qid, incarnation)`` pairs — each site
#: remembers, oldest evicted first.  Work still in flight for a remembered
#: run is dropped instead of re-creating its context: only a run whose
#: credit was written off (deadline, crash) can leave such work behind,
#: and re-walking it would never end on a cyclic closure.  Four windows'
#: worth, so a burst of that many concurrent expiries stays remembered.
PURGED_RUNS = 4 * RECENT_QUERIES


@dataclass
class QueryContext:
    """Everything one site knows about one in-flight query."""

    qid: QueryId
    execution: QueryExecution
    is_originator: bool
    term_state: Any

    #: Originator only: the aggregated, application-visible result.
    final: Optional[QueryResult] = None

    #: Originator only: True once the termination detector has fired.
    done: bool = False

    #: Originator only (distributed-set mode): per-site result counts.
    partition_counts: Dict[str, int] = field(default_factory=dict)

    #: Originator only: sites that sent results (``PurgeContext`` recipients).
    participants: set = field(default_factory=set)

    #: Flush cursors into the execution's cumulative result.
    _oid_cursor: int = 0
    _emission_cursor: Dict[str, int] = field(default_factory=dict)

    #: Number of local drains (result messages sent / credit returns).
    drains: int = 0

    #: Tracing: span id of the event that created this context (the
    #: ``submit`` at the originator, the first ``recv`` elsewhere).
    #: Fallback parent for events with no tighter cause, so a traced
    #: query's span tree stays connected.  None when untraced.
    root_span: Optional[int] = None

    #: Which run of this query id the context belongs to.  1 for every
    #: query whose id is never reused; bumped when an expired query's id
    #: is resubmitted, so stale in-flight messages from the previous run
    #: (which carry the old incarnation, or none) are dropped instead of
    #: corrupting the new run's credit ledger or result set.
    incarnation: int = 1

    #: QoS service class (see :mod:`repro.qos`); meaningful only when the
    #: node runs with a QoSConfig, "interactive" otherwise.
    priority: str = "interactive"

    #: Work items this site shed for the query since its last drain; the
    #: count rides the next drain's term attachment as ``#shed`` so the
    #: originator knows the outcome is partial.
    shed_pending: int = 0

    #: Originator only: some site (possibly this one) shed work for this
    #: query — the final result is partial with reason ``"shed"``.
    saw_shed: bool = False

    #: Work branches this site abandoned because their destination was
    #: down (no live replica either).  At the originator this decides
    #: ``partial_reason`` when a deadline expires: ``"crash"`` beats
    #: ``"deadline"`` when branches were written off.
    abandoned: int = 0

    #: Originator only: SLO watermarks.  ``submitted_at`` is stamped by
    #: :meth:`ServerNode.submit` from the node clock; ``first_result_at``
    #: the first time a result lands in ``final`` (local merge or remote
    #: ResultBatch); both feed the ``slo.*`` histograms at completion.
    #: ``tenant`` labels them (the QoS ``client=``, "default" otherwise).
    submitted_at: Optional[float] = None
    first_result_at: Optional[float] = None
    tenant: str = "default"

    @property
    def busy(self) -> bool:
        """Does this site still hold work for the query?"""
        return bool(self.execution.workset)

    def take_unflushed(self) -> Tuple[Tuple[Oid, ...], Tuple[Tuple[str, Any], ...]]:
        """Results accumulated since the last drain (and advance cursors)."""
        oids = tuple(self.execution.result.oids.as_list()[self._oid_cursor :])
        self._oid_cursor += len(oids)
        emissions: List[Tuple[str, Any]] = []
        for target, values in self.execution.result.retrieved.items():
            start = self._emission_cursor.get(target, 0)
            for value in values[start:]:
                emissions.append((target, value))
            self._emission_cursor[target] = len(values)
        return oids, tuple(emissions)

    def local_partition(self) -> List[Oid]:
        """This site's full local result partition (distributed-set mode)."""
        return self.execution.result.oids.as_list()
