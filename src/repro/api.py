"""The unified cluster API every transport implements.

The reproduction has three ways to run the same server algorithm — the
discrete-event :class:`~repro.cluster.SimCluster` (calibrated virtual
time), the :class:`~repro.net.threaded.ThreadedCluster` (real threads,
objects by reference) and the :class:`~repro.net.asyncio_cluster.AsyncCluster`
(real TCP frames, optionally one process per site).  All of them subclass
:class:`~repro.net.common.ClusterBase`, which implements the client
surface once; this module pins that surface down as a contract, so a
scenario script written against :class:`ClusterAPI` runs unchanged on any
of them (and on a third-party transport that conforms to it):

* ``submit`` / ``wait`` — non-blocking install plus blocking collection,
  returning a :class:`QueryOutcome` (never a bare result);
* ``run_query`` / ``run_followup`` — the blocking conveniences, with
  identical ``deadline_s`` / ``on_deadline`` semantics everywhere
  (``"partial"`` returns ``result.partial=True``, ``"raise"`` raises
  :class:`~repro.errors.QueryTimeout` with the partial result attached);
* ``wait`` failures are a typed :class:`~repro.errors.TerminationLost`
  on every transport, carrying the credit deficit when the weighted
  detector is in use (see :func:`credit_deficit`);
* ``set_down`` / ``set_up`` and ``total_stats`` for availability
  scripting and measurement;
* ``migrate`` / ``replicate_all`` for data management — with a
  ``replication=`` config (see :mod:`repro.replication`) every transport
  keeps k copies per object and routes reads to any live replica;
* ``attach_tracer`` / ``detach_tracer`` and ``enable_metrics`` /
  ``metrics_snapshot`` — the uniform observability hooks (causal span
  tracing per :mod:`repro.tracing`, telemetry per
  :mod:`repro.metrics.registry`) on every transport, **including**
  ``ClusterConfig(processes=True)``, where spans ship across process
  boundaries over the control channel;
* the wider telemetry plane rides on :class:`~repro.config.ClusterConfig`:
  ``flight_recorder=`` arms a per-site bounded ring of recent spans
  (dumped automatically when a query dies badly — ``TerminationLost``,
  ``partial_reason="crash"``, deadline expiry), ``stats_stream_s=``
  streams periodic :class:`~repro.server.stats.NodeStats` samples into
  ``cluster.stats_timeline`` (a
  :class:`~repro.metrics.collect.StatsTimeline`), and completion stamps
  submit→first-result / submit→complete SLO histograms per tenant and
  priority into the metrics registry (see ``docs/OBSERVABILITY.md``);
* ``submit`` / ``run_query`` accept ``priority`` (service class) and
  ``client`` (admission identity) when a :class:`~repro.qos.QoSConfig`
  is active — a drained admission bucket bounces the submit with
  :class:`~repro.errors.Overloaded`, and load-shed work surfaces as
  ``result.partial`` with ``partial_reason == "shed"`` (see
  ``docs/QOS.md``).

``timeout_s`` is a wall-clock backstop; the simulator ignores it (its
clock is virtual — an idle event queue, not elapsed time, is its failure
signal) but accepts it so conformance scripts need no special-casing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Protocol, Union, runtime_checkable

from .core.ast import Query
from .core.oid import Oid
from .core.parser import parse_query
from .core.program import Program, compile_query
from .core.validate import validate_query
from .engine.results import QueryResult
from .net.messages import QueryId
from .server.context import RECENT_QUERIES
from .server.stats import NodeStats
from .termination.weights import ledger_deficit, ledger_of

#: Anything we can turn into an executable program.
QueryLike = Union[str, Query, Program]


def compile_query_like(query: QueryLike) -> Program:
    """Accept query text, AST, or a compiled program (shared by all
    transports, so strings work everywhere, not only on the simulator)."""
    if isinstance(query, str):
        query = parse_query(query)
    if isinstance(query, Query):
        validate_query(query)
        return compile_query(query)
    if isinstance(query, Program):
        return query
    raise TypeError(f"cannot compile {type(query).__name__} into a query program")


@dataclass
class QueryOutcome:
    """A completed query, with client-visible timing.

    ``submitted_at`` / ``completed_at`` are virtual seconds on the
    simulator and ``time.monotonic()`` readings on the real transports;
    only their difference is meaningful either way.
    """

    qid: QueryId
    result: QueryResult
    submitted_at: float
    completed_at: float
    client_link_s: float = 0.0
    partition_counts: Optional[Dict[str, int]] = None

    @property
    def response_time(self) -> float:
        """Wall-clock at the client: submit → results in hand."""
        return (self.completed_at - self.submitted_at) + 2 * self.client_link_s

    @property
    def partial_reason(self) -> Optional[str]:
        """Why the result is partial — ``"deadline"``, ``"crash"`` or
        ``"shed"`` — or ``None`` when it is complete."""
        return self.result.partial_reason


class OutcomeTable:
    """A cluster's table of completed queries, bounded like the sites'.

    An outcome stays until its client first reads it (``wait`` or
    ``outcome``) — it is the answer, and only the client knows when it
    will come for it — and after that for as long as it is among the
    last :data:`~repro.server.context.RECENT_QUERIES` outcomes read.
    Completions arrive from site threads; :meth:`wait` sleeps on a
    condition until *its* query is present.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._unread: Dict[QueryId, QueryOutcome] = {}
        self._read: "OrderedDict[QueryId, QueryOutcome]" = OrderedDict()

    def put(self, qid: QueryId, outcome: QueryOutcome) -> None:
        with self._cond:
            self._unread[qid] = outcome
            self._cond.notify_all()

    def get(self, qid: QueryId) -> Optional[QueryOutcome]:
        with self._cond:
            outcome = self._unread.pop(qid, None)
            if outcome is None:
                return self._read.get(qid)
            self._read[qid] = outcome
            if len(self._read) > RECENT_QUERIES:
                self._read.popitem(last=False)
            return outcome

    def wait(self, qid: QueryId, timeout_s: float) -> Optional[QueryOutcome]:
        """Block until ``qid`` has completed, ``timeout_s`` at most."""
        with self._cond:
            self._cond.wait_for(lambda: qid in self, timeout_s)
            return self.get(qid)

    def __contains__(self, qid: QueryId) -> bool:
        return qid in self._unread or qid in self._read

    def __len__(self) -> int:
        return len(self._unread) + len(self._read)


@runtime_checkable
class ClusterAPI(Protocol):
    """The client surface shared by every registered transport.

    Structural (``Protocol``): the builtin clusters get it from
    :class:`~repro.net.common.ClusterBase`, and a third-party transport
    conforms without inheriting anything — ``isinstance(cluster,
    ClusterAPI)`` checks the shape, and the conformance suite checks the
    behaviour.
    """

    @property
    def sites(self) -> List[str]: ...

    def store(self, site: str): ...

    def submit(
        self,
        query: QueryLike,
        initial: Iterable[Oid],
        originator: Optional[str] = None,
        deadline_s: Optional[float] = None,
        priority: Optional[str] = None,
        client: str = "default",
    ) -> QueryId: ...

    def wait(self, qid: QueryId, timeout_s: Optional[float] = None) -> QueryOutcome: ...

    def run_query(
        self,
        query: QueryLike,
        initial: Iterable[Oid],
        originator: Optional[str] = None,
        deadline_s: Optional[float] = None,
        on_deadline: str = "partial",
        timeout_s: Optional[float] = None,
        priority: Optional[str] = None,
        client: str = "default",
    ) -> QueryOutcome: ...

    def run_followup(
        self,
        query: QueryLike,
        source_qid: QueryId,
        originator: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> QueryOutcome: ...

    def outcome(self, qid: QueryId) -> Optional[QueryOutcome]: ...

    def migrate(self, oid: Oid, to_site: str) -> Oid: ...

    def replicate_all(self) -> int: ...

    def set_down(self, site: str) -> None: ...

    def set_up(self, site: str) -> None: ...

    def is_up(self, site: str) -> bool: ...

    def is_down(self, site: str) -> bool: ...

    def total_stats(self) -> NodeStats: ...

    def attach_tracer(self, tracer) -> None: ...

    def detach_tracer(self) -> None: ...

    def enable_metrics(self, registry=None): ...

    def metrics_snapshot(self): ...

    def close(self) -> None: ...


# --------------------------------------------------------------------------
# transport registry
# --------------------------------------------------------------------------


#: name -> factory(sites, *, config=None) -> ClusterAPI.
#: Builtins register lazily (import-on-first-use) so importing this
#: module never pulls in asyncio/socket machinery the caller won't use.
_TRANSPORTS: Dict[str, "TransportFactory"] = {}


class TransportFactory(Protocol):
    def __call__(self, sites: int = 3, *, config=None) -> "ClusterAPI": ...


def register_transport(name: str, factory: TransportFactory, *, replace: bool = False) -> None:
    """Register a cluster factory under a transport name.

    Third parties (and the builtins below) plug in here; the facade, the
    CLI, and the conformance suite all resolve transports by name, so a
    registered transport is immediately reachable everywhere — e.g.
    ``HyperFile(transport="mytransport")`` and ``repro --transport
    mytransport``.
    """
    if not name or not name.isidentifier():
        raise ValueError(f"transport name must be an identifier, got {name!r}")
    if name in _TRANSPORTS and not replace:
        raise ValueError(f"transport {name!r} is already registered")
    _TRANSPORTS[name] = factory


def transport_names() -> List[str]:
    """The registered transport names, sorted (for help text / errors)."""
    return sorted(_TRANSPORTS)


def transport_factory(name: str) -> TransportFactory:
    """Resolve one transport's factory; raises ``ValueError`` on unknowns."""
    try:
        return _TRANSPORTS[name]
    except KeyError:
        known = ", ".join(transport_names())
        raise ValueError(f"unknown transport {name!r} (registered: {known})") from None


def make_cluster(name: str, sites: int = 3, *, config=None) -> "ClusterAPI":
    """Build a cluster by transport name (the registry's front door)."""
    return transport_factory(name)(sites, config=config)


def _builtin(module: str, cls: str) -> TransportFactory:
    def factory(sites: int = 3, *, config=None) -> "ClusterAPI":
        import importlib

        return getattr(importlib.import_module(module), cls)(sites, config=config)

    factory.__name__ = f"{module}.{cls}"
    return factory


register_transport("sim", _builtin("repro.cluster", "SimCluster"))
register_transport("threaded", _builtin("repro.net.threaded", "ThreadedCluster"))
register_transport("async", _builtin("repro.net.asyncio_cluster", "AsyncCluster"))


def credit_deficit(nodes, qid: QueryId) -> Optional[Fraction]:
    """How much termination credit a query is missing, cluster-wide.

    The weighted-message detector conserves a total credit of 1: the
    originator recovers what returns, every context holds what is in
    play, and whatever the sum leaves uncovered is in flight — or, if the
    system is idle, lost.  ``1 - recovered - Σ held`` is therefore the
    exact deficit blocking termination, the number
    :class:`~repro.errors.TerminationLost` reports on every transport.

    Returns ``None`` for detectors without a credit ledger (e.g.
    Dijkstra-Scholten) or when the originator's context is gone.
    """
    contexts = (node.contexts.get(qid) for node in nodes.values())
    return ledger_deficit(ledger_of(ctx.term_state) for ctx in contexts if ctx is not None)
