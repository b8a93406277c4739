"""Convenience facade: build a working HyperFile deployment in one call.

This is the "five-minute quickstart" layer used by the examples; power
users assemble :class:`~repro.cluster.SimCluster` pieces directly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..api import transport_factory, transport_names
from ..cache import CacheConfig
from ..config import ClusterConfig, resolve_config
from ..core.oid import Oid
from ..core.tuples import HFTuple
from ..net.batching import BatchConfig
from ..qos import QoSConfig
from ..replication import ReplicationConfig
from ..sim.costs import CostModel, PAPER_COSTS
from .session import Session


#: Transport names known at import time — a snapshot of the
#: :mod:`repro.api` registry (use :func:`repro.api.transport_names` for
#: the live view including late registrations).
TRANSPORTS: Tuple[str, ...] = tuple(transport_names())


class HyperFile:
    """A ready-to-use HyperFile service (cluster + session).

    Example::

        hf = HyperFile(sites=3)
        paper = hf.create("site0",
                          string_tuple("Title", "HyperFile"),
                          keyword_tuple("Distributed"))
        hf.define_set("S", [paper])
        hf.query('S (Keyword, "Distributed", ?) -> T')
        hf.members("T")   # -> [paper]

    ``transport`` selects the deployment behind the same session API,
    resolved through the :mod:`repro.api` transport registry: ``"sim"``
    (default — discrete-event, calibrated virtual time), ``"threaded"``
    (real threads, objects by reference) or ``"async"`` (framed TCP
    on an asyncio event loop; ``ClusterConfig(processes=True)`` runs one
    OS process per site).  Third-party transports registered with
    :func:`repro.api.register_transport` work here too.  Every transport
    implements :class:`~repro.api.ClusterAPI`, so everything above them
    is shared.

    All tuning — batching, caching, replication, QoS, faults, async
    knobs — rides in one frozen :class:`~repro.config.ClusterConfig`
    passed as ``config=``.  The historical per-feature kwargs
    (``batching=``, ``caching=``, ``replication=``, ``qos=``) keep
    working as deprecated aliases that build the equivalent config (and
    emit :class:`DeprecationWarning`); mixing them with ``config=`` is
    an error.  The pre-transport constructor signature (``sites``,
    ``costs``, ``termination``, ``result_mode``) keeps working unchanged
    and implies ``transport="sim"``; note that ``costs`` only has
    meaning there — the wall-clock transports run uncosted and reject a
    non-default cost model rather than silently ignoring it.
    """

    def __init__(
        self,
        sites: Union[int, Sequence[str]] = 1,
        costs: CostModel = PAPER_COSTS,
        termination: str = "weighted",
        result_mode: str = "ship",
        transport: str = "sim",
        batching: Optional[BatchConfig] = None,
        caching: Optional[CacheConfig] = None,
        replication: Optional[ReplicationConfig] = None,
        qos: Optional[QoSConfig] = None,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        factory = transport_factory(transport)  # ValueError on unknown names
        config = resolve_config(
            config,
            owner="HyperFile",
            termination=termination,
            result_mode=result_mode,
            costs=None if costs is PAPER_COSTS else costs,
            batching=batching,
            caching=caching,
            replication=replication,
            qos=qos,
        )
        self.cluster = factory(sites, config=config)
        self.config = config
        self.transport = transport
        self.session = Session(self.cluster)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the transport down (a no-op on the simulator)."""
        self.cluster.close()

    def __enter__(self) -> "HyperFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- data --------------------------------------------------------------

    @property
    def sites(self) -> List[str]:
        return self.cluster.sites

    def create(self, site: str, *tuples: HFTuple) -> Oid:
        """Store a new object at ``site``; returns its id."""
        return self.cluster.store(site).create(list(tuples)).oid

    def update(self, oid: Oid, *tuples: HFTuple) -> None:
        """Add tuples to an existing object (functional replace)."""
        site = self.cluster.node(self.session.home_site).locate(oid)
        store = self.cluster.store(site)
        store.replace(store.get(oid).with_tuples(tuples))

    def get(self, oid: Oid):
        """Read an object back (application-side debugging aid)."""
        site = self.cluster.node(self.session.home_site).locate(oid)
        return self.cluster.store(site).get(oid)

    def migrate(self, oid: Oid, to_site: str) -> Oid:
        return self.cluster.migrate(oid, to_site)

    def replicate_all(self) -> int:
        """Install the configured k replica copies of every object."""
        return self.cluster.replicate_all()

    # -- sets & queries -----------------------------------------------------

    def define_set(self, name: str, members: Iterable[Oid]) -> None:
        self.session.define_set(name, members)

    def members(self, name: str) -> List[Oid]:
        return self.session.set_members(name)

    def query(self, text: str) -> List[Oid]:
        """Run a query in the textual language; returns result oids."""
        return self.session.query(text)

    def retrieve(self, var: str) -> List[object]:
        """Values shipped by ``->var`` retrieval filters."""
        return self.session.retrieve(var)

    @property
    def last_response_time(self) -> Optional[float]:
        """Virtual response time of the most recent query (seconds)."""
        return self.session.last_response_time
