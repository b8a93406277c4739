"""Reproduction of Clifton & Garcia-Molina, "Distributed Processing of
Filtering Queries in HyperFile" (ICDCS 1991).

HyperFile is a back-end data server for document-management and hypertext
applications: objects are sets of (type, key, data) tuples, possibly
pointing at other objects on other sites, and queries are filter pipelines
that traverse the pointer graph by shipping the *query* (never the data)
along remote pointers.

Package map
-----------
- ``repro.core``      — data model + query language (paper §2, §3 notation)
- ``repro.engine``    — local & shared-memory processing algorithms (§3.1, §6)
- ``repro.server``    — per-site server nodes with query contexts (§3.2)
- ``repro.cluster``   — cluster assembly / client-facing distributed queries
- ``repro.net``       — simulated + threaded transports
- ``repro.sim``       — discrete-event simulation kernel & cost model
- ``repro.termination`` — distributed termination detection (§4)
- ``repro.naming``    — birth-site object naming & migration (§4)
- ``repro.storage``   — main-memory stores, blob store, indexes
- ``repro.workload``  — the synthetic database of §5
- ``repro.baselines`` — file-server & centralized comparators
- ``repro.client``    — application-facing session API
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports  # noqa: E402

# Convenience re-exports: the names most applications start from.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".api": ("ClusterAPI", "QueryOutcome"),
    ".cache": ("CacheConfig",),
    ".client": ("HyperFile", "Session"),
    ".cluster": ("SimCluster",),
    ".config": ("ClusterConfig",),
    ".net.batching": ("BatchConfig",),
    ".sim.costs": ("FREE_COSTS", "PAPER_COSTS"),
})
__all__ += ["__version__"]
