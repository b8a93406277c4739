"""Query-processing engines (paper §3, §6).

* :mod:`repro.engine.local` — the single-site algorithm of Figure 3;
* :mod:`repro.engine.items`, :mod:`~repro.engine.workset`,
  :mod:`~repro.engine.marktable`, :mod:`~repro.engine.efunction` — its parts;
* :mod:`repro.engine.shared_memory` — the shared-memory multiprocessor
  variant sketched in §6;
* distributed execution lives in :mod:`repro.server` (per-site nodes) and
  :mod:`repro.cluster` (orchestration).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".efunction": ("evaluate",),
    ".items": ("ActiveItem", "WorkItem", "bump_iters", "iter_count"),
    ".local": ("QueryExecution", "StepOutcome", "run_local"),
    ".marktable": ("MarkTable",),
    ".results": ("ExecutionStats", "QueryResult", "ResultSet"),
    ".shared_memory": ("SharedMemoryEngine", "SharedRunReport"),
    ".workset": (
        "DISCIPLINES", "FifoWorkSet", "LifoWorkSet", "PriorityWorkSet", "WorkSet", "make_workset",
    ),
})
