"""Centralized baseline: the whole database at a single site (paper §5).

"We also ran the tests with all items on a single machine.  This gave a
base case with which to compare the cost of handling remote pointers."

:func:`run_centralized` is an analytic single-site run over any fetcher,
costed with the paper's constants (no simulator needed); experiments that
want identical plumbing to the distributed runs build ``SimCluster(1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.oid import Oid
from ..core.program import Program
from ..engine.local import Fetcher, run_local
from ..engine.results import QueryResult
from ..sim.costs import CostModel, PAPER_COSTS
from ..storage.memstore import MemStore, UnionStore


@dataclass
class CentralizedRun:
    """Outcome of a single-site run, costed analytically."""

    result: QueryResult
    response_time_s: float


def run_centralized(
    program: Program,
    initial: Iterable[Oid],
    fetch: Fetcher,
    costs: CostModel = PAPER_COSTS,
) -> CentralizedRun:
    """Run at one site; time = objects x 8 ms + results x 20 ms (+ skips).

    This closed form is exactly what the simulated 1-site cluster
    measures (no messages exist), so benchmarks may use either; tests
    assert they agree.
    """
    result = run_local(program, initial, fetch)
    stats = result.stats
    elapsed = (
        stats.objects_processed * costs.object_process_s
        + stats.results_added * costs.result_insert_s
        + (stats.objects_skipped_marked + stats.objects_missing) * costs.mark_check_s
        + 2 * costs.client_link_s
    )
    return CentralizedRun(result=result, response_time_s=elapsed)


def union_fetcher(stores: Iterable[MemStore]) -> Fetcher:
    """A fetcher over several stores, for 'move everything to one site'
    comparisons without physically copying the data."""
    union = UnionStore(stores)
    return union.get

