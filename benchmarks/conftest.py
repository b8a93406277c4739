"""Shared infrastructure for the experiment benchmarks.

Each benchmark file regenerates one table or figure from paper §5 (see
DESIGN.md's per-experiment index).  The paper's methodology is followed
throughout: for each configuration we run a script of ``N_QUERIES``
comparable queries (same pointers, same search-key *type*, randomly
varied key *value*) and report the mean response time measured at the
client — virtual wall-clock from the simulator's cost model, which is
calibrated to the paper's measured constants (8/20/50/50 ms).

Environment knobs:

* ``REPRO_BENCH_QUERIES`` — queries per configuration (default 20; the
  paper used 100 — set it for full fidelity, runtime scales linearly).
"""

from __future__ import annotations

import os

import pytest

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.metrics.collect import Series
from repro.workload import (
    WorkloadSpec,
    build_graph,
    generate_into_cluster,
    query_script,
)

#: Queries per configuration ("we timed 100 queries ...").
N_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "20"))

#: The paper's database: 270 objects.
SPEC = WorkloadSpec()


@pytest.fixture(scope="session")
def paper_graph():
    """One pointer graph shared by every machine count (as in the paper)."""
    return build_graph(n=SPEC.n_objects)


def make_cluster(machines: int, paper_graph, **fields):
    """A loaded cluster of the given size over the shared graph; ``fields``
    are :class:`~repro.config.ClusterConfig` fields."""
    cluster = SimCluster(machines, config=ClusterConfig(**fields))
    workload = generate_into_cluster(cluster, SPEC, paper_graph)
    return cluster, workload


def run_script(cluster, workload, pointer_key: str, search_type: str,
               n_queries: int = None, seed: int = 7) -> Series:
    """The paper's client: submit a script of queries, time each one."""
    n = n_queries if n_queries is not None else N_QUERIES
    series = Series(f"{pointer_key}/{search_type}")
    for query in query_script(pointer_key, search_type, count=n, seed=seed, spec=SPEC):
        outcome = cluster.run_query(query, [workload.root])
        series.add(outcome.response_time)
    return series


def measure(machines: int, paper_graph, pointer_key: str, search_type: str,
            n_queries: int = None, **cluster_kwargs) -> Series:
    """Convenience: fresh cluster + script, returning the timing series."""
    cluster, workload = make_cluster(machines, paper_graph, **cluster_kwargs)
    return run_script(cluster, workload, pointer_key, search_type, n_queries)


def report(benchmark, title: str, rows, columns=None, **extra):
    """Print a paper-style table and attach it to the benchmark record."""
    from repro.metrics.report import render_table

    text = render_table(rows, columns=columns, title=f"== {title} ==")
    print()
    print(text)
    benchmark.extra_info["table"] = rows
    for key, value in extra.items():
        benchmark.extra_info[key] = value
