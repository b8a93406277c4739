"""Distribution transparency: the distributed algorithm must produce the
same result set as running everything at a single site (DESIGN.md
invariant 1), across machine counts, work-set disciplines, and
termination detectors."""

import pytest

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core.program import compile_query
from repro.engine.local import run_local
from repro.storage.memstore import MemStore
from repro.workload import (
    WorkloadSpec,
    bounded_query,
    build_graph,
    closure_query,
    generate_into_cluster,
    materialize,
    unique_query,
)
from tests.conftest import oid_indices

SPEC = WorkloadSpec(n_objects=90)
GRAPH = build_graph(n=90)

QUERIES = [
    closure_query("Tree", "Rand10p", 5),
    closure_query("Chain", "Rand100p", 17),
    closure_query("Rand50", "Common", 0),
    closure_query("Rand95", "Rand10p", 3),
    bounded_query("Chain", 7, "Rand10p", 2),
    unique_query("Tree", 42),
]


@pytest.fixture(scope="module")
def reference():
    """Single-site ground truth per query, as abstract indices."""
    store = MemStore("solo")
    workload = materialize(SPEC, [store], graph=GRAPH)
    out = {}
    for i, query in enumerate(QUERIES):
        result = run_local(compile_query(query), [workload.root], store.get)
        out[i] = oid_indices(workload, result.oid_keys())
    return out


@pytest.mark.parametrize("machines", [1, 3, 9])
@pytest.mark.parametrize("qi", range(len(QUERIES)))
def test_distributed_matches_single_site(reference, machines, qi):
    cluster = SimCluster(machines)
    workload = generate_into_cluster(cluster, SPEC, GRAPH)
    outcome = cluster.run_query(QUERIES[qi], [workload.root])
    assert oid_indices(workload, outcome.result.oid_keys()) == reference[qi]


@pytest.mark.parametrize("discipline", ["fifo", "lifo", "priority"])
def test_discipline_does_not_change_results(reference, discipline):
    cluster = SimCluster(3, config=ClusterConfig(discipline=discipline))
    workload = generate_into_cluster(cluster, SPEC, GRAPH)
    outcome = cluster.run_query(QUERIES[0], [workload.root])
    assert oid_indices(workload, outcome.result.oid_keys()) == reference[0]


@pytest.mark.parametrize("strategy", ["weighted", "dijkstra-scholten"])
def test_termination_strategy_does_not_change_results(reference, strategy):
    cluster = SimCluster(9, config=ClusterConfig(termination=strategy))
    workload = generate_into_cluster(cluster, SPEC, GRAPH)
    outcome = cluster.run_query(QUERIES[3], [workload.root])
    assert oid_indices(workload, outcome.result.oid_keys()) == reference[3]


def test_originator_site_does_not_change_results(reference):
    for originator in ("site0", "site1", "site2"):
        cluster = SimCluster(3)
        workload = generate_into_cluster(cluster, SPEC, GRAPH)
        outcome = cluster.run_query(QUERIES[0], [workload.root], originator=originator)
        assert oid_indices(workload, outcome.result.oid_keys()) == reference[0]


def test_multi_seed_queries_match(reference):
    store = MemStore("solo")
    w1 = materialize(SPEC, [store], graph=GRAPH)
    seeds = [w1.oids[0], w1.oids[10], w1.oids[45]]
    local = run_local(compile_query(QUERIES[0]), seeds, store.get)
    expected = oid_indices(w1, local.oid_keys())

    cluster = SimCluster(9)
    w9 = generate_into_cluster(cluster, SPEC, GRAPH)
    remote_seeds = [w9.oids[0], w9.oids[10], w9.oids[45]]
    outcome = cluster.run_query(QUERIES[0], remote_seeds)
    assert oid_indices(w9, outcome.result.oid_keys()) == expected
