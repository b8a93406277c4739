"""Transport overhead: the algorithm itself is cheap.

The simulated cluster charges the paper's 1990 costs; this bench measures
what the same distributed algorithm costs *today*, end to end, on the two
real transports — threads+queues (objects by reference) and asyncio TCP
(real encoded frames) — in host wall-clock time.  The point: a full
cross-site closure query, including termination detection, completes in
milliseconds; the paper's measured seconds were the era's hardware, not
the algorithm.
"""

import pytest

from repro.core.program import compile_query
from repro.net.asyncio_cluster import AsyncCluster
from repro.net.threaded import ThreadedCluster
from repro.workload import WorkloadSpec, build_graph, closure_query, materialize

SPEC = WorkloadSpec(n_objects=90)
GRAPH = build_graph(n=90)
PROGRAM = compile_query(closure_query("Tree", "Rand10p", 5))


@pytest.fixture(scope="module", params=[ThreadedCluster, AsyncCluster], ids=["threaded", "async"])
def loaded_cluster(request):
    cluster = request.param(3)
    workload = materialize(SPEC, [cluster.store(s) for s in cluster.sites], graph=GRAPH)
    yield cluster, workload
    cluster.close()


def test_transport(benchmark, loaded_cluster):
    cluster, workload = loaded_cluster
    outcome = benchmark(lambda: cluster.run_query(PROGRAM, [workload.root]))
    assert len(outcome.result.oids) > 0
