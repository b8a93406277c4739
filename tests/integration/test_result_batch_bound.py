"""Threaded sites ship results once per inbox burst, on real traffic.

Thirty dense Rand05 closures on the paper database, four in flight, as
the ``dense_threaded`` benchmark runs them.  Every answer must equal
``run_local``'s, and the thread-backed transport may send at most twice
the ``ResultBatch`` messages per query that the simulator sends for the
same queries.  A site loop that empties W once per envelope instead of
once per burst sends about six times as many (272 a query against 47),
and fails here by name (CI job ``site-survives``).
"""

import pytest

from repro.api import compile_query_like, credit_deficit, make_cluster
from repro.baselines.centralized import union_fetcher
from repro.engine.local import run_local
from repro.workload import WorkloadSpec, closure_query, generate_into_cluster

QUERIES = [closure_query("Rand05", "Rand10p", 1 + i % 10) for i in range(30)]
WINDOW = 4


def run_closures(transport):
    """Run ``QUERIES`` with ``WINDOW`` in flight, check every answer
    against ``run_local`` and every query's credit; returns the
    ``ResultBatch`` messages sent per query."""
    with make_cluster(transport, 3) as cluster:
        db = generate_into_cluster(cluster, WorkloadSpec())
        before = cluster.total_stats().messages_sent.get("ResultBatch", 0)
        qids = []
        for query in QUERIES:
            qids.append(cluster.submit(query, [db.root]))
            if len(qids) >= WINDOW:
                cluster.wait(qids[-WINDOW], timeout_s=30)
        answers = [cluster.wait(qid, timeout_s=30).result.oid_keys() for qid in qids]
        assert all(credit_deficit(cluster.nodes, qid) == 0 for qid in qids)
        sent = cluster.total_stats().messages_sent.get("ResultBatch", 0) - before
        fetch = union_fetcher([cluster.store(site) for site in cluster.sites])
        expected = [
            run_local(compile_query_like(query), [db.root], fetch).oid_keys() for query in QUERIES
        ]
        assert answers == expected
        return sent / len(QUERIES)


@pytest.fixture(scope="module")
def sim_result_batches():
    return run_closures("sim")


@pytest.mark.parametrize("transport", ["threaded"])
def test_result_batches_per_query_stay_within_twice_the_simulators(transport, sim_result_batches):
    assert run_closures(transport) <= 2 * sim_result_batches
