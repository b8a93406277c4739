"""A purged query stays purged: a deadline-expired closure quiesces.

Work outlives its query only when the query's credit was written off (a
deadline, a crash).  On a cyclic closure (Rand05 on the paper database)
that work used to re-create the participants' contexts after the purge,
each time with an empty mark table, so the cycle was walked again and
again and the sites never went idle.  Each site now remembers the runs it
was told to purge and drops their work.
"""

import time

import pytest

from repro.api import make_cluster
from repro.cluster import SimCluster
from repro.server.context import PURGED_RUNS
from repro.workload import WorkloadSpec, generate_into_cluster
from repro.workload.queries import closure_query

QUERY = closure_query("Rand05", "Rand10p", 1)


def undeadlined_events():
    cluster = SimCluster(3)
    workload = generate_into_cluster(cluster, WorkloadSpec())
    out = cluster.run_query(QUERY, [workload.root])
    cluster.run()
    assert not out.result.partial
    return cluster.sim.events_fired


@pytest.mark.parametrize("deadline_s", [0.2, 0.05])
def test_an_expired_cyclic_closure_quiesces_on_the_simulator(deadline_s):
    bound = 2 * undeadlined_events()
    cluster = SimCluster(3)
    workload = generate_into_cluster(cluster, WorkloadSpec())
    out = cluster.run_query(QUERY, [workload.root], deadline_s=deadline_s)
    assert out.result.partial and out.result.partial_reason == "deadline"
    cluster.run(max_events=bound)  # bounded: the livelock this pins never returns
    assert cluster.sim.pending == 0, "sites still busy after the query was purged"
    assert cluster.sim.events_fired <= bound
    assert all(node.stats.contexts_created <= 1 for node in cluster.nodes.values())
    assert not any(node.contexts for site, node in cluster.nodes.items() if site != "site0")


def test_a_burst_of_expiries_keeps_every_purged_run_remembered():
    # PURGED_RUNS queries from all three sites expire together, after their
    # work reached every site: no participant forgets a run whose work is
    # still in flight, so no context is created twice for one run.
    cluster = SimCluster(3)
    workload = generate_into_cluster(cluster, WorkloadSpec())
    qids = [
        cluster.submit(QUERY, [workload.root], originator=cluster.sites[i % 3], deadline_s=20.0)
        for i in range(PURGED_RUNS)
    ]
    assert all(cluster.wait(qid).result.partial for qid in qids)
    cluster.run(max_events=50_000)
    assert cluster.sim.pending == 0, "sites still busy after every query was purged"
    stats = cluster.total_stats()
    assert stats.contexts_created <= len(cluster.sites) * PURGED_RUNS
    assert stats.late_messages > 0
    assert all(len(node._purged) <= PURGED_RUNS for node in cluster.nodes.values())


@pytest.mark.parametrize("transport", ["threaded", "async"])
def test_an_expired_cyclic_closure_quiesces_on_the_wall_clock(transport):
    with make_cluster(transport, 3) as cluster:
        workload = generate_into_cluster(cluster, WorkloadSpec())
        cluster.run_query(QUERY, [workload.root], deadline_s=0.02)
        nodes = [cluster.node(site) for site in cluster.sites]
        give_up = time.monotonic() + 1.0
        while any(node.has_work for node in nodes) and time.monotonic() < give_up:
            time.sleep(0.005)
        assert not any(node.has_work for node in nodes), "a site is still busy 1 s after wait()"
        time.sleep(0.05)  # anything still in flight would re-create a context
        assert cluster.total_stats().contexts_created <= len(cluster.sites)
