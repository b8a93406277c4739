"""Tests for the real-concurrency threaded cluster."""

import pytest

from repro.core.parser import parse_query
from repro.core.program import compile_query
from repro.core.tuples import keyword_tuple, pointer_tuple
from repro.net.messages import DerefRequest
from repro.net.threaded import ThreadedCluster
from repro.workload import WorkloadSpec, build_graph, closure_query, materialize

#: Work envelopes held back and released to one site as a single burst.
BURST = 8
SELECT_K = 'S (Keyword,"K",?) -> T'


def prog(text):
    return compile_query(parse_query(text))


def seeds_on_second_site(cluster, n=BURST):
    store = cluster.store(cluster.sites[1])
    return [store.create([keyword_tuple("K")]).oid for _ in range(n)]


def release_as_one_burst(cluster, inbox, held):
    """Freeze the second site, queue ``held`` straight onto its inbox (past
    the router, which would bounce them off a down site), then thaw it."""
    site = cluster.sites[1]
    cluster.set_down(site)
    for env in held:
        inbox.put(env)
    cluster.set_up(site)


def check_burst_drained_once(cluster, qid, seeds, held):
    """The held burst was the query's whole work at the second site: W
    emptied there once, and at most one ``ResultBatch`` went home."""
    assert len(held) == len(seeds)
    assert all(isinstance(env.payload, DerefRequest) for env in held)
    outcome = cluster.wait(qid, timeout_s=10)
    assert outcome.result.oid_keys() == {oid.key() for oid in seeds}
    stats = cluster.node(cluster.sites[1]).stats
    assert stats.objects_processed == len(seeds)
    assert stats.drains == 1
    assert stats.messages_sent.get("ResultBatch", 0) <= 1


class TestThreadedQueries:
    def test_cross_site_closure(self):
        with ThreadedCluster(3) as cluster:
            s0, s1, s2 = (cluster.store(s) for s in cluster.sites)
            d = s0.create([keyword_tuple("K")])
            s0.replace(s0.get(d.oid).with_tuple(pointer_tuple("Ref", d.oid)))
            c = s2.create([pointer_tuple("Ref", d.oid)])
            b = s1.create([pointer_tuple("Ref", c.oid), keyword_tuple("K")])
            a = s0.create([pointer_tuple("Ref", b.oid), keyword_tuple("K")])
            outcome = cluster.run_query(
                prog('S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'), [a.oid]
            )
            assert outcome.result.oid_keys() == {a.oid.key(), b.oid.key(), d.oid.key()}

    def test_matches_simulated_cluster_on_workload(self):
        from repro.cluster import SimCluster
        from tests.conftest import oid_indices

        spec = WorkloadSpec(n_objects=90)
        graph = build_graph(n=90)
        query = closure_query("Rand50", "Rand10p", 5)

        sim = SimCluster(3)
        from repro.workload import generate_into_cluster

        w_sim = generate_into_cluster(sim, spec, graph)
        expected = oid_indices(w_sim, sim.run_query(query, [w_sim.root]).result.oid_keys())

        with ThreadedCluster(3) as cluster:
            w_thr = materialize(spec, [cluster.store(s) for s in cluster.sites], graph=graph)
            outcome = cluster.run_query(compile_query(query), [w_thr.root])
            assert oid_indices(w_thr, outcome.result.oid_keys()) == expected

    def test_sequential_queries_reuse_cluster(self):
        with ThreadedCluster(2) as cluster:
            s0 = cluster.store("site0")
            a = s0.create([keyword_tuple("K")])
            for _ in range(3):
                outcome = cluster.run_query(prog('S (Keyword,"K",?) -> T'), [a.oid])
                assert len(outcome.result.oids) == 1

    def test_retrievals_cross_sites(self):
        with ThreadedCluster(2) as cluster:
            s0, s1 = (cluster.store(s) for s in cluster.sites)
            from repro.core.tuples import string_tuple

            remote = s1.create([string_tuple("Title", "Remote Doc"), keyword_tuple("K")])
            local = s0.create([pointer_tuple("Ref", remote.oid), keyword_tuple("K")])
            outcome = cluster.run_query(
                prog('S (Pointer,"Ref",?X) ^X (String,"Title",->title) -> T'), [local.oid]
            )
            assert outcome.result.retrieved["title"] == ["Remote Doc"]

    def test_timeout_on_impossible_query(self):
        from repro.errors import HyperFileError

        with ThreadedCluster(2) as cluster:
            # Query at a site that cannot complete within a tiny timeout is
            # not constructible without breaking the cluster; instead check
            # the timeout machinery with an extremely small budget on a
            # normal query, which must either finish or raise cleanly.
            s0 = cluster.store("site0")
            a = s0.create([keyword_tuple("K")])
            try:
                cluster.run_query(prog('S (Keyword,"K",?) -> T'), [a.oid], timeout_s=0.001)
            except HyperFileError:
                pass  # acceptable: too slow for the budget

    def test_close_is_idempotent(self):
        cluster = ThreadedCluster(2)
        cluster.close()
        cluster.close()


class TestSiteLoopTakesWholeBursts:
    """A site hands the node every envelope already in its inbox before it
    steps, so W empties — and the site ships its results home — once per
    burst, not once per envelope (the site-loop rule, repro.net.common)."""

    def test_a_held_burst_drains_once(self, monkeypatch):
        with ThreadedCluster(2) as cluster:
            seeds = seeds_on_second_site(cluster)
            held = []
            monkeypatch.setattr(cluster, "route", held.append)
            qid = cluster.submit(SELECT_K, seeds)
            monkeypatch.undo()
            release_as_one_burst(cluster, cluster._loops[cluster.sites[1]].inbox, held)
            check_burst_drained_once(cluster, qid, seeds, held)
