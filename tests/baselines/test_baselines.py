"""Tests for the centralized and file-server comparators (paper §1, §5)."""

import pytest

from repro.baselines.centralized import run_centralized, union_fetcher
from repro.baselines.fileserver import FileServerBaseline, FileServerCosts
from repro.cluster import SimCluster
from repro.core.oid import Oid
from repro.core.program import compile_query
from repro.errors import ObjectNotFound
from repro.sim.costs import PAPER_COSTS
from repro.storage.memstore import MemStore
from repro.workload import WorkloadSpec, build_graph, closure_query, generate_into_cluster, materialize


@pytest.fixture(scope="module")
def setup():
    spec = WorkloadSpec(n_objects=90)
    graph = build_graph(n=90)
    store = MemStore("solo")
    workload = materialize(spec, [store], graph=graph)
    program = compile_query(closure_query("Tree", "Rand10p", 5))
    return spec, graph, store, workload, program


class TestCentralized:
    def test_analytic_time_matches_simulated_single_site(self, setup):
        spec, graph, store, workload, program = setup
        analytic = run_centralized(program, [workload.root], store.get)
        cluster = SimCluster(1)
        w1 = generate_into_cluster(cluster, spec, graph)
        simulated = cluster.run_query(program, [w1.root])
        assert analytic.response_time_s == pytest.approx(simulated.response_time, rel=0.02)

    def test_cost_formula(self, setup):
        _, _, store, workload, program = setup
        run = run_centralized(program, [workload.root], store.get)
        stats = run.result.stats
        expected = (
            stats.objects_processed * PAPER_COSTS.object_process_s
            + stats.results_added * PAPER_COSTS.result_insert_s
            + (stats.objects_skipped_marked + stats.objects_missing) * PAPER_COSTS.mark_check_s
        )
        assert run.response_time_s == pytest.approx(expected)

    def test_union_fetcher_spans_sites(self):
        s0, s1 = MemStore("s0"), MemStore("s1")
        a = s0.create([])
        b = s1.create([])
        fetch = union_fetcher([s0, s1])
        assert fetch(a.oid).oid == a.oid
        assert fetch(b.oid).oid == b.oid
        with pytest.raises(ObjectNotFound):
            fetch(Oid("s0", 99))

    def test_centralized_cluster_is_one_sim_site(self):
        cluster = SimCluster(1)
        assert cluster.sites == ["site0"]


class TestFileServer:
    def test_same_results_as_server_side_filtering(self, setup):
        _, _, store, workload, program = setup
        run = FileServerBaseline([store]).run(program, [workload.root])
        reference = run_centralized(program, [workload.root], store.get)
        assert run.result.oid_keys() == reference.result.oid_keys()

    def test_much_slower_than_hyperfile(self, setup):
        # The paper's motivating claim: shipping whole objects loses badly
        # to shipping ~40-byte queries.
        _, _, store, workload, program = setup
        fs = FileServerBaseline([store]).run(program, [workload.root])
        hf = run_centralized(program, [workload.root], store.get)
        assert fs.response_time_s > 3 * hf.response_time_s
        assert fs.bytes_transferred > 90 * 1024  # ~2 KiB x 90 objects

    def test_cache_avoids_refetches(self):
        # An object admitted at two different filter positions is fetched
        # twice without a cache, once with it.
        from repro.core.parser import parse_query
        from repro.core.tuples import keyword_tuple, pointer_tuple

        store = MemStore("s1")
        shared = store.create([keyword_tuple("Late")])
        seed = store.create(
            [
                keyword_tuple("Early"),
                pointer_tuple("Ref", shared.oid),
            ]
        )
        program = compile_query(
            parse_query('S (Keyword,"Early",?) (Pointer,"Ref",?X) ^^X (Keyword,"Late",?) -> T')
        )
        initial = [shared.oid, seed.oid]  # shared seen at F1 (fails) then at F4
        cached = FileServerBaseline([store], cache=True).run(program, initial)
        uncached = FileServerBaseline([store], cache=False).run(program, initial)
        assert uncached.fetches == 3  # shared fetched twice
        assert cached.fetches == 2
        assert cached.cache_hits == 1
        assert uncached.cache_hits == 0
        assert uncached.response_time_s >= cached.response_time_s

    def test_bandwidth_matters(self, setup):
        _, _, store, workload, program = setup
        slow = FileServerBaseline(
            [store], costs=FileServerCosts(bandwidth_bytes_per_s=10_000.0)
        ).run(program, [workload.root])
        fast = FileServerBaseline(
            [store], costs=FileServerCosts(bandwidth_bytes_per_s=1e9)
        ).run(program, [workload.root])
        assert slow.response_time_s > fast.response_time_s

    def test_missing_object_counted_as_partial(self, setup):
        # Same partial-result policy as the server engine: a dangling
        # reference is recorded, not fatal.
        _, _, store, _, program = setup
        run = FileServerBaseline([store]).run(program, [Oid("nowhere", 1)])
        assert run.result.stats.objects_missing == 1
        assert len(run.result.oids) == 0
