"""Tests for the simulated cluster (assembly + end-to-end queries)."""

import pytest

from repro.cluster import QueryOutcome, SimCluster, site_name
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.core.oid import Oid
from repro.errors import HyperFileError, UnknownSite
from repro.sim.costs import PAPER_COSTS

CLOSURE = 'S [ (Pointer, "Reference", ?X) | ^^X ]* (Keyword, "Distributed", ?) -> T'


def build_cross_site_chain(cluster):
    """a(site0) -> b(site1) -> c(site2) -> d(site0); a, b, d keyworded."""
    s0, s1, s2 = (cluster.store(s) for s in cluster.sites[:3])
    d = s0.create([keyword_tuple("Distributed")])
    s0.replace(s0.get(d.oid).with_tuple(pointer_tuple("Reference", d.oid)))
    c = s2.create([pointer_tuple("Reference", d.oid)])
    b = s1.create([pointer_tuple("Reference", c.oid), keyword_tuple("Distributed")])
    a = s0.create([pointer_tuple("Reference", b.oid), keyword_tuple("Distributed")])
    return {"a": a.oid, "b": b.oid, "c": c.oid, "d": d.oid}


class TestAssembly:
    def test_site_count_form(self):
        assert SimCluster(3).sites == ["site0", "site1", "site2"]

    def test_named_sites_form(self):
        assert SimCluster(["alpha", "beta"]).sites == ["alpha", "beta"]

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            SimCluster(0)
        with pytest.raises(ValueError):
            SimCluster(["a", "a"])

    def test_unknown_site_accessors(self):
        cluster = SimCluster(1)
        with pytest.raises(UnknownSite):
            cluster.store("nope")
        with pytest.raises(UnknownSite):
            cluster.node("nope")

    def test_site_name_helper(self):
        assert site_name(4) == "site4"


class TestQueries:
    def test_cross_site_closure(self):
        cluster = SimCluster(3)
        ids = build_cross_site_chain(cluster)
        out = cluster.run_query(CLOSURE, [ids["a"]])
        assert out.result.oid_keys() == {ids["a"].key(), ids["b"].key(), ids["d"].key()}

    def test_response_time_positive_and_reported(self):
        cluster = SimCluster(3)
        ids = build_cross_site_chain(cluster)
        out = cluster.run_query(CLOSURE, [ids["a"]])
        assert out.response_time > 0
        assert out.completed_at >= out.submitted_at

    def test_accepts_text_ast_and_program(self):
        from repro.core.parser import parse_query
        from repro.core.program import compile_query

        cluster = SimCluster(3)
        ids = build_cross_site_chain(cluster)
        query = parse_query(CLOSURE)
        for form in (CLOSURE, query, compile_query(query)):
            out = cluster.run_query(form, [ids["a"]])
            assert len(out.result.oids) == 3

    def test_rejects_invalid_query_type(self):
        with pytest.raises(TypeError):
            SimCluster(1).compile(42)  # type: ignore[arg-type]

    def test_invalid_query_rejected_before_execution(self):
        from repro.errors import QueryValidationError

        cluster = SimCluster(1)
        with pytest.raises(QueryValidationError):
            cluster.run_query("S ^^X -> T", [])

    def test_concurrent_queries(self):
        cluster = SimCluster(3)
        ids = build_cross_site_chain(cluster)
        q1 = cluster.submit(CLOSURE, [ids["a"]])
        q2 = cluster.submit('S (Keyword, "Distributed", ?) -> T', [ids["c"], ids["d"]])
        cluster.run()
        out1, out2 = cluster.outcome(q1), cluster.outcome(q2)
        assert out1 is not None and len(out1.result.oids) == 3
        assert out2 is not None and out2.result.oid_keys() == {ids["d"].key()}

    def test_originator_choice(self):
        cluster = SimCluster(3)
        ids = build_cross_site_chain(cluster)
        out = cluster.run_query(CLOSURE, [ids["a"]], originator="site2")
        assert len(out.result.oids) == 3
        assert out.qid.originator == "site2"

    def test_wait_raises_if_query_cannot_complete(self):
        cluster = SimCluster(2)
        # Submit against a down site: the seed send is dropped, so the
        # query still terminates (with empty results) — then assert a
        # query id that never existed raises.
        with pytest.raises(HyperFileError):
            cluster.wait(cluster._next_qid("site0"))


class TestStatsAggregation:
    def test_objects_processed_counted_across_sites(self):
        cluster = SimCluster(3)
        ids = build_cross_site_chain(cluster)
        out = cluster.run_query(CLOSURE, [ids["a"]])
        assert out.result.stats.objects_processed == 4
        assert out.result.stats.remote_derefs == 3  # a->b, b->c, c->d hops

    def test_cluster_total_stats(self):
        cluster = SimCluster(3)
        ids = build_cross_site_chain(cluster)
        cluster.run_query(CLOSURE, [ids["a"]])
        totals = cluster.total_stats()
        assert totals.messages_sent.get("DerefRequest") == 3
        assert totals.messages_sent.get("ResultBatch", 0) >= 2
        assert totals.bytes_sent > 0


class TestAvailability:
    def test_down_site_gives_partial_results(self):
        cluster = SimCluster(3)
        ids = build_cross_site_chain(cluster)
        cluster.set_down("site2")
        out = cluster.run_query(CLOSURE, [ids["a"]])
        # c and d are beyond the downed site; a and b still found.
        assert out.result.oid_keys() == {ids["a"].key(), ids["b"].key()}
        assert cluster.total_stats().failed_sends == 1

    def test_recovered_site_participates_again(self):
        cluster = SimCluster(3)
        ids = build_cross_site_chain(cluster)
        cluster.set_down("site2")
        cluster.run_query(CLOSURE, [ids["a"]])
        cluster.set_up("site2")
        out = cluster.run_query(CLOSURE, [ids["a"]])
        assert len(out.result.oids) == 3

    def test_down_originator_unusable_but_others_fine(self):
        # "If Node A is down, one should still be able to pose a query to
        # Node B."
        cluster = SimCluster(3)
        ids = build_cross_site_chain(cluster)
        cluster.set_down("site0")
        out = cluster.run_query(
            'S (Keyword, "Distributed", ?) -> T', [ids["b"]], originator="site1"
        )
        assert out.result.oid_keys() == {ids["b"].key()}


class TestMigrationIntegration:
    def test_query_follows_migrated_object(self):
        cluster = SimCluster(3)
        ids = build_cross_site_chain(cluster)
        cluster.migrate(ids["b"], "site2")
        out = cluster.run_query(CLOSURE, [ids["a"]])
        assert out.result.oid_keys() == {ids["a"].key(), ids["b"].key(), ids["d"].key()}
        assert cluster.total_stats().forwarded_requests >= 1

    def test_unknown_destination_rejected(self):
        cluster = SimCluster(2)
        ids = build_cross_site_chain(SimCluster(3))  # foreign oids
        with pytest.raises(KeyError):
            cluster.migrate(Oid("site0", 0), "site9")


class TestTerminationChoices:
    @pytest.mark.parametrize("strategy", ["weighted", "dijkstra-scholten"])
    def test_both_strategies_complete(self, strategy):
        cluster = SimCluster(3, config=ClusterConfig(termination=strategy))
        ids = build_cross_site_chain(cluster)
        out = cluster.run_query(CLOSURE, [ids["a"]])
        assert len(out.result.oids) == 3

    def test_ds_sends_control_messages_weighted_does_not(self):
        results = {}
        for strategy in ("weighted", "dijkstra-scholten"):
            cluster = SimCluster(3, config=ClusterConfig(termination=strategy))
            ids = build_cross_site_chain(cluster)
            cluster.run_query(CLOSURE, [ids["a"]])
            results[strategy] = cluster.total_stats().messages_sent.get("ControlMessage", 0)
        assert results["weighted"] == 0
        assert results["dijkstra-scholten"] >= 3
