"""Tests for the server node (per-site algorithm of paper §3.2)."""

import pytest

from repro.core.oid import Oid
from repro.core.parser import parse_query
from repro.core.program import compile_query
from repro.core.tuples import keyword_tuple, pointer_tuple
from repro.errors import HyperFileError
from repro.naming.directory import ForwardingTable
from repro.net.messages import DerefRequest, Envelope, QueryId, ResultBatch
from repro.server.node import ServerNode
from repro.sim.costs import PAPER_COSTS
from repro.storage.memstore import MemStore
from repro.termination.weights import WeightedStrategy


def prog(text='S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'):
    return compile_query(parse_query(text))


def make_node(site="site0", **kwargs):
    store = MemStore(site)
    node = ServerNode(site, store, **kwargs)
    return node, store


class TestLocate:
    def test_local_object(self):
        node, store = make_node()
        obj = store.create([])
        assert node.locate(obj.oid) == "site0"

    def test_forwarding_entry_wins_over_hint(self):
        table = ForwardingTable("site0")
        store = MemStore("site0")
        node = ServerNode("site0", store, forwarding=table)
        oid = Oid("site0", 5, presumed_site="site0")
        table.record(oid, "site2")
        assert node.locate(oid) == "site2"

    def test_birth_here_unknown_is_local_miss(self):
        node, _ = make_node()
        assert node.locate(Oid("site0", 99)) == "site0"

    def test_foreign_hint_used(self):
        node, _ = make_node()
        assert node.locate(Oid("site1", 3, presumed_site="site2")) == "site2"

    def test_stale_self_hint_falls_back_to_birth(self):
        node, _ = make_node()
        # Hint says "here" but the object is not here: ask the birth site.
        assert node.locate(Oid("site1", 3, presumed_site="site0")) == "site1"


class TestLocalOnlyQuery:
    def test_submit_and_drain_completes(self):
        completions = []
        store = MemStore("site0")
        node = ServerNode("site0", store, on_query_complete=lambda q, r: completions.append((q, r)))
        a = store.create([keyword_tuple("K")])
        store.replace(store.get(a.oid).with_tuple(pointer_tuple("Ref", a.oid)))
        qid = QueryId(1, "site0")
        node.submit(qid, prog(), [a.oid])
        node.run_to_idle()
        assert len(completions) == 1
        _, result = completions[0]
        assert result.oids.as_key_set() == {a.oid.key()}

    def test_empty_initial_set_terminates_immediately(self):
        completions = []
        store = MemStore("site0")
        node = ServerNode("site0", store, on_query_complete=lambda q, r: completions.append(r))
        node.submit(QueryId(1, "site0"), prog(), [])
        assert len(completions) == 1
        assert len(completions[0].oids) == 0

    def test_submit_at_wrong_site_rejected(self):
        node, _ = make_node("site0")
        with pytest.raises(HyperFileError):
            node.submit(QueryId(1, "site9"), prog(), [])


class TestRemoteInteraction:
    def test_remote_seed_produces_deref_request(self):
        node, _ = make_node("site0")
        qid = QueryId(1, "site0")
        remote_oid = Oid("site1", 0)
        report = node.submit(qid, prog(), [remote_oid])
        kinds = [type(env.payload).__name__ for env in report.outgoing]
        assert "DerefRequest" in kinds
        deref = next(e for e in report.outgoing if isinstance(e.payload, DerefRequest))
        assert deref.dst == "site1"
        assert deref.payload.item.start == 1

    def test_incoming_deref_processed_and_results_returned(self):
        node, store = make_node("site1")
        obj = store.create([keyword_tuple("K"), ])
        store.replace(store.get(obj.oid).with_tuple(pointer_tuple("Ref", obj.oid)))
        qid = QueryId(1, "site0")
        strategy = WeightedStrategy()
        orig_state = strategy.new_state("site0", True)
        strategy.on_start(orig_state)
        attach = strategy.on_send_work(orig_state)
        from repro.engine.items import WorkItem

        msg = DerefRequest(qid, prog(), WorkItem(obj.oid), dict(attach))
        node.on_message(Envelope("site0", "site1", msg))
        report = node.run_to_idle()
        batches = [e for e in report.outgoing if isinstance(e.payload, ResultBatch)]
        assert len(batches) == 1
        batch = batches[0].payload
        assert batch.oids[0].key() == obj.oid.key()
        assert batch.term["credit"] == attach["credit"]  # full credit returned
        assert batches[0].dst == "site0"

    def test_context_reused_across_drains(self):
        # "the setup cost associated with the query is only required once"
        node, store = make_node("site1")
        o1 = store.create([keyword_tuple("K"), pointer_tuple("Ref", Oid("site1", 0))])
        strategy = WeightedStrategy()
        orig_state = strategy.new_state("site0", True)
        strategy.on_start(orig_state)
        qid = QueryId(1, "site0")
        from repro.engine.items import WorkItem

        for _ in range(2):
            attach = strategy.on_send_work(orig_state)
            node.on_message(
                Envelope("site0", "site1", DerefRequest(qid, prog(), WorkItem(o1.oid), dict(attach)))
            )
            node.run_to_idle()
        assert node.stats.contexts_created == 1
        assert node.stats.drains == 2

    def test_results_for_unknown_query_rejected(self):
        # Results belong at the originator; anywhere else is a protocol
        # error.  (At the originator an unknown id is a *retired* query:
        # late traffic, see test_context_retirement.py.)
        node, _ = make_node("site0")
        node.on_message(Envelope("site1", "site0", ResultBatch(QueryId(9, "site2"))))
        with pytest.raises(HyperFileError):
            node.run_to_idle()

    def test_down_site_send_dropped_and_counted(self):
        store = MemStore("site0")
        node = ServerNode("site0", store, is_site_up=lambda s: s == "site0",
                          on_query_complete=lambda q, r: None)
        node.submit(QueryId(1, "site0"), prog(), [Oid("site1", 0)])
        report = node.run_to_idle()
        assert node.stats.failed_sends == 1
        assert report.outgoing == []


class TestCostAccounting:
    def test_object_step_costs_8ms(self):
        node, store = make_node("site0")
        a = store.create([keyword_tuple("K")])
        node.submit(QueryId(1, "site0"), prog('S (Keyword,"K",?) -> T'), [a.oid])
        report = node.step()
        assert report.elapsed == pytest.approx(
            PAPER_COSTS.object_process_s + PAPER_COSTS.result_insert_s
        )

    def test_marked_skip_is_cheap(self):
        node, store = make_node("site0")
        a = store.create([keyword_tuple("K")])
        node.submit(QueryId(1, "site0"), prog('S (Keyword,"K",?) -> T'), [a.oid, a.oid])
        node.step()
        report = node.step()  # duplicate admission
        assert report.elapsed == pytest.approx(PAPER_COSTS.mark_check_s)

    def test_validation_of_result_mode(self):
        with pytest.raises(ValueError):
            ServerNode("site0", MemStore("site0"), result_mode="zip")
