"""A site outlives the messages it cannot send, and the ones it cannot take.

Regressions on the ``async`` transport, inline and with one process per
site, and — for a raise inside the site loop — on the ``threaded``
transport (CI job ``site-survives`` runs
this file under a two-minute timeout, so a site that dies again fails by
name):

* an envelope the codec cannot encode used to raise out of the site's
  drain task, which died silently — that query waited out its timeout and
  so did every later query that touched the site;
* a pointer chain deeper than ~4 095 hops used to be exactly such an
  envelope (its credit denominator outgrew the codec's integer bound);
* anything ``on_message`` or ``step`` raised inside the drain task — a
  well-formed frame the node rejects, a value the engine cannot bind —
  killed the task the same way, and killed a thread-backed site's worker
  thread too.
"""

import socket
import time
from fractions import Fraction

import pytest

from repro.api import credit_deficit, make_cluster
from repro.config import ClusterConfig
from repro.core.builder import QueryBuilder
from repro.core.program import compile_query
from repro.core.tuples import HFTuple, keyword_tuple, pointer_tuple
from repro.errors import TerminationLost
from repro.net.codec import FRAME_HEADER, MAX_VALUE_DEPTH, encode_envelope
from repro.net.messages import DerefRequest, Envelope, QueryId, ResultBatch
from repro.tracing import FlightRecorderConfig
from tests.integration.test_cluster_api_conformance import deficit_of

RETRIEVE = 'S (Pointer,"Ref",?X) ^X (Val,"v",->T)'
CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'

#: Storable (a store request carries it one level down) but not
#: retrievable from a remote site: inside a ``ResultBatch`` it sits two
#: levels further in, past the codec's nesting bound.
TOO_DEEP_TO_SHIP = 1
for _ in range(MAX_VALUE_DEPTH - 1):
    TOO_DEEP_TO_SHIP = (TOO_DEEP_TO_SHIP,)

DEPLOYMENTS = [
    pytest.param("async", None, id="inline"),
    pytest.param("async", ClusterConfig(processes=True), id="procs"),
]

#: The transports whose sites run on threads.
THREAD_SITES = ("threaded",)


def pointing_at(cluster, value):
    """A root at the first site pointing at an object, at the second site,
    whose ``Val`` tuple holds ``value``."""
    first, second = cluster.sites[:2]
    target = cluster.store(second).create([keyword_tuple("K"), HFTuple("Val", "v", value)])
    return cluster.store(first).create([pointer_tuple("Ref", target.oid)]).oid


@pytest.mark.parametrize("transport, config", DEPLOYMENTS)
def test_unencodable_result_costs_one_query_not_the_site(transport, config):
    with make_cluster(transport, 2, config=config) as cluster:
        good = pointing_at(cluster, 7)
        bad = pointing_at(cluster, TOO_DEEP_TO_SHIP)

        before = cluster.run_query(RETRIEVE, [good], timeout_s=10)
        assert before.result.retrieved["T"] == [7]

        # The result frame cannot be built, so its credit is lost: the
        # query fails typed, with the exact deficit, at its own timeout.
        with pytest.raises(TerminationLost) as lost:
            cluster.run_query(RETRIEVE, [bad], timeout_s=1.0)
        assert isinstance(lost.value.deficit, Fraction) and lost.value.deficit == Fraction(1, 2)
        assert cluster.messages_dropped == 1

        after = cluster.run_query(RETRIEVE, [good], timeout_s=10)
        assert after.result.retrieved["T"] == [7]
        assert deficit_of(cluster, after.qid) == 0


@pytest.mark.parametrize("transport, config", DEPLOYMENTS)
def test_an_unencodable_envelope_counts_as_undeliverable(transport, config):
    """The envelope the codec refused is recorded where a reliable give-up
    is, so the typed failure says how many envelopes were never sent."""
    with make_cluster(transport, 2, config=config) as cluster:
        bad = pointing_at(cluster, TOO_DEEP_TO_SHIP)
        with pytest.raises(TerminationLost) as lost:
            cluster.run_query(RETRIEVE, [bad], timeout_s=1.0)
        assert lost.value.undeliverable == 1
        assert len(cluster.undeliverable) == 1
        assert cluster.messages_dropped == 1


def test_unencodable_work_is_bounced_and_its_credit_reabsorbed():
    """A work envelope that cannot be framed comes back to its sender as
    ``Undeliverable``: the branch is abandoned and the query terminates
    cleanly instead of waiting for credit that never left."""

    def selecting(value):
        return compile_query(
            QueryBuilder("S").select("Pointer", "Ref", "?X").deref_keep("X").select("Val", "v", value).into("T")
        )

    with make_cluster("async", 2) as cluster:
        root = pointing_at(cluster, 7)
        assert len(cluster.run_query(selecting(7), [root], timeout_s=10).result.oids) == 1

        outcome = cluster.run_query(selecting(1 + 2j), [root], timeout_s=10)  # no wire form
        assert len(outcome.result.oids) == 0
        assert credit_deficit(cluster.nodes, outcome.qid) == 0
        assert cluster.messages_dropped == 1
        assert cluster.total_stats().failed_sends == 1

        assert len(cluster.run_query(selecting(7), [root], timeout_s=10).result.oids) == 1


def test_five_thousand_hop_chain_completes():
    hops = 5000
    with make_cluster("async", 2) as cluster:
        stores = [cluster.store(site) for site in cluster.sites]
        oids = [stores[i % 2].create([keyword_tuple("K")]).oid for i in range(hops)]
        for i, oid in enumerate(oids):
            store = stores[i % 2]
            # The last object points at itself (DESIGN.md finding 2).
            store.replace(store.get(oid).with_tuple(pointer_tuple("Ref", oids[min(i + 1, hops - 1)])))

        outcome = cluster.run_query(CLOSURE, [oids[0]], timeout_s=60)
        assert len(outcome.result.oids) == hops
        assert credit_deficit(cluster.nodes, outcome.qid) == 0
        assert cluster.messages_dropped == 0

        again = cluster.run_query(CLOSURE, [oids[hops // 2]], timeout_s=60)
        assert len(again.result.oids) == hops - hops // 2


def send_raw(cluster, dst, payload):
    """Hand ``payload`` to ``dst`` as if another site sent it: framed and
    written straight to its inter-site port, or, on the threaded
    transport, which has no port, put straight into its inbox."""
    env = Envelope(cluster.sites[0], dst, payload)
    if not hasattr(cluster, "port_of"):
        cluster._loops[dst].inbox.put(env)
        return
    frame = encode_envelope(env)
    with socket.create_connection((cluster.config.host, cluster.port_of(dst))) as sock:
        sock.sendall(FRAME_HEADER.pack(len(frame)) + frame)


def wait_for_site_errors(cluster, count):
    deadline = time.monotonic() + 10
    while cluster.total_stats().site_errors < count:
        assert time.monotonic() < deadline, "the site never processed the frame"
        time.sleep(0.01)
    assert cluster.total_stats().site_errors == count


@pytest.mark.parametrize(
    "transport, config", DEPLOYMENTS + [pytest.param(t, None, id=t) for t in THREAD_SITES]
)
def test_a_message_that_raises_costs_that_message_not_the_site(transport, config):
    with make_cluster(transport, 2, config=config) as cluster:
        good = pointing_at(cluster, 7)
        assert cluster.run_query(RETRIEVE, [good], timeout_s=10).result.retrieved["T"] == [7]

        # Results for a query the second site never originated: the frame
        # decodes, and the node raises on it.
        send_raw(cluster, cluster.sites[1], ResultBatch(QueryId(10**6, cluster.sites[0])))
        wait_for_site_errors(cluster, 1)

        after = cluster.run_query(RETRIEVE, [good], timeout_s=10)
        assert after.result.retrieved["T"] == [7]
        assert deficit_of(cluster, after.qid) == 0


def test_a_step_that_raises_costs_that_query_not_the_site():
    check_a_step_that_raises("async")


@pytest.mark.parametrize("transport", THREAD_SITES)
def test_a_step_that_raises_costs_that_query_not_the_thread_site(transport):
    check_a_step_that_raises(transport)


def check_a_step_that_raises(transport):
    """Binding a list (unhashable) raises inside the engine, part-way
    through a step.  That query's credit is lost — it fails typed at its
    timeout — and the site's work counters are restored, so it serves the
    next query instead of spinning on work it no longer holds."""
    binding = 'S (Pointer,"Ref",?X) ^X (Val,"v",?Y) -> T'
    config = ClusterConfig(flight_recorder=FlightRecorderConfig(capacity=256))
    with make_cluster(transport, 2, config=config) as cluster:
        good = pointing_at(cluster, 7)
        bad = pointing_at(cluster, [7])
        assert len(cluster.run_query(binding, [good], timeout_s=10).result.oids) == 1

        with pytest.raises(TerminationLost):
            cluster.run_query(binding, [bad], timeout_s=1.0)
        assert cluster.total_stats().site_errors == 1
        assert "site_error:TypeError" in cluster.flight_recorder.dump_reasons

        after = cluster.run_query(binding, [good], timeout_s=10)
        assert len(after.result.oids) == 1
        assert deficit_of(cluster, after.qid) == 0
        assert not any(node.has_work for node in cluster.nodes.values())


@pytest.mark.parametrize("transport", THREAD_SITES)
def test_a_raise_mid_burst_costs_that_envelope_not_the_rest_of_the_burst(transport, monkeypatch):
    """A frame the node rejects, released to a frozen site between the work
    envelopes of a live query: the envelopes behind it in the same burst
    are still served, and the query's work there still drains once."""
    with make_cluster(transport, 2) as cluster:
        first, second = cluster.sites
        seeds = [cluster.store(second).create([keyword_tuple("K")]).oid for _ in range(4)]
        held = []
        monkeypatch.setattr(cluster, "route", held.append)
        qid = cluster.submit('S (Keyword,"K",?) -> T', seeds)
        monkeypatch.undo()
        assert [type(env.payload) for env in held] == [DerefRequest] * len(seeds)

        rejected = Envelope(first, second, ResultBatch(QueryId(10**6, first)))
        inbox = cluster._loops[second].inbox
        cluster.set_down(second)
        for env in held[:1] + [rejected] + held[1:]:
            inbox.put(env)
        cluster.set_up(second)

        outcome = cluster.wait(qid, timeout_s=10)
        assert outcome.result.oid_keys() == {oid.key() for oid in seeds}
        assert cluster.total_stats().site_errors == 1
        assert cluster.node(second).stats.drains == 1
        assert deficit_of(cluster, outcome.qid) == 0
