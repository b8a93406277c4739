"""A DerefRequest is ingested as a batch of one.

One node receives a DerefRequest, its twin the equivalent one-item
BatchedQuery (same envelope otherwise).  Whatever branch the item takes —
admitted, forwarded to the site its object migrated to, or shed under
load — both must end with the same contexts, working sets, modelled cost
and outgoing envelopes, and the same counters but the batch-only
``batched_items`` (the received frame is counted under its own type).
"""

import dataclasses

import pytest

from repro.core.parser import parse_query
from repro.core.program import compile_query
from repro.core.tuples import keyword_tuple, pointer_tuple
from repro.net.messages import BatchedQuery, DerefRequest, QueryId
from repro.qos import QoSConfig
from repro.server.node import ServerNode
from repro.storage.memstore import MemStore
from repro.termination import make_strategy

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'
STRATEGIES = ("weighted", "dijkstra-scholten")
BRANCHES = ("admit", "forward", "shed")
QID = QueryId(1, "site0")


def receiver(strategy, branch):
    """site1 holding a two-object chain; for ``forward`` the chain's head
    has migrated to site2, for ``shed`` every batch-class item is shed."""
    store = MemStore("site1")
    tail = store.create([keyword_tuple("K")])
    store.replace(store.get(tail.oid).with_tuple(pointer_tuple("Ref", tail.oid)))
    head = store.create([keyword_tuple("K"), pointer_tuple("Ref", tail.oid)])
    qos = QoSConfig(shed_watermark=0) if branch == "shed" else None
    node = ServerNode("site1", store, termination=make_strategy(strategy), qos=qos)
    if branch == "forward":
        store.remove(head.oid)
        node.forwarding.record(head.oid, "site2")
    return node, head.oid


def deref_envelope(strategy, branch, head):
    """The DerefRequest a real originator sends site1 for ``head``, so the
    term attachment is the strategy's own."""
    qos = QoSConfig(default_priority="batch") if branch == "shed" else None
    origin = ServerNode("site0", MemStore("site0"), termination=make_strategy(strategy), qos=qos)
    report = origin.submit(QID, compile_query(parse_query(CLOSURE)), [head])
    (env,) = report.outgoing
    assert isinstance(env.payload, DerefRequest) and env.dst == "site1"
    return env


def state(node, report):
    counters = node.stats.sample()
    for key in ("batched_items", "messages_received", "bytes_received"):
        del counters[key]
    contexts = {
        qid: (
            ctx.incarnation, ctx.busy, ctx.execution.pending, list(ctx.execution.workset._queue),
            ctx.shed_pending, ctx.saw_shed, ctx.priority, repr(ctx.term_state),
        )
        for qid, ctx in node.contexts.items()
    }
    return {
        "elapsed": report.elapsed,
        "outgoing": [repr(env) for env in report.outgoing],
        "contexts": contexts,
        "counters": counters,
        "received": node.stats.total_received,
        "pending": (node._busy, node._pending, node.work_depth),
    }


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_deref_request_is_a_batch_of_one(strategy, branch):
    alone, head = receiver(strategy, branch)
    twin, twin_head = receiver(strategy, branch)
    assert twin_head == head
    env = deref_envelope(strategy, branch, head)
    msg = env.payload
    batched = BatchedQuery(msg.qid, msg.program, (msg.item,), (msg.term,), ())
    alone.on_message(env)
    twin.on_message(dataclasses.replace(env, payload=batched))

    first = alone.step(), twin.step()
    assert state(alone, first[0]) == state(twin, first[1])
    assert (alone.stats.batched_items, twin.stats.batched_items) == (0, 1)
    if branch == "admit":
        assert alone.contexts[QID].busy and not alone.stats.forwarded_requests
    elif branch == "forward":
        assert alone.stats.forwarded_requests == 1
        assert [e.dst for e in first[0].outgoing if isinstance(e.payload, DerefRequest)] == ["site2"]
    else:
        assert alone.stats.work_shed == 1 and not alone.contexts[QID].busy

    rest = alone.run_to_idle(), twin.run_to_idle()
    assert state(alone, rest[0]) == state(twin, rest[1])
