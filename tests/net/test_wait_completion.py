"""``wait(qid)`` sleeps until *its* query completes.

Regression: completions used to sit on one shared queue; a waiter that
drew another query's completion put it back and looped, so with two
queries in flight and the later one finishing first the client thread
spun at 100 % CPU (holding the GIL the site threads need) until its own
query was done.
"""

import time

import pytest

from repro.api import make_cluster
from repro.core.tuples import keyword_tuple, pointer_tuple

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'


def build_chain(cluster, length):
    stores = [cluster.store(s) for s in cluster.sites]
    oids = [stores[i % len(stores)].create([keyword_tuple("K")]).oid for i in range(length)]
    for i, oid in enumerate(oids):
        store = stores[i % len(stores)]
        store.replace(store.get(oid).with_tuple(pointer_tuple("Ref", oids[min(i + 1, length - 1)])))
    return oids


@pytest.mark.parametrize("transport", ["threaded", "async"])
def test_wait_does_not_spin_while_another_query_finishes_first(transport):
    with make_cluster(transport, 2) as cluster:
        oids = build_chain(cluster, 4000)  # one remote hop per object: slow
        slow = cluster.submit(CLOSURE, [oids[0]])
        quick = cluster.submit(CLOSURE, [])  # empty initial set: done at once
        wall = time.monotonic()
        cpu = time.thread_time()
        outcome = cluster.wait(slow, timeout_s=60.0)
        cpu = time.thread_time() - cpu
        wall = time.monotonic() - wall
        assert len(outcome.result.oids) == len(oids)
        assert cluster.outcome(quick) is not None  # it did finish first, uncollected
        assert wall > 0.05, "the slow query must outlast the quick one for this test to bite"
        assert cpu < 0.1 * wall, f"wait() burned {cpu:.3f}s CPU in {wall:.3f}s"
