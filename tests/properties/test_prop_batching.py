"""Property-based tests of the batching layer (hypothesis).

The batching subsystem's contract is *transparency*: for any pointer
graph, any batch threshold, with or without mark hints, with or without
message chaos behind the reliable channel, coalescing dereference
requests into batched frames must never change a query's result set —
and under the weighted detector it must never disturb exact credit
conservation (a retransmitted batch dedups as a unit, so its items'
credit is absorbed exactly once).
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.faults import FaultPlan
from repro.net.batching import BatchConfig

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

chaos_rates = st.fixed_dictionaries(
    {
        "drop": st.floats(0.0, 0.30),
        "duplicate": st.floats(0.0, 0.25),
        "reorder": st.floats(0.0, 0.30),
        "delay_jitter_s": st.floats(0.0, 0.01),
    }
)

batch_configs = st.builds(
    BatchConfig,
    max_batch=st.integers(min_value=2, max_value=16),
    mark_hints=st.booleans(),
)


def build_random_graph(cluster, n, seed):
    """A random pointer graph striped across the sites.

    Every object is keyworded and carries a self-loop (so reaching it
    puts it in the closure result) plus up to three random out-edges —
    enough fan-out that batch queues actually coalesce, and enough
    diamonds that the sent-set dedup actually fires.
    """
    rng = random.Random(seed)
    stores = [cluster.store(s) for s in cluster.sites]
    oids = [
        stores[i % len(stores)].create([keyword_tuple("K")]).oid for i in range(n)
    ]
    for i in range(n):
        targets = {i}
        for _ in range(rng.randint(0, 3)):
            targets.add(rng.randrange(n))
        store = stores[i % len(stores)]
        obj = store.get(oids[i])
        for t in sorted(targets):
            obj = obj.with_tuple(pointer_tuple("Ref", oids[t]))
        store.replace(obj)
    return oids


class TestBatchingTransparency:
    @SETTINGS
    @given(seed=st.integers(0, 2**20), n=st.integers(min_value=4, max_value=16),
           cfg=batch_configs)
    def test_batching_never_changes_results(self, seed, n, cfg):
        plain = SimCluster(3)
        batched = SimCluster(3, config=ClusterConfig(batching=cfg))
        oids_p = build_random_graph(plain, n, seed)
        oids_b = build_random_graph(batched, n, seed)
        out_p = plain.run_query(CLOSURE, [oids_p[0]])
        out_b = batched.run_query(CLOSURE, [oids_b[0]])
        assert out_b.result.oid_keys() == out_p.result.oid_keys()
        assert not out_b.result.partial

    @SETTINGS
    @given(seed=st.integers(0, 2**20), n=st.integers(min_value=4, max_value=16),
           cfg=batch_configs)
    def test_batching_conserves_credit(self, seed, n, cfg):
        cluster = SimCluster(3, config=ClusterConfig(batching=cfg))
        oids = build_random_graph(cluster, n, seed)
        qid = cluster.submit(CLOSURE, [oids[0]])
        cluster.wait(qid)
        ctx = cluster.node(qid.originator).contexts[qid]
        assert ctx.term_state.recovered == Fraction(1)

    @SETTINGS
    @given(seed=st.integers(0, 2**20), rates=chaos_rates,
           n=st.integers(min_value=4, max_value=16), cfg=batch_configs)
    def test_batched_frames_survive_chaos_behind_reliable_channel(
        self, seed, rates, n, cfg
    ):
        """Chaos drops/duplicates whole *frames*; the reliable channel
        retransmits them and the receiver dedups each frame as a unit.
        Results and credit must come out exactly as without batching."""
        plain = SimCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=seed, **rates), reliable=True))
        batched = SimCluster(
            3,
            config=ClusterConfig(
                fault_plan=FaultPlan(seed=seed, **rates),
                reliable=True,
                batching=cfg,
            ),
        )
        oids_p = build_random_graph(plain, n, seed)
        oids_b = build_random_graph(batched, n, seed)
        out_p = plain.run_query(CLOSURE, [oids_p[0]])
        qid = batched.submit(CLOSURE, [oids_b[0]])
        out_b = batched.wait(qid)
        assert not out_b.result.partial
        assert out_b.result.oid_keys() == out_p.result.oid_keys()
        ctx = batched.node(qid.originator).contexts[qid]
        assert ctx.term_state.recovered == Fraction(1)

    @SETTINGS
    @given(seed=st.integers(0, 2**20), n=st.integers(min_value=4, max_value=16))
    def test_dijkstra_scholten_also_composes(self, seed, n):
        """Batching must compose with the *other* termination strategy
        too.  DS is held to its documented contract only — termination
        with zero deficit and no spurious results; completeness rides on
        the weighted scheme (docs/FAULTS.md: a small detach-ack can
        overtake a large in-flight ResultBatch on the same link, with or
        without batching)."""
        batched = SimCluster(
            3,
            config=ClusterConfig(
                termination="dijkstra-scholten",
                batching=BatchConfig(max_batch=4),
            ),
        )
        oids = build_random_graph(batched, n, seed)
        qid = batched.submit(CLOSURE, [oids[0]])
        out = batched.wait(qid)  # no idle-hang, no protocol error
        assert not out.result.partial
        assert out.result.oid_keys() <= {o.key() for o in oids}
        assert oids[0].key() in out.result.oid_keys()
        ctx = batched.node(qid.originator).contexts[qid]
        assert ctx.term_state.deficit == 0
