"""Property-based chaos tests (hypothesis).

For any seeded mix of message drop / duplication / reordering, a
transitive-closure query run over the reliable channel must:

* terminate (the detector fires; ``wait`` returns rather than idling);
* conserve credit exactly (weighted: recovered == 1);
* lose nothing (weighted: the full closure comes back — completeness
  rides on credit, so conservation implies it);

for *both* termination strategies.  Dijkstra–Scholten is held to
termination + no protocol error only: its detach-ack and final results
travel different links, so reordering can race them (docs/FAULTS.md).
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.faults import FaultPlan

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


def build_chain(cluster, length):
    stores = [cluster.store(s) for s in cluster.sites]
    oids = []
    for i in range(length):
        oids.append(stores[i % len(stores)].create([keyword_tuple("K")]).oid)
    for i in range(length - 1):
        store = stores[i % len(stores)]
        store.replace(store.get(oids[i]).with_tuple(pointer_tuple("Ref", oids[i + 1])))
    last = stores[(length - 1) % len(stores)]
    last.replace(last.get(oids[-1]).with_tuple(pointer_tuple("Ref", oids[-1])))
    return oids


class TestReliableChaosProperties:
    @SETTINGS
    @given(seed=st.integers(0, 2**20), rates=chaos_rates,
           length=st.integers(min_value=4, max_value=16))
    def test_weighted_terminates_conserves_and_completes(self, seed, rates, length):
        cluster = SimCluster(3, config=ClusterConfig(fault_plan=FaultPlan(seed=seed, **rates), reliable=True))
        oids = build_chain(cluster, length)
        qid = cluster.submit(CLOSURE, [oids[0]])
        outcome = cluster.wait(qid)
        assert not outcome.result.partial
        assert outcome.result.oid_keys() == {o.key() for o in oids}
        ctx = cluster.node(qid.originator).contexts[qid]
        assert ctx.term_state.recovered == Fraction(1)

    @SETTINGS
    @given(seed=st.integers(0, 2**20), rates=chaos_rates,
           length=st.integers(min_value=4, max_value=16))
    def test_dijkstra_scholten_terminates_cleanly(self, seed, rates, length):
        cluster = SimCluster(
            3,
            config=ClusterConfig(
                termination="dijkstra-scholten",
                fault_plan=FaultPlan(seed=seed, **rates),
                reliable=True,
            ),
        )
        oids = build_chain(cluster, length)
        qid = cluster.submit(CLOSURE, [oids[0]])
        outcome = cluster.wait(qid)  # no idle-hang, no protocol error
        assert not outcome.result.partial
        ctx = cluster.node(qid.originator).contexts[qid]
        assert ctx.term_state.deficit == 0
