"""Property-based tests of the QoS subsystem (hypothesis).

Two contracts:

* **Transparency** — a QoS config whose limits are never reached (huge
  watermarks, huge token bucket) must be *bit-identical* to ``qos=None``
  on any pointer graph: same oid sets, same partial flag, same virtual
  response time, same message and byte counts on the wire.  The priority
  and pressure fields ride envelopes for free (they are excluded from
  the paper cost model's ``size_bytes``), the weighted-fair drain with a
  single active class reduces to the legacy round-robin, and admission
  with tokens to spare admits everything.
* **Exact-credit shedding** — when shedding *is* forced, the result is
  a subset of the unthrottled oracle, the outcome is flagged partial
  with ``partial_reason == "shed"``, and the weighted-credit detector's
  conservation stays exact (``credit_deficit == 0``): dropped work's
  credit travels home on drain messages, never leaks.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import credit_deficit
from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.core import keyword_tuple, pointer_tuple
from repro.qos import QoSConfig

CLOSURE = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: A config with every feature armed but no limit reachable by the
#: small graphs below: transparency must hold for it.
UNREACHABLE = QoSConfig(
    rate_limit_qps=1e9,
    rate_burst=10**6,
    high_watermark=10**6,
    low_watermark=10**5,
    shed_watermark=10**6,
)


def build_random_graph(cluster, n, seed):
    """A random pointer graph striped across the sites."""
    rng = random.Random(seed)
    stores = [cluster.store(s) for s in cluster.sites]
    oids = [stores[i % len(stores)].create([keyword_tuple("K")]).oid for i in range(n)]
    for i in range(n):
        targets = {i} if rng.random() < 0.7 else set()
        for _ in range(rng.randint(0, 3)):
            targets.add(rng.randrange(n))
        store = stores[i % len(stores)]
        obj = store.get(oids[i])
        for t in sorted(targets):
            obj = obj.with_tuple(pointer_tuple("Ref", oids[t]))
        store.replace(obj)
    return oids


def run_once(qos, n, seed, priority=None):
    cluster = SimCluster(3, config=ClusterConfig(qos=qos))
    oids = build_random_graph(cluster, n, seed)
    out = cluster.run_query(CLOSURE, [oids[0]], priority=priority)
    return cluster, out


class TestTransparency:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(min_value=4, max_value=16),
        qos=st.sampled_from([QoSConfig(), UNREACHABLE]),
        priority=st.sampled_from([None, "interactive", "batch"]),
    )
    def test_unreached_limits_are_bit_identical(self, seed, n, qos, priority):
        base_cluster, base = run_once(None, n, seed)
        qos_cluster, out = run_once(qos, n, seed, priority=priority)
        assert out.result.oid_keys() == base.result.oid_keys()
        assert out.result.partial == base.result.partial
        assert out.partial_reason is None
        assert out.response_time == base.response_time
        assert qos_cluster.network.messages_delivered == base_cluster.network.messages_delivered
        assert qos_cluster.network.bytes_delivered == base_cluster.network.bytes_delivered
        assert qos_cluster.total_stats().work_shed == 0
        assert qos_cluster.qos_bounces == 0


class TestExactCreditShedding:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(min_value=4, max_value=16),
        shed_watermark=st.integers(min_value=0, max_value=2),
    )
    def test_forced_shed_is_subset_with_zero_deficit(self, seed, n, shed_watermark):
        _, oracle = run_once(None, n, seed)
        cluster, out = run_once(
            QoSConfig(shed_watermark=shed_watermark), n, seed, priority="batch"
        )
        assert out.result.oid_keys() <= oracle.result.oid_keys()
        if cluster.total_stats().work_shed:
            assert out.result.partial
            assert out.partial_reason == "shed"
        else:
            assert out.result.oid_keys() == oracle.result.oid_keys()
            assert not out.result.partial
        assert credit_deficit(cluster.nodes, out.qid) == 0
