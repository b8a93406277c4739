"""Overload experiment — open-loop heavy traffic with and without QoS.

The paper measures a lightly loaded prototype (one query script at a
time); a served deployment instead faces open-loop arrivals that do not
slow down when the service does.  This experiment drives the dense §5
workload (Figure 4's 5%-local pointer class) at multiples of the
cluster's measured capacity and compares an unprotected run against one
with the full QoS stack — per-tenant token-bucket admission, high/low
watermark backpressure, weighted-fair drain and batch-class shedding.

The claims under test (tracked in ``BENCH_overload.json``):

* with QoS, interactive p99 stays bounded at every overload multiple
  (the unprotected run's p99 grows with the backlog);
* batch traffic degrades *gracefully*: bounced at admission or shed
  with ``partial_reason == "shed"``, never wedged;
* shedding is credit-exact — ``credit_deficit == 0`` for every query
  that completes during overload, so termination detection never
  breaks under load.

Arrivals are scheduled on the simulator's virtual clock (open loop:
arrival times are fixed before the first query runs), seeded, and the
simulator is deterministic, so the figures are exactly reproducible.
"""

import bisect
import json
import math
import pathlib
import random

from repro.api import credit_deficit
from repro.errors import Overloaded
from repro.metrics.registry import SLO_BUCKETS
from repro.net.batching import BatchConfig
from repro.qos import QoSConfig
from repro.workload import pointer_key_for, query_script

from .conftest import N_QUERIES, SPEC, make_cluster, report, run_script

#: Figure 4's leftmost locality class (densest cross-site traffic).
P_LOCAL = 0.05

#: Open-loop arrival rate as a multiple of measured capacity.
MULTIPLES = (2, 4, 10)

#: Arrivals per overload run (per multiple, per configuration).
N_ARRIVALS = max(2 * N_QUERIES, 6)

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_overload.json"


def p99(values):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]


def slo_bucket_index(value):
    """Which SLO histogram bucket a latency falls in (past-the-end =
    overflow) — the resolution at which telemetry and ad-hoc measurement
    can be expected to agree."""
    return bisect.bisect_left(SLO_BUCKETS, value)


def slo_agreement(slo_p99_s, adhoc_node_p99_s):
    """Telemetry vs ad-hoc: the histogram quantile is a bucket upper
    bound, and the two p99 order statistics may straddle a bucket edge,
    so agreement means landing in the same or an adjacent bucket."""
    if slo_p99_s is None or adhoc_node_p99_s is None:
        return slo_p99_s is None and adhoc_node_p99_s is None
    return abs(slo_bucket_index(slo_p99_s) - slo_bucket_index(adhoc_node_p99_s)) <= 1


def estimate_capacity(paper_graph):
    """Closed-loop calibration: mean response time of the dense workload
    with one query in flight; capacity is its reciprocal."""
    cluster, workload = make_cluster(3, paper_graph)
    series = run_script(cluster, workload, pointer_key_for(P_LOCAL), "Rand10p")
    return 1.0 / series.mean, series.mean


def overload_qos(capacity_qps):
    """The protection stack under test, sized against measured capacity:
    each tenant is admitted at 3/4 of what the whole cluster can serve
    (short bursts allowed), sites signal pressure early, and batch-class
    work sheds when a site's queue passes the shed watermark."""
    return QoSConfig(
        rate_limit_qps=0.75 * capacity_qps,
        rate_burst=2,
        high_watermark=8,
        low_watermark=4,
        shed_watermark=16,
    )


def run_open_loop(multiple, paper_graph, capacity_qps, qos):
    # Both configurations batch sends (max_batch=8 is the ablation's
    # sweet spot); with QoS on, pressured destinations defer the size
    # flush by pressure_batch_factor on top of it.
    cluster, workload = make_cluster(
        3, paper_graph, qos=qos, batching=BatchConfig(max_batch=8)
    )
    # QoS benchmarks read their p99s from telemetry: completion stamps
    # per-tenant/per-priority SLO histograms into this registry.
    registry = cluster.enable_metrics()
    rng = random.Random(1000 + multiple)
    queries = list(
        query_script(
            pointer_key_for(P_LOCAL), "Rand10p", count=N_ARRIVALS, seed=11, spec=SPEC
        )
    )
    submitted = []
    bounced = {"interactive": 0, "batch": 0}

    def arrive(query, priority):
        try:
            qid = cluster.submit(
                query, [workload.root], priority=priority, client=priority
            )
        except Overloaded:
            bounced[priority] += 1
        else:
            submitted.append((qid, priority))

    t = 0.0
    for i, query in enumerate(queries):
        t += rng.expovariate(multiple * capacity_qps)
        priority = "interactive" if i % 2 == 0 else "batch"
        cluster.sim.schedule_at(t, lambda q=query, p=priority: arrive(q, p))
    cluster.run()

    times = {"interactive": [], "batch": []}
    node_times = {"interactive": [], "batch": []}
    shed_partials = 0
    credit_ok = True
    for qid, priority in submitted:
        outcome = cluster.outcome(qid)
        assert outcome is not None, f"open-loop query {qid} never completed"
        times[priority].append(outcome.response_time)
        # The SLO histograms measure submit→complete on the originator's
        # clock; strip the client link so the ad-hoc numbers measure the
        # same interval for the telemetry comparison.
        node_times[priority].append(outcome.completed_at - outcome.submitted_at)
        if outcome.result.partial:
            assert outcome.partial_reason == "shed"
            shed_partials += 1
        deficit = credit_deficit(cluster.nodes, qid)
        if deficit is not None and deficit != 0:
            credit_ok = False
    stats = cluster.total_stats()
    slo = {}
    for cls in ("interactive", "batch"):
        # Without QoS the node leaves every query at the default service
        # class, so the histograms carry priority="interactive" for both
        # tenants; the tenant label still separates the series.
        effective_priority = cls if qos is not None else "interactive"
        slo_p99_s = registry.quantile(
            "slo.complete_s", 0.99, tenant=cls, priority=effective_priority
        )
        adhoc = p99(node_times[cls]) if node_times[cls] else None
        slo[cls] = {
            "slo_p99_s": slo_p99_s,
            "adhoc_node_p99_s": adhoc,
            "agrees": slo_agreement(slo_p99_s, adhoc),
        }
    return {
        "slo": slo,
        "served": {cls: len(vals) for cls, vals in times.items()},
        "bounced": dict(bounced),
        "shed_partials": shed_partials,
        "work_shed_items": stats.work_shed,
        "backpressure_transitions": stats.backpressure_transitions,
        "sends_throttled": stats.sends_throttled,
        "credit_ok": credit_ok,
        "interactive_p99_s": p99(times["interactive"]) if times["interactive"] else None,
        "batch_p99_s": p99(times["batch"]) if times["batch"] else None,
        "interactive_mean_s": (
            sum(times["interactive"]) / len(times["interactive"])
            if times["interactive"]
            else None
        ),
        "batch_mean_s": (
            sum(times["batch"]) / len(times["batch"]) if times["batch"] else None
        ),
    }


def test_overload_sweep(benchmark, paper_graph):
    def experiment():
        capacity_qps, base_mean = estimate_capacity(paper_graph)
        rows = []
        for multiple in MULTIPLES:
            rows.append(
                {
                    "multiple": multiple,
                    "unprotected": run_open_loop(multiple, paper_graph, capacity_qps, None),
                    "qos": run_open_loop(
                        multiple, paper_graph, capacity_qps, overload_qos(capacity_qps)
                    ),
                }
            )
        return {"capacity_qps": capacity_qps, "closed_loop_mean_s": base_mean, "rows": rows}

    data = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = data["rows"]

    report(
        benchmark,
        f"Open-loop overload: P(local)={P_LOCAL}, {N_ARRIVALS} arrivals per run",
        [
            {
                "multiple": r["multiple"],
                "raw_inter_p99_s": r["unprotected"]["interactive_p99_s"],
                "qos_inter_p99_s": r["qos"]["interactive_p99_s"],
                "qos_batch_p99_s": r["qos"]["batch_p99_s"],
                "bounced": sum(r["qos"]["bounced"].values()),
                "shed": r["qos"]["shed_partials"],
            }
            for r in rows
        ],
        capacity_qps=data["capacity_qps"],
    )

    payload = {
        "experiment": "open_loop_overload",
        "time_unit": "virtual seconds",
        "workload": {"p_local": P_LOCAL, "search_type": "Rand10p", "machines": 3},
        "n_arrivals": N_ARRIVALS,
        "capacity_qps": data["capacity_qps"],
        "closed_loop_mean_s": data["closed_loop_mean_s"],
        "qos_config": {
            "rate_limit_x_capacity": 0.75,
            "rate_burst": 2,
            "high_watermark": 8,
            "low_watermark": 4,
            "shed_watermark": 16,
        },
        "multiples": rows,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    base_mean = data["closed_loop_mean_s"]
    for row in rows:
        # Telemetry and ad-hoc measurement must tell the same story: the
        # p99 read from the SLO histograms agrees with the order-statistic
        # p99 over the outcomes, to histogram-bucket resolution, for every
        # configuration and service class that served traffic.
        for config_key in ("unprotected", "qos"):
            for cls, comparison in row[config_key]["slo"].items():
                assert comparison["agrees"], (config_key, cls, comparison)
        qos_run = row["qos"]
        # Termination detection survives overload exactly.
        assert qos_run["credit_ok"]
        # Admission control visibly engages at every overload multiple.
        assert sum(qos_run["bounced"].values()) > 0
        # Interactive latency stays bounded: within an order of magnitude
        # of the unloaded closed-loop mean, at every multiple.
        assert qos_run["interactive_p99_s"] is not None
        assert qos_run["interactive_p99_s"] <= 10 * base_mean

    # The unprotected run is why QoS exists: at the top multiple its
    # interactive p99 must exceed the protected run's (the backlog grows
    # with every arrival the admission control would have bounced).
    top = rows[-1]
    assert (
        top["unprotected"]["interactive_p99_s"] > top["qos"]["interactive_p99_s"]
    )
