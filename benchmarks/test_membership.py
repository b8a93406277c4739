"""Membership experiment — serving through a join + rebalance.

The paper's prototype had a fixed site set; the membership plane lets a
site join (or leave, or die) while queries are being served.  This
experiment measures what that costs: an open-loop query stream runs at
half the cluster's measured capacity, a fourth site joins halfway
through the horizon, and the stream's throughput and p99 response time
are reported for three phases — *before* the join, *during* it (queries
whose lifetime spans the view change and the settle window after it),
and *after* the cluster has settled on the grown ring.

The claims under test (tracked in ``BENCH_membership.json``):

* every query completes with the full (non-partial) result — the view
  change is invisible to correctness, before, during and after;
* termination stays credit-exact through the rebalance
  (``credit_deficit == 0`` for every query);
* the after-phase p99 stays within a small factor of the before-phase
  p99 — a join is a blip, not a regime change.

Arrivals are scheduled on the simulator's virtual clock (open loop,
fixed before the first query runs), seeded and deterministic, so the
figures are exactly reproducible.

Environment knobs: ``REPRO_BENCH_QUERIES`` scales the stream length
(arrivals = 6x queries-per-configuration, default 120).
"""

import json
import math
import pathlib
import random

from repro.api import credit_deficit
from repro.membership import MembershipConfig
from repro.replication import ReplicationConfig
from repro.workload import pointer_key_for, query_script

from .conftest import N_QUERIES, SPEC, make_cluster, report, run_script

#: Figure 4's leftmost locality class (densest cross-site traffic — the
#: placement change moves the most load).
P_LOCAL = 0.05

#: Open-loop arrivals across the whole horizon.
N_ARRIVALS = max(6 * N_QUERIES, 30)

#: Arrival rate as a fraction of measured closed-loop capacity: the
#: cluster is busy but not saturated, so p99 movement is attributable
#: to the rebalance, not to queueing collapse.
LOAD_FRACTION = 0.5

#: The settle window after the join, in closed-loop mean service times:
#: queries submitted inside it count as "during".
SETTLE_MEANS = 5.0

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_membership.json"


def p99(values):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]


def phase_stats(rows, lo, hi):
    """Throughput and latency for queries submitted in [lo, hi)."""
    window = [r for r in rows if lo <= r["submitted_at"] < hi]
    times = [r["response_time"] for r in window]
    span = hi - lo
    return {
        "queries": len(window),
        "qps": (len(window) / span) if span > 0 else None,
        "p99_s": p99(times) if times else None,
        "mean_s": (sum(times) / len(times)) if times else None,
    }


def run_join_experiment(paper_graph, capacity_qps, base_mean):
    cluster, workload = make_cluster(
        3, paper_graph, replication=ReplicationConfig(k=2), membership=MembershipConfig()
    )
    cluster.replicate_all()

    rate = LOAD_FRACTION * capacity_qps
    rng = random.Random(4242)
    queries = list(
        query_script(
            pointer_key_for(P_LOCAL), "Rand10p", count=N_ARRIVALS, seed=13, spec=SPEC
        )
    )
    submitted = []

    def arrive(query):
        submitted.append(cluster.submit(query, [workload.root]))

    t = 0.0
    arrival_times = []
    for query in queries:
        t += rng.expovariate(rate)
        arrival_times.append(t)
        cluster.sim.schedule_at(t, lambda q=query: arrive(q))
    horizon = t
    t_join = horizon / 2.0
    cluster.sim.schedule_at(t_join, lambda: cluster.join_site("site3"))
    cluster.run()

    rows = []
    deficit_ok = True
    for qid in submitted:
        outcome = cluster.outcome(qid)
        assert outcome is not None, f"open-loop query {qid} never completed"
        assert not outcome.result.partial, f"{qid} went partial across the join"
        deficit = credit_deficit(cluster.nodes, qid)
        if deficit is not None and deficit != 0:
            deficit_ok = False
        rows.append(
            {
                "submitted_at": outcome.submitted_at,
                "response_time": outcome.response_time,
            }
        )

    settle = SETTLE_MEANS * base_mean
    phases = {
        "before": phase_stats(rows, 0.0, t_join),
        "during": phase_stats(rows, t_join, t_join + settle),
        "after": phase_stats(rows, t_join + settle, horizon),
    }
    joined_view = cluster.membership_view
    cluster.close()
    return {
        "phases": phases,
        "deficit_ok": deficit_ok,
        "t_join_s": t_join,
        "settle_window_s": settle,
        "horizon_s": horizon,
        "final_epoch": joined_view.epoch,
        "final_active": len(joined_view.active),
    }


def test_join_rebalance_under_load(benchmark, paper_graph):
    def experiment():
        cluster, workload = make_cluster(3, paper_graph)
        series = run_script(cluster, workload, pointer_key_for(P_LOCAL), "Rand10p")
        cluster.close()
        capacity_qps, base_mean = 1.0 / series.mean, series.mean
        data = run_join_experiment(paper_graph, capacity_qps, base_mean)
        data["capacity_qps"] = capacity_qps
        data["closed_loop_mean_s"] = base_mean
        return data

    data = benchmark.pedantic(experiment, rounds=1, iterations=1)
    phases = data["phases"]

    report(
        benchmark,
        f"Join + rebalance under load: P(local)={P_LOCAL}, {N_ARRIVALS} arrivals",
        [
            {"phase": name, **stats}
            for name, stats in phases.items()
        ],
        capacity_qps=data["capacity_qps"],
    )

    payload = {
        "experiment": "membership_join_rebalance",
        "time_unit": "virtual seconds",
        "workload": {"p_local": P_LOCAL, "search_type": "Rand10p", "machines": 3},
        "n_arrivals": N_ARRIVALS,
        "load_fraction": LOAD_FRACTION,
        **data,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert data["deficit_ok"], "a query crossed the join with missing credit"
    assert data["final_active"] == 4, "site3 never became active"
    before, after = phases["before"], phases["after"]
    assert before["queries"] > 0 and after["queries"] > 0
    # A join is a blip, not a regime change: once settled, the grown
    # cluster serves at least as predictably as the old one (generous
    # factor — the point is to catch a post-rebalance cliff, not noise).
    assert after["p99_s"] <= 3.0 * before["p99_s"], phases
