"""Batching ablation — remote-message coalescing on the §5 dense workload.

The paper's worst case (Figure 4, far left) is low pointer locality:
"the cases ... generate too much message traffic".  This experiment
reruns exactly that workload with the batching layer at increasing
thresholds and reports, per threshold: mean response time, remote work
messages per query (DerefRequest + BatchedQuery frames), total messages
and bytes on the wire, the flush-reason breakdown, and — from a traced
run — the critical-path split between waiting on messages and waiting
on CPU, which is where batching's win actually shows up.

All telemetry is read from the cluster's MetricsRegistry
(``enable_metrics`` / ``metrics_snapshot``) rather than ad-hoc NodeStats
field reads — the benchmarks consume the same surface the CLI and
operators do.

Acceptance (tracked in ``BENCH_batching.json`` at the repo root):

* threshold 1 — the subsystem disables itself; figures bit-identical to
  the unbatched reproduction;
* threshold >= 8 — at least a 2x reduction in remote work messages per
  query, with mean response time no worse than unbatched.
"""

import json
import pathlib

from repro.net.batching import BatchConfig
from repro.profiling import critical_path
from repro.tracing import QueryTracer
from repro.workload import pointer_key_for, query_script

from .conftest import N_QUERIES, SPEC, make_cluster, report, run_script

#: Figure 4's leftmost locality class: 5% local pointers — the densest
#: cross-site message traffic the paper measures.
P_LOCAL = 0.05

THRESHOLDS = (1, 2, 4, 8, 16, 32)

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_batching.json"


def _sum_metrics(snapshot, name, **labels):
    """Sum a metric's value across instruments matching the given labels."""
    total = 0.0
    for metric in snapshot["metrics"]:
        if metric["name"] != name:
            continue
        if all(metric["labels"].get(k) == v for k, v in labels.items()):
            total += metric["value"]
    return total


def run_threshold(threshold, paper_graph):
    batching = None if threshold == 1 else BatchConfig(max_batch=threshold)
    cluster, workload = make_cluster(3, paper_graph, batching=batching)
    registry = cluster.enable_metrics()
    run_script(cluster, workload, pointer_key_for(P_LOCAL), "Rand10p")

    # Everything below reads the registry, not raw NodeStats.
    snapshot = cluster.metrics_snapshot()
    work_messages = _sum_metrics(
        snapshot, "node.messages_sent", kind="DerefRequest"
    ) + _sum_metrics(snapshot, "node.messages_sent", kind="BatchedQuery")
    response_hist = registry.histogram("cluster.response_time_s")
    batch_hist = registry.histogram("batching.batch_size_items")
    row = {
        "threshold": threshold,
        "mean_response_s": response_hist.mean,
        "work_messages_per_query": work_messages / N_QUERIES,
        "messages_per_query": cluster.network.messages_delivered / N_QUERIES,
        "bytes_per_query": cluster.network.bytes_delivered / N_QUERIES,
        "batched_items": int(_sum_metrics(snapshot, "node.batched_items")),
        "mean_batch_size": batch_hist.mean,
        "sends_suppressed": int(_sum_metrics(snapshot, "node.sends_suppressed")),
        "flushes": {
            reason: int(_sum_metrics(snapshot, f"node.batch_flushes_{reason}"))
            for reason in ("size", "drain", "timer", "idle")
        },
    }

    # One extra traced query: where does its response time actually go?
    tracer = QueryTracer()
    cluster.attach_tracer(tracer)
    query = next(iter(query_script(pointer_key_for(P_LOCAL), "Rand10p",
                                   count=1, seed=99, spec=SPEC)))
    outcome = cluster.run_query(query, [workload.root])
    path = critical_path(tracer, outcome.qid)
    row["critical_path"] = {
        "response_s": outcome.response_time,
        "duration_s": path.duration,
        "steps": len(path.steps),
        "message_hops": path.message_hops,
        "waiting_on_messages_s": sum(s.delta for s in path.steps if s.via == "message"),
        "waiting_on_cpu_s": sum(s.delta for s in path.steps if s.via == "cpu"),
    }
    return row


def test_batching_threshold_sweep(benchmark, paper_graph):
    def experiment():
        return [run_threshold(t, paper_graph) for t in THRESHOLDS]

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    by_threshold = {row["threshold"]: row for row in rows}

    report(
        benchmark,
        f"Batching ablation: thresholds on the P(local)={P_LOCAL} workload",
        [
            {
                "threshold": r["threshold"],
                "mean_response_s": r["mean_response_s"],
                "work_msgs_per_query": r["work_messages_per_query"],
                "bytes_per_query": r["bytes_per_query"],
                "path_msg_wait_s": r["critical_path"]["waiting_on_messages_s"],
                "path_cpu_wait_s": r["critical_path"]["waiting_on_cpu_s"],
            }
            for r in rows
        ],
    )

    payload = {
        "experiment": "batching_threshold_sweep",
        "time_unit": "virtual seconds",
        "workload": {"p_local": P_LOCAL, "search_type": "Rand10p", "machines": 3},
        "n_queries": N_QUERIES,
        "thresholds": rows,
        "reduction_at_8": by_threshold[1]["work_messages_per_query"]
        / by_threshold[8]["work_messages_per_query"],
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    baseline = by_threshold[1]
    # threshold 1 disables the subsystem entirely.
    assert baseline["batched_items"] == 0

    for threshold in (8, 16, 32):
        row = by_threshold[threshold]
        # >= 2x fewer remote work messages per query...
        assert row["work_messages_per_query"] * 2 <= baseline["work_messages_per_query"]
        # ...and never at the price of response time.
        assert row["mean_response_s"] <= baseline["mean_response_s"]

    # Larger thresholds never send more work messages than smaller ones.
    per_query = [r["work_messages_per_query"] for r in rows]
    assert all(a >= b for a, b in zip(per_query, per_query[1:]))

    # The traced runs explain the win.  On this dense workload the
    # critical path is CPU-bound: the serial site CPUs spend most of the
    # path constructing/sending/ingesting hundreds of per-pointer
    # messages (cpu edges), not waiting on the wire (message edges).
    # Batching attacks exactly that term — fewer frames, amortised
    # headers — so the cpu-wait share must drop.  The path must also
    # account for the traced query's full response time (tick
    # tolerance: the completing step's cost is charged after the
    # complete event is stamped).
    for row in rows:
        cp = row["critical_path"]
        assert 0.0 <= cp["response_s"] - cp["duration_s"] <= 0.25
    assert (
        by_threshold[8]["critical_path"]["waiting_on_cpu_s"]
        <= baseline["critical_path"]["waiting_on_cpu_s"]
    )


def test_threshold_one_matches_unbatched_exactly(paper_graph):
    """The degenerate config must not merely be close — the message
    stream, byte counts and virtual timings are bit-identical."""
    plain_cluster, plain_workload = make_cluster(3, paper_graph)
    degen_cluster, degen_workload = make_cluster(
        3, paper_graph, batching=BatchConfig(max_batch=1)
    )
    plain = run_script(plain_cluster, plain_workload, pointer_key_for(P_LOCAL),
                       "Rand10p", n_queries=5)
    degen = run_script(degen_cluster, degen_workload, pointer_key_for(P_LOCAL),
                       "Rand10p", n_queries=5)
    assert plain.values == degen.values
    assert plain_cluster.network.messages_delivered == degen_cluster.network.messages_delivered
    assert plain_cluster.network.bytes_delivered == degen_cluster.network.bytes_delivered
