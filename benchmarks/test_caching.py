"""Caching ablation — cross-query caches on the §5 dense workload.

The paper's browsing clients re-issue near-identical filtering queries
over a slowly-changing hyperdocument graph; its Figure-4 worst case
(5% pointer locality) is exactly where repeated traversals re-pay the
full message bill every time.  This experiment runs the same query
script *twice* over that workload with each cache layer (fragments,
whole-query results, Bloom reachability summaries) enabled separately
and together, and reports per config: mean response time, remote work
messages per query (DerefRequest + BatchedQuery), bytes on the wire,
and the cache counters that explain the savings.

Every configuration must return byte-identical result sets to the
uncached run — the caches may only remove work, never answers.

Acceptance (tracked in ``BENCH_caching.json`` at the repo root):

* ``full`` — at least 30% fewer remote work messages than uncached on
  the repeated script, identical result sets;
* ``off`` — the subsystem disables itself: message counts, bytes and
  virtual timings bit-identical to a cluster built without it.
"""

import json
import pathlib

from repro.cache import CacheConfig
from repro.metrics.collect import Series
from repro.workload import pointer_key_for, query_script

from .conftest import N_QUERIES, SPEC, make_cluster, report

#: Figure 4's leftmost locality class: 5% local pointers — the densest
#: cross-site message traffic the paper measures.
P_LOCAL = 0.05

#: The script is run this many times back to back ("repeated browsing").
REPEATS = 2

CONFIGS = (
    ("off", None),
    ("fragments", CacheConfig(query_cache=False, summaries=False)),
    ("summaries", CacheConfig(fragments=False, query_cache=False)),
    ("query-cache", CacheConfig(fragments=False, summaries=False)),
    ("full", CacheConfig()),
)

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_caching.json"


def _sum_metrics(snapshot, name, **labels):
    """Sum a metric's value across instruments matching the given labels."""
    total = 0.0
    for metric in snapshot["metrics"]:
        if metric["name"] != name:
            continue
        if all(metric["labels"].get(k) == v for k, v in labels.items()):
            total += metric["value"]
    return total


#: Fraction of objects destroyed after graph generation for the
#: dangling-fringe experiment (browsing an evolving hyperdocument:
#: links outlive their targets).
FRINGE_REMOVED = 0.15


def run_config(label, caching, paper_graph, removed=0.0):
    """The repeated script under one cache config.

    ``removed`` destroys that fraction of non-root objects up front,
    leaving their inbound pointers dangling.  Returns the measurement
    row and the per-query result fingerprints (oid keys + retrieved
    values), in script order.
    """
    import random

    cluster, workload = make_cluster(3, paper_graph, caching=caching)
    if removed:
        rng = random.Random(13)
        victims = rng.sample(list(workload.oids[1:]), int(removed * len(workload.oids)))
        for oid in victims:
            cluster.store(oid.birth_site).remove(oid)
    cluster.enable_metrics()
    series = Series(label)
    fingerprints = []
    for _ in range(REPEATS):
        for query in query_script(pointer_key_for(P_LOCAL), "Rand10p",
                                  count=N_QUERIES, seed=7, spec=SPEC):
            outcome = cluster.run_query(query, [workload.root])
            series.add(outcome.response_time)
            fingerprints.append(
                (
                    tuple(sorted(outcome.result.oid_keys())),
                    tuple(sorted(
                        (target, tuple(values))
                        for target, values in outcome.result.retrieved.items()
                    )),
                )
            )
    snapshot = cluster.metrics_snapshot()
    n_total = N_QUERIES * REPEATS
    work_messages = _sum_metrics(
        snapshot, "node.messages_sent", kind="DerefRequest"
    ) + _sum_metrics(snapshot, "node.messages_sent", kind="BatchedQuery")
    row = {
        "config": label,
        "mean_response_s": series.mean,
        "work_messages_per_query": work_messages / n_total,
        "messages_per_query": cluster.network.messages_delivered / n_total,
        "bytes_per_query": cluster.network.bytes_delivered / n_total,
        "fragment_hits": int(_sum_metrics(snapshot, "node.cache_hits")),
        "query_cache_hits": int(_sum_metrics(snapshot, "node.query_cache_hits")),
        "bloom_suppressed": int(_sum_metrics(snapshot, "node.sends_suppressed_bloom")),
        "summaries_sent": int(_sum_metrics(snapshot, "node.summaries_sent")),
    }
    return row, fingerprints


def test_caching_ablation(benchmark, paper_graph):
    def experiment():
        return [run_config(label, caching, paper_graph) for label, caching in CONFIGS]

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [row for row, _ in results]
    by_config = {row["config"]: row for row in rows}
    baseline_row, baseline_prints = results[0]
    assert baseline_row["config"] == "off"

    report(
        benchmark,
        f"Caching ablation: repeated script on the P(local)={P_LOCAL} workload",
        [
            {
                "config": r["config"],
                "mean_response_s": r["mean_response_s"],
                "work_msgs_per_query": r["work_messages_per_query"],
                "bytes_per_query": r["bytes_per_query"],
                "frag_hits": r["fragment_hits"],
                "query_hits": r["query_cache_hits"],
                "bloom_supp": r["bloom_suppressed"],
            }
            for r in rows
        ],
    )

    # The pristine locality-class graphs give the Bloom layer nothing to
    # bite on — every object exists and has outgoing pointers of every
    # class.  Its habitat is the *evolving* hyperdocument, where links
    # outlive their targets: destroy a fringe of objects and the
    # nonexistence rule prunes the dangling sends on every later query.
    fringe_off, fringe_off_prints = run_config(
        "fringe/off", None, paper_graph, removed=FRINGE_REMOVED
    )
    fringe_bloom, fringe_bloom_prints = run_config(
        "fringe/summaries", CacheConfig(fragments=False, query_cache=False),
        paper_graph, removed=FRINGE_REMOVED,
    )

    payload = {
        "experiment": "caching_ablation",
        "time_unit": "virtual seconds",
        "workload": {"p_local": P_LOCAL, "search_type": "Rand10p", "machines": 3,
                     "repeats": REPEATS},
        "n_queries": N_QUERIES,
        "configs": rows,
        "dangling_fringe": [fringe_off, fringe_bloom],
        "work_message_reduction_full": baseline_row["work_messages_per_query"]
        / by_config["full"]["work_messages_per_query"],
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Transparency: every config answers every query exactly like the
    # uncached cluster — same oids, same retrieved values, same order of
    # queries (byte-identical result sets).
    for row, prints in results[1:]:
        assert prints == baseline_prints, row["config"]

    # The uncached run must not touch a single cache code path.
    for counter in ("fragment_hits", "query_cache_hits", "bloom_suppressed",
                    "summaries_sent"):
        assert baseline_row[counter] == 0

    # Headline: >= 30% fewer remote work messages with the full config.
    assert (
        by_config["full"]["work_messages_per_query"]
        <= 0.7 * baseline_row["work_messages_per_query"]
    )
    # And the caches never *add* remote work, whatever the subset.  The
    # response-time tolerance covers the summary bytes: on a graph with
    # nothing to suppress they are pure (tiny) transfer overhead.
    for row in rows[1:]:
        assert row["work_messages_per_query"] <= baseline_row["work_messages_per_query"]
        assert row["mean_response_s"] <= baseline_row["mean_response_s"] * 1.001

    # Each layer's own evidence: the counters that justify its existence.
    assert by_config["query-cache"]["query_cache_hits"] >= N_QUERIES * (REPEATS - 1)
    assert by_config["fragments"]["fragment_hits"] > 0
    # Bloom pruning on the dangling fringe: real messages saved, same
    # answers.
    assert fringe_bloom_prints == fringe_off_prints
    assert fringe_bloom["bloom_suppressed"] > 0
    assert (
        fringe_bloom["work_messages_per_query"] < fringe_off["work_messages_per_query"]
    )


def test_caching_off_matches_uncached_exactly(paper_graph):
    """The degenerate config must not merely be close — message stream,
    byte counts and virtual timings are bit-identical."""
    plain_cluster, plain_workload = make_cluster(3, paper_graph)
    degen_cluster, degen_workload = make_cluster(
        3, paper_graph,
        caching=CacheConfig(fragments=False, query_cache=False, summaries=False),
    )

    def run(cluster, workload):
        times = []
        for query in query_script(pointer_key_for(P_LOCAL), "Rand10p",
                                  count=5, seed=7, spec=SPEC):
            times.append(cluster.run_query(query, [workload.root]).response_time)
        return times

    plain = run(plain_cluster, plain_workload)
    degen = run(degen_cluster, degen_workload)
    assert plain == degen
    assert plain_cluster.network.messages_delivered == degen_cluster.network.messages_delivered
    assert plain_cluster.network.bytes_delivered == degen_cluster.network.bytes_delivered
