"""Process-mode scaling: one OS process per site vs the GIL-bound transports.

Process mode (``ClusterConfig(processes=True)``) pays real costs the
inline transports don't — spawn at construction, a control round-trip
per store call, codec bytes instead of shared references — to buy the
one thing no in-process transport can have: site CPU work running on
multiple cores at once.  This bench saturates each deployment with a
window of concurrent closure queries and reports queries/sec plus
client-side p50/p99 latency, alongside the core count that decides
whether parallelism can pay.

The numbers land in ``BENCH_procscale.json`` at the repo root; the CI
``proc-conformance-smoke`` job regenerates and uploads them.  The
tracked claim — **process-mode qps >= max(threaded, async) qps at
saturation** — is asserted only on genuinely multi-core hosts (4+
CPUs): on one or two cores process mode is all overhead and no
parallelism, and the recorded numbers say so honestly.

Environment knobs:

* ``REPRO_BENCH_QUERIES`` — queries per deployment (default 20).
* ``REPRO_BENCH_WINDOW``  — concurrent queries in flight (default 8).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.api import make_cluster
from repro.config import ClusterConfig
from repro.core.program import compile_query
from repro.workload import WorkloadSpec, build_graph, closure_query, materialize

from .conftest import report

N_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "20"))
WINDOW = int(os.environ.get("REPRO_BENCH_WINDOW", "8"))
MACHINES = 3
#: Cores below which the parallelism claim cannot hold and is not asserted.
MIN_CORES_FOR_CLAIM = 4

SPEC = WorkloadSpec(n_objects=90)
GRAPH = build_graph(n=90)
PROGRAM = compile_query(closure_query("Tree", "Rand10p", 5))

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_procscale.json"

DEPLOYMENTS = {
    "threaded": lambda: make_cluster("threaded", MACHINES),
    "async": lambda: make_cluster("async", MACHINES),
    "async+procs": lambda: make_cluster(
        "async", MACHINES, config=ClusterConfig(processes=True)
    ),
}


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(int(fraction * (len(sorted_values) - 1) + 0.5), len(sorted_values) - 1)
    return sorted_values[index]


def saturate(name: str, n_queries: int = N_QUERIES, window: int = WINDOW) -> dict:
    """Run ``n_queries`` closure queries with ``window`` always in flight."""
    cluster = DEPLOYMENTS[name]()
    try:
        workload = materialize(SPEC, [cluster.store(s) for s in cluster.sites], graph=GRAPH)
        # Warm-up: populate caches/connections outside the timed region.
        cluster.run_query(PROGRAM, [workload.root], timeout_s=60.0)

        latencies = []
        inflight = []
        submitted = 0
        started = time.monotonic()
        while submitted < n_queries or inflight:
            while submitted < n_queries and len(inflight) < window:
                inflight.append(cluster.submit(PROGRAM, [workload.root]))
                submitted += 1
            outcome = cluster.wait(inflight.pop(0), timeout_s=120.0)
            assert len(outcome.result.oids) > 0
            latencies.append(outcome.response_time)
        elapsed = time.monotonic() - started

        latencies.sort()
        return {
            "queries": n_queries,
            "window": window,
            "elapsed_s": elapsed,
            "qps": n_queries / elapsed if elapsed > 0 else float("inf"),
            "p50_s": percentile(latencies, 0.50),
            "p99_s": percentile(latencies, 0.99),
        }
    finally:
        cluster.close()


@pytest.mark.benchmark(group="procscale")
def test_process_mode_scales_past_the_gil(benchmark):
    def experiment():
        return {name: saturate(name) for name in DEPLOYMENTS}

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    cores = os.cpu_count() or 1

    report(
        benchmark,
        f"Saturated closure queries: {MACHINES} site processes, "
        f"window={WINDOW}, n={N_QUERIES}, host cores={cores}",
        [
            {
                "deployment": name,
                "qps": round(r["qps"], 1),
                "p50_ms": round(r["p50_s"] * 1e3, 2),
                "p99_ms": round(r["p99_s"] * 1e3, 2),
            }
            for name, r in rows.items()
        ],
    )

    payload = {
        "experiment": "process_mode_saturation",
        "workload": {
            "machines": MACHINES,
            "n_objects": SPEC.n_objects,
            "query": "closure Tree/Rand10p depth 5",
        },
        "n_queries": N_QUERIES,
        "window": WINDOW,
        "cpu_count": cores,
        "claim_asserted": cores >= MIN_CORES_FOR_CLAIM,
        "deployments": rows,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # The tracked claim, only where parallelism can physically pay: with
    # 4+ cores the per-site processes must out-saturate the transports
    # serialised by one interpreter lock.
    if cores >= MIN_CORES_FOR_CLAIM:
        gil_bound = max(rows["threaded"]["qps"], rows["async"]["qps"])
        assert rows["async+procs"]["qps"] >= gil_bound, (
            f"process mode slower than GIL-bound transports on {cores} cores: "
            f"{rows['async+procs']['qps']:.1f} < {gil_bound:.1f} qps"
        )
