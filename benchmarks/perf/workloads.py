"""The six workloads and the closed-loop client that runs one of them.

Every workload runs the paper's 270-object / 3-site database under the
default ``ClusterConfig`` (batching, caching, replication, QoS and
membership all off): that off-path is the hot path.  One generator
thread keeps ``window`` queries in flight through ``submit``/``wait``;
queries go in as ``Query`` ASTs, so compiling them is inside the
latency, as it was for the paper's client.
"""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, List, Sequence, Tuple

from repro.api import compile_query_like, make_cluster
from repro.baselines.centralized import union_fetcher
from repro.config import ClusterConfig
from repro.core.tuples import tuple_of
from repro.engine.local import run_local
from repro.errors import HyperFileError
from repro.storage.memstore import MemStore
from repro.tracing import QueryTracer
from repro.workload import (
    SEARCH_KEY_SPACES,
    MaterializedWorkload,
    WorkloadSpec,
    closure_query,
    generate_into_cluster,
    materialize,
)

from .machine import ReferenceClock, cpu_seconds, leaks_after_close, peak_rss_mb
from .oracle import SEARCH_TYPE, Oracle

SITES = 3
SPEC = WorkloadSpec()
WARMUP_QUERIES = 10
WAIT_TIMEOUT_S = 60.0
#: A run stops after this many times its nominal length in wall-clock time,
#: however slow the machine is.
WALL_CAP = 2.0


@dataclass(frozen=True)
class Workload:
    """One closed-loop traffic mix (the *why* is in ``BENCHMARK.json``)."""

    name: str
    transport: str
    pointer_key: str
    window: int
    processes: bool = False
    traced: bool = False
    updates_per_query: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("tree_sim", "sim", "Tree", window=1),
        Workload("chain_async", "async", "Chain", window=1),
        Workload("chain_async_traced", "async", "Chain", window=1, traced=True),
        Workload("dense_threaded", "threaded", "Rand05", window=4),
        Workload("dense_procs", "async", "Rand05", window=4, processes=True),
        Workload("mixed_update_procs", "async", "Tree", window=1, processes=True, updates_per_query=16),
    )
}


def build_cluster(transport: str, processes: bool = False, sites: int = SITES):
    return make_cluster(transport, sites, config=ClusterConfig(processes=processes))


def reference_database() -> Tuple[List[MemStore], MaterializedWorkload]:
    """The same database in plain local stores (same site names, so the
    same object ids) — what ``run_local`` and the layer probes read."""
    stores = [MemStore(f"site{i}") for i in range(SITES)]
    return stores, materialize(SPEC, stores)


# -- the client ---------------------------------------------------------------


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    index = min(int(fraction * (len(sorted_values) - 1) + 0.5), len(sorted_values) - 1)
    return sorted_values[index]


class Client:
    """Issues the workload's operations and checks every answer.

    ``samples`` holds ``(submit_s, wait_s, speed)`` per correct query, in
    completion order: wall-clock seconds and the machine's speed when the
    query completed (see :class:`ReferenceClock`).  A query that raises,
    times out, comes back partial or disagrees with the oracle is a
    failure and contributes no sample.
    """

    def __init__(self, workload: Workload, cluster, db: MaterializedWorkload, seed: int) -> None:
        self.workload = workload
        self.cluster = cluster
        self.db = db
        self.oracle = Oracle(db, workload.pointer_key)
        # The seed drives only which key each query searches for and
        # which object each update rewrites.
        self._query_rng = random.Random(seed)
        self._update_rng = random.Random(seed + 1_000_003)
        self._inflight: Deque[Tuple[float, float, object, FrozenSet]] = deque()
        self.tracer = QueryTracer() if workload.traced else None
        if self.tracer is not None:
            cluster.attach_tracer(self.tracer)
        self.clock = ReferenceClock()
        self.samples: List[Tuple[float, float, float]] = []
        self.attempted = 0
        self.failed = 0

    def _draw_value(self) -> int:
        return self._query_rng.randint(1, SEARCH_KEY_SPACES[SEARCH_TYPE])

    def _update_one(self) -> None:
        index = self._update_rng.randrange(self.db.spec.n_objects)
        value = self._update_rng.randint(1, SEARCH_KEY_SPACES[SEARCH_TYPE])
        store = self.cluster.store(self.db.site_of(index))
        self.attempted += 1
        try:
            obj = store.get(self.db.oids[index])
            store.replace(obj.without(SEARCH_TYPE).with_tuple(tuple_of(SEARCH_TYPE, value, "")))
        except HyperFileError:
            self.failed += 1
            return
        self.oracle.record_update(index, value)

    def submit(self) -> None:
        for _ in range(self.workload.updates_per_query):
            self._update_one()
        value = self._draw_value()
        query = closure_query(self.workload.pointer_key, SEARCH_TYPE, value)
        expected = self.oracle.expected(value)
        self.attempted += 1
        before = time.perf_counter()
        try:
            qid = self.cluster.submit(query, [self.db.root])
        except HyperFileError:
            self.failed += 1
            return
        self._inflight.append((before, time.perf_counter(), qid, expected))

    def collect(self) -> None:
        before, submitted, qid, expected = self._inflight.popleft()
        try:
            outcome = self.cluster.wait(qid, timeout_s=WAIT_TIMEOUT_S)
        except (HyperFileError, TimeoutError):
            self.failed += 1
            return
        done = time.perf_counter()
        if self.tracer is not None:
            self.tracer.clear()  # stay below the tracer's capacity: every event is recorded
        if outcome.result.partial or outcome.result.oid_keys() != expected:
            self.failed += 1
            return
        self.samples.append((submitted - before, done - submitted, self.clock.speed))

    def run_for(self, seconds: float) -> None:
        """Closed loop: keep the window full for ``seconds`` of reference
        time (at most twice that in wall-clock time), then drain."""
        wall_deadline = time.perf_counter() + WALL_CAP * seconds
        self.clock.restart()

        def running() -> bool:
            return self.clock.now() < seconds and time.perf_counter() < wall_deadline

        while running():
            # A submit that fails leaves the window short: the deadlines
            # also bound the refill, so a cluster that refuses every
            # query ends the run with failed > 0 instead of spinning.
            while len(self._inflight) < self.workload.window and running():
                self.clock.read_if_due()
                self.submit()
            if self._inflight:
                self.collect()
        self.drain()

    def run_queries(self, count: int) -> None:
        for _ in range(count):
            self.submit()
            if len(self._inflight) >= self.workload.window:
                self.collect()
        self.drain()

    def drain(self) -> None:
        while self._inflight:
            self.collect()

    def oracle_agrees_with_engine(self) -> bool:
        """Cross-check the oracle's rule against ``run_local`` on a local,
        never-updated copy of the database."""
        stores, reference = reference_database()
        if [o.key() for o in reference.oids] != [o.key() for o in self.db.oids]:
            return False
        oracle = Oracle(reference, self.workload.pointer_key)
        fetch = union_fetcher(stores)
        for value in (1, self._draw_value()):
            program = compile_query_like(closure_query(self.workload.pointer_key, SEARCH_TYPE, value))
            if run_local(program, [reference.root], fetch).oid_keys() != oracle.expected(value):
                return False
        return True


# -- one measured run -----------------------------------------------------------


@dataclass
class Measurement:
    """What one run of one workload observed."""

    attempted: int
    failed: int
    oracle_ok: bool
    #: Durations in reference time (see :class:`ReferenceClock`).
    end_to_end: Dict[str, float]
    #: The same durations as the wall clock read them, and ``cpu_speed``,
    #: the reference seconds per wall second of the timed region.
    raw: Dict[str, float]
    #: Per-layer metrics this run can see from outside: counts per query,
    #: retention, drift, client spans, leak counters.
    observed: Dict[str, float]

    @property
    def correct(self) -> bool:
        leaked = self.observed["bench.leaked_children"] + self.observed["bench.leaked_threads"]
        return self.failed == 0 and self.oracle_ok and leaked == 0


def cold_start(workload: Workload, seed: int, process_start: float):
    """Cluster up, database loaded, first query answered and checked.

    Returns ``(cluster, client, setup_wall_s)``, the last counted from
    ``process_start``, which was taken before ``repro`` was imported;
    ``client.clock.speed`` is the machine's speed just after.
    """
    cluster = build_cluster(workload.transport, workload.processes)
    try:
        db = generate_into_cluster(cluster, SPEC)
        client = Client(workload, cluster, db, seed)
        client.run_queries(1)
        setup_wall_s = time.perf_counter() - process_start
        client.clock.settle()
    except BaseException:
        cluster.close()
        raise
    return cluster, client, setup_wall_s


def _stats_counts(stats) -> Dict[str, float]:
    return {
        "server.objects_per_query": stats.objects_processed,
        "server.work_msgs_per_query": stats.messages_sent.get("DerefRequest", 0),
        "server.result_msgs_per_query": stats.messages_sent.get("ResultBatch", 0),
        "server.bytes_sent_per_query": stats.bytes_sent,
        "server.marked_skips_per_query": stats.marked_skips,
        "server.drains_per_query": stats.drains,
    }


def run_workload(
    workload: Workload, seed: int, seconds: float, process_start: float, traced: bool
) -> Measurement:
    """Cold start, warm up, run the closed loop for ``seconds`` (of
    reference time), close.

    With ``traced`` the run also reads ``total_stats()`` around the
    warm-up (a fixed number of queries, so the counts repeat exactly on
    the simulator) and the collector's object count around the timed
    region; both stay outside the timed region.
    """
    baseline_threads = threading.active_count()
    cluster, client, setup_wall_s = cold_start(workload, seed, process_start)
    clock = client.clock
    setup_s = setup_wall_s * clock.speed
    observed: Dict[str, float] = {}
    try:
        oracle_ok = client.oracle_agrees_with_engine()

        before = _stats_counts(cluster.total_stats()) if traced else {}
        client.run_queries(WARMUP_QUERIES)
        if traced:
            after = _stats_counts(cluster.total_stats())
            observed.update({k: (after[k] - before[k]) / WARMUP_QUERIES for k in after})

        warm = len(client.samples)
        gc.collect()
        gc_objects = len(gc.get_objects()) if traced else 0
        clock.settle()
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        client.run_for(seconds)
        elapsed = clock.now()
        # The speed readings are the benchmark's, not the workload's.
        wall_s = time.perf_counter() - started - clock.gauge_wall_s
        cpu_wall = cpu_seconds() - cpu_before - clock.gauge_cpu_s
        cpu = cpu_wall * elapsed / wall_s
        if traced:
            gc_objects = len(gc.get_objects()) - gc_objects

        timed = client.samples[warm:]
        if not timed:
            raise RuntimeError(f"{workload.name}: no query completed correctly in {seconds} s")
        total = [(submit_s + wait_s) * speed for submit_s, wait_s, speed in timed]
        ordered = sorted(total)
        raw = {
            "query_ms_p50": percentile(sorted(submit_s + wait_s for submit_s, wait_s, _ in timed), 0.50) * 1e3,
            "qps": len(timed) / wall_s,
            "cpu_ms_per_query": cpu_wall / len(timed) * 1e3,
            "setup_s": setup_wall_s,
            "cpu_speed": elapsed / wall_s,
        }
        end_to_end = {
            "query_ms_p50": percentile(ordered, 0.50) * 1e3,
            "qps": len(timed) / elapsed,
            "cpu_ms_per_query": cpu / len(timed) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s,
        }
        decile = max(len(total) // 10, 1)
        first = statistics.median(total[:decile]) * 1e3
        last = statistics.median(total[-decile:]) * 1e3
        observed.update({
            "server.contexts_retained": sum(len(node.contexts) for node in cluster.nodes.values()),
            "server.gc_objects_per_query": gc_objects / len(timed),
            "drift.first_decile_ms": first,
            "drift.last_decile_ms": last,
            "drift.ratio": last / first,
            "client.query_ms_p90": percentile(ordered, 0.90) * 1e3,
            "client.submit_us_p50": statistics.median(s * speed for s, _, speed in timed) * 1e6,
            "client.wait_ms_p50": statistics.median(w * speed for _, w, speed in timed) * 1e3,
            "bench.cpu_speed": raw["cpu_speed"],
        })
    finally:
        cluster.close()
    children, threads = leaks_after_close(baseline_threads)
    observed["bench.leaked_children"] = children
    observed["bench.leaked_threads"] = threads
    return Measurement(client.attempted, client.failed, oracle_ok, end_to_end, raw, observed)
