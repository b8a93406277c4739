"""Per-layer probes of the traced run, all taken from outside ``src/``.

Each probe times calls into one layer's public functions on fixed inputs
(the paper's database, a fixed key), reads ``total_stats()``, or groups
``cProfile`` self time by ``repro.<package>``.  Metric names are
``<module>.<metric>``; README.md says which end-to-end metric on which
workload each is expected to move.  In-program spans replace the
profile shares in a later change.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time
from fractions import Fraction
from typing import Callable, Dict, List

from repro.api import compile_query_like
from repro.baselines.centralized import union_fetcher
from repro.engine.efunction import evaluate
from repro.engine.items import WorkItem
from repro.engine.local import run_local
from repro.engine.marktable import MarkTable
from repro.net.codec import FrameReader, decode_envelope, encode_envelope, encode_frame
from repro.net.messages import DerefRequest, Envelope, QueryId, ResultBatch
from repro.termination.weights import WeightedStrategy
from repro.tracing import QueryTracer
from repro.workload import closure_query, generate_into_cluster

from .machine import cpu_seconds
from .oracle import SEARCH_TYPE
from .workloads import SPEC, build_cluster, reference_database

#: The fixed key every probe searches for.
VALUE = 5
#: Pointer family per query shape (tree / chain / the dense low-locality closure).
SHAPES = {"tree": "Tree", "chain": "Chain", "dense": "Rand05"}
#: Frames one Chain closure moves between sites (270 work + 180 result).
CHAIN_FRAMES = 450
CHAIN_DEPTH = 270
PROFILE_QUERIES = 5
PACKAGES = ("core", "engine", "server", "net", "termination", "storage")


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _per_call_seconds(fn: Callable[[], object], calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean time of ``calls`` back-to-back calls."""
    def batch() -> None:
        for _ in range(calls):
            fn()
    return _median_seconds(batch, repeats) / calls


def _query(shape: str):
    return closure_query(SHAPES[shape], SEARCH_TYPE, VALUE)


# -- core / engine replay -------------------------------------------------------


def core_and_engine(stores, db) -> Dict[str, float]:
    text = str(_query("tree"))
    program = compile_query_like(text)
    objects = [store_obj for store in stores for store_obj in store.objects()]
    select = program.op_at(program.size)  # the (Rand10p, v, ?) filter
    types = [t.type for t in objects[0].tuples]
    fetch = union_fetcher(stores)

    def match_all() -> None:
        for type_name in types:
            select.type_pattern.match(type_name, {})

    def discard(target: str, value: object) -> None:
        pass

    def evaluate_all() -> None:
        for obj in objects:
            active = WorkItem(oid=obj.oid).activate()
            while active is not None and active.next <= program.size:
                _spawned, active = evaluate(program, active, obj, discard)

    def mark_all() -> None:
        table = MarkTable()
        for obj in objects:
            table.mark(obj.oid, 1)

    out = {
        "core.compile_us": _per_call_seconds(lambda: compile_query_like(text), 200) * 1e6,
        "core.pattern_match_ns": _per_call_seconds(match_all, 200) / len(types) * 1e9,
        "engine.evaluate_us_per_object": _median_seconds(evaluate_all, 9) / len(objects) * 1e6,
        "engine.marktable_mark_ns": _median_seconds(mark_all, 21) / len(objects) * 1e9,
    }
    for shape in SHAPES:
        shape_program = compile_query_like(_query(shape))
        out[f"engine.run_local_ms.{shape}"] = _median_seconds(
            lambda: run_local(shape_program, [db.root], fetch), 7
        ) * 1e3
    return out


# -- codec / termination / storage micro-benchmarks --------------------------------


def codec(db) -> Dict[str, float]:
    qid = QueryId(7, "site0")
    program = compile_query_like(_query("chain"))
    credit = {"credit": Fraction(1, 2**40)}
    envelopes = {
        "deref": Envelope("site0", "site1", DerefRequest(qid, program, WorkItem(db.oids[1], start=3), credit)),
        "result": Envelope("site1", "site0", ResultBatch(qid, oids=tuple(db.oids[:20]), term=credit)),
    }
    out: Dict[str, float] = {}
    frames: List[bytes] = []
    for kind, env in envelopes.items():
        payload = encode_envelope(env)
        frames.append(encode_frame(payload))
        out[f"net.codec.encode_us.{kind}"] = _per_call_seconds(lambda: encode_envelope(env), 500) * 1e6
        out[f"net.codec.decode_us.{kind}"] = _per_call_seconds(lambda: decode_envelope(payload, env.dst), 500) * 1e6
        out[f"net.codec.frame_bytes.{kind}"] = len(frames[-1])

    stream = b"".join(frames) * 4000
    chunks = [stream[i : i + 65536] for i in range(0, len(stream), 65536)]

    def reassemble() -> None:
        reader = FrameReader()
        count = sum(len(reader.feed(chunk)) for chunk in chunks)
        if count != 8000 or reader.pending:
            raise RuntimeError("FrameReader lost frames")

    out["net.codec.framereader_mb_s"] = len(stream) / 1e6 / _median_seconds(reassemble, 5)
    return out


def termination() -> Dict[str, float]:
    """One send -> recv -> drain -> result credit cycle, at the first hop of
    a chain and at hop 270 (where the credit is 1/2**270)."""
    strategy = WeightedStrategy()
    first: List[float] = []
    deep: List[float] = []
    for _ in range(100):
        origin = strategy.new_state("site0", True)
        strategy.on_start(origin)
        holder = origin
        for hop in range(1, CHAIN_DEPTH + 1):
            started = time.perf_counter()
            attach = strategy.on_send_work(holder)
            receiver = strategy.new_state("site1", False)
            strategy.on_recv_work(receiver, attach, "site0", busy=False)
            if holder is origin:
                strategy.on_originator_drain(holder)
            else:
                returned, _controls = strategy.on_drain(holder)
                strategy.on_result(origin, returned)
            elapsed = time.perf_counter() - started
            if hop == 1:
                first.append(elapsed)
            elif hop == CHAIN_DEPTH:
                deep.append(elapsed)
            holder = receiver
        returned, _controls = strategy.on_drain(holder)
        strategy.on_result(origin, returned)
        if not strategy.is_terminated(origin, busy=False):
            raise RuntimeError("credit not conserved along the chain")
    return {
        "termination.credit_cycle_us.depth1": statistics.median(first) * 1e6,
        "termination.credit_cycle_us.depth270": statistics.median(deep) * 1e6,
    }


def storage(stores, db) -> Dict[str, float]:
    store, oid = stores[0], db.root
    obj = store.get(oid)
    return {
        "storage.get_ns": _per_call_seconds(lambda: store.get(oid), 2000) * 1e9,
        "storage.replace_us": _per_call_seconds(lambda: store.replace(obj), 2000) * 1e6,
    }


# -- whole queries on fresh clusters ------------------------------------------------


def _query_ms(cluster, db, shape: str, count: int) -> float:
    """Median wall-clock of the first ``count`` queries after one warm-up."""
    query = _query(shape)
    cluster.run_query(query, [db.root], timeout_s=60.0)
    return _median_seconds(lambda: cluster.run_query(query, [db.root], timeout_s=60.0), count) * 1e3


def node_overhead(run_local_tree_ms: float) -> Dict[str, float]:
    cluster = build_cluster("sim", sites=1)
    try:
        db = generate_into_cluster(cluster, SPEC)
        return {"server.node_overhead_ms": _query_ms(cluster, db, "tree", 20) - run_local_tree_ms}
    finally:
        cluster.close()


def _tracing(cluster, db) -> Dict[str, float]:
    """Alternate untraced and traced Chain queries on one cluster; medians
    over the pairs, because one slow spell of the machine lands on one
    side of a pair only."""
    query = _query("chain")
    tracer = QueryTracer()
    pairs = 10
    ratios: List[float] = []
    extra_s: List[float] = []
    events = 0
    for _ in range(pairs):
        cpu = {}
        for traced in (False, True):
            if traced:
                cluster.attach_tracer(tracer)
            before = cpu_seconds()
            cluster.run_query(query, [db.root], timeout_s=60.0)
            cpu[traced] = cpu_seconds() - before
            if traced:
                cluster.detach_tracer()
                events += len(tracer.events)
                tracer.clear()
        ratios.append(cpu[True] / cpu[False])
        extra_s.append(cpu[True] - cpu[False])
    return {
        "tracing.events_per_query": events / pairs,
        "tracing.us_per_event": statistics.median(extra_s) / (events / pairs) * 1e6,
        "tracing.overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
    }


def _control_channel(cluster, db) -> Dict[str, float]:
    store, oid = cluster.store(db.site_of(1)), db.oids[1]
    obj = store.get(oid)
    return {
        "net.procserver.store_get_ms": _per_call_seconds(lambda: store.get(oid), 50) * 1e3,
        "net.procserver.store_replace_ms": _per_call_seconds(lambda: store.replace(obj), 50) * 1e3,
        "net.procserver.stats_rtt_ms": _per_call_seconds(cluster.total_stats, 20) * 1e3,
    }


def transports() -> Dict[str, float]:
    """Chain on a fresh cluster of each deployment: what one hop costs
    over the simulator's in-memory delivery, plus the probes that need a
    live async (tracing) or process-mode (control channel) cluster."""
    out: Dict[str, float] = {}
    chain_ms: Dict[str, float] = {}
    deployments = {
        "net.simnet": ("sim", False),
        "net.threaded": ("threaded", False),
        "net.asyncio_cluster": ("async", False),
        "net.procserver": ("async", True),
    }
    for module, (transport, processes) in deployments.items():
        started = time.perf_counter()
        cluster = build_cluster(transport, processes)
        spawn_s = time.perf_counter() - started
        try:
            db = generate_into_cluster(cluster, SPEC)
            chain_ms[module] = _query_ms(cluster, db, "chain", 5)
            if module == "net.asyncio_cluster":
                out.update(_tracing(cluster, db))
            if processes:
                out["net.procserver.spawn_s"] = spawn_s
                out.update(_control_channel(cluster, db))
        finally:
            cluster.close()
    base = chain_ms.pop("net.simnet")
    out["net.simnet.chain_ms"] = base
    for module, ms in chain_ms.items():
        out[f"{module}.hop_us"] = (ms - base) / CHAIN_FRAMES * 1e3
    return out


# -- profile shares ---------------------------------------------------------------


def _package_of(filename: str) -> str:
    marker = "/repro/"
    if marker not in filename:
        return "other"
    head = filename.rsplit(marker, 1)[1].split("/", 1)[0]
    return head if head in PACKAGES else "other"


def profile_shares() -> Dict[str, float]:
    """Share of ``cProfile`` self time per ``repro`` package for each
    query shape (a fresh simulator cluster each), and what the profiler
    itself cost."""
    out: Dict[str, float] = {}
    plain_s = profiled_s = 0.0
    for shape in SHAPES:
        query = _query(shape)
        cluster = build_cluster("sim")
        try:
            db = generate_into_cluster(cluster, SPEC)

            def batch() -> None:
                for _ in range(PROFILE_QUERIES):
                    cluster.run_query(query, [db.root], timeout_s=60.0)

            started = time.perf_counter()
            batch()
            plain_s += time.perf_counter() - started
            profiler = cProfile.Profile()
            started = time.perf_counter()
            profiler.runcall(batch)
            profiled_s += time.perf_counter() - started
        finally:
            cluster.close()

        self_time = dict.fromkeys(PACKAGES + ("other",), 0.0)
        for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
            self_time[_package_of(filename)] += row[2]
        total = sum(self_time.values())
        for package, seconds in self_time.items():
            out[f"profile.{shape}.{package}"] = seconds / total * 100.0
    out["bench.trace_overhead_pct"] = (profiled_s / plain_s - 1.0) * 100.0
    return out


def layer_metrics() -> Dict[str, float]:
    """Every workload-independent per-layer metric."""
    stores, db = reference_database()
    out = core_and_engine(stores, db)
    out.update(node_overhead(out["engine.run_local_ms.tree"]))
    out.update(codec(db))
    out.update(termination())
    out.update(storage(stores, db))
    out.update(transports())
    out.update(profile_shares())
    return out
