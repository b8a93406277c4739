"""Command-line interface: explore HyperFile from a terminal.

Nine subcommands::

    python -m repro demo                 # one-minute guided tour
    python -m repro repl [--sites N]     # interactive query shell over the §5 workload
    python -m repro experiments [-n Q]   # quick paper-vs-measured tables
    python -m repro trace [--chrome F]   # run a traced query, export its span timeline
    python -m repro profile              # per-query critical-path + credit profile
    python -m repro top [--frames N]     # streaming per-site stats frames under load
    python -m repro cache-stats [-n Q]   # cache hit/suppression counters vs uncached
    python -m repro qos-stats [-n Q]     # admission / shed / backpressure counters under a burst
    python -m repro explore [-n RUNS]    # schedule-exploration sweep with crash injection

Every subcommand takes ``--transport`` (sim, threaded, async);
``trace``, ``profile`` and ``top`` additionally take ``--processes`` to
run the async transport in one-OS-process-per-site mode, exercising the
cross-process telemetry plane (span shipping, streamed stats, flight
recorder — see ``docs/OBSERVABILITY.md``).  ``top`` drives a workload
with streaming stats armed and prints the last N timeline frames —
per-site queue depth, traffic and busy time over time.  ``trace
--flightrec DIR`` additionally arms the flight recorder and dumps its
merged ring (JSON-lines + Perfetto) into DIR after the run.

``cache-stats`` runs the same repeated query script over two identical
clusters — one with cross-query caching (:mod:`repro.cache`) on, one
without — and prints the per-site cache counters next to the remote-work
messages each cluster actually sent.

``qos-stats`` fires one burst of queries from two tenants (half
``interactive``, half ``batch``) at a cluster running the QoS stack
(:mod:`repro.qos`) and prints what the protections did: per-site shed /
backpressure / throttle counters, the admission-control bounces each
tenant took, and the interactive-class response time next to an
unprotected run of the same burst.

``explore`` sweeps seeded random-walk event orderings of a replicated
closure workload (:mod:`repro.sim.explore`), crashing and recovering a
replica holder mid-flight on every run, and reports how many distinct
interleavings completed with oracle-equal results and a zero
termination-credit deficit — the command-line view of what
``tests/schedules/`` asserts.  With ``--membership`` each run
additionally injects a join, a graceful leave or a permanent crash
mid-query (``docs/MEMBERSHIP.md``), and the report adds whether every
run restored k copies at quiesce without losing an object;
``--sig-log PATH`` appends each run's schedule signature for CI
artifact diffing.

``trace`` runs one closure query over the paper's workload with causal
tracing on and exports the event timeline — ``--jsonl`` for one JSON
object per event, ``--chrome`` for a Chrome trace-event document that
loads in Perfetto / ``chrome://tracing`` (sites as lanes, messages as
flow arrows).  ``profile`` runs the same query and prints the span-tree
health check, the critical path, and the credit-flow audit instead.

The REPL loads the paper's synthetic database, binds ``Root`` to its
root object and ``All`` to every object, and evaluates one query per
line.  Meta-commands start with a colon::

    :help               this text
    :sets               list named sets and sizes
    :members NAME [k]   show up to k member ids of a set
    :trace on|off       record / stop recording a query timeline
    :timeline [k]       print the last recorded timeline (k events)
    :lanes              per-site swim-lane view of the trace
    :profile            critical-path profile of the last traced query
    :export FILE        write the trace (.jsonl, or Chrome JSON otherwise)
    :stats              cluster message counters
    :quit
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, List, Optional

from .client.session import Session
from .errors import HyperFileError
from .metrics.report import render_table
from .tracing import QueryTracer
from .workload import WorkloadSpec, build_graph, generate_into_cluster


def _build_cluster(transport: str, sites: int, **config_kwargs):
    """Build any registered transport with a consolidated config."""
    from .api import make_cluster
    from .config import ClusterConfig

    return make_cluster(transport, sites, config=ClusterConfig(**config_kwargs))


def main(argv: Optional[List[str]] = None) -> int:
    from .api import transport_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="HyperFile distributed filtering queries (ICDCS '91 reproduction)",
    )
    # --transport works in both positions: `repro --transport async demo`
    # and `repro demo --transport async` (the subcommand copy, inherited
    # via the parent parser below, wins when both are given).
    transports = transport_names()
    parser.add_argument(
        "--transport", choices=transports, default="sim",
        help="cluster transport to run on (default: sim)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--transport", choices=transports, default=argparse.SUPPRESS,
        help="cluster transport to run on (default: sim)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="one-minute guided tour", parents=[common])

    repl = sub.add_parser(
        "repl", help="interactive query shell over the paper's workload", parents=[common]
    )
    repl.add_argument("--sites", type=int, default=3, choices=(1, 3, 9))
    repl.add_argument("--objects", type=int, default=270)

    experiments = sub.add_parser(
        "experiments", help="quick paper-vs-measured tables", parents=[common]
    )
    experiments.add_argument("-n", "--queries", type=int, default=3)

    trace = sub.add_parser(
        "trace", help="run a traced query and export its span timeline", parents=[common]
    )
    profile = sub.add_parser(
        "profile", help="critical-path profile of one traced query", parents=[common]
    )
    top = sub.add_parser(
        "top", help="streaming per-site stats frames under load", parents=[common]
    )
    for p in (trace, profile, top):
        p.add_argument("--sites", type=int, default=3, choices=(1, 3, 9))
        p.add_argument("--objects", type=int, default=90)
        p.add_argument("--pointer", default="Tree", choices=("Tree", "Chain"))
        p.add_argument("--processes", action="store_true",
                       help="one OS process per site (async transport only)")
    trace.add_argument("--jsonl", metavar="PATH", help="write events as JSON lines")
    trace.add_argument("--chrome", metavar="PATH",
                       help="write a Chrome trace-event document (Perfetto-loadable)")
    trace.add_argument("--validate", action="store_true",
                       help="validate the Chrome trace-event schema after writing")
    trace.add_argument("--flightrec", metavar="DIR",
                       help="arm the flight recorder and dump its ring into DIR")
    top.add_argument("--frames", type=int, default=8,
                     help="timeline frames to print (default 8)")
    top.add_argument("--interval", type=float, default=0.05,
                     help="stats streaming period in seconds (default 0.05)")

    cache_stats = sub.add_parser(
        "cache-stats",
        help="run a repeated workload cached vs uncached, print counters",
        parents=[common],
    )
    cache_stats.add_argument("--sites", type=int, default=3, choices=(1, 3, 9))
    cache_stats.add_argument("--objects", type=int, default=90)
    cache_stats.add_argument("-n", "--queries", type=int, default=8)
    cache_stats.add_argument("--pointer", default="Tree", choices=("Tree", "Chain"))

    qos_stats = sub.add_parser(
        "qos-stats",
        help="fire a two-tenant burst at the QoS stack, print counters",
        parents=[common],
    )
    qos_stats.add_argument("--sites", type=int, default=3, choices=(1, 3, 9))
    qos_stats.add_argument("--objects", type=int, default=90)
    qos_stats.add_argument("-n", "--queries", type=int, default=8,
                           help="queries per tenant in the burst (default 8)")
    qos_stats.add_argument("--pointer", default="Tree", choices=("Tree", "Chain"))

    explore = sub.add_parser(
        "explore",
        help="schedule-exploration sweep with crash injection",
        parents=[common],
    )
    explore.add_argument("-n", "--runs", type=int, default=200,
                         help="seeded interleavings to replay (default 200)")
    explore.add_argument("-k", "--replicas", type=int, default=2,
                         help="replication factor (default 2; 1 = replica-free)")
    explore.add_argument("--no-crashes", action="store_true",
                         help="reorder events only, inject no crashes")
    explore.add_argument("--membership", action="store_true",
                         help="inject joins, graceful leaves and permanent "
                              "crashes mid-query (implies k-replicated "
                              "membership cluster)")
    explore.add_argument("--sig-log", metavar="PATH",
                         help="append one schedule signature per run to PATH "
                              "(CI uses this to diff explored interleavings)")

    args = parser.parse_args(argv)
    transport = args.transport
    if getattr(args, "processes", False) and transport != "async":
        parser.error("--processes requires --transport async")
    if args.command == "demo":
        return run_demo(transport=transport)
    if args.command == "repl":
        return run_repl(sites=args.sites, n_objects=args.objects, transport=transport)
    if args.command == "experiments":
        return run_experiments(args.queries, transport=transport)
    if args.command == "trace":
        return run_trace(
            sites=args.sites, n_objects=args.objects, pointer=args.pointer,
            jsonl=args.jsonl, chrome=args.chrome, validate=args.validate,
            flightrec=args.flightrec, processes=args.processes,
            transport=transport,
        )
    if args.command == "profile":
        return run_profile(
            sites=args.sites, n_objects=args.objects, pointer=args.pointer,
            processes=args.processes, transport=transport,
        )
    if args.command == "top":
        return run_top(
            sites=args.sites, n_objects=args.objects, pointer=args.pointer,
            frames=args.frames, interval=args.interval,
            processes=args.processes, transport=transport,
        )
    if args.command == "cache-stats":
        return run_cache_stats(
            sites=args.sites, n_objects=args.objects,
            n_queries=args.queries, pointer=args.pointer, transport=transport,
        )
    if args.command == "qos-stats":
        return run_qos_stats(
            sites=args.sites, n_objects=args.objects,
            n_queries=args.queries, pointer=args.pointer, transport=transport,
        )
    if args.command == "explore":
        return run_explore(
            n_runs=args.runs, k=args.replicas, crashes=not args.no_crashes,
            membership=args.membership, sig_log=args.sig_log,
            transport=transport,
        )
    return 2  # pragma: no cover - argparse enforces the choices


# --------------------------------------------------------------------------
# demo
# --------------------------------------------------------------------------


def run_demo(out: Optional[IO[str]] = None, transport: str = "sim") -> int:
    out = out if out is not None else sys.stdout
    from .client import HyperFile
    from .core import keyword_tuple, pointer_tuple, string_tuple

    print(f"Building a 3-site HyperFile service ({transport} transport)...", file=out)
    hf = HyperFile(sites=3, transport=transport)
    survey = hf.create("site2", string_tuple("Title", "A Survey"), keyword_tuple("Distributed"))
    hf.update(survey, pointer_tuple("Reference", survey))
    notes = hf.create("site1", string_tuple("Title", "Server Notes"),
                      keyword_tuple("Distributed"), pointer_tuple("Reference", survey))
    intro = hf.create("site0", string_tuple("Title", "HyperFile"),
                      keyword_tuple("Distributed"), pointer_tuple("Reference", notes))
    hf.define_set("S", [intro])
    print("Query: follow Reference pointers transitively, keep 'Distributed':", file=out)
    query = ('S [ (Pointer, "Reference", ?X) | ^^X ]* '
             '(Keyword, "Distributed", ?) (String, "Title", ->title) -> T')
    print(f"  {query}", file=out)
    hf.query(query)
    for title in hf.retrieve("title"):
        print(f"  found: {title}", file=out)
    clock = "simulated" if transport == "sim" else "wall-clock"
    print(f"{clock} response time: {hf.last_response_time * 1000:.0f} ms", file=out)
    print("(try `python -m repro repl` for the full 270-object workload)", file=out)
    hf.close()
    return 0


# --------------------------------------------------------------------------
# repl
# --------------------------------------------------------------------------


def run_repl(
    sites: int = 3,
    n_objects: int = 270,
    stdin: Optional[IO[str]] = None,
    out: Optional[IO[str]] = None,
    transport: str = "sim",
) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    out = out if out is not None else sys.stdout
    cluster = _build_cluster(transport, sites)
    spec = WorkloadSpec().scaled(n_objects)
    workload = generate_into_cluster(cluster, spec, build_graph(n=n_objects, seed=spec.seed))
    session = Session(cluster)
    session.define_set("Root", [workload.root])
    session.define_set("All", list(workload.oids))
    tracer: Optional[QueryTracer] = None

    clock = "simulated" if transport == "sim" else "wall-clock"
    print(
        f"HyperFile repl: {n_objects} objects on {sites} site(s), "
        f"{transport} transport; sets Root and All are bound.  :help for commands.",
        file=out,
    )
    for raw in stdin:
        line = raw.strip()
        if not line:
            continue
        if line.startswith(":"):
            if not _meta_command(line, session, cluster, out, tracer_box := [tracer]):
                return 0
            tracer = tracer_box[0]
            continue
        try:
            results = session.query(line)
        except HyperFileError as exc:
            print(f"error: {exc}", file=out)
            continue
        rt = session.last_response_time or 0.0
        print(f"{len(results)} objects in {rt * 1000:.0f} ms ({clock})", file=out)
        for oid in results[:10]:
            print(f"  {oid}", file=out)
        if len(results) > 10:
            print(f"  ... {len(results) - 10} more", file=out)
        for target in list(session.bindings):
            values = session.bindings.pop(target)
            preview = ", ".join(repr(v)[:40] for v in values[:5])
            print(f"  ->{target}: {preview}" + (" ..." if len(values) > 5 else ""), file=out)
    cluster.close()
    return 0


def _meta_command(line: str, session: Session, cluster, out: IO[str], tracer_box) -> bool:
    """Handle a ':' command; returns False to exit the repl."""
    parts = line.split()
    command = parts[0]
    if command in (":quit", ":q", ":exit"):
        print("bye", file=out)
        return False
    if command == ":help":
        print(__doc__, file=out)
    elif command == ":sets":
        for name in sorted(session._sets):
            print(f"  {name}: {session.count_set(name)} objects", file=out)
    elif command == ":members":
        if len(parts) < 2:
            print("usage: :members NAME [k]", file=out)
        else:
            limit = int(parts[2]) if len(parts) > 2 else 10
            try:
                for oid in session.set_members(parts[1])[:limit]:
                    print(f"  {oid}", file=out)
            except HyperFileError as exc:
                print(f"error: {exc}", file=out)
    elif command == ":trace":
        if len(parts) > 1 and parts[1] == "on":
            tracer_box[0] = QueryTracer()
            cluster.attach_tracer(tracer_box[0])
            print("tracing on", file=out)
        else:
            cluster.detach_tracer()
            tracer_box[0] = None
            print("tracing off", file=out)
    elif command == ":lanes":
        tracer = tracer_box[0]
        if tracer is None:
            print("tracing is off (:trace on)", file=out)
        else:
            print(tracer.render_lanes(), file=out)
    elif command == ":timeline":
        tracer = tracer_box[0]
        if tracer is None:
            print("tracing is off (:trace on)", file=out)
        else:
            limit = int(parts[1]) if len(parts) > 1 else 40
            print(tracer.render(limit=limit), file=out)
    elif command == ":profile":
        tracer = tracer_box[0]
        if tracer is None:
            print("tracing is off (:trace on)", file=out)
        elif session.last_outcome is None:
            print("no query run yet", file=out)
        else:
            from .profiling import render_profile

            print(render_profile(tracer, session.last_outcome.qid), file=out)
    elif command == ":export":
        tracer = tracer_box[0]
        if tracer is None:
            print("tracing is off (:trace on)", file=out)
        elif len(parts) < 2:
            print("usage: :export FILE (.jsonl, or Chrome trace JSON otherwise)", file=out)
        else:
            path = parts[1]
            if path.endswith(".jsonl"):
                n = tracer.write_jsonl(path)
                print(f"wrote {n} events to {path}", file=out)
            else:
                n = tracer.write_chrome_trace(path)
                print(f"wrote {n} trace events to {path} (load in Perfetto)", file=out)
    elif command == ":stats":
        totals = cluster.total_stats()
        print(f"  messages sent: {totals.messages_sent}", file=out)
        print(f"  bytes sent: {totals.bytes_sent}", file=out)
        print(f"  objects processed: {totals.objects_processed}", file=out)
    else:
        print(f"unknown command {command} (:help)", file=out)
    return True


# --------------------------------------------------------------------------
# trace / profile
# --------------------------------------------------------------------------


def _traced_closure_run(
    sites: int,
    n_objects: int,
    pointer: str,
    transport: str = "sim",
    processes: bool = False,
    flightrec: Optional[str] = None,
):
    """One traced closure query over the paper workload (shared by the
    ``trace`` and ``profile`` subcommands)."""
    from .workload import query_script

    config_kwargs = {}
    if processes:
        config_kwargs["processes"] = True
    if flightrec is not None:
        from .tracing import FlightRecorderConfig

        config_kwargs["flight_recorder"] = FlightRecorderConfig(dump_dir=flightrec)
    cluster = _build_cluster(transport, sites, **config_kwargs)
    spec = WorkloadSpec().scaled(n_objects)
    workload = generate_into_cluster(cluster, spec, build_graph(n=n_objects, seed=spec.seed))
    tracer = QueryTracer()
    cluster.attach_tracer(tracer)
    query = next(iter(query_script(pointer, "Rand10p", count=1, spec=spec)))
    outcome = cluster.run_query(query, [workload.root], timeout_s=120.0)
    if flightrec is not None:
        # A healthy run never dumps on its own; force one so the CLI
        # always leaves an inspectable artifact (CI uploads this).
        cluster._flightrec_dump(outcome.qid, "cli")
    cluster.close()
    return cluster, tracer, outcome


def run_trace(
    sites: int = 3,
    n_objects: int = 90,
    pointer: str = "Tree",
    jsonl: Optional[str] = None,
    chrome: Optional[str] = None,
    validate: bool = False,
    flightrec: Optional[str] = None,
    processes: bool = False,
    out: Optional[IO[str]] = None,
    transport: str = "sim",
) -> int:
    out = out if out is not None else sys.stdout
    from .profiling import tree_report
    from .tracing import validate_chrome_trace

    _, tracer, outcome = _traced_closure_run(
        sites, n_objects, pointer, transport, processes=processes, flightrec=flightrec
    )
    clock = "simulated" if transport == "sim" else "wall-clock"
    mode = f"{transport}+processes" if processes else transport
    print(
        f"traced {outcome.qid}: {len(tracer.events)} events, "
        f"{len(outcome.result.oids)} results in {outcome.response_time * 1000:.0f} ms "
        f"({clock}, {mode})",
        file=out,
    )
    print(tree_report(tracer, outcome.qid).describe(), file=out)
    if jsonl:
        n = tracer.write_jsonl(jsonl, qid=outcome.qid)
        print(f"wrote {n} events to {jsonl}", file=out)
    if chrome:
        n = tracer.write_chrome_trace(chrome, qid=outcome.qid)
        print(f"wrote {n} trace events to {chrome} (load in Perfetto)", file=out)
        if validate:
            counts = validate_chrome_trace(tracer.to_chrome_trace(qid=outcome.qid))
            print(f"chrome trace schema OK: {counts}", file=out)
    if flightrec:
        import glob
        import os

        dumped = sorted(glob.glob(os.path.join(flightrec, "flightrec-*")))
        for path in dumped:
            print(f"flight recorder: {path}", file=out)
    if not jsonl and not chrome:
        print(tracer.render_lanes(), file=out)
    return 0


def run_profile(
    sites: int = 3,
    n_objects: int = 90,
    pointer: str = "Tree",
    processes: bool = False,
    out: Optional[IO[str]] = None,
    transport: str = "sim",
) -> int:
    out = out if out is not None else sys.stdout
    from .profiling import render_profile

    _, tracer, outcome = _traced_closure_run(
        sites, n_objects, pointer, transport, processes=processes
    )
    print(render_profile(tracer, outcome.qid), file=out)
    return 0


# --------------------------------------------------------------------------
# top
# --------------------------------------------------------------------------


def run_top(
    sites: int = 3,
    n_objects: int = 90,
    pointer: str = "Tree",
    frames: int = 8,
    interval: float = 0.05,
    processes: bool = False,
    out: Optional[IO[str]] = None,
    transport: str = "sim",
) -> int:
    """Drive a small workload with streaming stats armed and print the
    last ``frames`` timeline rows — per-site queue depth, traffic and
    busy time over time (virtual time on sim, monotonic elsewhere)."""
    out = out if out is not None else sys.stdout
    from .workload import query_script

    config_kwargs = {"stats_stream_s": interval}
    if processes:
        config_kwargs["processes"] = True
    cluster = _build_cluster(transport, sites, **config_kwargs)
    spec = WorkloadSpec().scaled(n_objects)
    workload = generate_into_cluster(cluster, spec, build_graph(n=n_objects, seed=spec.seed))
    for query in query_script(pointer, "Rand10p", count=3, spec=spec):
        cluster.run_query(query, [workload.root], timeout_s=120.0)
    if transport != "sim":
        import time as _time

        deadline = _time.monotonic() + 5.0
        while _time.monotonic() < deadline and len(cluster.stats_timeline) < frames:
            _time.sleep(interval)
    samples = cluster.stats_timeline.samples[-frames:]
    clock = "virtual" if transport == "sim" else "monotonic"
    print(
        f"top: {len(samples)} frame(s) at {interval * 1000:.0f} ms period "
        f"({clock} clock), {cluster.stats_timeline.evicted} evicted",
        file=out,
    )
    t0 = samples[0]["t"] if samples else 0.0
    for sample in samples:
        rows = []
        for site in sorted(sample["sites"]):
            fields = sample["sites"][site]
            rows.append(
                {
                    "site": site,
                    "depth": fields.get("work_depth", 0),
                    "msgs_out": sum(fields.get("messages_sent", {}).values()),
                    "bytes_out": fields.get("bytes_sent", 0),
                    "busy_s": round(fields.get("busy_seconds", 0.0), 4),
                    "drains": fields.get("drains", 0),
                }
            )
        print(render_table(rows, title=f"t=+{sample['t'] - t0:.3f}s"), file=out)
    cluster.close()
    return 0


# --------------------------------------------------------------------------
# cache-stats
# --------------------------------------------------------------------------


#: Message kinds that carry remote *work* (as opposed to results,
#: controls, or fetches) — the traffic the caching layer tries to save.
WORK_MESSAGES = ("DerefRequest", "BatchedQuery")


def _work_sent(node) -> int:
    return sum(node.stats.messages_sent.get(kind, 0) for kind in WORK_MESSAGES)


def run_cache_stats(
    sites: int = 3,
    n_objects: int = 90,
    n_queries: int = 8,
    pointer: str = "Tree",
    out: Optional[IO[str]] = None,
    transport: str = "sim",
) -> int:
    out = out if out is not None else sys.stdout
    from .cache import CacheConfig
    from .workload import query_script

    spec = WorkloadSpec().scaled(n_objects)
    graph = build_graph(n=n_objects, seed=spec.seed)
    # The same script twice over: the second pass is where the caches
    # (and the paper's repeated-browsing access pattern) pay off.
    script = list(query_script(pointer, "Rand10p", count=n_queries, spec=spec)) * 2

    def run(caching):
        cluster = _build_cluster(transport, sites, caching=caching)
        workload = generate_into_cluster(cluster, spec, graph)
        for query in script:
            cluster.run_query(query, [workload.root])
        return cluster

    plain = run(None)
    cached = run(CacheConfig())

    rows = []
    for site, node in cached.nodes.items():
        s = node.stats
        rows.append(
            {
                "site": site,
                "frag_hit": s.cache_hits,
                "frag_miss": s.cache_misses,
                "query_hit": s.query_cache_hits,
                "bloom_supp": s.sends_suppressed_bloom,
                "summ_out": s.summaries_sent,
                "summ_in": s.summaries_received,
                "work_sent": _work_sent(node),
            }
        )
    print(
        render_table(rows, title=f"cache counters, {len(script)} queries on {sites} site(s)"),
        file=out,
    )
    plain_work = sum(_work_sent(node) for node in plain.nodes.values())
    cached_work = sum(_work_sent(node) for node in cached.nodes.values())
    saved = plain_work - cached_work
    pct = (100.0 * saved / plain_work) if plain_work else 0.0
    print(f"  remote work messages: {plain_work} uncached -> {cached_work} cached "
          f"({saved} saved, {pct:.0f}%)", file=out)
    print(f"  bytes sent: {plain.total_stats().bytes_sent} uncached -> "
          f"{cached.total_stats().bytes_sent} cached", file=out)
    plain.close()
    cached.close()
    return 0


# --------------------------------------------------------------------------
# qos-stats
# --------------------------------------------------------------------------


def run_qos_stats(
    sites: int = 3,
    n_objects: int = 90,
    n_queries: int = 8,
    pointer: str = "Tree",
    out: Optional[IO[str]] = None,
    transport: str = "sim",
) -> int:
    out = out if out is not None else sys.stdout
    from .api import credit_deficit
    from .errors import Overloaded
    from .qos import QoSConfig
    from .workload import query_script

    spec = WorkloadSpec().scaled(n_objects)
    graph = build_graph(n=n_objects, seed=spec.seed)
    # Two tenants, n_queries each, every query arriving in one burst at
    # virtual t=0 — the worst case the admission control is sized for.
    script = list(query_script(pointer, "Rand10p", count=2 * n_queries, spec=spec))
    qos = QoSConfig(
        rate_limit_qps=0.2,
        rate_burst=max(2, n_queries // 2),
        high_watermark=8,
        low_watermark=4,
        shed_watermark=16,
    )

    def run(config):
        cluster = _build_cluster(transport, sites, qos=config)
        workload = generate_into_cluster(cluster, spec, graph)
        submitted = []
        bounced = {"interactive": 0, "batch": 0}
        for i, query in enumerate(script):
            priority = "interactive" if i % 2 == 0 else "batch"
            try:
                qid = cluster.submit(
                    query, [workload.root], priority=priority, client=priority
                )
            except Overloaded:
                bounced[priority] += 1
            else:
                submitted.append((qid, priority))
        if hasattr(cluster, "run"):  # the simulator needs its event loop driven
            cluster.run()
        else:  # wall-clock transports complete on their own; block for each
            for qid, _ in submitted:
                cluster.wait(qid, timeout_s=60.0)
        times = {"interactive": [], "batch": []}
        shed_partials = 0
        deficits = []
        for qid, priority in submitted:
            outcome = cluster.outcome(qid)
            times[priority].append(outcome.response_time)
            if outcome.result.partial:
                shed_partials += 1
            deficit = credit_deficit(cluster.nodes, qid)
            if deficit is not None:
                deficits.append(deficit)
        return cluster, times, bounced, shed_partials, deficits

    open_cluster, open_times, _, _, _ = run(None)
    open_cluster.close()
    cluster, times, bounced, shed_partials, deficits = run(qos)

    rows = []
    for site, node in cluster.nodes.items():
        s = node.stats
        rows.append(
            {
                "site": site,
                "shed": s.work_shed,
                "bp_trans": s.backpressure_transitions,
                "throttled": s.sends_throttled,
                "work_sent": _work_sent(node),
            }
        )
    print(
        render_table(
            rows, title=f"qos counters, {len(script)} burst arrivals on {sites} site(s)"
        ),
        file=out,
    )

    def mean(vals):
        return sum(vals) / len(vals) if vals else 0.0

    admitted = sum(len(v) for v in times.values())
    print(
        f"  admission: {admitted} admitted, "
        f"{bounced['interactive']} interactive + {bounced['batch']} batch bounced",
        file=out,
    )
    print(
        f"  shed partials: {shed_partials} "
        f"(work items shed: {cluster.total_stats().work_shed})",
        file=out,
    )
    print(
        f"  interactive mean response: {mean(open_times['interactive']):.2f}s "
        f"unprotected -> {mean(times['interactive']):.2f}s with qos",
        file=out,
    )
    credit = "exact" if all(d == 0 for d in deficits) else "LEAKED"
    print(f"  termination credit: {credit} ({len(deficits)} queries audited)", file=out)
    cluster.close()
    return 0


# --------------------------------------------------------------------------
# explore
# --------------------------------------------------------------------------


def run_explore(
    n_runs: int = 200,
    k: int = 2,
    crashes: bool = True,
    membership: bool = False,
    sig_log: Optional[str] = None,
    out: Optional[IO[str]] = None,
    transport: str = "sim",
) -> int:
    out = out if out is not None else sys.stdout
    if transport != "sim":
        print(
            "explore replays deterministic event interleavings, which only "
            f"exist on the simulator; --transport {transport} is not applicable "
            "(drop the flag or use --transport sim)",
            file=out,
        )
        return 2
    from .core import keyword_tuple, pointer_tuple
    from .membership import MembershipConfig
    from .replication import ReplicationConfig
    from .sim.explore import (
        CrashPoint,
        CrashPermanentPoint,
        JoinPoint,
        LeavePoint,
        explore_random,
        run_schedule,
        summarize,
    )

    closure = 'S [ (Pointer,"Ref",?X) ^^X ]* (Keyword,"K",?) -> T'
    sites, length = 3, 8
    if membership and k < 2:
        print("--membership needs k >= 2 (a permanent crash with one copy "
              "is data loss, not a schedule)", file=out)
        return 2

    def load(cluster):
        stores = [cluster.store(s) for s in cluster.sites]
        oids = []
        for i in range(length):
            key = keyword_tuple("K") if i % 2 == 0 else keyword_tuple("miss")
            oids.append(stores[i % len(stores)].create([key]).oid)
        for i in range(length - 1):
            store = stores[i % len(stores)]
            store.replace(store.get(oids[i]).with_tuple(pointer_tuple("Ref", oids[i + 1])))
        return oids

    def make_setup(factor):
        def setup():
            cluster = _build_cluster(
                "sim", sites,
                replication=ReplicationConfig(k=factor),
                membership=MembershipConfig() if membership and factor > 1 else None,
            )
            oids = load(cluster)
            cluster.replicate_all()
            return cluster, oids[:1]

        return setup

    oracle = run_schedule(make_setup(1), closure, originator="site0")
    assert oracle.status == "completed" and oracle.deficit == 0

    def crash_for(seed):
        site = f"site{1 + seed % (sites - 1)}"
        return (CrashPoint(site, at_decision=2 + seed % 7,
                           recover_at_decision=20 + seed % 9),)

    def membership_for(seed):
        victim = f"site{1 + seed % (sites - 1)}"
        at = 2 + seed % 11
        kind = seed % 4
        if kind == 0:
            return (JoinPoint(f"site{sites}", at),)
        if kind == 1:
            return (LeavePoint(victim, at),)
        if kind == 2:
            return (CrashPermanentPoint(victim, at),)
        return (JoinPoint(f"site{sites}", at),
                LeavePoint(victim, at + 5 + seed % 7))

    runs = explore_random(
        make_setup(k), closure, seeds=range(n_runs),
        crashes_for_seed=crash_for if crashes else None,
        membership_for_seed=membership_for if membership else None,
        originator="site0",
    )
    if sig_log:
        with open(sig_log, "a") as fh:
            for r in runs:
                fh.write(f"{r.seed} {r.signature}\n")
    summary = summarize(runs)
    matching = sum(
        1 for r in runs if r.status == "completed" and r.oid_keys == oracle.oid_keys
    )
    failovers = sum(r.stats.replica_failovers for r in runs)
    mode = "crash+recovery injected" if crashes else "reordering only"
    if membership:
        mode += ", membership churn"
    print(f"explored {summary['runs']} schedules (k={k}, {mode}):", file=out)
    print(f"  distinct interleavings: {summary['distinct']}", file=out)
    print(f"  completed:              {summary['completed']}", file=out)
    print(f"  oracle-equal results:   {matching}", file=out)
    print(f"  zero credit deficit:    {summary['zero_deficit']}", file=out)
    print(f"  replica failovers:      {failovers}", file=out)
    print(f"  max decisions/run:      {summary['max_decisions']}", file=out)
    ok = matching == summary["zero_deficit"] == len(runs)
    if membership:
        print(f"  k restored at quiesce:  {summary['k_restored']}", file=out)
        print(f"  objects lost:           {summary['lost_objects']}", file=out)
        ok = ok and summary["k_restored"] == len(runs) and summary["lost_objects"] == 0
    print("every schedule equivalent and credit-exact"
          if ok else "DIVERGENT SCHEDULES FOUND", file=out)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# experiments
# --------------------------------------------------------------------------


def run_experiments(
    n_queries: int, out: Optional[IO[str]] = None, transport: str = "sim"
) -> int:
    out = out if out is not None else sys.stdout
    from .metrics.collect import Series
    from .workload import query_script

    spec = WorkloadSpec()
    graph = build_graph(n=spec.n_objects)
    paper = {("Tree", 1): 2.7, ("Tree", 3): 1.5, ("Tree", 9): 1.0,
             ("Chain", 1): 2.7, ("Chain", 3): 15.0, ("Chain", 9): 15.0}
    rows = []
    for machines in (1, 3, 9):
        cluster = _build_cluster(transport, machines)
        workload = generate_into_cluster(cluster, spec, graph)
        for pointer in ("Tree", "Chain"):
            series = Series(pointer)
            for query in query_script(pointer, "Rand10p", count=n_queries, spec=spec):
                series.add(cluster.run_query(query, [workload.root]).response_time)
            rows.append(
                {
                    "pointer": pointer,
                    "machines": machines,
                    "paper_s": paper[(pointer, machines)],
                    "measured_s": series.mean,
                }
            )
        cluster.close()
    title = "chain/tree closure, paper vs measured"
    if transport != "sim":
        title += f" (wall-clock {transport} — paper column is simulated-time reference)"
    print(render_table(rows, title=title), file=out)
    print("(full suite: pytest benchmarks/ --benchmark-only)", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
