"""Coalesced site activations cannot be seen.

Inside a drain loop — :meth:`Simulator.run` and ``SimCluster.wait``,
which is built on it — a site runs the ``_continue`` / ``_work`` events
of its next step in place whenever nothing else is due first
(:meth:`Simulator.advance`).  A manual ``while sim.step()`` loop never
coalesces.  Every scenario below runs both ways and must agree on the
answers, each response time to the bit, ``events_fired``, the clock,
every node counter, the wire counters, the stats timeline and the traced
``(kind, site, time)`` sequence.

Scenarios are drawn from a pinned seed: Tree / Chain / Rand05 closures,
two queries in flight from different originators, and any mix of a
``FaultPlan`` with delays, duplicates and drops under the reliable
channel, a crash/recover window, a deadline, the stats sampler, an
attached tracer, batching, and a zero-latency link (equal-timestamp
ties).  CI's ``sim-equivalence`` job replays :func:`differential_cases`
at 50 times tier-1's count.
"""

import random

import pytest

from repro.api import credit_deficit
from repro.cluster import SimCluster
from repro.config import ClusterConfig
from repro.errors import TerminationLost
from repro.faults.plan import FaultPlan
from repro.net.batching import BatchConfig
from repro.tracing import QueryTracer
from repro.workload import WorkloadSpec, build_graph, closure_query, generate_into_cluster

DIFFERENTIAL_SEED = 25
DIFFERENTIAL_EXAMPLES = 24
FEATURES = ("faults", "crash", "deadline", "sampler", "tracer", "batching", "zero_latency")

SPEC = WorkloadSpec(n_objects=90)
GRAPH = build_graph(n=90)


def draw_scenario(rng: random.Random, forced: str = "") -> dict:
    scenario = {
        "shape": rng.choice(("Tree", "Chain", "Rand05")),
        "values": (rng.randint(1, 10), rng.randint(1, 10)),
        "originators": ("site0", rng.choice(("site0", "site1", "site2"))),
        "seed": rng.randrange(1 << 30),
    }
    for feature in FEATURES:
        scenario[feature] = feature == forced or rng.random() < 0.3
    scenario["crash_at"] = rng.uniform(0.0, 0.5)
    scenario["crash_for"] = rng.uniform(0.05, 0.5)
    scenario["deadline_s"] = rng.uniform(0.1, 2.0)
    scenario["max_batch"] = rng.choice((2, 4))
    return scenario


def drive(scenario: dict, coalesce: bool):
    """Run ``scenario`` once; return everything an observer can see."""
    plan = None
    if scenario["faults"] or scenario["crash"]:
        plan = FaultPlan(seed=scenario["seed"])
        if scenario["faults"]:
            plan = FaultPlan(seed=scenario["seed"], drop=0.05, duplicate=0.1, delay_jitter_s=0.01)
        if scenario["crash"]:
            at = scenario["crash_at"]
            plan.crash("site2", at, recover_at=at + scenario["crash_for"])
    config = ClusterConfig(
        fault_plan=plan,
        reliable=scenario["faults"],
        batching=BatchConfig(max_batch=scenario["max_batch"]) if scenario["batching"] else None,
        stats_stream_s=0.05 if scenario["sampler"] else None,
    )
    cluster = SimCluster(3, config=config)
    workload = generate_into_cluster(cluster, SPEC, GRAPH)
    tracer = None
    if scenario["tracer"]:
        tracer = QueryTracer()
        cluster.attach_tracer(tracer)
    if scenario["zero_latency"]:
        cluster.set_link_latency("site0", "site1", 0.0)

    deadline = scenario["deadline_s"] if scenario["deadline"] else None
    qids = [
        cluster.submit(
            closure_query(scenario["shape"], "Rand10p", value), [workload.root],
            originator=origin, deadline_s=deadline,
        )
        for value, origin in zip(scenario["values"], scenario["originators"])
    ]
    answers = []
    for qid in qids:
        try:
            if coalesce:
                outcome = cluster.wait(qid)
            else:
                while cluster.outcome(qid) is None:
                    if not cluster.sim.step():
                        raise TerminationLost(qid)
                outcome = cluster.outcome(qid)
        except TerminationLost:
            answers.append(("lost", credit_deficit(cluster.nodes, qid)))
            continue
        result = outcome.result
        answers.append((
            sorted(result.oid_keys()), result.partial, result.partial_reason,
            outcome.response_time.hex(), outcome.completed_at.hex(),
        ))
    # Drain to idle: run() must stop on exactly the same event.
    if coalesce:
        cluster.run()
    else:
        while cluster.sim.step():
            pass
    network, trace = cluster.network, None
    if tracer is not None:
        trace = [(e.kind, e.site, e.time.hex(), e.qid) for e in tracer.events]
    return {
        "answers": answers,
        "events_fired": cluster.sim.events_fired,
        "now": cluster.sim.now.hex(),
        "stats": cluster.total_stats(),
        "wire": (network.messages_delivered, network.messages_dropped, network.bytes_delivered),
        "timeline": cluster.stats_timeline.samples if cluster.stats_timeline is not None else None,
        "trace": trace,
    }


def check_case(case: int, forced: str = "") -> None:
    scenario = draw_scenario(random.Random(case), forced)
    coalesced, stepped = drive(scenario, coalesce=True), drive(scenario, coalesce=False)
    for key in coalesced:
        assert coalesced[key] == stepped[key], (key, scenario)


def differential_cases(scale: int = 1):
    """The pinned case seeds, ``scale`` times tier-1's count."""
    return [DIFFERENTIAL_SEED * 100_000 + i for i in range(DIFFERENTIAL_EXAMPLES * scale)]


@pytest.mark.parametrize("case", differential_cases())
def test_coalescing_is_invisible(case):
    check_case(case)


@pytest.mark.parametrize("feature", FEATURES)
def test_coalescing_is_invisible_with(feature):
    check_case(DIFFERENTIAL_SEED, forced=feature)


def test_the_drain_loop_does_coalesce():
    """Not vacuous: the same run fires fewer heap entries through ``wait``
    than there are logical events."""
    cluster = SimCluster(3)
    workload = generate_into_cluster(cluster, SPEC, GRAPH)
    popped = 0

    def count(action):
        def counted():
            nonlocal popped
            popped += 1
            action()
        return counted

    schedule = cluster.sim.schedule
    cluster.sim.schedule = lambda delay, action: schedule(delay, count(action))
    cluster.run_query(closure_query("Tree", "Rand10p", 5), [workload.root])
    cluster.run()
    assert cluster.sim.pending == 0
    assert popped * 2 < cluster.sim.events_fired
