"""Smoke test of the benchmark itself (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

A tiny pass over all six workloads and the layer probes: every metric
``BENCHMARK.json`` names is produced, the simulator's counts repeat
exactly, and a wrong oracle is noticed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

from benchmarks.perf import ROOT, load_spec, workloads
from benchmarks.perf.compare import EXACT_COUNTS, verdict
from benchmarks.perf.layers import layer_metrics
from benchmarks.perf.oracle import Oracle
from benchmarks.perf.workloads import WORKLOADS, Measurement, run_workload
from repro.errors import HyperFileError

SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY_SECONDS = 0.3


def tiny_run(name: str, traced: bool = True):
    return run_workload(WORKLOADS[name], seed=11, seconds=TINY_SECONDS, process_start=time.perf_counter(), traced=traced)


def test_definition_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert metric["unit"], metric
    assert set(EXACT_COUNTS) <= set(names)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_clean_and_emits_its_metrics(name):
    measurement = tiny_run(name)
    assert measurement.correct and measurement.failed == 0 and measurement.attempted > 0
    assert set(measurement.end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in measurement.end_to_end.values())
    assert measurement.observed["bench.leaked_children"] == 0
    assert measurement.observed["bench.leaked_threads"] == 0
    assert set(measurement.observed) <= {m["name"] for m in SPEC["per_layer"]}


def test_traced_run_emits_every_per_layer_metric():
    emitted = {**tiny_run("tree_sim").observed, **layer_metrics()}
    assert set(emitted) == {m["name"] for m in SPEC["per_layer"]}


def test_simulator_counts_repeat_exactly():
    first, second = tiny_run("tree_sim").observed, tiny_run("tree_sim").observed
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}


def test_a_corrupted_oracle_is_noticed(monkeypatch):
    class WrongOracle(Oracle):
        def expected(self, value):
            good = super().expected(value)
            return good | {("nowhere", -1)} if value % 2 == 0 else good

    monkeypatch.setattr(workloads, "Oracle", WrongOracle)
    measurement = tiny_run("tree_sim", traced=False)
    assert measurement.failed > 0 and not measurement.correct


def test_a_cluster_that_refuses_every_query_ends_the_run_as_failed():
    workload = WORKLOADS["tree_sim"]
    cluster, client, _setup_s = workloads.cold_start(workload, seed=11, process_start=time.perf_counter())
    try:
        def refuse(query, initial):
            raise HyperFileError("refused")

        cluster.submit = refuse
        started = time.perf_counter()
        client.run_for(TINY_SECONDS)
        assert time.perf_counter() - started < 10 * TINY_SECONDS
        assert client.failed > 0 and client.failed == client.attempted - 1  # all but the cold start's query
    finally:
        cluster.close()


def test_a_leak_makes_the_run_incorrect():
    clean = {"bench.leaked_children": 0, "bench.leaked_threads": 0}
    assert Measurement(5, 0, True, {}, {}, clean).correct
    assert not Measurement(5, 0, True, {}, {}, {**clean, "bench.leaked_threads": 1}).correct
    assert not Measurement(5, 0, True, {}, {}, {**clean, "bench.leaked_children": 1}).correct


def test_command_line_prints_the_result_line():
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--workload", "tree_sim", "--seed", "5", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_command_line_leaves_no_process_behind():
    """Not even a zombie: ``multiprocessing``'s resource tracker outlives
    a process-mode run unless the run ends it (and init may not reap it)."""
    run = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.perf", "--workload", "dense_procs", "--seed", "5", "--seconds", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    out, _ = run.communicate(timeout=120)
    assert run.returncode == 0 and json.loads(out.strip().splitlines()[-1])["correct"]
    in_session = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = open(f"/proc/{entry}/stat").read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == run.pid:  # session id
                in_session.append((entry, fields[0]))
    assert in_session == []


def test_compare_verdicts():
    steady_a, steady_b = [10.0, 10.1, 10.2], [10.3, 10.4, 10.5]
    assert verdict(steady_a, steady_b, lower_is_better=True, bound=0.10) == "ok"
    assert verdict(steady_a, [12.0, 12.1, 12.2], lower_is_better=True, bound=0.10) == "regressed"
    assert verdict(steady_a, [8.0, 8.1, 8.2], lower_is_better=False, bound=0.10) == "regressed"
    noisy = [8.0, 10.0, 13.0]
    assert verdict(noisy, [8.5, 10.5, 12.5], lower_is_better=True, bound=0.10) == "unresolved"
    assert verdict(noisy, [5.0, 6.0, 7.0], lower_is_better=True, bound=0.10) == "ok"
