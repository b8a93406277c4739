"""Command line of the benchmark: one run, the full run-set, or ``--compare``.

One run (what the driver calls; the last line of stdout is the result)::

    python -m benchmarks.perf --workload tree_sim --seed 7 --seconds 10 --trace 0

With no ``--workload`` the command runs every workload ``ROUNDS`` times,
interleaved (W1..W6, W1..W6, ...) because the noise of a shared box
varies slowly, then the traced run: the workload-independent layer
probes once and one traced pass per workload.  Each run is a fresh
subprocess, so memory, set-up and leaks cannot bleed from one workload
into the next.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from . import ROOT, load_spec
from .compare import compare_files, median_of
from .machine import adopt_orphans, end_all_children

#: Interleaved rounds of the full run-set; the reported value is the median.
ROUNDS = 3
#: A single run must end well inside the driver's 180 s limit.
WATCHDOG_S = 150.0
RUN_TIMEOUT_S = 170.0
#: Cold starts measured per run beyond the run's own (``setup_s`` is their median).
SETUP_PROBES = 4


def _start_watchdog() -> None:
    """Kill every process the run started and exit if the run hangs."""

    def expire() -> None:
        sys.stderr.write(f"benchmarks.perf: watchdog fired after {WATCHDOG_S:.0f} s\n")
        end_all_children(grace_s=0.0)
        os._exit(124)

    timer = threading.Timer(WATCHDOG_S, expire)
    timer.daemon = True
    timer.start()


def _self_command(*args: str) -> List[str]:
    return [sys.executable, "-m", "benchmarks.perf", *args]


def _with_units(values: Dict[str, float], declared: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Each value with the unit ``BENCHMARK.json`` declares for it."""
    units = {m["name"]: m["unit"] for m in declared}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def _part(*args: str) -> List[str]:
    """Stdout lines of a subprocess of this command."""
    done = subprocess.run(
        _self_command(*args), cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)}: exited with {done.returncode}\n{done.stderr}")
    return done.stdout.strip().splitlines()


def run_setup_part(name: str, seed: int, process_start: float) -> int:
    """One more cold start of the workload, in a process of its own."""
    from .workloads import WORKLOADS, cold_start

    cluster, client, setup_wall_s = cold_start(WORKLOADS[name], seed, process_start)
    cluster.close()
    if client.failed:
        return 1
    print(json.dumps([setup_wall_s, client.clock.speed]))
    return 0


def run_probes_part(spec: Dict[str, Any]) -> int:
    from .layers import layer_metrics

    print(json.dumps(_with_units(layer_metrics(), spec["per_layer"])))
    return 0


def run_one(
    spec: Dict[str, Any], name: str, seed: int, seconds: float, traced: bool, with_probes: bool, process_start: float
) -> int:
    """One run of one workload; prints the driver's result line.

    A leak of threads or site processes, like a failed operation or an
    oracle that disagrees with the engine, makes the run incorrect.
    """
    from .workloads import WORKLOADS, run_workload

    measurement = run_workload(WORKLOADS[name], seed, seconds, process_start, traced)
    if traced:
        values = dict(measurement.observed)
        if with_probes:
            from .layers import layer_metrics

            values.update(layer_metrics())
            missing = {m["name"] for m in spec["per_layer"]} - set(values)
            if missing:
                raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
        metrics = _with_units(values, spec["per_layer"])
    else:
        walls, rescaled = [measurement.raw["setup_s"]], [measurement.end_to_end["setup_s"]]
        for _ in range(SETUP_PROBES):
            wall_s, speed = json.loads(_part("--workload", name, "--seed", str(seed), "--part", "setup")[-1])
            walls.append(wall_s)
            rescaled.append(wall_s * speed)
        measurement.raw["setup_s"] = statistics.median(walls)
        measurement.end_to_end["setup_s"] = statistics.median(rescaled)
        metrics = _with_units(measurement.end_to_end, spec["end_to_end"])
        # The wall-clock readings behind the rescaled metrics, for checking one against the other.
        print(json.dumps({"wall_clock": measurement.raw}))
    for leak in ("bench.leaked_children", "bench.leaked_threads"):
        if measurement.observed[leak]:
            sys.stderr.write(f"benchmarks.perf: {leak} = {measurement.observed[leak]}\n")
    print(json.dumps({
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }))
    return 0


# -- the full run-set ----------------------------------------------------------------


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_in_subprocess(name: str, seed: int, seconds: int, traced: bool) -> Dict[str, Any]:
    """An end-to-end run as the driver makes it, or the workload's traced
    pass without the layer probes (the run-set takes those once)."""
    started = time.perf_counter()
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    lines = _part(*args, *(("--trace", "1", "--part", "observed") if traced else ("--trace", "0")))
    result = json.loads(lines[-1])
    if not traced:
        result.update(json.loads(lines[-2]))
    result["run_wall_s"] = time.perf_counter() - started
    return result


def _print_metrics(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for metric, entry in metrics.items():
        print(f"  {metric:42s} {entry['value']:>14.4f} {entry['unit']}")


def run_all(spec: Dict[str, Any], seed: int, seconds: int, layers_only: bool, out: Optional[str]) -> int:
    names = [w["name"] for w in spec["workloads"]]
    results: Dict[str, Any] = {
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _git_commit(),
            "seed": seed,
            "rounds": 0 if layers_only else ROUNDS,
            "seconds": seconds,
        },
        "runs": {name: [] for name in names},
        "layers": {},
        "probes": {},
    }
    bad = 0
    for round_no in range(results["env"]["rounds"]):
        for name in names:  # interleaved: one pass over every workload per round
            run = run_in_subprocess(name, seed, seconds, traced=False)
            results["runs"][name].append(run)
            bad += not run["correct"]
            print(f"round {round_no + 1} {name}: {run['run_wall_s']:.1f} s, "
                  f"{run['attempted']} operations, {run['failed']} failed", flush=True)
    started = time.perf_counter()
    results["probes"] = json.loads(_part("--part", "probes")[-1])
    print(f"layer probes: {time.perf_counter() - started:.1f} s", flush=True)
    for name in names:
        run = run_in_subprocess(name, seed, seconds, traced=True)
        results["layers"][name] = run
        bad += not run["correct"]
        print(f"traced {name}: {run['run_wall_s']:.1f} s, {run['failed']} failed", flush=True)

    for name in names:
        runs = results["runs"][name]
        if runs:
            medians = {
                m["name"]: {"value": median_of(runs, m["name"]), "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            _print_metrics(f"\n{name} — median of {len(runs)} rounds, "
                           f"failed_share {failed / attempted:.6f}", medians)
        _print_metrics(f"{name} — traced run", results["layers"][name]["metrics"])
    _print_metrics("\nlayer probes (traced run, the same for every workload)", results["probes"])
    if out:
        with open(out, "w") as handle:
            json.dump(results, handle, indent=1)
            handle.write("\n")
    if bad:
        print(f"\n{bad} run(s) reported failures, a wrong oracle or leaks")
    return 1 if bad else 0


def main(process_start: float, argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"], help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics) of --workload")
    parser.add_argument("--layers", action="store_true", help="full run-set: only the traced runs")
    parser.add_argument("--out", help="full run-set: write every run's result to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files against the bounds in BENCHMARK.json")
    # Sub-runs this command makes of itself: one more cold start of
    # --workload, its traced pass without the layer probes, the probes alone.
    parser.add_argument("--part", choices=("setup", "observed", "probes"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    adopt_orphans()
    try:
        return _dispatch(args, spec, process_start)
    finally:
        # However the command ends, no process it started outlives it.
        end_all_children()


def _dispatch(args: argparse.Namespace, spec: Dict[str, Any], process_start: float) -> int:
    if args.compare:
        return compare_files(args.compare[0], args.compare[1], spec)
    if args.part == "probes":
        _start_watchdog()
        return run_probes_part(spec)
    if args.workload:
        _start_watchdog()
        if args.part == "setup":
            return run_setup_part(args.workload, args.seed, process_start)
        return run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace),
                       args.part != "observed", process_start)
    return run_all(spec, args.seed, args.seconds, args.layers, args.out)
