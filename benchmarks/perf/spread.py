"""The spread study behind the bounds in ``BENCHMARK.json``::

    python3 -m benchmarks.perf.spread --out benchmarks/perf/results/spread.json

Two studies of ten end-to-end runs per workload, each run with another
seed, workloads interleaved.  Per workload x metric it records every
value, each study's median and spread — the distance between the first
and third quartile as ``statistics.quantiles(values, n=4)`` gives them,
as a share of the median — and the second median over the first.  A
bound is defensible when it is at least three times the widest spread.
For the rescaled durations it records the wall-clock readings of the
same runs as well (``wall_*``), so the two spreads sit side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

from . import load_spec
from .cli import run_in_subprocess
from .compare import relative_spread

RUNS = 10
FIRST_SEEDS = (1000, 2000)


def study(spec: Dict[str, Any], first_seed: int) -> Dict[str, Dict[str, List[float]]]:
    names = [w["name"] for w in spec["workloads"]]
    values: Dict[str, Dict[str, List[float]]] = {
        name: {m["name"]: [] for m in spec["end_to_end"]} for name in names
    }
    for seed in range(first_seed, first_seed + RUNS):
        for name in names:
            run = run_in_subprocess(name, seed, spec["run_seconds"], traced=False)
            if not run["correct"]:
                raise RuntimeError(f"{name} seed {seed}: {run['failed']} of {run['attempted']} operations failed")
            for metric, entry in run["metrics"].items():
                values[name][metric].append(entry["value"])
                if metric in run["wall_clock"]:
                    values[name].setdefault(f"wall_{metric}", []).append(run["wall_clock"][metric])
            print(f"seed {seed} {name}: {run['run_wall_s']:.1f} s", file=sys.stderr, flush=True)
    return values


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf.spread", description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the study to this JSON file")
    args = parser.parse_args(argv)
    spec = load_spec()
    a, b = (study(spec, first_seed) for first_seed in FIRST_SEEDS)
    report: Dict[str, Any] = {
        "command": "python3 -m benchmarks.perf.spread",
        "seeds": [[first, first + RUNS - 1] for first in FIRST_SEEDS],
        "seconds": spec["run_seconds"],
        "workloads": {},
    }
    worst = 0.0
    print(f"{'workload':20s} {'metric':18s} {'median A':>12s} {'spread A':>9s} {'median B':>12s} {'spread B':>9s} "
          f"{'B/A':>7s} {'bound':>6s}  wall-clock spread A, B")
    for name in a:
        report["workloads"][name] = {}
        for metric in spec["end_to_end"]:
            va, vb = a[name][metric["name"]], b[name][metric["name"]]
            row = {
                "unit": metric["unit"],
                "bound": metric["bound"],
                "values_A": va,
                "values_B": vb,
                "median_A": statistics.median(va),
                "spread_A": relative_spread(va),
                "median_B": statistics.median(vb),
                "spread_B": relative_spread(vb),
            }
            row["B_over_A"] = row["median_B"] / row["median_A"]
            wall = ""
            if f"wall_{metric['name']}" in a[name]:
                wa, wb = a[name][f"wall_{metric['name']}"], b[name][f"wall_{metric['name']}"]
                row.update(wall_values_A=wa, wall_values_B=wb,
                           wall_spread_A=relative_spread(wa), wall_spread_B=relative_spread(wb))
                wall = f"  {row['wall_spread_A']:.4f}, {row['wall_spread_B']:.4f}"
            report["workloads"][name][metric["name"]] = row
            worst = max(worst, max(row["spread_A"], row["spread_B"]) / metric["bound"])
            print(f"{name:20s} {metric['name']:18s} {row['median_A']:12.4f} {row['spread_A']:9.4f} "
                  f"{row['median_B']:12.4f} {row['spread_B']:9.4f} {row['B_over_A']:7.3f} {metric['bound']:6.2f}{wall}")
    print(f"\nwidest spread is {worst:.2f} of its bound")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
