"""``--compare A.json B.json``: is run-set B within the bounds of run-set A?

For every workload x end-to-end metric: both medians, the ratio B/A with
its base, the bound from ``BENCHMARK.json`` and a verdict.  ``regressed``
means B's median is worse than A's by more than the bound; where the
run-to-run spread (interquartile range over the median, the wider of the
two sides) exceeds the bound and the difference does not, the pairing is
``unresolved`` rather than unchanged — unless every run of B reads better
than every run of A.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence

#: Counts that must repeat exactly between two run-sets of one commit:
#: the simulator is single-threaded and deterministic.
EXACT_COUNTS_WORKLOAD = "tree_sim"
EXACT_COUNTS = (
    "server.objects_per_query",
    "server.work_msgs_per_query",
    "server.result_msgs_per_query",
    "server.bytes_sent_per_query",
    "server.marked_skips_per_query",
    "server.drains_per_query",
)


def _values(runs: Sequence[Dict[str, Any]], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def median_of(runs: Sequence[Dict[str, Any]], metric: str) -> float:
    return statistics.median(_values(runs, metric))


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: Sequence[float], b: Sequence[float], lower_is_better: bool, bound: float) -> str:
    a_med, b_med = statistics.median(a), statistics.median(b)
    worse_by = (b_med / a_med - 1.0) if lower_is_better else (1.0 - b_med / a_med)
    spread = max(relative_spread(a), relative_spread(b))
    if worse_by > bound and (spread <= bound or worse_by > spread):
        return "regressed"
    if spread > bound:
        b_wins = max(b) < min(a) if lower_is_better else min(b) > max(a)
        return "ok" if b_wins else "unresolved"
    return "ok"


def compare_files(a_path: str, b_path: str, spec: Dict[str, Any]) -> int:
    with open(a_path) as handle:
        a = json.load(handle)
    with open(b_path) as handle:
        b = json.load(handle)
    regressed = 0
    print(f"A = {a_path} ({a['env']['commit'][:12]}, {a['env']['rounds']} rounds)  "
          f"B = {b_path} ({b['env']['commit'][:12]}, {b['env']['rounds']} rounds)")
    print(f"{'workload':20s} {'metric':18s} {'A median':>12s} {'B median':>12s} {'B/A':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = a["runs"].get(workload, []), b["runs"].get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:20s} (no runs on one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_vals, b_vals = _values(a_runs, name), _values(b_runs, name)
            a_med, b_med = statistics.median(a_vals), statistics.median(b_vals)
            outcome = verdict(a_vals, b_vals, metric["better"] == "lower", metric["bound"])
            regressed += outcome == "regressed"
            print(f"{workload:20s} {name:18s} {a_med:12.4f} {b_med:12.4f} "
                  f"{b_med / a_med:7.3f} {metric['bound']:6.2f}  {outcome} ({metric['unit']}, base A)")
        failed = sum(run["failed"] for run in b_runs)
        if failed:
            regressed += 1
            print(f"{workload:20s} B has {failed} failed operation(s): regressed")

    a_counts = a["layers"].get(EXACT_COUNTS_WORKLOAD, {}).get("metrics", {})
    b_counts = b["layers"].get(EXACT_COUNTS_WORKLOAD, {}).get("metrics", {})
    for name in (n for n in EXACT_COUNTS if n in a_counts and n in b_counts):
        same = a_counts[name]["value"] == b_counts[name]["value"]
        regressed += not same
        print(f"{EXACT_COUNTS_WORKLOAD:20s} {name:34s} {a_counts[name]['value']!r} vs "
              f"{b_counts[name]['value']!r}  {'identical' if same else 'DIFFERS'}")
    print(f"\n{regressed} regressed")
    return 1 if regressed else 0
