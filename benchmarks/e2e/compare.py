"""Compare two sets of benchmark runs written by ``run.py --json``.

    python3 benchmarks/e2e/compare.py A.json B.json [--sets]

Prints one row per (workload, end-to-end metric): both medians, the
ratio B/A with its base, the bound from ``BENCHMARK.json``, each side's
quartile spread as a share of its median, and a verdict.

Without ``--sets``, A is the parent and B the change.  A metric whose B
median is worse than A's by more than its bound has ``regressed``; when
A's own spread is wider than the bound the verdict is ``unresolved``
instead, unless every B run reads better than every A run.  With
``--sets`` the two files are two sets of runs of the same code, and each
metric's medians must agree within its bound in either direction (the
benchmark's stability criterion); a miss is ``unresolved``.  Any rise in
a workload's failed ÷ attempted is flagged.  Exits 1 unless every row is
``ok``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> "dict[str, list[dict]]":
    """Timed-run results grouped by workload."""
    with open(path) as fh:
        records = json.load(fh)
    runs: dict[str, list[dict]] = {}
    for rec in records:
        if not rec["trace"]:
            runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def spread(values: "list[float]") -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: "list[float]", b: "list[float]", metric: dict, sets: bool) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    bound = metric["bound"]
    if sets:
        return "ok" if abs(med_b / med_a - 1.0) <= bound else "unresolved"
    lower = metric["better"] == "lower"
    worse = (med_b - med_a if lower else med_a - med_b) / med_a
    if spread(a) > bound:
        all_better = max(b) < min(a) if lower else min(b) > max(a)
        return "ok" if all_better else "unresolved"
    return "regressed" if worse > bound else "ok"


def fail_frac(results: "list[dict]") -> float:
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", help="base runs (the parent, or set 1)")
    p.add_argument("b", help="compared runs (the change, or set 2)")
    p.add_argument("--sets", action="store_true",
                   help="A and B are two sets of runs of the same code")
    args = p.parse_args(argv)
    with open(SPEC) as fh:
        metrics = json.load(fh)["end_to_end"]
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    print(f"{'workload':<11} {'metric':<17} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7}  {'bound':>6} {'A spread':>8} {'B spread':>8}  verdict")
    bad = 0
    for workload in [w for w in runs_a if w in runs_b]:
        ra, rb = runs_a[workload], runs_b[workload]
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in ra]
            b = [r["metrics"][m["name"]]["value"] for r in rb]
            v = verdict(a, b, m, args.sets)
            bad += v != "ok"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:<11} {m['name']:<17} {med_a:>12.5g} {med_b:>12.5g} "
                  f"{med_b / med_a:>7.3f}  {m['bound']:>6.2f} {spread(a):>8.3f} "
                  f"{spread(b):>8.3f}  {v}   (n={len(a)}/{len(b)}, base A, "
                  f"{m['unit']}, {m['better']} is better)")
        fa, fb = fail_frac(ra), fail_frac(rb)
        if fb > fa:
            bad += 1
            print(f"{workload:<11} fail_frac rose from {fa:.4g} to {fb:.4g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
