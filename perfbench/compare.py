#!/usr/bin/env python3
"""Compares two sets of benchmark runs with the bounds in BENCHMARK.json.

    python3 perfbench/compare.py PARENT_DIR/ CHANGE_DIR/

Each directory holds the result files perfbench/run.py writes (--json), one
per run. For every (workload, end-to-end metric) it prints both sides'
median and quartiles, the share of runs the change wins, and a verdict:

  improved    the change wins at least 9 in 10 pairs and the medians differ
              by more than the parent's own quartile distance;
  unresolved  the parent's quartile distance is wider than the bound and the
              change does not beat every parent run;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

Runs pair by seed when both sides ran the same seeds, else in seed order.
A rise in failed operations per attempted is flagged for each workload.
Exits 1 when anything regressed or failures rose.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{workload: [run, ...]} of untraced runs, sorted by seed."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        run = json.loads(path.read_text())
        if run.get("trace", 0) == 0 and "workload" in run:
            runs.setdefault(run["workload"], []).append(run)
    for group in runs.values():
        group.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a_runs, b_runs):
    a_seeds = [r["seed"] for r in a_runs]
    b_seeds = [r["seed"] for r in b_runs]
    if sorted(a_seeds) == sorted(b_seeds):
        by_seed = {r["seed"]: r for r in b_runs}
        return [(r, by_seed[r["seed"]]) for r in a_runs]
    return list(zip(a_runs, b_runs))


def verdict(metric, a, b, matched):
    """Verdict for one metric; `a`, `b` are values, `matched` value pairs."""
    lower = metric["better"] == "lower"
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    q1a, med_a, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    wins = sum(1 for x, y in matched if better(y, x))
    spread_a = (q3a - q1a) / med_a if med_a else float("inf")
    worse = (med_b - med_a) / med_a if med_a else 0.0
    if not lower:
        worse = -worse
    if wins >= 0.9 * len(matched) and abs(med_b - med_a) > q3a - q1a:
        return "improved", wins, worse
    beats_all = all(better(y, x) for y in b for x in a)
    if spread_a > metric["bound"] and not beats_all:
        return "unresolved", wins, worse
    if worse > metric["bound"]:
        return "regressed", wins, worse
    return "unchanged", wins, worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    spec = json.loads(SPEC.read_text())
    a_all, b_all = load(args.parent), load(args.change)
    bad = False
    print(f"{'workload':<12} {'metric':<16} {'parent q1/med/q3':>26} "
          f"{'change q1/med/q3':>26} {'worse':>7} {'bound':>6} "
          f"{'wins':>6}  verdict")
    for workload in sorted(set(a_all) & set(b_all)):
        a_runs, b_runs = a_all[workload], b_all[workload]
        matched_runs = pairs(a_runs, b_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            matched = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                       for x, y in matched_runs]
            result, wins, worse = verdict(metric, a, b, matched)
            bad |= result == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:<12} {name:<16} "
                  f"{'/'.join(f'{v:.4g}' for v in qa):>26} "
                  f"{'/'.join(f'{v:.4g}' for v in qb):>26} "
                  f"{worse:>+7.1%} {metric['bound']:>6.0%} "
                  f"{wins:>2}/{len(matched):<3}  {result}")
        fail_a = sum(r["failed"] for r in a_runs) / sum(r["attempted"] for r in a_runs)
        fail_b = sum(r["failed"] for r in b_runs) / sum(r["attempted"] for r in b_runs)
        if fail_b > fail_a:
            bad = True
            print(f"{workload:<12} FAILURES ROSE: {fail_a:.4%} -> {fail_b:.4%} "
                  "of attempted operations")
    for workload in sorted(set(a_all) ^ set(b_all)):
        print(f"{workload:<12} only on one side; not compared")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
