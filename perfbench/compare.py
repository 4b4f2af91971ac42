#!/usr/bin/env python3
"""Compare two sets of benchmark results, or summarise one.

A result set is a directory holding <workload>.jsonl: one result line (the
last stdout line of perfbench/run.py) per run.  Collect one with, e.g.:

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload run-suite --seed $s \
          --seconds 25 --trace 0 | tail -n 1 >> base/run-suite.jsonl
    done

    python3 perfbench/compare.py base            # medians and spreads
    python3 perfbench/compare.py base new        # new against base

Rules (BENCHMARK.json gives each end-to-end metric its bound):
  * code_size, modeled_cycles and dispatches must be identical in every
    run of both sets;
  * the spread of a metric is (Q3 - Q1) / median over its runs;
  * a wall metric whose spread in either set is wider than its bound is
    "unresolved", unless every new run beats every base run;
  * otherwise it regresses when the new median is worse than the base
    median by more than the bound.
Every run must also be correct with no failed operations.  Exits 1 on a
regression, a deterministic mismatch or a failed run; otherwise 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DETERMINISTIC = ("code_size", "modeled_cycles", "dispatches")


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_set(path):
    """{workload: [result, ...]} from <path>/<workload>.jsonl."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".jsonl"):
            with open(os.path.join(path, name)) as f:
                runs[name[:-6]] = [json.loads(l) for l in f if l.strip()]
    return runs


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def summary(vals):
    """(median, spread) with spread = (Q3 - Q1) / median."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def run_problems(workload, results):
    bad = []
    for i, r in enumerate(results):
        if not r["correct"] or r["failed"]:
            bad.append("%s run %d: correct=%s failed=%d/%d" % (
                workload, i + 1, r["correct"], r["failed"], r["attempted"]))
    return bad


def describe(path):
    spec = load_spec()
    problems = []
    print("%-14s %-18s %5s %14s %8s %8s %s" % (
        "workload", "metric", "runs", "median", "spread", "bound", "ok"))
    for workload, results in load_set(path).items():
        problems += run_problems(workload, results)
        for metric in results[0]["metrics"]:
            vals = values(results, metric)
            med, spread = summary(vals)
            bound = spec.get(metric, {}).get("bound")
            if metric in DETERMINISTIC:
                ok = "exact" if len(set(vals)) == 1 else "DRIFT"
            elif bound is None or metric == "setup_s":
                ok = ""
            else:
                ok = "yes" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO NOISY")
            if ok == "DRIFT":
                problems.append("%s %s differs between runs" % (
                    workload, metric))
            print("%-14s %-18s %5d %14.6g %7.2f%% %8s %s" % (
                workload, metric, len(vals), med, 100 * spread,
                "" if bound is None else "%g" % bound, ok))
    return problems


def compare(base_path, new_path):
    spec = load_spec()
    base, new = load_set(base_path), load_set(new_path)
    problems = []
    print("%-14s %-18s %12s %12s %8s %8s %8s  %s" % (
        "workload", "metric", "base", "new", "change", "spread", "bound",
        "verdict"))
    for workload in sorted(set(base) & set(new)):
        a, b = base[workload], new[workload]
        problems += run_problems(workload, a) + run_problems(workload, b)
        for metric in a[0]["metrics"]:
            if metric not in spec:
                continue
            va, vb = values(a, metric), values(b, metric)
            if not vb:
                problems.append("%s %s missing from the new set" % (
                    workload, metric))
                continue
            ma, sa = summary(va)
            mb, sb = summary(vb)
            bound = spec[metric]["bound"]
            lower = spec[metric]["better"] == "lower"
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            if metric in DETERMINISTIC:
                same = len(set(va + vb)) == 1
                verdict = "exact" if same else "MISMATCH"
            elif max(sa, sb) > bound:
                beats = (max(vb) < min(va)) if lower else (min(vb) > max(va))
                verdict = "better" if beats else "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "better" if worse < -bound else "same"
            if verdict in ("MISMATCH", "REGRESSION"):
                problems.append("%s %s: %s" % (workload, metric, verdict))
            print("%-14s %-18s %12.6g %12.6g %+7.2f%% %7.2f%% %8g  %s" % (
                workload, metric, ma, mb, 100 * (mb - ma) / ma,
                100 * max(sa, sb), bound, verdict))
    return problems


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    problems = describe(argv[1]) if len(argv) == 2 else compare(*argv[1:])
    for p in problems:
        print("problem:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
