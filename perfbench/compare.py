#!/usr/bin/env python3
"""Compare two sets of perfbench runs, parent and change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds run records, one per line: the JSON a run appends with
--record FILE, or its "record: {...}" stdout line (a saved stdout log
works as is). Untraced records are compared on the end-to-end metrics,
traced records on the per-layer ones. For each workload and metric
the report gives each side's median and quartiles, the paired win
count (runs paired by seed, ties counting for neither side but for the
number of pairs), and a verdict against the metric's bound from
BENCHMARK.json:

  regression  the change's median is worse than the parent's by more
              than the bound
  unresolved  the parent's own spread (quartile distance over median)
              is wider than the bound, so the data cannot tell
  better in every run
              as unresolved, except that every change run reads better
              than every parent run
  improved    at least ten pairs, the change won at least nine tenths of
              them, its median moved by more than the parent's spread,
              and no more of its operations failed than the parent's
  within      none of the above

Each record names the metrics it is compared on and their directions;
metrics without a bound (per-layer and report-only ones) get no verdict.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10


def load(path):
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("record: "):
                line = line[len("record: "):]
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if "stamp" in rec:
                records.append(rec)
    return records


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def by_workload(records, traced):
    out = {}
    for r in records:
        if r["stamp"]["traced"] == traced:
            out.setdefault(r["stamp"]["workload"], []).append(r)
    return out


def compare(parent, change, bench, traced):
    listed = [d["name"] for d in bench["end_to_end"] + bench["per_layer"]]
    bounds = {d["name"]: d["bound"] for d in bench["end_to_end"]}
    p_runs, c_runs = by_workload(parent, traced), by_workload(change, traced)
    regressions = 0
    for w in sorted(set(p_runs) & set(c_runs)):
        ps, cs = p_runs[w], c_runs[w]
        p_failed, c_failed = sum(r["failed"] for r in ps), sum(r["failed"] for r in cs)
        print(f"\n{w} ({'traced' if traced else 'untraced'}): {len(ps)} parent runs ({p_failed} failed operations), "
              f"{len(cs)} change runs ({c_failed} failed operations)")
        print(f"  {'metric':<40} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'wins':>7}  verdict")
        better = {}
        for r in ps + cs:
            better.update(r.get("better", {}))
        names = [n for n in listed if n in better] + sorted(set(better) - set(listed))
        p_seed = {r["stamp"]["seed"]: r for r in ps}
        for name in names:
            pv = [r["metrics"][name] for r in ps if name in r["metrics"]]
            cv = [r["metrics"][name] for r in cs if name in r["metrics"]]
            if not pv or not cv:
                continue
            sign = 1 if better[name] == "higher" else -1
            wins = pairs = 0
            for r in cs:
                p = p_seed.get(r["stamp"]["seed"])
                if p is None or name not in p["metrics"] or name not in r["metrics"]:
                    continue
                pairs += 1
                wins += sign * (r["metrics"][name] - p["metrics"][name]) > 0
            pq, cq = quartiles(pv), quartiles(cv)
            verdict = ""
            bound = bounds.get(name)
            if bound is not None and pq[1] != 0:
                spread = (pq[2] - pq[0]) / abs(pq[1])
                worse = -sign * (cq[1] - pq[1]) / abs(pq[1])
                if worse > bound:
                    verdict = f"REGRESSION ({worse:+.1%} worse, bound {bound:.0%})"
                    regressions += 1
                elif spread > bound:
                    if min(sign * v for v in cv) > max(sign * v for v in pv):
                        verdict = f"better in every run ({-worse:+.1%}; parent spread {spread:.1%} > bound {bound:.0%})"
                    else:
                        verdict = f"unresolved (parent spread {spread:.1%} > bound {bound:.0%})"
                elif pairs >= MIN_PAIRS and wins >= 0.9 * pairs and -worse > spread and c_failed <= p_failed:
                    verdict = f"improved ({-worse:+.1%})"
                else:
                    verdict = f"within ({-worse:+.1%}, spread {spread:.1%})"
            print(f"  {name:<40} {pq[1]:>12.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(77)
                  + f"{cq[1]:>12.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(35)
                  + f"{wins:>3}/{pairs:<3}  {verdict}")
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    parent, change = load(args.parent), load(args.change)
    regressions = compare(parent, change, bench, traced=False)
    compare(parent, change, bench, traced=True)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
