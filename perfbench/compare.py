#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records `run.py --record` appends, one per run. Runs of
the two sides are paired by workload and seed, so run the same seeds on both
sides, alternating which side goes first. For every workload and end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles, the
change's median as a ratio of the parent's (the base), the pairs the change
won, and a verdict:

  better      the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  not worse by more than the bound, but the parent's quartile
              spread is wider than the bound and not every change run beat
              every parent run
  unchanged   otherwise

A gain does not count when the change fails more ops than the parent. The
latency figures the harness prints but does not gate (`op_ms_p50`,
`op_ms_tail`) follow, with `better` or `-`: no bound is fixed for them, so
they cannot read as worse or unchanged. It also reports, per workload,
failed ops on each side and whether every
sim_digest of the change equals the parent's digest for the same seed.
"""

import collections
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    runs = collections.defaultdict(list)  # workload -> [record]
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs[rec["workload"]].append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, higher_better, bound):
    sign = 1 if higher_better else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "better", wins
    if bound is None:
        return "-", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    with open(BENCHMARK_JSON) as f:
        metrics = json.load(f)["end_to_end"]
    metrics += [{"name": n, "unit": "ms", "better": "lower", "bound": None}
                for n in ("op_ms_p50", "op_ms_tail")]

    print("%-8s %-17s %-38s %-38s %-7s %-6s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "ratio", "won", "verdict"))
    for workload in sorted(set(parent) | set(change)):
        ps, cs = parent.get(workload, []), change.get(workload, [])
        if not ps or not cs:
            print("%-8s missing on one side" % workload)
            continue
        by_seed = collections.defaultdict(list)
        for r in ps:
            by_seed[r["seed"]].append(r)
        pairs_of = []
        for r in cs:
            if by_seed[r["seed"]]:
                pairs_of.append((by_seed[r["seed"]].pop(0), r))
        pf = sum(r["result"]["failed"] for r in ps)
        cf = sum(r["result"]["failed"] for r in cs)
        for m in metrics:
            name = m["name"]
            def value(rec):
                where = (rec["result"]["metrics"] if m["bound"] is not None
                         else rec.get("printed", {}))
                return where[name]["value"] if name in where else None
            if any(value(r) is None for r in ps + cs):
                continue
            pv = [value(r) for r in ps]
            cv = [value(r) for r in cs]
            pairs = [(value(p), value(c)) for p, c in pairs_of]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            word, wins = verdict(pv, cv, pairs, m["better"] == "higher",
                                 m["bound"])
            if word == "better" and cf > pf:
                word = "not counted: more failed ops"
            print("%-8s %-17s %-38s %-38s %-7s %-6s %s" % (
                workload, name,
                "%.5g [%.5g, %.5g] %s" % (pm, p1, p3, m["unit"]),
                "%.5g [%.5g, %.5g] %s" % (cm, c1, c3, m["unit"]),
                "%.3fx" % (cm / pm) if pm else "n/a",
                "%d/%d" % (wins, len(pairs)), word))
        print("%-8s ratio base: the parent median; runs %d parent, %d change,"
              " %d paired by seed" % (workload, len(ps), len(cs),
                                      len(pairs_of)))
        pa = sum(r["result"]["attempted"] for r in ps)
        ca = sum(r["result"]["attempted"] for r in cs)
        same = all(p["sim_digest"] == c["sim_digest"] for p, c in pairs_of)
        print("%-8s failed ops: parent %d/%d, change %d/%d; sim_digest %s" % (
            workload, pf, pa, cf, ca,
            "identical on every paired seed" if same else "DIFFERS"))


if __name__ == "__main__":
    main()
