#!/usr/bin/env python3
"""Applies BENCHMARK.json's bounds to benchmark result sets.

    python3 perfbench/compare.py SET.jsonl           # run-to-run spread
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

Result sets are the JSONL files sweep.py writes (untraced runs only).
Spread is the distance between the first and third quartile as a share of
the median (statistics.quantiles(values, n=4)). One row per workload, one
column per end-to-end metric:

  one set:  the median and its spread; "!" marks a spread above a third of
            the bound, "unresolved" a spread above the bound.
  two sets: NEW's median change against BASE's, signed so that positive is
            worse. "REGRESSED" when it is worse by more than the bound;
            "unresolved" when either set spreads wider than the bound,
            unless every NEW run beats every BASE run. Exits 1 on any
            regression.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{workload: {metric: [values]}} over the untraced runs of a set."""
    out = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace", 0):
                continue
            for name, m in rec["result"]["metrics"].items():
                out[rec["workload"]][name].append(m["value"])
    return out


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def cell_one(values, bound):
    med = statistics.median(values)
    s = spread(values)
    flag = " unresolved" if s > bound else (" !" if s > bound / 3 else "")
    return f"{med:.4g} ({100 * s:.1f}%){flag}"


def cell_two(base, new, metric):
    bound, lower = metric["bound"], metric["better"] == "lower"
    mb, mn = statistics.median(base), statistics.median(new)
    worse = (mn - mb) / abs(mb) if mb else 0.0
    if not lower:
        worse = -worse
    if max(spread(base), spread(new)) > bound:
        beats = (max(new) < min(base)) if lower else (min(new) > max(base))
        return ("better (every run)" if beats else "unresolved"), False
    if worse > bound:
        return f"REGRESSED {100 * worse:+.1f}%", True
    return f"{100 * worse:+.1f}%", False


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    sets = [load(p) for p in argv[1:]]
    workloads = [w["name"] for w in bench["workloads"]]
    header = ["workload"] + [m["name"] for m in metrics]
    rows = [header]
    regressed = False
    for w in workloads:
        if any(w not in s for s in sets):
            rows.append([w] + ["missing"] * len(metrics))
            continue
        row = [w]
        for m in metrics:
            vals = [s[w].get(m["name"], []) for s in sets]
            if not all(vals):
                row.append("missing")
            elif len(sets) == 1:
                row.append(cell_one(vals[0], m["bound"]))
            else:
                text, bad = cell_two(vals[0], vals[1], m)
                regressed |= bad
                row.append(text)
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip())
    if len(sets) == 2:
        print("bounds: " + ", ".join(f"{m['name']} {m['bound']:.0%}"
                                     for m in metrics))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
