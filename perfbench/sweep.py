#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records a result set.

    python3 perfbench/sweep.py --out results.jsonl [--workloads a,b]
                               [--seeds 1-10] [--trace 0|1]

Each run is one call of run.py with BENCHMARK.json's run_seconds; every
result line is appended to --out as {"workload", "seed", "trace",
"result"}. Workloads alternate run by run (seed-major order), so slow
drift of the machine lands on every workload alike. compare.py reads the
result sets.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    failures = 0
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            with open(args.out, "a") as out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace,
                                      "result": result}) + "\n")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}"
                for k, v in sorted(result["metrics"].items())), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
