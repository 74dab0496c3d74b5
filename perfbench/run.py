#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt compiles the library from src/ with
-O3 -DNDEBUG) into the build directory, $CARGO_TARGET_DIR or .bench_build;
later calls only rebuild what changed. Build output goes to stderr. The
benchmark prints every metric it defines; the last line of stdout is its
JSON result restricted to the metrics BENCHMARK.json lists for the mode
(end_to_end, or per_layer with --trace 1). The exit code is the
benchmark's: nonzero when the build fails, an operation fails, a listed
metric is missing, or a delivered value differs bitwise from the
engine-direct reference.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("archived_replay", "realtime_wire", "churn_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns its code."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"timed out after {timeout}s: {' '.join(cmd)}", file=sys.stderr)
        return 124


def run_benchmark(cmd, root, env, listed):
    """Runs the benchmark, echoing its output with the result line cut down
    to the `listed` metrics. Returns the exit code."""
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"timed out after {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 124
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        print("benchmark printed no result", file=sys.stderr)
        return proc.returncode or 1
    missing = [m for m in listed if m not in result["metrics"]]
    if missing:
        print(f"metrics missing from the result: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {m: result["metrics"][m] for m in listed}
    print(json.dumps(result), flush=True)
    return proc.returncode


def build(root, build_dir):
    if shutil.which("cmake") is None:
        print("cmake not found", file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            # Leave no half-configured tree behind for the next call.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "lahar_perfbench",
           "-j", jobs]
    return run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(root, build_dir):
        print("benchmark build failed", file=sys.stderr)
        return 1
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = [m["name"] for m in
              bench["per_layer" if args.trace else "end_to_end"]]
    binary = os.path.join(build_dir, "lahar_perfbench")
    env = dict(os.environ, PERFBENCH_TRACE_DIR=build_dir)
    return run_benchmark(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        root, env, listed)


if __name__ == "__main__":
    sys.exit(main())
