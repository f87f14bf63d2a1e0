#!/usr/bin/env python3
"""Build the benchmark program and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload write-heavy --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune (the first run compiles the
libraries), runs the workload, checks that the program reported exactly
the metrics BENCHMARK.json names for the mode (the end-to-end metrics
with --trace 0, the per-layer ones with --trace 1) and prints the
result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

Per-layer metrics of a layer the workload does not exercise (2PC
counts on a single-engine workload, say) are reported as 0.  Exits
non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if not os.path.isfile("dune-project"):
        fail("run from the root of the repository (no dune-project here)")

    # The dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("run failed with exit code %d" % run.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        out = json.loads(lines[-1])
    except ValueError:
        fail("unparsable result line: %r" % lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    got = out["values"]
    unknown = sorted(set(got) - names)
    if unknown:
        fail("metrics not declared in BENCHMARK.json: %s" % ", ".join(unknown))
    missing = sorted(names - set(got))
    if missing and not args.trace:
        fail("end-to-end metrics missing: %s" % ", ".join(missing))
    metrics = {}
    for m in wanted:
        v = got.get(m["name"], 0)
        if v is None:
            fail("metric %s is not a finite number" % m["name"])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
