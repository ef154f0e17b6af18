#!/usr/bin/env python3
"""Build and run the object-base benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload nav_read --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune (no shared build cache, so nothing is
written outside the checkout), then runs it.  The benchmark's report is
passed through; its last line, the run's JSON result, is reprinted with
exactly the metrics BENCHMARK.json lists: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1.  Build output goes to
standard error.  Scratch state (determinism fingerprints, span dumps,
durable bases) lives under .perfbench/ in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["nav_read", "mixed_rw", "durable_txn", "sharded_rw"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))
            and os.path.isfile("BENCHMARK.json")):
        print("perfbench: not at the root of a source checkout "
              "(dune-project, lib/, perfbench/dune and BENCHMARK.json are required)",
              file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 3

    with open("BENCHMARK.json") as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--state", ".perfbench"],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 4
    result = json.loads(lines[-1])
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 5
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
