#!/usr/bin/env python3
"""Build elinda-serve and the benchmark harness from source, then run one
workload of the exploration-serving benchmark.

    python3 perfbench/run.py --workload hot-paths --seed 1 --seconds 20 --trace 0

Run it from the repository root. The last line of standard output is the
result as one JSON object; everything else goes to standard error. Builds go
to $CARGO_TARGET_DIR (default .bench_build); the generated dataset is kept
under it, in perfbench-work/, and reused by later runs.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("hot-paths", "cold-walks", "live-updates")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "elinda-server", "--bins"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", os.path.join(release, "elinda-serve"),
        "--load-bin", os.path.join(release, "elinda-load"),
        "--work", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
