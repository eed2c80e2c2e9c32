#!/usr/bin/env python3
"""Builds the program from source and runs one benchmark workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

`--seconds` defaults to `run_seconds` of BENCHMARK.json and `--seed` to 42.
Run it from the root of a checkout. It builds `geoplace-serve` (root
workspace) and the `perfbench` binary (its own workspace in this
directory) with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the workload.
Build output goes to standard error; the workload's standard output
passes through, so its last line is the JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, env):
    """Runs one cargo build; returns its exit code."""
    return subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    ).returncode


def main():
    for needed in ("BENCHMARK.json", "Cargo.toml", "Cargo.lock", "crates/bench/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if build(["--bin", "geoplace-serve"], env) != 0:
        return 1
    if build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env) != 0:
        return 1

    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(release, "geoplace-serve"),
        "--work-dir", work,
    ]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
