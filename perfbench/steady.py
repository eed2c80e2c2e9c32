#!/usr/bin/env python3
"""Steadiness and determinism check of the benchmark.

    python3 perfbench/steady.py

Runs `run.py` on every workload of BENCHMARK.json with seeds 1-10 and
`--seconds` set to its `run_seconds`, then:

* reports, per end-to-end metric, the spread between the first and third
  quartile of its values (`statistics.quantiles(values, n=4)`) as a share
  of their median, next to the metric's bound from BENCHMARK.json;
* runs seed 1 of each workload a second time and requires the two
  fingerprint lines (digests, per-slot state hashes, `sim_*` values,
  `snapshot_bytes`) to be identical.

Exits 1 when a run is incorrect or fails an operation, when two runs of
one seed disagree, or when a spread exceeds its bound. Run it from the
root of a checkout.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run(workload, seed, seconds):
    """One run; returns (fingerprint line, result object)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}, output {lines[-2:]}")
    return lines[-2], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        fingerprints = {}
        for seed in SEEDS:
            fingerprint, result = run(workload, seed, seconds)
            fingerprints[seed] = fingerprint
            share = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} ({share:.4f})",
                  flush=True)
            ok &= result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        first = SEEDS[0]
        again, _ = run(workload, first, seconds)
        same = again == fingerprints[first]
        print(f"{workload}: second run of seed {first} "
              f"{'matches' if same else 'DIFFERS from'} the first")
        ok &= same
        print(f"{'metric':<22}{'median':>16}{'spread':>10}{'bound':>8}{'bound/3':>9}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            ok &= spread <= bound
            print(f"{name:<22}{med:>16.6g}{spread:>10.4f}{bound:>8.2f}{bound / 3:>9.4f}{flag}")
            print("    " + " ".join(f"{v:.6g}" for v in vals))
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
