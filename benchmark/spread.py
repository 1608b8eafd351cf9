#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs BENCHMARK.json's command N times per workload, each time with another
--seed, and prints for each workload x metric the median and the distance
between the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median, next to the metric's bound. A spread should stay below a
third of its bound; above the bound the driver refuses the benchmark.

    python3 benchmark/spread.py [--runs 10] [--workload W] [--first-seed 1]
                                [--bin PATH] [--save FILE]

Run it from the root of the checkout. --bin replaces `cargo run ... --` with
an already built binary (same arguments follow).
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--bin")
    ap.add_argument("--save")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    command = [args.bin] if args.bin else manifest["command"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]

    table = {}
    wide = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            run = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(manifest["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"# {workload} seed {seed} done", file=sys.stderr)
        table[workload] = values
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            mark = "" if spread * 3 <= bounds[name] else (
                "  > bound/3" if spread <= bounds[name] else "  > BOUND")
            if spread > bounds[name] and name != "setup_s":
                wide += 1
            print(f"{workload:<18} {name:<22} median {med:>14.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}{mark}")
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(table, f, indent=1)
    sys.exit(1 if wide else 0)


if __name__ == "__main__":
    main()
