#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

Run from the repository root:

    python3 perfbench/spread.py --seeds 10 [--workloads oltp_write,...]

Runs perfbench/run.py once per seed and workload (untraced), then prints
for each end-to-end metric the median of its values and the distance
between their first and third quartiles as a share of that median,
next to the metric's bound from BENCHMARK.json.  A spread at or above a
third of the bound is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.rstrip("\n").split("\n")[-1])
            if not result["correct"]:
                print("%s seed %d: incorrect" % (w, seed))
                ok = False
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print("== %s" % w)
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[m] / 3 else "  <-- over bound/3"
            if m != "setup_s" and spread >= bounds[m] / 3:
                ok = False
            print("  %-22s median %14.4f  spread %6.3f  bound %.2f  min %.6g  max %.6g%s"
                  % (m, med, spread, bounds[m], min(vs), max(vs), flag))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
