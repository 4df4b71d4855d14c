#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload oltp_write --seed 1 --seconds 10 --trace 0

The OCaml program prints the configuration, each metric with its unit,
the correctness gate and, as its last line, one JSON object.  This
wrapper builds it with dune, forwards its output, and checks that the
JSON names exactly the metrics BENCHMARK.json lists for the run's kind.
It exits non-zero, printing no result, when the tree cannot be built.
"""

import argparse
import json
import os
import subprocess
import sys

TARGET = "./perfbench/src/main.exe"
EXE = "./_build/default/perfbench/src/main.exe"
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "storage"))):
        fail("run from the repository root (dune-project and lib/storage not found)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", TARGET],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % TIMEOUT_S)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail("benchmark exited with %d" % run.returncode)

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    expected = [m["name"] for m in spec[kind]]
    if list(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json %s" % kind)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
