#!/usr/bin/env python3
"""Build the DDPSim benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload sweep25 --seed 42 --seconds 40 --trace 0

Run it from the repository root. The driver is built with CMake into
.bench_build/perfbench (reused by later runs). The driver's standard
output is passed through; its last line is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 1 the spans
are written as a Chrome trace to .bench_build/traces/. With --out FILE
one JSON record per run (workload, seed, fingerprint, result) is
appended to FILE for bench_diff.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")


def build():
    """Configure (once) and build the driver; exit non-zero on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--out", help="append a JSON record of this run")
    args = ap.parse_args()

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"run.py: driver exited with {proc.returncode}")
    result = json.loads(lines[-1])
    fingerprint = next((ln.split()[2] for ln in lines
                        if ln.startswith("fingerprint ")), None)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": int(args.trace), "size": args.size,
                  "fingerprint": fingerprint, **result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
