#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Builds the driver, then:
  1. runs every workload of BENCHMARK.json at a tiny size, untraced and
     traced, and asserts that each run is correct, prints exactly the
     end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json
     names, each with its declared unit, and that the traced run's
     fingerprint equals the untraced one's;
  2. feeds a synthetic torture unit that lost an acked write under a
     zero-loss binding through the driver's accounting, and asserts
     that it counts as a failed unit.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def driver(*args):
    proc = subprocess.run([run.DRIVER, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          cwd=run.ROOT, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build()
    errors = []
    fingerprints = {}
    for wl in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            name = wl["name"]
            code, lines = driver("--workload", name, "--size", "tiny",
                                 "--seconds", "1", "--trace", trace)
            where = f"{name} --trace {trace}"
            if code != 0 or not lines:
                errors.append(f"{where}: driver exited with {code}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} "
                              f"attempted={result['attempted']} "
                              f"failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for m in sorted(set(want) - set(got)):
                errors.append(f"{where}: metric {m} missing")
            for m in sorted(set(got) - set(want)):
                errors.append(f"{where}: metric {m} not in BENCHMARK.json")
            for m in sorted(set(want) & set(got)):
                if want[m] != got[m]:
                    errors.append(f"{where}: {m} unit {got[m]}, "
                                  f"declared {want[m]}")
                v = result["metrics"][m]["value"]
                if not isinstance(v, (int, float)):
                    errors.append(f"{where}: {m} value {v!r}")
            fp = [ln for ln in lines if ln.startswith("fingerprint ")]
            if not fp:
                errors.append(f"{where}: no fingerprint line")
                continue
            fingerprints.setdefault(name, set()).add(fp[0].split()[2])
            if trace == "1" and "equals the untraced pass" not in fp[0]:
                errors.append(f"{where}: {fp[0]}")
            print(f"ok   {where}: {len(got)} metrics, "
                  f"{result['attempted']} units")
    for name, fps in fingerprints.items():
        if len(fps) != 1:
            errors.append(f"{name}: fingerprints differ across runs {fps}")

    code, lines = driver("--check-synthetic")
    if code != 0:
        errors.append("synthetic lost-write unit was not counted as failed: "
                      + " | ".join(lines))
    else:
        print("ok   synthetic lost acked write counts as a failed unit")

    code, _ = driver("--workload", "no-such-workload")
    if code == 0:
        errors.append("an unknown workload did not fail")

    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
