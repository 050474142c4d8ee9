#!/usr/bin/env python3
"""Compare two benchmark result files metric by metric, per workload.

    python3 perfbench/bench_diff.py BASE.jsonl NEW.jsonl

Each file holds one JSON record per line, as `run.py --out FILE`
appends them. Records are grouped by workload, size and trace mode, so
end-to-end metrics (untraced runs) and per-layer metrics (traced runs)
are compared separately. For every metric the script prints each
side's median, the relative change, and the base's own spread (the
distance between its quartiles as a share of its median). An
end-to-end metric whose median got worse by more than its bound in
BENCHMARK.json is marked REGRESSED; a change smaller than the base's
spread is marked ~ (not resolved). When both files ran the same seeds,
their fingerprints are compared too: a perf change must leave the
simulated output unchanged.

Exits 1 if any end-to-end metric regressed or a fingerprint differs.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    groups = defaultdict(list)
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                key = (rec["workload"], rec.get("trace", 0),
                       rec.get("size", "full"))
                groups[key].append(rec)
    return groups


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, new = load(argv[1]), load(argv[2])
    e2e = bounds()
    bad = False
    for key in sorted(set(base) | set(new)):
        workload, trace, size = key
        a, b = base.get(key, []), new.get(key, [])
        print(f"\n== {workload} ({'per-layer' if trace else 'end-to-end'}, "
              f"{size}; {len(a)} base / {len(b)} new runs)")
        if not a or not b:
            print("   only on one side")
            continue
        fa = {(r["seed"], r.get("fingerprint")) for r in a}
        fb = {(r["seed"], r.get("fingerprint")) for r in b}
        if {s for s, _ in fa} == {s for s, _ in fb} and fa != fb:
            print(f"   FINGERPRINT DIFFERS: {sorted(fa)} -> {sorted(fb)}")
            bad = True
        names = list(a[0]["metrics"])
        names += [n for n in b[0]["metrics"] if n not in names]
        print(f"   {'metric':32s} {'unit':6s} {'base':>14s} {'new':>14s} "
              f"{'change':>8s} {'spread':>7s}")
        for name in names:
            va = [r["metrics"][name]["value"] for r in a
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b
                  if name in r["metrics"]]
            if not va or not vb:
                print(f"   {name:32s} only on one side")
                continue
            unit = (a[0]["metrics"].get(name) or b[0]["metrics"][name])["unit"]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / abs(ma) if ma else 0.0
            sp = spread(va)
            flag = ""
            if name in e2e and not trace:
                sign = 1 if e2e[name]["better"] == "lower" else -1
                if sign * change > e2e[name]["bound"]:
                    flag = "REGRESSED"
                    bad = True
            if not flag and abs(change) <= sp:
                flag = "~"
            print(f"   {name:32s} {unit:6s} {ma:14.6g} {mb:14.6g} "
                  f"{change:+8.1%} {sp:7.1%} {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
