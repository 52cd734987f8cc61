#!/usr/bin/env python3
"""Compares benchmark result files from two builds.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by perfbench/run.py
(.bench_build/results/<workload>-seed<n>-trace<t>.json) or directories of
them.  Files are grouped by workload and mode (untraced/traced); for each
metric the median over a group's runs is compared, with the direction taken
from BENCHMARK.json.

Results compare only when their host and build fingerprints match: thread
count, CPU model, SIMD backend, build type, compiler and the ANTON_DES_SHARDS
/ ANTON_PERF / ANTON_SWEEP_THREADS overrides.  The git revision and source
digest may differ (that is what is being compared).  A group whose
fingerprints do not match is reported as NOT COMPARABLE and the exit code
is 3.
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("threads", "nproc", "cpu", "simd", "build_type", "compiler",
             "ANTON_DES_SHARDS", "ANTON_PERF", "ANTON_SWEEP_THREADS")


def load(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json") and not f.endswith(".spans.json")]
             if os.path.isdir(path) else [path])
    groups = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def host(rec):
    return {k: rec["fingerprint"].get(k) for k in HOST_KEYS}


def directions():
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    better = directions()
    status = 0
    for key in sorted(set(base) & set(new)):
        a, b = base[key], new[key]
        print("== %s (%s), %d vs %d runs" % (key[0], "traced" if key[1] else "untraced",
                                            len(a), len(b)))
        hosts = {json.dumps(host(r), sort_keys=True) for r in a + b}
        if len(hosts) > 1:
            print("   NOT COMPARABLE: host/build fingerprints differ:")
            for h in sorted(hosts):
                print("     " + h)
            status = 3
            continue
        failed = sum(r["failed"] for r in b)
        if failed:
            print("   new side: %d failed operations" % failed)
        for name in a[0]["metrics"]:
            va = statistics.median(r["metrics"][name]["value"] for r in a)
            vb = statistics.median(r["metrics"][name]["value"] for r in b)
            if va == 0 and vb == 0:
                continue
            ratio = vb / va if va else float("inf")
            sign = ""
            if va != vb and name in better:
                improved = (vb < va) == (better[name] == "lower")
                sign = "better" if improved else "worse"
            print("   %-24s %14.6g -> %-14.6g x%-8.4f %s" % (name, va, vb, ratio, sign))
    only = sorted(set(base) ^ set(new))
    for key in only:
        print("== %s (%s): present on one side only" % (key[0], "traced" if key[1] else "untraced"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
