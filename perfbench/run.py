#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is built (Release) under .bench_build/ in the checkout the first
time, then rebuilt incrementally.  The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics; a layer the workload does not run reports 0.

Every run also writes .bench_build/results/<workload>-seed<n>-trace<t>.json
with the diagnostics, failure messages and the host/build fingerprint, and
the traced run writes its spans next to it (<workload>-seed<n>.spans.json).
perfbench/compare.py compares two such files.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("md_dhfr", "estimate_dhfr512", "service_sweep")
# Per-layer metric prefixes each workload measures; the others report 0.
LAYER_OWNERS = {
    "md_dhfr": ("md.", "fft.", "trace."),
    "estimate_dhfr512": ("core.", "model.", "trace."),
    "service_sweep": ("svc.", "trace."),
}
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "machine.h")):
        die("repository sources (src/) not found next to perfbench/")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    steps.append([os.path.join(BUILD_DIR, "perfbench_selftest")])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            die("'%s' failed with code %d" % (" ".join(cmd), r.returncode))
    return os.path.join(BUILD_DIR, "anton_perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds (src/, perfbench/, the
    top-level CMakeLists.txt), in path order."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files) if not f.endswith(".pyc")]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    # Only this checkout's own history counts, not that of a directory above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def select_metrics(workload, trace, measured):
    """The declared metrics of this mode, in declaration order."""
    out = {}
    for m in declared_metrics(trace):
        name = m["name"]
        if name in measured:
            value = measured[name]["value"]
            if value is None:
                die("%s: metric %s is not finite" % (workload, name), 1)
            out[name] = {"value": value, "unit": m["unit"]}
        elif trace and not name.startswith(LAYER_OWNERS[workload]):
            out[name] = {"value": 0, "unit": m["unit"]}
        else:
            die("%s: metric %s was not measured" % (workload, name), 1)
    extra = sorted(set(measured) - set(out))
    if extra:
        die("%s: undeclared metrics %s" % (workload, ", ".join(extra)), 1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        die("--seconds must be positive")

    binary = build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, "%s-seed%d" % (args.workload, args.seed))
    spans = stem + ".spans.json"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), 1)
    if r.returncode != 0:
        die("%s exited with code %d" % (args.workload, r.returncode), 1)
    lines = r.stdout.strip().splitlines()
    if not lines:
        die("%s printed no result" % args.workload, 1)
    raw = json.loads(lines[-1])

    metrics = select_metrics(args.workload, args.trace, raw["metrics"])
    fingerprint = dict(raw["fingerprint"])
    fingerprint.update(nproc=os.cpu_count(), cpu=cpu_model(),
                       git_revision=git_revision(), source_digest=source_digest())
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, errors=raw["errors"],
                  diagnostics=raw["diagnostics"], fingerprint=fingerprint,
                  spans=os.path.relpath(spans, ROOT) if args.trace else None)
    out_path = "%s-trace%d.json" % (stem, args.trace)
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for e in raw["errors"]:
        print("perfbench: failed operation: " + e, file=sys.stderr)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print("result file " + os.path.relpath(out_path, ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
