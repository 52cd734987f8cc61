#!/usr/bin/env python3
"""Kernel floors on the bench-smoke results of a native and a scalar tree.

    python3 tools/bench_gates.py NATIVE_DIR SCALAR_DIR

Both directories are build trees in which the bench-smoke target has run
(BENCH_f6.json ... BENCH_f9.json); SCALAR_DIR is configured with
-DANTON_SIMD=scalar.  Every floor compares current code with current code:

  pair kernel   BM_PairKernelSimd, scalar tree / native tree   >= PAIR_FLOOR
  long range    f7.longrange.serial_ms, scalar / native        >= GSE_FLOOR
  table eval    BM_TableEvalScalar / BM_TableEvalSimd (native) >= 2
  service       f9.speedup (vs uncached serial estimate())     >= 5

The first three apply only when the native tree has the AVX2 backend.  Times
are minima over each bench's repetitions.  The script also checks the pair
rate counter and the f8/f9 bitwise-match flags.  Exit 0 when every check
holds, 1 otherwise.  The floors' calibration is recorded in CHANGES.md.
"""

import json
import os
import sys

PAIR_FLOOR = 10.4
GSE_FLOOR = 1.3


def load(tree, name):
    with open(os.path.join(tree, "BENCH_%s.json" % name)) as f:
        return json.load(f)


def gbench_fastest(doc):
    """Fastest repetition of each google-benchmark entry, by real time."""
    fastest = {}
    for b in doc["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"].split("/")[0]
        if name not in fastest or b["real_time"] < fastest[name]["real_time"]:
            fastest[name] = b
    return fastest


def gauges(doc, prefix):
    assert doc.get("schema") == "anton.metrics.v1", doc.get("schema")
    return {k[len(prefix) + 1:]: v["value"] for k, v in doc["metrics"].items()
            if k.startswith(prefix + ".")}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    native, scalar = argv[1], argv[2]
    failures = []

    def gate(label, value, floor):
        ok = value >= floor
        print("%-34s %8.2f  (floor %g)  %s" % (label, value, floor,
                                               "ok" if ok else "FAIL"))
        if not ok:
            failures.append(label)

    def require(label, ok):
        print("%-34s %s" % (label, "ok" if ok else "FAIL"))
        if not ok:
            failures.append(label)

    f6 = gbench_fastest(load(native, "f6"))
    f6_scalar = gbench_fastest(load(scalar, "f6"))
    simd = f6["BM_PairKernelSimd"]
    # pairs/s must be the per-iteration pair count over per-iteration time.
    assert simd["time_unit"] == "ms", simd["time_unit"]
    rate = simd["pairs/s"] / (simd["pairs"] / (simd["real_time"] * 1e-3))
    require("pair rate counter (%.3f x pairs/time)" % rate, abs(rate - 1) <= 0.05)
    require("scalar tree built with ANTON_SIMD=scalar",
            f6_scalar["BM_PairKernelSimd"]["simd_avx2"] == 0)

    f7 = gauges(load(native, "f7"), "f7")
    f7_scalar = gauges(load(scalar, "f7"), "f7")
    if simd["simd_avx2"]:
        gate("pair kernel, scalar / native",
             f6_scalar["BM_PairKernelSimd"]["real_time"] / simd["real_time"],
             PAIR_FLOOR)
        gate("GSE serial, scalar / native",
             f7_scalar["longrange.serial_ms"] / f7["longrange.serial_ms"],
             GSE_FLOOR)
        gate("table eval, operator() / batch",
             f6["BM_TableEvalScalar"]["real_time"] /
             f6["BM_TableEvalSimd"]["real_time"], 2.0)
    else:
        print("native tree has the scalar SIMD backend: SIMD floors skipped")

    f8 = gauges(load(native, "f8"), "f8")
    require("f8 threaded sweep == serial", f8["sweep.match"] == 1)

    f9 = gauges(load(native, "f9"), "f9")
    gate("service vs uncached serial", f9["speedup"], 5.0)
    require("f9 cache hit == recompute", f9["verify.match"] == 1)
    require("f9 nothing shed", f9["shed"] == 0)

    if failures:
        print("bench gates FAILED: " + ", ".join(failures), file=sys.stderr)
        return 1
    print("bench gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
