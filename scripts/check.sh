#!/usr/bin/env bash
# Pre-PR gate: default build + full ctest + anton-lint + callgraph + sanitizer
# passes.
#
# Usage:
#   scripts/check.sh                  # everything: build, ctest, lint,
#                                     # callgraph, scalar backend, ASan + UBSan
#   scripts/check.sh --fast           # inner-loop subset: default build,
#                                     # ctest, lint (+ fixtures), callgraph
#                                     # gate; skips the scalar-backend
#                                     # rebuild, force-parity diff, telemetry
#                                     # smoke, bench smoke and all sanitizer
#                                     # trees (minutes -> seconds of rebuild)
#   ANTON_CHECK_SANITIZERS="address undefined thread" scripts/check.sh
#   ANTON_CHECK_SANITIZERS="" scripts/check.sh   # skip sanitizer builds
#
# Each sanitizer preset builds into its own directory (build-<preset>) so the
# instrumented trees never collide with the default build/.  TSan is not in
# the default list because it is an order of magnitude slower; add it via
# ANTON_CHECK_SANITIZERS before merging thread-pool or kernel changes.
# The callgraph gate builds its own tree too (build-cg/, GCC -O0 with
# -fcallgraph-info=su) — see tools/anton_callgraph.py.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "usage: scripts/check.sh [--fast]" >&2; exit 2 ;;
  esac
done

JOBS="${ANTON_CHECK_JOBS:-$(nproc)}"
SANITIZERS="${ANTON_CHECK_SANITIZERS-address undefined}"

step() { printf '\n==> %s\n' "$*"; }

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

step "default build (build/)"
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"

step "ctest (default build)"
ctest --test-dir build --output-on-failure -j"$JOBS"

step "anton-lint (src/ must be clean, fixtures must fail, suppressions hold)"
python3 tools/anton_lint.py src
if python3 tools/anton_lint.py -q tools/lint_fixtures; then
  echo "error: lint fixtures passed — anton_lint.py has rotted into a no-op" >&2
  exit 1
fi
echo "lint fixtures correctly rejected"
python3 tools/anton_lint.py -q tools/lint_fixtures/passing
echo "lint suppression fixtures correctly accepted"

step "callgraph purity gate (build-cg/, -DANTON_CALLGRAPH=ON)"
cmake -B build-cg -S . -DANTON_CALLGRAPH=ON >/dev/null
cmake --build build-cg -j"$JOBS"
ctest --test-dir build-cg --output-on-failure -j"$JOBS" -R 'anton_callgraph'

if [ "$FAST" = 1 ]; then
  step "fast gate passed (scalar backend, telemetry, bench and sanitizer passes skipped)"
  exit 0
fi

step "scalar-backend build (build-scalar/, ANTON_SIMD=scalar)"
cmake -B build-scalar -S . -DANTON_SIMD=scalar >/dev/null
cmake --build build-scalar -j"$JOBS"

step "ctest (scalar backend)"
ctest --test-dir build-scalar --output-on-failure -j"$JOBS"

step "cross-backend force parity (native vs scalar, bitwise)"
./build/examples/force_hash > "$SCRATCH/force_hash_native.txt"
./build-scalar/examples/force_hash > "$SCRATCH/force_hash_scalar.txt"
diff "$SCRATCH/force_hash_native.txt" "$SCRATCH/force_hash_scalar.txt"
echo "force digests byte-identical across SIMD backends:"
grep force_digest "$SCRATCH/force_hash_native.txt"

step "telemetry smoke (trace + metrics round-trip)"
TELEMETRY_TMP="$SCRATCH"
./build/examples/quickstart atoms=1500 nodes=8 steps=4 \
  --trace "$TELEMETRY_TMP/trace.json" \
  --metrics "$TELEMETRY_TMP/metrics.json" >/dev/null
python3 tools/validate_trace.py "$TELEMETRY_TMP/trace.json"
python3 -c "
import json, sys
doc = json.load(open('$TELEMETRY_TMP/metrics.json'))
assert doc.get('schema') == 'anton.metrics.v1', doc.get('schema')
assert doc.get('metrics'), 'metrics snapshot is empty'
print(f\"metrics snapshot OK: {len(doc['metrics'])} metrics\")
"

step "flight-recorder smoke (exit dump must validate as a flight trace)"
ANTON_FLIGHT_EXIT_DUMP=1 ANTON_FLIGHT_PATH="$SCRATCH/flight.json" \
  ./build/examples/quickstart atoms=1500 nodes=8 steps=2 >/dev/null
python3 tools/validate_trace.py --flight "$SCRATCH/flight.json"

step "threaded parity (serial vs threaded kernels, bitwise where promised)"
ctest --test-dir build --output-on-failure -j"$JOBS" \
  -R 'test_md_threaded|test_determinism|test_fft'

step "DES core (zero-allocation steady state + sweep parity)"
ctest --test-dir build --output-on-failure -j"$JOBS" \
  -R 'DesNoAlloc|SweepRunner|EventQueue'

# The estimator service's concurrency claims (exactly-once evaluation,
# coalescing, bounded queue, drain-on-shutdown) are only as good as their
# TSan run, so the svc suite gets a targeted thread-sanitizer pass even
# though full-tree TSan stays opt-in via ANTON_CHECK_SANITIZERS.  The MD
# engine's pooled neighbour-list build and constraint sweeps hand blocks
# and clusters to threads dynamically, so their suites ride along.
step "targeted TSan pass (build-thread/, svc + threaded MD tests)"
cmake -B build-thread -S . -DANTON_SANITIZE=thread -DANTON_SIMD=scalar \
      >/dev/null
cmake --build build-thread \
  --target test_svc test_md_threaded test_md_constraints -j"$JOBS"
ctest --test-dir build-thread --output-on-failure -j"$JOBS" \
  -L sanitize-thread \
  -R 'EstimatorService|ResultCache|CacheKey|Threaded\.|Shake\.|Rattle\.|Constraints\.'

step "service load smoke (estimator daemon end-to-end)"
./build/examples/sweep_service atoms=3000 queries=160 clients=8 \
  --svc-threads 4 --svc-cache-mb 32 --svc-queue-depth 64 \
  --metrics "$SCRATCH/svc_metrics.json"
python3 -c "
import json
doc = json.load(open('$SCRATCH/svc_metrics.json'))
m = doc['metrics']
assert m['svc.queries']['value'] == 160, m['svc.queries']
assert m['svc.shed']['value'] == 0, 'service shed under smoke load'
hits = m['svc.hits']['value']
assert hits > 100, f'cache ineffective: {hits} hits of 160'
assert 'p99' in m['svc.latency_ms'], 'latency histogram lost its p99'
print(f\"service smoke OK: {int(hits)}/160 hits, \"
      f\"p99 {m['svc.latency_ms']['p99']:.2f} ms\")
"

# The SIMD floors divide the scalar tree's kernel times by the native
# tree's, so both trees run the smoke benches (one after the other, never
# concurrently).
step "bench smoke (BENCH_f6.json ... BENCH_f9.json in build/ and build-scalar/)"
cmake --build build --target bench-smoke -j"$JOBS"
cmake --build build-scalar --target bench-smoke -j"$JOBS"

step "bench gates (tools/bench_gates.py)"
python3 tools/bench_gates.py build build-scalar

# Sanitizer trees use the scalar SIMD backend: instrumentation composes
# poorly with wide intrinsics (ASan shadow checks on 32-byte lanes), and the
# scalar path exercises identical per-lane semantics by construction.
for san in $SANITIZERS; do
  step "sanitizer pass: $san (build-$san/, ANTON_SIMD=scalar)"
  cmake -B "build-$san" -S . -DANTON_SANITIZE="$san" \
        -DANTON_SIMD=scalar >/dev/null
  cmake --build "build-$san" -j"$JOBS"
  ctest --test-dir "build-$san" --output-on-failure -j"$JOBS" \
    -L "sanitize-$san"
done

step "all checks passed"
