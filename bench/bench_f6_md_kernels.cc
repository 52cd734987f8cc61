// F6 — Commodity-baseline kernel throughput on this host (google-benchmark).
// Grounds the F4 comparison: these are the kernels a commodity platform runs
// in software that Anton executes in silicon.
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>

#include "chem/builder.h"
#include "common/simd.h"
#include "common/table.h"
#include "common/threadpool.h"
#include "fft/fft.h"
#include "md/constraints.h"
#include "md/engine.h"
#include "md/gse.h"
#include "md/neighborlist.h"
#include "md/nonbonded.h"
#include "md/workspace.h"
#include "obs/flightrecorder.h"

namespace anton::md {

namespace {

// Crash forensics for bench runs: a kill or invariant failure mid-run dumps
// the flight-recorder rings (tools/validate_trace.py reads the dump).
const bool g_flight_armed = [] {
  obs::flight::install_crash_handler();
  return true;
}();

const System& water4k() {
  static const System sys = build_water_box(1331, 7);  // 3,993 atoms
  return sys;
}

// Arg(0) = the number of worker threads; 1 runs the serial path.  The
// parallel build produces bit-identical CSR output for every thread count.
void BM_NeighborListBuild(benchmark::State& state) {
  const System& sys = water4k();
  const unsigned threads = static_cast<unsigned>(state.range(0));
  ThreadPool pool(threads);
  ThreadPool* p = threads > 1 ? &pool : nullptr;
  NeighborList nlist(9.0, 1.0);
  for (auto _ : state) {
    nlist.build(sys.box(), sys.positions(), sys.topology(), p);
    benchmark::DoNotOptimize(nlist.num_pairs());
  }
  state.counters["pairs"] = static_cast<double>(nlist.num_pairs());
}
BENCHMARK(BM_NeighborListBuild)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Steady-state short-range pair evaluation: persistent workspace (premixed
// LJ table, prescaled charges, fused erfc tables) and per-thread force
// buffers, so iterations after the first perform zero heap allocation.
void BM_NonbondedPairs(benchmark::State& state) {
  const System& sys = water4k();
  const unsigned threads = static_cast<unsigned>(state.range(0));
  ThreadPool pool(threads);
  ThreadPool* p = threads > 1 ? &pool : nullptr;
  NeighborList nlist(9.0, 1.0);
  nlist.build(sys.box(), sys.positions(), sys.topology(), p);
  std::vector<Vec3> f(static_cast<size_t>(sys.num_atoms()));
  ForceWorkspace ws;
  {
    // Untimed warm-up: builds the erfc tables and sizes all scratch so the
    // loop below measures the allocation-free steady state only.
    EnergyReport e;
    compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                      f, e, p, /*shift_at_cutoff=*/false, &ws);
  }
  for (auto _ : state) {
    EnergyReport e;
    std::fill(f.begin(), f.end(), Vec3{});
    compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                      f, e, p, /*shift_at_cutoff=*/false, &ws);
    benchmark::DoNotOptimize(e.lj);
  }
  // Per-iteration counts: the iteration-invariant rate multiplies by the
  // iteration count before dividing by total time, so pairs/s is pairs
  // divided by the per-iteration time.
  state.counters["pairs"] = static_cast<double>(nlist.num_pairs());
  state.counters["pairs/s"] =
      benchmark::Counter(static_cast<double>(nlist.num_pairs()),
                         benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_NonbondedPairs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// ---- Vectorization gates (tools/bench_gates.py).  The pair kernel runs
// serially; its time in an ANTON_SIMD=scalar tree over its time in the
// native tree is the pair-kernel floor.  The table evaluation compares the
// library's scalar CubicTable::operator() against eval_batch in one binary.
// The "simd_avx2" counter says whether the native tree has the AVX2 backend;
// the gates apply only then.

void BM_PairKernelSimd(benchmark::State& state) {
  const System& sys = water4k();
  NeighborList nlist(9.0, 1.0);
  nlist.build(sys.box(), sys.positions(), sys.topology(), nullptr);
  std::vector<Vec3> f(static_cast<size_t>(sys.num_atoms()));
  ForceWorkspace ws;
  {
    EnergyReport e;
    compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                      f, e, nullptr, /*shift_at_cutoff=*/false, &ws);
  }
  for (auto _ : state) {
    EnergyReport e;
    std::fill(f.begin(), f.end(), Vec3{});
    compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                      f, e, nullptr, /*shift_at_cutoff=*/false, &ws);
    benchmark::DoNotOptimize(e.lj);
  }
  state.counters["pairs"] = static_cast<double>(nlist.num_pairs());
  state.counters["pairs/s"] =
      benchmark::Counter(static_cast<double>(nlist.num_pairs()),
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["simd_avx2"] = simd::kAvx2 ? 1.0 : 0.0;
}
BENCHMARK(BM_PairKernelSimd)->Unit(benchmark::kMillisecond);

// Table-eval gate inputs: one cubic-Hermite table of the erfc-like radial
// shape over the squared-distance domain the pair kernel uses, evaluated at
// uniformly random in-domain abscissae.
struct TableEvalFixture {
  CubicTable tab;
  std::vector<double> xs;
  std::vector<double> out;

  explicit TableEvalFixture(int n_points)
      : xs(static_cast<size_t>(n_points)), out(static_cast<size_t>(n_points)) {
    tab.build(
        0.25, 81.0, 1537, [](double x) { return std::exp(-0.3 * x) / x; },
        [](double x) {
          return -std::exp(-0.3 * x) * (0.3 * x + 1.0) / (x * x);
        });
    std::mt19937_64 rng(12345);
    std::uniform_real_distribution<double> dist(0.25, 81.0);
    for (double& x : xs) x = dist(rng);
  }
};

void BM_TableEvalScalar(benchmark::State& state) {
  static TableEvalFixture fx(1 << 14);
  const int n = static_cast<int>(fx.xs.size());
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) fx.out[static_cast<size_t>(i)] =
        fx.tab(fx.xs[static_cast<size_t>(i)]);
    benchmark::DoNotOptimize(fx.out.data());
    benchmark::ClobberMemory();
  }
  state.counters["evals/s"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["simd_avx2"] = simd::kAvx2 ? 1.0 : 0.0;
}
BENCHMARK(BM_TableEvalScalar)->Unit(benchmark::kMicrosecond);

void BM_TableEvalSimd(benchmark::State& state) {
  static TableEvalFixture fx(1 << 14);
  const int n = static_cast<int>(fx.xs.size());
  for (auto _ : state) {
    fx.tab.eval_batch(fx.xs.data(), fx.out.data(), n);
    benchmark::DoNotOptimize(fx.out.data());
    benchmark::ClobberMemory();
  }
  state.counters["evals/s"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["simd_avx2"] = simd::kAvx2 ? 1.0 : 0.0;
}
BENCHMARK(BM_TableEvalSimd)->Unit(benchmark::kMicrosecond);

void BM_GseMesh(benchmark::State& state) {
  const System& sys = water4k();
  GseMesh gse(sys.box(), 0.35, 1.1, 1.2);
  std::vector<Vec3> f(static_cast<size_t>(sys.num_atoms()));
  for (auto _ : state) {
    EnergyReport e;
    std::fill(f.begin(), f.end(), Vec3{});
    gse.compute(sys.topology(), sys.positions(), f, e);
    benchmark::DoNotOptimize(e.coulomb_kspace);
  }
  state.counters["mesh"] = static_cast<double>(gse.mesh_points());
}
BENCHMARK(BM_GseMesh)->Unit(benchmark::kMillisecond);

void BM_Fft3D(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Fft3D fft(n, n, n);
  std::vector<Complex> data(fft.num_points(), Complex{1.0, 0.5});
  for (auto _ : state) {
    fft.forward(data);
    fft.inverse(data);
    benchmark::DoNotOptimize(data[0]);
  }
}
BENCHMARK(BM_Fft3D)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_ShakeWater(benchmark::State& state) {
  const System& sys = water4k();
  std::vector<Vec3> ref(sys.positions().begin(), sys.positions().end());
  Rng rng(3, 0);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Vec3> pos = ref;
    for (auto& p : pos) p += 0.02 * rng.gaussian_vec3();
    std::vector<Vec3> vel(pos.size());
    state.ResumeTiming();
    const auto stats = shake(sys.box(), sys.topology(), ref, pos, vel, 0.01,
                             1e-8, 200);
    benchmark::DoNotOptimize(stats.iterations);
  }
  state.counters["constraints"] =
      static_cast<double>(sys.topology().constraints().size());
}
BENCHMARK(BM_ShakeWater)->Unit(benchmark::kMillisecond);

void BM_FullStep(benchmark::State& state) {
  MdParams p;
  p.cutoff = 9.0;
  p.skin = 1.0;
  p.dt_fs = 2.5;
  p.respa_k = 2;
  p.long_range = LongRangeMethod::kMesh;
  System sys = water4k();
  Simulation sim(std::move(sys), p);
  sim.step(2);
  // One full RESPA cycle (respa_k inner steps) per iteration, so every
  // iteration does the same work regardless of step parity.
  for (auto _ : state) {
    sim.step(p.respa_k);
    benchmark::DoNotOptimize(sim.step_count());
  }
  state.counters["atoms"] = static_cast<double>(sim.system().num_atoms());
  state.counters["steps_per_iter"] = static_cast<double>(p.respa_k);
}
BENCHMARK(BM_FullStep)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace anton::md

BENCHMARK_MAIN();
