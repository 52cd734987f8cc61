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
#include "obs/perfcounters.h"

namespace anton::md {

// Pre-SIMD scalar inner loops, compiled into this binary as the baseline for
// the vectorization speedup gates (scripts/check.sh requires the library's
// SIMD kernels to beat these by >= 2x on an AVX2 host).  They reproduce the
// former library code paths exactly: the scalar tabulated pair loop and the
// scalar cubic-Hermite table evaluation.
namespace legacy {

constexpr double kTwoOverSqrtPi = 1.1283791670955126;

double pair_pass(const Box& box, const ForceWorkspace& ws,
                 const NeighborList& nlist, std::span<const Vec3> pos,
                 std::span<const int> types, std::span<const double> charges,
                 double alpha, double cutoff2, std::span<Vec3> f) {
  const auto q_scaled = ws.scaled_charges();
  const double coul_shift = ws.coul_shift();
  const int ntypes = ws.num_types();
  const LjMixed* lj_table = &ws.lj(0, 0);
  const Vec3 box_l = box.lengths();
  const Vec3 inv_l{1.0 / box_l.x, 1.0 / box_l.y, 1.0 / box_l.z};
  const double table_r2_min = ws.table_r2_min();
  const CoulTableView tab = ws.coul_ef();
  double e_sum = 0.0;

  const size_t n = pos.size();
  for (size_t i = 0; i < n; ++i) {
    const Vec3 pi = pos[i];
    const double qi = q_scaled[i];
    const LjMixed* lj_row = lj_table + types[i] * ntypes;
    Vec3 fi{};
    for (int j : nlist.neighbors_of(static_cast<int>(i))) {
      Vec3 d = pi - pos[static_cast<size_t>(j)];
      d.x -= box_l.x * std::nearbyint(d.x * inv_l.x);
      d.y -= box_l.y * std::nearbyint(d.y * inv_l.y);
      d.z -= box_l.z * std::nearbyint(d.z * inv_l.z);
      const double r2 = norm2(d);
      if (r2 >= cutoff2) continue;
      double f_pair = 0.0;

      const LjMixed& lj = lj_row[types[static_cast<size_t>(j)]];
      if (lj.eps > 0) {
        const double inv_r2 = 1.0 / r2;
        const double sr2 = lj.sigma2 * inv_r2;
        const double sr6 = sr2 * sr2 * sr2;
        f_pair += 24.0 * lj.eps * (2.0 * sr6 * sr6 - sr6) * inv_r2;
        e_sum += 4.0 * lj.eps * (sr6 * sr6 - sr6) - lj.e_shift;
      }

      const double qq = qi * charges[static_cast<size_t>(j)];
      if (qq != 0.0) {
        double e_c, f_c;
        if (r2 >= table_r2_min) {
          const double s = (r2 - tab.x0) * tab.inv_h;
          int k = static_cast<int>(s);
          if (k > tab.n - 2) k = tab.n - 2;
          const double t = s - k;
          const CoulNode& a = tab.nodes[k];
          const CoulNode& b = tab.nodes[k + 1];
          const double t2 = t * t;
          const double t3 = t2 * t;
          const double h00 = 2 * t3 - 3 * t2 + 1;
          const double h10 = (t3 - 2 * t2 + t) * tab.h;
          const double h01 = -2 * t3 + 3 * t2;
          const double h11 = (t3 - t2) * tab.h;
          e_c = qq * (h00 * a.ev + h10 * a.ed + h01 * b.ev + h11 * b.ed -
                      coul_shift);
          f_c = qq * (h00 * a.fv + h10 * a.fd + h01 * b.fv + h11 * b.fd);
        } else {
          const double inv_r2 = 1.0 / r2;
          const double r = std::sqrt(r2);
          const double ar = alpha * r;
          const double erfc_ar = std::erfc(ar);
          e_c = qq * (erfc_ar / r - coul_shift);
          f_c = qq *
                (erfc_ar / r + kTwoOverSqrtPi * alpha * std::exp(-ar * ar)) *
                inv_r2;
        }
        e_sum += e_c;
        f_pair += f_c;
      }

      const Vec3 fv = f_pair * d;
      fi += fv;
      f[static_cast<size_t>(j)] -= fv;
    }
    f[i] += fi;
  }
  return e_sum;
}

}  // namespace legacy

namespace {

// Crash forensics for bench runs: a kill or invariant failure mid-run dumps
// the flight-recorder rings (tools/validate_trace.py reads the dump).
const bool g_flight_armed = [] {
  obs::flight::install_crash_handler();
  return true;
}();

// One shared hardware-counter group for the whole binary (benchmarks run
// serially on the main thread).  Each kernel scopes a PerfTap over its
// timing loop and exports "ipc" / "llc_miss_rate" counters alongside the
// times — "perf" says whether the host allowed perf_event_open at all, so
// downstream tooling (tools/bench_compare.py) knows when to skip them.
obs::PerfCounters& perf_group() {
  static obs::PerfCounters pc;
  return pc;
}

class PerfTap {
 public:
  explicit PerfTap(benchmark::State& state) : state_(state) {
    if (perf_group().available()) {
      s0_ = perf_group().read();
    }
  }
  ~PerfTap() {
    state_.counters["perf"] = s0_.valid ? 1.0 : 0.0;
    if (!s0_.valid) return;
    const obs::PerfSample d = perf_group().read() - s0_;
    if (!d.valid) return;
    if (d.cycles > 0) state_.counters["ipc"] = d.ipc();
    if (d.llc_loads > 0) state_.counters["llc_miss_rate"] = d.llc_miss_rate();
  }
  PerfTap(const PerfTap&) = delete;
  PerfTap& operator=(const PerfTap&) = delete;

 private:
  benchmark::State& state_;
  obs::PerfSample s0_;
};

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
  PerfTap tap(state);
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
  PerfTap tap(state);
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

// ---- Vectorization gates: the library's SIMD pair kernel and table
// evaluation vs the compiled-in legacy scalar loops above.  Both variants
// run serially over the identical neighbor list / inputs; the "simd_avx2"
// counter tells scripts/check.sh whether the >=2x gate applies (it is only
// enforced when the library was built with the AVX2 backend).

void BM_PairKernelScalar(benchmark::State& state) {
  const System& sys = water4k();
  NeighborList nlist(9.0, 1.0);
  nlist.build(sys.box(), sys.positions(), sys.topology(), nullptr);
  std::vector<Vec3> f(static_cast<size_t>(sys.num_atoms()));
  ForceWorkspace ws;
  {
    // Warm-up through the real entry point builds the same workspace state
    // (premixed LJ, prescaled charges, erfc tables) the legacy loop reads.
    EnergyReport e;
    compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                      f, e, nullptr, /*shift_at_cutoff=*/false, &ws);
  }
  const Topology& top = sys.topology();
  PerfTap tap(state);
  for (auto _ : state) {
    std::fill(f.begin(), f.end(), Vec3{});
    const double e = legacy::pair_pass(sys.box(), ws, nlist, sys.positions(),
                                       top.types(), top.charges(), 0.35,
                                       9.0 * 9.0, f);
    benchmark::DoNotOptimize(e);
  }
  state.counters["pairs"] = static_cast<double>(nlist.num_pairs());
  state.counters["pairs/s"] =
      benchmark::Counter(static_cast<double>(nlist.num_pairs()),
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["simd_avx2"] = simd::kAvx2 ? 1.0 : 0.0;
}
BENCHMARK(BM_PairKernelScalar)->Unit(benchmark::kMillisecond);

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
  PerfTap tap(state);
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
  PerfTap tap(state);
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
  PerfTap tap(state);
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
  PerfTap tap(state);
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
  PerfTap tap(state);
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
  PerfTap tap(state);
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
  PerfTap tap(state);
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
