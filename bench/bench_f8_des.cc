// F8 — Discrete-event core: pooled inline-callable queue + 4-ary heap vs
// the pre-rewrite std::function / std::priority_queue kernel, and the
// parallel sweep harness vs a serial estimate loop.
//
// The storm workload and the compiled-in legacy baseline live in
// des_storm.h; pinning the baseline in code keeps the comparison honest on
// any host.
//
// The sweep section replays the F3 study (event-driven vs BSP across node
// counts) serially and on a 4-thread SweepRunner and checks the merged
// results are bitwise identical — the harness buys wall time, never drift.
//
// Set ANTON_BENCH_SMOKE=1 to shrink repetitions for CI.
#include <vector>

#include "bench_util.h"
#include "des_storm.h"
#include "obs/profiler.h"

int main() {
  using namespace anton;
  using namespace anton::bench;

  const bool smoke = std::getenv("ANTON_BENCH_SMOKE") != nullptr;
  const int reps = smoke ? 3 : 7;
  const int chains = smoke ? 64 : 512;
  const int depth = smoke ? 250 : 2500;

  print_header("F8", "Discrete-event core and sweep harness");
  BenchReport report("f8");

  {
    std::cout << "\n-- single-queue event storm (" << chains << " chains x "
              << depth << " hops, nested delivery payload) --\n";
    const auto old_r = run_storm<LegacyStorm>(reps, chains, depth);
    const auto new_r = run_storm<PooledStorm>(reps, chains, depth);
    // Identical jitter, identical FIFO tie-breaks: the two kernels must
    // agree on the simulated clock to the last bit.
    ANTON_CHECK(old_r.final_t == new_r.final_t);
    const double old_meps =
        static_cast<double>(old_r.events) / (old_r.ms * 1e3);
    const double new_meps =
        static_cast<double>(new_r.events) / (new_r.ms * 1e3);
    report.record("queue.legacy_meps", old_meps);
    report.record("queue.new_meps", new_meps);
    report.record("queue.speedup", new_meps / old_meps);
    TextTable t({"variant", "ms/storm", "events/us", "speedup"});
    t.add_row({"legacy std::function + binary heap",
               TextTable::fmt(old_r.ms, 2), TextTable::fmt(old_meps, 2),
               "1.00"});
    t.add_row({"pooled inline callables + 4-ary heap",
               TextTable::fmt(new_r.ms, 2), TextTable::fmt(new_meps, 2),
               TextTable::fmt(new_meps / old_meps, 2)});
    t.print(std::cout);
  }

  {
    std::cout << "\n-- F3 sweep (event vs BSP), serial vs SweepRunner(4) --\n";
    const System& sys = dhfr_system();
    std::vector<core::EstimatePoint> pts;
    const std::vector<int> node_counts =
        smoke ? std::vector<int>{8, 16} : std::vector<int>{8, 32, 64, 128};
    for (int nodes : node_counts) {
      pts.push_back({machine_preset("anton2", nodes), 2.5, 2});
      pts.push_back({machine_preset("anton2-bsp", nodes), 2.5, 2});
    }

    const core::SweepRunner serial(nullptr);
    ThreadPool pool(4);
    const core::SweepRunner threaded(&pool);

    // Warm both paths (system caches, pool threads) before timing.
    const auto warm = serial.estimate(sys, std::span(pts.data(), 2));
    (void)warm;

    const double t0 = obs::wall_seconds();
    const auto rs = serial.estimate(sys, pts);
    const double serial_ms = (obs::wall_seconds() - t0) * 1e3;
    const double t1 = obs::wall_seconds();
    const auto rt = threaded.estimate(sys, pts);
    const double threaded_ms = (obs::wall_seconds() - t1) * 1e3;

    bool match = rs.size() == rt.size();
    for (size_t i = 0; match && i < rs.size(); ++i) {
      match = rs[i].us_per_day() == rt[i].us_per_day() &&
              rs[i].avg_step_ns() == rt[i].avg_step_ns();
    }
    report.record("sweep.points", static_cast<double>(pts.size()));
    report.record("sweep.serial_ms", serial_ms);
    report.record("sweep.threaded_ms", threaded_ms);
    report.record("sweep.speedup", serial_ms / threaded_ms);
    report.record("sweep.match", match ? 1.0 : 0.0);
    TextTable t({"variant", "ms/sweep", "speedup", "bitwise match"});
    t.add_row({"serial loop", TextTable::fmt(serial_ms, 0), "1.00", "-"});
    t.add_row({"SweepRunner, 4 threads", TextTable::fmt(threaded_ms, 0),
               TextTable::fmt(serial_ms / threaded_ms, 2),
               match ? "yes" : "NO"});
    t.print(std::cout);
    if (!match) {
      std::cout << "\nERROR: threaded sweep diverged from serial results\n";
      return 1;
    }
  }

  std::cout << "\nEvery packet delivery and task release in the machine "
               "model rides the event queue,\nso the storm speedup "
               "compounds across the full simulator.\n";
  return 0;
}
