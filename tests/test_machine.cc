#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "chem/builder.h"
#include "common/stats.h"
#include "core/machine.h"
#include "md/engine.h"

namespace anton::core {
namespace {

// A small system / small machine so tests stay fast.
System small_system() {
  BuilderOptions o;
  o.total_atoms = 3000;
  o.solute_fraction = 0.1;
  o.seed = 77;
  o.temperature_k = -1;
  return build_solvated_system(o);
}

TEST(Timestep, Deterministic) {
  const System sys = small_system();
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const Workload w = Workload::build(sys, cfg);
  const StepTiming a = simulate_step(w, cfg, {.include_long_range = true});
  const StepTiming b = simulate_step(w, cfg, {.include_long_range = true});
  EXPECT_DOUBLE_EQ(a.step_ns, b.step_ns);
  EXPECT_EQ(a.exec.tasks_executed, b.exec.tasks_executed);
}

// A persistent runner replays exactly, not approximately: every run after
// the first resets the clock and link horizons and reproduces the one-shot
// result bit for bit, on a machine large enough for multi-hop link
// contention.  The serial event queue is the only DES engine, so it is the
// only shard count there is.
TEST(Pdes, RunnerReplayIsExactAtEveryShardCount) {
  const System sys = small_system();
  const auto big = arch::MachineConfig::anton2(4, 4, 4);
  const Workload wb = Workload::build(sys, big);
  const StepTiming once = simulate_step(wb, big, {.include_long_range = true});
  TimestepRunner runner(wb, big, {.include_long_range = true});
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(runner.run_timestep(), once.step_ns) << "replay " << rep;
    const ExecStats& ex = runner.exec();
    EXPECT_EQ(ex.tasks_executed, once.exec.tasks_executed);
    EXPECT_EQ(ex.noc.messages, once.exec.noc.messages);
    EXPECT_EQ(ex.noc.latency_ns.sum(), once.exec.noc.latency_ns.sum());
    EXPECT_EQ(ex.phase_busy_ns, once.exec.phase_busy_ns);
    EXPECT_EQ(ex.phase_end_ns, once.exec.phase_end_ns);
    EXPECT_EQ(ex.critical_path_ns, once.exec.critical_path_ns);
  }
}

TEST(Timestep, ShortStepFasterThanFull) {
  const System sys = small_system();
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const Workload w = Workload::build(sys, cfg);
  const StepTiming full = simulate_step(w, cfg, {.include_long_range = true});
  const StepTiming srt = simulate_step(w, cfg, {.include_long_range = false});
  EXPECT_LT(srt.step_ns, full.step_ns);
  EXPECT_EQ(srt.phase_ns("fft"), 0.0);
  EXPECT_GT(full.phase_ns("fft"), 0.0);
}

TEST(Timestep, EventDrivenFasterThanBsp) {
  const System sys = small_system();
  const auto ev = arch::MachineConfig::anton2(2, 2, 2);
  const auto bsp = arch::MachineConfig::anton2_bsp(2, 2, 2);
  const Workload w = Workload::build(sys, ev);
  const double t_ev =
      simulate_step(w, ev, {.include_long_range = true}).step_ns;
  const double t_bsp =
      simulate_step(w, bsp, {.include_long_range = true}).step_ns;
  EXPECT_LT(t_ev, t_bsp);
}

TEST(Timestep, BspRunsBarriers) {
  const System sys = small_system();
  const auto bsp = arch::MachineConfig::anton2_bsp(2, 2, 2);
  const Workload w = Workload::build(sys, bsp);
  const StepTiming t = simulate_step(w, bsp, {.include_long_range = true});
  EXPECT_GT(t.phase_ns("barrier"), 0.0);
  const StepTiming ev = simulate_step(
      w, arch::MachineConfig::anton2(2, 2, 2), {.include_long_range = true});
  EXPECT_EQ(ev.phase_ns("barrier"), 0.0);
}

TEST(Timestep, AllPhasesPresent) {
  const System sys = small_system();
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const Workload w = Workload::build(sys, cfg);
  const StepTiming t = simulate_step(w, cfg, {.include_long_range = true});
  for (const char* phase :
       {"pos_export", "pair_local", "pair_tile", "bonded", "spread", "fft",
        "interp", "integrate", "constrain", "migrate"}) {
    EXPECT_GT(t.phase_ns(phase), 0.0) << phase;
  }
}

TEST(Timestep, MorePairsTakesLonger) {
  // A denser (larger) system on the same machine must not be faster.
  BuilderOptions small;
  small.total_atoms = 2001;
  small.temperature_k = -1;
  small.seed = 3;
  BuilderOptions big = small;
  big.total_atoms = 6000;
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const Workload ws = Workload::build(build_solvated_system(small), cfg);
  const Workload wb = Workload::build(build_solvated_system(big), cfg);
  EXPECT_GT(wb.total_pairs(), ws.total_pairs());
  const double ts = simulate_step(ws, cfg, {}).step_ns;
  const double tb = simulate_step(wb, cfg, {}).step_ns;
  EXPECT_GT(tb, ts);
}

TEST(Machine, EstimateProducesReport) {
  const System sys = small_system();
  AntonMachine m(arch::MachineConfig::anton2(2, 2, 2));
  const PerfReport r = m.estimate(sys, 2.5, 2);
  EXPECT_EQ(r.nodes, 8);
  EXPECT_EQ(r.atoms, sys.num_atoms());
  EXPECT_GT(r.full_step.step_ns, 0);
  EXPECT_GT(r.short_step.step_ns, 0);
  EXPECT_GT(r.us_per_day(), 0);
  // avg is between short and full.
  EXPECT_GE(r.avg_step_ns(), r.short_step.step_ns);
  EXPECT_LE(r.avg_step_ns(), r.full_step.step_ns);
}

TEST(Machine, Anton2FasterThanAnton1) {
  const System sys = small_system();
  AntonMachine m2(arch::MachineConfig::anton2(2, 2, 2));
  AntonMachine m1(arch::MachineConfig::anton1(2, 2, 2));
  const double v2 = m2.estimate(sys).us_per_day();
  const double v1 = m1.estimate(sys).us_per_day();
  EXPECT_GT(v2, 2.0 * v1);
}

TEST(Machine, RespaImprovesThroughput) {
  const System sys = small_system();
  AntonMachine m(arch::MachineConfig::anton2(2, 2, 2));
  const double k1 = m.estimate(sys, 2.5, 1).us_per_day();
  const double k3 = m.estimate(sys, 2.5, 3).us_per_day();
  EXPECT_GT(k3, k1);
}

TEST(Machine, FunctionalRunAdvancesPhysicsAndTimes) {
  System sys = build_water_box(216, 88);
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.0;
  p.respa_k = 2;
  p.long_range = LongRangeMethod::kMesh;
  const std::vector<Vec3> before(sys.positions().begin(),
                                 sys.positions().end());
  AntonMachine m(arch::MachineConfig::anton2(2, 2, 2));
  const PerfReport r = m.run(sys, p, 6);
  EXPECT_GT(r.us_per_day(), 0);
  // Physics advanced.
  double moved = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    moved += norm(sys.positions()[i] - before[i]);
  }
  EXPECT_GT(moved, 0.0);
}

TEST(Machine, FunctionalRunMatchesGoldEngineTrajectory) {
  // The machine's functional layer *is* the gold engine; a machine run and
  // a plain engine run must produce identical positions.
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.0;
  p.respa_k = 1;
  p.long_range = LongRangeMethod::kMesh;

  System sys_machine = build_water_box(216, 89);
  System sys_gold = sys_machine;
  AntonMachine m(arch::MachineConfig::anton2(2, 2, 2));
  m.run(sys_machine, p, 5);

  md::Simulation sim(std::move(sys_gold), p);
  sim.step(5);

  for (int i = 0; i < sys_machine.num_atoms(); ++i) {
    EXPECT_EQ(sys_machine.positions()[static_cast<size_t>(i)],
              sim.system().positions()[static_cast<size_t>(i)]);
  }
}

uint64_t estimate_digest(const arch::MachineConfig& cfg, const System& sys) {
  return report_digest(AntonMachine(cfg).estimate(sys, 2.5, 2));
}

// Golden PerfReports: the estimator's output is pinned bit for bit on all
// three machine presets, so refactors of the DES, the torus or the executor
// must leave every report exactly as it was.  If a change is *meant* to
// move the model, re-record the constants (the failure message prints the
// new digest) and say why in the commit.
TEST(Machine, GoldenReportDigests) {
  const System sys = small_system();
  // The paper's headline point: the DHFR-class benchmark on 512 nodes.
  const System dhfr = build_benchmark_system(dhfr_spec(), 1);
  const struct {
    arch::MachineConfig cfg;
    const System* sys;
    uint64_t digest;
  } cases[] = {
      {arch::MachineConfig::anton2(4, 4, 4), &sys, 0x7ef353ed89b26ac8ULL},
      {arch::MachineConfig::anton2_bsp(4, 4, 4), &sys, 0xab9b4ab2a66d7cd0ULL},
      {arch::MachineConfig::anton1(4, 4, 4), &sys, 0xf4ede16435c177d1ULL},
      {arch::MachineConfig::anton2(8, 8, 8), &dhfr, 0xeec50ad70ce89f7fULL},
  };
  for (const auto& c : cases) {
    const uint64_t got = estimate_digest(c.cfg, *c.sys);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, c.digest) << c.cfg.name << " digest is now " << hex;
  }
}

TEST(Machine, UsPerDayArithmetic) {
  PerfReport r;
  r.dt_fs = 2.5;
  r.respa_k = 1;
  r.full_step.step_ns = 2500.0;  // 2.5 us per step
  r.short_step.step_ns = 2500.0;
  // 2.5 fs per 2.5 us -> 1e-9 ratio -> 86400 s/day * 1e-9 = 86.4 us/day.
  EXPECT_NEAR(r.us_per_day(), 86.4, 1e-9);
}

}  // namespace
}  // namespace anton::core
