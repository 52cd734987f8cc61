// Tests for the unified telemetry layer (src/obs/): metrics registry,
// phase profiler, Chrome-trace writer, and their integration with the DES
// machine model and the functional MD engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chem/builder.h"
#include "common/threadpool.h"
#include "core/machine.h"
#include "md/engine.h"
#include "obs/metrics.h"
#include "obs/perfcounters.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace anton {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

size_t count_occurrences(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Crude structural JSON balance check: every { has a } and every [ a ],
// ignoring characters inside string literals.
bool braces_balanced(const std::string& s) {
  int brace = 0, bracket = 0;
  bool in_str = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == '[') ++bracket;
    if (c == ']') --bracket;
    if (brace < 0 || bracket < 0) return false;
  }
  return brace == 0 && bracket == 0 && !in_str;
}

TEST(MetricsRegistry, KindsAndIdempotentRegistration) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  obs::Counter* c = reg.counter("a.count");
  obs::Gauge* g = reg.gauge("a.gauge");
  obs::Stat* s = reg.stat("a.stat");
  obs::Histo* h = reg.histogram("a.histo", 0, 10, 5);
  EXPECT_EQ(reg.size(), 4u);

  // Same name, same kind: same object.
  EXPECT_EQ(reg.counter("a.count"), c);
  EXPECT_EQ(reg.gauge("a.gauge"), g);
  EXPECT_EQ(reg.stat("a.stat"), s);
  EXPECT_EQ(reg.histogram("a.histo", 99, 100, 1), h);  // shape fixed by first
  EXPECT_EQ(reg.size(), 4u);

  // Same name, different kind: error.
  EXPECT_THROW(reg.gauge("a.count"), Error);
  EXPECT_THROW(reg.stat("a.gauge"), Error);
  EXPECT_THROW(reg.counter("a.histo"), Error);

  c->add(3);
  g->set(2.5);
  s->add(1.0);
  s->add(3.0);
  h->add(7.0);
  EXPECT_EQ(c->value(), 3u);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
  EXPECT_DOUBLE_EQ(s->snapshot().mean(), 2.0);
  EXPECT_EQ(h->snapshot().total(), 1u);

  const std::vector<std::string> names = reg.names();
  EXPECT_EQ(names.size(), 4u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(MetricsRegistry, SinksAreThreadSafe) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.counter("t.count");
  obs::Gauge* g = reg.gauge("t.gauge");
  obs::Stat* s = reg.stat("t.stat");
  const int kThreads = 4, kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c->add();
        g->add(1.0);
        s->add(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads * kIters));
  EXPECT_DOUBLE_EQ(g->value(), kThreads * kIters);
  EXPECT_EQ(s->snapshot().count(), static_cast<uint64_t>(kThreads * kIters));
  EXPECT_DOUBLE_EQ(s->snapshot().sum(), kThreads * kIters);
}

TEST(MetricsRegistry, JsonSnapshotIsWellFormed) {
  obs::MetricsRegistry reg;
  reg.counter("x.events")->add(7);
  reg.gauge("x.occupancy")->set(0.75);
  reg.stat("x.latency")->add(3.5);
  reg.histogram("x.hops", 0, 8, 8)->add(2);
  // A name needing escaping must not corrupt the document.
  reg.gauge("x.weird\"name\\")->set(1);
  const std::string j = reg.json();
  EXPECT_TRUE(braces_balanced(j)) << j;
  EXPECT_NE(j.find("\"schema\":\"anton.metrics.v1\""), std::string::npos);
  EXPECT_NE(j.find("\"x.events\""), std::string::npos);
  EXPECT_NE(j.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(j.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(j.find("\"type\":\"stat\""), std::string::npos);
  EXPECT_NE(j.find("\"type\":\"histogram\""), std::string::npos);
}

TEST(MetricsRegistry, CsvSnapshot) {
  obs::MetricsRegistry reg;
  reg.counter("c.n")->add(5);
  reg.stat("s.v")->add(2.0);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("c.n,value,5"), std::string::npos);
  EXPECT_NE(csv.find("s.v,mean,"), std::string::npos);
  EXPECT_NE(csv.find("s.v,count,1"), std::string::npos);
}

TEST(PhaseProfiler, DisabledScopesAreNoOps) {
  obs::PhaseProfiler prof;
  EXPECT_FALSE(prof.enabled());
  {
    auto s = prof.scope("pair");  // must not crash or allocate sinks
  }
  prof.record_seconds("pair", 1.0);
  EXPECT_EQ(prof.phase_stat("pair"), nullptr);
}

TEST(PhaseProfiler, AccumulatesPhaseStats) {
  obs::MetricsRegistry reg;
  obs::PhaseProfiler prof;
  prof.enable(&reg, "md");
  for (int i = 0; i < 3; ++i) {
    auto s = prof.scope("pair");
    // Do a little work so the span is non-negative but tiny.
    volatile double x = 0;
    for (int k = 0; k < 100; ++k) x = x + k;
  }
  prof.record_seconds("fft", 0.25);
  const RunningStat pair =
      reg.stat("md.phase.pair.seconds")->snapshot();
  EXPECT_EQ(pair.count(), 3u);
  EXPECT_GE(pair.sum(), 0.0);
  const RunningStat fft = reg.stat("md.phase.fft.seconds")->snapshot();
  EXPECT_EQ(fft.count(), 1u);
  EXPECT_DOUBLE_EQ(fft.sum(), 0.25);

  prof.disable();
  EXPECT_FALSE(prof.enabled());
  { auto s = prof.scope("pair"); }
  EXPECT_EQ(reg.stat("md.phase.pair.seconds")->snapshot().count(), 3u);
}

TEST(TraceWriter, EmptyPathMeansDisabled) {
  EXPECT_EQ(obs::TraceWriter::open(""), nullptr);
}

TEST(TraceWriter, WritesValidChromeTrace) {
  const std::string path = "test_obs_trace.json";
  {
    auto tw = obs::TraceWriter::open(path);
    ASSERT_NE(tw, nullptr);
    tw->process_name(obs::kPidMd, "md engine");
    tw->thread_name(obs::kPidMd, 0, "main");
    tw->complete("pair", "md", 10.0, 5.0, obs::kPidMd, 0,
                 {{"atoms", 125.0}});
    tw->complete("fft", "md", 15.0, -1.0, obs::kPidMd, 0);  // dur clamps to 0
    tw->counter("queue.pending", 3.0, obs::kPidQueue, "events", 42.0);
    tw->instant("rebuild", "md", 20.0, obs::kPidMd, 0);
    EXPECT_EQ(tw->events_written(), 6u);
  }  // destructor closes the JSON
  const std::string s = slurp(path);
  EXPECT_TRUE(braces_balanced(s)) << s;
  EXPECT_NE(s.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(count_occurrences(s, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_occurrences(s, "\"ph\":\"C\""), 1u);
  EXPECT_EQ(count_occurrences(s, "\"ph\":\"i\""), 1u);
  EXPECT_EQ(count_occurrences(s, "\"ph\":\"M\""), 2u);
  EXPECT_NE(s.find("\"dur\":0"), std::string::npos);  // clamped span
  std::remove(path.c_str());
}

TEST(TraceWriter, TimestampOffsetAppliesToEventsNotMetadata) {
  const std::string path = "test_obs_trace_offset.json";
  {
    auto tw = obs::TraceWriter::open(path);
    tw->set_ts_offset_us(1000.0);
    tw->complete("task", "des", 5.0, 1.0, obs::kPidMachine, 0);
    tw->process_name(obs::kPidMachine, "machine");
    EXPECT_DOUBLE_EQ(tw->ts_offset_us(), 1000.0);
  }
  const std::string s = slurp(path);
  EXPECT_NE(s.find("\"ts\":1005"), std::string::npos) << s;
  // Metadata stays at ts 0 so track names anchor the timeline.
  EXPECT_NE(s.find("\"ph\":\"M\",\"ts\":0"), std::string::npos) << s;
  std::remove(path.c_str());
}

// --- integration: DES machine model -----------------------------------------

System small_system() {
  BuilderOptions o;
  o.total_atoms = 3000;
  o.solute_fraction = 0.1;
  o.seed = 77;
  o.temperature_k = -1;
  return build_solvated_system(o);
}

TEST(DesTelemetry, CriticalPathPartitionsMakespanExactly) {
  const System sys = small_system();
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const core::Workload w = core::Workload::build(sys, cfg);
  obs::MetricsRegistry reg;
  core::StepOptions opt;
  opt.include_long_range = true;
  opt.metrics = &reg;
  const core::StepTiming t = core::simulate_step(w, cfg, opt);

  double path_sum = 0;
  for (const auto& [phase, ns] : t.exec.critical_path_ns) path_sum += ns;
  EXPECT_GT(t.exec.makespan_ns, 0.0);
  EXPECT_NEAR(t.exec.critical_wait_ns + path_sum, t.exec.makespan_ns,
              1e-6 * t.exec.makespan_ns);
  EXPECT_GE(t.exec.critical_wait_ns, 0.0);

  // The registry carries the DES breakdown under the "des." prefix.
  EXPECT_EQ(reg.stat("des.step.makespan_ns")->snapshot().count(), 1u);
  EXPECT_DOUBLE_EQ(reg.stat("des.step.makespan_ns")->snapshot().sum(),
                   t.exec.makespan_ns);
  EXPECT_EQ(reg.counter("des.step.tasks")->value(), t.exec.tasks_executed);
  // The queue also executes NoC delivery and transfer events, so its count
  // dominates the task count.
  EXPECT_GE(reg.counter("des.queue.executed")->value(),
            t.exec.tasks_executed);
  EXPECT_GT(reg.histogram("des.noc.latency_ns", 0, 1, 1)->snapshot().total(),
            0u);
  // Per-phase critical attribution matches ExecStats.
  for (const auto& [phase, ns] : t.exec.critical_path_ns) {
    const std::string name = "des.critical." + phase + ".ns";
    EXPECT_DOUBLE_EQ(reg.stat(name)->snapshot().sum(), ns) << name;
  }
}

TEST(DesTelemetry, TelemetryDoesNotPerturbTiming) {
  const System sys = small_system();
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const core::Workload w = core::Workload::build(sys, cfg);
  const core::StepTiming plain =
      core::simulate_step(w, cfg, {.include_long_range = true});
  obs::MetricsRegistry reg;
  core::StepOptions opt;
  opt.include_long_range = true;
  opt.metrics = &reg;
  const core::StepTiming observed = core::simulate_step(w, cfg, opt);
  EXPECT_DOUBLE_EQ(plain.step_ns, observed.step_ns);
  EXPECT_EQ(plain.exec.tasks_executed, observed.exec.tasks_executed);
}

TEST(DesTelemetry, StepTraceHasSpansForEveryTask) {
  const System sys = small_system();
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const core::Workload w = core::Workload::build(sys, cfg);
  const std::string path = "test_obs_des_trace.json";
  uint64_t tasks = 0;
  {
    auto tw = obs::TraceWriter::open(path);
    obs::MetricsRegistry reg;
    core::StepOptions opt;
    opt.include_long_range = true;
    opt.metrics = &reg;
    opt.trace = tw.get();
    tasks = core::simulate_step(w, cfg, opt).exec.tasks_executed;
    EXPECT_GT(tw->events_written(), tasks);  // tasks + packets + metadata
  }
  const std::string s = slurp(path);
  EXPECT_TRUE(braces_balanced(s));
  EXPECT_GE(count_occurrences(s, "\"ph\":\"X\""), tasks);
  EXPECT_GT(count_occurrences(s, "\"name\":\"packet\""), 0u);
  EXPECT_GT(count_occurrences(s, "\"name\":\"ser\""), 0u);
  std::remove(path.c_str());
}

// A telemetered estimate() records its workload build as a phase stat and
// reports exactly what an untelemetered one does.
TEST(DesTelemetry, EstimateRecordsWorkloadBuildPhase) {
  const System sys = small_system();
  const auto plain_cfg = arch::MachineConfig::anton2(2, 2, 2);
  auto cfg = plain_cfg;
  const std::string path = "test_obs_estimate_metrics.json";
  cfg.metrics_path = path;
  const core::PerfReport plain = core::AntonMachine(plain_cfg).estimate(sys);
  const core::PerfReport observed = core::AntonMachine(cfg).estimate(sys);

  const std::string s = slurp(path);
  EXPECT_TRUE(braces_balanced(s));
  const size_t at = s.find("\"core.phase.workload_build.seconds\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(s.compare(s.find("\"count\":", at), 9, "\"count\":1"), 0);
  std::remove(path.c_str());

  for (const auto& [p, o] :
       {std::pair{&plain.full_step, &observed.full_step},
        std::pair{&plain.short_step, &observed.short_step}}) {
    EXPECT_EQ(p->step_ns, o->step_ns);
    EXPECT_EQ(p->exec.makespan_ns, o->exec.makespan_ns);
    EXPECT_EQ(p->exec.phase_busy_ns, o->exec.phase_busy_ns);
    EXPECT_EQ(p->exec.phase_end_ns, o->exec.phase_end_ns);
    EXPECT_EQ(p->exec.critical_path_ns, o->exec.critical_path_ns);
    EXPECT_EQ(p->exec.critical_wait_ns, o->exec.critical_wait_ns);
    EXPECT_EQ(p->exec.max_node_busy_ns, o->exec.max_node_busy_ns);
    EXPECT_EQ(p->exec.mean_node_busy_ns, o->exec.mean_node_busy_ns);
    EXPECT_EQ(p->exec.tasks_executed, o->exec.tasks_executed);
    EXPECT_EQ(p->exec.noc.messages, o->exec.noc.messages);
    EXPECT_EQ(p->exec.noc.total_bytes, o->exec.noc.total_bytes);
    EXPECT_EQ(p->exec.noc.latency_ns.sum(), o->exec.noc.latency_ns.sum());
    EXPECT_EQ(p->exec.noc.max_link_busy_ns, o->exec.noc.max_link_busy_ns);
    EXPECT_EQ(p->exec.noc.total_link_busy_ns, o->exec.noc.total_link_busy_ns);
  }
  EXPECT_EQ(plain.us_per_day(), observed.us_per_day());
}

// --- integration: functional MD engine ---------------------------------------

TEST(MdTelemetry, PhaseBreakdownCoversStepTime) {
  System sys = build_water_box(125, 11);
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.0;
  p.respa_k = 1;
  p.long_range = LongRangeMethod::kMesh;
  p.mesh_spacing = 1.1;
  p.telemetry = true;
  ThreadPool pool(2);
  md::Simulation sim(std::move(sys), p, &pool);
  sim.step(20);

  obs::MetricsRegistry* reg = sim.metrics();
  ASSERT_NE(reg, nullptr);
  const RunningStat total = reg->stat("md.step.seconds")->snapshot();
  EXPECT_EQ(total.count(), 20u);
  double phase_sum = 0;
  for (const std::string& name : reg->names()) {
    if (name.rfind("md.phase.", 0) == 0) {
      phase_sum += reg->stat(name)->snapshot().sum();
    }
  }
  // The instrumented phases (integrate/constraints/thermostat/nlist/
  // bonded/pair/fft) cover nearly the whole step; the remainder is glue.
  EXPECT_GT(phase_sum, 0.0);
  EXPECT_LE(phase_sum, 1.10 * total.sum());
  EXPECT_GE(phase_sum, 0.50 * total.sum());
  // The threaded pair kernel reports per-worker spans for imbalance.
  EXPECT_GT(reg->stat("md.pair.thread_seconds")->snapshot().count(), 0u);
}

// The per-step displacement scan that decides whether to rebuild the
// neighbour list is its own phase, beside the rebuild itself.
TEST(MdTelemetry, NlistCheckHasItsOwnPhase) {
  System sys = build_water_box(125, 11);
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kNone;
  p.telemetry = true;
  md::Simulation sim(std::move(sys), p);
  sim.step(5);

  obs::MetricsRegistry* reg = sim.metrics();
  ASSERT_NE(reg, nullptr);
  const std::vector<std::string> names = reg->names();
  auto has = [&](const char* key) {
    return std::find(names.begin(), names.end(), key) != names.end();
  };
  ASSERT_TRUE(has("md.phase.nlist.seconds"));
  ASSERT_TRUE(has("md.phase.nlist_check.seconds"));
  // The first build happens at construction; every step's force
  // evaluation then scans the displacements.
  EXPECT_GE(reg->stat("md.phase.nlist_check.seconds")->snapshot().count(), 5u);
}

TEST(MdTelemetry, DisabledByDefault) {
  System sys = build_water_box(125, 12);
  MdParams p;
  p.cutoff = 6.0;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kNone;
  md::Simulation sim(std::move(sys), p);
  sim.step(2);
  EXPECT_EQ(sim.metrics(), nullptr);
}

TEST(MdTelemetry, ExternalRegistryViaUseTelemetry) {
  System sys = build_water_box(125, 13);
  MdParams p;
  p.cutoff = 6.0;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kNone;
  md::Simulation sim(std::move(sys), p);
  obs::MetricsRegistry reg;
  sim.use_telemetry(&reg, nullptr);
  sim.step(3);
  EXPECT_EQ(sim.metrics(), &reg);
  EXPECT_EQ(reg.stat("md.step.seconds")->snapshot().count(), 3u);
  sim.use_telemetry(nullptr, nullptr);
  sim.step(2);
  EXPECT_EQ(sim.metrics(), nullptr);
  EXPECT_EQ(reg.stat("md.step.seconds")->snapshot().count(), 3u);
}

// ---------------------------------------------------------------------------
// CSV escaping and histogram summary fields.

TEST(MetricsRegistry, CsvEscapesNamesWithCommasAndQuotes) {
  obs::MetricsRegistry reg;
  reg.gauge("weird,name")->set(1.0);
  reg.gauge("has\"quote")->set(2.0);
  reg.counter("plain.name")->add(3);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("\"weird,name\",value,1"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"has\"\"quote\",value,2"), std::string::npos) << csv;
  EXPECT_NE(csv.find("plain.name,value,3"), std::string::npos) << csv;
  // Every data row must still parse to exactly three RFC-4180 fields.
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    int fields = 1;
    bool quoted = false;
    for (char c : line) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) ++fields;
    }
    EXPECT_EQ(fields, 3) << line;
  }
}

TEST(MetricsRegistry, HistogramExportsP95InJsonAndCsv) {
  obs::MetricsRegistry reg;
  obs::Histo* h = reg.histogram("h.lat", 0, 100, 100);
  for (int i = 0; i < 100; ++i) h->add(i + 0.5);
  const std::string j = reg.json();
  EXPECT_NE(j.find("\"p95\":"), std::string::npos);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("h.lat,p95,"), std::string::npos) << csv;
  // p95 of a uniform 0..100 fill lands in the mid-nineties bin.
  const Histogram snap = h->snapshot();
  EXPECT_GT(snap.quantile(0.95), 90.0);
  EXPECT_LT(snap.quantile(0.95), 100.0);
}

TEST(MetricsRegistry, HistogramExportsP99InJsonAndCsv) {
  obs::MetricsRegistry reg;
  obs::Histo* h = reg.histogram("svc.latency_ms", 0, 100, 100);
  // Bimodal latency: dense fast mode, 1% slow tail — the shape p99 exists
  // to expose (p95 sits in the fast mode, p99 at its very edge).
  for (int i = 0; i < 990; ++i) h->add(2.5);
  for (int i = 0; i < 10; ++i) h->add(80.5);
  const std::string j = reg.json();
  EXPECT_NE(j.find("\"p99\":"), std::string::npos);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("svc.latency_ms,p99,"), std::string::npos) << csv;
  const Histogram snap = h->snapshot();
  EXPECT_LT(snap.quantile(0.95), 4.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 3.0);  // exact top of the fast bin
  EXPECT_GT(snap.quantile(0.999), 80.0);
}

// ---------------------------------------------------------------------------
// Hardware counters: real where permitted, graceful everywhere else.

TEST(PerfCounters, ForcedUnavailableFallsBackGracefully) {
  obs::PerfCounters::force_unavailable_for_testing(true);
  obs::PerfCounters pc;
  obs::PerfCounters::force_unavailable_for_testing(false);
  EXPECT_FALSE(pc.available());
  EXPECT_FALSE(pc.unavailable_reason().empty());
  EXPECT_EQ(pc.events_open(), 0);
  const obs::PerfSample s = pc.read();
  EXPECT_FALSE(s.valid);
  EXPECT_EQ(s.cycles, 0.0);
  EXPECT_EQ(s.ipc(), 0.0);
  EXPECT_EQ(s.llc_miss_rate(), 0.0);
}

TEST(PerfCounters, SampleDeltaAndDerivedMetrics) {
  obs::PerfSample a, b;
  a.valid = b.valid = true;
  a.cycles = 1000;
  a.instructions = 2500;
  a.llc_loads = 100;
  a.llc_misses = 25;
  b.cycles = 400;
  b.instructions = 500;
  b.llc_loads = 40;
  b.llc_misses = 5;
  const obs::PerfSample d = a - b;
  EXPECT_TRUE(d.valid);
  EXPECT_DOUBLE_EQ(d.ipc(), 2000.0 / 600.0);
  EXPECT_DOUBLE_EQ(d.llc_miss_rate(), 20.0 / 60.0);
  // Subtracting an invalid sample poisons the delta instead of lying.
  obs::PerfSample invalid;
  EXPECT_FALSE((a - invalid).valid);
}

TEST(PerfCounters, HostCountersEitherWorkOrExplain) {
  obs::PerfCounters pc;
  if (pc.available()) {
    EXPECT_GT(pc.events_open(), 0);
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + i;
    const obs::PerfSample s = pc.read();
    EXPECT_TRUE(s.valid);
    EXPECT_GT(s.cycles, 0.0);
    EXPECT_GT(s.instructions, 0.0);
    EXPECT_TRUE(pc.owned_by_this_thread());
  } else {
    EXPECT_FALSE(pc.unavailable_reason().empty());
  }
}

TEST(PerfCounters, ProfilerDegradesToSecondsOnlyWhenUnavailable) {
  obs::PerfCounters::force_unavailable_for_testing(true);
  obs::PerfCounters pc;
  obs::PerfCounters::force_unavailable_for_testing(false);
  obs::MetricsRegistry reg;
  obs::PhaseProfiler prof;
  prof.enable(&reg, "md");
  prof.enable_perf(&pc);
  EXPECT_FALSE(prof.perf_sampling());
  { auto s = prof.scope("pair"); }
  EXPECT_EQ(reg.stat("md.phase.pair.seconds")->snapshot().count(), 1u);
  EXPECT_EQ(reg.gauge("md.perf.available")->value(), 0.0);
  for (const std::string& name : reg.names()) {
    EXPECT_EQ(name.find(".ipc"), std::string::npos) << name;
    EXPECT_EQ(name.find(".llc_miss_rate"), std::string::npos) << name;
  }
}

TEST(PerfCounters, ProfilerExportsIpcWhenCountersWork) {
  obs::PerfCounters pc;
  if (!pc.available()) GTEST_SKIP() << pc.unavailable_reason();
  obs::MetricsRegistry reg;
  obs::PhaseProfiler prof;
  prof.enable(&reg, "md");
  prof.enable_perf(&pc);
  EXPECT_TRUE(prof.perf_sampling());
  {
    auto s = prof.scope("pair");
    volatile double x = 0;
    for (int i = 0; i < 200000; ++i) x = x + i;
  }
  EXPECT_EQ(reg.gauge("md.perf.available")->value(), 1.0);
  const RunningStat ipc = reg.stat("md.phase.pair.ipc")->snapshot();
  EXPECT_EQ(ipc.count(), 1u);
  EXPECT_GT(ipc.mean(), 0.0);
  EXPECT_LT(ipc.mean(), 16.0);  // sanity: no CPU retires 16 inst/cycle here
}

TEST(MdTelemetry, PerfCountersParamExportsAvailabilityGauge) {
  System sys = build_water_box(125, 14);
  MdParams p;
  p.cutoff = 6.0;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kNone;
  p.telemetry = true;
  p.perf_counters = true;
  md::Simulation sim(std::move(sys), p);
  sim.step(2);
  ASSERT_NE(sim.metrics(), nullptr);
  const double avail = sim.metrics()->gauge("md.perf.available")->value();
  EXPECT_TRUE(avail == 0.0 || avail == 1.0);
  if (avail == 1.0) {
    // Scopes ran on the constructing thread, so IPC stats must have fed.
    EXPECT_GT(sim.metrics()->stat("md.phase.pair.ipc")->snapshot().count(),
              0u);
  }
}

}  // namespace
}  // namespace anton
