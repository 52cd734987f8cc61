// estimate_dhfr512: serial, cold AntonMachine::estimate() calls for the
// 23,558-atom DHFR-class system on a 512-node (8x8x8) Anton 2 — the paper's
// headline point.  The host MD engine and the estimator service are not on
// this path.
//
// Untraced run: estimate() back to back; every report must be bitwise equal
// to the first.  Traced run: estimate() alternates with the same work done
// through the public layer functions estimate() is made of (Workload::build,
// then a full-step and a short-step TimestepRunner), each call a span; the
// decomposition's report must be bitwise equal to estimate()'s.

#include <memory>

#include "bench.h"
#include "chem/builder.h"
#include "core/machine.h"
#include "core/timestep.h"
#include "core/workload.h"
#include "report_digest.h"

namespace perfbench {
namespace {

using anton::core::PerfReport;

struct Setup {
  anton::System system;
  anton::core::AntonMachine machine;
};

Setup make_setup(uint64_t seed) {
  return Setup{anton::build_benchmark_system(anton::dhfr_spec(), seed),
               anton::core::AntonMachine(anton::arch::MachineConfig::anton2(8, 8, 8))};
}

// estimate() rebuilt from its public parts, one span per call.
PerfReport traced_estimate(const Setup& s, SpanBuffer& buf, int64_t query,
                           int32_t root) {
  const anton::arch::MachineConfig& cfg = s.machine.config();
  const double dt_fs = 2.5;
  const int respa_k = 2;
  PerfReport r;
  r.machine = cfg.name;
  r.nodes = s.machine.nodes();
  r.atoms = s.system.num_atoms();
  r.dt_fs = dt_fs;
  r.respa_k = respa_k;
  std::unique_ptr<anton::core::Workload> w;
  {
    Scope sc(buf, "core.workload_build", root, query);
    w = std::make_unique<anton::core::Workload>(
        anton::core::Workload::build(s.system, cfg));
  }
  for (const bool full : {true, false}) {
    std::unique_ptr<anton::core::TimestepRunner> runner;
    {
      Scope sc(buf, "core.runner_build", root, query);
      runner = std::make_unique<anton::core::TimestepRunner>(
          *w, cfg, anton::core::StepOptions{.include_long_range = full});
    }
    {
      Scope sc(buf, full ? "core.des_full" : "core.des_short", root, query);
      runner->run_timestep();
    }
    (full ? r.full_step : r.short_step) = runner->timing();
  }
  return r;
}

}  // namespace

Outcome run_estimate_dhfr512(const RunArgs& args) {
  Outcome out;
  // Set-up is cheap (system build + machine), so it is repeated and the
  // median reported.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    setup = std::make_unique<Setup>(make_setup(args.seed));
    setup_s.push_back(now_s() - t0);
  }

  // Warm-up: the first estimate() of the process, reported on its own.  Its
  // report is the reference every later call must reproduce bitwise.
  double t0 = now_s();
  const PerfReport ref = setup->machine.estimate(setup->system);
  const double first_s = now_s() - t0;
  const std::string ref_digest = digest(ref);
  ++out.attempted;

  SpanBuffer buf(args.trace);
  std::vector<double> plain_s, traced_s;
  const double t_end = now_s() + args.seconds;
  int64_t query = 0;
  while (now_s() < t_end) {
    t0 = now_s();
    const PerfReport r = setup->machine.estimate(setup->system);
    plain_s.push_back(now_s() - t0);
    ++out.attempted;
    if (digest(r) != ref_digest) out.fail(1, "estimate() report differs from the first call");
    if (!args.trace) continue;

    t0 = now_s();
    PerfReport d;
    {
      Scope root(buf, "core.estimate", -1, query);
      d = traced_estimate(*setup, buf, query, root.id());
    }
    traced_s.push_back(now_s() - t0);
    ++query;
    ++out.attempted;
    if (digest(d) != ref_digest) {
      out.fail(1, "layer decomposition report differs from estimate()");
    }
  }

  const double p50_ms = median(plain_s) * 1e3;
  out.diag("estimate.first_ms", first_s * 1e3, "ms");
  out.diag("estimate.calls", static_cast<double>(plain_s.size()), "count");
  out.diag("model.us_per_day", ref.us_per_day(), "us/day");
  if (!args.trace) {
    out.metric("setup_s", median(setup_s), "s");
    out.metric("ops_per_s", static_cast<double>(plain_s.size()) / sum(plain_s), "1/s");
    out.metric("op_ms.p50", p50_ms, "ms");
    return out;
  }

  const SelfTimes self = self_times({&buf});
  const double wb = median(self.of("core.workload_build")) * 1e3;
  // Two runner builds per estimate: report their per-estimate sum.
  std::vector<double> rb_per_call;
  const std::vector<double>& rb = self.of("core.runner_build");
  for (size_t i = 0; i + 1 < rb.size(); i += 2) rb_per_call.push_back(rb[i] + rb[i + 1]);
  const double rbm = median(rb_per_call) * 1e3;
  const double df = median(self.of("core.des_full")) * 1e3;
  const double ds = median(self.of("core.des_short")) * 1e3;
  const double glue = median(self.of("core.estimate")) * 1e3;
  const double tasks = static_cast<double>(ref.full_step.exec.tasks_executed +
                                           ref.short_step.exec.tasks_executed);
  out.metric("core.estimate_ms.p50", p50_ms, "ms");
  out.metric("core.warmup_ms", first_s * 1e3, "ms");
  out.metric("core.workload_build_ms", wb, "ms");
  out.metric("core.runner_build_ms", rbm, "ms");
  out.metric("core.des_full_ms", df, "ms");
  out.metric("core.des_short_ms", ds, "ms");
  out.metric("core.other_ms", glue, "ms");
  out.metric("core.layer_sum_frac", p50_ms > 0 ? (wb + rbm + df + ds) / p50_ms : 0.0, "ratio");
  out.metric("core.tasks", tasks, "count");
  out.metric("core.noc.messages",
             static_cast<double>(ref.full_step.exec.noc.messages +
                                 ref.short_step.exec.noc.messages),
             "count");
  out.metric("core.des.tasks_per_s", df + ds > 0 ? tasks / ((df + ds) * 1e-3) : 0.0, "1/s");
  out.metric("model.us_per_day", ref.us_per_day(), "us/day");
  out.metric("model.full_step_ns", ref.full_step.step_ns, "ns");
  out.metric("trace.overhead_pct",
             p50_ms > 0 ? (median(traced_s) * 1e3 / p50_ms - 1.0) * 100.0 : 0.0, "%");
  out.metric("trace.spans", static_cast<double>(buf.spans().size()), "count");
  if (!args.span_path.empty() && !write_spans(args.span_path, {&buf}, t_end - args.seconds)) {
    out.fail(1, "could not write " + args.span_path);
  }
  return out;
}

}  // namespace perfbench
