// md_dhfr: the host MD engine on the 23,558-atom DHFR-class system at
// default MdParams (GSE mesh, RESPA k=2, exact erfc), NVE, with a pool of one
// thread per core.  Every md layer does its work here and the machine model
// and service do none.
//
// Set-up minimises the built system, then equilibrates it with a Berendsen
// thermostat (tau 10 fs) for 300 fs: the minimised system releases enough
// potential energy to heat from 300 K to about 450 K, and an NVE run started
// straight after minimisation would time a system that is still relaxing,
// hotter and rebuilding its neighbour list more often.
//
// An operation is one MD step.  Steps are timed per RESPA cycle (k steps: one
// with the long-range solve, k-1 without), so the per-step median is not split
// between the two kinds of step.
//
// The traced run interleaves three things until --seconds have passed: an
// untraced cycle, a traced cycle (one span per step), and a probe round that
// calls each md layer's public function once on a fixed snapshot (neighbour
// list build, compute_short on a built list, compute_long, the FFT round trip
// at the GSE mesh size, SHAKE + RATTLE).  Interleaving puts the probes and the
// steps they are compared with under the same background load.

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bench.h"
#include "chem/builder.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "fft/fft.h"
#include "md/constraints.h"
#include "md/engine.h"
#include "md/forces.h"
#include "md/minimize.h"
#include "md/neighborlist.h"

namespace perfbench {
namespace {

using anton::MdParams;
using anton::System;
using anton::Vec3;

constexpr int kEquilibrationSteps = 120;  // 300 fs at the default 2.5 fs

// Known defect of the builder and minimiser: for about one seed in nine (105,
// 113, 202, 204 and 507 among about 55 tried) build_benchmark_system leaves
// light side beads in contacts that 200 steps of minimize_energy do not
// resolve, and the integrator fails at the default 2.5 fs (SHAKE stops
// converging) even after a gentle start at 0.5 fs.  A benchmark must not time a system that is
// blowing up, so the set-up rejects such a system, says so on stderr and in
// md.setup_rejects, and builds the next candidate from a seed derived from
// the run seed.  The run seed itself is used whenever it works.
constexpr int kSetupAttempts = 4;
constexpr uint64_t kRejectSeedStride = 1000003;

// Builds the DHFR-class system for `seed`, minimises it and equilibrates it
// at 300 K.  Throws anton::Error when the integrator fails on it.
System prepare(uint64_t seed, const MdParams& params, anton::ThreadPool* pool) {
  System system = anton::build_benchmark_system(anton::dhfr_spec(), seed);
  anton::md::minimize_energy(system, params, 200, 0.1, 10.0, pool);
  system.assign_velocities(params.temperature_k, seed);
  MdParams eq = params;
  eq.thermostat = anton::ThermostatKind::kBerendsen;
  eq.thermostat_tau_fs = 10.0;
  anton::md::Simulation sim(std::move(system), eq, pool);
  sim.step(kEquilibrationSteps);
  return sim.system();
}

double total_energy(const anton::md::Simulation& sim) {
  return sim.last_energy().potential() + sim.system().kinetic_energy();
}

// One call of each md layer's public function on a fixed snapshot.
class Probes {
 public:
  Probes(const System& snap, const MdParams& params, anton::ThreadPool* pool,
         uint64_t seed)
      : snap_(snap),
        params_(params),
        pool_(pool),
        nl_(params.cutoff, params.skin),
        fc_(snap.topology_ptr(), snap.box(), params, pool),
        forces_(static_cast<size_t>(snap.num_atoms())),
        fft_(fc_.gse()->nx(), fc_.gse()->ny(), fc_.gse()->nz(), pool),
        grid_(fft_.num_points()),
        back_(fft_.num_points()),
        spec_(fft_.half_points()),
        drifted_(forces_.size()),
        vel_(forces_.size()) {
    fc_.warm(snap_.positions());
    anton::Rng rng(seed);
    for (double& g : grid_) g = rng.uniform() - 0.5;
  }

  double pairs() const { return static_cast<double>(fc_.pair_count()); }

  // Runs one round; appends each layer's seconds to `t`.  Returns an error
  // description, empty when every output checked out.
  struct Times {
    std::vector<double> build, short_range, long_range, fft, constraints;
  };
  std::string round(SpanBuffer& buf, int64_t query, Times& t) {
    std::string err;
    const std::span<const Vec3> pos = snap_.positions();
    Scope root(buf, "md.probe", -1, query);
    t.build.push_back(timed(buf, "md.nlist.build", root.id(), query, [&] {
      nl_.build(snap_.box(), pos, snap_.topology(), pool_);
    }));
    t.short_range.push_back(timed(buf, "md.short", root.id(), query, [&] {
      fc_.compute_short(pos, forces_);
    }));
    t.long_range.push_back(timed(buf, "md.long", root.id(), query, [&] {
      fc_.compute_long(pos, forces_);
    }));
    if (fc_.nlist_builds() != 1) err = "probe ForceCompute rebuilt its neighbour list";
    t.fft.push_back(timed(buf, "fft.roundtrip", root.id(), query, [&] {
      fft_.forward_real(grid_, spec_);
      fft_.inverse_real(spec_, back_);
    }));
    double fft_err = 0;
    for (size_t i = 0; i < grid_.size(); ++i) {
      fft_err = std::max(fft_err, std::abs(back_[i] - grid_[i]));
    }
    if (!(fft_err < 1e-12)) err = "FFT round trip error " + std::to_string(fft_err);

    // SHAKE + RATTLE on an unconstrained drift of the snapshot, from fresh
    // copies (made outside the span).
    const double dt = anton::units::fs_to_internal(params_.dt_fs);
    for (size_t a = 0; a < pos.size(); ++a) {
      vel_[a] = snap_.velocities()[a];
      drifted_[a] = pos[a] + dt * vel_[a];
    }
    anton::md::ShakeStats ss, rs;
    t.constraints.push_back(timed(buf, "md.constraints", root.id(), query, [&] {
      ss = anton::md::shake(snap_.box(), snap_.topology(), pos, drifted_, vel_, dt,
                            params_.shake_tol, params_.shake_max_iter);
      rs = anton::md::rattle(snap_.box(), snap_.topology(), drifted_, vel_,
                             params_.shake_tol, params_.shake_max_iter);
    }));
    if (!ss.converged || !rs.converged) err = "SHAKE/RATTLE probe did not converge";
    return err;
  }

 private:
  template <class F>
  static double timed(SpanBuffer& buf, const char* name, int32_t parent,
                      int64_t query, F&& fn) {
    const double t0 = now_s();
    {
      Scope sc(buf, name, parent, query);
      fn();
    }
    return now_s() - t0;
  }

  const System& snap_;
  const MdParams& params_;
  anton::ThreadPool* pool_;
  anton::NeighborList nl_;
  anton::md::ForceCompute fc_;
  std::vector<Vec3> forces_;
  anton::Fft3D fft_;
  std::vector<double> grid_, back_;
  std::vector<anton::Complex> spec_;
  std::vector<Vec3> drifted_, vel_;
};

}  // namespace

Outcome run_md_dhfr(const RunArgs& args) {
  Outcome out;
  const MdParams params;  // the defaults are the workload
  const int k = params.respa_k;
  anton::ThreadPool pool(args.threads);

  // Set-up costs about half a minute, so it runs once.
  const double t_setup = now_s();
  int rejected = 0;
  std::optional<System> system;
  for (int attempt = 0; attempt < kSetupAttempts && !system; ++attempt) {
    const uint64_t system_seed = args.seed + static_cast<uint64_t>(attempt) * kRejectSeedStride;
    try {
      system = prepare(system_seed, params, &pool);
    } catch (const anton::Error& e) {
      ++rejected;
      std::fprintf(stderr,
                   "md_dhfr: system seed %llu blows up during equilibration, "
                   "rejected (%s)\n",
                   static_cast<unsigned long long>(system_seed), e.what());
    }
  }
  if (!system) throw anton::Error("md_dhfr: no integrable system in the set-up attempts");
  anton::md::Simulation sim(*system, params, &pool);
  const double setup_s = now_s() - t_setup;
  out.diag("md.setup_rejects", rejected, "count");

  // Warm-up: the first cycle after construction (first force evaluation,
  // first neighbour-list build, scratch growth), reported on its own.
  double t0 = now_s();
  sim.step(k);
  const double warmup_step_s = (now_s() - t0) / k;
  out.attempted += k;

  SpanBuffer buf(args.trace);
  std::unique_ptr<Probes> probes;
  Probes::Times probe_t;
  const System snap = sim.system();
  if (args.trace) {
    // One untimed round grows every probe's scratch to its steady size.
    probes = std::make_unique<Probes>(snap, params, &pool, args.seed);
    SpanBuffer off(false);
    Probes::Times ignored;
    probes->round(off, -1, ignored);
  }

  std::vector<double> cycle_s;   // untraced cycles
  std::vector<double> traced_s;  // traced cycles
  std::vector<double> step_s;    // steps of traced cycles
  std::vector<double> energy, temperature;
  int64_t traced_rebuilds = 0, query = 0;
  // Total energy is exact at cycle ends, where the long-range energy is fresh.
  energy.push_back(total_energy(sim));
  const double t_end = now_s() + args.seconds;
  // A step that fails (the integrator throws when SHAKE or RATTLE do not
  // converge) ends the measurement and counts as a failed operation.
  try {
    while (now_s() < t_end) {
      t0 = now_s();
      sim.step(k);
      cycle_s.push_back(now_s() - t0);
      out.attempted += k;
      if (args.trace) {
        t0 = now_s();
        {
          Scope root(buf, "md.cycle", -1, query);
          for (int i = 0; i < k; ++i) {
            const int64_t builds = sim.forces().nlist_builds();
            const double ts = now_s();
            {
              Scope sc(buf, "md.step", root.id(), query);
              sim.step(1);
            }
            step_s.push_back(now_s() - ts);
            traced_rebuilds += sim.forces().nlist_builds() - builds;
          }
        }
        traced_s.push_back(now_s() - t0);
        out.attempted += k;
        ++query;
        ++out.attempted;
        const std::string err = probes->round(buf, query++, probe_t);
        if (!err.empty()) out.fail(1, err);
      }

      const double viol = anton::md::max_constraint_violation(
          sim.system().box(), sim.system().topology(), sim.system().positions());
      const double e = total_energy(sim);
      if (!std::isfinite(e)) {
        out.fail(k, "non-finite energy");
        break;
      }
      if (!(viol <= params.shake_tol)) {
        out.fail(k, "constraint violation " + std::to_string(viol) + " above shake_tol");
      }
      energy.push_back(e);
      temperature.push_back(sim.system().temperature());
    }
  } catch (const anton::Error& e) {
    out.fail(k, std::string("integration failed: ") + e.what());
  }

  // Total-energy change over the measured run, relative to the kinetic energy.
  const double drift = (energy.back() - energy.front()) / sim.system().kinetic_energy();
  const double step_mean_ms = mean(cycle_s) / k * 1e3;
  const double ns_per_day = params.dt_fs * 1e-6 * 86400.0 / (step_mean_ms * 1e-3);
  out.diag("md.warmup_ms", warmup_step_s * 1e3, "ms");
  out.diag("md.temperature_k", mean(temperature), "K");
  out.diag("md.energy_drift", drift, "ratio");
  out.diag("md.ns_per_day", ns_per_day, "ns/day");
  if (!args.trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("ops_per_s", static_cast<double>(cycle_s.size() * k) / sum(cycle_s), "1/s");
    out.metric("op_ms.p50", median(cycle_s) / k * 1e3, "ms");
    return out;
  }

  // Single-thread step time on a copy of the snapshot, for parallel
  // efficiency (one warm-up cycle, then two timed).
  std::vector<double> t1_s;
  {
    anton::md::Simulation s1(snap, params, nullptr);
    s1.step(k);
    for (int i = 0; i < 2; ++i) {
      t0 = now_s();
      {
        Scope sc(buf, "md.t1.cycle", -1, query++);
        s1.step(k);
      }
      t1_s.push_back((now_s() - t0) / k);
    }
    out.attempted += 3 * k;
  }

  const double rebuild_frac =
      step_s.empty() ? 0.0 : static_cast<double>(traced_rebuilds) / step_s.size();
  const double build_ms = median(probe_t.build) * 1e3;
  const double short_ms = median(probe_t.short_range) * 1e3;
  const double long_ms = median(probe_t.long_range) * 1e3;
  const double con_ms = median(probe_t.constraints) * 1e3;
  const double traced_step_ms = mean(step_s) * 1e3;
  RateMeter pair_rate;
  for (double s : probe_t.short_range) pair_rate.add(probes->pairs(), s);
  const double t1_ms = median(t1_s) * 1e3;

  out.metric("md.nlist.build_ms", build_ms, "ms");
  out.metric("md.nlist.rebuild_frac", rebuild_frac, "ratio");
  out.metric("md.nlist.pairs", probes->pairs(), "count");
  out.metric("md.short_ms", short_ms, "ms");
  out.metric("md.pair_rate", pair_rate.rate(), "1/s");
  out.metric("md.long_ms", long_ms, "ms");
  out.metric("fft.roundtrip_ms", median(probe_t.fft) * 1e3, "ms");
  out.metric("md.constraints_ms", con_ms, "ms");
  // Per step: one compute_short and one SHAKE+RATTLE, a compute_long every
  // k steps, a neighbour-list build on rebuild_frac of steps.
  out.metric("md.other_ms",
             traced_step_ms - (short_ms + long_ms / k + con_ms + rebuild_frac * build_ms),
             "ms");
  out.metric("md.step_ms.mean", traced_step_ms, "ms");
  out.metric("md.step_ms.p50", median(step_s) * 1e3, "ms");
  out.metric("md.step_ms.p90", quantile(step_s, 0.9) * 1e3, "ms");
  out.metric("md.warmup_ms", warmup_step_s * 1e3, "ms");
  out.metric("md.setup_rejects", rejected, "count");
  out.metric("md.t1.ms_per_step", t1_ms, "ms");
  out.metric("md.parallel_eff", t1_ms / (args.threads * traced_step_ms), "ratio");
  out.metric("md.temperature_k", mean(temperature), "K");
  out.metric("md.energy_drift", drift, "ratio");
  out.metric("md.ns_per_day", params.dt_fs * 1e-6 * 86400.0 / (traced_step_ms * 1e-3),
             "ns/day");
  out.metric("trace.overhead_pct", (median(traced_s) / median(cycle_s) - 1.0) * 100.0, "%");
  out.metric("trace.spans", static_cast<double>(buf.spans().size()), "count");
  if (!args.span_path.empty() && !write_spans(args.span_path, {&buf}, t_end - args.seconds)) {
    out.fail(1, "could not write " + args.span_path);
  }
  return out;
}

}  // namespace perfbench
