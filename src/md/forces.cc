#include "md/forces.h"

#include <algorithm>
#include <cmath>

#include "md/bonded.h"
#include "md/nonbonded.h"

namespace anton::md {

ForceCompute::ForceCompute(std::shared_ptr<const Topology> top, Box box,
                           MdParams params, ThreadPool* pool)
    : top_(std::move(top)),
      box_(box),
      params_(params),
      pool_(pool),
      nlist_(params.cutoff, params.skin) {
  ANTON_CHECK(top_ && top_->finalized());
  switch (params_.long_range) {
    case LongRangeMethod::kDirect:
      ewald_ = std::make_unique<EwaldDirect>(box_, params_.ewald_alpha,
                                             params_.kspace_nmax, pool_);
      break;
    case LongRangeMethod::kMesh:
      gse_ = std::make_unique<GseMesh>(box_, params_.ewald_alpha,
                                       params_.mesh_spacing,
                                       params_.gse_sigma, pool_);
      break;
    case LongRangeMethod::kNone:
      break;
  }
  if (params_.long_range != LongRangeMethod::kNone) {
    ANTON_CHECK_MSG(std::abs(top_->total_charge()) < 1e-6,
                    "Ewald requires a neutral system; net charge = "
                        << top_->total_charge());
  }
  // Build the persistent caches up front so steady-state stepping never
  // touches the allocator: premixed LJ table, prescaled charges, erfc
  // tables, per-thread force buffers, and the compute_all scratch.
  const double alpha =
      params_.long_range == LongRangeMethod::kNone ? 0.0 : params_.ewald_alpha;
  ws_.build_cache(*top_, alpha, params_.cutoff, params_.shift_at_cutoff);
  const size_t n = static_cast<size_t>(top_->num_atoms());
  ws_.ensure_threads(pool_ != nullptr ? pool_->size() : 1, n);
  ws_.f_long().assign(n, Vec3{});
}

void ForceCompute::warm(std::span<const Vec3> pos) { maybe_rebuild(pos); }

void ForceCompute::set_profiler(obs::PhaseProfiler* prof) {
  prof_ = prof != nullptr && prof->enabled() ? prof : nullptr;
  pair_thread_stat_ =
      prof_ != nullptr && pool_ != nullptr
          ? prof_->registry()->stat("md.pair.thread_seconds")
          : nullptr;
  if (gse_) gse_->set_profiler(prof_);
}

void ForceCompute::set_box(const Box& box) {
  box_ = box;
  if (gse_) gse_->set_box(box);
  if (ewald_) ewald_->set_box(box);
  nlist_stale_ = true;
}

void ForceCompute::maybe_rebuild(std::span<const Vec3> pos) {
  bool rebuild = !nlist_.built() || nlist_stale_;
  if (!rebuild) {
    obs::PhaseProfiler::Scope sc(prof_, "nlist_check");
    rebuild = nlist_.needs_rebuild(box_, pos, pool_);
  }
  if (rebuild) {
    obs::PhaseProfiler::Scope sc(prof_, "nlist");
    nlist_.build(box_, pos, *top_, pool_);
    ++nlist_builds_;
    nlist_stale_ = false;
  }
}

EnergyReport ForceCompute::compute_short(std::span<const Vec3> pos,
                                         std::span<Vec3> forces) {
  std::fill(forces.begin(), forces.end(), Vec3{});
  maybe_rebuild(pos);
  EnergyReport e;
  {
    obs::PhaseProfiler::Scope sc(prof_, "bonded");
    compute_all_bonded(box_, *top_, pos, forces, e);
  }
  const double alpha =
      params_.long_range == LongRangeMethod::kNone ? 0.0 : params_.ewald_alpha;
  {
    obs::PhaseProfiler::Scope sc(prof_, "pair");
    compute_nonbonded(box_, *top_, nlist_, pos, alpha, forces, e, pool_,
                      params_.shift_at_cutoff, &ws_,
                      params_.deterministic_forces, pair_thread_stat_);
    if (params_.long_range != LongRangeMethod::kNone) {
      compute_excluded_correction(box_, *top_, pos, params_.ewald_alpha,
                                  forces, e, pool_, &ws_,
                                  params_.deterministic_forces);
    }
  }
  // Net-zero invariant: every short-range term except position restraints
  // (an external field, exempted below) is an internal pair interaction
  // (Newton's third law holds pair by pair), so the reduced forces must sum
  // to zero up to accumulation roundoff.  A violation means a per-thread
  // buffer was lost, double-counted, or not zero-restored.
  if constexpr (kInvariantsEnabled) {
    if (!top_->position_restraints().empty()) return e;
    Vec3 fsum{};
    double fmag = 0;
    for (const Vec3& f : forces) {
      fsum += f;
      fmag += std::abs(f.x) + std::abs(f.y) + std::abs(f.z);
    }
    [[maybe_unused]] const double tol = 1e-9 * fmag + 1e-6;
    ANTON_CHECK_INVARIANT(std::abs(fsum.x) <= tol &&
                              std::abs(fsum.y) <= tol &&
                              std::abs(fsum.z) <= tol,
                          "short-range forces do not sum to zero: " << fsum
                              << " (|F| mass " << fmag << ")");
  }
  return e;
}

EnergyReport ForceCompute::compute_long(std::span<const Vec3> pos,
                                        std::span<Vec3> forces) {
  obs::PhaseProfiler::Scope sc(prof_, "fft");
  std::fill(forces.begin(), forces.end(), Vec3{});
  EnergyReport e;
  switch (params_.long_range) {
    case LongRangeMethod::kDirect:
      ewald_->compute(*top_, pos, forces, e);
      e.coulomb_self += ewald_self_energy(*top_, params_.ewald_alpha);
      break;
    case LongRangeMethod::kMesh:
      gse_->compute(*top_, pos, forces, e, params_.deterministic_forces);
      e.coulomb_self += ewald_self_energy(*top_, params_.ewald_alpha);
      break;
    case LongRangeMethod::kNone:
      break;
  }
  return e;
}

EnergyReport ForceCompute::compute_all(std::span<const Vec3> pos,
                                       std::span<Vec3> forces) {
  EnergyReport e = compute_short(pos, forces);
  // Long-range scratch lives in the workspace: compute_long overwrites it,
  // so a fill suffices and no per-call vector is allocated.
  std::vector<Vec3>& f_long = ws_.f_long();
  f_long.resize(forces.size());
  const EnergyReport e_long = compute_long(pos, f_long);
  for (size_t i = 0; i < forces.size(); ++i) forces[i] += f_long[i];
  e.coulomb_kspace += e_long.coulomb_kspace;
  e.coulomb_self += e_long.coulomb_self;
  e.virial += e_long.virial;
  return e;
}

}  // namespace anton::md
