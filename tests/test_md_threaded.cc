// Threaded short-range pipeline: determinism, serial parity, parallel
// neighbour-list correctness, and the zero-allocation guarantee.
//
// This binary overrides the global allocator with a counting hook so the
// steady-state test can assert that a warmed ForceCompute performs no heap
// allocation at all during stepping — the software analogue of Anton 2's
// fixed-function pipelines, which have no allocator to touch.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "chem/builder.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "md/constraints.h"
#include "md/forces.h"
#include "md/neighborlist.h"
#include "md/nonbonded.h"

namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace anton::md {
namespace {

// 729 molecules = 2187 atoms, above the kernels' serial-fallback threshold,
// so the threaded paths genuinely engage.
const System& water2k() {
  static const System* sys = new System(build_water_box(729, 11));
  return *sys;
}

struct ShortRange {
  std::vector<Vec3> f;
  EnergyReport e;
};

ShortRange eval_short_range(const System& sys, const NeighborList& nlist,
                            ThreadPool* pool, ForceWorkspace* ws) {
  ShortRange r;
  r.f.assign(static_cast<size_t>(sys.num_atoms()), Vec3{});
  compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                    r.f, r.e, pool, /*shift_at_cutoff=*/true, ws);
  compute_excluded_correction(sys.box(), sys.topology(), sys.positions(), 0.35,
                              r.f, r.e, pool, ws);
  return r;
}

void expect_close(const ShortRange& a, const ShortRange& b, double tol) {
  ASSERT_EQ(a.f.size(), b.f.size());
  for (size_t i = 0; i < a.f.size(); ++i) {
    const double scale =
        std::max(1.0, std::sqrt(std::max(norm2(a.f[i]), norm2(b.f[i]))));
    EXPECT_NEAR(a.f[i].x, b.f[i].x, tol * scale) << "atom " << i;
    EXPECT_NEAR(a.f[i].y, b.f[i].y, tol * scale) << "atom " << i;
    EXPECT_NEAR(a.f[i].z, b.f[i].z, tol * scale) << "atom " << i;
  }
  const double escale = std::max(
      {1.0, std::abs(a.e.lj), std::abs(a.e.coulomb_real), std::abs(a.e.virial),
       std::abs(a.e.coulomb_excl)});
  EXPECT_NEAR(a.e.lj, b.e.lj, tol * escale);
  EXPECT_NEAR(a.e.coulomb_real, b.e.coulomb_real, tol * escale);
  EXPECT_NEAR(a.e.coulomb_excl, b.e.coulomb_excl, tol * escale);
  EXPECT_NEAR(a.e.virial, b.e.virial, tol * escale);
}

TEST(Threaded, ForcesMatchSerialAcrossThreadCounts) {
  const System& sys = water2k();
  NeighborList nlist(6.5, 0.7);
  nlist.build(sys.box(), sys.positions(), sys.topology());

  const ShortRange serial = eval_short_range(sys, nlist, nullptr, nullptr);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    ForceWorkspace ws;
    const ShortRange par = eval_short_range(sys, nlist, &pool, &ws);
    expect_close(serial, par, 1e-10);
  }
}

// The serial reference reads its erfc tables from a workspace cache here,
// rather than building them per call as above.
TEST(Threaded, TabulatedForcesMatchSerialTabulated) {
  const System& sys = water2k();
  NeighborList nlist(6.5, 0.7);
  nlist.build(sys.box(), sys.positions(), sys.topology());

  ForceWorkspace ws_serial;
  const ShortRange serial = eval_short_range(sys, nlist, nullptr, &ws_serial);
  for (unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    ForceWorkspace ws;
    const ShortRange par = eval_short_range(sys, nlist, &pool, &ws);
    expect_close(serial, par, 1e-10);
  }
}

TEST(Threaded, DeterministicForFixedThreadCount) {
  const System& sys = water2k();
  NeighborList nlist(6.5, 0.7);
  nlist.build(sys.box(), sys.positions(), sys.topology());

  ThreadPool pool(4);
  ForceWorkspace ws;
  const ShortRange a = eval_short_range(sys, nlist, &pool, &ws);
  const ShortRange b = eval_short_range(sys, nlist, &pool, &ws);
  for (size_t i = 0; i < a.f.size(); ++i) {
    EXPECT_EQ(a.f[i].x, b.f[i].x);
    EXPECT_EQ(a.f[i].y, b.f[i].y);
    EXPECT_EQ(a.f[i].z, b.f[i].z);
  }
  EXPECT_EQ(a.e.lj, b.e.lj);
  EXPECT_EQ(a.e.coulomb_real, b.e.coulomb_real);
  EXPECT_EQ(a.e.coulomb_excl, b.e.coulomb_excl);
  EXPECT_EQ(a.e.virial, b.e.virial);
}

TEST(Threaded, ParallelNlistBuildMatchesSerialCsrExactly) {
  const System& sys = water2k();
  for (unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    NeighborList serial(6.5, 0.7);
    serial.build(sys.box(), sys.positions(), sys.topology());

    ThreadPool pool(threads);
    NeighborList par(6.5, 0.7);
    par.build(sys.box(), sys.positions(), sys.topology(), &pool);

    ASSERT_EQ(serial.num_pairs(), par.num_pairs());
    const auto s0 = serial.starts();
    const auto s1 = par.starts();
    ASSERT_EQ(s0.size(), s1.size());
    for (size_t i = 0; i < s0.size(); ++i) EXPECT_EQ(s0[i], s1[i]);
    for (int i = 0; i < serial.num_atoms(); ++i) {
      const auto n0 = serial.neighbors_of(i);
      const auto n1 = par.neighbors_of(i);
      ASSERT_EQ(n0.size(), n1.size()) << "atom " << i;
      for (size_t k = 0; k < n0.size(); ++k) EXPECT_EQ(n0[k], n1[k]);
    }
  }
}

TEST(Threaded, NeedsRebuildMatchesSerial) {
  const System& sys = water2k();
  NeighborList nlist(6.5, 0.7);
  nlist.build(sys.box(), sys.positions(), sys.topology());
  ThreadPool pool(4);

  std::vector<Vec3> moved(sys.positions().begin(), sys.positions().end());
  EXPECT_FALSE(nlist.needs_rebuild(sys.box(), moved));
  EXPECT_FALSE(nlist.needs_rebuild(sys.box(), moved, &pool));

  // Displace one atom just under, then just over, half the skin.
  moved[100].x += 0.34;
  EXPECT_FALSE(nlist.needs_rebuild(sys.box(), moved));
  EXPECT_FALSE(nlist.needs_rebuild(sys.box(), moved, &pool));
  moved[100].x += 0.02;
  EXPECT_TRUE(nlist.needs_rebuild(sys.box(), moved));
  EXPECT_TRUE(nlist.needs_rebuild(sys.box(), moved, &pool));
}

// Both modes run the vectorized pair kernel: the SoA position staging and
// lane buffers live in ForceWorkspace (sized at warm-up, not per call), so
// the steady state stays allocation-free for the double-batch path and the
// deterministic fixed-point-batch path alike.
TEST(Threaded, SteadyStateShortRangeIsAllocationFree) {
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kMesh;
  for (const bool deterministic : {false, true}) {
    SCOPED_TRACE(deterministic ? "deterministic" : "fast");
    p.deterministic_forces = deterministic;
    ThreadPool pool(4);
    System sys = build_water_box(729, 11);
    ForceCompute force(sys.topology_ptr(), sys.box(), p, &pool);
    force.warm(sys.positions());

    std::vector<Vec3> f(static_cast<size_t>(sys.num_atoms()));
    // Two warm-up evaluations let every lazily-touched buffer reach its
    // steady-state size.
    force.compute_short(sys.positions(), f);
    force.compute_short(sys.positions(), f);

    const std::int64_t before = g_allocs.load();
    force.compute_short(sys.positions(), f);
    const std::int64_t during = g_allocs.load() - before;
    EXPECT_EQ(during, 0) << "steady-state compute_short allocated";

    // A rebuild at steady state reuses the persistent CSR and shard scratch.
    const std::int64_t before_build = g_allocs.load();
    NeighborList& nlist = const_cast<NeighborList&>(force.nlist());
    nlist.build(sys.box(), sys.positions(), sys.topology(), &pool);
    const std::int64_t during_build = g_allocs.load() - before_build;
    EXPECT_EQ(during_build, 0) << "steady-state nlist build allocated";
  }
}

// A warmed, pooled SHAKE + RATTLE touches no allocator: the clusters, their
// constants and the direction scratch are sized at construction, and the
// pool dispatch is a function-pointer trampoline.
TEST(Threaded, SteadyStateConstraintsAreAllocationFree) {
  ThreadPool pool(4);
  const System& sys = water2k();
  ConstraintClusters clusters(sys.topology());
  const std::vector<Vec3> ref(sys.positions().begin(), sys.positions().end());
  std::vector<Vec3> pos = ref;
  std::vector<Vec3> vel(sys.velocities().begin(), sys.velocities().end());
  Rng rng(5, 0);
  for (auto& p : pos) p += 0.02 * rng.gaussian_vec3();
  const std::vector<Vec3> drifted = pos;

  clusters.shake(sys.box(), ref, pos, vel, 0.05, 1e-8, 500, &pool);
  clusters.rattle(sys.box(), pos, vel, 1e-8, 500, &pool);

  pos = drifted;
  const std::int64_t before = g_allocs.load();
  const ShakeStats s =
      clusters.shake(sys.box(), ref, pos, vel, 0.05, 1e-8, 500, &pool);
  const ShakeStats r = clusters.rattle(sys.box(), pos, vel, 1e-8, 500, &pool);
  const std::int64_t during = g_allocs.load() - before;
  EXPECT_TRUE(s.converged);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(during, 0) << "steady-state SHAKE + RATTLE allocated";
}

// The long-range path — GSE spread, threaded r2c FFT, k-space multiply,
// inverse FFT, gather — must also run allocation-free once warmed: the FFT
// plan owns per-thread scratch, and the GSE workspace holds the per-thread
// grids and axis-weight arrays persistently.
TEST(Threaded, SteadyStateLongRangeIsAllocationFree) {
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kMesh;
  for (const bool deterministic : {false, true}) {
    SCOPED_TRACE(deterministic ? "deterministic" : "fast");
    p.deterministic_forces = deterministic;
    ThreadPool pool(4);
    System sys = build_water_box(729, 11);
    ForceCompute force(sys.topology_ptr(), sys.box(), p, &pool);
    force.warm(sys.positions());

    std::vector<Vec3> f(static_cast<size_t>(sys.num_atoms()));
    force.compute_long(sys.positions(), f);
    force.compute_long(sys.positions(), f);

    const std::int64_t before = g_allocs.load();
    force.compute_long(sys.positions(), f);
    const std::int64_t during = g_allocs.load() - before;
    EXPECT_EQ(during, 0) << "steady-state compute_long allocated";

    // The combined evaluation (short + long) is the per-step hot path.
    force.compute_all(sys.positions(), f);
    const std::int64_t before_all = g_allocs.load();
    force.compute_all(sys.positions(), f);
    const std::int64_t during_all = g_allocs.load() - before_all;
    EXPECT_EQ(during_all, 0) << "steady-state compute_all allocated";
  }
}

}  // namespace
}  // namespace anton::md
