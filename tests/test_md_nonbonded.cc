#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "chem/builder.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "md/neighborlist.h"
#include "md/nonbonded.h"

namespace anton::md {
namespace {

// Two neutral LJ particles in a big box.
struct LjPairFixture {
  Box box = Box::cube(40.0);
  ForceField ff = ForceField::standard();
  std::shared_ptr<Topology> top;

  LjPairFixture() {
    top = std::make_shared<Topology>(ff);
    top->add_atom(ForceField::Std::kCB, 0.0);
    top->add_atom(ForceField::Std::kCB, 0.0);
    top->finalize();
  }
};

TEST(NeighborList, MatchesBruteForce) {
  const System sys = build_water_box(343, 17, -1);
  const Topology& top = sys.topology();
  NeighborList nlist(6.0, 1.0);
  nlist.build(sys.box(), sys.positions(), top);

  // Brute force reference.
  std::set<std::pair<int, int>> ref;
  const auto pos = sys.positions();
  const double rl2 = 7.0 * 7.0;
  for (int i = 0; i < sys.num_atoms(); ++i) {
    for (int j = i + 1; j < sys.num_atoms(); ++j) {
      if (top.excluded(i, j)) continue;
      if (norm2(sys.box().min_image(pos[static_cast<size_t>(i)],
                                    pos[static_cast<size_t>(j)])) < rl2) {
        ref.insert({i, j});
      }
    }
  }

  std::set<std::pair<int, int>> got;
  for (int i = 0; i < sys.num_atoms(); ++i) {
    for (int j : nlist.neighbors_of(i)) {
      EXPECT_GT(j, i);
      EXPECT_TRUE(got.insert({i, j}).second) << "duplicate pair";
    }
  }
  EXPECT_EQ(got, ref);
}

TEST(NeighborList, ExcludesTopologicalPairs) {
  const System sys = build_water_box(125, 18, -1);
  NeighborList nlist(6.0, 0.5);
  nlist.build(sys.box(), sys.positions(), sys.topology());
  for (const auto& w : sys.topology().waters()) {
    for (int j : nlist.neighbors_of(w.o)) {
      EXPECT_NE(j, w.h1);
      EXPECT_NE(j, w.h2);
    }
  }
}

TEST(NeighborList, RebuildTriggersOnDisplacement) {
  const System sys = build_water_box(216, 19, -1);
  NeighborList nlist(6.0, 1.0);
  nlist.build(sys.box(), sys.positions(), sys.topology());
  std::vector<Vec3> moved(sys.positions().begin(), sys.positions().end());
  EXPECT_FALSE(nlist.needs_rebuild(sys.box(), moved));
  moved[0] += Vec3{0.3, 0, 0};  // under skin/2 = 0.5
  EXPECT_FALSE(nlist.needs_rebuild(sys.box(), moved));
  moved[0] += Vec3{0.4, 0, 0};  // now 0.7 > 0.5
  EXPECT_TRUE(nlist.needs_rebuild(sys.box(), moved));
}

TEST(NeighborList, RejectsListRadiusBeyondMinImage) {
  const System sys = build_water_box(27, 20, -1);  // small box
  NeighborList nlist(100.0, 1.0);
  EXPECT_THROW(nlist.build(sys.box(), sys.positions(), sys.topology()),
               Error);
}

// Standard FNV-1a over the little-endian bytes of each value added.
struct Fnv1a {
  uint64_t h = 14695981039346656037ULL;
  void add(uint64_t v, int bytes) {
    for (int k = 0; k < bytes; ++k) {
      h ^= (v >> (8 * k)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
};

// Golden CSR digests: FNV-1a over every starts() offset (8 bytes each) and
// then every row entry (4 bytes each), serial and on a 4-thread pool.  The
// neighbour list feeds every force loop, so a rebuild of the list must give
// exactly these layouts; a change that means to move them must re-record
// the constants (the failure message prints the new digest) and say why.
TEST(NeighborList, GoldenCsrDigests) {
  const System water = build_water_box(729, 11);
  const System dhfr = build_benchmark_system(dhfr_spec(), 1);
  // Fewer than 3 cells of the 9 A list radius per axis: the O(N^2) path.
  const System tiny = build_water_box(343, 21, -1);
  ASSERT_LT(tiny.box().lengths().x, 3 * 9.0);
  const struct {
    const char* name;
    const System* sys;
    double cutoff, skin;
    uint64_t digest;
  } cases[] = {
      {"water2k 6.5/0.7", &water, 6.5, 0.7, 0x72160a0fddd61326ULL},
      {"dhfr seed 1 9/1", &dhfr, 9.0, 1.0, 0x7274444cc972d91fULL},
      {"tiny grid 8/1", &tiny, 8.0, 1.0, 0xae0aa55ce10cb8f3ULL},
  };
  ThreadPool pool(4);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(p == nullptr ? "serial" : "4 threads");
      NeighborList nlist(c.cutoff, c.skin);
      nlist.build(c.sys->box(), c.sys->positions(), c.sys->topology(), p);
      Fnv1a d;
      for (int64_t s : nlist.starts()) d.add(static_cast<uint64_t>(s), 8);
      for (int i = 0; i < nlist.num_atoms(); ++i) {
        for (int j : nlist.neighbors_of(i)) {
          d.add(static_cast<uint32_t>(j), 4);
        }
      }
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llxULL",
                    static_cast<unsigned long long>(d.h));
      EXPECT_EQ(d.h, c.digest) << "digest is now " << hex << " ("
                               << nlist.num_pairs() << " pairs)";
    }
  }
}

TEST(Nonbonded, LjMinimumEnergyAndLocation) {
  LjPairFixture fx;
  // CB-CB: eps = 0.0860, sigma = 3.9.  Minimum at 2^{1/6} sigma.
  const double rmin = std::pow(2.0, 1.0 / 6.0) * 3.9;
  std::vector<Vec3> pos{{10, 10, 10}, {10 + rmin, 10, 10}};
  NeighborList nlist(9.0, 0.5);
  nlist.build(fx.box, pos, *fx.top);
  std::vector<Vec3> f(2);
  EnergyReport e;
  compute_nonbonded(fx.box, *fx.top, nlist, pos, 0.0, f, e);
  EXPECT_NEAR(e.lj, -0.0860, 1e-9);
  EXPECT_NEAR(f[0].x, 0.0, 1e-9);  // zero force at the minimum
}

TEST(Nonbonded, LjForceMatchesFiniteDifference) {
  LjPairFixture fx;
  std::vector<Vec3> pos{{10, 10, 10}, {13.4, 10.7, 9.2}};
  NeighborList nlist(9.0, 0.5);
  nlist.build(fx.box, pos, *fx.top);
  std::vector<Vec3> f(2);
  EnergyReport e;
  compute_nonbonded(fx.box, *fx.top, nlist, pos, 0.0, f, e);

  const double h = 1e-6;
  for (int ax = 0; ax < 3; ++ax) {
    auto energy_at = [&](double delta) {
      std::vector<Vec3> p = pos;
      p[1][ax] += delta;
      EnergyReport er;
      std::vector<Vec3> tmp(2);
      NeighborList nl(9.0, 0.5);
      nl.build(fx.box, p, *fx.top);
      compute_nonbonded(fx.box, *fx.top, nl, p, 0.0, tmp, er);
      return er.lj + er.coulomb_real;
    };
    const double fd = -(energy_at(h) - energy_at(-h)) / (2 * h);
    EXPECT_NEAR(f[1][ax], fd, 1e-6);
  }
}

TEST(Nonbonded, ScreenedCoulombMatchesErfc) {
  // Two opposite charges; alpha > 0 must give erfc-screened energy.
  Box box = Box::cube(40.0);
  ForceField ff = ForceField::standard();
  auto top = std::make_shared<Topology>(ff);
  top->add_atom(ForceField::Std::kION, 1.0);
  top->add_atom(ForceField::Std::kION, -1.0);
  top->finalize();
  const double r = 4.0, alpha = 0.35;
  std::vector<Vec3> pos{{10, 10, 10}, {14, 10, 10}};
  NeighborList nlist(9.0, 0.5);
  nlist.build(box, pos, *top);
  std::vector<Vec3> f(2);
  EnergyReport e;
  compute_nonbonded(box, *top, nlist, pos, alpha, f, e);
  const double lj_part = e.lj;
  const double expected =
      -units::kCoulomb * std::erfc(alpha * r) / r;
  EXPECT_NEAR(e.coulomb_real, expected, 1e-9);
  (void)lj_part;
}

TEST(Nonbonded, ThreadedMatchesSerial) {
  const System sys = build_water_box(729, 21, -1);
  NeighborList nlist(8.0, 1.0);
  nlist.build(sys.box(), sys.positions(), sys.topology());

  std::vector<Vec3> f_serial(static_cast<size_t>(sys.num_atoms()));
  EnergyReport e_serial;
  compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                    f_serial, e_serial, nullptr);

  ThreadPool pool(4);
  std::vector<Vec3> f_par(static_cast<size_t>(sys.num_atoms()));
  EnergyReport e_par;
  compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                    f_par, e_par, &pool);

  EXPECT_NEAR(e_serial.lj, e_par.lj, 1e-8);
  EXPECT_NEAR(e_serial.coulomb_real, e_par.coulomb_real, 1e-8);
  for (size_t i = 0; i < f_serial.size(); ++i) {
    EXPECT_NEAR(f_serial[i].x, f_par[i].x, 1e-9);
    EXPECT_NEAR(f_serial[i].y, f_par[i].y, 1e-9);
    EXPECT_NEAR(f_serial[i].z, f_par[i].z, 1e-9);
  }
}

TEST(Nonbonded, NewtonsThirdLawGlobally) {
  const System sys = build_water_box(216, 22, -1);
  NeighborList nlist(8.0, 1.0);
  nlist.build(sys.box(), sys.positions(), sys.topology());
  std::vector<Vec3> f(static_cast<size_t>(sys.num_atoms()));
  EnergyReport e;
  compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                    f, e);
  Vec3 net{};
  for (const auto& fi : f) net += fi;
  EXPECT_NEAR(norm(net), 0.0, 1e-8);
}

TEST(Nonbonded, SelfEnergyFormula) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kION, 1.0);
  top.add_atom(ForceField::Std::kION, -1.0);
  top.add_atom(ForceField::Std::kION, 0.5);
  top.finalize();
  const double alpha = 0.4;
  const double expected =
      -units::kCoulomb * alpha / std::sqrt(M_PI) * (1 + 1 + 0.25);
  EXPECT_NEAR(ewald_self_energy(top, alpha), expected, 1e-12);
}

TEST(Nonbonded, ExcludedCorrectionForceMatchesFiniteDifference) {
  Box box = Box::cube(30.0);
  ForceField ff = ForceField::standard();
  auto top = std::make_shared<Topology>(ff);
  top->add_atom(ForceField::Std::kOW, -0.8);
  top->add_atom(ForceField::Std::kHW, 0.8);
  top->add_bond({0, 1, 450.0, 0.96});
  top->finalize();
  std::vector<Vec3> pos{{5, 5, 5}, {5.7, 5.3, 4.9}};
  std::vector<Vec3> f(2);
  EnergyReport e;
  const double alpha = 0.35;
  compute_excluded_correction(box, *top, pos, alpha, f, e);
  // E_excl = -qq erf(ar)/r; this +/- pair has qq < 0, so the correction is
  // positive (it cancels the attractive k-space contribution).
  const double r = box.distance(pos[0], pos[1]);
  const double expected =
      -units::kCoulomb * (-0.64) * std::erf(alpha * r) / r;
  EXPECT_NEAR(e.coulomb_excl, expected, 1e-10);

  const double h = 1e-6;
  for (int ax = 0; ax < 3; ++ax) {
    auto energy_at = [&](double delta) {
      std::vector<Vec3> p = pos;
      p[0][ax] += delta;
      EnergyReport er;
      std::vector<Vec3> tmp(2);
      compute_excluded_correction(box, *top, p, alpha, tmp, er);
      return er.coulomb_excl;
    };
    const double fd = -(energy_at(h) - energy_at(-h)) / (2 * h);
    EXPECT_NEAR(f[0][ax], fd, 1e-6);
  }
}

}  // namespace
}  // namespace anton::md
