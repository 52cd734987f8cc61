#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "chem/builder.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "md/constraints.h"

namespace anton::md {
namespace {

TEST(Shake, RestoresSingleBondLength) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_constraint({0, 1, 1.5});
  top.finalize();
  const Box box = Box::cube(20.0);

  std::vector<Vec3> ref{{5, 5, 5}, {6.5, 5, 5}};   // satisfied
  std::vector<Vec3> pos{{5, 5, 5}, {6.9, 5.2, 5}};  // violated after a step
  std::vector<Vec3> vel(2);
  const auto stats = shake(box, top, ref, pos, vel, 0.01, 1e-10, 100);
  EXPECT_TRUE(stats.converged);
  EXPECT_NEAR(box.distance(pos[0], pos[1]), 1.5, 1e-7);
}

TEST(Shake, PreservesCenterOfMass) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  const int a = top.add_atom(ForceField::Std::kOW, 0.0);  // mass 16
  const int b = top.add_atom(ForceField::Std::kHW, 0.0);  // mass 1
  top.add_constraint({a, b, 1.0});
  top.finalize();
  const Box box = Box::cube(20.0);

  std::vector<Vec3> ref{{5, 5, 5}, {6, 5, 5}};
  std::vector<Vec3> pos{{5, 5, 5}, {6.4, 5, 5}};
  const double m_o = top.mass(a), m_h = top.mass(b);
  const Vec3 com_before =
      (m_o * pos[0] + m_h * pos[1]) / (m_o + m_h);
  std::vector<Vec3> vel(2);
  shake(box, top, ref, pos, vel, 0.01, 1e-10, 100);
  const Vec3 com_after = (m_o * pos[0] + m_h * pos[1]) / (m_o + m_h);
  EXPECT_NEAR(norm(com_after - com_before), 0.0, 1e-10);
  // The light atom moves far more than the heavy one.
  EXPECT_GT(norm(pos[1] - Vec3{6.4, 5, 5}), 10 * norm(pos[0] - Vec3{5, 5, 5}));
}

TEST(Shake, WaterTriangleConverges) {
  // Distort a rigid water and let SHAKE restore all three constraints.
  const System sys = build_water_box(1, 40, -1);
  const Topology& top = sys.topology();
  std::vector<Vec3> ref(sys.positions().begin(), sys.positions().end());
  std::vector<Vec3> pos = ref;
  Rng rng(13, 0);
  for (auto& p : pos) p += 0.08 * rng.gaussian_vec3();
  std::vector<Vec3> vel(pos.size());
  const auto stats =
      shake(sys.box(), top, ref, pos, vel, 0.01, 1e-10, 500);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(max_constraint_violation(sys.box(), top, pos), 1e-9);
}

TEST(Shake, VelocityCorrectionApplied) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_constraint({0, 1, 1.5});
  top.finalize();
  const Box box = Box::cube(20.0);
  const double dt = 0.01;

  std::vector<Vec3> ref{{5, 5, 5}, {6.5, 5, 5}};
  std::vector<Vec3> pos{{5, 5, 5}, {6.8, 5, 5}};
  std::vector<Vec3> pos_copy = pos;
  std::vector<Vec3> vel{{0, 0, 0}, {0, 0, 0}};
  shake(box, top, ref, pos, vel, dt, 1e-10, 100);
  // Δv = Δp/dt for each atom.
  for (int i = 0; i < 2; ++i) {
    const Vec3 dp = pos[static_cast<size_t>(i)] - pos_copy[static_cast<size_t>(i)];
    EXPECT_NEAR(vel[static_cast<size_t>(i)].x, dp.x / dt, 1e-9);
  }
}

TEST(Rattle, RemovesRadialVelocity) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_constraint({0, 1, 2.0});
  top.finalize();
  const Box box = Box::cube(20.0);

  std::vector<Vec3> pos{{5, 5, 5}, {7, 5, 5}};
  // Velocity with both radial (x) and tangential (y) components.
  std::vector<Vec3> vel{{1.0, 0.5, 0}, {-1.0, -0.5, 0}};
  const auto stats = rattle(box, top, pos, vel, 1e-12, 100);
  EXPECT_TRUE(stats.converged);
  const Vec3 r = pos[0] - pos[1];
  EXPECT_NEAR(dot(vel[0] - vel[1], r), 0.0, 1e-9);
  // Tangential motion preserved.
  EXPECT_NEAR(vel[0].y, 0.5, 1e-9);
}

TEST(Rattle, ConservesMomentum) {
  const System sys = build_water_box(8, 40, -1);
  std::vector<Vec3> pos(sys.positions().begin(), sys.positions().end());
  std::vector<Vec3> vel(pos.size());
  Rng rng(14, 0);
  for (auto& v : vel) v = rng.gaussian_vec3();
  const auto m = sys.topology().masses();
  Vec3 p_before{};
  for (size_t i = 0; i < vel.size(); ++i) p_before += m[i] * vel[i];
  rattle(sys.box(), sys.topology(), pos, vel, 1e-10, 200);
  Vec3 p_after{};
  for (size_t i = 0; i < vel.size(); ++i) p_after += m[i] * vel[i];
  EXPECT_NEAR(norm(p_after - p_before), 0.0, 1e-9);
}

// Reference: one Gauss-Seidel loop over all constraints in topology order,
// the textbook form of SHAKE and RATTLE.  Per-cluster sweeps must give
// exactly its positions, velocities and statistics.
ShakeStats global_shake(const Box& box, const Topology& top,
                        std::span<const Vec3> ref, std::span<Vec3> pos,
                        std::span<Vec3> vel, double dt, double tol,
                        int max_iter) {
  const auto mass = top.masses();
  ShakeStats stats;
  for (int iter = 0; iter < max_iter; ++iter) {
    double max_viol = 0.0;
    for (const auto& c : top.constraints()) {
      const size_t i = static_cast<size_t>(c.i), j = static_cast<size_t>(c.j);
      const Vec3 p = box.min_image(pos[i], pos[j]);
      const double d2 = c.length * c.length;
      const double diff = norm2(p) - d2;
      const double viol = std::abs(diff) / d2;
      max_viol = std::max(max_viol, viol);
      if (viol <= tol) continue;
      const Vec3 r = box.min_image(ref[i], ref[j]);
      const double inv_mi = 1.0 / mass[i];
      const double inv_mj = 1.0 / mass[j];
      const double denom = 2.0 * (inv_mi + inv_mj) * dot(p, r);
      if (std::abs(denom) < 1e-12) continue;
      const double g = diff / denom;
      const Vec3 dp_i = (-g * inv_mi) * r;
      const Vec3 dp_j = (g * inv_mj) * r;
      pos[i] += dp_i;
      pos[j] += dp_j;
      vel[i] += dp_i / dt;
      vel[j] += dp_j / dt;
    }
    stats.iterations = iter + 1;
    stats.max_violation = max_viol;
    if (max_viol <= tol) {
      stats.converged = true;
      return stats;
    }
  }
  return stats;
}

ShakeStats global_rattle(const Box& box, const Topology& top,
                         std::span<const Vec3> pos, std::span<Vec3> vel,
                         double tol, int max_iter) {
  const auto mass = top.masses();
  ShakeStats stats;
  for (int iter = 0; iter < max_iter; ++iter) {
    double max_viol = 0.0;
    for (const auto& c : top.constraints()) {
      const size_t i = static_cast<size_t>(c.i), j = static_cast<size_t>(c.j);
      const Vec3 r = box.min_image(pos[i], pos[j]);
      const Vec3 v = vel[i] - vel[j];
      const double d2 = c.length * c.length;
      const double rv = dot(r, v);
      const double viol = std::abs(rv) / d2;
      max_viol = std::max(max_viol, viol);
      if (viol <= tol) continue;
      const double inv_mi = 1.0 / mass[i];
      const double inv_mj = 1.0 / mass[j];
      const double k = rv / ((inv_mi + inv_mj) * d2);
      vel[i] -= (k * inv_mi) * r;
      vel[j] += (k * inv_mj) * r;
    }
    stats.iterations = iter + 1;
    stats.max_violation = max_viol;
    if (max_viol <= tol) {
      stats.converged = true;
      return stats;
    }
  }
  return stats;
}

bool same_bits(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0;
}

void expect_same_stats(const ShakeStats& a, const ShakeStats& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(std::memcmp(&a.max_violation, &b.max_violation, sizeof(double)),
            0)
      << a.max_violation << " vs " << b.max_violation;
  EXPECT_EQ(a.converged, b.converged);
}

// SHAKE then RATTLE on a perturbed solvated system (water triangles plus
// solute X-H clusters), serially and at 1, 2, 4 and 8 pool threads: every
// run gives the global loop's positions, velocities and statistics bit for
// bit.  With max_iter = 3 nothing converges, and the statistics of the
// unconverged sweeps must agree just the same.
TEST(Constraints, ClusterSweepBitwiseAcrossThreadCounts) {
  BuilderOptions o;
  o.total_atoms = 3000;
  o.seed = 106;
  const System sys = build_solvated_system(o);
  const Topology& top = sys.topology();
  const std::vector<Vec3> ref(sys.positions().begin(), sys.positions().end());
  const std::vector<Vec3> vel0(sys.velocities().begin(),
                               sys.velocities().end());
  std::vector<Vec3> drifted = ref;
  Rng rng(7, 0);
  for (auto& p : drifted) p += 0.02 * rng.gaussian_vec3();
  const double dt = 0.05;
  ConstraintClusters clusters(top);
  ASSERT_GT(clusters.num_clusters(), 1);
  ASSERT_LT(clusters.num_clusters(),
            static_cast<int>(top.constraints().size()));

  for (const int max_iter : {500, 3}) {
    SCOPED_TRACE(max_iter);
    std::vector<Vec3> want_pos = drifted, want_vel = vel0;
    const ShakeStats want_s = global_shake(sys.box(), top, ref, want_pos,
                                           want_vel, dt, 1e-10, max_iter);
    const ShakeStats want_r =
        global_rattle(sys.box(), top, want_pos, want_vel, 1e-10, max_iter);
    EXPECT_EQ(want_s.converged, max_iter == 500);
    EXPECT_EQ(want_r.converged, max_iter == 500);

    for (const unsigned threads : {0u, 1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(threads);
      std::vector<Vec3> pos = drifted, vel = vel0;
      ShakeStats s, r;
      if (threads == 0) {
        s = shake(sys.box(), top, ref, pos, vel, dt, 1e-10, max_iter);
        r = rattle(sys.box(), top, pos, vel, 1e-10, max_iter);
      } else {
        ThreadPool pool(threads);
        s = clusters.shake(sys.box(), ref, pos, vel, dt, 1e-10, max_iter,
                           &pool);
        r = clusters.rattle(sys.box(), pos, vel, 1e-10, max_iter, &pool);
      }
      EXPECT_TRUE(same_bits(pos, want_pos));
      EXPECT_TRUE(same_bits(vel, want_vel));
      expect_same_stats(s, want_s);
      expect_same_stats(r, want_r);
    }
  }
}

// Directions come from `ref` once per call, so `ref` must be a separate
// copy of the pre-update positions, not the array being corrected.
TEST(Shake, RejectsReferenceOverlappingPositions) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_constraint({0, 1, 1.5});
  top.finalize();
  const Box box = Box::cube(20.0);
  std::vector<Vec3> pos{{5, 5, 5}, {6.9, 5.2, 5}};
  std::vector<Vec3> vel(2);
  EXPECT_THROW(shake(box, top, pos, pos, vel, 0.01, 1e-10, 100), Error);
}

TEST(Constraints, NoConstraintsIsNoOp) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.finalize();
  const Box box = Box::cube(10.0);
  std::vector<Vec3> pos{{1, 1, 1}};
  std::vector<Vec3> vel{{2, 2, 2}};
  const auto s1 = shake(box, top, pos, pos, vel, 0.01, 1e-10, 10);
  const auto s2 = rattle(box, top, pos, vel, 1e-10, 10);
  EXPECT_TRUE(s1.converged);
  EXPECT_TRUE(s2.converged);
  EXPECT_EQ(vel[0], Vec3(2, 2, 2));
}

TEST(Constraints, ViolationMetric) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_constraint({0, 1, 2.0});
  top.finalize();
  const Box box = Box::cube(20.0);
  std::vector<Vec3> ok{{0, 0, 0}, {2, 0, 0}};
  EXPECT_NEAR(max_constraint_violation(box, top, ok), 0.0, 1e-12);
  std::vector<Vec3> bad{{0, 0, 0}, {2.2, 0, 0}};
  // |r² - d²|/d² = |4.84-4|/4 = 0.21.
  EXPECT_NEAR(max_constraint_violation(box, top, bad), 0.21, 1e-10);
}

}  // namespace
}  // namespace anton::md
