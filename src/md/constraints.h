// Holonomic bond-length constraints: SHAKE (positions) and RATTLE
// (velocities).  Rigid 3-site water is handled by the same iteration over
// its three constraints — the classic M-SHAKE special case Anton's geometry
// cores execute in software.
//
// The constraints split into clusters, the connected components of the
// constraint graph (a water triangle, a heavy atom with its hydrogens).
// Clusters share no atoms, so each is swept to tolerance on its own, its
// constraints in topology order, and clusters run in parallel over a pool.
// A cluster's updates are the same sequence as in one Gauss–Seidel loop
// over all constraints, and a cluster left untouched by a sweep stays
// untouched, so positions, velocities and ShakeStats do not depend on the
// thread count (see DESIGN.md, "MD engine").
#pragma once

#include <span>
#include <vector>

#include "chem/topology.h"
#include "common/threadpool.h"
#include "common/vec3.h"
#include "geom/box.h"

namespace anton::md {

struct ShakeStats {
  int iterations = 0;        // sweeps of the slowest cluster
  double max_violation = 0;  // relative, over every cluster's last sweep
  bool converged = false;    // every cluster met the tolerance
};

// The constraint clusters of a topology, with the per-constraint constants
// (d², inverse masses) and sweep scratch.  Build once per topology; steady
// calls do not allocate.  One object serves one call at a time (the calls
// share its direction scratch).
class ConstraintClusters {
 public:
  explicit ConstraintClusters(const Topology& top);

  int num_clusters() const {
    return static_cast<int>(cluster_start_.size()) - 1;
  }

  // Adjusts `pos` so that every constraint is satisfied to
  // |r²-d²|/d² <= tol.  `ref` holds the positions *before* the
  // unconstrained update (constraint directions are evaluated there, as in
  // standard SHAKE) and must not overlap `pos`.  If `vel` is non-empty, the
  // position corrections are also applied to velocities as Δp/dt (the
  // velocity half of constrained velocity Verlet).
  ShakeStats shake(const Box& box, std::span<const Vec3> ref,
                   std::span<Vec3> pos, std::span<Vec3> vel, double dt,
                   double tol, int max_iter, ThreadPool* pool = nullptr);

  // Projects velocity components along constrained bonds to zero (RATTLE
  // second stage): after this, d/dt |r_ij|² = 0 for every constraint.
  ShakeStats rattle(const Box& box, std::span<const Vec3> pos,
                    std::span<Vec3> vel, double tol, int max_iter,
                    ThreadPool* pool = nullptr);

 private:
  struct Rod {
    int i, j;
    double d2;            // length²
    double inv_mi, inv_mj;
  };

  // One Gauss–Seidel sweep over cluster c's constraints, in topology
  // order; returns the largest relative violation it saw.
  double shake_sweep(int c, const Box& box, std::span<Vec3> pos,
                     std::span<Vec3> vel, double dt, double tol);
  double rattle_sweep(int c, std::span<Vec3> vel, double tol);
  // Fills dir_ for the constraints of clusters [c0, c1) from `at`.
  void directions(int c0, int c1, const Box& box, std::span<const Vec3> at);
  // Sweeps clusters [c0, c1) to tolerance in lockstep, one sweep of each
  // unconverged cluster per round: their dependency chains are independent,
  // so the core overlaps them.  Folds the clusters' statistics.
  template <class Sweep>
  ShakeStats solve(int c0, int c1, double tol, int max_iter, Sweep&& sweep);
  // Runs group(c0, c1) over every cluster, over the pool when one is
  // given, and folds the groups' statistics.
  template <class Group>
  ShakeStats run(Group&& group, ThreadPool* pool);

  std::vector<Rod> rods_;           // cluster by cluster, topology order within
  std::vector<int> cluster_start_;  // cluster c: rods [start[c], start[c+1])
  std::vector<Vec3> dir_;           // per rod: its direction for one call
};

// One-shot forms for callers without a persistent ConstraintClusters: they
// derive the clusters of `top` and sweep them serially.
ShakeStats shake(const Box& box, const Topology& top,
                 std::span<const Vec3> ref, std::span<Vec3> pos,
                 std::span<Vec3> vel, double dt, double tol, int max_iter);
ShakeStats rattle(const Box& box, const Topology& top,
                  std::span<const Vec3> pos, std::span<Vec3> vel, double tol,
                  int max_iter);

// Max relative constraint violation of a configuration (diagnostics/tests).
double max_constraint_violation(const Box& box, const Topology& top,
                                std::span<const Vec3> pos);

}  // namespace anton::md
