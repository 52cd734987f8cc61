#include "md/constraints.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "common/error.h"

namespace anton::md {

namespace {
// Below this many constraints, a pool costs more than it saves.
constexpr size_t kSerialConstraints = 1024;
// Clusters a pool thread takes at a time; small enough that a noisy host
// evens out, large enough that the shared counter stays cold.
constexpr int kClustersPerGrab = 64;
// Clusters swept in lockstep by one thread (see solve()).
constexpr int kInterleave = 4;

void fold(ShakeStats& acc, const ShakeStats& s) {
  acc.iterations = std::max(acc.iterations, s.iterations);
  acc.max_violation = std::max(acc.max_violation, s.max_violation);
  acc.converged = acc.converged && s.converged;
}

template <class T>
void fetch_max(std::atomic<T>& a, T v) {
  T cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace

ConstraintClusters::ConstraintClusters(const Topology& top) {
  const auto constraints = top.constraints();
  const auto mass = top.masses();
  const size_t n = static_cast<size_t>(top.num_atoms());

  // Union-find over atoms joins every constraint's two ends.
  std::vector<int> parent(n);
  for (size_t a = 0; a < n; ++a) parent[a] = static_cast<int>(a);
  auto find = [&](int a) {
    while (parent[static_cast<size_t>(a)] != a) {
      int& p = parent[static_cast<size_t>(a)];
      p = parent[static_cast<size_t>(p)];
      a = p;
    }
    return a;
  };
  for (const auto& c : constraints) {
    const int ri = find(c.i), rj = find(c.j);
    if (ri != rj) {
      parent[static_cast<size_t>(std::max(ri, rj))] = std::min(ri, rj);
    }
  }

  // Clusters are numbered by their first constraint; each keeps its
  // constraints in topology order.
  std::vector<int> cluster_of_root(n, -1);
  std::vector<int> cluster_of(constraints.size());
  int clusters = 0;
  for (size_t k = 0; k < constraints.size(); ++k) {
    int& id = cluster_of_root[static_cast<size_t>(find(constraints[k].i))];
    if (id < 0) id = clusters++;
    cluster_of[k] = id;
  }
  cluster_start_.assign(static_cast<size_t>(clusters) + 1, 0);
  for (int id : cluster_of) ++cluster_start_[static_cast<size_t>(id) + 1];
  for (int c = 0; c < clusters; ++c) {
    cluster_start_[static_cast<size_t>(c) + 1] +=
        cluster_start_[static_cast<size_t>(c)];
  }
  std::vector<int> cursor(cluster_start_.begin(), cluster_start_.end() - 1);
  rods_.resize(constraints.size());
  for (size_t k = 0; k < constraints.size(); ++k) {
    const auto& c = constraints[k];
    rods_[static_cast<size_t>(cursor[static_cast<size_t>(cluster_of[k])]++)] = {
        c.i, c.j, c.length * c.length, 1.0 / mass[static_cast<size_t>(c.i)],
        1.0 / mass[static_cast<size_t>(c.j)]};
  }
  dir_.resize(rods_.size());
}

template <class Group>
ShakeStats ConstraintClusters::run(Group&& group, ThreadPool* pool) {
  const int n = num_clusters();
  ShakeStats total;
  total.converged = true;
  if (pool == nullptr || pool->size() <= 1 ||
      rods_.size() < kSerialConstraints) {
    for (int c = 0; c < n; c += kInterleave) {
      fold(total, group(c, std::min(n, c + kInterleave)));
    }
    return total;
  }
  // Max and logical-and fold the same in any order, so the statistics do
  // not depend on which thread swept which cluster.
  std::atomic<int> next{0};
  std::atomic<int> iterations{0};
  std::atomic<double> max_violation{0.0};
  std::atomic<bool> converged{true};
  pool->for_each_thread([&](unsigned) {
    ShakeStats local;
    local.converged = true;
    for (int c0 = next.fetch_add(kClustersPerGrab, std::memory_order_relaxed);
         c0 < n;
         c0 = next.fetch_add(kClustersPerGrab, std::memory_order_relaxed)) {
      const int c1 = std::min(n, c0 + kClustersPerGrab);
      for (int c = c0; c < c1; c += kInterleave) {
        fold(local, group(c, std::min(c1, c + kInterleave)));
      }
    }
    fetch_max(iterations, local.iterations);
    fetch_max(max_violation, local.max_violation);
    if (!local.converged) converged.store(false, std::memory_order_relaxed);
  });
  total.iterations = iterations.load(std::memory_order_relaxed);
  total.max_violation = max_violation.load(std::memory_order_relaxed);
  total.converged = converged.load(std::memory_order_relaxed);
  return total;
}

// A cluster that converges leaves the group with its own statistics; any
// left after max_iter rounds report their last sweep, unconverged.  Since a
// sweep that corrects nothing changes nothing, this is what one loop over
// all constraints would report for them.
template <class Sweep>
ShakeStats ConstraintClusters::solve(int c0, int c1, double tol, int max_iter,
                                     Sweep&& sweep) {
  ANTON_HOT_NOALLOC();
  ShakeStats total;
  total.converged = true;
  int ids[kInterleave];
  double viol[kInterleave] = {};
  int m = c1 - c0;
  for (int g = 0; g < m; ++g) ids[g] = c0 + g;
  int rounds = 0;
  for (; rounds < max_iter && m > 0; ++rounds) {
    int kept = 0;
    for (int g = 0; g < m; ++g) {
      const double v = sweep(ids[g]);
      if (v <= tol) {
        fold(total, {rounds + 1, v, true});
      } else {
        ids[kept] = ids[g];
        viol[kept] = v;
        ++kept;
      }
    }
    m = kept;
  }
  for (int g = 0; g < m; ++g) fold(total, {rounds, viol[g], false});
  return total;
}

double ConstraintClusters::shake_sweep(int c, const Box& box,
                                       std::span<Vec3> pos,
                                       std::span<Vec3> vel, double dt,
                                       double tol) {
  ANTON_HOT_NOALLOC();
  const size_t b = static_cast<size_t>(cluster_start_[static_cast<size_t>(c)]);
  const size_t e =
      static_cast<size_t>(cluster_start_[static_cast<size_t>(c) + 1]);
  const bool fix_vel = !vel.empty() && dt > 0;
  double max_viol = 0.0;
  for (size_t k = b; k < e; ++k) {
    const Rod& rod = rods_[k];
    const size_t i = static_cast<size_t>(rod.i);
    const size_t j = static_cast<size_t>(rod.j);
    const Vec3 p = box.min_image(pos[i], pos[j]);
    const double diff = norm2(p) - rod.d2;
    const double viol = std::abs(diff) / rod.d2;
    max_viol = std::max(max_viol, viol);
    if (viol <= tol) continue;

    // Correction along the *reference* bond direction (standard SHAKE).
    const Vec3& r = dir_[k];
    const double denom = 2.0 * (rod.inv_mi + rod.inv_mj) * dot(p, r);
    if (std::abs(denom) < 1e-12) continue;  // pathological; skip this pass
    const double g = diff / denom;
    const Vec3 dp_i = (-g * rod.inv_mi) * r;
    const Vec3 dp_j = (g * rod.inv_mj) * r;
    pos[i] += dp_i;
    pos[j] += dp_j;
    if (fix_vel) {
      vel[i] += dp_i / dt;
      vel[j] += dp_j / dt;
    }
  }
  return max_viol;
}

double ConstraintClusters::rattle_sweep(int c, std::span<Vec3> vel,
                                        double tol) {
  ANTON_HOT_NOALLOC();
  const size_t b = static_cast<size_t>(cluster_start_[static_cast<size_t>(c)]);
  const size_t e =
      static_cast<size_t>(cluster_start_[static_cast<size_t>(c) + 1]);
  double max_viol = 0.0;
  for (size_t k = b; k < e; ++k) {
    const Rod& rod = rods_[k];
    const size_t i = static_cast<size_t>(rod.i);
    const size_t j = static_cast<size_t>(rod.j);
    const Vec3& r = dir_[k];
    const Vec3 v = vel[i] - vel[j];
    const double rv = dot(r, v);
    // Relative measure: bond-length rate over (length/unit time).
    const double viol = std::abs(rv) / rod.d2;
    max_viol = std::max(max_viol, viol);
    if (viol <= tol) continue;

    const double k_rv = rv / ((rod.inv_mi + rod.inv_mj) * rod.d2);
    vel[i] -= (k_rv * rod.inv_mi) * r;
    vel[j] += (k_rv * rod.inv_mj) * r;
  }
  return max_viol;
}

// Constraint directions depend only on inputs the call does not change
// (`ref` for SHAKE, `pos` for RATTLE), so each group computes its own once.
void ConstraintClusters::directions(int c0, int c1, const Box& box,
                                    std::span<const Vec3> at) {
  ANTON_HOT_NOALLOC();
  const size_t b = static_cast<size_t>(cluster_start_[static_cast<size_t>(c0)]);
  const size_t e = static_cast<size_t>(cluster_start_[static_cast<size_t>(c1)]);
  for (size_t k = b; k < e; ++k) {
    dir_[k] = box.min_image(at[static_cast<size_t>(rods_[k].i)],
                            at[static_cast<size_t>(rods_[k].j)]);
  }
}

ShakeStats ConstraintClusters::shake(const Box& box,
                                     std::span<const Vec3> ref,
                                     std::span<Vec3> pos, std::span<Vec3> vel,
                                     double dt, double tol, int max_iter,
                                     ThreadPool* pool) {
  if (!rods_.empty()) {
    const auto r0 = reinterpret_cast<std::uintptr_t>(ref.data());
    const auto p0 = reinterpret_cast<std::uintptr_t>(pos.data());
    ANTON_CHECK_MSG(r0 + ref.size_bytes() <= p0 || p0 + pos.size_bytes() <= r0,
                    "SHAKE reference positions overlap the updated ones");
  }
  return run(
      [&](int c0, int c1) {
        directions(c0, c1, box, ref);
        return solve(c0, c1, tol, max_iter, [&](int c) {
          return shake_sweep(c, box, pos, vel, dt, tol);
        });
      },
      pool);
}

ShakeStats ConstraintClusters::rattle(const Box& box,
                                      std::span<const Vec3> pos,
                                      std::span<Vec3> vel, double tol,
                                      int max_iter, ThreadPool* pool) {
  return run(
      [&](int c0, int c1) {
        directions(c0, c1, box, pos);
        return solve(c0, c1, tol, max_iter,
                     [&](int c) { return rattle_sweep(c, vel, tol); });
      },
      pool);
}

ShakeStats shake(const Box& box, const Topology& top,
                 std::span<const Vec3> ref, std::span<Vec3> pos,
                 std::span<Vec3> vel, double dt, double tol, int max_iter) {
  return ConstraintClusters(top).shake(box, ref, pos, vel, dt, tol, max_iter);
}

ShakeStats rattle(const Box& box, const Topology& top,
                  std::span<const Vec3> pos, std::span<Vec3> vel, double tol,
                  int max_iter) {
  return ConstraintClusters(top).rattle(box, pos, vel, tol, max_iter);
}

double max_constraint_violation(const Box& box, const Topology& top,
                                std::span<const Vec3> pos) {
  double max_viol = 0.0;
  for (const auto& c : top.constraints()) {
    const Vec3 p = box.min_image(pos[static_cast<size_t>(c.i)],
                                 pos[static_cast<size_t>(c.j)]);
    const double d2 = c.length * c.length;
    max_viol = std::max(max_viol, std::abs(norm2(p) - d2) / d2);
  }
  return max_viol;
}

}  // namespace anton::md
