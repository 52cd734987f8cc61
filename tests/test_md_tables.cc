// Tabulated pair kernel: cubic-Hermite table machinery, the erfc table
// accuracy bound, parity between the tabulated short-range forces and an
// exact std::erfc oracle, and NVE energy conservation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "chem/builder.h"
#include "common/table.h"
#include "common/units.h"
#include "md/engine.h"
#include "md/neighborlist.h"
#include "md/nonbonded.h"

namespace anton::md {
namespace {

constexpr double kTwoOverSqrtPi = 1.1283791670955126;

TEST(CubicTable, ReproducesSmoothFunction) {
  CubicTable tab;
  tab.build(
      0.0, 5.0, 513, [](double x) { return std::exp(-x); },
      [](double x) { return -std::exp(-x); });
  ASSERT_TRUE(tab.built());
  // Exact at the nodes.
  EXPECT_DOUBLE_EQ(tab(0.0), 1.0);
  // Hermite error scales like h^4 f'''' / 384; h ~ 1e-2 gives ~2.6e-11.
  double max_err = 0;
  for (int k = 0; k < 2000; ++k) {
    const double x = 5.0 * k / 1999.0;
    max_err = std::max(max_err, std::abs(tab(x) - std::exp(-x)));
  }
  EXPECT_LT(max_err, 1e-9);
  // Clamped outside the domain.
  EXPECT_DOUBLE_EQ(tab(-1.0), tab(0.0));
  EXPECT_DOUBLE_EQ(tab(6.0), tab(5.0));
}

TEST(CubicTable, EvalBatchIsBitwiseIdenticalToScalarEval) {
  CubicTable tab;
  tab.build(
      0.25, 81.0, 1537, [](double x) { return std::exp(-0.3 * x) / x; },
      [](double x) {
        return -std::exp(-0.3 * x) * (0.3 / x + 1.0 / (x * x));
      });
  // Random abscissae across the domain plus clamp regions on both sides and
  // exact node hits; every batch size from 1 to 3 vector widths to cover
  // ragged tails.
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> in_dom(0.25, 81.0);
  std::uniform_real_distribution<double> wide(-5.0, 95.0);
  std::vector<double> xs;
  for (int k = 0; k < 4000; ++k) xs.push_back(in_dom(rng));
  for (int k = 0; k < 1000; ++k) xs.push_back(wide(rng));
  for (int k = 0; k < 1537; k += 13) {
    xs.push_back(0.25 + k * (81.0 - 0.25) / 1536.0);
  }
  auto expect_bits = [](double got, double want, size_t i) {
    uint64_t gb, wb;
    std::memcpy(&gb, &got, sizeof gb);
    std::memcpy(&wb, &want, sizeof wb);
    EXPECT_EQ(gb, wb) << "x index " << i << ": got " << got << " want "
                      << want;
  };
  std::vector<double> out(xs.size(), -1.0);
  tab.eval_batch(xs.data(), out.data(), static_cast<int>(xs.size()));
  for (size_t i = 0; i < xs.size(); ++i) expect_bits(out[i], tab(xs[i]), i);
  for (int count = 1; count <= 12; ++count) {
    std::vector<double> o(static_cast<size_t>(count), -1.0);
    tab.eval_batch(xs.data(), o.data(), count);
    for (int i = 0; i < count; ++i) {
      expect_bits(o[static_cast<size_t>(i)], tab(xs[static_cast<size_t>(i)]),
                  static_cast<size_t>(i));
    }
  }
}

TEST(ErfcTables, MeetAccuracyBound) {
  const System sys = build_water_box(8, 5);
  const double alpha = 0.35;
  const double cutoff = 9.0;
  ForceWorkspace ws;
  ws.build_cache(sys.topology(), alpha, cutoff, /*shift_at_cutoff=*/true);
  EXPECT_LE(ws.table_max_rel_err(), 1e-9);

  // Independent dense sweep in r (not the build's midpoint grid): both the
  // energy table E(r²) = erfc(ar)/r and the force-factor table stay within
  // an order of magnitude of the advertised bound.
  const CubicTable& etab = ws.coul_e();
  const CubicTable& ftab = ws.coul_f();
  double max_rel = 0;
  for (int k = 0; k <= 20000; ++k) {
    const double r = 0.6 + (cutoff - 0.01 - 0.6) * k / 20000.0;
    const double r2 = r * r;
    const double ar = alpha * r;
    const double e_ref = std::erfc(ar) / r;
    const double f_ref =
        (std::erfc(ar) / r + kTwoOverSqrtPi * alpha * std::exp(-ar * ar)) / r2;
    max_rel = std::max(max_rel, std::abs(etab(r2) - e_ref) / std::abs(e_ref));
    max_rel = std::max(max_rel, std::abs(ftab(r2) - f_ref) / std::abs(f_ref));
  }
  EXPECT_LT(max_rel, 1e-8);

  // The fused interleaved view carries the same node data (the interpolant
  // evaluated at a node abscissa reproduces the stored node value up to the
  // rounding of the abscissa itself).
  const CoulTableView view = ws.coul_ef();
  ASSERT_EQ(view.n, etab.num_nodes());
  EXPECT_EQ(view.x0, etab.min_x());
  for (int k = 0; k < view.n; k += 97) {
    const double x = view.x0 + k * view.h;
    EXPECT_NEAR(view.nodes[k].ev, etab(x), 1e-12 * std::abs(view.nodes[k].ev))
        << "node " << k;
    EXPECT_NEAR(view.nodes[k].fv, ftab(x), 1e-12 * std::abs(view.nodes[k].fv))
        << "node " << k;
  }
}

// Exact reference for compute_nonbonded with shift_at_cutoff: every
// non-excluded pair under the minimum image within the cutoff, LJ from the
// force field's mixing rule and Coulomb from std::erfc (plain 1/r when
// alpha == 0), each energy shifted to zero at the cutoff.
struct PairReference {
  std::vector<Vec3> f;
  EnergyReport e;
};

PairReference brute_force_pairs(const System& sys, double alpha,
                                double cutoff) {
  const Topology& top = sys.topology();
  const ForceField& ff = top.forcefield();
  const auto pos = sys.positions();
  const int n = top.num_atoms();
  const double cutoff2 = cutoff * cutoff;
  auto coul_e = [alpha](double r) {
    return alpha > 0 ? std::erfc(alpha * r) / r : 1.0 / r;
  };
  PairReference ref;
  ref.f.assign(static_cast<size_t>(n), Vec3{});
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (top.excluded(i, j)) continue;
      const Vec3 d = sys.box().min_image(pos[static_cast<size_t>(i)],
                                         pos[static_cast<size_t>(j)]);
      const double r2 = norm2(d);
      if (r2 >= cutoff2) continue;
      const double r = std::sqrt(r2);
      double f_pair = 0;  // -dE/dr / r
      const LjPair lj = ff.lj(top.type(i), top.type(j));
      if (lj.eps > 0) {
        const double sr6 = std::pow(lj.sigma * lj.sigma / r2, 3);
        const double sc6 = std::pow(lj.sigma * lj.sigma / cutoff2, 3);
        ref.e.lj += 4 * lj.eps * ((sr6 * sr6 - sr6) - (sc6 * sc6 - sc6));
        f_pair += 24 * lj.eps * (2 * sr6 * sr6 - sr6) / r2;
      }
      const double qq = units::kCoulomb * top.charge(i) * top.charge(j);
      if (qq != 0) {
        const double ar = alpha * r;
        ref.e.coulomb_real += qq * (coul_e(r) - coul_e(cutoff));
        f_pair += qq *
                  (coul_e(r) + kTwoOverSqrtPi * alpha * std::exp(-ar * ar)) /
                  r2;
      }
      const Vec3 fv = f_pair * d;
      ref.f[static_cast<size_t>(i)] += fv;
      ref.f[static_cast<size_t>(j)] -= fv;
      ref.e.virial += dot(d, fv);
    }
  }
  return ref;
}

// The tabulated pair kernel against the exact oracle above, for Ewald
// real-space screening and for plain cutoff Coulomb (alpha == 0, which is
// tabulated too).
TEST(ErfcTables, TabulatedNonbondedMatchesAnalytic) {
  const System sys = build_water_box(216, 21);
  const double cutoff = 6.5;
  NeighborList nlist(cutoff, 0.7);
  nlist.build(sys.box(), sys.positions(), sys.topology());
  const size_t n = static_cast<size_t>(sys.num_atoms());

  for (const double alpha : {0.35, 0.0}) {
    SCOPED_TRACE(alpha);
    const PairReference ref = brute_force_pairs(sys, alpha, cutoff);
    std::vector<Vec3> ft(n);
    EnergyReport et;
    compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(),
                      alpha, ft, et, nullptr, /*shift_at_cutoff=*/true);

    EXPECT_NEAR(ref.e.lj, et.lj, 1e-9 * std::abs(ref.e.lj));
    EXPECT_NEAR(ref.e.coulomb_real, et.coulomb_real,
                1e-6 * std::abs(ref.e.coulomb_real));
    EXPECT_NEAR(ref.e.virial, et.virial, 1e-6 * std::abs(ref.e.virial));
    double err2 = 0, norm2_ref = 0;
    for (size_t i = 0; i < n; ++i) {
      const double scale = std::max(1.0, std::sqrt(norm2(ref.f[i])));
      EXPECT_NEAR(ref.f[i].x, ft[i].x, 1e-6 * scale) << "atom " << i;
      EXPECT_NEAR(ref.f[i].y, ft[i].y, 1e-6 * scale) << "atom " << i;
      EXPECT_NEAR(ref.f[i].z, ft[i].z, 1e-6 * scale) << "atom " << i;
      err2 += norm2(ft[i] - ref.f[i]);
      norm2_ref += norm2(ref.f[i]);
    }
    // Measured: 4.7e-14 for both alphas.
    EXPECT_LE(std::sqrt(err2 / norm2_ref), 1e-10);
  }
}

// NVE drift at default pair-kernel settings over 200 steps.
TEST(ErfcTables, NveConservationWithTabulatedKernel) {
  System sys = build_water_box(125, 101);
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.0;
  p.respa_k = 1;
  p.long_range = LongRangeMethod::kMesh;
  p.mesh_spacing = 1.1;
  p.gse_sigma = 1.2;
  p.ewald_alpha = 0.35;
  Simulation sim(std::move(sys), p);
  sim.step(50);  // relax the synthetic lattice before measuring
  const double e0 = sim.energies().total();
  sim.step(200);
  const double e1 = sim.energies().total();
  const double ke = sim.system().kinetic_energy();
  EXPECT_LT(std::abs(e1 - e0), 0.01 * ke)
      << "E0=" << e0 << " E1=" << e1 << " KE=" << ke;
}

}  // namespace
}  // namespace anton::md
