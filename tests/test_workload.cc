#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <numeric>

#include "chem/builder.h"
#include "core/machine.h"
#include "core/workload.h"
#include "md/neighborlist.h"

namespace anton::core {
namespace {

arch::MachineConfig tiny_machine(int nx, int ny, int nz, double cutoff) {
  arch::MachineConfig c = arch::MachineConfig::anton2(nx, ny, nz);
  c.machine_cutoff = cutoff;
  return c;
}

TEST(Workload, AtomCountsPartition) {
  const System sys = build_water_box(512, 41, -1);
  const auto cfg = tiny_machine(2, 2, 2, 6.0);
  const Workload w = Workload::build(sys, cfg);
  int total = 0;
  for (int v = 0; v < w.num_nodes(); ++v) total += w.node(v).atoms;
  EXPECT_EQ(total, sys.num_atoms());
  EXPECT_EQ(w.total_atoms(), sys.num_atoms());
}

TEST(Workload, PairCountMatchesNeighborListWithoutExclusions) {
  // The workload counts *all* pairs within the cutoff (exclusions are a
  // force-field nicety the HTIS match units handle inline); compare against
  // a brute-force count.
  const System sys = build_water_box(343, 42, -1);
  const auto cfg = tiny_machine(2, 2, 2, 6.0);
  const Workload w = Workload::build(sys, cfg);

  int64_t brute = 0;
  const auto pos = sys.positions();
  for (int i = 0; i < sys.num_atoms(); ++i) {
    for (int j = i + 1; j < sys.num_atoms(); ++j) {
      if (sys.box().distance2(pos[static_cast<size_t>(i)],
                              pos[static_cast<size_t>(j)]) < 36.0) {
        ++brute;
      }
    }
  }
  EXPECT_EQ(w.total_pairs(), brute);
}

TEST(Workload, EveryPairCountedExactlyOnce) {
  // Internal + boundary tiles must partition the pair set: vary node grid,
  // the total must not change.
  const System sys = build_water_box(512, 43, -1);
  const auto w1 = Workload::build(sys, tiny_machine(1, 1, 1, 6.0));
  const auto w2 = Workload::build(sys, tiny_machine(2, 2, 2, 6.0));
  const auto w4 = Workload::build(sys, tiny_machine(4, 2, 2, 6.0));
  EXPECT_EQ(w1.total_pairs(), w2.total_pairs());
  EXPECT_EQ(w1.total_pairs(), w4.total_pairs());
  // Single node: all pairs internal.
  EXPECT_EQ(w1.node(0).internal_pairs, w1.total_pairs());
  EXPECT_TRUE(w1.node(0).tiles.empty());
}

TEST(Workload, TileOffsetsInPositiveHalfSpace) {
  const System sys = build_water_box(729, 44, -1);
  const auto w = Workload::build(sys, tiny_machine(3, 3, 3, 6.0));
  for (const auto& off : w.tile_offsets()) {
    const bool positive =
        off.dz > 0 || (off.dz == 0 && off.dy > 0) ||
        (off.dz == 0 && off.dy == 0 && off.dx > 0);
    EXPECT_TRUE(positive) << off.dx << "," << off.dy << "," << off.dz;
  }
}

TEST(Workload, RemoteAtomsBoundedByPairsAndNodeSize) {
  const System sys = build_water_box(729, 45, -1);
  const auto w = Workload::build(sys, tiny_machine(3, 3, 3, 6.0));
  for (int v = 0; v < w.num_nodes(); ++v) {
    for (const auto& t : w.node(v).tiles) {
      EXPECT_GT(t.remote_atoms, 0);
      EXPECT_LE(t.remote_atoms, t.pairs);
      EXPECT_LE(t.remote_atoms, sys.num_atoms());
    }
  }
}

TEST(Workload, PositionDestinationsMatchTiles) {
  const System sys = build_water_box(729, 46, -1);
  const auto w = Workload::build(sys, tiny_machine(3, 3, 3, 6.0));
  const auto& dd = w.decomp();
  // If u owns a tile with offset d, then node u+d must list u as a
  // destination.
  for (int u = 0; u < w.num_nodes(); ++u) {
    for (const auto& t : w.node(u).tiles) {
      const auto& off = w.tile_offsets()[static_cast<size_t>(t.offset_index)];
      const int v = dd.neighbor_rank(u, off);
      const auto& dsts = w.node(v).pos_destinations;
      EXPECT_NE(std::find(dsts.begin(), dsts.end(), u), dsts.end())
          << "node " << v << " does not export to " << u;
    }
  }
}

TEST(Workload, BondedTermsPartition) {
  BuilderOptions o;
  o.total_atoms = 3000;
  o.solute_fraction = 0.2;
  o.seed = 47;
  o.temperature_k = -1;
  const System sys = build_solvated_system(o);
  const auto w = Workload::build(sys, tiny_machine(2, 2, 2, 6.0));
  BondedCounts total{};
  int64_t constraints = 0;
  for (int v = 0; v < w.num_nodes(); ++v) {
    const auto& n = w.node(v);
    total.bonds += n.bonded_local.bonds + n.bonded_boundary.bonds;
    total.angles += n.bonded_local.angles + n.bonded_boundary.angles;
    total.dihedrals +=
        n.bonded_local.dihedrals + n.bonded_boundary.dihedrals;
    total.pairs14 += n.bonded_local.pairs14 + n.bonded_boundary.pairs14;
    constraints += n.constraints;
  }
  const Topology& top = sys.topology();
  EXPECT_EQ(total.bonds, static_cast<int64_t>(top.bonds().size()));
  EXPECT_EQ(total.angles, static_cast<int64_t>(top.angles().size()));
  EXPECT_EQ(total.dihedrals, static_cast<int64_t>(top.dihedrals().size()));
  EXPECT_EQ(total.pairs14, static_cast<int64_t>(top.pairs14().size()));
  EXPECT_EQ(constraints, static_cast<int64_t>(top.constraints().size()));
}

TEST(Workload, MeshDimsArePowerOfTwo) {
  const System sys = build_water_box(512, 48, -1);
  auto cfg = tiny_machine(2, 2, 2, 6.0);
  cfg.mesh_spacing = 2.0;
  const Workload w = Workload::build(sys, cfg);
  for (int a = 0; a < 3; ++a) {
    const int d = w.mesh_dim(a);
    EXPECT_TRUE(d > 0 && (d & (d - 1)) == 0);
    EXPECT_GE(d * cfg.mesh_spacing, sys.box().lengths()[a] * 0.99);
  }
  EXPECT_GT(w.spread_support_points(), 26);
  EXPECT_GT(w.spread_halo_bytes(cfg), 0);
}

TEST(Workload, CutoffBeyondMinImageRejected) {
  const System sys = build_water_box(64, 49, -1);
  auto cfg = tiny_machine(2, 2, 2, 100.0);
  EXPECT_THROW(Workload::build(sys, cfg), Error);
}

TEST(Workload, LoadBalanceReasonableForUniformSystem) {
  const System sys = build_water_box(4096, 50, -1);
  const auto w = Workload::build(sys, tiny_machine(4, 4, 4, 6.0));
  const double mean = w.mean_atoms_per_node();
  EXPECT_LT(w.max_atoms_per_node(), 1.6 * mean);
}

// FNV-1a over every field of a Workload: each node's atoms, pair counts,
// tiles (in order), position destinations (in order), bonded counts and
// constraints, then the tile offset table and the mesh dims.
uint64_t workload_digest(const Workload& w) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto u = [&h](int64_t v) {
    const auto bits = static_cast<uint64_t>(v);
    for (int k = 0; k < 8; ++k) {
      h ^= (bits >> (8 * k)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  auto bonded = [&u](const BondedCounts& b) {
    u(b.bonds);
    u(b.angles);
    u(b.dihedrals);
    u(b.pairs14);
  };
  u(w.num_nodes());
  for (int v = 0; v < w.num_nodes(); ++v) {
    const NodeWork& n = w.node(v);
    u(n.atoms);
    u(n.internal_pairs);
    u(static_cast<int64_t>(n.tiles.size()));
    for (const Tile& t : n.tiles) {
      u(t.offset_index);
      u(t.pairs);
      u(t.remote_atoms);
    }
    u(static_cast<int64_t>(n.pos_destinations.size()));
    for (int d : n.pos_destinations) u(d);
    bonded(n.bonded_local);
    bonded(n.bonded_boundary);
    u(n.constraints);
  }
  u(static_cast<int64_t>(w.tile_offsets().size()));
  for (const NodeOffset& o : w.tile_offsets()) {
    u(o.dx);
    u(o.dy);
    u(o.dz);
  }
  for (int axis = 0; axis < 3; ++axis) u(w.mesh_dim(axis));
  return h;
}

// Golden workloads: the decomposition is pinned field for field, including
// the order of tiles, offsets and destinations and the order-dependent
// remote-atom counts, on the all-pairs path (fewer than 3 cells per axis)
// and the cell-walk path, cubic and non-cubic node grids, and the DHFR
// benchmark system.  A rewrite of Workload::build must leave every digest
// exactly as it was.
TEST(Workload, GoldenDigests) {
  const System water343 = build_water_box(343, 42, -1);
  const System water729 = build_water_box(729, 44, -1);
  const System water4096 = build_water_box(4096, 50, -1);
  const System dhfr = build_benchmark_system(dhfr_spec(), 1);
  const struct {
    const char* name;
    const System* sys;
    arch::MachineConfig cfg;
    uint64_t digest;
  } cases[] = {
      {"tiny 2x2x2", &water343, tiny_machine(2, 2, 2, 6.0),
       0x8963571cad9d21deULL},
      {"3x3x3", &water729, tiny_machine(3, 3, 3, 6.0), 0x6691b01070001233ULL},
      {"4x2x2", &water4096, tiny_machine(4, 2, 2, 6.0), 0x17d38f590d2e4accULL},
      {"dhfr 8x8x8", &dhfr, arch::MachineConfig::anton2(8, 8, 8),
       0x5da2ad1c7dff6230ULL},
      {"dhfr 4x4x4", &dhfr, arch::MachineConfig::anton2(4, 4, 4),
       0xc58783ae98ea0521ULL},
  };
  for (const auto& c : cases) {
    const uint64_t got = workload_digest(Workload::build(*c.sys, c.cfg));
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, c.digest) << c.name << " digest is now " << hex;
  }
}

TEST(TorusDims, NearCubicFactorisation) {
  int x, y, z;
  core::torus_dims(512, &x, &y, &z);
  EXPECT_EQ(x * y * z, 512);
  EXPECT_EQ(x, 8);
  EXPECT_EQ(y, 8);
  EXPECT_EQ(z, 8);
  core::torus_dims(128, &x, &y, &z);
  EXPECT_EQ(x * y * z, 128);
  EXPECT_LE(std::max({x, y, z}), 8);
  core::torus_dims(1, &x, &y, &z);
  EXPECT_EQ(x * y * z, 1);
  core::torus_dims(7, &x, &y, &z);
  EXPECT_EQ(x * y * z, 7);
}

}  // namespace
}  // namespace anton::core
