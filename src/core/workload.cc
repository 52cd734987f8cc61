#include "core/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/error.h"
#include "core/pair_walk.h"
#include "fft/fft.h"

namespace anton::core {

namespace {

bool positive_half(int dx, int dy, int dz) {
  return dz > 0 || (dz == 0 && dy > 0) || (dz == 0 && dy == 0 && dx > 0);
}

// An atom's home node: rank and node-grid coordinates.
struct Home {
  int rank, x, y, z;
};

}  // namespace

Workload Workload::build(const System& system,
                         const arch::MachineConfig& config) {
  const double mesh_spacing = config.mesh_spacing;
  Workload w;
  const Box& box = system.box();
  const auto& nc = config.noc;
  w.decomp_ =
      std::make_unique<DomainDecomp>(box, nc.nx, nc.ny, nc.nz);
  const DomainDecomp& dd = *w.decomp_;
  const int P = dd.num_nodes();
  w.nodes_.assign(static_cast<size_t>(P), NodeWork{});
  w.total_atoms_ = system.num_atoms();

  // --- per-atom node assignment -------------------------------------------
  const auto pos = system.positions();
  std::vector<Home> home(pos.size());
  for (size_t i = 0; i < pos.size(); ++i) {
    Home& h = home[i];
    h.rank = dd.node_of(pos[i]);
    dd.coords(h.rank, &h.x, &h.y, &h.z);
    w.nodes_[static_cast<size_t>(h.rank)].atoms++;
  }

  // --- exact pair counting with half-shell tile assignment ----------------
  const double rc = config.machine_cutoff;
  ANTON_CHECK_MSG(rc <= box.max_cutoff(),
                  "machine cutoff " << rc << " exceeds minimum-image limit "
                                    << box.max_cutoff());

  // Dense offset space.  A pair within rc spans at most ceil(rc / home box)
  // nodes per axis, and a wrapped delta at most half the torus.  Offsets
  // are numbered dx-major, dz-minor; f and T-1-f are opposite offsets.
  const int dims[3] = {dd.nx(), dd.ny(), dd.nz()};
  const Vec3 home_box = dd.home_box_lengths();
  int reach[3], width[3];
  for (int axis = 0; axis < 3; ++axis) {
    reach[axis] = std::min(dims[axis] / 2,
                           static_cast<int>(std::ceil(rc / home_box[axis])));
    width[axis] = 2 * reach[axis] + 1;
  }
  const int stride[3] = {width[1] * width[2], width[2], 1};
  const int T = width[0] * stride[0];
  // wrap[axis][b - a + n - 1]: stride-scaled (delta + reach) of the
  // periodic node delta from a to b wrapped into (-n/2, n/2], or -1 when
  // the delta lies beyond the reach.
  std::vector<int> wrap[3];
  for (int axis = 0; axis < 3; ++axis) {
    const int n = dims[axis];
    wrap[axis].assign(static_cast<size_t>(2 * n - 1), -1);
    for (int raw = -(n - 1); raw <= n - 1; ++raw) {
      int d = raw;
      if (d > n / 2) d -= n;
      if (d < -(n - 1) / 2) d += n;
      if (std::abs(d) <= reach[axis]) {
        wrap[axis][static_cast<size_t>(raw + n - 1)] =
            (d + reach[axis]) * stride[axis];
      }
    }
  }
  // Tiles live only in the positive half; slot[f] numbers the positive
  // offsets in ascending f, and a pair whose offset f is negative is owned
  // by the other node under offset T-1-f.
  struct Slot {
    int tile;   // index among the positive-half offsets
    bool flip;  // f is in the negative half
  };
  std::vector<Slot> slot(static_cast<size_t>(T), Slot{-1, false});
  std::vector<NodeOffset> half_offsets;
  for (int f = 0; f < T; ++f) {
    const NodeOffset off{f / stride[0] - reach[0],
                         f / stride[1] % width[1] - reach[1],
                         f % width[2] - reach[2]};
    if (positive_half(off.dx, off.dy, off.dz)) {
      slot[static_cast<size_t>(f)].tile =
          static_cast<int>(half_offsets.size());
      half_offsets.push_back(off);
    }
  }
  for (int f = 0; f < T; ++f) {
    if (slot[static_cast<size_t>(f)].tile < 0) {
      slot[static_cast<size_t>(f)] = {
          slot[static_cast<size_t>(T - 1 - f)].tile, true};
    }
  }
  const int H = static_cast<int>(half_offsets.size());

  // (node, positive offset) -> (pairs, remote atoms), node-major.
  struct TileCount {
    int64_t pairs = 0;
    int64_t remote_atoms = 0;
  };
  std::vector<TileCount> tiles(static_cast<size_t>(P) * H);
  std::vector<int64_t> internal(static_cast<size_t>(P), 0);
  // Last tile (node * H + offset) that counted each atom as remote.  A
  // revisit from another tile in between counts the atom again, so the
  // count depends on the pair order the walk fixes.
  std::vector<int64_t> remote_stamp(pos.size(), -1);

  CutoffPairWalk(box, pos, rc).for_each([&](int i, int j) {
    const Home& hi = home[static_cast<size_t>(i)];
    const Home& hj = home[static_cast<size_t>(j)];
    if (hi.rank == hj.rank) {
      internal[static_cast<size_t>(hi.rank)]++;
      return;
    }
    const int fx = wrap[0][static_cast<size_t>(hj.x - hi.x + dims[0] - 1)];
    const int fy = wrap[1][static_cast<size_t>(hj.y - hi.y + dims[1] - 1)];
    const int fz = wrap[2][static_cast<size_t>(hj.z - hi.z + dims[2] - 1)];
    ANTON_CHECK(fx >= 0 && fy >= 0 && fz >= 0);
    const Slot s = slot[static_cast<size_t>(fx + fy + fz)];
    const int owner_rank = s.flip ? hj.rank : hi.rank;
    const int remote_atom = s.flip ? i : j;
    const int64_t tile = static_cast<int64_t>(owner_rank) * H + s.tile;
    TileCount& tc = tiles[static_cast<size_t>(tile)];
    tc.pairs++;
    int64_t& stamp = remote_stamp[static_cast<size_t>(remote_atom)];
    tc.remote_atoms += stamp != tile;
    stamp = tile;
  });

  // Canonical offset table (union across nodes, in order of first use by
  // ascending node) + per-node tiles in ascending offset order.
  std::vector<int> offset_index(static_cast<size_t>(H), -1);
  for (int v = 0; v < P; ++v) {
    NodeWork& nd = w.nodes_[static_cast<size_t>(v)];
    nd.internal_pairs = internal[static_cast<size_t>(v)];
    for (int t = 0; t < H; ++t) {
      const TileCount& tc = tiles[static_cast<size_t>(v) * H + t];
      if (tc.pairs == 0) continue;
      int& idx = offset_index[static_cast<size_t>(t)];
      if (idx < 0) {
        idx = static_cast<int>(w.tile_offsets_.size());
        w.tile_offsets_.push_back(half_offsets[static_cast<size_t>(t)]);
      }
      nd.tiles.push_back({idx, tc.pairs, tc.remote_atoms});
    }
  }

  // Position multicast destinations: node u needs v's positions when u owns
  // a tile whose offset points from u to v, i.e. v = u + offset.  Visiting
  // u in ascending order appends each list sorted and, dropping repeats of
  // the last entry, unique.
  for (int u = 0; u < P; ++u) {
    for (const auto& t : w.nodes_[static_cast<size_t>(u)].tiles) {
      const NodeOffset& off =
          w.tile_offsets_[static_cast<size_t>(t.offset_index)];
      const int v = dd.neighbor_rank(u, off);
      if (v == u) continue;
      auto& dst = w.nodes_[static_cast<size_t>(v)].pos_destinations;
      if (dst.empty() || dst.back() != u) dst.push_back(u);
    }
  }

  // --- bonded terms (owner = node of first atom) --------------------------
  const Topology& top = system.topology();
  auto owner = [&home](int atom) {
    return home[static_cast<size_t>(atom)].rank;
  };
  auto all_local = [&](std::initializer_list<int> atoms) {
    const int o = owner(*atoms.begin());
    for (int a : atoms) {
      if (owner(a) != o) return false;
    }
    return true;
  };
  for (const auto& b : top.bonds()) {
    auto& nd = w.nodes_[static_cast<size_t>(owner(b.i))];
    (all_local({b.i, b.j}) ? nd.bonded_local : nd.bonded_boundary).bonds++;
  }
  for (const auto& a : top.angles()) {
    auto& nd = w.nodes_[static_cast<size_t>(owner(a.i))];
    (all_local({a.i, a.j, a.k}) ? nd.bonded_local : nd.bonded_boundary)
        .angles++;
  }
  for (const auto& d : top.dihedrals()) {
    auto& nd = w.nodes_[static_cast<size_t>(owner(d.i))];
    (all_local({d.i, d.j, d.k, d.l}) ? nd.bonded_local : nd.bonded_boundary)
        .dihedrals++;
  }
  for (const auto& p : top.pairs14()) {
    auto& nd = w.nodes_[static_cast<size_t>(owner(p.i))];
    (all_local({p.i, p.j}) ? nd.bonded_local : nd.bonded_boundary).pairs14++;
  }
  for (const auto& c : top.constraints()) {
    w.nodes_[static_cast<size_t>(owner(c.i))].constraints++;
  }

  // --- mesh geometry -------------------------------------------------------
  // Nearest power of two (geometric rounding) keeps the realised spacing
  // close to the target instead of up to 2x finer.
  for (int axis = 0; axis < 3; ++axis) {
    const double l = box.lengths()[axis];
    const double want = std::max(4.0, l / mesh_spacing);
    const int up = next_power_of_two(static_cast<int>(std::ceil(want)));
    const int down = std::max(4, up / 2);
    w.mesh_dim_[axis] = (want / down <= up / want) ? down : up;
  }
  // The spreading Gaussian's width tracks the mesh spacing, so the support
  // is a fixed radius in cells.
  const int r = config.spread_support_cells;
  w.spread_support_points_ = (2 * r + 1) * (2 * r + 1) * (2 * r + 1);
  return w;
}

int64_t Workload::total_pairs() const {
  int64_t s = 0;
  for (const auto& n : nodes_) s += n.total_pairs();
  return s;
}

int Workload::max_atoms_per_node() const {
  int m = 0;
  for (const auto& n : nodes_) m = std::max(m, n.atoms);
  return m;
}

double Workload::spread_halo_bytes(const arch::MachineConfig& config) const {
  // Halo depth = spread radius in cells; each face exchanges
  // depth * (brick cross-section) mesh points.
  const int P = num_nodes();
  const double brick_points = static_cast<double>(mesh_points_total()) / P;
  const double cross_section = std::pow(brick_points, 2.0 / 3.0);
  const double depth =
      std::cbrt(static_cast<double>(spread_support_points_)) / 2.0;
  return depth * cross_section * config.bytes_per_mesh_point;
}

}  // namespace anton::core
