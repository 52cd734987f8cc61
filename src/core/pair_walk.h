// CutoffPairWalk: exact, in-order enumeration of every atom pair within a
// cutoff, shared by the workload mapper and the decomposition study.
//
// Visit order.  Workload::build's remote-atom counts depend on the order in
// which pairs arrive (see Tile::remote_atoms), so the walk fixes it:
//   * fewer than 3 cells along some axis ("tiny" boxes): all pairs i < j,
//     i ascending, then j ascending, tested with Box::distance2;
//   * otherwise the link-cell half-shell walk: cells c ascending, the
//     neighbour cells of c in CellGrid::half_stencil order, a in cell order,
//     b in neighbour-cell order, and b after a within c itself.
// visit(i, j) always receives i < j.
//
// Exactness of the cell walk.  Positions are staged in cell order as SoA
// and four candidates b are tested at once with simd::VecD:
//   * The minimum image is d - L * round(d * (1/L)), where Box::min_image
//     divides by L.  The two quotients differ by a few ulps, so their
//     rounded values can differ only when d/L sits within ulps of a
//     half-integer.  There |d| is about L/2, and 3 cells per axis imply
//     rc <= L/3, so both forms reject the pair.
//   * The squared distance is (dx*dx + dy*dy) + dz*dz, the order of
//     Box::distance2, with FP contraction off; the accept test is < rc².
//   * Accepted lanes are visited lowest first, which is neighbour-cell order.
// Before atom a scans a neighbour cell, a lower bound on its distance to the
// bounding box of that cell's atoms is checked.  The cell is skipped only
// when the bound, shrunk by a margin far above rounding error, still exceeds
// rc, so the skip removes no pair and changes no order.
#pragma once

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "common/simd.h"
#include "common/vec3.h"
#include "geom/box.h"
#include "geom/cells.h"

namespace anton::core {

class CutoffPairWalk {
 public:
  CutoffPairWalk(const Box& box, std::span<const Vec3> positions,
                 double cutoff);

  // Calls visit(i, j), i < j, for every pair with
  // box.distance2(pos[i], pos[j]) < cutoff², in the order described above.
  template <class Visit>
  void for_each(Visit&& visit) const {
    if (tiny_) {
      all_pairs(visit);
    } else {
      cell_pairs(visit);
    }
  }

 private:
  // Per-cell bounding box of the staged atom positions.
  struct Bounds {
    Vec3 lo, hi;
  };

  template <class Visit>
  void all_pairs(Visit& visit) const;
  template <class Visit>
  void cell_pairs(Visit& visit) const;
  template <class Visit>
  void scan(int slot_a, int first, int last, int* hits, Visit& visit) const;

  // True when every atom of `cell` is certainly farther than the cutoff
  // from staged atom `slot`.
  bool beyond_cutoff(int slot, int cell) const;

  Box box_;
  std::span<const Vec3> pos_;
  double rc2_;
  CellGrid grid_;
  bool tiny_;
  Vec3 inv_len_;  // 1 / box length per axis
  // Cell-walk staging, slot k = k-th atom in cell order, so cell c holds
  // slots [grid_.cell_start(c), grid_.cell_start(c + 1)).  The coordinate
  // arrays carry simd::kLanesD padding slots so a ragged 4-wide load never
  // reads past the end.
  std::vector<double> x_, y_, z_;
  std::vector<int> atom_;  // slot -> atom index
  std::vector<Bounds> bounds_;
  int max_cell_atoms_ = 0;
};

template <class Visit>
void CutoffPairWalk::all_pairs(Visit& visit) const {
  const int n = static_cast<int>(pos_.size());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (box_.distance2(pos_[static_cast<size_t>(i)],
                         pos_[static_cast<size_t>(j)]) < rc2_) {
        visit(i, j);
      }
    }
  }
}

template <class Visit>
void CutoffPairWalk::cell_pairs(Visit& visit) const {
  // Accepted slots of one scan: at most one cell's atoms plus a chunk.
  std::vector<int> hits(static_cast<size_t>(max_cell_atoms_ + simd::kLanesD));
  for (int c = 0; c < grid_.num_cells(); ++c) {
    const int c0 = grid_.cell_start(c);
    const int c1 = grid_.cell_start(c + 1);
    for (int nc : grid_.half_stencil(c)) {
      const int n0 = grid_.cell_start(nc);
      const int n1 = grid_.cell_start(nc + 1);
      for (int sa = c0; sa < c1; ++sa) {
        if (nc == c) {
          scan(sa, sa + 1, n1, hits.data(), visit);
        } else if (n0 < n1 && !beyond_cutoff(sa, nc)) {
          scan(sa, n0, n1, hits.data(), visit);
        }
      }
    }
  }
}

template <class Visit>
void CutoffPairWalk::scan(int slot_a, int first, int last, int* hits,
                          Visit& visit) const {
  using simd::VecD;
  constexpr int W = simd::kLanesD;
  const Vec3& len = box_.lengths();
  const VecD lx = VecD::broadcast(len.x), ly = VecD::broadcast(len.y),
             lz = VecD::broadcast(len.z);
  const VecD ix = VecD::broadcast(inv_len_.x),
             iy = VecD::broadcast(inv_len_.y),
             iz = VecD::broadcast(inv_len_.z);
  const VecD rc2 = VecD::broadcast(rc2_);
  const size_t sa = static_cast<size_t>(slot_a);
  const VecD xa = VecD::broadcast(x_[sa]), ya = VecD::broadcast(y_[sa]),
             za = VecD::broadcast(z_[sa]);
  const int a = atom_[sa];
  int n = 0;
  for (int sb = first; sb < last; sb += W) {
    const size_t s = static_cast<size_t>(sb);
    VecD dx = xa - VecD::loadu(&x_[s]);
    VecD dy = ya - VecD::loadu(&y_[s]);
    VecD dz = za - VecD::loadu(&z_[s]);
    dx = dx - lx * round_nearest(dx * ix);
    dy = dy - ly * round_nearest(dy * iy);
    dz = dz - lz * round_nearest(dz * iz);
    const VecD d2 = (dx * dx + dy * dy) + dz * dz;
    unsigned bits = static_cast<unsigned>(cmp_lt(d2, rc2).bits());
    if (last - sb < W) bits &= (1u << (last - sb)) - 1u;
    // Branch-free left-pack of the accepted slots, lowest lane first.
    for (int l = 0; l < W; ++l) {
      hits[n] = sb + l;
      n += static_cast<int>((bits >> l) & 1u);
    }
  }
  for (int k = 0; k < n; ++k) {
    const int b = atom_[static_cast<size_t>(hits[k])];
    visit(std::min(a, b), std::max(a, b));
  }
}

}  // namespace anton::core
