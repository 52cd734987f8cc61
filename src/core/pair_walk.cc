#include "core/pair_walk.h"

#include <cmath>

namespace anton::core {

namespace {

// Distance from d to the nearest multiple of len: the minimum-image length
// of a one-axis displacement.
double image_distance(double d, double len, double inv) {
  return std::abs(d - len * std::nearbyint(d * inv));
}

// Lower bound on the minimum-image length of any displacement in
// [lo, hi].  image_distance is a tent between consecutive multiples of
// len, so on an interval inside one period its minimum is at an endpoint;
// an interval that reaches across a multiple has minimum 0.
double image_gap(double lo, double hi, double len, double inv) {
  if (std::floor(lo * inv) != std::floor(hi * inv)) return 0;
  return std::min(image_distance(lo, len, inv),
                  image_distance(hi, len, inv));
}

}  // namespace

CutoffPairWalk::CutoffPairWalk(const Box& box,
                               std::span<const Vec3> positions,
                               double cutoff)
    : box_(box), pos_(positions), rc2_(cutoff * cutoff), grid_(box, cutoff) {
  tiny_ = grid_.nx() < 3 || grid_.ny() < 3 || grid_.nz() < 3;
  if (tiny_) return;
  grid_.bin(positions);
  const Vec3& len = box.lengths();
  inv_len_ = {1.0 / len.x, 1.0 / len.y, 1.0 / len.z};

  const size_t n = positions.size();
  const size_t padded = n + simd::kLanesD;
  x_.assign(padded, 0.0);
  y_.assign(padded, 0.0);
  z_.assign(padded, 0.0);
  atom_.assign(n, 0);
  const int cells = grid_.num_cells();
  bounds_.assign(static_cast<size_t>(cells), Bounds{});
  size_t slot = 0;
  for (int c = 0; c < cells; ++c) {
    const auto atoms = grid_.cell_atoms(c);
    max_cell_atoms_ =
        std::max(max_cell_atoms_, static_cast<int>(atoms.size()));
    Bounds& b = bounds_[static_cast<size_t>(c)];
    if (!atoms.empty()) b.lo = b.hi = positions[static_cast<size_t>(atoms[0])];
    for (int i : atoms) {
      const Vec3& p = positions[static_cast<size_t>(i)];
      x_[slot] = p.x;
      y_[slot] = p.y;
      z_[slot] = p.z;
      atom_[slot] = i;
      ++slot;
      b.lo = {std::min(b.lo.x, p.x), std::min(b.lo.y, p.y),
              std::min(b.lo.z, p.z)};
      b.hi = {std::max(b.hi.x, p.x), std::max(b.hi.y, p.y),
              std::max(b.hi.z, p.z)};
    }
  }
}

bool CutoffPairWalk::beyond_cutoff(int slot, int cell) const {
  // Floating-point subtraction is monotone, so every computed displacement
  // b - a of the cell lies in [lo - a, hi - a].  The margin (1e-9 of the
  // box length per axis) dwarfs the few-ulp error of the image arithmetic
  // here and in scan(), so a skipped cell holds no pair scan() accepts.
  const Bounds& b = bounds_[static_cast<size_t>(cell)];
  const size_t s = static_cast<size_t>(slot);
  const Vec3& len = box_.lengths();
  const double a[3] = {x_[s], y_[s], z_[s]};
  double gap2 = 0;
  for (int axis = 0; axis < 3; ++axis) {
    const double l = len[axis];
    const double gap =
        image_gap(b.lo[axis] - a[axis], b.hi[axis] - a[axis], l,
                  inv_len_[axis]) -
        1e-9 * l;
    if (gap > 0) gap2 += gap * gap;
  }
  return gap2 > rc2_;
}

}  // namespace anton::core
