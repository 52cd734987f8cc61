#include "geom/cells.h"

#include <algorithm>

namespace anton {

CellGrid::CellGrid(const Box& box, double min_cell) { reset(box, min_cell); }

void CellGrid::reset(const Box& box, double min_cell) {
  ANTON_CHECK_MSG(min_cell > 0, "cell size must be positive");
  box_ = box;
  const Vec3& l = box.lengths();
  nx_ = std::max(1, static_cast<int>(l.x / min_cell));
  ny_ = std::max(1, static_cast<int>(l.y / min_cell));
  nz_ = std::max(1, static_cast<int>(l.z / min_cell));
  starts_.assign(static_cast<size_t>(num_cells()) + 1, 0);
}

void CellGrid::bin(std::span<const Vec3> positions) {
  const size_t n = positions.size();
  bin_cell_of_atom_.assign(n, 0);
  starts_.assign(static_cast<size_t>(num_cells()) + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const int c = cell_of(positions[i]);
    bin_cell_of_atom_[i] = c;
    ++starts_[static_cast<size_t>(c) + 1];
  }
  for (int c = 0; c < num_cells(); ++c) {
    starts_[static_cast<size_t>(c) + 1] += starts_[static_cast<size_t>(c)];
  }
  atoms_.assign(n, 0);
  bin_cursor_.assign(starts_.begin(), starts_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    atoms_[static_cast<size_t>(
        bin_cursor_[static_cast<size_t>(bin_cell_of_atom_[i])]++)] =
        static_cast<int>(i);
  }
}

std::vector<int> CellGrid::stencil(int cell) const {
  std::vector<int> out;
  out.reserve(27);
  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int c = neighbor(cell, dx, dy, dz);
        if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
      }
    }
  }
  return out;
}

std::vector<int> CellGrid::half_stencil(int cell) const {
  // Standard half-shell: (dz > 0) || (dz == 0 && dy > 0) ||
  // (dz == 0 && dy == 0 && dx >= 0).
  std::vector<int> out;
  out.reserve(14);
  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const bool keep =
            dz > 0 || (dz == 0 && dy > 0) || (dz == 0 && dy == 0 && dx >= 0);
        if (!keep) continue;
        const int c = neighbor(cell, dx, dy, dz);
        if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
      }
    }
  }
  return out;
}

}  // namespace anton
