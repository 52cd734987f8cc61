// Cell (link-cell) decomposition of a periodic box.
//
// Used by the functional MD engine to build Verlet lists in O(N), by the
// synthetic system builders for overlap rejection, and by the machine model
// to count pairwise interactions per spatial region.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/vec3.h"
#include "geom/box.h"

namespace anton {

class CellGrid {
 public:
  // Builds a grid with cell side >= min_cell along each axis.
  CellGrid(const Box& box, double min_cell);

  // Re-targets the grid to a new box/cell size without releasing any of the
  // binning storage, so a persistent grid can be rebuilt allocation-free.
  void reset(const Box& box, double min_cell);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  int num_cells() const { return nx_ * ny_ * nz_; }
  Vec3 cell_lengths() const {
    const Vec3& l = box_.lengths();
    return {l.x / nx_, l.y / ny_, l.z / nz_};
  }
  const Box& box() const { return box_; }

  // Cell index for a (wrapped or unwrapped) position.
  int cell_of(const Vec3& p) const {
    const Vec3 w = box_.wrap(p);
    const Vec3& l = box_.lengths();
    int cx = static_cast<int>(w.x / l.x * nx_);
    int cy = static_cast<int>(w.y / l.y * ny_);
    int cz = static_cast<int>(w.z / l.z * nz_);
    if (cx >= nx_) cx = nx_ - 1;
    if (cy >= ny_) cy = ny_ - 1;
    if (cz >= nz_) cz = nz_ - 1;
    return index(cx, cy, cz);
  }

  int index(int cx, int cy, int cz) const {
    return (cz * ny_ + cy) * nx_ + cx;
  }
  void coords(int cell, int* cx, int* cy, int* cz) const {
    *cx = cell % nx_;
    *cy = (cell / nx_) % ny_;
    *cz = cell / (nx_ * ny_);
  }

  // Periodic neighbour cell (including self at d=0,0,0).
  int neighbor(int cell, int dx, int dy, int dz) const {
    int cx, cy, cz;
    coords(cell, &cx, &cy, &cz);
    cx = (cx + dx % nx_ + nx_) % nx_;
    cy = (cy + dy % ny_ + ny_) % ny_;
    cz = (cz + dz % nz_ + nz_) % nz_;
    return index(cx, cy, cz);
  }

  // Bins positions; afterwards cell_atoms(c) lists atom indices in cell c.
  void bin(std::span<const Vec3> positions);

  std::span<const int> cell_atoms(int cell) const {
    const auto begin = starts_[static_cast<size_t>(cell)];
    const auto end = starts_[static_cast<size_t>(cell) + 1];
    return {atoms_.data() + begin, atoms_.data() + end};
  }

  // CSR offset of `cell` into the binned atom array — the number of atoms in
  // all lower-indexed cells.  Valid after bin().
  int cell_start(int cell) const {
    return starts_[static_cast<size_t>(cell)];
  }

  // The 27-cell stencil (self + 26 neighbours) may alias itself on very
  // small grids; returns unique cells only.
  std::vector<int> stencil(int cell) const;

  // Half stencil for pair enumeration without double counting: self plus 13
  // neighbours.  Aliasing on small grids is removed.
  std::vector<int> half_stencil(int cell) const;

 private:
  Box box_;
  int nx_, ny_, nz_;
  std::vector<int> atoms_;    // atom indices sorted by cell
  std::vector<int> starts_;   // CSR offsets, size num_cells()+1
  // bin() scratch, persistent so rebinning does not allocate.
  std::vector<int> bin_cell_of_atom_;
  std::vector<int> bin_cursor_;
};

}  // namespace anton
