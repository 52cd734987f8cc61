// Verlet neighbour list with skin, built from a cell grid in O(N).
//
// Pairs are stored half (each unordered pair once, under the lower index,
// rows ascending).  Topological exclusions are filtered at build time, so
// force loops never branch on exclusion.
//
// The build is a gather followed by a scatter, and neither sorts:
//   * Stage: wrap positions, bin them on a grid of list-radius cells, and
//     copy them as SoA in cell order with a bounding box per cell.
//   * Gather, over contiguous blocks of atoms j: walk the 27 cells around
//     j's cell, skip a cell whose bounding box is certainly beyond the list
//     radius, and test its atoms i < j four at a time.  Accepted i that are
//     not excluded from j are appended to the block's buffer and counted
//     per row i.
//   * Scatter: a prefix sum over rows and blocks gives the CSR offsets and
//     each block's cursor into every row; each block then writes its j into
//     rows i in ascending j.  Rows come out sorted, whatever the number of
//     blocks or threads.
// The accept test reproduces the half-shell cell walk bit for bit, so the
// CSR does not depend on how the walk is organised (see DESIGN.md, "MD
// engine").  All scratch persists across builds, so steady-state rebuilds
// do not allocate once capacities settle.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "chem/topology.h"
#include "common/threadpool.h"
#include "common/vec3.h"
#include "geom/box.h"

namespace anton {

class CellGrid;  // geom/cells.h; only the .cc needs the definition

class NeighborList {
 public:
  NeighborList(double cutoff, double skin);
  ~NeighborList();  // out of line: grid_ is incomplete here

  double cutoff() const { return cutoff_; }
  double skin() const { return skin_; }
  double list_radius() const { return cutoff_ + skin_; }

  // Rebuilds from scratch; remembers positions for displacement tracking.
  // With a pool, gather and scatter run threaded; the resulting CSR is
  // identical to the serial build.
  void build(const Box& box, std::span<const Vec3> positions,
             const Topology& top, ThreadPool* pool = nullptr);

  // True once any atom has moved more than skin/2 since the last build.
  // With a pool the scan is parallelised and early-exits once any thread
  // finds a displaced atom.
  bool needs_rebuild(const Box& box, std::span<const Vec3> positions,
                     ThreadPool* pool = nullptr) const;

  // CSR access: neighbours j (all with j != i; each pair appears exactly
  // once, under the lower index, sorted ascending).
  std::span<const int> neighbors_of(int i) const {
    const auto b = starts_[static_cast<size_t>(i)];
    const auto e = starts_[static_cast<size_t>(i) + 1];
    return {list_.data() + b, list_.data() + e};
  }
  // Raw CSR offsets (size num_atoms()+1); consumers use these to balance
  // work by cumulative pair count.
  std::span<const int64_t> starts() const { return starts_; }
  int num_atoms() const { return static_cast<int>(starts_.size()) - 1; }
  int64_t num_pairs() const { return static_cast<int64_t>(list_.size()); }
  bool built() const { return !starts_.empty(); }

  // Always-on CSR well-formedness validator: starts_ is monotone and spans
  // list_ exactly; every neighbour j of atom i satisfies i < j < num_atoms()
  // (half list under the lower index) and each row is strictly ascending.
  // Throws anton::Error on violation.  build() runs this automatically when
  // ANTON_ENABLE_INVARIANTS is on (debug and sanitizer builds).
  void validate() const;

 private:
  // Gather output of the atoms j in [block_begin_[b], block_begin_[b + 1]).
  struct Block {
    std::vector<int> lower;     // accepted i < j, grouped by ascending j;
                                // grows as a buffer, filled up to ends.back()
    std::vector<int64_t> ends;  // per j: end of its group in `lower`
    std::vector<int> counts;    // per row i < block end: pairs, then cursor
  };
  // Per-cell bounding box of the staged (wrapped) positions.
  struct Bounds {
    Vec3 lo, hi;
  };

  void build_all_pairs(const Box& box, std::span<const Vec3> positions,
                       const Topology& top);
  void stage(const Box& box, std::span<const Vec3> positions,
             const Topology& top);
  void gather(int b);
  void scatter(int b);
  // Prefix sum over rows and blocks: starts_, and each block's cursors.
  void count(int n);

  double cutoff_;
  double skin_;
  std::vector<int> list_;
  std::vector<int64_t> starts_;
  std::vector<Vec3> ref_positions_;
  // Build scratch, persistent across builds.  The cell grid keeps its
  // binning storage, so steady-state rebuilds touch no allocator.
  std::unique_ptr<CellGrid> grid_;
  std::vector<Vec3> wrapped_;      // per atom
  std::vector<int> cell_of_;       // per atom
  // Staging, slot k = k-th atom in cell order; the slot arrays carry
  // simd::kLanesD padding slots so a ragged 4-wide chunk stays in bounds.
  std::vector<double> x_, y_, z_;
  std::vector<double> id_;         // slot -> atom, as a SIMD-comparable value
  std::vector<int> atom_;          // slot -> atom, ascending within a cell
  std::vector<Bounds> bounds_;     // per cell
  // Lower-exclusion index: the excluded atoms i < j of atom j, ascending,
  // in [excl_lower_start_[j], excl_lower_start_[j + 1]).
  std::vector<int> excl_lower_start_;
  std::vector<int> excl_lower_;
  std::vector<Block> blocks_;
  std::vector<int> block_begin_;
  int num_blocks_ = 0;
};

}  // namespace anton
