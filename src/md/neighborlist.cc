#include "md/neighborlist.h"

#include <algorithm>
#include <atomic>

#include "common/error.h"
#include "common/simd.h"
#include "geom/cells.h"

namespace anton {

namespace {
// Below this, threading a build or a rebuild check costs more than it saves.
constexpr size_t kSerialThreshold = 2048;
// Gather/scatter blocks per pool thread: enough to even out uneven blocks
// and a noisy host by dynamic assignment, few enough that the per-block row
// counts stay small.
constexpr int kBlocksPerThread = 4;

// Runs fn(b) for every block b in [0, nblocks), handing blocks to whichever
// pool thread is free next.  Results never depend on the assignment.
template <class F>
void for_each_block(ThreadPool* pool, int nblocks, F&& fn) {
  if (pool == nullptr || nblocks <= 1) {
    for (int b = 0; b < nblocks; ++b) fn(b);
    return;
  }
  std::atomic<int> next{0};
  pool->for_each_thread([&](unsigned) {
    for (int b = next.fetch_add(1, std::memory_order_relaxed); b < nblocks;
         b = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(b);
    }
  });
}

// The neighbour cell coordinate one step d along an axis of n cells, and
// the image shift that step crosses (the half-shell walk's shifts).
struct Step {
  int cell;
  double shift;
};
Step step(int c, int d, int n, double len) {
  const int x = c + d;
  if (x < 0) return {x + n, -len};
  if (x >= n) return {x - n, len};
  return {x, 0.0};
}

// True when every image position w + shift, w in the box [lo, hi], is
// certainly farther than the list radius from p.  The margin (1e-9 of the
// box length per axis) dwarfs the few-ulp error of this arithmetic and of
// the gather's distance test, so a cell skipped here holds no pair the test
// would accept.
bool beyond(const Vec3& lo, const Vec3& hi, const Vec3& p, const Vec3& shift,
            const Vec3& len, double rl2) {
  double gap2 = 0;
  for (int axis = 0; axis < 3; ++axis) {
    const double gap = std::max(lo[axis] + shift[axis] - p[axis],
                                p[axis] - (hi[axis] + shift[axis])) -
                       1e-9 * len[axis];
    if (gap > 0) gap2 += gap * gap;
  }
  return gap2 > rl2;
}
}  // namespace

NeighborList::NeighborList(double cutoff, double skin)
    : cutoff_(cutoff), skin_(skin) {
  ANTON_CHECK_MSG(cutoff > 0 && skin >= 0, "bad neighbour-list parameters");
}

NeighborList::~NeighborList() = default;

// Grids with fewer than 3 cells along an axis alias their stencils; such
// boxes hold few atoms, so every pair i < j is tested directly.  Rows fill
// in ascending order.
void NeighborList::build_all_pairs(const Box& box,
                                   std::span<const Vec3> positions,
                                   const Topology& top) {
  const double rl2 = list_radius() * list_radius();
  const int n = static_cast<int>(positions.size());
  list_.clear();
  starts_.assign(static_cast<size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (box.distance2(positions[static_cast<size_t>(i)],
                        positions[static_cast<size_t>(j)]) < rl2 &&
          !top.excluded(i, j)) {
        list_.push_back(j);
      }
    }
    starts_[static_cast<size_t>(i) + 1] =
        static_cast<int64_t>(list_.size());
  }
}

// Wraps and stages positions in cell order, and derives the lower-exclusion
// index from the topology's upper lists.
void NeighborList::stage(const Box& box, std::span<const Vec3> positions,
                         const Topology& top) {
  const size_t n = positions.size();
  const CellGrid& grid = *grid_;
  // Wrap once so the gather can use shift-based displacements (no
  // divisions); for positions already in-box this is the identity.
  wrapped_.resize(n);
  for (size_t i = 0; i < n; ++i) wrapped_[i] = box.wrap(positions[i]);

  const size_t padded = n + simd::kLanesD;
  x_.assign(padded, 0.0);
  y_.assign(padded, 0.0);
  z_.assign(padded, 0.0);
  id_.assign(padded, 0.0);
  atom_.assign(padded, 0);
  cell_of_.resize(n);
  const int cells = grid.num_cells();
  bounds_.resize(static_cast<size_t>(cells));
  size_t slot = 0;
  for (int c = 0; c < cells; ++c) {
    const auto atoms = grid.cell_atoms(c);
    Bounds& b = bounds_[static_cast<size_t>(c)];
    b = {};
    if (!atoms.empty()) b.lo = b.hi = wrapped_[static_cast<size_t>(atoms[0])];
    for (int i : atoms) {
      const Vec3& p = wrapped_[static_cast<size_t>(i)];
      x_[slot] = p.x;
      y_[slot] = p.y;
      z_[slot] = p.z;
      id_[slot] = i;
      atom_[slot] = i;
      cell_of_[static_cast<size_t>(i)] = c;
      ++slot;
      b.lo = {std::min(b.lo.x, p.x), std::min(b.lo.y, p.y),
              std::min(b.lo.z, p.z)};
      b.hi = {std::max(b.hi.x, p.x), std::max(b.hi.y, p.y),
              std::max(b.hi.z, p.z)};
    }
  }

  // Transpose of the exclusion lists (atoms j > i excluded from i): a
  // counting pass, then a fill in ascending i, so each row is sorted.
  excl_lower_start_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    for (int j : top.exclusions_of(static_cast<int>(i))) {
      ++excl_lower_start_[static_cast<size_t>(j) + 1];
    }
  }
  for (size_t j = 0; j < n; ++j) {
    excl_lower_start_[j + 1] += excl_lower_start_[j];
  }
  excl_lower_.resize(static_cast<size_t>(excl_lower_start_[n]));
  for (size_t i = 0; i < n; ++i) {
    for (int j : top.exclusions_of(static_cast<int>(i))) {
      // The counts become fill cursors and end up shifted one row down.
      excl_lower_[static_cast<size_t>(
          excl_lower_start_[static_cast<size_t>(j)]++)] = static_cast<int>(i);
    }
  }
  for (size_t j = n; j > 0; --j) {
    excl_lower_start_[j] = excl_lower_start_[j - 1];
  }
  excl_lower_start_[0] = 0;
}

// Finds, for every atom j of block b, the atoms i < j within the list
// radius that are not excluded from j.
//
// The accept test reproduces the half-shell cell walk, in which atom a of
// cell c meets atom b of a cell in c's half stencil at image shift s and is
// accepted when norm2((w_a - s) - w_b) < rl².  From j's side, with shift s
// of the neighbour cell of i:
//   * i's cell in the upper half stencil of j's cell (self included): the
//     walk had a = j, so the displacement is (w_j - s) - w_i;
//   * otherwise the walk had a = i, from i's cell with shift -s; its
//     displacement (w_i + s) - w_j is the exact negation of
//     w_j - (w_i + s), which has the same square.
// Squares are summed as (dx² + dy²) + dz², the order of norm2.
void NeighborList::gather(int b) {
  ANTON_HOT_NOALLOC();
  using simd::VecD;
  constexpr int W = simd::kLanesD;
  const CellGrid& grid = *grid_;
  const Vec3& len = grid.box().lengths();
  const double rl = list_radius();
  const double rl2 = rl * rl;
  const VecD rl2v = VecD::broadcast(rl2);
  const int* atom = atom_.data();

  Block& blk = blocks_[static_cast<size_t>(b)];
  const int j0 = block_begin_[static_cast<size_t>(b)];
  const int j1 = block_begin_[static_cast<size_t>(b) + 1];
  std::fill(blk.counts.begin(), blk.counts.end(), 0);
  int* counts = blk.counts.data();
  size_t used = 0;  // filled part of blk.lower

  for (int j = j0; j < j1; ++j) {
    const size_t sj = static_cast<size_t>(j);
    const Vec3 wj = wrapped_[sj];
    const VecD jv = VecD::broadcast(static_cast<double>(j));
    const size_t first = used;
    int cx, cy, cz;
    grid.coords(cell_of_[sj], &cx, &cy, &cz);
    const Step xs[3] = {step(cx, -1, grid.nx(), len.x),
                        step(cx, 0, grid.nx(), len.x),
                        step(cx, 1, grid.nx(), len.x)};
    const Step ys[3] = {step(cy, -1, grid.ny(), len.y),
                        step(cy, 0, grid.ny(), len.y),
                        step(cy, 1, grid.ny(), len.y)};
    const Step zs[3] = {step(cz, -1, grid.nz(), len.z),
                        step(cz, 0, grid.nz(), len.z),
                        step(cz, 1, grid.nz(), len.z)};
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const Step& sx = xs[dx + 1];
          const Step& sy = ys[dy + 1];
          const Step& sz = zs[dz + 1];
          const int nc = grid.index(sx.cell, sy.cell, sz.cell);
          const int n0 = grid.cell_start(nc);
          const int n1 = grid.cell_start(nc + 1);
          // Atoms within a cell ascend, so the i < j form a prefix.
          if (n0 == n1 || atom[n0] >= j) continue;
          const Vec3 shift{sx.shift, sy.shift, sz.shift};
          const Bounds& bb = bounds_[static_cast<size_t>(nc)];
          if (beyond(bb.lo, bb.hi, wj, shift, len, rl2)) continue;

          const size_t room = used + static_cast<size_t>(n1 - n0 + W);
          if (blk.lower.size() < room) {
            // Amortized growth into the persistent block buffer:
            // allocation-free once capacities settle (asserted by the
            // steady-state allocation test).
            blk.lower.resize(  // anton-lint: allow(hot-alloc)
                std::max(2 * blk.lower.size(), room));
          }
          int* out = blk.lower.data();
          const bool upper =
              dz > 0 || (dz == 0 && (dy > 0 || (dy == 0 && dx >= 0)));
          // Upper: (w_j - s) - w_i.  Lower: w_j - (w_i + s).
          const Vec3 a = upper ? wj - shift : wj;
          const VecD ax = VecD::broadcast(a.x), ay = VecD::broadcast(a.y),
                     az = VecD::broadcast(a.z);
          const VecD bx = VecD::broadcast(shift.x),
                     by = VecD::broadcast(shift.y),
                     bz = VecD::broadcast(shift.z);
          for (int s = n0; s < n1 && atom[s] < j; s += W) {
            const size_t k = static_cast<size_t>(s);
            VecD xi = VecD::loadu(&x_[k]);
            VecD yi = VecD::loadu(&y_[k]);
            VecD zi = VecD::loadu(&z_[k]);
            if (!upper) {
              xi = xi + bx;
              yi = yi + by;
              zi = zi + bz;
            }
            const VecD ddx = ax - xi, ddy = ay - yi, ddz = az - zi;
            const VecD d2 = (ddx * ddx + ddy * ddy) + ddz * ddz;
            unsigned bits = static_cast<unsigned>(
                (cmp_lt(d2, rl2v) & cmp_lt(VecD::loadu(&id_[k]), jv)).bits());
            if (n1 - s < W) bits &= (1u << (n1 - s)) - 1u;
            // Branch-free left-pack of the accepted atoms, lowest lane first.
            for (int l = 0; l < W; ++l) {
              out[used] = atom[s + l];
              used += (bits >> l) & 1u;
            }
          }
        }
      }
    }
    // Drop the pairs excluded from j, then count the rest into their rows.
    const int* ex = excl_lower_.data() + excl_lower_start_[sj];
    const int* ex_end = excl_lower_.data() + excl_lower_start_[sj + 1];
    if (ex != ex_end) {
      size_t kept = first;
      for (size_t k = first; k < used; ++k) {
        const int i = blk.lower[k];
        if (i >= *ex && std::find(ex, ex_end, i) != ex_end) continue;
        blk.lower[kept++] = i;
      }
      used = kept;
    }
    for (size_t k = first; k < used; ++k) ++counts[blk.lower[k]];
    blk.ends[sj - static_cast<size_t>(j0)] = static_cast<int64_t>(used);
  }
}

// Rows i < block end only ever hold pairs of blocks at or after i's own, so
// each block keeps counts for the rows below its end and the sum for row i
// runs over the blocks from i's block on.
void NeighborList::count(int n) {
  starts_.resize(static_cast<size_t>(n) + 1);
  int64_t total = 0;
  int first = 0;  // first block whose end lies above row i
  for (int i = 0; i < n; ++i) {
    while (block_begin_[static_cast<size_t>(first) + 1] <= i) ++first;
    starts_[static_cast<size_t>(i)] = total;
    for (int b = first; b < num_blocks_; ++b) {
      int& c = blocks_[static_cast<size_t>(b)].counts[static_cast<size_t>(i)];
      const int pairs = c;
      c = static_cast<int>(total);
      total += pairs;
    }
  }
  starts_[static_cast<size_t>(n)] = total;
  list_.resize(static_cast<size_t>(total));
}

// Writes each j of block b into the rows of its accepted i, in ascending j.
// The rows a stretch of j writes to span several MB of the list, so each
// write's line is prefetched a fixed distance ahead.
void NeighborList::scatter(int b) {
  ANTON_HOT_NOALLOC();
  constexpr int64_t kAhead = 64;
  Block& blk = blocks_[static_cast<size_t>(b)];
  int* cursor = blk.counts.data();
  int* out = list_.data();
  const int* lower = blk.lower.data();
  const int j0 = block_begin_[static_cast<size_t>(b)];
  const int j1 = block_begin_[static_cast<size_t>(b) + 1];
  const int64_t total = j1 > j0 ? blk.ends.back() : 0;
  int64_t k = 0;
  for (int j = j0; j < j1; ++j) {
    const int64_t end = blk.ends[static_cast<size_t>(j - j0)];
    for (; k < end; ++k) {
      if (k + kAhead < total) simd::prefetch(out + cursor[lower[k + kAhead]]);
      out[cursor[lower[k]]++] = j;
    }
  }
}

void NeighborList::build(const Box& box, std::span<const Vec3> positions,
                         const Topology& top, ThreadPool* pool) {
  const double rl = list_radius();
  ANTON_CHECK_MSG(rl <= box.max_cutoff(),
                  "list radius " << rl << " exceeds minimum-image limit "
                                 << box.max_cutoff());
  const int n = static_cast<int>(positions.size());
  ANTON_CHECK(n == top.num_atoms());

  if (grid_ == nullptr) {
    grid_ = std::make_unique<CellGrid>(box, rl);
  } else {
    grid_->reset(box, rl);
  }
  CellGrid& grid = *grid_;

  if (grid.nx() < 3 || grid.ny() < 3 || grid.nz() < 3) {
    build_all_pairs(box, positions, top);
  } else {
    grid.bin(positions);
    stage(box, positions, top);

    if (pool == nullptr || positions.size() < kSerialThreshold) pool = nullptr;
    num_blocks_ =
        pool == nullptr
            ? 1
            : std::min(n, static_cast<int>(pool->size()) * kBlocksPerThread);
    if (blocks_.size() < static_cast<size_t>(num_blocks_)) {
      blocks_.resize(static_cast<size_t>(num_blocks_));
    }
    block_begin_.resize(static_cast<size_t>(num_blocks_) + 1);
    for (int b = 0; b <= num_blocks_; ++b) {
      block_begin_[static_cast<size_t>(b)] =
          static_cast<int>(static_cast<int64_t>(n) * b / num_blocks_);
    }
    for (int b = 0; b < num_blocks_; ++b) {
      const int j0 = block_begin_[static_cast<size_t>(b)];
      const int j1 = block_begin_[static_cast<size_t>(b) + 1];
      blocks_[static_cast<size_t>(b)].ends.resize(static_cast<size_t>(j1 - j0));
      blocks_[static_cast<size_t>(b)].counts.resize(static_cast<size_t>(j1));
    }

    for_each_block(pool, num_blocks_, [this](int b) { gather(b); });
    count(n);
    for_each_block(pool, num_blocks_, [this](int b) { scatter(b); });
  }

  ref_positions_.assign(positions.begin(), positions.end());

  if constexpr (kInvariantsEnabled) validate();
}

void NeighborList::validate() const {
  ANTON_CHECK_MSG(built(), "validate() on an unbuilt neighbour list");
  const int n = num_atoms();
  ANTON_CHECK_MSG(starts_[0] == 0, "CSR starts must begin at 0");
  ANTON_CHECK_MSG(starts_[static_cast<size_t>(n)] ==
                      static_cast<int64_t>(list_.size()),
                  "CSR starts must span the pair list exactly: starts["
                      << n << "]=" << starts_[static_cast<size_t>(n)]
                      << " list size " << list_.size());
  for (int i = 0; i < n; ++i) {
    const int64_t b = starts_[static_cast<size_t>(i)];
    const int64_t e = starts_[static_cast<size_t>(i) + 1];
    ANTON_CHECK_MSG(b <= e, "CSR starts not monotone at atom " << i);
    int prev = i;  // rows hold j > i, strictly ascending
    for (int64_t k = b; k < e; ++k) {
      const int j = list_[static_cast<size_t>(k)];
      ANTON_CHECK_MSG(j > prev && j < n,
                      "CSR row " << i << " malformed: neighbour " << j
                                 << " after " << prev << " (n=" << n << ")");
      prev = j;
    }
  }
}

bool NeighborList::needs_rebuild(const Box& box,
                                 std::span<const Vec3> positions,
                                 ThreadPool* pool) const {
  ANTON_HOT_NOALLOC();
  if (ref_positions_.size() != positions.size()) return true;
  const double limit = 0.5 * skin_;
  const double limit2 = limit * limit;
  const size_t n = positions.size();
  if (pool == nullptr || pool->size() <= 1 || n < kSerialThreshold) {
    for (size_t i = 0; i < n; ++i) {
      if (norm2(box.min_image(positions[i], ref_positions_[i])) > limit2) {
        return true;
      }
    }
    return false;
  }
  std::atomic<bool> moved{false};
  pool->parallel_for(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end;) {
      const size_t stop = std::min(end, i + 256);
      for (; i < stop; ++i) {
        if (norm2(box.min_image(positions[i], ref_positions_[i])) > limit2) {
          moved.store(true, std::memory_order_relaxed);
          return;
        }
      }
      if (moved.load(std::memory_order_relaxed)) return;
    }
  });
  return moved.load(std::memory_order_relaxed);
}

}  // namespace anton
