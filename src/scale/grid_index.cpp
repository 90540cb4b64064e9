#include "src/scale/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mmtag::scale {

GridIndex::GridIndex(double width_m, double height_m, double cell_m)
    : cell_m_(cell_m) {
  if (!(width_m > 0.0 && height_m > 0.0 && cell_m > 0.0)) {
    throw std::invalid_argument(
        "GridIndex: width, height and cell size must be positive");
  }
  cols_ = std::max(1, static_cast<int>(std::floor(width_m / cell_m)));
  rows_ = std::max(1, static_cast<int>(std::floor(height_m / cell_m)));
  cells_.resize(static_cast<std::size_t>(cols_) *
                static_cast<std::size_t>(rows_));
}

int GridIndex::col_of(double x) const {
  const int c = static_cast<int>(std::floor(x / cell_m_));
  return std::clamp(c, 0, cols_ - 1);
}

int GridIndex::row_of(double y) const {
  const int r = static_cast<int>(std::floor(y / cell_m_));
  return std::clamp(r, 0, rows_ - 1);
}

std::size_t GridIndex::cell_of(double x, double y) const {
  return static_cast<std::size_t>(row_of(y)) *
             static_cast<std::size_t>(cols_) +
         static_cast<std::size_t>(col_of(x));
}

void GridIndex::insert(TagSlot slot, double x, double y) {
  std::vector<TagSlot>& bucket = cells_[cell_of(x, y)];
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), slot), slot);
  ++occupancy_;
}

bool GridIndex::move(TagSlot slot, double old_x, double old_y, double new_x,
                     double new_y) {
  const std::size_t from = cell_of(old_x, old_y);
  const std::size_t to = cell_of(new_x, new_y);
  if (from == to) return false;
  std::vector<TagSlot>& src = cells_[from];
  const auto it = std::lower_bound(src.begin(), src.end(), slot);
  if (it != src.end() && *it == slot) src.erase(it);
  std::vector<TagSlot>& dst = cells_[to];
  dst.insert(std::lower_bound(dst.begin(), dst.end(), slot), slot);
  return true;
}

void GridIndex::gather_disc(double cx, double cy, double radius_m,
                            std::vector<TagSlot>& out) const {
  const int c0 = col_of(cx - radius_m);
  const int c1 = col_of(cx + radius_m);
  const int r0 = row_of(cy - radius_m);
  const int r1 = row_of(cy + radius_m);
  // Cells whose nearest corner lies beyond the disc are skipped outright
  // (cheap integer-geometry cull); the rest are coarse candidates.
  const double r2 = radius_m * radius_m;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Queries run concurrently from epoch shards: tally this query's cost
  // locally and publish once with relaxed adds (deltas commute, so the
  // totals are exact whatever the interleaving).
  std::uint64_t visited = 0;
  std::uint64_t candidates = 0;
  for (int r = r0; r <= r1; ++r) {
    // Border cells absorb every clamped out-of-rectangle position, so
    // their extent is unbounded for the cull.
    const double ylo = r == 0 ? -kInf : static_cast<double>(r) * cell_m_;
    const double yhi =
        r == rows_ - 1 ? kInf : static_cast<double>(r + 1) * cell_m_;
    const double dy = cy < ylo ? ylo - cy : (cy > yhi ? cy - yhi : 0.0);
    for (int c = c0; c <= c1; ++c) {
      const double xlo = c == 0 ? -kInf : static_cast<double>(c) * cell_m_;
      const double xhi =
          c == cols_ - 1 ? kInf : static_cast<double>(c + 1) * cell_m_;
      const double dx = cx < xlo ? xlo - cx : (cx > xhi ? cx - xhi : 0.0);
      ++visited;
      if (dx * dx + dy * dy > r2) continue;
      const std::vector<TagSlot>& bucket =
          cells_[static_cast<std::size_t>(r) *
                     static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
      candidates += bucket.size();
      out.insert(out.end(), bucket.begin(), bucket.end());
    }
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  cells_visited_.fetch_add(visited, std::memory_order_relaxed);
  candidates_.fetch_add(candidates, std::memory_order_relaxed);
}

}  // namespace mmtag::scale
