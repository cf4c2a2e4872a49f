#include "phy/spatial_index.h"

#include <cmath>

#include "util/assert.h"

namespace hydra::phy {

double distance_m(Position a, Position b) {
  const double dx = a.x_m - b.x_m;
  const double dy = a.y_m - b.y_m;
  return std::sqrt(dx * dx + dy * dy);
}

void SpatialGrid::reset(const std::vector<Position>& points,
                        double min_cell_m) {
  HYDRA_ASSERT(min_cell_m > 0.0);
  min_ = max_ = {0.0, 0.0};
  if (!points.empty()) {
    min_ = max_ = points.front();
    for (const auto& p : points) {
      min_.x_m = std::min(min_.x_m, p.x_m);
      min_.y_m = std::min(min_.y_m, p.y_m);
      max_.x_m = std::max(max_.x_m, p.x_m);
      max_.y_m = std::max(max_.y_m, p.y_m);
    }
  }
  // Cells may only be *wider* than requested — never narrower, or the
  // 3×3 query would miss in-reach receivers. The per-axis cap keeps a
  // far-flung outlier from exploding the cell table.
  constexpr double kMaxCellsPerAxis = 64.0;
  cell_m_ = std::max({min_cell_m, (max_.x_m - min_.x_m) / kMaxCellsPerAxis,
                      (max_.y_m - min_.y_m) / kMaxCellsPerAxis});
  nx_ = ny_ = 1;
  if (!points.empty()) {
    nx_ = cell_of(max_.x_m - min_.x_m) + 1;
    ny_ = cell_of(max_.y_m - min_.y_m) + 1;
  }
  cells_.assign(static_cast<std::size_t>(nx_) * ny_, {});
  // Sized for the mean occupancy, so an evenly spread world fills its
  // cells without regrowing them (and a one-cell world exactly).
  const std::size_t mean = (points.size() + cells_.size() - 1) / cells_.size();
  for (auto& cell : cells_) cell.reserve(mean);
}

bool SpatialGrid::contains(Position p) const {
  return p.x_m >= min_.x_m && p.x_m <= max_.x_m && p.y_m >= min_.y_m &&
         p.y_m <= max_.y_m;
}

void SpatialGrid::insert(Position p, std::uint32_t key) {
  HYDRA_ASSERT_MSG(contains(p), "insert outside the grid's bounding box");
  cells_[cell_index(clamped_cell_x(p), clamped_cell_y(p))].push_back(key);
}

void SpatialGrid::erase(Position p, std::uint32_t key) {
  auto& cell = cells_[cell_index(clamped_cell_x(p), clamped_cell_y(p))];
  const auto it = std::find(cell.begin(), cell.end(), key);
  HYDRA_ASSERT_MSG(it != cell.end(), "erase of a point the grid never held");
  cell.erase(it);
}

int SpatialGrid::clamped_cell_x(Position p) const {
  return std::clamp(cell_of(p.x_m - min_.x_m), 0, nx_ - 1);
}

int SpatialGrid::clamped_cell_y(Position p) const {
  return std::clamp(cell_of(p.y_m - min_.y_m), 0, ny_ - 1);
}

int SpatialGrid::cell_of(double offset_m) const {
  return static_cast<int>(std::floor(offset_m / cell_m_));
}

}  // namespace hydra::phy
