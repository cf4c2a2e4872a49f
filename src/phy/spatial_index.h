// Geometry support for the medium's delivery lists: node positions and
// a uniform-grid spatial index.
//
// The grid stores one caller-chosen key per point (the medium's are the
// attachment keys Medium::attach hands out) in cells at least one query
// radius wide, so every point within that radius of a query position
// lives in the 3×3 cell neighborhood — candidate sets are supersets of
// the in-reach sets, never subsets (the property test pins this).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

namespace hydra::phy {

struct Position {
  double x_m = 0.0;
  double y_m = 0.0;
};

double distance_m(Position a, Position b);

// Uniform-grid spatial index over keyed points.
class SpatialGrid {
 public:
  // Empties the grid and lays its cells, at least `min_cell_m` wide, over
  // the bounding box of `points`, each reserved for the mean occupancy;
  // insert() then stores each point under its key.
  void reset(const std::vector<Position>& points, double min_cell_m);

  // The realized cell width (>= the requested minimum; the per-axis cap
  // can widen cells further when the world is very elongated).
  double cell_m() const { return cell_m_; }
  int cells_x() const { return nx_; }
  int cells_y() const { return ny_; }

  // True when `p` lies inside the built bounding box — the precondition
  // for insert() and for the incremental-attach fast path.
  bool contains(Position p) const;

  // Adds one point under `key`; requires contains(p).
  void insert(Position p, std::uint32_t key);

  // Removes `key` from the cell containing `p` (it must have been
  // inserted there). O(cell occupancy); the cell's remaining entries
  // keep their relative order.
  void erase(Position p, std::uint32_t key);

  // Calls `visit` with every key in the 3×3 neighborhood of the
  // (clamped) cell containing `p`.
  template <typename Visit>
  void neighborhood(Position p, Visit&& visit) const {
    for_each_neighbor_cell(p, [&](int x, int y) {
      for (const std::uint32_t i : cells_[cell_index(x, y)]) visit(i);
    });
  }

  // Calls `visit` with every key in the 3×3 neighborhood of `p`
  // that lies outside the 3×3 neighborhood of `q`: the points a move
  // from `p` to `q` takes out of mutual candidacy. Empty when both
  // positions share a cell.
  template <typename Visit>
  void neighborhood_outside(Position p, Position q, Visit&& visit) const {
    const int qx = clamped_cell_x(q);
    const int qy = clamped_cell_y(q);
    for_each_neighbor_cell(p, [&](int x, int y) {
      if (std::abs(x - qx) <= 1 && std::abs(y - qy) <= 1) return;
      for (const std::uint32_t i : cells_[cell_index(x, y)]) visit(i);
    });
  }

 private:
  // Cell coordinates of `p`, clamped into the grid — out-of-box
  // positions map to the nearest boundary cell, which keeps
  // neighborhood() a superset query for any position within one cell
  // width of the box.
  int clamped_cell_x(Position p) const;
  int clamped_cell_y(Position p) const;

  template <typename VisitCell>
  void for_each_neighbor_cell(Position p, VisitCell&& visit_cell) const {
    const int cx = clamped_cell_x(p);
    const int cy = clamped_cell_y(p);
    for (int y = std::max(0, cy - 1); y <= std::min(ny_ - 1, cy + 1); ++y) {
      for (int x = std::max(0, cx - 1); x <= std::min(nx_ - 1, cx + 1); ++x) {
        visit_cell(x, y);
      }
    }
  }

  int cell_of(double offset_m) const;
  std::size_t cell_index(int x, int y) const {
    return static_cast<std::size_t>(y) * nx_ + x;
  }

  double cell_m_ = 1.0;
  Position min_;
  Position max_;
  int nx_ = 1;
  int ny_ = 1;
  std::vector<std::vector<std::uint32_t>> cells_;
};

}  // namespace hydra::phy
