#pragma once

// Structured rectilinear hex meshes with per-axis grading. The paper uses
// adaptive FE meshes refined near atoms; here the same "resolve the cores,
// coarsen the far field" adaptivity is realized by tensor-product grading
// (small cells inside a window around the atoms, large cells outside), which
// preserves trivial C0 continuity. Cell sizes are quantized to a few distinct
// values per axis so that cells can be grouped by geometry and each group can
// share one dense cell-level Hamiltonian in the batched-GEMM kernels.

#include <array>
#include <vector>

#include "base/defs.hpp"

namespace dftfe::fe {

/// One coordinate axis: cell boundary coordinates (ascending) + periodicity.
struct Axis {
  std::vector<double> nodes;  // ncells + 1 boundaries
  bool periodic = false;

  index_t ncells() const { return static_cast<index_t>(nodes.size()) - 1; }
  double length() const { return nodes.back() - nodes.front(); }
  double cell_size(index_t c) const { return nodes[c + 1] - nodes[c]; }
};

/// Uniform axis of `ncells` cells spanning [0, L].
Axis make_uniform_axis(double L, index_t ncells, bool periodic = false);

/// Graded axis: cells of size ~h_fine inside [center - half_width,
/// center + half_width], ~h_coarse outside, sizes snapped so each region is
/// uniform (at most 3 distinct cell sizes). The window is clipped to [0, L].
Axis make_graded_axis(double L, double center, double half_width, double h_fine,
                      double h_coarse, bool periodic = false);

/// Tensor-product rectilinear mesh.
class Mesh {
 public:
  Mesh(Axis x, Axis y, Axis z) : axes_{std::move(x), std::move(y), std::move(z)} {}

  const Axis& axis(int d) const { return axes_[d]; }
  index_t ncells(int d) const { return axes_[d].ncells(); }
  index_t ncells_total() const { return ncells(0) * ncells(1) * ncells(2); }

  /// Decompose a linear cell id (x fastest) into (cx, cy, cz).
  std::array<index_t, 3> cell_coords(index_t c) const {
    const index_t nx = ncells(0), ny = ncells(1);
    return {c % nx, (c / nx) % ny, c / (nx * ny)};
  }
  index_t cell_index(index_t cx, index_t cy, index_t cz) const {
    return cx + ncells(0) * (cy + ncells(1) * cz);
  }
  /// Cell extents (hx, hy, hz).
  std::array<double, 3> cell_sizes(index_t c) const {
    const auto cc = cell_coords(c);
    return {axes_[0].cell_size(cc[0]), axes_[1].cell_size(cc[1]), axes_[2].cell_size(cc[2])};
  }
  /// Lower corner of the cell.
  std::array<double, 3> cell_origin(index_t c) const {
    const auto cc = cell_coords(c);
    return {axes_[0].nodes[cc[0]], axes_[1].nodes[cc[1]], axes_[2].nodes[cc[2]]};
  }
  double volume() const {
    return axes_[0].length() * axes_[1].length() * axes_[2].length();
  }

 private:
  std::array<Axis, 3> axes_;
};

/// Convenience: cubic box [0, L]^3 with n cells per axis.
Mesh make_uniform_mesh(double L, index_t n, bool periodic = false);

}  // namespace dftfe::fe
