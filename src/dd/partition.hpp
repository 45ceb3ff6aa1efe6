#pragma once

// Domain decomposition of the structured FE mesh, one sub-domain per rank:
// cell-aligned 3D bricks on an nx x ny x nz lane grid, the partition the
// threaded rank engine (engine.hpp) runs on. A partition only hands each
// rank its cells; the engine numbers a lane's rows from the dofs of those
// cells on its one DofHandler. A 1 x 1 x N grid is the z-slab layout: every
// lane owns whole x-y cell layers.

#include <array>
#include <vector>

#include "base/defs.hpp"
#include "fe/dofs.hpp"

namespace dftfe::dd {

/// One rank's cell-aligned brick: the half-open cell range it owns on each
/// axis. Bricks that touch share the dofs on their common faces, edges and
/// corners, wrapped across a periodic axis like the mesh's own numbering.
struct Brick {
  std::array<index_t, 3> c_begin{0, 0, 0};
  std::array<index_t, 3> c_end{0, 0, 0};
};

/// Cell-aligned 3D brick partition on an nx x ny x nz lane grid. Ranks are
/// numbered x-fastest over the grid (r = gx + nx*(gy + ny*gz)); axis a of
/// grid line g owns cells [nc_a*g/n_a, nc_a*(g+1)/n_a), so a {1, 1, N} grid
/// gives z-slab r the cell layers [ncz*r/N, ncz*(r+1)/N). The
/// surface-minimizing `factorize` picks the grid for a given total lane
/// count (what DFTFE_NLANES=<total> resolves through).
class BrickPartition {
 public:
  /// Partition onto the given lane grid; each axis is clamped to its cell
  /// count (at most one lane per cell layer), so the effective grid may be
  /// smaller.
  static BrickPartition cell_aligned(const fe::DofHandler& dofh, std::array<int, 3> grid);

  /// Choose the lane grid for `nlanes` total lanes: among all grids with
  /// n_a <= ncells_a and the largest achievable product <= nlanes, pick the
  /// one with the smallest total interface surface (summed shared-face cell
  /// area, periodic wraps included), breaking ties toward z- then y-major
  /// splits so small counts reproduce the historical slab layouts
  /// ({1,1,2} for 2 lanes on a cube, {1,2,2} for 4, {2,2,2} for 8).
  static std::array<int, 3> factorize(const fe::DofHandler& dofh, int nlanes);

  int nranks() const { return static_cast<int>(bricks_.size()); }
  const std::array<int, 3>& grid() const { return grid_; }
  const Brick& brick(int r) const { return bricks_[static_cast<std::size_t>(r)]; }
  /// The mesh cell ids (x fastest) of rank r's brick, ascending.
  std::vector<index_t> cells(int r) const;

  std::array<int, 3> coords(int r) const {
    return {r % grid_[0], (r / grid_[0]) % grid_[1], r / (grid_[0] * grid_[1])};
  }
  int rank_of(int gx, int gy, int gz) const {
    return gx + grid_[0] * (gy + grid_[1] * gz);
  }

  index_t ncells(int d) const { return ncells_[d]; }

 private:
  BrickPartition() = default;

  std::array<int, 3> grid_{1, 1, 1};
  std::vector<Brick> bricks_;
  std::array<index_t, 3> ncells_{0, 0, 0};
};

}  // namespace dftfe::dd
