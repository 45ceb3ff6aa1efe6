#include "dd/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace dftfe::dd {

BrickPartition BrickPartition::cell_aligned(const fe::DofHandler& dofh,
                                            std::array<int, 3> grid) {
  BrickPartition p;
  for (int a = 0; a < 3; ++a) {
    if (grid[a] < 1)
      throw std::invalid_argument("BrickPartition::cell_aligned: grid >= 1 required");
    p.ncells_[a] = dofh.mesh().ncells(a);
    p.grid_[a] = static_cast<int>(std::min<index_t>(grid[a], p.ncells_[a]));
  }
  p.bricks_.resize(static_cast<std::size_t>(p.grid_[0]) * p.grid_[1] * p.grid_[2]);
  for (int r = 0; r < p.nranks(); ++r) {
    const std::array<int, 3> c = p.coords(r);
    Brick& b = p.bricks_[static_cast<std::size_t>(r)];
    for (int a = 0; a < 3; ++a) {
      b.c_begin[a] = p.ncells_[a] * c[a] / p.grid_[a];
      b.c_end[a] = p.ncells_[a] * (c[a] + 1) / p.grid_[a];
    }
  }
  return p;
}

std::vector<index_t> BrickPartition::cells(int r) const {
  const Brick& b = brick(r);
  std::vector<index_t> ids;
  ids.reserve(static_cast<std::size_t>((b.c_end[0] - b.c_begin[0]) * (b.c_end[1] - b.c_begin[1]) *
                                       (b.c_end[2] - b.c_begin[2])));
  for (index_t cz = b.c_begin[2]; cz < b.c_end[2]; ++cz)
    for (index_t cy = b.c_begin[1]; cy < b.c_end[1]; ++cy)
      for (index_t cx = b.c_begin[0]; cx < b.c_end[0]; ++cx)
        ids.push_back(cx + ncells_[0] * (cy + ncells_[1] * cz));
  return ids;
}

std::array<int, 3> BrickPartition::factorize(const fe::DofHandler& dofh, int nlanes) {
  if (nlanes < 1)
    throw std::invalid_argument("BrickPartition::factorize: nlanes >= 1 required");
  index_t nc[3];
  bool per[3];
  for (int a = 0; a < 3; ++a) {
    nc[a] = dofh.mesh().ncells(a);
    per[a] = dofh.mesh().axis(a).periodic;
  }
  const double total = static_cast<double>(nc[0]) * nc[1] * nc[2];
  // Interface surface of a candidate grid, in shared-face cell area: axis a
  // contributes (n_a - 1) internal faces plus the periodic wrap, each of area
  // ncells_total / nc_a cells. Lower is less halo traffic per step.
  auto surface = [&](int nx, int ny, int nz) {
    const int n[3] = {nx, ny, nz};
    double s = 0.0;
    for (int a = 0; a < 3; ++a) {
      const int faces = (n[a] - 1) + ((per[a] && n[a] > 1) ? 1 : 0);
      s += faces * (total / static_cast<double>(nc[a]));
    }
    return s;
  };
  std::array<int, 3> best{1, 1, 1};
  long best_lanes = 1;
  double best_surf = surface(1, 1, 1);
  for (int nx = 1; nx <= std::min<index_t>(nlanes, nc[0]); ++nx)
    for (int ny = 1; static_cast<long>(nx) * ny <= nlanes && ny <= nc[1]; ++ny) {
      const int nz = static_cast<int>(
          std::min<index_t>(nc[2], static_cast<index_t>(nlanes / (nx * ny))));
      const long lanes = static_cast<long>(nx) * ny * nz;
      const double surf = surface(nx, ny, nz);
      // Rank: most lanes first (clamp as little as possible), then least
      // surface, then z-major and y-major splits (the historical slab bias).
      const bool better =
          lanes > best_lanes ||
          (lanes == best_lanes &&
           (surf < best_surf - 1e-12 ||
            (surf < best_surf + 1e-12 &&
             (nz > best[2] || (nz == best[2] && ny > best[1])))));
      if (better) {
        best = {nx, ny, nz};
        best_lanes = lanes;
        best_surf = surf;
      }
    }
  return best;
}

}  // namespace dftfe::dd
