#include "fe/mesh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dftfe::fe {

Axis make_uniform_axis(double L, index_t ncells, bool periodic) {
  if (ncells < 1 || L <= 0) throw std::invalid_argument("make_uniform_axis: bad arguments");
  Axis a;
  a.periodic = periodic;
  a.nodes.resize(ncells + 1);
  for (index_t i = 0; i <= ncells; ++i) a.nodes[i] = L * static_cast<double>(i) / ncells;
  return a;
}

Axis make_graded_axis(double L, double center, double half_width, double h_fine,
                      double h_coarse, bool periodic) {
  const double lo = std::clamp(center - half_width, 0.0, L);
  const double hi = std::clamp(center + half_width, 0.0, L);
  if (hi - lo < 1e-12) return make_uniform_axis(L, std::max<index_t>(1, std::llround(L / h_coarse)), periodic);

  auto segment = [](double len, double h) {
    return std::max<index_t>(len > 1e-12 ? 1 : 0, static_cast<index_t>(std::ceil(len / h)));
  };
  const index_t n_left = (lo > 1e-12) ? segment(lo, h_coarse) : 0;
  const index_t n_fine = segment(hi - lo, h_fine);
  const index_t n_right = (L - hi > 1e-12) ? segment(L - hi, h_coarse) : 0;

  Axis a;
  a.periodic = periodic;
  a.nodes.push_back(0.0);
  for (index_t i = 1; i <= n_left; ++i) a.nodes.push_back(lo * static_cast<double>(i) / n_left);
  for (index_t i = 1; i <= n_fine; ++i)
    a.nodes.push_back(lo + (hi - lo) * static_cast<double>(i) / n_fine);
  for (index_t i = 1; i <= n_right; ++i)
    a.nodes.push_back(hi + (L - hi) * static_cast<double>(i) / n_right);
  a.nodes.back() = L;  // guard against rounding
  return a;
}

Mesh make_uniform_mesh(double L, index_t n, bool periodic) {
  return Mesh(make_uniform_axis(L, n, periodic), make_uniform_axis(L, n, periodic),
              make_uniform_axis(L, n, periodic));
}

}  // namespace dftfe::fe
