#include "fe/cell_ops.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>

#include "la/gemm_kernel.hpp"

namespace dftfe::fe {

namespace {

struct GeomKey {
  long hx, hy, hz;  // cell sizes quantized to 1e-12
  bool operator<(const GeomKey& o) const {
    if (hx != o.hx) return hx < o.hx;
    if (hy != o.hy) return hy < o.hy;
    return hz < o.hz;
  }
};

GeomKey quantize(const std::array<double, 3>& h) {
  auto q = [](double v) { return std::lround(v * 1e12); };
  return {q(h[0]), q(h[1]), q(h[2])};
}

std::vector<index_t> all_cells(const Mesh& mesh) {
  std::vector<index_t> cells(static_cast<std::size_t>(mesh.ncells_total()));
  std::iota(cells.begin(), cells.end(), index_t{0});
  return cells;
}

}  // namespace

template <class T>
CellStiffness<T>::CellStiffness(const DofHandler& dofh, double coef_lap,
                                std::array<double, 3> kpoint)
    : CellStiffness(dofh, all_cells(dofh.mesh()), coef_lap, kpoint) {}

template <class T>
CellStiffness<T>::CellStiffness(const DofHandler& dofh, const std::vector<index_t>& cells,
                                double coef_lap, std::array<double, 3> kpoint,
                                const std::vector<index_t>& rows)
    : dofh_(&dofh), nrows_(rows.empty() ? dofh.ndofs() : static_cast<index_t>(rows.size())) {
  const bool has_k = (kpoint[0] != 0.0 || kpoint[1] != 0.0 || kpoint[2] != 0.0);
  has_bloch_ = has_k;
  if (has_k && !scalar_traits<T>::is_complex)
    throw std::invalid_argument("CellStiffness: k-points require a complex scalar type");
  sumfac_ = !has_k && dofh.degree() >= kSumfacMinDegree;

  const int n = dofh.nodes_per_cell_1d();
  const index_t nd = dofh.ndofs_per_cell();
  k1_ = reference_stiffness_1d(n);
  const auto& K1 = k1_;
  const auto D = gll_derivative_matrix(dofh.ref_nodes());
  const auto& w = dofh.ref_weights();
  // Widen before multiplying: i + n*(j + n*k) evaluated in int overflows
  // once n^3 exceeds INT_MAX, and signed overflow is UB, not wraparound.
  auto idx = [n](int i, int j, int k) {
    return static_cast<index_t>(i) +
           static_cast<index_t>(n) * (static_cast<index_t>(j) + static_cast<index_t>(n) * k);
  };
  if (sumfac_) {
    wcell_.resize(static_cast<std::size_t>(nd));  // lint: allow(hot-path-alloc): construction
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
          wcell_[static_cast<std::size_t>(idx(i, j, k))] = w[i] * w[j] * w[k];
  }

  // Precompute the slot -> row map (slot s holds cells[s]) and group the
  // slots by geometry.
  const Mesh& mesh = dofh.mesh();
  const index_t nc = static_cast<index_t>(cells.size());
  cell_dof_map_.resize(nc * nd);  // lint: allow(hot-path-alloc): construction
  std::map<GeomKey, index_t> group_of;
  std::vector<index_t> dofs;
  for (index_t s = 0; s < nc; ++s) {
    const index_t c = cells[static_cast<std::size_t>(s)];
    if (c < 0 || c >= mesh.ncells_total())
      throw std::invalid_argument("CellStiffness: cell id outside the mesh");
    dofh.cell_dofs(c, dofs);
    if (!rows.empty())
      for (index_t& d : dofs) {
        const auto it = std::lower_bound(rows.begin(), rows.end(), d);
        if (it == rows.end() || *it != d)
          throw std::invalid_argument("CellStiffness: a cell dof is not in rows");
        d = static_cast<index_t>(it - rows.begin());
      }
    std::copy(dofs.begin(), dofs.end(), cell_dof_map_.begin() + s * nd);
    const GeomKey key = quantize(mesh.cell_sizes(c));
    auto [it, inserted] = group_of.try_emplace(key, static_cast<index_t>(groups_.size()));
    if (inserted) groups_.push_back({});  // lint: allow(hot-path-alloc): construction
    groups_[it->second].cells.push_back(s);  // lint: allow(hot-path-alloc): construction
  }

  // Build each geometry group's operator: the folded 1D operators or the
  // dense cell matrix.
  for (auto& [key, gi] : group_of) {
    Group& g = groups_[gi];
    const auto h = mesh.cell_sizes(cells[static_cast<std::size_t>(g.cells.front())]);
    const double hx = h[0], hy = h[1], hz = h[2];
    const double cxx = coef_lap * (2.0 / hx) * (hy / 2.0) * (hz / 2.0);
    const double cyy = coef_lap * (hx / 2.0) * (2.0 / hy) * (hz / 2.0);
    const double czz = coef_lap * (hx / 2.0) * (hy / 2.0) * (2.0 / hz);
    g.cxx = cxx;
    g.cyy = cyy;
    g.czz = czz;
    if (sumfac_) {
      // A_x(i, m) = cxx K1(i, m) / w_m, and A_y, A_z alike, so that on the
      // weighted vector v = (w (x) w (x) w) u
      //   (A_x (x) I (x) I + I (x) A_y (x) I + I (x) I (x) A_z) v
      //   = (cxx K1 (x) M (x) M + cyy M (x) K1 (x) M + czz M (x) M (x) K1) u.
      // Stored as the kernel reads them: [A_x | A_y | A_z], n x 3n.
      g.S.resize(n, 3 * n);  // lint: allow(hot-path-alloc): construction
      for (int m = 0; m < n; ++m)
        for (int i = 0; i < n; ++i) {
          g.S(i, m) = cxx * K1(i, m) / w[m];
          g.S(i, n + m) = cyy * K1(i, m) / w[m];
          g.S(i, 2 * n + m) = czz * K1(i, m) / w[m];
        }
      continue;
    }
    g.A.resize(nd, nd);  // lint: allow(hot-path-alloc): construction
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i) {
          const index_t a = idx(i, j, k);
          // x-derivative couplings: (i, i') with same (j, k).
          for (int ip = 0; ip < n; ++ip)
            g.A(a, idx(ip, j, k)) += T(cxx * K1(i, ip) * w[j] * w[k]);
          for (int jp = 0; jp < n; ++jp)
            g.A(a, idx(i, jp, k)) += T(cyy * w[i] * K1(j, jp) * w[k]);
          for (int kp = 0; kp < n; ++kp)
            g.A(a, idx(i, j, kp)) += T(czz * w[i] * w[j] * K1(k, kp));
        }
    if (has_k) {
      if constexpr (scalar_traits<T>::is_complex) {
        // -i k . grad term: G_x(a,b) = w_i D(i,i') w_j w_k (hy/2)(hz/2), etc.
        const double gx = (hy / 2.0) * (hz / 2.0);
        const double gy = (hx / 2.0) * (hz / 2.0);
        const double gz = (hx / 2.0) * (hy / 2.0);
        const double k2 = 0.5 * (kpoint[0] * kpoint[0] + kpoint[1] * kpoint[1] +
                                 kpoint[2] * kpoint[2]);
        const complex_t mi(0.0, -1.0);
        for (int k = 0; k < n; ++k)
          for (int j = 0; j < n; ++j)
            for (int i = 0; i < n; ++i) {
              const index_t a = idx(i, j, k);
              for (int ip = 0; ip < n; ++ip)
                g.A(a, idx(ip, j, k)) += mi * kpoint[0] * gx * w[i] * D(i, ip) * w[j] * w[k];
              for (int jp = 0; jp < n; ++jp)
                g.A(a, idx(i, jp, k)) += mi * kpoint[1] * gy * w[i] * w[j] * D(j, jp) * w[k];
              for (int kp = 0; kp < n; ++kp)
                g.A(a, idx(i, j, kp)) += mi * kpoint[2] * gz * w[i] * w[j] * w[k] * D(k, kp);
              // +|k|^2/2 on the (lumped) cell mass diagonal.
              g.A(a, a) += k2 * w[i] * w[j] * w[k] * (hx / 2.0) * (hy / 2.0) * (hz / 2.0);
            }
      }
    }
  }
}

template <class T>
void CellStiffness<T>::apply_add(const la::Matrix<T>& X, la::Matrix<T>& Y) const {
  if (groups_.empty()) return;  // no cells: no scratch either
  const index_t nd = dofh_->ndofs_per_cell();
  const index_t B = X.cols();
  T* xc = xc_.acquire(nd, kChunkCells * B).data();
  T* yc = yc_.acquire(nd, kChunkCells * B).data();
  // Below this many chunk entries a parallel region costs more than the
  // copies it splits (la::pcg's vector-length cut).
  constexpr index_t kParallelEntries = 8192;
  if (sumfac_) {
    // Each column runs alone in its own kChunkCells-cell slice of the two
    // chunk buffers, so one thread owns each column's scatter targets and a
    // chunk stays in L1. Per chunk of nc cells: the weighted gather, pairs
    // fastest (entry i of cell b at i * nc + b; a complex entry is two real
    // lanes), one kernel call for the x, y and z contractions, and the
    // scatter in cell order.
    const index_t n = dofh_->nodes_per_cell_1d();
    const la::kernel::SumfacFn sumfac = la::kernel::active().sumfac;
    constexpr index_t kLanes = scalar_traits<T>::is_complex ? 2 : 1;
#pragma omp parallel for if (B > 1 && B * ncells() * nd > kParallelEntries) schedule(static)
    for (index_t j = 0; j < B; ++j) {
      const T* src = X.col(j);
      T* dst = Y.col(j);
      T* xj = xc + j * kChunkCells * nd;
      T* yj = yc + j * kChunkCells * nd;
      for (const Group& g : groups_) {
        const index_t ncg = static_cast<index_t>(g.cells.size());
        for (index_t c0 = 0; c0 < ncg; c0 += kChunkCells) {
          const index_t nc = std::min(kChunkCells, ncg - c0);
          for (index_t b = 0; b < nc; ++b) {
            const index_t* dofs = cell_dof_map_.data() + g.cells[c0 + b] * nd;
            for (index_t i = 0; i < nd; ++i) xj[i * nc + b] = src[dofs[i]] * wcell_[i];
          }
          sumfac(n, nc * kLanes, g.S.data(), reinterpret_cast<const double*>(xj),
                 reinterpret_cast<double*>(yj), nc * kLanes);
          for (index_t b = 0; b < nc; ++b) {
            const index_t* dofs = cell_dof_map_.data() + g.cells[c0 + b] * nd;
            for (index_t i = 0; i < nd; ++i) dst[dofs[i]] += yj[i * nc + b];
          }
        }
      }
    }
    FlopCounter::global().add(flops_per_apply(B));
    return;
  }
  for (const Group& g : groups_) {
    const index_t ncg = static_cast<index_t>(g.cells.size());
    for (index_t c0 = 0; c0 < ncg; c0 += kChunkCells) {
      const index_t nc = std::min(kChunkCells, ncg - c0);
      const bool par = nc * B * nd > kParallelEntries;
      // Gather: cell-local blocks Xc[:, b*B:(b+1)*B] = X[dofs(cell_b), :].
#pragma omp parallel for if (par) schedule(static)
      for (index_t b = 0; b < nc; ++b) {
        const index_t* dofs = cell_dof_map_.data() + g.cells[c0 + b] * nd;
        for (index_t j = 0; j < B; ++j) {
          const T* src = X.col(j);
          T* dst = xc + (b * B + j) * nd;
          for (index_t i = 0; i < nd; ++i) dst[i] = src[dofs[i]];
        }
      }
      // Batched dense apply with the shared group matrix (stride 0).
      la::gemm_strided_batched<T>('N', 'N', nd, B, nd, T(1), g.A.data(), nd, 0, xc, nd, nd * B,
                                  T(0), yc, nd, nd * B, nc);
      // Scatter (Assembly_FE): parallel over columns so no two threads write
      // the same (dof, column) entry.
#pragma omp parallel for if (par) schedule(static)
      for (index_t j = 0; j < B; ++j) {
        T* dst = Y.col(j);
        for (index_t b = 0; b < nc; ++b) {
          const index_t* dofs = cell_dof_map_.data() + g.cells[c0 + b] * nd;
          const T* src = yc + (b * B + j) * nd;
          for (index_t i = 0; i < nd; ++i) dst[dofs[i]] += src[i];
        }
      }
    }
  }
}

template <class T>
void CellStiffness<T>::apply_add_sumfac_scalar(const la::Matrix<T>& X, la::Matrix<T>& Y) const {
  if (has_bloch_)
    throw std::logic_error("CellStiffness: sum factorization has no Bloch terms");
  const int n = dofh_->nodes_per_cell_1d();
  const index_t nd = dofh_->ndofs_per_cell();
  const index_t B = X.cols();
  const auto& w = dofh_->ref_weights();
  auto idx = [n](int i, int j, int k) {
    return static_cast<index_t>(i) +
           static_cast<index_t>(n) * (static_cast<index_t>(j) + static_cast<index_t>(n) * k);
  };
  // Analytic FLOPs: three n^4 contractions + weighting per cell per column.
  FlopCounter::global().add((6.0 * n * nd + 4.0 * nd) * static_cast<double>(ncells()) * B *
                            scalar_traits<T>::flop_factor);

#pragma omp parallel
  {
    std::vector<T> u(nd), yl(nd);
    // Parallel over columns only: each column's scatter targets are then
    // owned by one thread (no assembly races across geometry groups).
#pragma omp for schedule(static)
    for (index_t jcol = 0; jcol < B; ++jcol) {
      for (const Group& g : groups_) {
        for (const index_t slot : g.cells) {
          const index_t* dofs = cell_dof_map_.data() + slot * nd;
          const T* src = X.col(jcol);
          for (index_t a = 0; a < nd; ++a) u[a] = src[dofs[a]];
          // y = cxx (K1 (x) M (x) M) u + cyy (M (x) K1 (x) M) u + czz (...).
          for (int k = 0; k < n; ++k)
            for (int j = 0; j < n; ++j)
              for (int i = 0; i < n; ++i) {
                T sx{}, sy{}, sz{};
                for (int m = 0; m < n; ++m) {
                  sx += T(k1_(i, m)) * u[idx(m, j, k)];
                  sy += T(k1_(j, m)) * u[idx(i, m, k)];
                  sz += T(k1_(k, m)) * u[idx(i, j, m)];
                }
                yl[idx(i, j, k)] = T(g.cxx * w[j] * w[k]) * sx + T(g.cyy * w[i] * w[k]) * sy +
                                   T(g.czz * w[i] * w[j]) * sz;
              }
          T* dst = Y.col(jcol);
          for (index_t a = 0; a < nd; ++a) dst[dofs[a]] += yl[a];
        }
      }
    }
  }
}

template <class T>
void CellStiffness<T>::apply_add(const std::vector<T>& x, std::vector<T>& y) const {
  // Allocation-free in steady state (persistent one-column buffers). Its
  // callers apply one vector once: the stiffness probes of the benches and
  // tests.
  const index_t n = nrows_;
  if (static_cast<index_t>(x.size()) < n || static_cast<index_t>(y.size()) < n)
    throw std::invalid_argument("CellStiffness::apply_add: vector shorter than nrows()");
  la::Matrix<T>& X = xv_.acquire(n, 1);
  la::Matrix<T>& Y = yv_.acquire_zeroed(n, 1);
  // Copy exactly n entries: persistent scratch callers may pass vectors
  // whose capacity-reused size exceeds the row count.
  std::copy(x.begin(), x.begin() + n, X.data());
  apply_add(X, Y);
  for (index_t i = 0; i < n; ++i) y[i] += Y(i, 0);
}

template <class T>
double CellStiffness<T>::flops_per_apply(index_t ncols) const {
  // What apply_add charges: the dense cell GEMM, or the three n^4
  // contractions plus the gather's weighting.
  const double n = dofh_->nodes_per_cell_1d();
  const double nd = static_cast<double>(dofh_->ndofs_per_cell());
  const double per_cell = sumfac_ ? 6.0 * n * nd + nd : 2.0 * nd * nd;
  return per_cell * ncols * static_cast<double>(ncells()) * scalar_traits<T>::flop_factor;
}

template class CellStiffness<double>;
template class CellStiffness<complex_t>;

}  // namespace dftfe::fe
