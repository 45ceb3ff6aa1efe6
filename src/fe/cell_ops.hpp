#pragma once

// FE-cell-level operator application — the computational heart of the
// reproduction (paper Sec. 5.4.1):
//
//   Y^b = Assembly_FE { H_ci X_ci^b }
//
// Cells are grouped by geometry (identical (hx, hy, hz) share one cell
// operator), blocks of wavefunctions are gathered to cell-local storage, the
// cell operator is applied with strided-batched GEMMs, and results are
// scattered back (assembled) into the global vector. On structured/graded
// meshes there are only a handful of geometry groups, so the batched GEMM
// reuses one operator across the whole batch (stride 0), exactly like the
// reference-cell reuse in DFT-FE.
//
// The operator picks its cell apply once, at construction. Degree >= 4
// without Bloch terms applies by sum factorization: three n x n 1D operators
// per group contracted along x, y and z (O(p^4) per cell) by one call of the
// per-ISA kernel la::kernel::Table::sumfac, one (cell, column) pair per SIMD
// lane. Every other operator applies its dense (p+1)^3 x (p+1)^3 cell
// matrix (O(p^6)), the paper's choice for wide wavefunction blocks on GPUs.
// On one AVX-512 core the fused kernel applies the p = 4 stiffness of the
// 175-cell dimer mesh in about 50 us on one column and 0.55 ms on 11,
// 2.2-2.4x faster than the three batched GEMMs it replaced (bench_kernels
// BM_StiffnessApply, DESIGN.md §8).
//
// The class is templated on the scalar: real for Gamma-point calculations and
// complex for k-point sampled Hamiltonians, where the Bloch-twisted kinetic
// operator  1/2 (-i grad + k)^2  adds  -i k . grad  cross terms and a
// +|k|^2/2 diagonal to the cell matrices.

#include <array>
#include <cstdint>
#include <vector>

#include "base/defs.hpp"
#include "fe/dofs.hpp"
#include "la/batched.hpp"
#include "la/matrix.hpp"
#include "la/workspace.hpp"

namespace dftfe::fe {

/// Builds and applies  A = coef_lap * (grad, grad) [+ Bloch terms].
/// With coef_lap = 1/2 and a k-point this is the kinetic operator of the KS
/// Hamiltonian; with coef_lap = 1 (real, k = 0) it is the Poisson stiffness.
template <class T>
class CellStiffness {
 public:
  /// The operator over every cell of the mesh, on dofh's dof numbering.
  CellStiffness(const DofHandler& dofh, double coef_lap,
                std::array<double, 3> kpoint = {0.0, 0.0, 0.0});
  /// The operator over `cells` (cell ids of dofh's mesh) only, applied group
  /// by group in list order, with their FLOPs. Operators over a split of the
  /// cells add up to the whole. Its rows are dofh's dofs, or, when `rows` is
  /// given, row i is dof rows[i]: `rows` is ascending and holds every dof of
  /// `cells` (else std::invalid_argument). A rank-engine lane builds its two
  /// operators this way, on its sorted dofs.
  CellStiffness(const DofHandler& dofh, const std::vector<index_t>& cells, double coef_lap,
                std::array<double, 3> kpoint = {0.0, 0.0, 0.0},
                const std::vector<index_t>& rows = {});

  /// Y += A X for a block of column vectors (Y must be sized like X).
  void apply_add(const la::Matrix<T>& X, la::Matrix<T>& Y) const;

  /// Reference scalar-loop sum factorization (the n^4 loop nest), which the
  /// tests compare apply_add against on either path. It allocates on every
  /// call, and an operator with Bloch terms has none (it throws).
  void apply_add_sumfac_scalar(const la::Matrix<T>& X, la::Matrix<T>& Y) const;
  /// Whether apply_add runs by sum factorization (else by dense matrices).
  bool sum_factorized() const { return sumfac_; }

  /// y += A x on the first nrows() entries of a single vector; x or y
  /// shorter than that throws std::invalid_argument.
  void apply_add(const std::vector<T>& x, std::vector<T>& y) const;

  /// FLOPs one apply_add of `ncols` columns charges, on the path it takes.
  double flops_per_apply(index_t ncols) const;

  index_t ncells() const {
    return static_cast<index_t>(cell_dof_map_.size()) / dofh_->ndofs_per_cell();
  }
  index_t ngroups() const { return static_cast<index_t>(groups_.size()); }
  /// Rows of the vectors it applies to: dofh's dof count, or the size of
  /// `rows`.
  index_t nrows() const { return nrows_; }
  /// Bytes of persistent scratch the applies have grown so far.
  std::int64_t scratch_highwater_bytes() const {
    return xc_.highwater_bytes() + yc_.highwater_bytes() + xv_.highwater_bytes() +
           yv_.highwater_bytes();
  }
  const DofHandler& dofs() const { return *dofh_; }

 private:
  struct Group {
    la::Matrix<T> A;        // dense path: the nd x nd cell matrix
    la::Matrix<double> S;   // sum-factorized path: folded 1D operators, n x 3n
    std::vector<index_t> cells;   // member slots (rows of cell_dof_map_)
    double cxx = 0, cyy = 0, czz = 0;  // per-direction stiffness scales
  };

  // Lowest degree applied by sum factorization: below it the dense apply
  // wins on the Chebyshev filter's wide blocks (DESIGN.md §8).
  static constexpr int kSumfacMinDegree = 4;

  const DofHandler* dofh_;
  index_t nrows_ = 0;
  std::vector<Group> groups_;
  std::vector<index_t> cell_dof_map_;  // ndofc rows per slot (cell list order)
  la::Matrix<double> k1_;              // 1D reference stiffness (scalar reference)
  std::vector<double> wcell_;          // w_i w_j w_k per cell dof (sum-factorized gather)
  bool has_bloch_ = false;
  bool sumfac_ = false;
  // Cells gathered at once: bounds the gather/scatter scratch at
  // kChunkCells * ncols cell-local columns.
  static constexpr index_t kChunkCells = 16;
  // Persistent workspace (allocation-free steady state). Applies are const
  // but reuse this scratch, so concurrent applies on one object are not
  // supported — each thread/solver owns its operator instance.
  mutable la::WorkMatrix<T> xc_, yc_;  // gather/scatter chunks, both paths
  mutable la::WorkMatrix<T> xv_, yv_;  // single-vector apply
};

extern template class CellStiffness<double>;
extern template class CellStiffness<complex_t>;

/// Which half of the nodal KS kernel below to run.
enum class KsNodal { prescale, epilogue };

/// The nodal (diagonal) part of the discrete Kohn-Sham operator of
/// ks/hamiltonian.hpp, H~ x = (M^{-1/2} K M^{-1/2} x + v x) (1 - bmask), on
/// rows [r0, r1) of one column. `ims`, `v` and `bm` are the inverse square
/// root of the lumped mass, the effective potential and the boundary mask,
/// indexed like the column pointers. ks::Hamiltonian::apply_fused calls it
/// inside its column-parallel loops and each rank-engine lane per row range,
/// so this is the one place the arithmetic is written. It opens no OpenMP
/// region: a lane runs hundreds of row ranges per step.
///   prescale: y = x M^{-1/2} (1 - bmask), the input of the cell apply
///             (v, z, c, scale and zc are unused);
///   epilogue: with y = K s on entry and h = (y M^{-1/2} + v x)(1 - bmask),
///             y = h for a plain apply (z null, c = 0, scale = 1), else the
///             fused Chebyshev step y = scale (h - c x) - zc z (z optional).
///
/// Every factor is real and multiplies T as a double: a complex T scales its
/// two parts, never forming a full complex product.
template <class T>
inline void ks_nodal_rows(KsNodal stage, const double* ims, const double* v, const double* bm,
                          const T* x, T* y, const T* z, double c, double scale, double zc,
                          index_t r0, index_t r1) {
  if (stage == KsNodal::prescale) {
    for (index_t i = r0; i < r1; ++i) y[i] = x[i] * (ims[i] * (1.0 - bm[i]));
  } else if (z == nullptr && c == 0.0 && scale == 1.0) {
    for (index_t i = r0; i < r1; ++i) y[i] = (y[i] * ims[i] + x[i] * v[i]) * (1.0 - bm[i]);
  } else if (z == nullptr) {
    for (index_t i = r0; i < r1; ++i) {
      const T h = (y[i] * ims[i] + x[i] * v[i]) * (1.0 - bm[i]);
      y[i] = (h - x[i] * c) * scale;
    }
  } else {
    for (index_t i = r0; i < r1; ++i) {
      const T h = (y[i] * ims[i] + x[i] * v[i]) * (1.0 - bm[i]);
      y[i] = (h - x[i] * c) * scale - z[i] * zc;
    }
  }
}

}  // namespace dftfe::fe
