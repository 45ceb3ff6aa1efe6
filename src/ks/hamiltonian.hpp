#pragma once

// The discrete Kohn-Sham Hamiltonian in the diagonally-scaled (Löwdin-like)
// spectral-element basis:
//
//   H~ x = M^{-1/2} T M^{-1/2} x + v_eff .* x  (+ Dirichlet penalty)
//
// where T is the cell-level kinetic operator (1/2 Laplacian, plus Bloch
// terms for k-points) applied with batched dense cell GEMMs (Sec. 5.4.1),
// M is the lumped mass matrix, and v_eff is the local effective potential
// (electrostatic + XC + pseudopotential) as a nodal field. The diagonal mass
// makes the generalized FE eigenproblem a standard Hermitian one.
//
// On isolated (Dirichlet) boxes the wavefunctions must vanish on the outer
// boundary. This is enforced by projection: the apply masks boundary
// components of input and output, so interior-supported vectors stay
// interior-supported exactly (every solver operation is a linear combination
// of applies), and the spurious boundary modes never enter the filtered
// subspace. No penalty shift is needed — important, because a large penalty
// would inflate the Chebyshev filter's spectrum bound and destroy its
// convergence rate.
//
// Every apply is a block apply: a single vector (the Lanczos bounds) is an
// n x 1 block its caller owns.

#include <cmath>
#include <vector>

#include "fe/cell_ops.hpp"
#include "fe/dofs.hpp"
#include "la/matrix.hpp"
#include "la/workspace.hpp"

namespace dftfe::ks {

template <class T>
class Hamiltonian {
 public:
  Hamiltonian(const fe::DofHandler& dofh, std::array<double, 3> kpoint = {0, 0, 0})
      : dofh_(&dofh),
        kinetic_(dofh, 0.5, kpoint),
        inv_sqrt_mass_(dofh.ndofs()),
        v_eff_(dofh.ndofs(), 0.0) {
    const auto& mass = dofh.mass();
    for (index_t i = 0; i < dofh.ndofs(); ++i) inv_sqrt_mass_[i] = 1.0 / std::sqrt(mass[i]);
  }

  const fe::DofHandler& dofs() const { return *dofh_; }
  index_t n() const { return dofh_->ndofs(); }

  /// Set the local effective potential (nodal field).
  void set_potential(std::vector<double> v_eff) { v_eff_ = std::move(v_eff); }
  const std::vector<double>& potential() const { return v_eff_; }

  fe::CellStiffness<T>& kinetic() { return kinetic_; }

  /// Y = H X for a block of vectors (boundary components projected out).
  /// Allocation-free in steady state: scratch lives in persistent workspace
  /// buffers and Y is reshaped in place (callers pass persistent blocks).
  void apply(const la::Matrix<T>& X, la::Matrix<T>& Y) const {
    apply_fused(X, Y, 0.0, 1.0, nullptr, 0.0);
  }

  /// Fused Chebyshev step:  Y = scale * (H X - c X) - zc * Z  (Z optional).
  /// The shift-scale-subtract update of the Chebyshev recurrence (Zhou et
  /// al.) is folded into the same epilogue sweep that applies the inverse
  /// mass scaling, the local potential, and the boundary projection — one
  /// pass over Y instead of an apply followed by a separate copy sweep. The
  /// per-element arithmetic is fe::ks_nodal_rows, shared with the rank-engine
  /// lanes.
  void apply_fused(const la::Matrix<T>& X, la::Matrix<T>& Y, double c, double scale,
                   const la::Matrix<T>* Z, double zc) const {
    const index_t n = X.rows(), B = X.cols();
    const double* ims = inv_sqrt_mass_.data();
    const double* v = v_eff_.data();
    const double* bm = dofh_->boundary_mask().data();
    la::Matrix<T>& S = scaled_.acquire(n, B);
#pragma omp parallel for
    for (index_t j = 0; j < B; ++j)
      fe::ks_nodal_rows<T>(fe::KsNodal::prescale, ims, v, bm, X.col(j), S.col(j), nullptr, 0.0,
                           1.0, 0.0, 0, n);
    Y.reshape(n, B);
    Y.zero();
    kinetic_.apply_add(S, Y);
#pragma omp parallel for
    for (index_t j = 0; j < B; ++j)
      fe::ks_nodal_rows<T>(fe::KsNodal::epilogue, ims, v, bm, X.col(j), Y.col(j),
                           Z != nullptr ? Z->col(j) : nullptr, c, scale, zc, 0, n);
  }

  /// Diagonal of the scaled Laplacian part plus potential: the Jacobi-style
  /// preconditioner used by the invDFT adjoint MINRES solve (Sec. 5.3.1 uses
  /// the inverse diagonal of the discrete Laplacian).
  std::vector<double> laplacian_diagonal_scaled() const {
    const auto& kd = dofh_->laplacian_diagonal();
    std::vector<double> d(n());
    for (index_t i = 0; i < n(); ++i)
      d[i] = 0.5 * kd[i] * inv_sqrt_mass_[i] * inv_sqrt_mass_[i];
    return d;
  }

  const std::vector<double>& inv_sqrt_mass() const { return inv_sqrt_mass_; }

 private:
  const fe::DofHandler* dofh_;
  fe::CellStiffness<T> kinetic_;
  std::vector<double> inv_sqrt_mass_;
  std::vector<double> v_eff_;
  // Persistent workspace: block applies are const but reuse this scratch, so
  // concurrent applies on one Hamiltonian are not supported (each k-point /
  // thread owns its own instance, as the SCF driver already arranges).
  mutable la::WorkMatrix<T> scaled_;
};

}  // namespace dftfe::ks
