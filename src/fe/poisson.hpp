#pragma once

// FE Poisson solver for the electrostatic ("EP") step: -lap(phi) = 4 pi rho.
// Periodic boxes solve the zero-mean problem (the compensating-background
// gauge); isolated boxes impose Dirichlet values from the monopole moment of
// the charge on the outer boundary. Jacobi-preconditioned CG on the
// cell-level stiffness operator.

#include <functional>
#include <vector>

#include "fe/cell_ops.hpp"
#include "fe/dofs.hpp"
#include "la/iterative.hpp"

namespace dftfe::fe {

class PoissonSolver {
 public:
  /// The CG of one EP solve: solve K x = b by Jacobi-preconditioned CG
  /// (z = r / laplacian_diagonal) with the Dirichlet rows (boundary_dofs)
  /// held fixed, starting from and overwriting x.
  using CgFn = std::function<la::SolveReport(const std::vector<double>& b,
                                             std::vector<double>& x, double tol, int maxit)>;

  explicit PoissonSolver(const DofHandler& dofh);

  /// Solve -lap(phi) = 4 pi rho for the nodal field rho; phi is overwritten
  /// (its previous content is used as the CG initial guess if sized).
  la::SolveReport solve(const std::vector<double>& rho, std::vector<double>& phi,
                        double tol = 1e-9, int maxit = 4000) const;

  bool periodic() const { return periodic_; }
  const CellStiffness<double>& stiffness() const { return K_; }

  /// Hand the CG of every solve to an external executor — the lane-resident
  /// pcg of a bare-stiffness dd::RankEngine on the same mesh — so a threaded
  /// EP step runs under the same execution model as the rest of the SCF. The
  /// right-hand side, the Dirichlet lift and the periodic gauge stay here. An
  /// empty function restores the built-in serial CG.
  void set_cg(CgFn fn) { cg_ = std::move(fn); }

 private:
  la::SolveReport run_cg(const std::vector<double>& b, std::vector<double>& x, double tol,
                         int maxit) const;

  const DofHandler* dofh_;
  CellStiffness<double> K_;  // coef_lap = 1
  bool periodic_;
  CgFn cg_;
};

}  // namespace dftfe::fe
