#pragma once

// FE Poisson solver for the electrostatic ("EP") step: -lap(phi) = 4 pi rho.
// Periodic boxes solve the zero-mean problem (the compensating-background
// gauge); isolated boxes impose Dirichlet values from the monopole moment of
// the charge on the outer boundary. The solve is la::pcg, the one
// Jacobi-preconditioned CG, on the cell-level stiffness operator: serially
// through the SerialCg policy below, or in a threaded run on the lanes of a
// bare-stiffness dd::RankEngine installed through set_cg. The policy's
// per-iteration code lives in this header and allocates nothing; its Krylov
// vectors, like the solve's right-hand side and Dirichlet lift, are members
// of the solver.

#include <functional>
#include <vector>

#include "fe/cell_ops.hpp"
#include "fe/dofs.hpp"
#include "la/iterative.hpp"
#include "la/matrix.hpp"
#include "la/workspace.hpp"

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

  /// The built-in serial CG of every solve without a set_cg hook: la::pcg
  /// on the whole stiffness with z = r / laplacian_diagonal and the
  /// Dirichlet rows (boundary_dofs) held fixed. x is the initial guess and is
  /// overwritten; b must vanish on the Dirichlet rows.
  la::SolveReport serial_cg(const std::vector<double>& b, std::vector<double>& x, double tol,
                            int maxit) const;

  /// Hand the CG of every solve to an external executor — the lane-resident
  /// pcg of a bare-stiffness dd::RankEngine on the same mesh — so a threaded
  /// EP step runs under the same execution model as the rest of the SCF. The
  /// right-hand side, the Dirichlet lift and the periodic gauge stay here. An
  /// empty function restores the built-in serial CG.
  void set_cg(CgFn fn) { cg_ = std::move(fn); }

 private:
  /// la::pcg's serial policy: the whole stiffness on n x 1 blocks with the
  /// Dirichlet rows zeroed, and dot products over every row.
  struct SerialCg {
    const CellStiffness<double>& K;
    const std::vector<index_t>& fixed;
    index_t n;

    void apply(la::Matrix<double>& P, la::Matrix<double>& AP) const {
      double* p = P.data();
      double* ap = AP.data();
      for (const index_t i : fixed) p[i] = 0.0;
      AP.zero();
      K.apply_add(P, AP);
      for (const index_t i : fixed) ap[i] = 0.0;
    }
    double dot(const double* a, const double* c) const {
      double s = 0.0;
#pragma omp parallel for reduction(+ : s) if (n > 8192)
      for (index_t i = 0; i < n; ++i) s += a[i] * c[i];
      return s;
    }
    void reduce(double*, int) const {}
    index_t owned_rows() const { return n; }
  };

  la::SolveReport run_cg(const std::vector<double>& b, std::vector<double>& x, double tol,
                         int maxit) const;

  const DofHandler* dofh_;
  CellStiffness<double> K_;  // coef_lap = 1
  bool periodic_;
  CgFn cg_;
  // The serial CG's vectors r, z and its n x 1 blocks P, AP, and the
  // solve's right-hand side, CG unknown, Dirichlet lift g and K g, sized
  // once at construction. The solve is const but reuses them, so one solver
  // runs one solve at a time.
  mutable la::WorkMatrix<double> r_, z_, p_, ap_;
  mutable std::vector<double> rhs_, u_;
  mutable la::Matrix<double> g_, kg_;
};

}  // namespace dftfe::fe
