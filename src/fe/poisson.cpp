#include "fe/poisson.hpp"

#include <cmath>

#include "base/flops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dftfe::fe {

PoissonSolver::PoissonSolver(const DofHandler& dofh)
    : dofh_(&dofh), K_(dofh, 1.0), periodic_(dofh.boundary_dofs().empty()),
      rhs_(dofh.ndofs()), u_(dofh.ndofs()), g_(dofh.ndofs(), 1), kg_(dofh.ndofs(), 1) {}

la::SolveReport PoissonSolver::serial_cg(const std::vector<double>& b, std::vector<double>& x,
                                         double tol, int maxit) const {
  const index_t n = dofh_->ndofs();
  SerialCg pol{K_, dofh_->boundary_dofs(), n};
  return la::pcg(pol, dofh_->laplacian_diagonal().data(), b.data(), x.data(),
                 r_.acquire(n, 1).data(), z_.acquire(n, 1).data(), p_.acquire(n, 1),
                 ap_.acquire(n, 1), tol, maxit);
}

la::SolveReport PoissonSolver::run_cg(const std::vector<double>& b, std::vector<double>& x,
                                      double tol, int maxit) const {
  return cg_ ? cg_(b, x, tol, maxit) : serial_cg(b, x, tol, maxit);
}

la::SolveReport PoissonSolver::solve(const std::vector<double>& rho, std::vector<double>& phi,
                                     double tol, int maxit) const {
  obs::TraceSpan timer("EP", "fe");
  ScopedFlopStep flops("EP");  // PCG stiffness applies + dot products
  const index_t n = dofh_->ndofs();
  const auto& mass = dofh_->mass();
  const auto& bmask = dofh_->boundary_mask();
  if (static_cast<index_t>(phi.size()) != n) phi.assign(n, 0.0);

  std::vector<double>& rhs = rhs_;
  const double volume = dofh_->mesh().volume();

  if (periodic_) {
    // Neutralizing background: remove the mean charge so K phi = rhs is
    // consistent; gauge-fix phi to zero mean afterwards.
    const double mean = dofh_->integrate(rho) / volume;
#pragma omp parallel for
    for (index_t i = 0; i < n; ++i) rhs[i] = 4.0 * kPi * mass[i] * (rho[i] - mean);

    auto rep = run_cg(rhs, phi, tol, maxit);
    obs::MetricsRegistry::global().series_append("poisson.iterations", rep.iterations);
    // Remove the constant nullspace component.
    const double pmean = dofh_->integrate(phi) / volume;
#pragma omp parallel for
    for (index_t i = 0; i < n; ++i) phi[i] -= pmean;
    return rep;
  }

  // Isolated: Dirichlet boundary phi_b = Q / |r - center| (monopole far field).
  const double q = dofh_->integrate(rho);
  const auto& mesh = dofh_->mesh();
  const double cx = 0.5 * (mesh.axis(0).nodes.front() + mesh.axis(0).nodes.back());
  const double cy = 0.5 * (mesh.axis(1).nodes.front() + mesh.axis(1).nodes.back());
  const double cz = 0.5 * (mesh.axis(2).nodes.front() + mesh.axis(2).nodes.back());

  // The lift g: zero on the interior (never written), the monopole far
  // field on the boundary rows.
  double* g = g_.data();
  for (const index_t b : dofh_->boundary_dofs()) {
    const auto p = dofh_->dof_point(b);
    const double r = std::sqrt((p[0] - cx) * (p[0] - cx) + (p[1] - cy) * (p[1] - cy) +
                               (p[2] - cz) * (p[2] - cz));
    g[b] = q / std::max(r, 1e-6);
  }
  // rhs = 4 pi M rho - K g on the interior; boundary handled by masking.
  kg_.zero();
  K_.apply_add(g_, kg_);
  const double* Kg = kg_.data();
#pragma omp parallel for
  for (index_t i = 0; i < n; ++i)
    rhs[i] = (bmask[i] != 0.0) ? 0.0 : 4.0 * kPi * mass[i] * rho[i] - Kg[i];

  // Interior solve with homogeneous boundary, then add the lift g.
  std::vector<double>& u = u_;
#pragma omp parallel for
  for (index_t i = 0; i < n; ++i) u[i] = (bmask[i] != 0.0) ? 0.0 : phi[i] - g[i];
  auto rep = run_cg(rhs, u, tol, maxit);
  obs::MetricsRegistry::global().series_append("poisson.iterations", rep.iterations);
#pragma omp parallel for
  for (index_t i = 0; i < n; ++i) phi[i] = u[i] + g[i];
  return rep;
}

}  // namespace dftfe::fe
