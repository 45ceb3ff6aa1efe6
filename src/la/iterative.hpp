#pragma once

// Iterative Krylov solvers:
//  * Jacobi-preconditioned conjugate gradients (the Hartree/Poisson solve),
//    written once over a small execution policy: the serial solve and every
//    brick lane of a dd::RankEngine instantiate the same statements,
//  * block MINRES with per-column shifts and an SPD diagonal preconditioner —
//    the adjoint solver of invDFT (Sec. 5.3.1): the Krylov recurrences run
//    independently per column but every operator application is fused into a
//    single block apply, which is what lets the FE cell-level batched GEMM
//    kernels reach high arithmetic intensity,
//  * a few Lanczos steps to bound the spectrum for Chebyshev filtering,
//  * the scaled-and-shifted Chebyshev filter recurrence itself, over a
//    caller-supplied fused operator step (serial or one brick lane).
//
// CG, Lanczos and the filter keep no scratch of their own: they work on
// blocks their caller owns and reach the operator through a block apply.

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <random>
#include <vector>

#include "base/defs.hpp"
#include "base/flops.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace dftfe::la {

struct SolveReport {
  int iterations = 0;
  double residual = 0.0;  // worst column for block solves
  bool converged = false;
};

/// Jacobi-preconditioned conjugate gradients for an SPD system A x = b,
/// written once for every execution model: a serial solve and each brick lane
/// of a dd::RankEngine run these statements and differ only in the policy:
///
///   pol.apply(P, AP)  AP = A P on n x 1 blocks, with the Dirichlet rows (the
///                     rows the system holds fixed) of P and of AP zeroed;
///   pol.dot(a, c)     the real part of sum conj(a_i) c_i over the rows this
///                     image owns (a lane's partial sum);
///   pol.reduce(v, w)  completes the w partial sums in v in place (serial:
///                     nothing to do; a lane: the in-job allreduce);
///   pol.owned_rows()  the rows this image owns (its share of the FLOPs).
///
/// The preconditioner is z = r / diag. The caller owns every vector: b, the
/// initial guess x (overwritten by the solution), the scratch r and z (n
/// entries each) and the n x 1 blocks P and AP. b must vanish on the
/// Dirichlet rows, whose residual could never fall. An iteration is one
/// apply and two reductions: p.Ap, then (r.z, r.r) fused.
template <class T, class Policy>
SolveReport pcg(Policy& pol, const double* diag, const T* b, T* x, T* r, T* z, Matrix<T>& P,
                Matrix<T>& AP, double tol, int maxit) {
  const index_t n = P.rows();
  T* p = P.data();
  const T* ap = AP.data();
  // r = b - A x, z = r / diag, p = z; one reduction for (b.b, r.z, r.r).
  std::copy(x, x + n, p);
  pol.apply(P, AP);
#pragma omp parallel for if (n > 8192)
  for (index_t i = 0; i < n; ++i) {
    r[i] = b[i] - ap[i];
    z[i] = r[i] / diag[i];
    p[i] = z[i];
  }
  double v[3] = {pol.dot(b, b), pol.dot(r, z), pol.dot(r, r)};
  pol.reduce(v, 3);
  const double bnorm = std::max(std::sqrt(v[0]), 1e-300);
  double rz = v[1], rr = v[2];

  SolveReport rep;
  int done = 0;  // full iterations, for the FLOP ledger
  for (int it = 0; it < maxit; ++it) {
    rep.iterations = it;
    rep.residual = std::sqrt(rr) / bnorm;
    if (rep.residual < tol) {
      rep.converged = true;
      break;
    }
    pol.apply(P, AP);
    v[0] = pol.dot(p, ap);
    pol.reduce(v, 1);
    const double alpha = rz / v[0];
#pragma omp parallel for if (n > 8192)
    for (index_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
      z[i] = r[i] / diag[i];
    }
    v[0] = pol.dot(r, z);
    v[1] = pol.dot(r, r);
    pol.reduce(v, 2);
    const double beta = v[0] / rz;
    rz = v[0];
    rr = v[1];
#pragma omp parallel for if (n > 8192)
    for (index_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    ++done;
  }
  if (!rep.converged) {
    rep.residual = std::sqrt(rr) / bnorm;
    rep.converged = rep.residual < tol;
  }
  // The vector work: one dot product before the loop, two dot products and
  // two axpys per iteration, over this image's rows.
  FlopCounter::global().add((2.0 + 8.0 * done) * static_cast<double>(pol.owned_rows()) *
                            scalar_traits<T>::flop_factor);
  return rep;
}

/// Block MINRES for symmetric (possibly indefinite) systems A_j x_j = b_j,
/// j = 0..B-1, where all A_j share the same expensive operator (the FE
/// Hamiltonian) but may differ by a per-column shift: the caller's
/// `op(X, Y)` computes Y(:,j) = A_j X(:,j) as one fused block apply.
/// `prec(X, Y)` applies an SPD preconditioner columnwise (the inverse
/// diagonal of the discrete Laplacian in invDFT).
template <class T>
SolveReport block_minres(const std::function<void(const Matrix<T>&, Matrix<T>&)>& op,
                         const std::function<void(const Matrix<T>&, Matrix<T>&)>& prec,
                         const Matrix<T>& B, Matrix<T>& X, double tol = 1e-8,
                         int maxit = 500) {
  const index_t n = B.rows();
  const index_t nb = B.cols();
  Matrix<T> R1(n, nb), R2(n, nb), Y(n, nb), V(n, nb), W(n, nb), W2(n, nb), T1(n, nb);

  // R1 = B - A X
  op(X, T1);
  for (index_t j = 0; j < nb; ++j)
    for (index_t i = 0; i < n; ++i) R1(i, j) = B(i, j) - T1(i, j);
  prec(R1, Y);

  std::vector<double> beta1(nb), beta(nb), oldb(nb, 0.0), dbar(nb, 0.0), epsln(nb, 0.0),
      phibar(nb), cs(nb, -1.0), sn(nb, 0.0), oldeps(nb, 0.0);
  std::vector<bool> active(nb, true);

  for (index_t j = 0; j < nb; ++j) {
    const double by = scalar_traits<T>::real(dotc(n, R1.col(j), Y.col(j)));
    beta1[j] = std::sqrt(std::max(by, 0.0));
    beta[j] = beta1[j];
    phibar[j] = beta1[j];
    if (beta1[j] < 1e-300) active[j] = false;
  }
  R2 = R1;

  SolveReport rep;
  for (int it = 1; it <= maxit; ++it) {
    rep.iterations = it;
    // V = Y / beta (columnwise)
    for (index_t j = 0; j < nb; ++j) {
      const double s = active[j] ? 1.0 / beta[j] : 0.0;
      const T* y = Y.col(j);
      T* v = V.col(j);
      for (index_t i = 0; i < n; ++i) v[i] = y[i] * T(s);
    }
    op(V, Y);  // Y = A V (fused block apply)
    for (index_t j = 0; j < nb; ++j) {
      if (!active[j]) continue;
      if (it >= 2) axpy(n, T(-beta[j] / oldb[j]), R1.col(j), Y.col(j));
      const double alfa = scalar_traits<T>::real(dotc(n, V.col(j), Y.col(j)));
      axpy(n, T(-alfa / beta[j]), R2.col(j), Y.col(j));
      // r1 <- r2, r2 <- y
      std::copy(R2.col(j), R2.col(j) + n, R1.col(j));
      std::copy(Y.col(j), Y.col(j) + n, R2.col(j));
      // store alfa in dbar update below; stash in sn? Keep a local:
      oldeps[j] = epsln[j];
      const double delta = cs[j] * dbar[j] + sn[j] * alfa;
      const double gbar = sn[j] * dbar[j] - cs[j] * alfa;
      // need new beta after preconditioning r2 -- done after loop; temporary
      // storage of gbar/delta in dbar/epsln slots:
      dbar[j] = gbar;    // gbar parked here until beta known
      epsln[j] = delta;  // delta parked here
    }
    prec(R2, Y);
    double worst = 0.0;
    for (index_t j = 0; j < nb; ++j) {
      if (!active[j]) continue;
      oldb[j] = beta[j];
      const double by = scalar_traits<T>::real(dotc(n, R2.col(j), Y.col(j)));
      beta[j] = std::sqrt(std::max(by, 0.0));
      const double gbar = dbar[j];
      const double delta = epsln[j];
      epsln[j] = sn[j] * beta[j];
      dbar[j] = -cs[j] * beta[j];
      double gamma = std::hypot(gbar, beta[j]);
      gamma = std::max(gamma, std::numeric_limits<double>::epsilon());
      cs[j] = gbar / gamma;
      sn[j] = beta[j] / gamma;
      const double phi = cs[j] * phibar[j];
      phibar[j] = sn[j] * phibar[j];
      // w_new = (v - oldeps*w2_old - delta*w_old) / gamma;  x += phi*w_new,
      // followed by the history rotation w2 <- w, w <- w_new.
      const double invg = 1.0 / gamma;
      const T* v = V.col(j);
      T* w = W.col(j);
      T* w2 = W2.col(j);
      T* x = X.col(j);
      for (index_t i = 0; i < n; ++i) {
        const T wnew = (v[i] - T(oldeps[j]) * w2[i] - T(delta) * w[i]) * T(invg);
        w2[i] = w[i];
        w[i] = wnew;
        x[i] += T(phi) * wnew;
      }
      const double rel = phibar[j] / std::max(beta1[j], 1e-300);
      if (rel < tol) active[j] = false;
      worst = std::max(worst, rel);
    }
    rep.residual = worst;
    bool any = false;
    for (index_t j = 0; j < nb; ++j) any = any || active[j];
    if (!any) {
      rep.converged = true;
      return rep;
    }
  }
  rep.converged = rep.residual < tol;
  return rep;
}

/// A few Lanczos steps to estimate the largest eigenvalue of a Hermitian
/// operator; returns a safe upper bound (the Gershgorin bound of the Lanczos
/// tridiagonal plus the last residual norm), used to build the Chebyshev
/// filter's [a, b] interval (Sec. 5.3.2). `apply(V, W)` computes W = op V on
/// n x 1 blocks, like la::chebyshev_filter's step; V, Vprev and W are the
/// caller's n x 1 blocks, left holding unspecified values. Allocates nothing.
template <class T, class Apply>
double lanczos_upper_bound(Apply&& apply, Matrix<T>& V, Matrix<T>& Vprev, Matrix<T>& W,
                           int steps = 12, unsigned seed = 1234) {
  const index_t n = V.rows();
  Matrix<T>* v = &V;
  Matrix<T>* vprev = &Vprev;
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (index_t i = 0; i < n; ++i) v->data()[i] = T(dist(gen));
  const double nv = nrm2(n, v->data());
  scal(n, T(1.0 / nv), v->data());

  // Gershgorin row i of the tridiagonal is alpha_i + |beta_{i-1}| + |beta_i|,
  // the last term only if step i + 1 ran: `row` holds the newest row without
  // it, and `bound` the maximum over the closed rows.
  double bound = -std::numeric_limits<double>::infinity();
  double row = 0.0;
  double b = 0.0;  // beta of the newest step
  for (int s = 0; s < steps; ++s) {
    apply(*v, W);
    T* w = W.data();
    if (s > 0) axpy(n, T(-b), vprev->data(), w);
    const double a = scalar_traits<T>::real(dotc(n, v->data(), w));
    axpy(n, T(-a), v->data(), w);
    if (s > 0) bound = std::max(bound, row + std::abs(b));
    row = a + std::abs(b);  // b = 0 before the first step
    b = nrm2(n, w);
    if (b < 1e-12) break;
    // The next Lanczos vector w / b goes into vprev's storage, and the
    // current one becomes vprev.
    T* vn = vprev->data();
    for (index_t i = 0; i < n; ++i) vn[i] = w[i] * T(1.0 / b);
    std::swap(v, vprev);
  }
  bound = std::max(bound, row);
  return bound + std::abs(b);
}

/// The degree-`degree` scaled-and-shifted Chebyshev filter recurrence (Zhou
/// et al.) on the window [a, b] with wanted-edge estimate a0: it damps the
/// spectrum inside [a, b] and amplifies everything below it. `*X` holds the
/// input block; `Y` and `Z` are scratch blocks of the same shape. The three
/// blocks rotate by pointer, so no step copies a block. `step(X, Y, Z, c,
/// scale, zc, k)` must compute Y = scale * (op X - c X) - zc * Z (Z may be
/// null) for recurrence step k = 0 .. degree-1; the shift-scale-subtract
/// update thus fuses into the operator's epilogue. Returns the block holding
/// the filtered result (one of X, Y, Z).
template <class T, class FusedStep>
Matrix<T>* chebyshev_filter(Matrix<T>* X, Matrix<T>* Y, Matrix<T>* Z, int degree, double a,
                            double b, double a0, FusedStep&& step) {
  const double e = (b - a) / 2.0, c = (b + a) / 2.0;
  double sigma = e / (a0 - c);
  const double sigma1 = sigma;
  step(*X, *Y, nullptr, c, sigma1 / e, 0.0, 0);
  for (int k = 2; k <= degree; ++k) {
    const double sigma2 = 1.0 / (2.0 / sigma1 - sigma);
    step(*Y, *Z, X, c, 2.0 * sigma2 / e, sigma * sigma2, k - 1);
    Matrix<T>* t = X;
    X = Y;
    Y = Z;
    Z = t;
    sigma = sigma2;
  }
  return Y;
}

}  // namespace dftfe::la
