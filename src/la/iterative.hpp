#pragma once

// Iterative Krylov solvers:
//  * Jacobi-preconditioned conjugate gradients (Hartree/Poisson solves),
//  * block MINRES with per-column shifts and an SPD diagonal preconditioner —
//    the adjoint solver of invDFT (Sec. 5.3.1): the Krylov recurrences run
//    independently per column but every operator application is fused into a
//    single block apply, which is what lets the FE cell-level batched GEMM
//    kernels reach high arithmetic intensity,
//  * a few Lanczos steps to bound the spectrum for Chebyshev filtering,
//  * the scaled-and-shifted Chebyshev filter recurrence itself, over a
//    caller-supplied fused operator step (serial or one brick lane).

#include <cmath>
#include <functional>
#include <limits>
#include <random>
#include <vector>

#include "base/defs.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "la/workspace.hpp"

namespace dftfe::la {

struct SolveReport {
  int iterations = 0;
  double residual = 0.0;  // worst column for block solves
  bool converged = false;
};

/// Preconditioned conjugate gradients for SPD operators.
/// `op(x, y)` computes y = A x; `prec(r, z)` computes z = M^{-1} r (pass
/// identity copy for unpreconditioned CG).
template <class T>
SolveReport pcg(const std::function<void(const std::vector<T>&, std::vector<T>&)>& op,
                const std::function<void(const std::vector<T>&, std::vector<T>&)>& prec,
                const std::vector<T>& b, std::vector<T>& x, double tol = 1e-10,
                int maxit = 2000) {
  const index_t n = static_cast<index_t>(b.size());
  // Thread-local persistent Krylov scratch: the Poisson solve runs every SCF
  // iteration, so per-call allocation here would break the steady-state
  // zero-allocation invariant of the hot path.
  static thread_local std::vector<T> r, z, p, Ap;
  ensure_scratch(r, static_cast<std::size_t>(n));
  ensure_scratch(z, static_cast<std::size_t>(n));
  ensure_scratch(p, static_cast<std::size_t>(n));
  ensure_scratch(Ap, static_cast<std::size_t>(n));
  op(x, Ap);
  for (index_t i = 0; i < n; ++i) r[i] = b[i] - Ap[i];
  const double bnorm = std::max(nrm2(n, b.data()), 1e-300);
  prec(r, z);
  p = z;
  T rz = dotc(n, r.data(), z.data());
  SolveReport rep;
  for (int it = 0; it < maxit; ++it) {
    rep.iterations = it;
    rep.residual = nrm2(n, r.data()) / bnorm;
    if (rep.residual < tol) {
      rep.converged = true;
      return rep;
    }
    op(p, Ap);
    const T pAp = dotc(n, p.data(), Ap.data());
    const T alpha = rz / pAp;
    axpy(n, alpha, p.data(), x.data());
    axpy(n, -alpha, Ap.data(), r.data());
    prec(r, z);
    const T rz_new = dotc(n, r.data(), z.data());
    const T beta = rz_new / rz;
    rz = rz_new;
    // Raw pointers, not the thread_local names: inside the parallel region an
    // OpenMP worker would resolve `p` / `z` to its own (empty) scratch.
    T* pp = p.data();
    const T* zp = z.data();
#pragma omp parallel for if (n > 8192)
    for (index_t i = 0; i < n; ++i) pp[i] = zp[i] + beta * pp[i];
  }
  rep.residual = nrm2(n, r.data()) / bnorm;
  rep.converged = rep.residual < tol;
  return rep;
}

/// Jacobi-preconditioned CG (z = r / diag) with the `fixed` rows held: the
/// operator sees its input with those rows zeroed and has its output zeroed
/// on them — the homogeneous-Dirichlet interior system of the FE Poisson
/// solve. With `fixed` empty it is plain PCG on `op`. `b` must vanish on the
/// fixed rows (their residual could never fall).
template <class T>
SolveReport jacobi_pcg(const std::function<void(const std::vector<T>&, std::vector<T>&)>& op,
                       const std::vector<double>& diag, const std::vector<index_t>& fixed,
                       const std::vector<T>& b, std::vector<T>& x, double tol, int maxit) {
  const index_t n = static_cast<index_t>(b.size());
  auto prec = [&](const std::vector<T>& r, std::vector<T>& z) {
    const T* rp = r.data();
    T* zp = z.data();
    const double* d = diag.data();
#pragma omp parallel for
    for (index_t i = 0; i < n; ++i) zp[i] = rp[i] / d[i];
  };
  if (fixed.empty()) return pcg<T>(op, prec, b, x, tol, maxit);
  // Hoisted masked copy: the operator runs once per CG iteration.
  static thread_local std::vector<T> xm;
  ensure_scratch(xm, static_cast<std::size_t>(n));
  auto masked = [&](const std::vector<T>& v, std::vector<T>& y) {
    std::copy(v.begin(), v.begin() + n, xm.begin());
    for (const index_t i : fixed) xm[i] = T{};
    op(xm, y);
    for (const index_t i : fixed) y[i] = T{};
  };
  return pcg<T>(masked, prec, b, x, tol, maxit);
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
/// operator; returns a safe upper bound (max Ritz value + residual norm),
/// used to build the Chebyshev filter's [a, b] interval (Sec. 5.3.2).
template <class T>
double lanczos_upper_bound(const std::function<void(const std::vector<T>&, std::vector<T>&)>& op,
                           index_t n, int steps = 12, unsigned seed = 1234) {
  // Persistent scratch: called once per SCF iteration to rebound the
  // Chebyshev interval, so it must not allocate in steady state.
  static thread_local std::vector<T> v, vprev, w;
  ensure_scratch(v, static_cast<std::size_t>(n));
  ensure_scratch(vprev, static_cast<std::size_t>(n));
  ensure_scratch(w, static_cast<std::size_t>(n));
  std::fill(vprev.begin(), vprev.end(), T{});
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (index_t i = 0; i < n; ++i) v[i] = T(dist(gen));
  const double nv = nrm2(n, v.data());
  scal(n, T(1.0 / nv), v.data());

  std::vector<double> alpha, beta;  // tridiagonal entries
  double b = 0.0;
  for (int s = 0; s < steps; ++s) {
    op(v, w);
    if (s > 0) axpy(n, T(-b), vprev.data(), w.data());
    const double a = scalar_traits<T>::real(dotc(n, v.data(), w.data()));
    axpy(n, T(-a), v.data(), w.data());
    // lint: allow(hot-path-alloc): O(steps~14) tridiagonal entries once per SCF, amortized vs O(n) applies
    alpha.push_back(a);
    b = nrm2(n, w.data());
    beta.push_back(b);  // lint: allow(hot-path-alloc): same O(steps) bound as alpha

    if (b < 1e-12) break;
    vprev = v;
    for (index_t i = 0; i < n; ++i) v[i] = w[i] * T(1.0 / b);
  }
  // Largest Ritz value of the small tridiagonal matrix via dense eig on it.
  const index_t k = static_cast<index_t>(alpha.size());
  Matrix<double> Tm(k, k);
  for (index_t i = 0; i < k; ++i) {
    Tm(i, i) = alpha[i];
    if (i + 1 < k) Tm(i, i + 1) = Tm(i + 1, i) = beta[i];
  }
  // Gershgorin bound on the tridiagonal (cheap, safe).
  double bound = -std::numeric_limits<double>::infinity();
  for (index_t i = 0; i < k; ++i) {
    double row = Tm(i, i);
    if (i > 0) row += std::abs(Tm(i, i - 1));
    if (i + 1 < k) row += std::abs(Tm(i, i + 1));
    bound = std::max(bound, row);
  }
  return bound + std::abs(beta.back());
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
