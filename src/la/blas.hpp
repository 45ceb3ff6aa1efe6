#pragma once

// Hand-rolled BLAS-like dense kernels (no external BLAS is available in this
// environment — implementing them is part of the substrate, and the machine
// "peak" used for %-of-peak reporting is calibrated against this same GEMM,
// mirroring how the paper normalizes sustained FLOPS against hardware peak).
//
// Layout: column-major, BLAS-style (m, n, k, ld*) arguments.
// Supported ops: 'N' (none), 'T' (transpose), 'C' (conjugate transpose).
//
// The GEMM packs op(A)/op(B) tiles into contiguous buffers and runs the
// register-blocked micro-kernel of la/gemm_kernel.hpp on them, parallelized
// with OpenMP over output tiles.
// Every call adds its analytic FLOP count (2*m*n*k, x4 for complex) to the
// global FlopCounter, which is how the bench harness reproduces the paper's
// FLOP-count methodology (Sec. 6.3).

#include <omp.h>

#include <cmath>
#include <vector>

#include "base/defs.hpp"
#include "base/flops.hpp"
#include "la/gemm_kernel.hpp"
#include "la/matrix.hpp"
#include "la/workspace.hpp"

namespace dftfe::la {

namespace detail {

template <class T>
inline T maybe_conj(T x, bool c) {
  if constexpr (scalar_traits<T>::is_complex) {
    return c ? std::conj(x) : x;
  } else {
    (void)c;
    return x;
  }
}

// Tile sizes: small enough that a C tile plus packed A/B panels stay cache
// resident, large enough to amortize the packing.
inline constexpr index_t kMC = 96;
inline constexpr index_t kNC = 96;
inline constexpr index_t kKC = 192;

/// Persistent per-(thread, scalar) packing panels: allocated once per thread
/// on first use and reused by every subsequent gemm call, so steady-state
/// GEMMs never touch the heap (the allocation is workspace-counted).
template <class T>
inline T* pack_panel_a() {
  static thread_local std::vector<T> ap;
  if (ap.empty()) ensure_scratch(ap, static_cast<std::size_t>(kMC * kKC));
  return ap.data();
}
template <class T>
inline T* pack_panel_b() {
  static thread_local std::vector<T> bp;
  if (bp.empty()) ensure_scratch(bp, static_cast<std::size_t>(kKC * kNC));
  return bp.data();
}

}  // namespace detail

/// C (m x n) = alpha * op(A) * op(B) + beta * C on kernel variant `kt`.
/// op(A) is m x k, op(B) is k x n. lda/ldb/ldc are leading dimensions of the
/// *stored* matrices (pre-op). Tests reach every variant the host runs
/// through this overload; the solver calls the one below.
template <class T>
void gemm(const kernel::Table& kt, char transa, char transb, index_t m, index_t n, index_t k,
          T alpha, const T* A, index_t lda, const T* B, index_t ldb, T beta, T* C,
          index_t ldc) {
  if (m <= 0 || n <= 0) return;

  const bool ta = (transa == 'T' || transa == 'C');
  const bool ca = (transa == 'C');
  const bool tb = (transb == 'T' || transb == 'C');
  const bool cb = (transb == 'C');

  using detail::kKC;
  using detail::kMC;
  using detail::kNC;

  if (k <= 0 || alpha == T{}) {
    // No multiply-add work: C = beta * C (zeroed, never read, when beta == 0).
    if (beta == T{1}) return;
#pragma omp parallel for if (n > 4)
    for (index_t j = 0; j < n; ++j) {
      T* c = C + j * ldc;
      if (beta == T{}) {
        for (index_t i = 0; i < m; ++i) c[i] = T{};
      } else {
        for (index_t i = 0; i < m; ++i) c[i] *= beta;
      }
    }
    return;
  }
  FlopCounter::global().add(2.0 * static_cast<double>(m) * static_cast<double>(n) *
                            static_cast<double>(k) * scalar_traits<T>::flop_factor);

  const kernel::GemmFn<T> tile = kernel::get<T>(kt);
  const index_t mtiles = (m + kMC - 1) / kMC;
  const index_t ntiles = (n + kNC - 1) / kNC;

#pragma omp parallel
  {
    T* const Ap = detail::pack_panel_a<T>();
    T* const Bp = detail::pack_panel_b<T>();
#pragma omp for collapse(2) schedule(dynamic)
    for (index_t jt = 0; jt < ntiles; ++jt) {
      for (index_t it = 0; it < mtiles; ++it) {
        const index_t i0 = it * kMC, mb = std::min(kMC, m - i0);
        const index_t j0 = jt * kNC, nb = std::min(kNC, n - j0);
        for (index_t k0 = 0; k0 < k; k0 += kKC) {
          const index_t kb = std::min(kKC, k - k0);
          // Pack op(A)[i0:i0+mb, k0:k0+kb] into Ap, col-major mb x kb.
          for (index_t kk = 0; kk < kb; ++kk) {
            T* dst = Ap + kk * mb;
            if (!ta) {
              const T* src = A + (i0) + (k0 + kk) * lda;
              for (index_t i = 0; i < mb; ++i) dst[i] = src[i];
            } else {
              const T* src = A + (k0 + kk) + i0 * lda;
              for (index_t i = 0; i < mb; ++i) dst[i] = detail::maybe_conj(src[i * lda], ca);
            }
          }
          // Pack op(B)[k0:k0+kb, j0:j0+nb] into Bp, col-major kb x nb.
          for (index_t jj = 0; jj < nb; ++jj) {
            T* dst = Bp + jj * kb;
            if (!tb) {
              const T* src = B + k0 + (j0 + jj) * ldb;
              for (index_t kk = 0; kk < kb; ++kk) dst[kk] = src[kk];
            } else {
              const T* src = B + (j0 + jj) + k0 * ldb;
              for (index_t kk = 0; kk < kb; ++kk)
                dst[kk] = detail::maybe_conj(src[kk * ldb], cb);
            }
          }
          // The first k panel applies beta; later ones accumulate.
          tile(mb, nb, kb, alpha, Ap, mb, Bp, kb, k0 == 0 ? beta : T{1}, C + i0 + j0 * ldc,
               ldc);
        }
      }
    }
  }
}

/// C (m x n) = alpha * op(A) * op(B) + beta * C on this core's kernel.
template <class T>
void gemm(char transa, char transb, index_t m, index_t n, index_t k, T alpha, const T* A,
          index_t lda, const T* B, index_t ldb, T beta, T* C, index_t ldc) {
  gemm(kernel::active(), transa, transb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc);
}

/// Convenience overload on Matrix containers.
template <class T>
void gemm(char transa, char transb, T alpha, const Matrix<T>& A, const Matrix<T>& B, T beta,
          Matrix<T>& C) {
  const index_t m = (transa == 'N') ? A.rows() : A.cols();
  const index_t k = (transa == 'N') ? A.cols() : A.rows();
  const index_t n = (transb == 'N') ? B.cols() : B.rows();
  assert(C.rows() == m && C.cols() == n);
  gemm(transa, transb, m, n, k, alpha, A.data(), A.ld(), B.data(), B.ld(), beta, C.data(),
       C.ld());
}

// ---- level-1 style helpers (OpenMP over long vectors) ----

template <class T>
void axpy(index_t n, T alpha, const T* x, T* y) {
  FlopCounter::global().add(2.0 * n * scalar_traits<T>::flop_factor);
#pragma omp parallel for if (n > 8192)
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <class T>
void scal(index_t n, T alpha, T* x) {
#pragma omp parallel for if (n > 8192)
  for (index_t i = 0; i < n; ++i) x[i] *= alpha;
}

/// Conjugated dot product <x, y> = sum conj(x_i) y_i.
template <class T>
T dotc(index_t n, const T* x, const T* y) {
  FlopCounter::global().add(2.0 * n * scalar_traits<T>::flop_factor);
  if constexpr (scalar_traits<T>::is_complex) {
    double re = 0.0, im = 0.0;
#pragma omp parallel for reduction(+ : re, im) if (n > 8192)
    for (index_t i = 0; i < n; ++i) {
      const T v = std::conj(x[i]) * y[i];
      re += v.real();
      im += v.imag();
    }
    return T(re, im);
  } else {
    T s{};
#pragma omp parallel for reduction(+ : s) if (n > 8192)
    for (index_t i = 0; i < n; ++i) s += x[i] * y[i];
    return s;
  }
}

template <class T>
double nrm2(index_t n, const T* x) {
  double s = 0.0;
#pragma omp parallel for reduction(+ : s) if (n > 8192)
  for (index_t i = 0; i < n; ++i) s += scalar_traits<T>::abs2(x[i]);
  return std::sqrt(s);
}

/// Frobenius norm of a matrix.
template <class T>
double frob(const Matrix<T>& A) {
  return nrm2(A.size(), A.data());
}

/// max |A - B| elementwise.
template <class T>
double max_abs_diff(const Matrix<T>& A, const Matrix<T>& B) {
  assert(A.same_shape(B));
  double m = 0.0;
  for (index_t i = 0; i < A.size(); ++i)
    m = std::max(m, std::sqrt(scalar_traits<T>::abs2(A.data()[i] - B.data()[i])));
  return m;
}

}  // namespace dftfe::la
