#pragma once

// Strided-batched GEMM — the CPU analog of the paper's xGEMMStridedBatched
// calls (Sec. 5.4.1): the FE-cell-level Hamiltonian application
//   Y^b = Assembly_FE { H_ci * X_ci^b }
// is a batch of many small dense GEMMs, one per finite-element cell. On GPUs
// these saturate the device via fine-grained parallelism; here each batch
// member is small enough to stay in cache, and OpenMP parallelizes across
// batch members. The 'N','N' path runs the register-blocked micro-kernel of
// la/gemm_kernel.hpp directly on each member's operands.

#include <omp.h>

#include "base/defs.hpp"
#include "base/flops.hpp"
#include "la/gemm_kernel.hpp"
#include "la/matrix.hpp"

namespace dftfe::la {

/// C[b] = alpha * op(A[b]) * op(B[b]) + beta * C[b] for b in [0, batch).
/// A stride of zero reuses the same matrix for every batch member (e.g. one
/// reference-cell Hamiltonian shared by all cells of a structured mesh).
template <class T>
void gemm_strided_batched(char transa, char transb, index_t m, index_t n, index_t k, T alpha,
                          const T* A, index_t lda, index_t strideA, const T* B, index_t ldb,
                          index_t strideB, T beta, T* C, index_t ldc, index_t strideC,
                          index_t batch) {
  if (m <= 0 || n <= 0 || batch <= 0) return;
  const bool degenerate = (k <= 0 || alpha == T{});
  // Count only when multiply-add work actually happens: degenerate calls
  // (empty inner extent or alpha == 0) only perform the beta scaling below.
  if (!degenerate)
    FlopCounter::global().add(2.0 * m * n * k * batch * scalar_traits<T>::flop_factor);

  // 'N','N' (every cell apply): the micro-kernel straight on each member's
  // operands, one batch member per call.
  if (!degenerate && transa == 'N' && transb == 'N') {
    const kernel::GemmFn<T> tile = kernel::get<T>(kernel::active());
#pragma omp parallel for schedule(static)
    for (index_t b = 0; b < batch; ++b)
      tile(m, n, k, alpha, A + b * strideA, lda, B + b * strideB, ldb, beta, C + b * strideC,
           ldc);
    return;
  }

  // Transposed operands and degenerate calls: the reference loop.
  const bool ta = (transa == 'T' || transa == 'C');
  const bool ca = (transa == 'C');
  const bool tb = (transb == 'T' || transb == 'C');
  const bool cb = (transb == 'C');

  auto conj_if = [](T x, bool c) {
    if constexpr (scalar_traits<T>::is_complex) {
      return c ? std::conj(x) : x;
    } else {
      (void)c;
      return x;
    }
  };

#pragma omp parallel for schedule(static)
  for (index_t b = 0; b < batch; ++b) {
    const T* Ab = A + b * strideA;
    const T* Bb = B + b * strideB;
    T* Cb = C + b * strideC;
    // Scale/zero C once.
    for (index_t j = 0; j < n; ++j) {
      T* c = Cb + j * ldc;
      if (beta == T{}) {
        for (index_t i = 0; i < m; ++i) c[i] = T{};
      } else if (beta != T{1}) {
        for (index_t i = 0; i < m; ++i) c[i] *= beta;
      }
    }
    if (degenerate) continue;
    for (index_t j = 0; j < n; ++j) {
      T* c = Cb + j * ldc;
      for (index_t kk = 0; kk < k; ++kk) {
        const T bv = alpha * (tb ? conj_if(Bb[j + kk * ldb], cb) : Bb[kk + j * ldb]);
        if (bv == T{}) continue;
        if (!ta) {
          const T* a = Ab + kk * lda;
          for (index_t i = 0; i < m; ++i) c[i] += a[i] * bv;
        } else {
          const T* a = Ab + kk;
          for (index_t i = 0; i < m; ++i) c[i] += conj_if(a[i * lda], ca) * bv;
        }
      }
    }
  }
}

}  // namespace dftfe::la
