#pragma once

// Mixed-precision kernels (Sec. 5.4.2 of the paper): FP32 evaluation of the
// off-diagonal blocks of S = X^H X and of the Rayleigh-Ritz projection, with
// FP64 kept on the diagonal blocks. As the SCF converges the filtered vectors
// approach eigenvectors and the off-diagonal entries go to zero, so single
// precision there does not perturb the result beyond the discretization
// error. The reduced-precision scalars themselves (low_precision_t, the BF16
// bit conversions) live here too; how a halo value is stored on the wire is
// dd::WireCodec's job (dd/exchange.hpp).

#include <algorithm>
#include <cassert>
#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "base/defs.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "la/workspace.hpp"

namespace dftfe::la {

/// Map a scalar to its reduced-precision counterpart.
template <class T>
struct low_precision {
  using type = float;
};
template <>
struct low_precision<double> {
  using type = float;
};
template <>
struct low_precision<std::complex<double>> {
  using type = std::complex<float>;
};
template <class T>
using low_precision_t = typename low_precision<T>::type;

/// BF16 wire scalar: the top 16 bits of an IEEE-754 binary32, stored in a
/// uint16 (typed storage — no raw byte reinterpretation). BF16 keeps FP32's
/// 8-bit exponent, so the dynamic range of boundary values survives; only
/// the mantissa shrinks to 7 bits.
using bf16_t = std::uint16_t;

/// Round-to-nearest-even demotion on the float bit pattern. NaNs are quieted
/// (the rounding increment could otherwise carry a signalling NaN into an
/// infinity bit pattern).
inline bf16_t bf16_from_float(float x) {
  std::uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  if ((u & 0x7fffffffu) > 0x7f800000u) return static_cast<bf16_t>((u >> 16) | 0x0040u);
  u += 0x7fffu + ((u >> 16) & 1u);
  return static_cast<bf16_t>(u >> 16);
}

inline float bf16_to_float(bf16_t h) {
  const std::uint32_t u = static_cast<std::uint32_t>(h) << 16;
  float x;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}

/// Demote a rows x cols panel with leading dimension ld into a compact
/// (ld = rows) buffer. Touches exactly the referenced entries: demoting the
/// full ld * cols extent instead would read past the end of the final column
/// whenever ld > rows (an out-of-bounds read for trailing submatrix panels).
template <class T>
void demote_panel(const T* src, index_t ld, index_t rows, index_t cols,
                  low_precision_t<T>* dst) {
#pragma omp parallel for if (rows * cols > 8192)
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i)
      dst[i + j * rows] = static_cast<low_precision_t<T>>(src[i + j * ld]);
}

/// C = op(A)^ * op(B) evaluated in reduced precision, result promoted back to
/// T. FLOPs are still counted at the full analytic rate (the paper's FLOP
/// accounting does not discount FP32 work; the benefit shows up as time).
template <class T>
void gemm_low_precision(char transa, char transb, index_t m, index_t n, index_t k,
                        const T* A, index_t lda, const T* B, index_t ldb, T* C, index_t ldc) {
  using L = low_precision_t<T>;
  // Demote exactly the referenced op(A)/op(B) panels into compact buffers
  // (demote_panel never reads the ld-to-rows gap of a strided panel).
  // Demotion scratch is thread-local and grow-only (workspace-counted), so
  // steady-state calls are allocation-free.
  const index_t arows = (transa == 'N') ? m : k;
  const index_t acols = (transa == 'N') ? k : m;
  const index_t brows = (transb == 'N') ? k : n;
  const index_t bcols = (transb == 'N') ? n : k;
  static thread_local std::vector<L> Af, Bf, Cf;
  ensure_scratch(Af, static_cast<std::size_t>(arows) * acols);
  ensure_scratch(Bf, static_cast<std::size_t>(brows) * bcols);
  ensure_scratch(Cf, static_cast<std::size_t>(m) * n);
  demote_panel(A, lda, arows, acols, Af.data());
  demote_panel(B, ldb, brows, bcols, Bf.data());
  gemm<L>(transa, transb, m, n, k, L(1), Af.data(), arows, Bf.data(), brows, L(0), Cf.data(),
          m);
  // Raw pointer, not the thread_local name: an OpenMP worker would resolve
  // `Cf` to its own (empty) scratch.
  const L* cf = Cf.data();
#pragma omp parallel for if (n > 4)
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) C[i + j * ldc] = static_cast<T>(cf[i + j * m]);
}

/// Upper-block-triangle of S = A^H B over the rows of A and B — the
/// distributable half of the Hermitian overlap (Algorithm 1). Each brick
/// rank calls this on the rows it owns (gathered into compact panels),
/// producing a partial Gram matrix; summing the partials over ranks (in a
/// fixed order, for determinism) and then calling overlap_hermitian_complete
/// reproduces the undecomposed overlap_hermitian_mixed arithmetic bitwise
/// when one rank owns every row. Only blocks I <= J are written — FP64 on the
/// diagonal, reduced precision off the diagonal when `mixed` (Sec. 5.4.2);
/// the strict-lower block triangle of S is left untouched.
template <class T>
void overlap_hermitian_partial(const Matrix<T>& A, const Matrix<T>& B, Matrix<T>& S,
                               index_t mp_block, bool mixed) {
  assert(A.rows() == B.rows() && A.cols() == B.cols());
  const index_t n = A.rows(), N = A.cols();
  S.reshape(N, N);
  const index_t nb = std::max<index_t>(1, std::min(mp_block, N));
  const index_t nblk = (N + nb - 1) / nb;
  auto block = [&](index_t bi, index_t bj) {
    const index_t I = bi * nb, ni = std::min(nb, N - I);
    const index_t J = bj * nb, nj = std::min(nb, N - J);
    if (bi == bj || !mixed) {
      gemm<T>('C', 'N', ni, nj, n, T(1), A.col(I), A.ld(), B.col(J), B.ld(), T(0),
              S.data() + I + J * N, N);
    } else {
      // The inner FP32 GEMM self-counts at the full analytic rate
      // (Sec. 6.3 does not discount reduced-precision FLOPs).
      gemm_low_precision<T>('C', 'N', ni, nj, n, A.col(I), A.ld(), B.col(J), B.ld(),
                            S.data() + I + J * N, N);
    }
  };
  // One block: run it outside any parallel region, so gemm's own team
  // (pooled threads, warm thread-local panels) does the work. An if(false)
  // region would still nest that team one level down, where libgomp starts
  // fresh threads on every call.
  if (nblk == 1) {
    block(0, 0);
    return;
  }
  // Block pairs are independent writes; gemm's internal parallel region
  // degrades to a single-thread team when nested, so the outer collapse is
  // the effective parallelization across block pairs.
#pragma omp parallel for collapse(2) schedule(dynamic)
  for (index_t bi = 0; bi < nblk; ++bi)
    for (index_t bj = 0; bj < nblk; ++bj)
      if (bj >= bi) block(bi, bj);
}

/// Hermitian completion of a (summed) upper-block-triangle overlap: average
/// within diagonal blocks (both mirror entries were computed), conjugate-
/// mirror everything else. `mp_block` must match the partial evaluation.
template <class T>
void overlap_hermitian_complete(Matrix<T>& S, index_t mp_block) {
  const index_t N = S.cols();
  const index_t nb = std::max<index_t>(1, std::min(mp_block, N));
  for (index_t j = 0; j < N; ++j)
    for (index_t i = 0; i < j; ++i) {
      if (i / nb == j / nb) {
        const T avg = (S(i, j) + scalar_traits<T>::conj(S(j, i))) * T(0.5);
        S(i, j) = avg;
        S(j, i) = scalar_traits<T>::conj(avg);
      } else {
        S(j, i) = scalar_traits<T>::conj(S(i, j));
      }
    }
}

/// S = A^H B computed blockwise for a Hermitian result (A == B, or B = H A
/// with H Hermitian — both overlap uses of Algorithm 1). Whole-matrix partial
/// evaluation plus Hermitian completion, halving the CholGS-S / RR-P GEMM
/// work; entries inside diagonal blocks are averaged with their mirror so
/// the returned S is Hermitian to the last bit.
template <class T>
void overlap_hermitian_mixed(const Matrix<T>& A, const Matrix<T>& B, Matrix<T>& S,
                             index_t mp_block, bool mixed) {
  overlap_hermitian_partial(A, B, S, mp_block, mixed);
  overlap_hermitian_complete(S, mp_block);
}

}  // namespace dftfe::la
