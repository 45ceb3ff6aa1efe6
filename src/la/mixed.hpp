#pragma once

// Mixed-precision helpers (Sec. 5.4.2 of the paper). Two uses:
//  * FP32 wire format for FE partition-boundary communication (src/dd packs
//    ghost values through these converters);
//  * FP32 evaluation of the off-diagonal blocks of S = X^H X and of the
//    Rayleigh-Ritz projection, with FP64 kept on the diagonal blocks. As the
//    SCF converges the filtered vectors approach eigenvectors and the
//    off-diagonal entries go to zero, so single precision there does not
//    perturb the result beyond the discretization error.

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "base/defs.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "la/view.hpp"
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

template <class T>
void demote(const T* src, low_precision_t<T>* dst, index_t n) {
#pragma omp parallel for if (n > 8192)
  for (index_t i = 0; i < n; ++i) dst[i] = static_cast<low_precision_t<T>>(src[i]);
}

template <class T>
void promote(const low_precision_t<T>* src, T* dst, index_t n) {
#pragma omp parallel for if (n > 8192)
  for (index_t i = 0; i < n; ++i) dst[i] = static_cast<T>(src[i]);
}

/// BF16 wire scalar: the top 16 bits of an IEEE-754 binary32, stored in a
/// uint16 (typed storage, same rationale as the FP32 wire buffers — no raw
/// byte reinterpretation). BF16 keeps FP32's 8-bit exponent, so the dynamic
/// range of boundary values survives; only the mantissa shrinks to 7 bits.
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

/// BF16 units per wire value: real scalars travel as one uint16, complex as
/// two (re, im) — 2 bytes/double and 4 bytes/complex<double> on the wire.
template <class T>
inline constexpr index_t bf16_units = scalar_traits<T>::is_complex ? 2 : 1;

template <class T>
void demote_bf16(const T* src, bf16_t* dst, index_t n) {
#pragma omp parallel for if (n > 8192)
  for (index_t i = 0; i < n; ++i) {
    if constexpr (scalar_traits<T>::is_complex) {
      dst[2 * i] = bf16_from_float(static_cast<float>(src[i].real()));
      dst[2 * i + 1] = bf16_from_float(static_cast<float>(src[i].imag()));
    } else {
      dst[i] = bf16_from_float(static_cast<float>(src[i]));
    }
  }
}

/// Load one value of T from its bf16 wire units (re[, im]).
template <class T>
inline T bf16_load(const bf16_t* src) {
  if constexpr (scalar_traits<T>::is_complex) {
    using R = typename scalar_traits<T>::real_type;
    return T(static_cast<R>(bf16_to_float(src[0])), static_cast<R>(bf16_to_float(src[1])));
  } else {
    return static_cast<T>(bf16_to_float(src[0]));
  }
}

template <class T>
void promote_bf16(const bf16_t* src, T* dst, index_t n) {
#pragma omp parallel for if (n > 8192)
  for (index_t i = 0; i < n; ++i) {
    if constexpr (scalar_traits<T>::is_complex) {
      dst[i] = T(static_cast<typename scalar_traits<T>::real_type>(bf16_to_float(src[2 * i])),
                 static_cast<typename scalar_traits<T>::real_type>(bf16_to_float(src[2 * i + 1])));
    } else {
      dst[i] = static_cast<T>(bf16_to_float(src[i]));
    }
  }
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

/// Upper-block-triangle of S = A^H B over the rows covered by the spans —
/// the distributable half of the Hermitian overlap (Algorithm 1). Each slab
/// rank calls this on the span of rows it owns, producing a partial Gram
/// matrix; summing the partials over ranks (in rank order, for determinism)
/// and then calling overlap_hermitian_complete reproduces the undecomposed
/// overlap_hermitian_mixed arithmetic bitwise when there is a single span
/// covering every row. Only blocks I <= J are written — FP64 on the
/// diagonal, reduced precision off the diagonal when `mixed` (Sec. 5.4.2);
/// the strict-lower block triangle of S is left untouched.
template <class T>
void overlap_hermitian_partial(ConstSpan2D<T> A, ConstSpan2D<T> B, Matrix<T>& S,
                               index_t mp_block, bool mixed) {
  assert(A.rows == B.rows && A.cols == B.cols);
  const index_t n = A.rows, N = A.cols;
  S.reshape(N, N);
  const index_t nb = std::max<index_t>(1, std::min(mp_block, N));
  const index_t nblk = (N + nb - 1) / nb;
  auto block = [&](index_t bi, index_t bj) {
    const index_t I = bi * nb, ni = std::min(nb, N - I);
    const index_t J = bj * nb, nj = std::min(nb, N - J);
    if (bi == bj || !mixed) {
      gemm<T>('C', 'N', ni, nj, n, T(1), A.col(I), A.ld, B.col(J), B.ld, T(0),
              S.data() + I + J * N, N);
    } else {
      // The inner FP32 GEMM self-counts at the full analytic rate
      // (Sec. 6.3 does not discount reduced-precision FLOPs).
      gemm_low_precision<T>('C', 'N', ni, nj, n, A.col(I), A.ld, B.col(J), B.ld,
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
/// with H Hermitian — both overlap uses of Algorithm 1). Single-span partial
/// evaluation plus Hermitian completion, halving the CholGS-S / RR-P GEMM
/// work; entries inside diagonal blocks are averaged with their mirror so
/// the returned S is Hermitian to the last bit.
template <class T>
void overlap_hermitian_mixed(const Matrix<T>& A, const Matrix<T>& B, Matrix<T>& S,
                             index_t mp_block, bool mixed) {
  assert(A.rows() == B.rows() && A.cols() == B.cols());
  overlap_hermitian_partial(cspan(A), cspan(B), S, mp_block, mixed);
  overlap_hermitian_complete(S, mp_block);
}

}  // namespace dftfe::la
