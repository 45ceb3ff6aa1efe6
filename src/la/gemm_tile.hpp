#pragma once

// The GEMM micro-kernel of la/gemm_kernel.hpp, written once. Each per-ISA
// translation unit (la/gemm_sse2.cpp, la/gemm_avx2.cpp, la/gemm_avx512.cpp)
// defines DFTFE_GEMM_ISA to its vector width in bits, includes this file and
// is compiled with that width's -m flags; it exports one Table.
//
// Everything below has internal linkage, and nothing from the standard
// library is called at run time: an inline or template function with
// external linkage emitted here would be a weak symbol built for this ISA,
// which the linker could hand to code running on a core without it (it
// happens at -O0, where nothing is inlined). tools/check_isa_objects.py
// checks the objects for weak symbols.
//
// Only the vector primitives (Simd<R>) differ between ISAs: unaligned,
// masked and broadcast loads, FMA (a multiply then an add on SSE2), and the
// re/im lane swap of interleaved complex values. Masked loads and stores
// never touch an element past the last row of an operand.

#include <immintrin.h>

#include "la/gemm_kernel.hpp"

#ifndef DFTFE_GEMM_ISA
#error "la/gemm_tile.hpp is included only by the per-ISA kernel translation units"
#endif

namespace dftfe::la::kernel {
namespace {

template <class R>
struct Simd;

#if DFTFE_GEMM_ISA == 512
#if !defined(__AVX512F__) || !defined(__FMA__)
#error "la/gemm_avx512.cpp needs -mavx512f -mfma"
#endif
#define DFTFE_GEMM_TABLE kAvx512Table
constexpr Isa kIsa = Isa::avx512;
constexpr const char* kName = "avx512";
// Tile: kMV vectors of rows by kNR (real) or kNRc (complex) columns of C in
// registers, plus the A column segment and the broadcast B values.
constexpr int kMV = 2, kNR = 6, kNRc = 4;
constexpr int kProbeChains = 16;

template <>
struct Simd<double> {
  using V = __m512d;
  using Mask = __mmask8;
  static constexpr int W = 8;
  static V zero() { return _mm512_setzero_pd(); }
  static V set1(double x) { return _mm512_set1_pd(x); }
  static V load(const double* p) { return _mm512_loadu_pd(p); }
  static Mask mask(int n) { return static_cast<Mask>((1u << n) - 1u); }
  static V load(const double* p, Mask m) { return _mm512_maskz_loadu_pd(m, p); }
  static void store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static void store(double* p, V v, Mask m) { _mm512_mask_storeu_pd(p, m, v); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  // The full-mask form: the unmasked intrinsic trips -Wmaybe-uninitialized.
  static V swap_pairs(V a) { return _mm512_mask_permute_pd(a, 0xFF, a, 0x55); }
};

template <>
struct Simd<float> {
  using V = __m512;
  using Mask = __mmask16;
  static constexpr int W = 16;
  static V zero() { return _mm512_setzero_ps(); }
  static V set1(float x) { return _mm512_set1_ps(x); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static Mask mask(int n) { return static_cast<Mask>((1u << n) - 1u); }
  static V load(const float* p, Mask m) { return _mm512_maskz_loadu_ps(m, p); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static void store(float* p, V v, Mask m) { _mm512_mask_storeu_ps(p, m, v); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  static V swap_pairs(V a) { return _mm512_mask_permute_ps(a, 0xFFFF, a, 0xB1); }
};

#elif DFTFE_GEMM_ISA == 256
#if !defined(__AVX2__) || !defined(__FMA__)
#error "la/gemm_avx2.cpp needs -mavx2 -mfma"
#endif
#define DFTFE_GEMM_TABLE kAvx2Table
constexpr Isa kIsa = Isa::avx2;
constexpr const char* kName = "avx2";
constexpr int kMV = 2, kNR = 6, kNRc = 3;
constexpr int kProbeChains = 12;

template <>
struct Simd<double> {
  using V = __m256d;
  using Mask = __m256i;
  static constexpr int W = 4;
  static V zero() { return _mm256_setzero_pd(); }
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static Mask mask(int n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n), _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static V load(const double* p, Mask m) { return _mm256_maskload_pd(p, m); }
  static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static void store(double* p, V v, Mask m) { _mm256_maskstore_pd(p, m, v); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V swap_pairs(V a) { return _mm256_permute_pd(a, 0x5); }
};

template <>
struct Simd<float> {
  using V = __m256;
  using Mask = __m256i;
  static constexpr int W = 8;
  static V zero() { return _mm256_setzero_ps(); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static Mask mask(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static V load(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, V v, Mask m) { _mm256_maskstore_ps(p, m, v); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V swap_pairs(V a) { return _mm256_permute_ps(a, 0xB1); }
};

#elif DFTFE_GEMM_ISA == 128
#define DFTFE_GEMM_TABLE kSse2Table
constexpr Isa kIsa = Isa::sse2;
constexpr const char* kName = "sse2";
constexpr int kMV = 2, kNR = 6, kNRc = 3;
constexpr int kProbeChains = 12;

// SSE2 has no FMA and no masked moves: fma is a multiply then an add, and a
// partial vector moves through a zeroed stack copy.
template <>
struct Simd<double> {
  using V = __m128d;
  using Mask = int;
  static constexpr int W = 2;
  static V zero() { return _mm_setzero_pd(); }
  static V set1(double x) { return _mm_set1_pd(x); }
  static V load(const double* p) { return _mm_loadu_pd(p); }
  static Mask mask(int n) { return n; }
  static V load(const double* p, Mask n) { return n >= 2 ? _mm_loadu_pd(p) : _mm_load_sd(p); }
  static void store(double* p, V v) { _mm_storeu_pd(p, v); }
  static void store(double* p, V v, Mask n) {
    if (n >= 2)
      _mm_storeu_pd(p, v);
    else
      _mm_store_sd(p, v);
  }
  static V fma(V a, V b, V c) { return _mm_add_pd(_mm_mul_pd(a, b), c); }
  static V mul(V a, V b) { return _mm_mul_pd(a, b); }
  static V add(V a, V b) { return _mm_add_pd(a, b); }
  static V swap_pairs(V a) { return _mm_shuffle_pd(a, a, 1); }
};

template <>
struct Simd<float> {
  using V = __m128;
  using Mask = int;
  static constexpr int W = 4;
  static V zero() { return _mm_setzero_ps(); }
  static V set1(float x) { return _mm_set1_ps(x); }
  static V load(const float* p) { return _mm_loadu_ps(p); }
  static Mask mask(int n) { return n; }
  static V load(const float* p, Mask n) {
    alignas(16) float t[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    for (int i = 0; i < n; ++i) t[i] = p[i];
    return _mm_load_ps(t);
  }
  static void store(float* p, V v) { _mm_storeu_ps(p, v); }
  static void store(float* p, V v, Mask n) {
    alignas(16) float t[4];
    _mm_store_ps(t, v);
    for (int i = 0; i < n; ++i) p[i] = t[i];
  }
  static V fma(V a, V b, V c) { return _mm_add_ps(_mm_mul_ps(a, b), c); }
  static V mul(V a, V b) { return _mm_mul_ps(a, b); }
  static V add(V a, V b) { return _mm_add_ps(a, b); }
  static V swap_pairs(V a) { return _mm_shuffle_ps(a, a, 0xB1); }
};

#else
#error "DFTFE_GEMM_ISA must be 128, 256 or 512"
#endif

// [-1, +1, -1, +1, ...] over the widest vector: the sign pattern of the
// imaginary cross terms of interleaved (re, im) lanes.
template <class R>
constexpr R kSign[16] = {-1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1};

/// alpha and beta as (re, im) pairs; im is 0 for real scalars.
template <class R>
struct Coef {
  R ar, ai, br, bi;
};

/// x * (re + i im) on interleaved lanes (plain x * re for real scalars).
template <class R, bool Cx>
typename Simd<R>::V scale(typename Simd<R>::V x, R re, R im) {
  using S = Simd<R>;
  if (!Cx || im == R(0)) return S::mul(x, S::set1(re));
  return S::fma(S::swap_pairs(x), S::mul(S::load(kSign<R>), S::set1(im)),
                S::mul(x, S::set1(re)));
}

/// One NV-vector by NC-column tile of C = alpha A B + beta C over one pass
/// of `k`. Offsets and leading dimensions count real lanes (two per complex
/// value); `Masked` makes the last row vector partial under `mask`.
template <class R, bool Cx, int NV, int NC, bool Masked>
__attribute__((noinline)) void tile(index_t k, const R* A, index_t lda, const R* B, index_t ldb,
                                    R* C, index_t ldc, typename Simd<R>::Mask mask,
                                    const Coef<R>& co) {
  using S = Simd<R>;
  using V = typename S::V;
  constexpr int W = S::W;
  V acc[NC][NV];
  V aci[NC][NV];  // Im(b) products (complex only)
#pragma GCC unroll 16
  for (int j = 0; j < NC; ++j)
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) acc[j][v] = aci[j][v] = S::zero();

  for (index_t p = 0; p < k; ++p) {
    const R* a = A + p * lda;
    const R* b = B + p * (Cx ? 2 : 1);
    V av[NV];
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v)
      av[v] = (Masked && v == NV - 1) ? S::load(a + v * W, mask) : S::load(a + v * W);
#pragma GCC unroll 16
    for (int j = 0; j < NC; ++j) {
      const V br = S::set1(b[j * ldb]);
#pragma GCC unroll 16
      for (int v = 0; v < NV; ++v) acc[j][v] = S::fma(av[v], br, acc[j][v]);
      if constexpr (Cx) {
        const V bi = S::set1(b[j * ldb + 1]);
#pragma GCC unroll 16
        for (int v = 0; v < NV; ++v) aci[j][v] = S::fma(av[v], bi, aci[j][v]);
      }
    }
  }

  const bool alpha_one = co.ar == R(1) && co.ai == R(0);
  const bool beta_zero = co.br == R(0) && co.bi == R(0);
#pragma GCC unroll 16
  for (int j = 0; j < NC; ++j)
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) {
      V r = acc[j][v];
      // (re, im) += (-Im(a) Im(b), Re(a) Im(b))
      if constexpr (Cx) r = S::fma(S::swap_pairs(aci[j][v]), S::load(kSign<R>), r);
      if (!alpha_one) r = scale<R, Cx>(r, co.ar, co.ai);
      R* c = C + j * ldc + v * W;
      const bool part = Masked && v == NV - 1;
      if (!beta_zero) {
        const V cv = part ? S::load(c, mask) : S::load(c);
        r = (!Cx || co.bi == R(0)) ? S::fma(cv, S::set1(co.br), r)
                                   : S::add(r, scale<R, Cx>(cv, co.br, co.bi));
      }
      if (part)
        S::store(c, r, mask);
      else
        S::store(c, r);
    }
}

template <class R, bool Cx, int NV, bool Masked, int NC>
void tile_cols(int nc, index_t k, const R* A, index_t lda, const R* B, index_t ldb, R* C,
               index_t ldc, typename Simd<R>::Mask mask, const Coef<R>& co) {
  if constexpr (NC > 1) {
    if (nc < NC) {
      tile_cols<R, Cx, NV, Masked, NC - 1>(nc, k, A, lda, B, ldb, C, ldc, mask, co);
      return;
    }
  }
  tile<R, Cx, NV, NC, Masked>(k, A, lda, B, ldb, C, ldc, mask, co);
}

template <class R, bool Cx, int NV>
void tile_rows(int nv, bool masked, int nc, index_t k, const R* A, index_t lda, const R* B,
               index_t ldb, R* C, index_t ldc, typename Simd<R>::Mask mask,
               const Coef<R>& co) {
  if constexpr (NV > 1) {
    if (nv < NV) {
      tile_rows<R, Cx, NV - 1>(nv, masked, nc, k, A, lda, B, ldb, C, ldc, mask, co);
      return;
    }
  }
  constexpr int NR = Cx ? kNRc : kNR;
  if (masked)
    tile_cols<R, Cx, NV, true, NR>(nc, k, A, lda, B, ldb, C, ldc, mask, co);
  else
    tile_cols<R, Cx, NV, false, NR>(nc, k, A, lda, B, ldb, C, ldc, mask, co);
}

/// Depth of one pass over k: a row panel of A this deep and a column panel
/// of B stay in L1 while the column tiles pass (cell matrices from p = 6 on
/// are deeper).
constexpr index_t kKC = 192;

/// C = alpha A B + beta C over the whole matrix, in kKC-deep passes over k
/// (the first applies beta, later ones add into C; the split depends on k
/// alone). Within a pass row tiles are outer, so one A row panel stays in
/// cache while every column tile of B passes it. `alpha` and `beta` point
/// at (re[, im]).
template <class R, bool Cx>
void gemm_nn(index_t m, index_t n, index_t k, const R* alpha, const R* A, index_t lda,
             const R* B, index_t ldb, const R* beta, R* C, index_t ldc) {
  if (m <= 0 || n <= 0) return;
  using S = Simd<R>;
  constexpr index_t E = Cx ? 2 : 1;  // lanes per scalar
  constexpr index_t W = S::W, MR = kMV * W, NR = Cx ? kNRc : kNR;
  Coef<R> co{alpha[0], Cx ? alpha[1] : R(0), beta[0], Cx ? beta[1] : R(0)};
  const index_t rows = m * E;
  index_t k0 = 0;
  do {
    const index_t kb = (k - k0 < kKC) ? k - k0 : kKC;
    for (index_t i0 = 0; i0 < rows; i0 += MR) {
      const index_t r = (rows - i0 < MR) ? rows - i0 : MR;
      const int nv = static_cast<int>((r + W - 1) / W);
      const int last = static_cast<int>(r - (nv - 1) * W);
      const typename S::Mask mask = S::mask(last);
      for (index_t j0 = 0; j0 < n; j0 += NR) {
        const int nc = static_cast<int>((n - j0 < NR) ? n - j0 : NR);
        tile_rows<R, Cx, kMV>(nv, last != W, nc, kb, A + i0 + k0 * lda * E, lda * E,
                              B + (j0 * ldb + k0) * E, ldb * E, C + i0 + j0 * ldc * E, ldc * E,
                              mask, co);
      }
    }
    co.br = R(1);
    co.bi = R(0);
    k0 += kKC;
  } while (k0 < k);
}

// std::complex<R> is layout-compatible with R[2] ([complex.numbers]), so the
// complex entry points run the real lanes of their operands.
void gemm_d(index_t m, index_t n, index_t k, double alpha, const double* A, index_t lda,
            const double* B, index_t ldb, double beta, double* C, index_t ldc) {
  gemm_nn<double, false>(m, n, k, &alpha, A, lda, B, ldb, &beta, C, ldc);
}

void gemm_s(index_t m, index_t n, index_t k, float alpha, const float* A, index_t lda,
            const float* B, index_t ldb, float beta, float* C, index_t ldc) {
  gemm_nn<float, false>(m, n, k, &alpha, A, lda, B, ldb, &beta, C, ldc);
}

void gemm_z(index_t m, index_t n, index_t k, std::complex<double> alpha,
            const std::complex<double>* A, index_t lda, const std::complex<double>* B,
            index_t ldb, std::complex<double> beta, std::complex<double>* C, index_t ldc) {
  gemm_nn<double, true>(m, n, k, reinterpret_cast<const double*>(&alpha),
                        reinterpret_cast<const double*>(A), lda,
                        reinterpret_cast<const double*>(B), ldb,
                        reinterpret_cast<const double*>(&beta), reinterpret_cast<double*>(C),
                        ldc);
}

void gemm_c(index_t m, index_t n, index_t k, std::complex<float> alpha,
            const std::complex<float>* A, index_t lda, const std::complex<float>* B,
            index_t ldb, std::complex<float> beta, std::complex<float>* C, index_t ldc) {
  gemm_nn<float, true>(m, n, k, reinterpret_cast<const float*>(&alpha),
                       reinterpret_cast<const float*>(A), lda, reinterpret_cast<const float*>(B),
                       ldb, reinterpret_cast<const float*>(&beta), reinterpret_cast<float*>(C),
                       ldc);
}

// Sum-factorized apply (Table::sumfac). One SIMD lane per pair: a vector
// holds entry a of W consecutive pairs, so every operator entry is a
// broadcast. Each output is the x sum as an FMA chain in m order from zero,
// plus the y sum, plus the z sum: the arithmetic of the three strided-batched
// GEMMs that compute the same contractions.

/// Lines contracted at once for a compile-time n: N outputs by L lines of
/// accumulators, plus the L loaded inputs and a broadcast operand, fit the
/// vector registers (32 on AVX-512, 16 below).
template <int N>
constexpr int sumfac_lines() {
  constexpr int regs = kIsa == Isa::avx512 ? 32 : 16;
  return (regs - 2) / (N + 1) > 1 ? (regs - 2) / (N + 1) : 1;
}

/// Offset of the first entry of line l of direction d: x lines run
/// along i at (j, k) = (l mod n, l div n), y lines along j at (i, k), z lines
/// along k at (i, j) = (l mod n, l div n). Entries of a line are 1, n and n^2
/// apart.
index_t sumfac_base(int d, index_t n, index_t l) {
  return d == 0 ? n * l : d == 1 ? l % n + n * n * (l / n) : l;
}

/// Direction D's contraction over lines [l0, l0 + L) of one group of pairs:
/// along each line (entries `step` apart)
///   out(o) = sum_m op(o, m) v(m),   op column-major N x N,
/// stored into Y (x) or added to it (y, z).
template <int N, int L, int D, bool Masked>
__attribute__((noinline)) void sumfac_block(const double* op, index_t l0, const double* V,
                                            double* Y, index_t ld,
                                            typename Simd<double>::Mask mask) {
  using S = Simd<double>;
  using Vec = typename S::V;
  const index_t step = (D == 0 ? 1 : D == 1 ? N : N * N) * ld;
  index_t base[L];
#pragma GCC unroll 16
  for (int l = 0; l < L; ++l) base[l] = sumfac_base(D, N, l0 + l) * ld;
  Vec acc[N][L];
#pragma GCC unroll 16
  for (int o = 0; o < N; ++o)
#pragma GCC unroll 16
    for (int l = 0; l < L; ++l) acc[o][l] = S::zero();
#pragma GCC unroll 16
  for (int m = 0; m < N; ++m) {
    Vec v[L];
#pragma GCC unroll 16
    for (int l = 0; l < L; ++l) {
      const double* p = V + base[l] + m * step;
      v[l] = Masked ? S::load(p, mask) : S::load(p);
    }
#pragma GCC unroll 16
    for (int o = 0; o < N; ++o) {
      const Vec a = S::set1(op[o + N * m]);
#pragma GCC unroll 16
      for (int l = 0; l < L; ++l) acc[o][l] = S::fma(a, v[l], acc[o][l]);
    }
  }
#pragma GCC unroll 16
  for (int o = 0; o < N; ++o)
#pragma GCC unroll 16
    for (int l = 0; l < L; ++l) {
      double* y = Y + base[l] + o * step;
      Vec r = acc[o][l];
      if constexpr (D > 0) r = S::add(Masked ? S::load(y, mask) : S::load(y), r);
      if (Masked)
        S::store(y, r, mask);
      else
        S::store(y, r);
    }
}

template <int N, int D, bool Masked>
void sumfac_pass(const double* op, const double* V, double* Y, index_t ld,
                 typename Simd<double>::Mask mask) {
  constexpr int L = sumfac_lines<N>();
  constexpr index_t lines = N * N;
  index_t l0 = 0;
  for (; l0 + L <= lines; l0 += L) sumfac_block<N, L, D, Masked>(op, l0, V, Y, ld, mask);
  if constexpr (lines % L != 0) sumfac_block<N, lines % L, D, Masked>(op, l0, V, Y, ld, mask);
}

/// The x, y and z contractions of one group of pairs, n = N.
template <int N, bool Masked>
void sumfac_group(const double* A, const double* V, double* Y, index_t ld,
                  typename Simd<double>::Mask mask) {
  sumfac_pass<N, 0, Masked>(A, V, Y, ld, mask);
  sumfac_pass<N, 1, Masked>(A + N * N, V, Y, ld, mask);
  sumfac_pass<N, 2, Masked>(A + 2 * N * N, V, Y, ld, mask);
}

/// The same for any n, one output at a time.
template <bool Masked>
void sumfac_group_n(index_t n, const double* A, const double* V, double* Y, index_t ld,
                    typename Simd<double>::Mask mask) {
  using S = Simd<double>;
  using Vec = typename S::V;
  for (int d = 0; d < 3; ++d) {
    const double* op = A + d * n * n;
    const index_t step = (d == 0 ? 1 : d == 1 ? n : n * n) * ld;
    for (index_t l = 0; l < n * n; ++l) {
      const index_t base = sumfac_base(d, n, l) * ld;
      for (index_t o = 0; o < n; ++o) {
        Vec acc = S::zero();
        for (index_t m = 0; m < n; ++m) {
          const double* p = V + base + m * step;
          acc = S::fma(S::set1(op[o + n * m]), Masked ? S::load(p, mask) : S::load(p), acc);
        }
        double* y = Y + base + o * step;
        if (d > 0) acc = S::add(Masked ? S::load(y, mask) : S::load(y), acc);
        if (Masked)
          S::store(y, acc, mask);
        else
          S::store(y, acc);
      }
    }
  }
}

/// Whole groups of W pairs, then a masked partial one; N = 0 runs any n.
template <int N>
void sumfac_run(index_t n, index_t pairs, const double* A, const double* V, double* Y,
                index_t ld) {
  using S = Simd<double>;
  constexpr index_t W = S::W;
  const index_t full = pairs - pairs % W;
  for (index_t q = 0; q < full; q += W) {
    if constexpr (N > 0)
      sumfac_group<N, false>(A, V + q, Y + q, ld, S::mask(W));
    else
      sumfac_group_n<false>(n, A, V + q, Y + q, ld, S::mask(W));
  }
  if (full == pairs) return;
  const typename S::Mask last = S::mask(static_cast<int>(pairs - full));
  if constexpr (N > 0)
    sumfac_group<N, true>(A, V + full, Y + full, ld, last);
  else
    sumfac_group_n<true>(n, A, V + full, Y + full, ld, last);
}

void sumfac_d(index_t n, index_t pairs, const double* A, const double* V, double* Y,
              index_t ld) {
  if (n <= 0 || pairs <= 0) return;
  switch (n) {
    case 5: return sumfac_run<5>(n, pairs, A, V, Y, ld);
    case 6: return sumfac_run<6>(n, pairs, A, V, Y, ld);
    case 7: return sumfac_run<7>(n, pairs, A, V, Y, ld);
    case 8: return sumfac_run<8>(n, pairs, A, V, Y, ld);
    case 9: return sumfac_run<9>(n, pairs, A, V, Y, ld);
    default: return sumfac_run<0>(n, pairs, A, V, Y, ld);
  }
}

/// kProbeChains independent FMA chains x <- 0.999 x + 0.001 (fixed point 1,
/// so no overflow or subnormals), enough chains to cover FMA latency on
/// every port.
template <class R>
double fma_probe(std::int64_t iters, R* sink) {
  using S = Simd<R>;
  using V = typename S::V;
  V acc[kProbeChains];
#pragma GCC unroll 32
  for (int i = 0; i < kProbeChains; ++i) acc[i] = S::set1(R(1) + R(0.001) * R(i));
  const V a = S::set1(R(0.999)), b = S::set1(R(0.001));
  for (std::int64_t it = 0; it < iters; ++it)
#pragma GCC unroll 32
    for (int i = 0; i < kProbeChains; ++i) acc[i] = S::fma(acc[i], a, b);
  alignas(64) R lanes[S::W];
  R total = R(0);
  for (int i = 0; i < kProbeChains; ++i) {
    S::store(lanes, acc[i]);
    for (int l = 0; l < S::W; ++l) total += lanes[l];
  }
  *sink = total;
  return 2.0 * kProbeChains * S::W * static_cast<double>(iters);
}

}  // namespace

extern const Table DFTFE_GEMM_TABLE;
const Table DFTFE_GEMM_TABLE{kIsa,     kName,   &gemm_d,           &gemm_s,
                            &gemm_z,  &gemm_c, &sumfac_d,         &fma_probe<double>,
                            &fma_probe<float>};

}  // namespace dftfe::la::kernel
