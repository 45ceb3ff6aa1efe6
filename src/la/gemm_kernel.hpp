#pragma once

// The register-blocked GEMM micro-kernel behind every dense product of the
// solver: the 'N','N' dense cell applies of la::gemm_strided_batched (degree
// <= 3 and Bloch operators of the KS Hamiltonian and Poisson stiffness,
// serial and on lanes) and the packed panels of la::gemm (CholGS-S/O,
// RR-P/SR, the FP32 tiles of gemm_low_precision); and, beside it, the
// sum-factorization kernel of the degree >= 4 cell applies (Table::sumfac).
//
// One source (la/gemm_tile.hpp) is compiled once per vector width —
// la/gemm_sse2.cpp, la/gemm_avx2.cpp (AVX2 + FMA), la/gemm_avx512.cpp
// (AVX-512F) — and each translation unit exports one Table. active() picks
// the widest variant this core supports, once per process, so every thread
// and lane runs the same arithmetic and the default build stays portable.
//
// Kernel semantics (column-major, no transposes):
//   C (m x n) = alpha * A (m x k) * B (k x n) + beta * C,  C unread if beta == 0.
// An MR x NR tile of C stays in registers for a whole pass over k (passes
// are 192 deep); A is read one column segment at a time and B is broadcast.
// Each C element accumulates a pass's k products in k order from zero and
// adds the passes in order, whatever its tile position, so a result never
// depends on how rows, columns, batch members or threads are split. Complex
// scalars use split accumulators (one fed by Re b, one by Im b), combined
// once per tile: no std::complex product in the loop.
//
// Sum-factorization entry (the degree >= 4 cell apply of fe::CellStiffness):
// the x, y and z contractions of one tensor-product operator over many
// (cell, column) pairs in one call, one pair per SIMD lane (vectorization
// over cells): a vector holds the same entry of W consecutive pairs, so
// every operator entry is a broadcast and no lane is idle for any n. n = 5
// to 9 (degree 4 to 8) are compiled for their n, larger n run one loop. A
// partial last group of pairs uses masked loads and stores. Each output is
// the x sum as an FMA chain in m order from zero, plus the y sum, plus the z
// sum, each chain alike: bitwise the three 'N','N' strided-batched GEMMs of
// this variant that compute the same contractions. Complex vectors with a
// real operator run as two real pairs (re, im).

#include <complex>
#include <cstdint>
#include <span>
#include <type_traits>

#include "base/defs.hpp"

namespace dftfe::la::kernel {

/// A compiled variant, valued by its vector width in bits.
enum class Isa : int { sse2 = 128, avx2 = 256, avx512 = 512 };

template <class T>
using GemmFn = void (*)(index_t m, index_t n, index_t k, T alpha, const T* A, index_t lda,
                        const T* B, index_t ldb, T beta, T* C, index_t ldc);

/// Sum-factorized apply of a tensor-product operator to `pairs` vectors of
/// n^3 entries each (see the header comment). Entry a = i + n (j + n k) of
/// vector q is V[a * ld + q]: vectors fastest. Y (laid out alike) is
/// overwritten with
///   Y(i,j,k) = sum_m Ax(i,m) V(m,j,k) + sum_m Ay(j,m) V(i,m,k) + sum_m Az(k,m) V(i,j,m),
/// where A holds Ax, Ay and Az side by side, column-major n x 3n.
using SumfacFn = void (*)(index_t n, index_t pairs, const double* A, const double* V, double* Y,
                          index_t ld);

/// One variant's entry points. The probes run `iters` rounds of independent
/// FMA chains on full vectors, store a checksum to `sink` and return the
/// floating-point operations done (multiply and add counted apart).
struct Table {
  Isa isa;
  const char* name;
  GemmFn<double> d;
  GemmFn<float> s;
  GemmFn<std::complex<double>> z;
  GemmFn<std::complex<float>> c;
  SumfacFn sumfac;
  double (*fma_probe_d)(std::int64_t iters, double* sink);
  double (*fma_probe_s)(std::int64_t iters, float* sink);
};

/// Every compiled variant, widest first.
std::span<const Table* const> variants();

/// Whether this core (and its OS) runs `isa`'s instructions.
bool host_supports(Isa isa);

/// The widest variant this core supports, chosen on first use.
const Table& active();

template <class T>
GemmFn<T> get(const Table& t) {
  if constexpr (std::is_same_v<T, double>) {
    return t.d;
  } else if constexpr (std::is_same_v<T, float>) {
    return t.s;
  } else if constexpr (std::is_same_v<T, std::complex<double>>) {
    return t.z;
  } else {
    static_assert(std::is_same_v<T, std::complex<float>>, "no GEMM kernel for this scalar");
    return t.c;
  }
}

}  // namespace dftfe::la::kernel
