// Tests for the reduced-precision kernels of la/mixed.hpp, with emphasis on
// the BF16 wire scalar (tentpole satellite): round-to-nearest-even demotion
// accuracy bounds, exact representability, special values, the complex
// two-unit packing, and the per-format wire byte counts.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "dd/exchange.hpp"
#include "la/mixed.hpp"

namespace dftfe::la {
namespace {

TEST(Bf16, RoundTripRelativeErrorIsBoundedByHalfUlp) {
  // BF16 keeps 8 significand bits (1 implicit + 7 stored), so RNE rounding
  // of any normal float has relative error <= 2^-9 ... 2^-8; use the safe
  // half-ulp bound 2^-8 and sweep magnitudes across the exponent range the
  // halo partials actually span.
  const double bound = std::ldexp(1.0, -8);
  for (int e = -60; e <= 60; e += 3)
    for (double m : {1.0, 1.3, 1.7071067811865475, 1.9999}) {
      const double x = std::ldexp(m, e);
      for (const double s : {x, -x}) {
        const double rt = static_cast<double>(bf16_to_float(
            bf16_from_float(static_cast<float>(s))));
        EXPECT_LE(std::abs(rt - s), bound * std::abs(s)) << "x=" << s;
      }
    }
}

TEST(Bf16, ExactValuesSurviveAndSpecialsArePreserved) {
  // Values with <= 8 significand bits are exact in BF16.
  for (double x : {0.0, 1.0, -1.0, 0.5, 1.5, 2.0, 100.0, -240.0, 65536.0}) {
    const float rt = bf16_to_float(bf16_from_float(static_cast<float>(x)));
    EXPECT_EQ(rt, static_cast<float>(x)) << x;
  }
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bf16_to_float(bf16_from_float(inf)), inf);
  EXPECT_EQ(bf16_to_float(bf16_from_float(-inf)), -inf);
  // NaN must stay NaN (and be quieted, not rounded into an infinity).
  EXPECT_TRUE(std::isnan(bf16_to_float(
      bf16_from_float(std::numeric_limits<float>::quiet_NaN()))));
  EXPECT_TRUE(std::isnan(bf16_to_float(
      bf16_from_float(std::numeric_limits<float>::signaling_NaN()))));
  // Signed zero keeps its sign bit.
  EXPECT_TRUE(std::signbit(bf16_to_float(bf16_from_float(-0.0f))));
}

TEST(Bf16, DemotionRoundsToNearestEven) {
  // 1 + 2^-8 is exactly halfway between 1.0 (0x3F80) and 1 + 2^-7 (0x3F81):
  // RNE picks the even mantissa, 1.0. 1 + 3*2^-8 is halfway between 0x3F81
  // and 0x3F82: RNE picks 0x3F82.
  EXPECT_EQ(bf16_from_float(1.0f + std::ldexp(1.0f, -8)), 0x3F80);
  EXPECT_EQ(bf16_from_float(1.0f + 3.0f * std::ldexp(1.0f, -8)), 0x3F82);
  // Just above the tie rounds up.
  EXPECT_EQ(bf16_from_float(1.0f + std::ldexp(1.2f, -8)), 0x3F81);
}

TEST(Bf16, PanelDemotePromoteRealAndComplex) {
  const index_t n = 257;  // odd, larger than any vector unroll
  std::vector<double> x(n), xr(n);
  for (index_t i = 0; i < n; ++i) x[i] = std::ldexp(std::sin(0.37 * i + 0.1), i % 21 - 10);
  std::vector<bf16_t> w(n);
  demote_bf16(x.data(), w.data(), n);
  promote_bf16(w.data(), xr.data(), n);
  const double bound = std::ldexp(1.0, -8);
  for (index_t i = 0; i < n; ++i)
    EXPECT_LE(std::abs(xr[i] - x[i]), bound * std::abs(x[i]) + 1e-300) << i;

  std::vector<std::complex<double>> z(n), zr(n);
  for (index_t i = 0; i < n; ++i)
    z[i] = std::complex<double>(std::cos(0.23 * i), -std::sin(0.31 * i));
  std::vector<bf16_t> wz(2 * n);  // two units per complex value
  demote_bf16(z.data(), wz.data(), n);
  promote_bf16(wz.data(), zr.data(), n);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(zr[i].real() - z[i].real()), bound * std::abs(z[i].real()) + 1e-300);
    EXPECT_LE(std::abs(zr[i].imag() - z[i].imag()), bound * std::abs(z[i].imag()) + 1e-300);
    EXPECT_EQ(zr[i], bf16_load<std::complex<double>>(wz.data() + 2 * i)) << i;
  }
}

TEST(Bf16, WireValueBytesPerFormat) {
  using dd::Wire;
  EXPECT_EQ(dd::wire_value_bytes<double>(Wire::fp64), 8);
  EXPECT_EQ(dd::wire_value_bytes<double>(Wire::fp32), 4);
  EXPECT_EQ(dd::wire_value_bytes<double>(Wire::bf16), 2);
  EXPECT_EQ(dd::wire_value_bytes<std::complex<double>>(Wire::fp64), 16);
  EXPECT_EQ(dd::wire_value_bytes<std::complex<double>>(Wire::fp32), 8);
  EXPECT_EQ(dd::wire_value_bytes<std::complex<double>>(Wire::bf16), 4);
}

}  // namespace
}  // namespace dftfe::la
