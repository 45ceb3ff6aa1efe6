// Tests for the reduced-precision scalars of la/mixed.hpp and the wire codecs
// of dd/exchange.hpp, with emphasis on the BF16 wire scalar:
// round-to-nearest-even demotion accuracy bounds, exact representability,
// special values, the complex two-unit packing, and the per-format wire byte
// counts.

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

/// Store every value through format W's codec into typed wire units, then
/// load it back; `w` receives the units.
template <dd::Wire W, class T>
std::vector<T> wire_round_trip(const std::vector<T>& x,
                               std::vector<typename dd::WireCodec<W, T>::unit>& w) {
  using Codec = dd::WireCodec<W, T>;
  w.assign(x.size() * Codec::units, {});
  for (std::size_t i = 0; i < x.size(); ++i) Codec::store(x[i], w.data() + i * Codec::units);
  std::vector<T> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = Codec::load(w.data() + i * Codec::units);
  return y;
}

TEST(Bf16, PanelDemotePromoteRealAndComplex) {
  using dd::Wire;
  const index_t n = 257;  // odd, larger than any vector unroll
  std::vector<double> x(n);
  for (index_t i = 0; i < n; ++i) x[i] = std::ldexp(std::sin(0.37 * i + 0.1), i % 21 - 10);
  std::vector<bf16_t> w;
  const std::vector<double> xr = wire_round_trip<Wire::bf16>(x, w);
  const double bound = std::ldexp(1.0, -8);
  for (index_t i = 0; i < n; ++i)
    EXPECT_LE(std::abs(xr[i] - x[i]), bound * std::abs(x[i]) + 1e-300) << i;

  std::vector<std::complex<double>> z(n);
  for (index_t i = 0; i < n; ++i)
    z[i] = std::complex<double>(std::cos(0.23 * i), -std::sin(0.31 * i));
  std::vector<bf16_t> wz;
  const std::vector<std::complex<double>> zr = wire_round_trip<Wire::bf16>(z, wz);
  ASSERT_EQ(wz.size(), static_cast<std::size_t>(2 * n));  // two units per complex value
  for (index_t i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(zr[i].real() - z[i].real()), bound * std::abs(z[i].real()) + 1e-300);
    EXPECT_LE(std::abs(zr[i].imag() - z[i].imag()), bound * std::abs(z[i].imag()) + 1e-300);
    EXPECT_EQ(zr[i], (dd::WireCodec<Wire::bf16, std::complex<double>>::load(wz.data() + 2 * i)))
        << i;
  }

  // The fp64 format is lossless (bitwise), and fp32 carries a complex value
  // as one complex<float> unit within FP32 rounding.
  std::vector<double> w64;
  EXPECT_EQ(wire_round_trip<Wire::fp64>(x, w64), x);
  std::vector<std::complex<double>> wz64;
  EXPECT_EQ(wire_round_trip<Wire::fp64>(z, wz64), z);
  std::vector<std::complex<float>> wz32;
  const std::vector<std::complex<double>> zr32 = wire_round_trip<Wire::fp32>(z, wz32);
  ASSERT_EQ(wz32.size(), static_cast<std::size_t>(n));
  const double bound32 = std::ldexp(1.0, -24);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(zr32[i].real() - z[i].real()), bound32 * std::abs(z[i].real())) << i;
    EXPECT_LE(std::abs(zr32[i].imag() - z[i].imag()), bound32 * std::abs(z[i].imag())) << i;
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
