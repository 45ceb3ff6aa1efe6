#pragma once

// The halo wire: how partition-boundary values travel and are counted
// (paper Secs. 5.4.2-5.4.4). Everything the threaded rank engine
// (dd/engine.hpp), its HaloChannel mailboxes (dd/mailbox.hpp), the driver's
// gram wire and the wire benches share lives here, written once:
//  * Wire — the FP64 / FP32 / BF16 format a packet's values travel in, so the
//    numerical effect of reduced-precision boundary communication is real;
//  * WireCodec<W, T> — the one description of a format: its typed storage
//    unit, the units one value occupies, and store/load of one value.
//    with_codec() is the only place a runtime Wire selects a codec, so the
//    pack and unpack loops are written once over it;
//  * wire_value_bytes / halo_packet_bytes — the one bytes-on-the-wire
//    formula, derived from the codec and used by the engine's ledger, the
//    modeled-extrapolation benches and the model checker's scenario packets;
//  * CommModel — latency + bytes / bandwidth, the interconnect time the
//    engine stamps on each packet (slept out on receive when delay injection
//    is on) and the pipeline simulator (dd/pipeline.hpp) charges when it
//    extrapolates to rank counts and interconnects beyond one host;
//  * CommStats — the comm ledger of one lane or one engine: one WireLine
//    (bytes, messages, demotion drift) per format, plus the logical message
//    count and the modeled and pack seconds. kWireNames holds each format's
//    DFTFE_WIRE spelling and the RunReport keys its line publishes under.

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "base/defs.hpp"
#include "la/mixed.hpp"

namespace dftfe::dd {

enum class Wire { fp64, fp32, bf16 };
inline constexpr int kWires = 3;

/// A format's storage: `unit` is the typed wire element (never reinterpreted
/// raw bytes), `units` how many of them one value of T occupies, and
/// store/load convert one value. `lossy` formats feed the drift budget.
template <Wire W, class T>
struct WireCodec;

template <class T>
struct WireCodec<Wire::fp64, T> {
  static constexpr Wire wire = Wire::fp64;
  static constexpr bool lossy = false;
  using unit = T;
  static constexpr index_t units = 1;
  static void store(const T& x, unit* w) { w[0] = x; }
  static T load(const unit* w) { return w[0]; }
};

template <class T>
struct WireCodec<Wire::fp32, T> {
  static constexpr Wire wire = Wire::fp32;
  static constexpr bool lossy = true;
  using unit = la::low_precision_t<T>;
  static constexpr index_t units = 1;
  static void store(const T& x, unit* w) { w[0] = static_cast<unit>(x); }
  static T load(const unit* w) { return static_cast<T>(w[0]); }
};

/// BF16 packs a real scalar into one uint16 unit and a complex value into
/// two (re, im): 2 bytes per double, 4 per complex<double>.
template <class T>
struct WireCodec<Wire::bf16, T> {
  static constexpr Wire wire = Wire::bf16;
  static constexpr bool lossy = true;
  using unit = la::bf16_t;
  static constexpr index_t units = scalar_traits<T>::is_complex ? 2 : 1;
  static void store(const T& x, unit* w) {
    if constexpr (scalar_traits<T>::is_complex) {
      w[0] = la::bf16_from_float(static_cast<float>(x.real()));
      w[1] = la::bf16_from_float(static_cast<float>(x.imag()));
    } else {
      w[0] = la::bf16_from_float(static_cast<float>(x));
    }
  }
  static T load(const unit* w) {
    if constexpr (scalar_traits<T>::is_complex) {
      using R = typename scalar_traits<T>::real_type;
      return T(static_cast<R>(la::bf16_to_float(w[0])), static_cast<R>(la::bf16_to_float(w[1])));
    } else {
      return static_cast<T>(la::bf16_to_float(w[0]));
    }
  }
};

/// Call f(WireCodec<wire, T>{}) for a runtime format: dispatch once, then
/// run the codec's loop with the format fixed at compile time.
template <class T, class F>
constexpr decltype(auto) with_codec(Wire wire, F&& f) {
  switch (wire) {
    case Wire::fp32:
      return f(WireCodec<Wire::fp32, T>{});
    case Wire::bf16:
      return f(WireCodec<Wire::bf16, T>{});
    case Wire::fp64:
      break;
  }
  return f(WireCodec<Wire::fp64, T>{});
}

/// Bytes one value of T occupies on the wire under `wire`.
template <class T>
constexpr std::int64_t wire_value_bytes(Wire wire) {
  return with_codec<T>(wire, [](auto codec) {
    using Codec = decltype(codec);
    return Codec::units * static_cast<std::int64_t>(sizeof(typename Codec::unit));
  });
}

/// Bytes a halo packet of `values` values of T occupies on the wire. The
/// single accounting formula behind the engine's HaloChannel packets
/// (dd/mailbox.hpp), their modeled ready-stamps, and the modeled benches'
/// per-exchange byte counts. tools/model_check sizes its scenario packets
/// through the same channel API, so the protocol it verifies carries exactly
/// these packets.
template <class T>
constexpr std::int64_t halo_packet_bytes(std::int64_t values, Wire wire) {
  return values * wire_value_bytes<T>(wire);
}

/// Names of each format, indexed by Wire: the DFTFE_WIRE spelling and the
/// RunReport ledger keys (obs/report.hpp) its CommStats line publishes
/// under. The lossless fp64 line never drifts, so it has no drift gauge.
struct WireNames {
  const char* name;
  const char* bytes;
  const char* messages;
  const char* drift_rms;
};
inline constexpr std::array<WireNames, kWires> kWireNames{{
    {"fp64", "comm.wire.fp64.bytes", "comm.wire.fp64.messages", nullptr},
    {"fp32", "comm.wire.fp32.bytes", "comm.wire.fp32.messages", "comm.wire.fp32.drift_rms"},
    {"bf16", "comm.wire.bf16.bytes", "comm.wire.bf16.messages", "comm.wire.bf16.drift_rms"},
}};

/// One format's line of the ledger: payload bytes and messages on that wire,
/// and the demotion drift accumulators — sum |x - wire(x)|^2 and sum |x|^2
/// over every value packed through it — behind the RunReport error-budget
/// gauges and the per-job drift_budget hard-fail.
struct WireLine {
  std::int64_t bytes = 0;
  std::int64_t messages = 0;
  double drift_num = 0.0;
  double drift_den = 0.0;

  /// Relative L2 drift of the packed values: 0 when nothing was packed,
  /// NaN once a NaN value was.
  double drift_rms() const {
    if (drift_den > 0.0) return std::sqrt(drift_num / drift_den);
    return drift_den == 0.0 ? 0.0 : std::numeric_limits<double>::quiet_NaN();
  }
};

/// The worst per-format drift of `lines`. NaN sticks: a poisoned wire must
/// never compare as within budget.
inline double worst_drift(const std::array<WireLine, kWires>& lines) {
  double worst = 0.0;
  for (const WireLine& l : lines) {
    const double r = l.drift_rms();
    if (std::isnan(r) || r > worst) worst = r;
  }
  return worst;
}

/// The comm ledger of one lane, or of an engine summed over its lanes.
struct CommStats {
  std::array<WireLine, kWires> lines{};  // indexed by Wire
  // Logical messages: a mixed gram allreduce is one message on two lines.
  std::int64_t messages = 0;
  double modeled_seconds = 0.0;  // interconnect model time
  double pack_seconds = 0.0;     // real pack/unpack time spent

  WireLine& line(Wire w) { return lines[static_cast<std::size_t>(w)]; }
  const WireLine& line(Wire w) const { return lines[static_cast<std::size_t>(w)]; }

  /// Account one payload of `bytes` on format `w`'s line.
  void add(Wire w, std::int64_t bytes) {
    WireLine& l = line(w);
    l.bytes += bytes;
    l.messages += 1;
  }

  /// Total bytes on the wire, every format.
  std::int64_t bytes() const {
    std::int64_t b = 0;
    for (const WireLine& l : lines) b += l.bytes;
    return b;
  }

  double worst_drift() const { return dd::worst_drift(lines); }

  CommStats& operator+=(const CommStats& o) {
    for (std::size_t w = 0; w < lines.size(); ++w) {
      lines[w].bytes += o.lines[w].bytes;
      lines[w].messages += o.lines[w].messages;
      lines[w].drift_num += o.lines[w].drift_num;
      lines[w].drift_den += o.lines[w].drift_den;
    }
    messages += o.messages;
    modeled_seconds += o.modeled_seconds;
    pack_seconds += o.pack_seconds;
    return *this;
  }

  /// The traffic since snapshot `then` (a per-job or per-publish delta).
  CommStats since(const CommStats& then) const {
    CommStats d = *this;
    for (std::size_t w = 0; w < lines.size(); ++w) {
      d.lines[w].bytes -= then.lines[w].bytes;
      d.lines[w].messages -= then.lines[w].messages;
      d.lines[w].drift_num -= then.lines[w].drift_num;
      d.lines[w].drift_den -= then.lines[w].drift_den;
    }
    d.messages -= then.messages;
    d.modeled_seconds -= then.modeled_seconds;
    d.pack_seconds -= then.pack_seconds;
    return d;
  }
};

struct CommModel {
  double bandwidth_bytes_per_s = 25e9;  // ~ one NIC link per rank pair
  double latency_s = 2e-6;

  double time(std::int64_t bytes, std::int64_t messages) const {
    return messages * latency_s + static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }
  /// Recursive-doubling allreduce of `bytes` across `ranks`.
  double allreduce_time(std::int64_t bytes, int ranks) const {
    if (ranks <= 1) return 0.0;
    const int steps = static_cast<int>(std::ceil(std::log2(static_cast<double>(ranks))));
    return steps * (latency_s + static_cast<double>(bytes) / bandwidth_bytes_per_s);
  }
};

}  // namespace dftfe::dd
