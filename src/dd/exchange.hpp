#pragma once

// Wire formats and interconnect accounting for partition-boundary
// communication (paper Secs. 5.4.2-5.4.4).
//
// The threaded rank engine (dd/engine.hpp) moves halo packets between brick
// lanes through the HaloChannel mailboxes of dd/mailbox.hpp; this header
// holds what every packet shares:
//  * Wire — the FP64 / FP32 / BF16 format a packet's values travel in, so the
//    numerical effect of reduced-precision boundary communication is real;
//  * halo_packet_bytes — the one bytes-on-the-wire formula, used by the
//    engine's ledgers, the modeled-extrapolation benches and the model
//    checker's scenario packets alike;
//  * CommModel — latency + bytes / bandwidth, the interconnect time the
//    engine stamps on each packet (slept out on receive when delay injection
//    is on) and the pipeline simulator (dd/pipeline.hpp) charges when it
//    extrapolates to rank counts and interconnects beyond one host;
//  * CommStats — the byte / message / modeled-time ledger of one engine.

#include <cmath>
#include <cstdint>

#include "base/defs.hpp"
#include "la/mixed.hpp"

namespace dftfe::dd {

struct CommStats {
  std::int64_t bytes = 0;
  std::int64_t messages = 0;
  double modeled_seconds = 0.0;  // interconnect model time
  double pack_seconds = 0.0;     // real pack/unpack time spent
  void clear() { *this = CommStats{}; }
};

enum class Wire { fp64, fp32, bf16 };

/// Bytes one value of T occupies on the wire under each format. BF16 packs a
/// real scalar into 2 bytes and a complex value into 4 (two bf16 units).
template <class T>
constexpr std::int64_t wire_value_bytes(Wire wire) {
  switch (wire) {
    case Wire::fp32:
      return static_cast<std::int64_t>(sizeof(la::low_precision_t<T>));
    case Wire::bf16:
      return la::bf16_units<T> * static_cast<std::int64_t>(sizeof(la::bf16_t));
    case Wire::fp64:
      break;
  }
  return static_cast<std::int64_t>(sizeof(T));
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
