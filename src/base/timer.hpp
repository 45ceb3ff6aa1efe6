#pragma once

// Wall-clock timing and the per-section duration registry.
//
// The paper measures per-step wall times (CF, CholGS-S, CholGS-CI, CholGS-O,
// RR-P, RR-D, RR-SR, DC, DH+EP) with MPI_Wtime-style timers (Sec. 6.3). Here
// obs::TraceSpan is the section timer: each completed span adds its duration
// once, to the ProfileRegistry entry of its name, which holds the total, the
// count and the duration distribution. Timer is the plain stopwatch.

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "base/sinks.hpp"

namespace dftfe {

class Timer {
 public:
  Timer() { reset(); }
  void reset() { start_ = clock::now(); }
  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Duration aggregate of one named section: exact count / total / min / max
/// plus a fixed-footprint log2 histogram of 64 power-of-two buckets spanning
/// [2^-40, 2^24) seconds (~1e-12 .. 1.6e7). Memory is bounded and independent
/// of the number of recorded durations, so every span of a run is kept.
struct Histogram {
  static constexpr int kBuckets = 64;
  static constexpr int kMinExp = -40;  // bucket 0 holds values < 2^kMinExp (and <= 0)

  double seconds = 0.0;  // sum of the recorded durations
  std::int64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Bucket index for a value: floor(log2 v) - kMinExp, clamped to the range.
  static int bucket_of(double v) {
    if (!(v > 0.0) || !std::isfinite(v)) return 0;
    int e = std::ilogb(v) - kMinExp;
    if (e < 0) e = 0;
    if (e >= kBuckets) e = kBuckets - 1;
    return e;
  }

  void record(double v) {
    if (count == 0) {
      min = max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    ++count;
    seconds += v;
    ++buckets[static_cast<std::size_t>(bucket_of(v))];
  }

  double mean() const { return count == 0 ? 0.0 : seconds / static_cast<double>(count); }

  /// Approximate quantile from the bucket boundaries (upper edge of the
  /// bucket containing the q-th value; exact enough for regression triage).
  double quantile(double q) const {
    if (count == 0) return 0.0;
    const double target = q * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets[static_cast<std::size_t>(i)];
      if (static_cast<double>(seen) >= target)
        return std::ldexp(1.0, i + kMinExp + 1);  // upper bucket edge
    }
    return max;
  }
};

/// Per named section, the Histogram of its completed durations. Mutex-guarded
/// so OpenMP-parallel sections and concurrent lanes can record; the lock sits
/// on the (rare) section-completion path, never inside Timer. The map uses a
/// transparent comparator, so adding to an existing name does not allocate.
class ProfileRegistry {
 public:
  using Entry = Histogram;

  void add(std::string_view name, double seconds) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) it = entries_.emplace(std::string(name), Entry{}).first;
    it->second.record(seconds);
  }
  /// Pointer into the registry (std::map nodes are stable across inserts);
  /// nullptr when the section was never recorded.
  const Entry* find(std::string_view name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
  }
  double seconds(std::string_view name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.seconds;
  }
  /// Consistent copy of all entries.
  std::map<std::string, Entry, std::less<>> entries() const {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_;
  }
  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    entries_.clear();
  }

  /// The registry global() resolves to on the calling thread: the installed
  /// job's registry (base/sinks.hpp), else the process-wide one.
  static ProfileRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace dftfe
