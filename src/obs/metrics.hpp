#pragma once

// Solver metrics registry: counters (monotonic accumulators), gauges (last
// value wins) and ordered time series (one append per SCF/outer iteration).
//
// This is the machine-readable side of the convergence diagnostics the
// solvers previously printf'd: SCF residual and Fermi level per iteration,
// Anderson mixing depth, Poisson PCG and adjoint block-MINRES iteration
// counts, Chebyshev filter degree and block size. It rolls up, with the
// ProfileRegistry span durations and the FlopCounter per-step FLOPs, into
// the per-run RunReport artifact (obs/report.hpp). Span durations are not
// recorded here: each span is aggregated once, in the ProfileRegistry.
//
// All operations are mutex-guarded; recording from OpenMP-parallel sections
// is safe. Keep calls at per-iteration granularity (not inner loops).
//
// Hot-path note: every mutating call takes std::string_view and the maps use
// transparent comparators (std::less<>), so recording against an existing
// key performs no allocation — only the first occurrence of a key copies it
// into the map. Callers on the hot path should pass literal or prebuilt
// names.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dftfe::obs {

class MetricsRegistry {
 public:
  struct Snapshot {
    std::map<std::string, double, std::less<>> counters;
    std::map<std::string, double, std::less<>> gauges;
    std::map<std::string, std::vector<double>, std::less<>> series;
  };

  void counter_add(std::string_view name, double v) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end())
      counters_.emplace(std::string(name), v);
    else
      it->second += v;
  }
  void gauge_set(std::string_view name, double v) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
      gauges_.emplace(std::string(name), v);
    else
      it->second = v;
  }
  /// Append one point to an ordered series (insertion order is preserved).
  void series_append(std::string_view name, double v) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = series_.find(name);
    if (it == series_.end()) it = series_.emplace(std::string(name), std::vector<double>{}).first;
    it->second.push_back(v);
  }

  double counter(std::string_view name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }
  double gauge(std::string_view name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }
  std::vector<double> series(std::string_view name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = series_.find(name);
    return it == series_.end() ? std::vector<double>{} : it->second;
  }

  Snapshot snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return {counters_, gauges_, series_};
  }
  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    counters_.clear();
    gauges_.clear();
    series_.clear();
  }

  /// The registry global() resolves to on the calling thread: the installed
  /// job's registry (obs::JobScope, base/sinks.hpp), else the process-wide
  /// one, so N concurrent jobs in one process do not interleave their scf.*
  /// series / gauges in a single map.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, std::vector<double>, std::less<>> series_;
};

}  // namespace dftfe::obs
