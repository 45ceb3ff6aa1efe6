#include "obs/metrics.hpp"

#include "base/sinks.hpp"

namespace dftfe::obs {

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry reg;
  const TelemetrySinks* sinks = thread_sinks();
  return sinks != nullptr ? *sinks->metrics : reg;
}

}  // namespace dftfe::obs
