#include "base/timer.hpp"

namespace dftfe {

ProfileRegistry& ProfileRegistry::global() {
  static ProfileRegistry reg;
  const TelemetrySinks* sinks = thread_sinks();
  return sinks != nullptr ? *sinks->profile : reg;
}

}  // namespace dftfe
