#include "base/flops.hpp"

namespace dftfe {

FlopCounter& FlopCounter::global() {
  static FlopCounter c;
  const TelemetrySinks* sinks = thread_sinks();
  return sinks != nullptr ? *sinks->flops : c;
}

}  // namespace dftfe
