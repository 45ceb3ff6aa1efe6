#pragma once

// The one per-thread telemetry slot behind every registry's global().
//
// A job (obs::JobScope) owns a private instance of each telemetry sink and
// installs a pointer to their set on its threads; ProfileRegistry::global(),
// FlopCounter::global(), obs::MetricsRegistry::global() and
// obs::TraceRecorder::global() each read their own member from the calling
// thread's set, or fall back to the process-wide instance when none is
// installed. The slot lives in base/ because la/ links only dftfe_base and
// calls FlopCounter::global(); the two obs types are forward-declared.

namespace dftfe {

class ProfileRegistry;
class FlopCounter;
namespace obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace obs

/// The sinks one job records into; an installed set has every member set.
struct TelemetrySinks {
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  ProfileRegistry* profile = nullptr;
  FlopCounter* flops = nullptr;
};

/// The calling thread's installed sink set; null means the process-wide
/// sinks. Managed by obs::JobScope — install/restore through that RAII type.
inline const TelemetrySinks*& thread_sinks() {
  thread_local const TelemetrySinks* sinks = nullptr;
  return sinks;
}

}  // namespace dftfe
