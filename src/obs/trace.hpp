#pragma once

// Thread-safe hierarchical span tracer.
//
// A TraceSpan is the section timer: construction pushes the span onto a
// per-thread stack (establishing parent/child nesting), destruction adds the
// elapsed seconds once to the ProfileRegistry entry of the same name (total,
// count and duration histogram) and records a completed TraceEvent with
// steady-clock timestamps into the TraceRecorder. Both sinks are the ones the
// span was given, by default the calling thread's global() instances. The
// recorder serializes to the Chrome trace-event JSON format
// (chrome://tracing, Perfetto) via obs/export.hpp.
//
// Span names follow the paper's step vocabulary (Sec. 6.3): CF, CholGS-S,
// CholGS-CI, CholGS-O, RR-P, RR-D, RR-SR, DC, DH, EP — plus higher-level
// phases (SCF, SCF-iter, Relax-step, invDFT-forward, invDFT-adjoint) that
// nest above them.
//
// Build gate: configure with -DDFTFE_ENABLE_TRACING=OFF to compile event
// capture out entirely; spans then degrade to plain section timers (the
// aggregate ProfileRegistry totals that the bench tables consume survive,
// but no per-event timestamps are captured and the trace export is empty).

#ifndef DFTFE_ENABLE_TRACING
#define DFTFE_ENABLE_TRACING 1
#endif

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "base/timer.hpp"

namespace dftfe::obs {

/// One completed span, timestamps in microseconds since the process epoch.
struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;      // dense per-thread id (0 = first thread seen)
  std::uint64_t id = 0;       // unique span id (> 0)
  std::uint64_t parent = 0;   // enclosing span id on the same thread (0 = root)
  int depth = 0;              // nesting depth (0 = root)
  int lane = -1;              // slab-rank lane of a multi-rank span (-1 = none)
};

/// Bounded, mutex-guarded event store. Recording is wait-free in the common
/// case (one lock per *completed* span — never on the Timer hot path).
class TraceRecorder {
 public:
  void record(TraceEvent ev);
  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  /// Events discarded after the capacity cap was hit.
  std::size_t dropped() const;
  void clear();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  /// Cap on retained events (default 1M) so long runs stay bounded.
  void set_capacity(std::size_t cap);

  /// Microseconds of steady clock since the process trace epoch.
  static double now_us();
  /// Unique, monotonically increasing span id (never 0).
  static std::uint64_t next_span_id();
  /// Dense id of the calling thread (assigned on first use).
  static std::uint32_t thread_id();

  /// The recorder global() resolves to on the calling thread: the installed
  /// job's recorder (obs::JobScope, base/sinks.hpp), else the process-wide
  /// one, so concurrent jobs' span streams stay separable.
  static TraceRecorder& global();

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::size_t capacity_ = 1u << 20;
  std::size_t dropped_ = 0;
  // Atomic rather than mutex-guarded: record() reads the flag before taking
  // the lock, so a plain bool would race a concurrent set_enabled().
  std::atomic<bool> enabled_{true};
};

/// RAII span. Cheap enough for per-SCF-step granularity; not meant for
/// per-element inner loops (use the FlopCounter for those).
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, std::string category = "step",
                     TraceRecorder& rec = TraceRecorder::global(),
                     ProfileRegistry& reg = ProfileRegistry::global());
  /// Lane-tagged span: identical to the default constructor, but the
  /// recorded event carries the slab-rank lane (the per-rank dimension of
  /// the Table-3 step breakdown). Aggregate ProfileRegistry totals still
  /// pool over lanes under the span's name.
  TraceSpan(std::string name, std::string category, int lane,
            TraceRecorder& rec = TraceRecorder::global(),
            ProfileRegistry& reg = ProfileRegistry::global());
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// End the span before scope exit (idempotent; the destructor is a no-op
  /// afterwards). Use when the measured section ends mid-scope.
  void stop();

 private:
  std::string name_;
  std::string category_;
  TraceRecorder* rec_;
  ProfileRegistry* reg_;
  int lane_ = -1;
  bool stopped_ = false;
  Timer t_;
#if DFTFE_ENABLE_TRACING
  double start_us_ = 0.0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  int depth_ = 0;
#endif
};

}  // namespace dftfe::obs
