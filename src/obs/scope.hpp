#pragma once

// Per-job observability scope — the "tenant dimension" of the telemetry
// stack. Every registry's global() resolves through one thread-local slot
// (base/sinks.hpp) that points at a set of sinks; a JobScope owns one
// private MetricsRegistry, TraceRecorder, ProfileRegistry and FlopCounter and
// installs their set on the constructing thread, so everything a job records
// — scf.* series, span traces, per-step wall times and FLOPs — lands in that
// job's registries instead of interleaving with other tenants in the
// process-wide ones. The RunReport built inside the scope (obs/report.hpp
// resolves its registry defaults at call time) is therefore a clean per-job
// artifact.
//
// Threads a job spawns (the dd::RankEngine brick lanes) do not inherit the
// spawner's thread-locals; the spawning code captures `JobScope::current()`
// and installs it on the new thread with `JobScope::Adopt`. dd/engine.cpp
// does this at lane startup, so lane-side spans/metrics follow the job.
//
// Lifetime rule: every thread that adopted a scope must terminate (or drop
// the adoption) before the JobScope is destroyed — in practice, destroy the
// job's solver (joining its engine lanes) before the scope unwinds. The svc
// job runner orders its locals accordingly (scope first, job after, so the
// job — and its lanes — die first).

#include "base/flops.hpp"
#include "base/sinks.hpp"
#include "base/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dftfe::obs {

class JobScope {
 public:
  /// What a thread's registry lookups currently resolve to: an installed
  /// job's sink set, or null for the process-wide singletons.
  using Token = const TelemetrySinks*;

  JobScope() : prev_(current()) { thread_sinks() = &sinks_; }
  ~JobScope() { thread_sinks() = prev_; }
  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

  /// The calling thread's current resolution, capturable for Adopt on a
  /// thread about to be spawned.
  static Token current() { return thread_sinks(); }

  /// Install a captured Token on this thread for the lifetime of the Adopt
  /// (worker/lane threads joining a job's scope).
  class Adopt {
   public:
    explicit Adopt(Token tok) : prev_(current()) { thread_sinks() = tok; }
    ~Adopt() { thread_sinks() = prev_; }
    Adopt(const Adopt&) = delete;
    Adopt& operator=(const Adopt&) = delete;

   private:
    Token prev_;
  };

 private:
  MetricsRegistry metrics_;
  TraceRecorder trace_;
  ProfileRegistry profile_;
  FlopCounter flops_;
  const TelemetrySinks sinks_{&metrics_, &trace_, &profile_, &flops_};
  Token prev_;
};

}  // namespace dftfe::obs
