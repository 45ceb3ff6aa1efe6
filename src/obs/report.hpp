#pragma once

// RunReport: the per-run flight recorder artifact.
//
// The one machine-readable file a run or bench writes: a versioned,
// schema-stable JSON document that unifies the whole telemetry stack:
//   * a hierarchical span tree (from the TraceRecorder) with per-lane wall
//     attribution and self-vs-total seconds per node,
//   * a communication ledger — bytes on the wire per precision, message
//     counts, exposed vs overlapped halo wait, modeled wire seconds, pack
//     time, and the FP32-wire drift error-budget gauge,
//   * a memory ledger — Workspace allocation counters, the ChFES CholGS/RR
//     scratch high-water mark (pool "chfes", published once per solve by
//     KohnShamDFT::solve), and per-lane engine working-set high-water marks,
//   * a convergence record — every metrics time series (the scf.* residual,
//     Fermi level, band energy, Anderson depth and Chebyshev degree, plus
//     poisson.*, relax.* and invdft*.* series) and a numerical-health section,
//   * the ProfileRegistry span aggregates, emitted twice from one registry:
//     `profile` (seconds, count) and `histograms` (count, sum, min, max,
//     quantiles, log2 buckets), and the raw FlopCounter / counter / gauge
//     dumps.
//
// The producers push everything into MetricsRegistry::global() under the
// ledger vocabulary (comm.wire.*, comm.halo.*, comm.lane<k>.*, mem.*,
// scf.*); build_run_report() only *reads* registries, so obs stays at the
// bottom of the layer stack.
//
// Schema: "dftfe.runreport.v1". Versioning policy: fields are append-only
// within a major version — readers must ignore unknown keys; removing or
// renaming a field bumps the version string. Emission is a pure function of
// the RunReport struct with deterministic ordering (maps sorted, span
// children sorted by name, doubles in shortest round-trip %.17g form), so
// emit -> parse -> re-emit is byte-identical; tools/report_diff.py relies on
// this to diff reports structurally.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/flops.hpp"
#include "base/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dftfe::obs {

/// One aggregated node of the span tree: all events that shared the same
/// name-path from a root span, pooled over threads and lanes.
struct ReportSpan {
  std::string name;
  std::int64_t count = 0;  // number of completed events on this path
  double total_s = 0.0;    // inclusive wall (sum over events)
  double self_s = 0.0;     // total minus time inside child spans
  std::map<int, double> lane_s;  // inclusive wall attributed per lane
  std::vector<ReportSpan> children;  // sorted by name
};

struct CommLedger {
  struct WireLine {
    double bytes = 0.0;
    double messages = 0.0;
  };
  WireLine fp64;
  WireLine fp32;
  WireLine bf16;
  double exposed_wait_s = 0.0;  // halo wait the compute could not hide
  double modeled_s = 0.0;       // modeled wire time for the same traffic
  double pack_s = 0.0;          // demote/copy time into wire slots
  double fp32_drift_rms = 0.0;  // RMS relative demotion error (error budget)
  double bf16_drift_rms = 0.0;  // same, BF16 wire
  double drift_budget_used = 0.0;  // worst drift RMS / configured budget
  struct LaneLine {
    int lane = 0;
    double bytes = 0.0;
    double messages = 0.0;
    double exposed_wait_s = 0.0;
  };
  std::vector<LaneLine> lanes;  // sorted by lane
};

struct MemoryLedger {
  double allocations = 0.0;     // WorkspaceCounters::allocations
  double bytes_allocated = 0.0; // cumulative backing-buffer bytes
  double checkouts = 0.0;       // WorkMatrix::acquire calls
  struct PoolLine {
    double highwater_bytes = 0.0;
    double leases = 0.0;
  };
  // Named scratch footprints from `mem.pool.<name>.*` gauges: the one
  // producer is "chfes" (leases stays 0: that scratch is owned, not leased).
  std::map<std::string, PoolLine> pools;
  struct LaneLine {
    int lane = 0;
    double highwater_bytes = 0.0;
  };
  std::vector<LaneLine> lanes;  // engine per-lane working-set high water
};

struct ConvergenceRecord {
  std::int64_t iterations = 0;
  bool converged = false;
  double residual_final = 0.0;
  std::map<std::string, std::vector<double>, std::less<>> series;  // every metrics series
  // Numerical-health section.
  double fp32_drift_rms = 0.0;
  std::int64_t trace_dropped = 0;
};

struct RunReport {
  std::string label;
  double wall_s = 0.0;
  std::int64_t nlanes = 0;
  std::vector<ReportSpan> spans;  // root spans, sorted by name
  CommLedger comm;
  MemoryLedger memory;
  ConvergenceRecord convergence;
  std::map<std::string, ProfileRegistry::Entry, std::less<>> profile;  // per span name
  std::map<std::string, double, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  double flops_total = 0.0;
  std::map<std::string, double> flop_steps;
};

/// Assemble a RunReport from the live registries. `wall_s < 0` derives the
/// wall from the recorded span timestamps (falling back to the
/// "Simulation-run" profile bucket when tracing is compiled out).
RunReport build_run_report(const std::string& label, double wall_s = -1.0,
                           const TraceRecorder& rec = TraceRecorder::global(),
                           const MetricsRegistry& metrics = MetricsRegistry::global(),
                           const ProfileRegistry& profile = ProfileRegistry::global(),
                           const FlopCounter& flops = FlopCounter::global());

/// Serialize (schema dftfe.runreport.v1, single line, deterministic order).
std::string run_report_json(const RunReport& report);

/// Serialize to `path` (a trailing newline is appended); false on I/O error.
bool write_run_report(const std::string& path, const RunReport& report);

/// Parse a dftfe.runreport.v1 document back into a RunReport. Returns false
/// on malformed JSON or a schema mismatch. Unknown keys are ignored
/// (append-only schema policy).
bool parse_run_report(const std::string& text, RunReport& out);

}  // namespace dftfe::obs
