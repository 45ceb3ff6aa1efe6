#pragma once

// Telemetry views besides the RunReport (obs/report.hpp, the one
// machine-readable artifact of a run):
//  * chrome_trace_json / write_chrome_trace — the recorder's spans in Chrome
//    trace-event format ("X" complete events); load the file directly in
//    chrome://tracing or https://ui.perfetto.dev.
//  * step_breakdown_table — the human-readable Table-3-layout text table
//    (per-step wall / GFLOP / GFLOPS / optional %-of-peak).
//  * lane_breakdown_table — the per-lane wall of the lane-tagged spans.

#include <string>
#include <vector>

#include "base/flops.hpp"
#include "base/table.hpp"
#include "base/timer.hpp"
#include "obs/trace.hpp"

namespace dftfe::obs {

/// The paper's canonical per-step names (Sec. 6.3 / Table 3 order).
/// CholGS-CI and RR-D are "minor" steps: their wall time is reported but
/// their O(N^3) FLOPs are not charged to the totals, matching the paper.
struct CanonicalStep {
  const char* name;
  bool minor;
};
const std::vector<CanonicalStep>& canonical_steps();

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(const std::string& s);

std::string chrome_trace_json(const TraceRecorder& rec = TraceRecorder::global());
/// Write the Chrome trace to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const TraceRecorder& rec = TraceRecorder::global());

/// A %-of-peak column of step_breakdown_table: its header and the peak
/// (GFLOP/s) each rate is divided by.
struct PeakColumn {
  std::string header;
  double gflops = 0.0;
};

/// Table-3-layout breakdown of the canonical steps plus a "DH+EP+Others"
/// remainder row and a TOTAL row. `total_wall` is the measured wall time the
/// remainder is computed against; each entry of `peaks` adds a %-of-peak
/// column.
TextTable step_breakdown_table(double total_wall, const std::vector<PeakColumn>& peaks = {},
                               const ProfileRegistry& profile = ProfileRegistry::global(),
                               const FlopCounter& flops = FlopCounter::global());

/// Per-lane breakdown of lane-tagged spans (CF-lane, CF-halo, Gram-lane,
/// DC-lane, Engine-apply): one row per span name, one wall-time column per
/// lane — the per-rank view of the Table-3 step breakdown. Built from the
/// recorder's events, so it needs DFTFE_ENABLE_TRACING=ON (the table is
/// empty otherwise).
TextTable lane_breakdown_table(const TraceRecorder& rec = TraceRecorder::global());

}  // namespace dftfe::obs
