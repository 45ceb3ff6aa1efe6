#pragma once

// Bridge from the workspace memory layer to the observability registry: one
// call publishes the WorkspaceCounters totals as gauges under the RunReport
// memory-ledger vocabulary (mem.workspace.*). The ChFES scratch high-water
// line (mem.pool.chfes.*) is published by KohnShamDFT::solve.
//
// Kept out of workspace.hpp on purpose: the la target does not link obs, so
// this header may only be included from TUs that do (core, bench, examples,
// tests) — everything here is inline and instantiated at the call site.

#include "la/workspace.hpp"
#include "obs/metrics.hpp"

namespace dftfe::la {

/// Snapshot the workspace layer into gauges. Call at report-emission points
/// (end of a simulation or bench), not on the hot path.
inline void publish_workspace_metrics(
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global()) {
  metrics.gauge_set("mem.workspace.allocations",
                    static_cast<double>(WorkspaceCounters::allocations()));
  metrics.gauge_set("mem.workspace.bytes_allocated",
                    static_cast<double>(WorkspaceCounters::bytes_allocated()));
  metrics.gauge_set("mem.workspace.checkouts",
                    static_cast<double>(WorkspaceCounters::checkouts()));
}

}  // namespace dftfe::la
